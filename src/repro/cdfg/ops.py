"""Operation vocabulary of the CDFG and its scalar semantics.

Every CDFG node has an :class:`OpKind`.  This module also centralises:

* the port signature of each kind (:func:`signature`), used by the
  validator;
* which kinds are *pure* (safe for CSE / folding);
* which kinds an FPFA ALU can execute (:data:`ALU_OPS`), used by the
  clustering phase;
* the integer semantics of each scalar operator (:func:`eval_op`),
  shared by the interpreter, the constant folder and the tile
  simulator so all three agree by construction.

Integer semantics follow C for the operators the subset exposes, with
two documented totalisations so that speculative evaluation (used by
if-conversion) can never trap:

* division / modulo by zero yield 0;
* shifts by negative amounts yield 0, shifts are arithmetic.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from typing import Callable


class PortType(enum.Enum):
    """Static type of a value travelling along a CDFG edge."""

    VALUE = "value"      # integer data
    ADDRESS = "address"  # a statespace address (ad field of a tuple)
    STATE = "state"      # the statespace itself


@dataclass(frozen=True, order=True)
class Address:
    """A statespace address: a symbolic base name plus integer offset.

    The paper's unrolled FIR figure labels fetched locations ``a##0``,
    ``c##3`` and so on: array element ``a[i]`` at constant ``i`` is the
    address ``Address("a", i)``; scalar ``sum`` is ``Address("sum")``.
    """

    name: str
    offset: int = 0

    def __str__(self) -> str:
        if self.offset == 0 and "#" not in self.name:
            # Scalars print bare; array bases always show the offset.
            return self.name
        return f"{self.name}##{self.offset}"

    def shifted(self, delta: int) -> "Address":
        """Return this address displaced by *delta* words."""
        return Address(self.name, self.offset + delta)


class OpKind(enum.Enum):
    """Every operation a CDFG node can perform."""

    # Structural
    CONST = "const"        # value: int                         -> VALUE
    ADDR = "addr"          # value: Address                     -> ADDRESS
    INPUT = "input"        # value: slot index or name          -> VALUE
    OUTPUT = "output"      # (value), value: slot index or name
    SS_IN = "ss_in"        #                                    -> STATE
    SS_OUT = "ss_out"      # (state)

    # Statespace primitives (paper Fig. 2)
    ST = "ST"              # (state, address, value)            -> STATE
    FE = "FE"              # (state, address)                   -> VALUE
    DEL = "DEL"            # (state, address)                   -> STATE

    # Address arithmetic (array indexing with a dynamic index)
    ADDR_ADD = "addr+"     # (address, value)                   -> ADDRESS

    # Arithmetic
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    MOD = "%"
    NEG = "neg"

    # Bitwise
    AND = "&"
    OR = "|"
    XOR = "^"
    NOT = "~"
    SHL = "<<"
    SHR = ">>"

    # Comparison (produce 0/1)
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="
    EQ = "=="
    NE = "!="

    # Logical (non-short-circuit dataflow forms, produce 0/1)
    LAND = "&&"
    LOR = "||"
    LNOT = "!"

    # Intrinsics
    MIN = "min"
    MAX = "max"
    ABS = "abs"

    # Selection (control info steering a MUX, paper §III)
    MUX = "mux"            # (cond, if_true, if_false)

    # Compound control (paper: iteration and selection statements)
    LOOP = "loop"
    BRANCH = "branch"

    # Members are singletons compared by identity, so the identity hash
    # is consistent with ``==``.  ``Enum.__hash__`` hashes the member
    # name in Python on every call, and the transforms hash kinds in
    # their inner loops (sets, dict keys, CSE keys).  Nothing can
    # depend on the old value: string hashes are salted per process.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


V = PortType.VALUE
A = PortType.ADDRESS
S = PortType.STATE

# kind -> (input port types, output port types); None means
# variadic/special (INPUT, OUTPUT, LOOP, BRANCH, MUX handled apart).
_SIGNATURES: dict[OpKind, tuple[tuple[PortType, ...], tuple[PortType, ...]]]
_SIGNATURES = {
    OpKind.CONST: ((), (V,)),
    OpKind.ADDR: ((), (A,)),
    OpKind.SS_IN: ((), (S,)),
    OpKind.SS_OUT: ((S,), ()),
    OpKind.ST: ((S, A, V), (S,)),
    OpKind.FE: ((S, A), (V,)),
    OpKind.DEL: ((S, A), (S,)),
    OpKind.ADDR_ADD: ((A, V), (A,)),
    OpKind.NEG: ((V,), (V,)),
    OpKind.NOT: ((V,), (V,)),
    OpKind.LNOT: ((V,), (V,)),
    OpKind.ABS: ((V,), (V,)),
}

_BINARY_KINDS = (
    OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
    OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.SHL, OpKind.SHR,
    OpKind.LT, OpKind.LE, OpKind.GT, OpKind.GE, OpKind.EQ, OpKind.NE,
    OpKind.LAND, OpKind.LOR, OpKind.MIN, OpKind.MAX,
)
for _kind in _BINARY_KINDS:
    _SIGNATURES[_kind] = ((V, V), (V,))


def signature(kind: OpKind):
    """Return ``(input_types, output_types)`` or None for special kinds."""
    return _SIGNATURES.get(kind)


#: Kinds with no side effect: identical (kind, inputs, value) nodes can
#: be merged by CSE and folded when inputs are constants.  ``FE`` is
#: pure *given the same state version* — reading never changes the
#: statespace (Fig. 2: FE has no ss_out) — so it appears here and CSE
#: keys include the state operand.
PURE_OPS = frozenset(
    kind for kind in OpKind
    if kind not in (OpKind.ST, OpKind.DEL, OpKind.SS_IN, OpKind.SS_OUT,
                    OpKind.INPUT, OpKind.OUTPUT, OpKind.LOOP, OpKind.BRANCH)
)

#: Kinds whose two value operands commute (used by CSE canonicalisation).
COMMUTATIVE_OPS = frozenset({
    OpKind.ADD, OpKind.MUL, OpKind.AND, OpKind.OR, OpKind.XOR,
    OpKind.EQ, OpKind.NE, OpKind.LAND, OpKind.LOR, OpKind.MIN, OpKind.MAX,
})

#: Operations an FPFA ALU can execute (drives clustering).  Everything
#: scalar; statespace primitives are storage traffic, not ALU work.
ALU_OPS = frozenset({
    OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.MOD,
    OpKind.NEG, OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.NOT,
    OpKind.SHL, OpKind.SHR, OpKind.LT, OpKind.LE, OpKind.GT, OpKind.GE,
    OpKind.EQ, OpKind.NE, OpKind.LAND, OpKind.LOR, OpKind.LNOT,
    OpKind.MIN, OpKind.MAX, OpKind.ABS, OpKind.MUX,
})


def c_div(lhs: int, rhs: int) -> int:
    """C integer division: truncation toward zero; x/0 totalised to 0."""
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


def c_mod(lhs: int, rhs: int) -> int:
    """C remainder: sign follows the dividend; x%0 totalised to 0."""
    if rhs == 0:
        return 0
    return lhs - c_div(lhs, rhs) * rhs


def _shl(lhs: int, rhs: int) -> int:
    return lhs << rhs if rhs >= 0 else 0


def _shr(lhs: int, rhs: int) -> int:
    return lhs >> rhs if rhs >= 0 else 0


_EVAL: dict[OpKind, Callable[..., int]] = {
    OpKind.ADD: operator.add,
    OpKind.SUB: operator.sub,
    OpKind.MUL: operator.mul,
    OpKind.DIV: c_div,
    OpKind.MOD: c_mod,
    OpKind.NEG: operator.neg,
    OpKind.AND: operator.and_,
    OpKind.OR: operator.or_,
    OpKind.XOR: operator.xor,
    OpKind.NOT: operator.invert,
    OpKind.SHL: _shl,
    OpKind.SHR: _shr,
    OpKind.LT: lambda a, b: int(a < b),
    OpKind.LE: lambda a, b: int(a <= b),
    OpKind.GT: lambda a, b: int(a > b),
    OpKind.GE: lambda a, b: int(a >= b),
    OpKind.EQ: lambda a, b: int(a == b),
    OpKind.NE: lambda a, b: int(a != b),
    OpKind.LAND: lambda a, b: int(a != 0 and b != 0),
    OpKind.LOR: lambda a, b: int(a != 0 or b != 0),
    OpKind.LNOT: lambda a: int(a == 0),
    OpKind.MIN: min,
    OpKind.MAX: max,
    OpKind.ABS: abs,
    OpKind.MUX: lambda c, t, f: t if c != 0 else f,
}


def can_eval(kind: OpKind) -> bool:
    """True if :func:`eval_op` knows how to compute *kind*."""
    return kind in _EVAL


def scalar_function(kind: OpKind) -> Callable[..., int] | None:
    """The unwrapped function :func:`eval_op` applies for *kind*
    (None when it has none), for callers that resolve it once and
    apply it many times."""
    return _EVAL.get(kind)


def wrap_value(value: int, width: int | None) -> int:
    """Two's-complement wrap of *value* to *width* bits (None = no-op).

    The single definition shared by the interpreter, the constant
    folder, the unroller and the tile simulator, so a finite-width
    tile wraps identically everywhere.
    """
    if width is None or not isinstance(value, int):
        return value
    modulus = 1 << width
    half = 1 << (width - 1)
    return (value + half) % modulus - half


def eval_op(kind: OpKind, *operands, width: int | None = None):
    """Evaluate a scalar operation; shared by interpreter/folder/simulator.

    MUX is evaluated non-lazily (both arms already computed), matching
    its dataflow-hardware meaning.  With *width* the result wraps to
    the data-path width — compile-time evaluation must use the same
    width as the target tile or constant folding of overflowing
    expressions would diverge from the hardware.
    """
    try:
        function = _EVAL[kind]
    except KeyError:
        raise ValueError(f"operation {kind} has no scalar evaluator") \
            from None
    return wrap_value(function(*operands), width)


#: Mapping from C operator spellings (AST BinOp/UnaryOp) to OpKind.
BINOP_FROM_C = {
    "+": OpKind.ADD, "-": OpKind.SUB, "*": OpKind.MUL, "/": OpKind.DIV,
    "%": OpKind.MOD, "&": OpKind.AND, "|": OpKind.OR, "^": OpKind.XOR,
    "<<": OpKind.SHL, ">>": OpKind.SHR, "<": OpKind.LT, "<=": OpKind.LE,
    ">": OpKind.GT, ">=": OpKind.GE, "==": OpKind.EQ, "!=": OpKind.NE,
    "&&": OpKind.LAND, "||": OpKind.LOR,
}

UNARYOP_FROM_C = {
    "-": OpKind.NEG, "~": OpKind.NOT, "!": OpKind.LNOT,
}

INTRINSIC_FROM_C = {
    "min": OpKind.MIN, "max": OpKind.MAX, "abs": OpKind.ABS,
}
