"""Unit tests for the statespace — the paper's §IV memory model and
the three primitive operations of Fig. 2."""

import pytest

from repro.cdfg.ops import Address
from repro.cdfg.statespace import MissingAddressError, StateSpace


class TestPrimitives:
    """ST, FE and DEL one at a time; the Fig. 2 DEL == ST(ad, 0) law
    over random sequences is
    tests/test_paper.py::test_fig2_statespace_primitives."""

    def test_st_adds_tuple(self):
        state = StateSpace().store(Address("x"), 42)
        assert state.fetch(Address("x")) == 42

    def test_fe_reads_without_modifying(self):
        state = StateSpace().store("x", 1)
        assert state.fetch("x") == 1
        assert state.fetch("x") == 1  # FE has no ss_out: repeatable

    def test_st_replaces_existing_tuple(self):
        state = StateSpace().store("x", 1).store("x", 2)
        assert state.fetch("x") == 2

    def test_del_removes_tuple(self):
        state = StateSpace().store("x", 1).delete("x")
        assert Address("x") not in state

    def test_del_of_absent_address_is_noop(self):
        state = StateSpace().delete("nothing")
        assert len(state) == 0

    def test_primitives_are_persistent(self):
        base = StateSpace().store("x", 1)
        updated = base.store("x", 2)
        deleted = base.delete("x")
        assert base.fetch("x") == 1
        assert updated.fetch("x") == 2
        assert Address("x") not in deleted

    def test_fetch_missing_returns_default(self):
        assert StateSpace().fetch("missing") == 0
        assert StateSpace().fetch("missing", default=-1) == -1

    def test_fetch_missing_strict_raises(self):
        with pytest.raises(MissingAddressError):
            StateSpace().fetch("missing", strict=True)

    def test_data_can_be_a_statespace(self):
        """§IV: 'This data can be anything, including a tuple of this
        type again.'"""
        inner = StateSpace().store("y", 7)
        outer = StateSpace().store("nested", inner)
        fetched = outer.fetch("nested")
        assert isinstance(fetched, StateSpace)
        assert fetched.fetch("y") == 7


class TestAddresses:
    def test_string_promoted_to_scalar_address(self):
        state = StateSpace().store("x", 5)
        assert state.fetch(Address("x", 0)) == 5

    def test_array_offsets_are_distinct_addresses(self):
        state = StateSpace().store(Address("a", 0), 1) \
                            .store(Address("a", 1), 2)
        assert state.fetch(Address("a", 0)) == 1
        assert state.fetch(Address("a", 1)) == 2

    def test_same_offset_different_name_distinct(self):
        state = StateSpace().store(Address("a", 3), 1)
        assert Address("b", 3) not in state

    def test_shifted(self):
        assert Address("a", 2).shifted(3) == Address("a", 5)

    def test_str_of_scalar(self):
        assert str(Address("sum")) == "sum"

    def test_str_of_array_element_matches_paper_figure(self):
        # Fig. 3 labels unrolled locations a##0, c##3 ...
        assert str(Address("a", 3)) == "a##3"

    def test_bad_address_type_rejected(self):
        with pytest.raises(TypeError):
            StateSpace().store(123, 1)


class TestConveniences:
    def test_store_and_fetch_array(self):
        state = StateSpace().store_array("v", [9, 8, 7])
        assert state.fetch_array("v", 3) == [9, 8, 7]

    def test_fetch_array_pads_with_default(self):
        state = StateSpace().store_array("v", [1])
        assert state.fetch_array("v", 3) == [1, 0, 0]

    def test_constructor_with_mapping(self):
        state = StateSpace({"x": 1, Address("a", 2): 5})
        assert state.fetch("x") == 1
        assert state.fetch(Address("a", 2)) == 5

    def test_len_and_iter_sorted(self):
        state = StateSpace({"b": 2, "a": 1})
        assert len(state) == 2
        assert [str(address) for address in state] == ["a", "b"]

    def test_items_sorted(self):
        state = StateSpace().store_array("a", [5, 6])
        # offset 0 prints bare (scalars and element 0 share the form)
        assert [(str(k), v) for k, v in state.items()] == [
            ("a", 5), ("a##1", 6)]

    def test_as_dict_snapshot(self):
        state = StateSpace({"x": 1})
        snapshot = state.as_dict()
        snapshot[Address("x")] = 99
        assert state.fetch("x") == 1

    def test_repr_shows_tuples(self):
        assert "(x, 1)" in repr(StateSpace({"x": 1}))


class TestEquality:
    def test_equal_states(self):
        assert StateSpace({"x": 1}) == StateSpace({"x": 1})

    def test_unequal_values(self):
        assert StateSpace({"x": 1}) != StateSpace({"x": 2})

    def test_observational_zero_equals_absent(self):
        """A stored 0 is indistinguishable from no tuple (totalised
        fetch semantics; hardware words always hold something)."""
        assert StateSpace({"x": 0}) == StateSpace()
        assert StateSpace().store("x", 5).store("x", 0) == StateSpace()

    def test_same_tuples_distinguishes_zero_from_absent(self):
        assert not StateSpace({"x": 0}).same_tuples(StateSpace())
        assert StateSpace({"x": 0}).same_tuples(StateSpace({"x": 0}))

    def test_del_equivalent_to_storing_zero(self):
        stored = StateSpace({"x": 3}).store("x", 0)
        deleted = StateSpace({"x": 3}).delete("x")
        assert stored == deleted

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(StateSpace())

    def test_comparison_with_other_type(self):
        assert StateSpace() != 42
