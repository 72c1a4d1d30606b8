"""Shared fixtures and helpers for the test-suite."""

from __future__ import annotations

import random

import pytest

from repro.cdfg.builder import build_main_cdfg
from repro.cdfg.graph import Graph
from repro.cdfg.interp import run_graph
from repro.cdfg.statespace import StateSpace

#: The paper's §V FIR example, verbatim.
FIR_SOURCE = """
void main() {
  sum = 0; i = 0;
  while (i < 5) {
    sum = sum + a[i] * c[i]; i = i + 1;
  }
}
"""


def pytest_configure(config):
    """A leaked file, socket or pipe fails the run: ResourceWarning is
    an error, and so is the warning pytest reports when that error is
    raised inside a finalizer."""
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line(
        "filterwarnings",
        "error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture
def fir_source() -> str:
    return FIR_SOURCE


@pytest.fixture
def fir_graph() -> Graph:
    return build_main_cdfg(FIR_SOURCE)


@pytest.fixture
def fir_state() -> StateSpace:
    return (StateSpace()
            .store_array("a", [1, 2, 3, 4, 5])
            .store_array("c", [10, 20, 30, 40, 50]))


def random_state_for(graph_or_addresses, seed: int = 0,
                     low: int = -99, high: int = 99) -> StateSpace:
    """Random values for a list of addresses (or names)."""
    rng = random.Random(seed)
    state = StateSpace()
    for address in graph_or_addresses:
        state = state.store(address, rng.randint(low, high))
    return state


def assert_behaviour_preserved(source: str, transform, states,
                               **interp_kwargs) -> Graph:
    """Build the CDFG of *source*, apply *transform* (a callable taking
    the graph), and assert the final statespace is unchanged for every
    initial state in *states*.  Returns the transformed graph."""
    reference = build_main_cdfg(source)
    transformed = build_main_cdfg(source)
    transform(transformed)
    for state in states:
        expected = run_graph(reference, state, **interp_kwargs)
        actual = run_graph(transformed, state, **interp_kwargs)
        assert actual.state == expected.state, (
            f"state diverged for initial {state!r}:\n"
            f"expected {expected.state!r}\n"
            f"actual   {actual.state!r}")
        assert actual.outputs == expected.outputs
    return transformed
