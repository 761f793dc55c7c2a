"""Fixtures shared by the test modules: the evidence `check` reports, judged
and re-derived as `check` and a reader of its report would."""

import pytest
from hypothesis import Phase, settings

from loccgraph.cli import CLASSIFICATION, _judge_direction
from loccgraph.merging import DEFAULT_COLOR_BOUND, Bicoloring, make_witness
from loccgraph.protocols import DEFAULT_SEARCH_BUDGET

# Every @given test runs without the explain phase: in Hypothesis 6.155.2 it
# can crash while shrinking and hide the falsifying example behind an
# internal AssertionError.
settings.register_profile("loccgraph", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("loccgraph")


def _judge_pair(a, b):
    forward = _judge_direction(a, b, ("source", "target"), color_bound=DEFAULT_COLOR_BOUND,
                               search_budget=DEFAULT_SEARCH_BUDGET)
    backward = _judge_direction(b, a, ("target", "source"), color_bound=DEFAULT_COLOR_BOUND,
                                search_budget=DEFAULT_SEARCH_BUDGET)
    return forward, backward, CLASSIFICATION.get((forward["verdict"], backward["verdict"]),
                                                 "unknown")


def _rederive(entry: dict, source, target):
    witness = make_witness(source, target, Bicoloring(source.agents, entry["a_side"]))
    assert entry["a_side"] == sorted(witness.coloring.a_side)
    assert ((entry["coloring_bits"], entry["source_cut"], entry["target_cut"])
            == (witness.coloring.bits(), witness.source_cut, witness.target_cut))
    return witness


@pytest.fixture(scope="session")
def judge_pair():
    """`judge_pair(a, b)`: the forward and backward entries `check` reports
    for (a, b) at the default bounds, and the classification it draws."""
    return _judge_pair


@pytest.fixture(scope="session")
def rederive():
    """`rederive(entry, source, target)`: a report's witness rebuilt from its
    A side alone, as `make_witness(source, target, Bicoloring(source.agents,
    a_side))`, which recomputes both cuts and rejects a coloring that does
    not block.  The report's bits and cuts must be the rebuilt witness's."""
    return _rederive
