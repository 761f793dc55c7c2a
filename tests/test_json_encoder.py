"""The one encoder behind every `--json` report: `dumps` writes each package
value through `cli.to_json`, and the text equals what the per-type encoders
it replaced gave to `json.dumps(value, indent=2)`.

The oracles below are those encoders: each state, move and trace was
copied into lists, and a sweep failure's fields were mapped one by one.
"""

import json
import random

from hypothesis import given, settings, strategies as st

from loccgraph import (
    Bicoloring,
    CatExpand,
    Discard,
    Hypergraph,
    MeasureOut,
    Swap,
    apply_move,
    cat_copies_to_tree,
    legal_moves,
    random_spanning_tree,
    reachability_search,
    trees_copies_to_tree,
)
from loccgraph.cli import MOVE_FIELDS, dumps, to_json


def oracle_state(h):
    return {"agents": list(h.agents), "edges": [list(e) for e in h.edges]}


def oracle_move(m):
    out = {"kind": m.kind}
    for name in MOVE_FIELDS[type(m)]:
        value = getattr(m, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def oracle_trace(t):
    return {"start": oracle_state(t.start), "moves": [oracle_move(m) for m in t.moves],
            "end": oracle_state(t.end)}


def oracle_field(value):
    if isinstance(value, Hypergraph):
        return oracle_state(value)
    if isinstance(value, tuple(MOVE_FIELDS)):
        return oracle_move(value)
    if isinstance(value, Bicoloring):
        return value.bits()
    return value


def oracle_text(value) -> str:
    return json.dumps(value, indent=2)


@st.composite
def states(draw, max_n=7, max_edges=12):
    """A state whose hyperedges, drawn from a small pool, repeat often."""
    agents = tuple(sorted(draw(st.sets(st.integers(-5, 40), min_size=2, max_size=max_n))))
    edge = st.lists(st.sampled_from(agents), min_size=2, max_size=min(len(agents), 5),
                    unique=True)
    pool = draw(st.lists(edge, min_size=1, max_size=5))
    return Hypergraph(agents, tuple(draw(st.lists(st.sampled_from(pool), max_size=max_edges))))


EDGES = st.lists(st.integers(-3, 30), min_size=2, max_size=5, unique=True).map(tuple)
MOVES = st.one_of(
    st.builds(Discard, EDGES),
    st.builds(MeasureOut, EDGES, st.integers(-3, 30)),
    st.builds(Swap, EDGES, EDGES),
    st.builds(CatExpand, EDGES, EDGES),
)


@settings(max_examples=300, deadline=None)
@given(states())
def test_a_state_is_written_as_its_lists(state):
    assert dumps(state) == oracle_text(oracle_state(state))
    assert dumps([state, state]) == oracle_text([oracle_state(state)] * 2)


@settings(max_examples=300, deadline=None)
@given(st.lists(MOVES, max_size=6))
def test_every_move_kind_is_written_with_its_fields_in_order(moves):
    assert dumps(moves) == oracle_text([oracle_move(m) for m in moves])
    for m in moves:
        assert list(to_json(m)) == ["kind", *MOVE_FIELDS[type(m)]]


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 8), st.integers(0, 10 ** 6))
def test_constructed_traces_are_written_as_before(n, seed):
    t1, t2 = random_spanning_tree(n, seed), random_spanning_tree(n, seed + 1)
    traces = [cat_copies_to_tree(t1)]
    if t1 != t2:
        traces.append(trees_copies_to_tree(t1, t2))
    for trace in traces:
        assert dumps(trace) == oracle_text(oracle_trace(trace))
    assert (dumps({"upper_trace": traces[-1]})
            == oracle_text({"upper_trace": oracle_trace(traces[-1])}))


@settings(max_examples=100, deadline=None)
@given(states(max_n=5, max_edges=6), st.integers(0, 10 ** 6), st.integers(0, 4))
def test_searched_traces_are_written_as_before(start, seed, length):
    rng, end = random.Random(seed), start
    for _ in range(length):
        options = legal_moves(end)
        if not options:
            break
        end = apply_move(end, rng.choice(options))
    trace = reachability_search(start, end, budget=20_000)
    assert dumps(trace) == oracle_text(oracle_trace(trace))


@settings(max_examples=200, deadline=None)
@given(states(max_n=6), st.integers(0, 10 ** 6), MOVES, st.text(max_size=20))
def test_sweep_failures_are_written_as_before(state, seed, move, error):
    rng = random.Random(seed)
    coloring = Bicoloring(state.agents,
                          frozenset(a for a in state.agents if rng.random() < 0.5))
    failures = [
        {"n": state.n, "t1": state, "t2": state, "error": error},
        {"state": state, "move": move, "coloring": coloring, "error": error},
        {"error": error},
    ]
    report = {"version": "0", "sweeps": [{"name": "s", "checked": 3, "failures": failures}]}
    expected = {"version": "0", "sweeps": [
        {"name": "s", "checked": 3,
         "failures": [{key: oracle_field(value) for key, value in failure.items()}
                      for failure in failures]}]}
    assert dumps(report) == oracle_text(expected)
