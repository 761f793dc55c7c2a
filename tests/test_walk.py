"""The breadth-first walk `hypergraph.reach`, the rooted table
`hypergraph.tree_table` and the routines built on them, against the
hand-rolled traversals they replaced.

The oracles are those traversals: each builds its own agent -> hyperedge
index and runs its own queue (`oracle_reach` and `oracle_hyperpath` live in
`walk_oracles`, which the other differential tests share).  On random
hypergraphs (isolated agents and repeated hyperedges included), random
spanning trees and random r-uniform hypertrees, the walk and the table must
give the same answers: the table's `side(x, e)` is the walk from x that
skips e, and its `path(a, b)` is the breadth-first hyperpath.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import Hypergraph, is_connected, is_entangled_hypertree
from loccgraph.enumeration import random_r_uniform_hypertree, random_spanning_tree
from loccgraph.errors import InputError
from loccgraph.hypergraph import reach, tree_table
from loccgraph.witnesses import (_proper_two_coloring, witness_cat_vs_disconnected,
                                 witness_disconnected_vs_cat)

from walk_oracles import incidence, oracle_hyperpath, oracle_reach


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def oracle_is_connected(h):
    if h.n == 1:
        return True
    index = incidence(h)
    seen = {h.agents[0]}
    queue = deque(seen)
    while queue:
        x = queue.popleft()
        for e in index[x]:
            for y in e:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return len(seen) == h.n


def oracle_components(h):
    index = incidence(h)
    seen = set()
    comps = []
    for start in h.agents:
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for e in index[x]:
                for y in e:
                    if y not in comp:
                        comp.add(y)
                        queue.append(y)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def oracle_component_without(h, start, banned):
    index = incidence(h)
    comp = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for e in index[x]:
            if e == banned:
                continue
            for y in e:
                if y not in comp:
                    comp.add(y)
                    queue.append(y)
    return frozenset(comp)


def oracle_tree_vertex_path(t, a, b):
    neighbors = {x: [] for x in t.agents}
    for x, y in t.edges:
        neighbors[x].append(y)
        neighbors[y].append(x)
    parent = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y in sorted(neighbors[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def oracle_proper_two_coloring(t):
    index = incidence(t)
    root = t.agents[0]
    depth = {root: 0}
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for e in index[x]:
            for y in e:
                if y not in depth:
                    depth[y] = depth[x] + 1
                    queue.append(y)
    even = frozenset(a for a, d in depth.items() if d % 2 == 0)
    odd = frozenset(a for a, d in depth.items() if d % 2 == 1)
    if len(odd) != len(even):
        return min(odd, even, key=len)
    return odd


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

@st.composite
def hypergraphs(draw):
    """Up to 7 agents; agents may be isolated and hyperedges may repeat."""
    n = draw(st.integers(1, 7))
    if n == 1:
        return Hypergraph((1,))
    edge = st.lists(st.integers(1, n), min_size=2, max_size=min(4, n), unique=True)
    edges = draw(st.lists(edge, max_size=6))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=2))
    return Hypergraph(tuple(range(1, n + 1)), tuple(map(tuple, edges)))


trees = st.builds(random_spanning_tree, st.integers(2, 9), st.integers(0, 10 ** 6))


@st.composite
def hypertrees(draw):
    r = draw(st.integers(2, 5))
    m = draw(st.integers(1, 4))
    return random_r_uniform_hypertree(m * (r - 1) + 1, r, draw(st.integers(0, 10 ** 6)))


any_structure = st.one_of(hypergraphs(), trees, hypertrees())


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(any_structure)
def test_connectivity_and_components_match_oracle(h):
    # the component witnesses color A the component of the lowest agent
    assert is_connected(h) == oracle_is_connected(h)
    comps = oracle_components(h)
    if len(comps) == 1:
        with pytest.raises(InputError, match="^graph is connected; no component split exists$"):
            witness_disconnected_vs_cat(h)
        return
    assert witness_disconnected_vs_cat(h).coloring.a_side == comps[0]
    if len(h.edges) >= 2 and all(len(e) == 2 for e in h.edges):  # an EPR graph
        assert witness_cat_vs_disconnected(h)[1].coloring.a_side == comps[0]


def agents_in(h, mask):
    return frozenset(a for p, a in enumerate(h.agents) if mask >> p & 1)


@settings(max_examples=300, deadline=None)
@given(any_structure)
def test_walk_without_an_edge_matches_oracle(h):
    # the walk crosses every edge; the table of a hypertree cuts each one
    table = tree_table(h)
    for v in h.agents:
        via = reach(h, v)
        assert frozenset(via) == oracle_component_without(h, v, None)
        # discovery order: every agent after the agent it was reached from
        order = list(via)
        assert via[v] is None and order[0] == v
        for y, (x, e) in list(via.items())[1:]:
            assert order.index(x) < order.index(y)
            assert x in e and y in e
        if table is not None:
            for skip in sorted(set(h.edges)):
                assert agents_in(h, table.side(v, skip)) == oracle_component_without(h, v, skip)


@settings(max_examples=300, deadline=None)
@given(any_structure, st.data())
def test_walk_matches_the_per_call_index_oracle(h, data):
    # one state serves every start, twice over: a walk leaves no index on it
    for v in data.draw(st.permutations(h.agents)) * 2:
        assert list(reach(h, v).items()) == list(oracle_reach(h, v).items())


@settings(max_examples=300, deadline=None)
@given(any_structure)
def test_hyperpath_matches_oracle(h):
    # only an entangled hypertree has a table, and its paths are the hyperpaths
    table = tree_table(h)
    assert (table is not None) == is_entangled_hypertree(h)
    if table is not None:
        for a in h.agents:
            for b in h.agents:
                assert table.path(a, b) == oracle_hyperpath(h, a, b)


@st.composite
def labeled_hypertrees(draw):
    """A random r-uniform hypertree, r = 2..6, over sorted arbitrary labels."""
    r = draw(st.integers(2, 6))
    n = draw(st.integers(1, 5)) * (r - 1) + 1
    labels = sorted(draw(st.sets(st.integers(-50, 1000), min_size=n, max_size=n)))
    h = random_r_uniform_hypertree(n, r, draw(st.integers(0, 10 ** 6)))
    to = dict(zip(h.agents, labels))
    return Hypergraph(tuple(labels), tuple(tuple(to[a] for a in e) for e in h.edges))


@settings(max_examples=200, deadline=None)
@given(labeled_hypertrees())
def test_the_table_cuts_and_climbs_as_the_oracle_walks(h):
    table = tree_table(h)
    for e in h.edges:
        for x in h.agents:  # on e and off it
            assert agents_in(h, table.side(x, e)) == frozenset(oracle_reach(h, x, skip=e))
    for a in h.agents:
        for b in h.agents:
            assert table.path(a, b) == oracle_hyperpath(h, a, b)


@settings(max_examples=200, deadline=None)
@given(trees)
def test_tree_paths_and_two_coloring_match_oracle(t):
    table = tree_table(t)
    for a in t.agents:
        for b in t.agents:
            if a != b:
                assert [a, *table.path(a, b)[1], b] == oracle_tree_vertex_path(t, a, b)
    assert _proper_two_coloring(table) == oracle_proper_two_coloring(t)
