"""The breadth-first walk `hypergraph.reach` and the routines built on it,
against the hand-rolled traversals they replaced.

The oracles below are those traversals: each builds its own
agent -> hyperedge index and runs its own queue.  On random hypergraphs
(isolated agents and repeated hyperedges included), random spanning trees
and random r-uniform hypertrees, the walk must give the same answers.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import Hypergraph, is_connected
from loccgraph.enumeration import random_r_uniform_hypertree, random_spanning_tree
from loccgraph.hypergraph import components, hyperpath, reach
from loccgraph.witnesses import _proper_two_coloring


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def _incidence(h):
    index = {a: [] for a in h.agents}
    for e in h.edges:
        for a in e:
            index[a].append(e)
    return index


def oracle_reach(h, start, skip=None):
    """`reach` as it was before the index was kept with the state: a new
    index, without the `skip` instances, on every call."""
    index = {a: [] for a in h.agents}
    for e in h.edges:
        if e != skip:
            for a in e:
                index[a].append(e)
    via = {start: None}
    frontier = [start]
    for x in frontier:
        for e in index[x]:
            for y in e:
                if y not in via:
                    via[y] = (x, e)
                    frontier.append(y)
    return via


def oracle_is_connected(h):
    if h.n == 1:
        return True
    index = _incidence(h)
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
    index = _incidence(h)
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
    index = _incidence(h)
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


def oracle_hyperpath(h, a, b):
    index = _incidence(h)
    via = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for e in index[x]:
            for y in e:
                if y not in via:
                    via[y] = (x, e)
                    queue.append(y)
    if b not in via:
        raise ValueError(f"no hyperpath between {a} and {b}")
    edges = []
    junctions = []
    cur = b
    while via[cur] is not None:
        prev, e = via[cur]
        edges.append(e)
        cur = prev
        if via[cur] is not None:
            junctions.append(cur)
    edges.reverse()
    junctions.reverse()
    return edges, junctions


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
    index = _incidence(t)
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
    assert is_connected(h) == oracle_is_connected(h)
    assert components(h) == oracle_components(h)


@settings(max_examples=300, deadline=None)
@given(any_structure)
def test_walk_without_an_edge_matches_oracle(h):
    for v in h.agents:
        for skip in sorted(set(h.edges)) + [None]:
            via = reach(h, v, skip=skip)
            assert frozenset(via) == oracle_component_without(h, v, skip)
            # discovery order: every agent after the agent it was reached from
            order = list(via)
            assert via[v] is None and order[0] == v
            for y, (x, e) in list(via.items())[1:]:
                assert order.index(x) < order.index(y)
                assert x in e and y in e and e != skip


@settings(max_examples=300, deadline=None)
@given(any_structure, st.data())
def test_walk_matches_the_per_call_index_oracle(h, data):
    # one state serves every start and skip, so its kept index is reused;
    # skips are absent, present once or repeated, or an edge of no state
    skips = [None, *sorted(set(h.edges)), tuple(h.agents[:2]), (-1, -2)]
    for skip in data.draw(st.permutations(skips)):
        for v in h.agents:
            assert list(reach(h, v, skip=skip).items()) == list(oracle_reach(h, v, skip).items())


@settings(max_examples=300, deadline=None)
@given(any_structure)
def test_hyperpath_matches_oracle(h):
    for a in h.agents:
        for b in h.agents:
            try:
                expected = oracle_hyperpath(h, a, b)
            except ValueError:
                with pytest.raises(ValueError):
                    hyperpath(h, a, b)
            else:
                assert hyperpath(h, a, b) == expected


@settings(max_examples=200, deadline=None)
@given(trees)
def test_tree_paths_and_two_coloring_match_oracle(t):
    for a in t.agents:
        for b in t.agents:
            if a != b:
                assert [a, *hyperpath(t, a, b)[1], b] == oracle_tree_vertex_path(t, a, b)
    assert _proper_two_coloring(t) == oracle_proper_two_coloring(t)
