"""Cut-pruned reachability search against the unpruned breadth-first oracle,
and the generated move order against the build-then-sort oracle.

The search oracle is the search as it was before pruning: it expands every
state it discovers.  The pruned search must return the same trace, or None
where the oracle returns None, and it must never run out of budget where
the oracle finished.
"""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

import loccgraph.protocols as protocols
from loccgraph import (
    CatExpand,
    Discard,
    Hypergraph,
    MeasureOut,
    Swap,
    apply_move,
    cat_state,
    copies,
    epr_pair,
    legal_moves,
    make_trace,
    path_tree,
    reachability_search,
)
from loccgraph.enumeration import all_spanning_trees
from loccgraph.errors import BoundExceeded


def H(n, *edges):
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


# the canonical move order as a sort key: kind name, then field by field
ORACLE_KEYS = {
    Discard: lambda m: (m.kind, m.edge),
    MeasureOut: lambda m: (m.kind, m.edge, (m.agent,)),
    Swap: lambda m: (m.kind, m.left, m.right),
    CatExpand: lambda m: (m.kind, m.edge, m.pair),
}


def oracle_legal_moves(state):
    """Every legal move, built edge by edge and then sorted into canonical
    order."""
    distinct = sorted(set(state.edges))
    pairs = [e for e in distinct if len(e) == 2]
    moves = []
    for e in distinct:
        moves.append(Discard(e))
        if len(e) >= 3:
            for v in e:
                moves.append(MeasureOut(edge=e, agent=v))
        for p in pairs:
            if p != e and len(set(p) & set(e)) == 1:
                moves.append(CatExpand(edge=e, pair=p))
    for i, e1 in enumerate(pairs):
        for e2 in pairs[i + 1:]:
            if len(set(e1) & set(e2)) == 1:
                moves.append(Swap(left=e1, right=e2))
    moves.sort(key=lambda m: ORACLE_KEYS[type(m)](m))
    return moves


@st.composite
def move_states(draw):
    """States on up to 9 agents with hyperedges of size 2 to 5, repeated
    hyperedges, isolated agents and edgeless states."""
    n = draw(st.integers(2, 9))
    agents = tuple(range(1, n + 1))
    edge = st.lists(st.sampled_from(agents), min_size=2, max_size=min(5, n),
                    unique=True)
    edges = draw(st.lists(edge, max_size=8))
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return Hypergraph(agents, tuple(map(tuple, edges)))


@settings(max_examples=500, deadline=None)
@given(move_states())
def test_legal_moves_are_generated_in_canonical_order(state):
    assert legal_moves(state) == oracle_legal_moves(state)


@pytest.mark.parametrize("source,target", [
    (path_tree(5), cat_state(5)),
    (copies(path_tree(5), 2), H(5, (1, 5))),
])
@pytest.mark.parametrize("budget", [1, 2, 5, 20])
def test_search_stops_at_the_first_state_past_the_budget(monkeypatch, source, target,
                                                         budget):
    seen = {source.edges}
    past_budget = []

    def marking_apply_move(state, move):
        nxt = apply_move(state, move)
        if nxt.edges not in seen:
            if len(seen) >= budget:
                past_budget.append(nxt)
            else:
                seen.add(nxt.edges)
        return nxt

    def checked_legal_moves(state):
        assert not past_budget, "a state was expanded after the budget was hit"
        return legal_moves(state)

    monkeypatch.setattr(protocols, "apply_move", marking_apply_move)
    monkeypatch.setattr(protocols, "legal_moves", checked_legal_moves)
    with pytest.raises(BoundExceeded,
                       match=f"^state budget {budget} hit before exhausting the space$"):
        reachability_search(source, target, budget=budget)
    assert len(past_budget) == 1


def oracle_search(source, target, budget):
    """Unpruned breadth-first search, in the pruned search's move order."""
    if source == target:
        return make_trace(source, ())
    visited = {source.edges}
    parent = {}
    queue = deque([source])
    truncated = False
    while queue:
        state = queue.popleft()
        for move in legal_moves(state):
            nxt = apply_move(state, move)
            if nxt.edges in visited:
                continue
            if len(visited) >= budget:
                truncated = True
                continue
            visited.add(nxt.edges)
            parent[nxt.edges] = (state, move)
            if nxt == target:
                moves = []
                cur = nxt
                while cur != source:
                    prev, mv = parent[cur.edges]
                    moves.append(mv)
                    cur = prev
                moves.reverse()
                return make_trace(source, moves)
            queue.append(nxt)
    if truncated:
        raise BoundExceeded(f"state budget {budget} hit before exhausting the space")
    return None


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs)
    except BoundExceeded:
        return BoundExceeded


def assert_agrees(source, target, budget):
    """Equal traces, or both None.  The pruned search may finish where the
    oracle ran out of budget, never the other way round; a result it then
    returns must be the oracle's at a budget large enough to finish."""
    expected = _outcome(oracle_search, source, target, budget)
    got = _outcome(reachability_search, source, target, budget=budget)
    if expected is BoundExceeded and got is not BoundExceeded:
        expected = _outcome(oracle_search, source, target, 10 ** 6)
    assert got == expected


EXCLUSIVITY_FAMILY = (list(all_spanning_trees(4))
                      + [cat_state(4), H(4, (1, 2)), H(4, (1, 2), (3, 4))])


def test_exclusivity_family_pairs():
    for s, t in itertools.permutations(EXCLUSIVITY_FAMILY, 2):
        assert_agrees(s, t, 10 ** 5)


def test_every_five_agent_tree_to_cat():
    cat5 = cat_state(5)
    for t in all_spanning_trees(5):
        assert_agrees(t, cat5, 10 ** 6)


def test_two_paths_to_each_epr_pair():
    source = copies(path_tree(5), 2)
    for a, b in itertools.combinations(range(1, 6), 2):
        assert_agrees(source, epr_pair(5, a, b), 10 ** 6)


def test_small_budgets_are_never_hit_earlier():
    source = copies(path_tree(5), 2)
    for budget in (1, 2, 5, 20, 100, 1000):
        for target in (H(5, (1, 5)), cat_state(5), H(5, (1, 2, 3), (3, 4, 5))):
            assert_agrees(source, target, budget)


@pytest.mark.parametrize("source,target,budget", [
    (H(3, (1, 2, 3), (1, 2, 3), (2, 3)), H(3, (1, 2), (1, 2, 3)), 10),   # a trace
    (H(4, (1, 2, 3, 4), (1, 2, 3, 4)), H(4, (1, 3, 4), (1, 3, 4), (1, 3, 4)), 3),
])
def test_pruning_finishes_where_the_oracle_ran_out(source, target, budget):
    with pytest.raises(BoundExceeded, match="state budget .* hit"):
        oracle_search(source, target, budget)
    assert reachability_search(source, target, budget=budget) == \
        oracle_search(source, target, 10 ** 6)
    assert_agrees(source, target, budget)


def _random_state(rng, n):
    edges = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(2, min(4, n))
        edges.append(tuple(rng.sample(range(1, n + 1), k)))
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_small_states(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    source = _random_state(rng, n)
    target = _random_state(rng, n)
    if rng.random() < 0.3:
        # a target derived from the source by a few moves is reachable
        target = source
        for _ in range(rng.randint(1, 3)):
            moves = legal_moves(target)
            if not moves:
                break
            target = apply_move(target, moves[rng.randrange(len(moves))])
    assert_agrees(source, target, 10 ** 4)


@pytest.mark.parametrize("source,target", [
    (cat_state(3), H(3, (1, 3), (2, 3))),          # component cut
    (H(4, (1, 2), (3, 4)), H(4, (2, 3))),          # component cut
    (H(3, (1, 2)), H(3, (1, 2), (1, 3))),          # degree of agent 1
])
def test_blocked_roots_end_without_expanding(monkeypatch, source, target):
    import loccgraph.protocols as protocols_mod

    def refuse(state):
        raise AssertionError("a blocked root must not be expanded")

    monkeypatch.setattr(protocols_mod, "legal_moves", refuse)
    assert reachability_search(source, target) is None
