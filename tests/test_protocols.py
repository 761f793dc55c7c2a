"""LOCC move calculus, constructive protocols, reachability."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import (
    Bicoloring,
    CatExpand,
    Discard,
    Hypergraph,
    MeasureOut,
    Swap,
    apply_move,
    bcm_cut,
    cat_copies_to_tree,
    cat_state,
    cat_to_epr,
    copies,
    legal_moves,
    make_trace,
    path_tree,
    reachability_search,
    replay_trace,
    star_tree,
    tree_to_cat,
    trees_copies_to_tree,
)
from loccgraph import hypergraph
from loccgraph.enumeration import all_spanning_trees, random_spanning_tree
from loccgraph.errors import BoundExceeded, IllegalMove, InputError
from loccgraph.distance import quantum_distance


def H(n, *edges):
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


# ---------------------------------------------------------------------------
# single moves
# ---------------------------------------------------------------------------

def test_swap_replaces_the_chain_by_one_pair():
    state = H(3, (1, 2), (2, 3))
    out = apply_move(state, Swap((1, 2), (2, 3)))
    assert out == H(3, (1, 3))


def test_measure_out_shrinks_a_cat():
    out = apply_move(H(3, (1, 2, 3)), MeasureOut((1, 2, 3), 3))
    assert out == H(3, (1, 2))


def test_cat_expand_absorbs_a_pair():
    out = apply_move(H(4, (1, 2, 3), (3, 4)), CatExpand((1, 2, 3), (3, 4)))
    assert out == H(4, (1, 2, 3, 4))


def test_discard_removes_one_instance():
    out = apply_move(H(2, (1, 2), (1, 2)), Discard((1, 2)))
    assert out == H(2, (1, 2))


def test_a_move_may_name_its_edges_in_any_member_order():
    # `_operands` sorts what it removes and adds, for `edit`, which trusts
    # it; the set {3, 8} iterates as (8, 3)
    state = H(8, (3, 5), (5, 8), (4, 6), (1, 2, 4))
    for move, expected in [
        (Discard((5, 3)), H(8, (5, 8), (4, 6), (1, 2, 4))),
        (MeasureOut((4, 2, 1), 4), H(8, (3, 5), (5, 8), (4, 6), (1, 2))),
        (Swap((5, 3), (8, 5)), H(8, (3, 8), (4, 6), (1, 2, 4))),
        (CatExpand((4, 1, 2), (6, 4)), H(8, (3, 5), (5, 8), (1, 2, 4, 6))),
    ]:
        assert apply_move(state, move) == make_trace(state, [move]).end == expected


def test_illegal_moves_are_rejected():
    with pytest.raises(IllegalMove):
        apply_move(H(3, (1, 2)), Discard((2, 3)))
    with pytest.raises(IllegalMove):
        apply_move(H(3, (1, 2)), MeasureOut((1, 2), 1))  # too small
    with pytest.raises(IllegalMove):
        apply_move(H(4, (1, 2), (3, 4)), Swap((1, 2), (3, 4)))  # no shared agent
    with pytest.raises(IllegalMove):
        apply_move(H(3, (1, 2), (1, 2)), Swap((1, 2), (1, 2)))  # shares both
    with pytest.raises(IllegalMove):
        apply_move(H(3, (1, 2, 3)), CatExpand((1, 2, 3), (1, 2)))  # pair inside


def test_agent_set_never_changes():
    state = H(5, (1, 2), (2, 3))
    out = apply_move(state, Swap((1, 2), (2, 3)))
    assert out.agents == state.agents


# ---------------------------------------------------------------------------
# constructive protocols
# ---------------------------------------------------------------------------

def test_tree_to_cat_single_step():
    trace = tree_to_cat(H(3, (1, 2), (2, 3)))
    assert trace.moves == (CatExpand((1, 2), (2, 3)),)
    assert trace.end == cat_state(3)


def test_tree_to_cat_star():
    trace = tree_to_cat(star_tree(4))
    assert len(trace.moves) == 2
    assert trace.end == cat_state(4)
    assert replay_trace(trace) == cat_state(4)


def test_tree_to_cat_uses_exactly_n_minus_two_moves():
    random_trees = (random_spanning_tree(n, seed) for n in range(3, 8) for seed in range(5))
    for t in itertools.chain([path_tree(2)], random_trees, all_spanning_trees(6)):
        trace = tree_to_cat(t)
        assert len(trace.moves) == max(0, t.n - 2)
        assert trace.end == cat_state(t.n)
        assert replay_trace(trace) == cat_state(t.n)


def test_tree_to_cat_rejects_non_trees():
    with pytest.raises(InputError, match="input is not a spanning EPR tree"):
        tree_to_cat(H(3, (1, 2)))


def test_one_agent_makes_no_cat():
    # one agent and no edge is a spanning EPR tree, but no CAT
    for build in (tree_to_cat, cat_copies_to_tree):
        with pytest.raises(InputError, match="^a CAT state needs at least two agents$"):
            build(H(1))


def oracle_tree_to_cat_moves(t):
    """The expansions as they were built, from a second breadth-first walk
    after the one that checked the tree."""
    steps = [(child, step[1]) for child, step in hypergraph.reach(t, t.agents[0]).items()
             if step is not None]
    current, moves = steps[0][1], []
    for child, pair in steps[1:]:
        moves.append(CatExpand(edge=current, pair=pair))
        current = tuple(sorted(current + (child,)))
    return tuple(moves)


def test_tree_to_cat_walks_its_tree_once_and_keeps_its_moves():
    trees = itertools.chain(all_spanning_trees(5), (random_spanning_tree(9, s) for s in range(20)))
    for t in trees:
        with mock.patch.object(hypergraph, "reach", wraps=hypergraph.reach) as walk:
            moves = tree_to_cat(t).moves
        assert walk.call_count == 1
        assert moves == oracle_tree_to_cat_moves(t)


def test_cat_to_epr():
    trace = cat_to_epr(3, 1, 2)
    assert trace.moves == (MeasureOut((1, 2, 3), 3),)
    assert trace.end == H(3, (1, 2))
    trace = cat_to_epr(5, 2, 4)
    assert len(trace.moves) == 3
    assert trace.end == H(5, (2, 4))
    assert cat_to_epr(2, 1, 2).moves == ()
    with pytest.raises(InputError, match=r"agents \(1, 1\) invalid for n=3"):
        cat_to_epr(3, 1, 1)


def test_cat_copies_to_tree():
    t = star_tree(4)
    trace = cat_copies_to_tree(t)
    assert trace.start == copies(cat_state(4), 3)
    assert trace.end == t


def test_cat_copies_to_tree_keeps_the_measure_outs_of_cat_to_epr():
    for n in (2, 3, 4, 5):
        for t in all_spanning_trees(n):
            moves = tuple(m for a, b in t.edges for m in cat_to_epr(n, a, b).moves)
            assert cat_copies_to_tree(t) == make_trace(copies(cat_state(n), n - 1), moves)


def test_cat_copies_to_tree_on_other_labels():
    t = Hypergraph((2, 3, 4), ((2, 3), (3, 4)))
    trace = cat_copies_to_tree(t)
    assert trace.start == copies(Hypergraph((2, 3, 4), ((2, 3, 4),)), 2)
    assert replay_trace(trace) == trace.end == t


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(-30, 500), min_size=2, max_size=8), st.integers(0, 10 ** 6))
def test_cat_copies_to_tree_on_relabeled_trees(labels, seed):
    labels = sorted(labels)
    t = random_spanning_tree(len(labels), seed)
    to = dict(zip(t.agents, labels))
    relabeled = Hypergraph(tuple(labels), tuple((to[a], to[b]) for a, b in t.edges))
    trace = cat_copies_to_tree(relabeled)
    assert trace.start == copies(Hypergraph(tuple(labels), (tuple(labels),)), len(labels) - 1)
    assert replay_trace(trace) == relabeled
    assert len(trace.moves) == (len(labels) - 1) * (len(labels) - 2)


def test_trees_copies_identity_needs_one_copy():
    t = path_tree(4)
    trace = trees_copies_to_tree(t, t)
    assert trace.start == t and trace.end == t and trace.moves == ()


def test_trees_copies_star_to_star():
    t1 = star_tree(3, 1)
    t2 = star_tree(3, 3)
    trace = trees_copies_to_tree(t1, t2)
    assert trace.start == copies(t1, 2)
    assert sum(isinstance(m, Swap) for m in trace.moves) == 1
    assert trace.end == t2


def test_trees_copies_path_to_star():
    t1 = path_tree(4)
    t2 = star_tree(4)
    assert quantum_distance(t1, t2) == 2
    trace = trees_copies_to_tree(t1, t2)
    assert trace.start == copies(t1, 3)
    assert trace.end == t2


def test_trees_copies_uses_qd_plus_one_copies():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(3, 7)
        t1 = random_spanning_tree(n, rng.randrange(10 ** 6))
        t2 = random_spanning_tree(n, rng.randrange(10 ** 6))
        trace = trees_copies_to_tree(t1, t2)
        qd = quantum_distance(t1, t2)
        assert trace.start == copies(t1, qd + 1)
        assert trace.end == t2
        assert replay_trace(trace) == t2


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def test_two_pairs_reach_ghz_in_one_move():
    trace = reachability_search(H(3, (1, 2), (1, 3)), cat_state(3))
    assert trace is not None and len(trace.moves) == 1
    assert isinstance(trace.moves[0], CatExpand)


def test_ghz_cannot_reach_two_pairs():
    assert reachability_search(cat_state(3), H(3, (1, 3), (2, 3))) is None


def test_search_matches_tree_to_cat_length():
    t = random_spanning_tree(5, 4)
    trace = reachability_search(t, cat_state(5))
    assert trace is not None and len(trace.moves) == 3


def test_identical_states_give_empty_trace():
    t = path_tree(4)
    trace = reachability_search(t, t)
    assert trace is not None and trace.moves == ()


def test_budget_exhaustion_is_distinguished():
    source = copies(path_tree(5), 2)
    target = H(5, (1, 5))
    with pytest.raises(BoundExceeded, match="state budget 5 hit"):
        reachability_search(source, target, budget=5)
    found = reachability_search(source, target, budget=10 ** 6)
    assert found is not None


def test_search_is_deterministic():
    source = copies(path_tree(4), 2)
    target = H(4, (1, 4))
    a = reachability_search(source, target)
    b = reachability_search(source, target)
    assert a == b


# ---------------------------------------------------------------------------
# soundness and termination
# ---------------------------------------------------------------------------

def _random_state(rng):
    n = rng.randint(3, 7)
    edges = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(2, min(4, n))
        edges.append(tuple(rng.sample(range(1, n + 1), k)))
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


@settings(max_examples=300)
@given(st.integers(0, 10 ** 9))
def test_no_move_increases_any_cut(seed):
    rng = random.Random(seed)
    state = _random_state(rng)
    moves = legal_moves(state)
    if not moves:
        return
    move = moves[rng.randrange(len(moves))]
    after = apply_move(state, move)
    mask = rng.randrange(1 << state.n)
    coloring = Bicoloring(state.agents,
                          frozenset(a for i, a in enumerate(state.agents) if mask >> i & 1))
    assert bcm_cut(after, coloring) <= bcm_cut(state, coloring)
    assert after.size_total < state.size_total


def test_make_trace_validates_each_step():
    with pytest.raises(IllegalMove):
        make_trace(H(3, (1, 2)), [Discard((1, 3))])


def test_replay_checks_the_size_potential_under_O():
    # a stand-in move rewrite that keeps its state unchanged: the end state
    # still matches, so only the size potential can catch it
    import os
    import subprocess
    import sys

    import loccgraph

    script = (
        "import loccgraph.protocols as protocols\n"
        "from loccgraph import Discard, Hypergraph, ProtocolTrace\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "protocols._operands = lambda move: ((), ())\n"
        "h = Hypergraph((1, 2), ((1, 2),))\n"
        "try:\n"
        "    protocols.replay_trace(ProtocolTrace(h, (Discard((1, 2)),), h))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "every move shrinks the state\n"
