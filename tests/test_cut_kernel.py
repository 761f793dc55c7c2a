"""The bit-parallel cut kernel against the per-coloring scans it replaced,
and the trusted `Hypergraph.replace` against full construction.

The oracles below are the scans `merging` ran before the kernel: one
`Bicoloring` per coloring from `iter_bicolorings`, both cuts by `bcm_cut`.
"""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import (
    CatExpand,
    Discard,
    Hypergraph,
    MeasureOut,
    Swap,
    apply_move,
    bcm_cut,
    cat_state,
    find_blocking_witness,
    legal_moves,
    min_copies_lower_bound,
    path_tree,
    star_tree,
)
from loccgraph.errors import BoundExceeded, IllegalMove, InputError
from loccgraph.merging import (
    DEFAULT_COLOR_BOUND,
    BlockingWitness,
    _cut_levels,
    _min_copies,
    iter_bicolorings,
)
from loccgraph.enumeration import all_spanning_trees


def oracle_witness(source, target, *, color_bound=DEFAULT_COLOR_BOUND):
    if source.agents != target.agents:
        raise InputError("source and target must share one agent set")
    for coloring in iter_bicolorings(source.agents, bound=color_bound):
        s = bcm_cut(source, coloring)
        t = bcm_cut(target, coloring)
        if t > s:
            return BlockingWitness(coloring, s, t)
    return None


def oracle_min_copies(source, target, *, color_bound=DEFAULT_COLOR_BOUND):
    if source.agents != target.agents:
        raise InputError("source and target must share one agent set")
    best = 0
    for coloring in iter_bicolorings(source.agents, bound=color_bound):
        if not 0 < len(coloring.a_side) < len(coloring.agents):
            continue
        t = bcm_cut(target, coloring)
        if t == 0:
            continue
        s = bcm_cut(source, coloring)
        if s == 0:
            return math.inf
        best = max(best, -(-t // s))
    return best


def oracle_replace(h, remove=(), add=()):
    pool = list(h.edges)
    for edge in remove:
        pool.remove(tuple(sorted(edge)))
    pool.extend(tuple(sorted(edge)) for edge in add)
    return Hypergraph(h.agents, tuple(pool))


@st.composite
def state_pairs(draw, max_n=10):
    """Two states over one agent set of 1..max_n arbitrary labels, drawing
    hyperedges (repeats allowed) from a shared pool, so isolated agents,
    edgeless states and equal states all occur."""
    agents = tuple(sorted(draw(st.sets(st.integers(-5, 40), min_size=1, max_size=max_n))))
    if len(agents) < 2:
        return Hypergraph(agents), Hypergraph(agents)
    edge = st.lists(st.sampled_from(agents), min_size=2, max_size=min(len(agents), 5),
                    unique=True)
    pool = draw(st.lists(edge, min_size=1, max_size=6))
    side = st.lists(st.sampled_from(pool), max_size=10)
    return Hypergraph(agents, tuple(draw(side))), Hypergraph(agents, tuple(draw(side)))


# ---------------------------------------------------------------------------
# the kernel against the per-coloring oracle
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(state_pairs())
def test_level_sets_hold_each_coloring_at_its_cut(pair):
    h = pair[0]
    (levels,) = _cut_levels(h.agents, h)
    for mask, coloring in enumerate(iter_bicolorings(h.agents)):
        assert [v for v, level in enumerate(levels) if level >> mask & 1] == [bcm_cut(h, coloring)]
    assert all(level >> (1 << (h.n - 1)) == 0 for level in levels)


@settings(max_examples=300, deadline=None)
@given(state_pairs())
def test_first_witness_matches_the_oracle(pair):
    source, target = pair
    for a, b in ((source, target), (target, source)):
        expected = oracle_witness(a, b)
        got = find_blocking_witness(a, b)
        assert got == expected
        if got is not None:
            assert got.coloring.bits() == expected.coloring.bits()
            assert (got.source_cut, got.target_cut) == (expected.source_cut,
                                                        expected.target_cut)


@settings(max_examples=300, deadline=None)
@given(state_pairs())
def test_min_copies_matches_the_oracle(pair):
    source, target = pair
    for a, b in ((source, target), (target, source)):
        got, expected = min_copies_lower_bound(a, b), oracle_min_copies(a, b)
        assert got == expected and type(got) is type(expected)


def test_min_copies_covers_infinity_and_zero():
    # the hypothesis corpus reaches these too; pin them regardless
    cases = [
        (Hypergraph((1, 2, 3, 4), ((1, 2),)), Hypergraph((1, 2, 3, 4), ((3, 4),)), math.inf),
        (Hypergraph((1, 2, 3), ((1, 2),)), Hypergraph((1, 2, 3)), 0),
    ]
    for source, target, expected in cases:
        assert min_copies_lower_bound(source, target) == expected
        assert oracle_min_copies(source, target) == expected


@settings(max_examples=300, deadline=None)
@given(state_pairs())
def test_min_copies_fold_matches_the_bound(pair):
    source, target = pair
    source_levels, target_levels = _cut_levels(source.agents, source, target)
    for a, b, a_levels, b_levels in ((source, target, source_levels, target_levels),
                                     (target, source, target_levels, source_levels)):
        got, expected = _min_copies(a_levels, b_levels), min_copies_lower_bound(a, b)
        assert got == expected and type(got) is type(expected)


def test_min_copies_fold_covers_infinity_and_zero():
    four, three = (1, 2, 3, 4), (1, 2, 3)
    cases = [
        (Hypergraph(four, ((1, 2),)), Hypergraph(four, ((3, 4),)), math.inf),
        (Hypergraph(three, ((1, 2),)), Hypergraph(three), 0),
    ]
    for source, target, expected in cases:
        assert _min_copies(*_cut_levels(source.agents, source, target)) == expected
        assert min_copies_lower_bound(source, target) == expected


def test_min_copies_fold_over_shared_cat_levels():
    # the CAT-copy sweep's shape: one level build for the CAT and every tree
    for n in (2, 3, 4, 5):
        trees = list(all_spanning_trees(n))
        cat_levels, *levels = _cut_levels(trees[0].agents, cat_state(n), *trees)
        for t, t_levels in zip(trees, levels):
            assert _min_copies(cat_levels, t_levels) == min_copies_lower_bound(cat_state(n), t)
            assert _min_copies(t_levels, cat_levels) == min_copies_lower_bound(t, cat_state(n))


def _raised(fn, *args, **kwargs):
    with pytest.raises((InputError, BoundExceeded)) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("source,target,bound", [
    pytest.param(cat_state(3), cat_state(4), DEFAULT_COLOR_BOUND, id="agent-sets"),
    pytest.param(cat_state(24), cat_state(25), DEFAULT_COLOR_BOUND,
                 id="agent-sets-before-bound"),
    pytest.param(cat_state(23), cat_state(23), DEFAULT_COLOR_BOUND, id="default-bound"),
    pytest.param(cat_state(6), cat_state(6), 5, id="given-bound"),
])
def test_errors_and_their_order_match_the_oracle(source, target, bound):
    for kernel, oracle in ((find_blocking_witness, oracle_witness),
                           (min_copies_lower_bound, oracle_min_copies)):
        assert (_raised(kernel, source, target, color_bound=bound)
                == _raised(oracle, source, target, color_bound=bound))


def test_scan_at_the_default_color_bound():
    # 2^21 colorings per scan; the per-coloring oracle takes about 47 s
    start = time.perf_counter()
    assert find_blocking_witness(path_tree(22), path_tree(22)) is None
    assert min_copies_lower_bound(star_tree(22), path_tree(22)) == 2
    elapsed = time.perf_counter() - start
    print(f"PASS scan at n=22: {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# trusted replace against full construction
# ---------------------------------------------------------------------------

def _move_edges(move):
    """The hyperedges a move removes and adds, derived from its definition."""
    if isinstance(move, Discard):
        return [move.edge], []
    if isinstance(move, MeasureOut):
        return [move.edge], [tuple(m for m in move.edge if m != move.agent)]
    if isinstance(move, Swap):
        return [move.left, move.right], [tuple(set(move.left) ^ set(move.right))]
    if isinstance(move, CatExpand):
        return [move.edge, move.pair], [tuple(set(move.edge) | set(move.pair))]
    raise AssertionError(move)


def _same_value(got, expected):
    assert type(got) is Hypergraph
    assert got == expected and hash(got) == hash(expected)
    assert (got.agents, got.edges) == (expected.agents, expected.edges)
    assert got == Hypergraph(got.agents, got.edges)


@settings(max_examples=200, deadline=None)
@given(state_pairs(max_n=7), st.integers(0, 10 ** 6))
def test_replace_along_random_move_sequences(pair, seed):
    rng = random.Random(seed)
    state = Hypergraph(pair[0].agents, pair[0].edges + pair[1].edges)
    while True:
        moves = legal_moves(state)
        if not moves:
            break
        move = rng.choice(moves)
        nxt = apply_move(state, move)
        _same_value(nxt, oracle_replace(state, *_move_edges(move)))
        state = nxt


@settings(max_examples=200, deadline=None)
@given(state_pairs(max_n=8), st.data())
def test_replace_matches_construction(pair, data):
    h, other = pair
    dropped = data.draw(st.lists(st.booleans(), min_size=len(h.edges),
                                 max_size=len(h.edges)))
    remove = [e for e, drop in zip(h.edges, dropped) if drop]
    add = [tuple(reversed(e)) for e in other.edges]
    _same_value(h.replace(remove=remove, add=add), oracle_replace(h, remove, add))


@pytest.mark.parametrize("bad", [(5,), (1, 1), (1, 9), (2, 7, 2)],
                         ids=["one-member", "repeat", "outside", "repeat-of-three"])
def test_replace_rejects_a_bad_added_edge_like_the_constructor(bad):
    h = Hypergraph((1, 2, 3, 5, 7), ((1, 2), (2, 3, 5)))
    with pytest.raises(InputError) as built:
        Hypergraph(h.agents, h.edges + ((3, 5), bad))
    with pytest.raises(InputError) as replaced:
        h.replace(remove=[(1, 2)], add=[(3, 5), bad])
    assert str(replaced.value) == str(built.value)


def test_replace_checks_removals_before_additions():
    h = Hypergraph((1, 2, 3), ((1, 2),))
    with pytest.raises(IllegalMove, match=r"hyperedge \(2, 3\) is not in the state"):
        h.replace(remove=[(2, 3)], add=[(1, 1)])
