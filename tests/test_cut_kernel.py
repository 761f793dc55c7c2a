"""The bit-parallel cut kernel against the per-coloring scans it replaced,
and the states moves build, past validation, against full construction.

The oracles below are the scans `merging` ran before the kernel: one
`Bicoloring` per coloring from `iter_bicolorings`, both cuts by `bcm_cut`.
"""

import dataclasses
import math
import random
import time
from unittest import mock

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
    copies,
    find_blocking_witness,
    legal_moves,
    min_copies_lower_bound,
    path_tree,
    star_tree,
)
from loccgraph import hypergraph, merging
from loccgraph.errors import BoundExceeded, InputError
from loccgraph.merging import (
    DEFAULT_COLOR_BOUND,
    BlockingWitness,
    cut_profiles,
)
from loccgraph.enumeration import all_spanning_trees

from coloring_order import iter_bicolorings


def oracle_witness(source, target, *, color_bound=DEFAULT_COLOR_BOUND):
    if source.agents != target.agents:
        raise InputError("inputs do not share one agent set")
    for coloring in iter_bicolorings(source.agents, bound=color_bound):
        s = bcm_cut(source, coloring)
        t = bcm_cut(target, coloring)
        if t > s:
            return BlockingWitness(coloring, s, t)
    return None


def oracle_min_copies(source, target, *, color_bound=DEFAULT_COLOR_BOUND):
    if source.agents != target.agents:
        raise InputError("inputs do not share one agent set")
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


def oracle_levels(h):
    """The level sets as the kernel built them before its bit-sliced
    counters: each edge shifts every level set up by the colorings that
    cut it, O(levels) operations per edge."""
    agents = h.agents
    size = 1 << (len(agents) - 1)
    column = {a: sum(1 << m for m in range(size) if m >> i & 1)
              for i, a in enumerate(agents[1:])}
    column[agents[0]] = 0
    levels = [(1 << size) - 1]
    for e in h.edges:
        some, every = 0, -1
        for a in e:
            some |= column[a]
            every &= column[a]
        cross = some & ~every
        keep = ~cross
        levels.append(levels[-1] & cross)
        for v in range(len(levels) - 2, 0, -1):
            levels[v] = (levels[v] & keep) | (levels[v - 1] & cross)
        levels[0] &= keep
    return tuple(levels)


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
    levels = cut_profiles(h)[0].levels
    for mask, coloring in enumerate(iter_bicolorings(h.agents)):
        assert [v for v, level in enumerate(levels) if level >> mask & 1] == [bcm_cut(h, coloring)]
    assert all(level >> (1 << (h.n - 1)) == 0 for level in levels)


@settings(max_examples=300, deadline=None)
@given(state_pairs(max_n=12))
def test_bit_sliced_levels_match_the_level_shift_oracle(pair):
    for h, profile in zip(pair, cut_profiles(*pair)):
        assert profile.state is h
        assert profile.levels == oracle_levels(h)
        assert len(profile.levels) == len(h.edges) + 1


@pytest.mark.parametrize("h", [
    pytest.param(Hypergraph((7,)), id="one-agent"),
    pytest.param(Hypergraph((1, 2, 3)), id="edgeless"),
    pytest.param(Hypergraph((1, 2), ((1, 2),) * 9), id="one-edge-nine-times"),
    pytest.param(copies(path_tree(7), 5), id="path-copies"),
    pytest.param(copies(cat_state(6), 8), id="cat-copies"),
    pytest.param(copies(star_tree(12), 3), id="star-copies"),
    pytest.param(copies(Hypergraph((1, 2, 3), ((1, 2), (1, 3), (2, 3))), 3),
                 id="triangle-copies"),
    pytest.param(Hypergraph((1, 2, 3, 4), ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))),
                 id="complete-graph"),
])
def test_bit_sliced_levels_keep_trailing_zeros(h):
    # an equal pair shares one agent set.  Cuts above the largest one
    # reached stay as zero entries up to the edge count, whether the
    # decoder yields fewer entries (triangle copies: 8 for 10) or more
    # (complete graph: 8 for 7).
    profiles = cut_profiles(h, h)
    assert [p.levels for p in profiles] == [oracle_levels(h)] * 2
    assert len(profiles[0].levels) == len(h.edges) + 1


def test_profiling_no_state_is_an_input_error():
    with pytest.raises(InputError, match="no state to profile"):
        cut_profiles()
    with pytest.raises(InputError, match="no state to profile"):
        cut_profiles(color_bound=3)


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
    source_profile, target_profile = cut_profiles(source, target)
    for a, b, a_profile, b_profile in ((source, target, source_profile, target_profile),
                                       (target, source, target_profile, source_profile)):
        got, expected = a_profile.min_copies(b_profile), min_copies_lower_bound(a, b)
        assert got == expected and type(got) is type(expected)


def test_min_copies_fold_covers_infinity_and_zero():
    four, three = (1, 2, 3, 4), (1, 2, 3)
    cases = [
        (Hypergraph(four, ((1, 2),)), Hypergraph(four, ((3, 4),)), math.inf),
        (Hypergraph(three, ((1, 2),)), Hypergraph(three), 0),
    ]
    for source, target, expected in cases:
        source_profile, target_profile = cut_profiles(source, target)
        assert source_profile.min_copies(target_profile) == expected
        assert min_copies_lower_bound(source, target) == expected


def test_min_copies_fold_over_shared_cat_levels():
    # the CAT-copy sweep's shape: one profile build for the CAT and every tree
    for n in (2, 3, 4, 5):
        trees = list(all_spanning_trees(n))
        cat, *profiles = cut_profiles(cat_state(n), *trees)
        for t, profile in zip(trees, profiles):
            assert cat.min_copies(profile) == min_copies_lower_bound(cat_state(n), t)
            assert profile.min_copies(cat) == min_copies_lower_bound(t, cat_state(n))


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
                           (min_copies_lower_bound, oracle_min_copies),
                           (cut_profiles, oracle_witness)):
        assert (_raised(kernel, source, target, color_bound=bound)
                == _raised(oracle, source, target, color_bound=bound))


@settings(max_examples=300, deadline=None)
@given(state_pairs())
def test_equal_states_are_not_scanned(pair):
    source = pair[0]
    equal = Hypergraph(source.agents, source.edges[::-1])  # built apart
    source_profile, equal_profile = cut_profiles(source, equal)
    with mock.patch.object(merging, "cut_profiles", side_effect=AssertionError("scanned")):
        assert find_blocking_witness(source, equal) is None
    assert source_profile.first_witness(equal_profile) is None
    # past the bound and across agent sets, the scan's own checks still raise first
    tight = source.n - 1
    assert (_raised(find_blocking_witness, source, equal, color_bound=tight)
            == _raised(cut_profiles, source, equal, color_bound=tight))
    wider = Hypergraph(source.agents + (99,), source.edges)
    for a, b in ((source, wider), (wider, source)):
        assert _raised(find_blocking_witness, a, b) == _raised(cut_profiles, a, b)


def test_scan_at_the_default_color_bound():
    # 2^21 colorings per scan; the per-coloring oracle takes about 47 s
    start = time.perf_counter()
    assert find_blocking_witness(path_tree(22), path_tree(22)) is None
    assert min_copies_lower_bound(star_tree(22), path_tree(22)) == 2
    elapsed = time.perf_counter() - start
    print(f"PASS scan at n=22: {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# trusted moves against full construction
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


def oracle_trusted(agents, edges):
    """`hypergraph._trusted` as it was: one `object.__setattr__` per field."""
    h = object.__new__(Hypergraph)
    object.__setattr__(h, "agents", agents)
    object.__setattr__(h, "edges", edges)
    return h


def _walk(start, k, seed):
    """k copies of `start`, then random legal moves until none is left."""
    rng = random.Random(seed)
    states = [copies(start, k)]
    while moves := legal_moves(states[-1]):
        states.append(apply_move(states[-1], rng.choice(moves)))
    return states


@settings(max_examples=200, deadline=None)
@given(state_pairs(max_n=7), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_trusted_states_match_the_setattr_oracle(pair, k, seed):
    start = Hypergraph(pair[0].agents, pair[0].edges + pair[1].edges)
    states = _walk(start, k, seed)
    with mock.patch.object(hypergraph, "_trusted", oracle_trusted):
        expected = _walk(start, k, seed)
    assert len(states) == len(expected)
    for got, old in zip(states, expected):
        assert type(got) is Hypergraph
        assert got == old and hash(got) == hash(old) and repr(got) == repr(old)
        assert got.size_total == old.size_total == sum(map(len, got.edges))
        assert vars(got) == vars(old)
    last = states[-1]
    for name in ("agents", "edges"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(last, name, ())
    hypergraph.reach(last, last.agents[0])
    hypergraph.tree_table(last)
    assert vars(last).keys() == {"agents", "edges"}
