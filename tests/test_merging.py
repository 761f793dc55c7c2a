"""Bicolored merging: cuts, witnesses, copy bounds."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import (
    Bicoloring,
    Hypergraph,
    bcm_cut,
    cat_state,
    copies,
    find_blocking_witness,
    min_copies_lower_bound,
    path_tree,
    star_tree,
)
from loccgraph.enumeration import random_spanning_tree
from loccgraph.errors import BoundExceeded, InputError
from loccgraph.merging import make_witness

from coloring_order import iter_bicolorings


def H(n, *edges):
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


def coloring(n, a_side):
    return Bicoloring(tuple(range(1, n + 1)), frozenset(a_side))


def test_cut_of_ghz_across_any_split_is_one():
    ghz = cat_state(3)
    assert bcm_cut(ghz, coloring(3, {3})) == 1
    assert bcm_cut(ghz, coloring(3, {1, 2})) == 1


def test_cut_counts_epr_pairs_at_the_junction():
    g1 = H(3, (1, 3), (2, 3))
    assert bcm_cut(g1, coloring(3, {3})) == 2


def test_constant_coloring_cuts_nothing():
    for h in (cat_state(4), path_tree(5), H(4, (1, 2), (1, 2), (3, 4))):
        assert bcm_cut(h, coloring(h.n, set())) == 0
        assert bcm_cut(h, coloring(h.n, set(h.agents))) == 0


# ---------------------------------------------------------------------------
# witness search
# ---------------------------------------------------------------------------

def test_ghz_to_two_epr_is_blocked():
    w = find_blocking_witness(cat_state(3), H(3, (1, 3), (2, 3)))
    assert w is not None
    assert w.coloring.a_side == {3}
    assert (w.source_cut, w.target_cut) == (1, 2)


def test_no_witness_for_identical_states():
    t = path_tree(4)
    assert find_blocking_witness(t, t) is None


def test_two_pairs_to_ghz_has_no_obstruction():
    assert find_blocking_witness(H(3, (1, 2), (1, 3)), cat_state(3)) is None


def test_agent_mismatch_rejected():
    with pytest.raises(InputError, match="^inputs do not share one agent set$"):
        find_blocking_witness(cat_state(3), cat_state(4))


def test_search_bound_enforced():
    wide = cat_state(24)
    with pytest.raises(BoundExceeded, match="exceeds the coloring bound 22"):
        find_blocking_witness(wide, wide)
    with pytest.raises(BoundExceeded, match="6 agents exceeds the coloring bound 5"):
        find_blocking_witness(cat_state(6), cat_state(6), color_bound=5)
    assert find_blocking_witness(cat_state(6), cat_state(6), color_bound=6) is None


def test_coloring_stream_is_pinned_and_counted():
    cols = list(iter_bicolorings((1, 2, 3)))
    assert len(cols) == 4
    assert cols[0].a_side == frozenset()
    assert all(1 not in c.a_side for c in cols)
    assert len(list(iter_bicolorings((1,)))) == 1
    assert len(list(iter_bicolorings(range(1, 6)))) == 16


# ---------------------------------------------------------------------------
# copy lower bounds
# ---------------------------------------------------------------------------

def test_cat_to_tree_needs_n_minus_one_copies():
    for n in (3, 4, 5):
        assert min_copies_lower_bound(cat_state(n), path_tree(n)) == n - 1
    assert min_copies_lower_bound(cat_state(5), star_tree(5)) == 4


def test_single_pair_to_itself():
    pair = H(2, (1, 2))
    assert min_copies_lower_bound(pair, pair) == 1


def test_disjoint_pair_needs_infinitely_many():
    src = H(4, (1, 2))
    dst = H(4, (3, 4))
    assert min_copies_lower_bound(src, dst) == math.inf


def test_empty_target_needs_no_copies():
    assert min_copies_lower_bound(H(3, (1, 2)), H(3)) == 0


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

@given(st.integers(0, 10 ** 6), st.integers(0, 2 ** 8 - 1))
def test_color_swap_symmetry(seed, mask):
    t = random_spanning_tree(8, seed)
    c = Bicoloring(t.agents, frozenset(a for i, a in enumerate(t.agents) if mask >> i & 1))
    flipped = Bicoloring(t.agents, frozenset(t.agents) - c.a_side)
    assert bcm_cut(t, c) == bcm_cut(t, flipped)


def oracle_bcm_cut(h, coloring):
    """`bcm_cut` as it was: a sum over a generator of the edges."""
    a = coloring.a_side
    return sum(not a.isdisjoint(e) and not a.issuperset(e) for e in h.edges)


def every_coloring(agents):
    """All 2^n colorings of the agents, the first agent on either side."""
    return [Bicoloring(agents, frozenset(a for i, a in enumerate(agents) if mask >> i & 1))
            for mask in range(1 << len(agents))]


@st.composite
def cut_states(draw, n=None):
    """A spanning tree, or a state whose hyperedges, CATs among them, come
    from a small pool and repeat often; on n agents, else on 1-6."""
    if n is None:
        n = draw(st.integers(1, 6))
    if n < 2:
        return H(n)
    if draw(st.booleans()):
        return random_spanning_tree(n, draw(st.integers(0, 10 ** 6)))
    edge = st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True).map(tuple)
    pool = draw(st.lists(edge, min_size=1, max_size=4))
    return H(n, *draw(st.lists(st.sampled_from(pool), max_size=8)))


@settings(max_examples=200, deadline=None)
@given(cut_states())
def test_the_cut_loop_matches_the_generator_sum(h):
    for c in every_coloring(h.agents):
        assert bcm_cut(h, c) == oracle_bcm_cut(h, c)


@given(cut_states(), st.integers(1, 4))
def test_copy_linearity(h, k):
    many = copies(h, k)
    for c in every_coloring(h.agents):
        assert bcm_cut(many, c) == k * bcm_cut(h, c)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(cut_states(n), cut_states(n))),
       st.integers(1, 4))
def test_a_witness_blocks_k_copies_exactly_when_k_copies_cut_less(pair, k):
    # cuts (s, t) for A -> B block k x A -> B iff k s < t, and then more than
    # k copies of A are needed
    a, b = pair
    bound = min_copies_lower_bound(a, b)
    for c in every_coloring(a.agents):
        s, t = bcm_cut(a, c), bcm_cut(b, c)
        if k * s < t:
            assert make_witness(copies(a, k), b, c).source_cut == k * s
            assert bound > k
        else:
            with pytest.raises(InputError, match="not a witness"):
                make_witness(copies(a, k), b, c)


@given(st.integers(0, 10 ** 6), st.integers(5, 9))
def test_tree_cut_bounds(seed, n):
    t = random_spanning_tree(n, seed)
    best = 0
    for c in iter_bicolorings(t.agents):
        if not 0 < len(c.a_side) < len(c.agents):
            continue
        cut = bcm_cut(t, c)
        assert cut >= 1
        best = max(best, cut)
    assert best == n - 1  # attained by the proper 2-coloring


def test_cat_cut_is_one_for_every_nontrivial_coloring():
    cat = cat_state(6)
    for c in iter_bicolorings(cat.agents):
        assert bcm_cut(cat, c) == (1 if 0 < len(c.a_side) < len(c.agents) else 0)
