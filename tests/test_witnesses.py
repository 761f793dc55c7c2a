"""Constructive witness generators, cross-checked against the exhaustive scan."""

import itertools
import random
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import (
    Bicoloring,
    Hypergraph,
    SeparatingPair,
    bcm_cut,
    cat_state,
    check_order_chain,
    copies,
    find_blocking_witness,
    find_separating_pair,
    is_entangled_hypertree,
    min_copies_lower_bound,
    path_tree,
    r_uniform_incomparability,
    random_r_uniform_hypertree,
    replay_trace,
    star_tree,
    pendant_vertices,
    uniformity,
    witness_cat_copies_vs_tree,
    witness_cat_vs_disconnected,
    witness_disconnected_vs_cat,
    witness_distinct_spanning_trees,
    witness_pendant_condition,
    witness_r_uniform_hypertrees,
)
from loccgraph import hypergraph, witnesses
from loccgraph.enumeration import all_spanning_trees, random_spanning_tree
from loccgraph.errors import BoundExceeded, InputError
from loccgraph.merging import cheap_cuts, make_witness
from loccgraph.witnesses import _proper_two_coloring, structural_witness


def H(n, *edges):
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


def check_witness(witness, source, target):
    """Stored cuts must reproduce and the exhaustive scan must concur."""
    assert witness.target_cut > witness.source_cut
    assert bcm_cut(source, witness.coloring) == witness.source_cut
    assert bcm_cut(target, witness.coloring) == witness.target_cut
    assert find_blocking_witness(source, target) is not None


# ---------------------------------------------------------------------------
# disconnected graphs vs CAT
# ---------------------------------------------------------------------------

def test_disconnected_graph_cannot_build_cat():
    g = H(4, (1, 2), (3, 4))
    w = witness_disconnected_vs_cat(g)
    assert (w.source_cut, w.target_cut) == (0, 1)
    assert w.coloring.a_side == {1, 2}
    check_witness(w, g, cat_state(4))


def test_isolated_vertex_blocks_cat():
    g = H(3, (1, 2))
    w = witness_disconnected_vs_cat(g)
    assert (w.source_cut, w.target_cut) == (0, 1)
    check_witness(w, g, cat_state(3))


def test_connected_graph_is_rejected():
    with pytest.raises(InputError, match="graph is connected; no component split exists"):
        witness_disconnected_vs_cat(path_tree(4))


def test_random_disconnected_sweep():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(4, 8)
        cutpoint = rng.randint(1, n - 1)
        left = list(range(1, cutpoint + 1))
        right = list(range(cutpoint + 1, n + 1))
        edges = []
        for part in (left, right):
            for _ in range(rng.randint(0, len(part) - 1 if len(part) > 1 else 0)):
                edges.append(tuple(rng.sample(part, 2)))
        g = Hypergraph(tuple(range(1, n + 1)), tuple(edges))
        w = witness_disconnected_vs_cat(g)
        check_witness(w, g, cat_state(n))


def test_cat_vs_disconnected_two_components():
    g = H(5, (1, 2), (3, 4))
    fwd, bwd = witness_cat_vs_disconnected(g)
    assert fwd.coloring.a_side == {2, 4}
    assert (fwd.source_cut, fwd.target_cut) == (1, 2)
    check_witness(fwd, cat_state(5), g)
    check_witness(bwd, g, cat_state(5))


def test_cat_vs_disconnected_shared_vertex():
    g = H(4, (1, 2), (2, 3))  # agent 4 isolated
    fwd, bwd = witness_cat_vs_disconnected(g)
    assert fwd.coloring.a_side == {2}
    assert (fwd.source_cut, fwd.target_cut) == (1, 2)
    check_witness(fwd, cat_state(4), g)
    check_witness(bwd, g, cat_state(4))


def test_cat_vs_disconnected_preconditions():
    with pytest.raises(InputError, match="need at least two EPR pairs"):
        witness_cat_vs_disconnected(H(3, (1, 2)))
    # the forward coloring cuts every edge of g only when each is a pair
    for g in (H(4, (1, 2), (1, 2, 3)), H(5, (1, 2, 3), (4, 5)), H(4, (1, 2, 3), (1, 2, 3, 4))):
        with pytest.raises(InputError, match="^every hyperedge must be an EPR pair$"):
            witness_cat_vs_disconnected(g)
    with pytest.raises(InputError, match="^graph is connected$"):
        witness_cat_vs_disconnected(path_tree(3))


def test_cat_vs_disconnected_splits_and_builds_the_cat_once():
    # the backward witness reuses the forward direction's walk and CAT; the
    # walk covers the first component only, here the first of 1,000 pairs
    many = H(2000, *((a, a + 1) for a in range(1, 2000, 2)))
    for g in (H(6, (1, 2), (2, 3), (4, 5), (5, 6)), H(5, (2, 3), (2, 3)), H(4, (1, 4), (2, 3)),
              many):
        with mock.patch.object(witnesses, "reach", wraps=witnesses.reach) as walk, \
                mock.patch.object(witnesses, "cat_state", wraps=witnesses.cat_state) as cat:
            _, bwd = witness_cat_vs_disconnected(g)
        assert (walk.call_count, cat.call_count) == (1, 1)
        assert bwd == witness_disconnected_vs_cat(g)


def test_cat_vs_duplicated_pair():
    g = H(3, (1, 2), (1, 2))
    fwd, bwd = witness_cat_vs_disconnected(g)
    check_witness(fwd, cat_state(3), g)
    check_witness(bwd, g, cat_state(3))


# ---------------------------------------------------------------------------
# GHZ vs two EPR pairs
# ---------------------------------------------------------------------------

def witness_ghz_not_two_epr(target=H(3, (1, 3), (2, 3))):
    """The proof that a three-party GHZ state cannot become two EPR pairs
    among its agents: color A the agent both pairs share, cuts (1, 2)."""
    first, second = target.edges
    return make_witness(cat_state(3), target,
                        Bicoloring(target.agents, frozenset(first) & frozenset(second)))


@pytest.mark.parametrize("pairs,expect_a", [
    ((((1, 3), (2, 3))), {3}),
    ((((1, 2), (1, 3))), {1}),
    ((((1, 2), (2, 3))), {2}),
])
def test_ghz_not_two_epr(pairs, expect_a):
    target = H(3, *pairs)
    w = witness_ghz_not_two_epr(target)
    assert w.coloring.a_side == expect_a
    assert (w.source_cut, w.target_cut) == (1, 2)
    check_witness(w, cat_state(3), target)


def test_ghz_not_two_epr_default_target():
    w = witness_ghz_not_two_epr()
    assert (w.source_cut, w.target_cut) == (1, 2)


# ---------------------------------------------------------------------------
# order chains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
def test_order_chain(n):
    chain = check_order_chain(n)
    for link in (chain.pair_vs_cat, chain.cat_vs_tree, chain.pair_vs_tree):
        assert replay_trace(link.downgrade) == link.lower
        check_witness(link.obstruction, link.lower, link.upper)
        # a trace and a witness for the same direction would be fatal
        assert find_blocking_witness(link.upper, link.lower) is None


# ---------------------------------------------------------------------------
# CAT copies vs spanning trees
# ---------------------------------------------------------------------------

def test_cat_copies_vs_path():
    w = witness_cat_copies_vs_tree(H(3, (1, 2), (2, 3)))
    assert w.coloring.a_side == {2}
    assert (w.source_cut, w.target_cut) == (1, 2)


def test_cat_copies_vs_star():
    w = witness_cat_copies_vs_tree(star_tree(4))
    assert w.coloring.a_side == {1}
    assert (w.source_cut, w.target_cut) == (2, 3)
    check_witness(w, copies(cat_state(4), 2), star_tree(4))


def test_cat_copies_vs_tree_on_other_labels():
    t = Hypergraph((2, 3, 4), ((2, 3), (3, 4)))
    w = witness_cat_copies_vs_tree(t)
    assert w.coloring.a_side == {3}
    assert (w.source_cut, w.target_cut) == (1, 2)
    check_witness(w, Hypergraph((2, 3, 4), ((2, 3, 4),)), t)


def test_cat_copies_vs_tree_walks_its_tree_once():
    # the walk of the table it reads its coloring from is also its tree check
    for t in (path_tree(6), star_tree(5), random_spanning_tree(9, 4)):
        with mock.patch.object(hypergraph, "reach", wraps=hypergraph.reach) as walk:
            witness_cat_copies_vs_tree(t)
        assert [c.args for c in walk.call_args_list] == [(t, t.agents[0])]


def test_cat_copies_vs_tree_keeps_its_witnesses_on_agents_one_to_n():
    # the witness built from n - 2 copies of cat_state(n), as before any
    # other labels were allowed
    for n in (3, 4, 5, 6):
        for t in all_spanning_trees(n):
            before = make_witness(copies(cat_state(n), n - 2), t,
                                  Bicoloring(t.agents, _proper_two_coloring(hypergraph.tree_table(t))))
            assert witness_cat_copies_vs_tree(t) == before


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(-30, 500), min_size=3, max_size=9), st.integers(0, 10 ** 6))
def test_cat_copies_vs_tree_on_relabeled_trees(labels, seed):
    labels = sorted(labels)
    n = len(labels)
    t = random_spanning_tree(n, seed)
    to = dict(zip(t.agents, labels))
    relabeled = Hypergraph(tuple(labels), tuple((to[a], to[b]) for a, b in t.edges))
    w, plain = witness_cat_copies_vs_tree(relabeled), witness_cat_copies_vs_tree(t)
    assert w.coloring.a_side == {to[a] for a in plain.coloring.a_side}
    assert (w.source_cut, w.target_cut) == (plain.source_cut, plain.target_cut)
    check_witness(w, copies(Hypergraph(tuple(labels), (tuple(labels),)), n - 2), relabeled)


def test_cat_copy_bound_consistency():
    for n in (3, 4, 5):
        t = path_tree(n)
        assert min_copies_lower_bound(cat_state(n), t) == n - 1


# ---------------------------------------------------------------------------
# distinct spanning trees
# ---------------------------------------------------------------------------

def test_three_vertex_stars():
    t1 = star_tree(3, 1)
    t2 = star_tree(3, 3)
    split, w = witness_distinct_spanning_trees(t1, t2)
    assert set(split.pivot_edge) == {2, 3}
    assert set(split.source_path) == {1, 2, 3} and split.source_path[1] == 1
    assert (w.source_cut, w.target_cut) == (1, 2)
    check_witness(w, t1, t2)


def test_path_vs_star_picks_lowest_pivot():
    t1 = path_tree(4)
    t2 = star_tree(4)
    split, w = witness_distinct_spanning_trees(t1, t2)
    assert set(split.pivot_edge) == {1, 3}
    assert w.source_cut == 1 and w.target_cut >= 2
    check_witness(w, t1, t2)


def test_equal_trees_rejected():
    with pytest.raises(InputError, match="the trees coincide"):
        witness_distinct_spanning_trees(path_tree(4), path_tree(4))


def test_all_tree_pairs_n4():
    trees = list(all_spanning_trees(4))
    for t1, t2 in itertools.combinations(trees, 2):
        for a, b in ((t1, t2), (t2, t1)):
            split, w = witness_distinct_spanning_trees(a, b)
            check_witness(w, a, b)
            # structural facts about the split
            assert split.colored_a
            assert split.pivot_edge not in a.edges


# ---------------------------------------------------------------------------
# pendant condition
# ---------------------------------------------------------------------------

def test_pendant_condition_basic():
    h1 = H(5, (1, 2, 3), (3, 4, 5))      # pendants 1,2,4,5
    h2 = H(5, (1, 2, 4), (3, 4, 5))      # pendants 1,2,3,5
    w12, w21 = witness_pendant_condition(h1, h2)
    assert w12.source_cut == 1 and w12.target_cut == 2
    assert w21.source_cut == 1 and w21.target_cut == 2
    check_witness(w12, h1, h2)
    check_witness(w21, h2, h1)


def test_pendant_cut_counts_incidence():
    # u = 4 pendant in h1, triply covered in h2
    h1 = H(7, (1, 2, 3), (3, 4, 5), (5, 6, 7))
    h2 = H(7, (1, 2, 4), (3, 4, 6), (4, 5, 7))
    w12, w21 = witness_pendant_condition(h1, h2)
    assert (w12.source_cut, w12.target_cut) == (1, 3)
    check_witness(w12, h1, h2)


def test_pendant_condition_not_met():
    h1 = H(5, (1, 2, 3), (3, 4, 5))
    with pytest.raises(InputError, match="no vertex is pendant on one side"):
        witness_pendant_condition(h1, h1)


def test_pendant_condition_random_sweep():
    produced = 0
    seed = 0
    while produced < 40:
        h1 = random_r_uniform_hypertree(7, 3, seed=seed)
        h2 = random_r_uniform_hypertree(7, 3, seed=seed + 10 ** 6)
        seed += 1
        p1, p2 = pendant_vertices(h1), pendant_vertices(h2)
        if not (p1 - p2) or not (p2 - p1):
            continue
        produced += 1
        w12, w21 = witness_pendant_condition(h1, h2)
        check_witness(w12, h1, h2)
        check_witness(w21, h2, h1)


# ---------------------------------------------------------------------------
# r-uniform hypertrees
# ---------------------------------------------------------------------------

def test_separating_pair_example():
    h1 = H(5, (1, 2, 3), (3, 4, 5))
    h2 = H(5, (1, 2, 4), (3, 4, 5))
    pair = find_separating_pair(h1, h2)
    assert any(pair.u in e and pair.v in e for e in h2.edges)
    assert not any(pair.u in e and pair.v in e for e in h1.edges)
    assert (pair.u, pair.v) == (1, 4)


def test_separating_pair_shared_edges():
    h1 = H(7, (1, 2, 3), (3, 4, 5), (5, 6, 7))
    h2 = H(7, (1, 2, 3), (3, 4, 5), (3, 6, 7))
    pair = find_separating_pair(h1, h2)
    assert any(pair.u in e and pair.v in e for e in h2.edges)
    assert not any(pair.u in e and pair.v in e for e in h1.edges)


def test_separating_pair_rejects_equal_and_r2():
    h = H(5, (1, 2, 3), (3, 4, 5))
    with pytest.raises(InputError, match="the hypertrees coincide"):
        find_separating_pair(h, h)
    with pytest.raises(InputError, match="r = 2 is the spanning-tree case"):
        find_separating_pair(path_tree(3), star_tree(3))


def test_r_uniform_pair_witnesses():
    h1 = H(5, (1, 2, 3), (3, 4, 5))
    h2 = H(5, (1, 2, 4), (3, 4, 5))
    fwd, bwd = witness_r_uniform_hypertrees(h1, h2)
    check_witness(fwd, h1, h2)
    check_witness(bwd, h2, h1)


def test_r_uniform_equal_pendant_sets():
    # pendant sets coincide, yet the states are incomparable
    h1 = H(7, (1, 2, 3), (3, 4, 5), (5, 6, 7))
    h2 = H(7, (1, 2, 5), (3, 4, 5), (3, 6, 7))
    assert pendant_vertices(h1) == pendant_vertices(h2)
    fwd, bwd = witness_r_uniform_hypertrees(h1, h2)
    check_witness(fwd, h1, h2)
    check_witness(bwd, h2, h1)


def test_r_uniform_delegates_r2_to_tree_split():
    fwd, bwd = witness_r_uniform_hypertrees(star_tree(3, 1), star_tree(3, 3))
    check_witness(fwd, star_tree(3, 1), star_tree(3, 3))
    check_witness(bwd, star_tree(3, 3), star_tree(3, 1))


def test_r_uniform_proofs_expose_case_labels():
    h1 = H(7, (1, 2, 3), (3, 4, 5), (5, 6, 7))
    h2 = H(7, (1, 2, 4), (4, 3, 6), (4, 5, 7))
    fwd, bwd = r_uniform_incomparability(h1, h2)
    for proof in (fwd, bwd):
        assert proof.case_label[0] in "12"
        assert len(proof.path_edges) >= 2
        assert proof.witness.source_cut == 1


def test_r_uniform_hangoff_shapes():
    # shapes where the cut must be placed at the edge between the pigeonholed
    # vertex and its h2 root, not around the vertex's whole branch: the first
    # packs that branch into a single h2 edge, the second splits it in two
    h1a = H(10, (1, 2, 3, 4), (2, 5, 6, 7), (3, 8, 9, 10))
    h2a = H(10, (1, 7, 8, 2), (8, 3, 9, 10), (2, 4, 5, 6))
    h1b = H(13, (1, 2, 3, 4), (2, 5, 6, 7), (3, 8, 9, 10), (3, 11, 12, 13))
    h2b = H(13, (1, 7, 8, 2), (8, 9, 10, 4), (4, 3, 5, 6), (9, 11, 12, 13))
    for h1, h2 in ((h1a, h2a), (h1b, h2b)):
        fwd_proof, bwd_proof = r_uniform_incomparability(h1, h2)
        assert fwd_proof.case_label == "2.1.3.1"
        assert fwd_proof.witness.source_cut == 1
        check_witness(fwd_proof.witness, h1, h2)
        check_witness(bwd_proof.witness, h2, h1)


def test_r_uniform_seeded_sweep():
    for r, n in ((3, 7), (3, 9), (4, 7)):
        produced = 0
        attempt = 0
        while produced < 40:
            h1 = random_r_uniform_hypertree(n, r, seed=1000 * r + 2 * attempt)
            h2 = random_r_uniform_hypertree(n, r, seed=1000 * r + 2 * attempt + 1)
            attempt += 1
            if h1 == h2:
                continue
            produced += 1
            pair = find_separating_pair(h1, h2)
            assert any(pair.u in e and pair.v in e for e in h2.edges)
            assert not any(pair.u in e and pair.v in e for e in h1.edges)
            fwd, bwd = witness_r_uniform_hypertrees(h1, h2)
            check_witness(fwd, h1, h2)
            check_witness(bwd, h2, h1)


def oracle_separating_pair(h1, h2):
    """`find_separating_pair` as it was, when its third branch grouped the
    outside vertices by their h1 edge through u1; also the branch that
    answered (1, 2 or 3)."""
    def co_edge(h, a, b):
        return any(a in e and b in e for e in h.edges)

    common = set(h1.edges) & set(h2.edges)
    e2 = sorted(set(h2.edges) - common)[0]
    e1 = sorted(e for e in set(h1.edges) if e2[0] in e)[0]
    overlap = sorted(set(e1) & set(e2))
    outside = sorted(set(e2) - set(e1))
    u1 = overlap[0]
    v = next((v for v in outside if not co_edge(h1, u1, v)), None)
    if v is not None:
        pair, branch = (u1, v), 1
    elif len(overlap) > 1:
        pair, branch = (overlap[1], outside[0]), 2
    else:
        groups = {}
        for v in outside:
            host = sorted(e for e in set(h1.edges) if u1 in e and v in e)[0]
            groups.setdefault(host, []).append(v)
        assert len(groups) >= 2
        va = outside[0]
        host_a = next(host for host, vs in groups.items() if va in vs)
        vb = min(v for host, vs in groups.items() if host != host_a for v in vs)
        pair, branch = (va, vb), 3
    u, v = sorted(pair)
    assert co_edge(h2, u, v) and not co_edge(h1, u, v)
    return SeparatingPair(u, v), branch


def _seeded_pair(n, r, s):
    return (random_r_uniform_hypertree(n, r, seed=2 * s),
            random_r_uniform_hypertree(n, r, seed=2 * s + 1))


def _same_as_the_oracle(h1, h2):
    """The pair, and both direction proofs built around it, are the
    oracle's; returns the oracle's branch."""
    expected, branch = oracle_separating_pair(h1, h2)
    assert find_separating_pair(h1, h2) == expected
    proofs = r_uniform_incomparability(h1, h2)
    with mock.patch.object(witnesses, "_separating_pair",
                           lambda a, b: oracle_separating_pair(a, b)[0]):
        assert proofs == r_uniform_incomparability(h1, h2)
    return branch


# (n, r, s) for seeds 2s and 2s + 1 whose pair the third branch answers; in
# the last four the second outside vertex shares an h1 edge with the first
THIRD_BRANCH = [(7, 3, 187), (9, 3, 50), (13, 3, 69), (10, 4, 300), (10, 4, 19),
                (13, 4, 430), (16, 4, 2843), (13, 5, 1121)]


@pytest.mark.parametrize("n, r, s", THIRD_BRANCH)
def test_the_separating_pair_matches_the_host_table_oracle_in_its_third_branch(n, r, s):
    assert _same_as_the_oracle(*_seeded_pair(n, r, s)) == 3


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(7, 3), (9, 3), (11, 3), (13, 3), (7, 4), (10, 4), (13, 4),
                        (9, 5), (13, 5), (11, 6)]), st.integers(0, 10 ** 6))
def test_the_separating_pair_matches_the_host_table_oracle(nr, s):
    h1, h2 = _seeded_pair(*nr, s)
    if set(h1.edges) != set(h2.edges):
        _same_as_the_oracle(h1, h2)


# ---------------------------------------------------------------------------
# structural witnesses past the color bound
# ---------------------------------------------------------------------------

def _chain(order, r):
    """The r-uniform chain over `order`: consecutive edges share one agent."""
    return H(len(order), *(tuple(order[i:i + r]) for i in range(0, len(order) - 1, r - 1)))


def _past_bound_without_cut(source, target):
    """The scan cannot run on the pair and no search cut prunes it, so only
    the hypertree step of `structural_witness` can answer."""
    with pytest.raises(BoundExceeded):
        find_blocking_witness(source, target)
    assert cheap_cuts(target)(source) is None


def test_structural_witness_is_none_for_a_hypertree_against_a_cycle():
    cycle = H(23, *((i, i + 1) for i in range(1, 23)), (1, 23))
    path = path_tree(23)
    _past_bound_without_cut(cycle, path)
    assert structural_witness(cycle, path) is None


def test_structural_witness_is_none_across_uniformities():
    # 3- and 4-uniform chains on 25 agents whose shared agents are the
    # same, so every agent is covered at least as often by the 3-chain
    three = _chain(list(range(1, 26)), 3)
    four = Hypergraph(tuple(range(1, 26)), ((1, 2, 3, 4), (3, 5, 6, 8), (5, 7, 10, 12),
                                            (7, 9, 14, 16), (9, 11, 17, 18),
                                            (11, 13, 19, 20), (13, 15, 21, 22),
                                            (15, 23, 24, 25)))
    assert all(map(is_entangled_hypertree, (three, four)))
    assert (uniformity(three), uniformity(four)) == (3, 4)
    _past_bound_without_cut(three, four)
    assert structural_witness(three, four) is None


def test_structural_witness_is_none_for_a_state_against_itself():
    for h in (path_tree(23), _chain(list(range(1, 24)), 3)):
        _past_bound_without_cut(h, h)
        assert structural_witness(h, h) is None


def test_structural_witness_is_none_for_mixed_edge_sizes():
    # edges of sizes 3 and 2 alternate; the target swaps two degree-1
    # agents of different 3-edges
    edges = [(1, 2, 3), (3, 4), (4, 5, 6), *((i, i + 1) for i in range(6, 23))]
    swap = {1: 5, 5: 1}
    source = H(23, *edges)
    target = H(23, *(tuple(swap.get(a, a) for a in e) for e in edges))
    assert all(map(is_entangled_hypertree, (source, target)))
    assert uniformity(source) is None
    _past_bound_without_cut(source, target)
    assert structural_witness(source, target) is None


def test_structural_witness_builds_the_hypertree_witness():
    for r in (2, 3):
        h1 = _chain(list(range(1, 24)), r)
        h2 = _chain([1, 4, 3, 2, *range(5, 24)], r)
        _past_bound_without_cut(h1, h2)
        assert structural_witness(h1, h2) == witness_r_uniform_hypertrees(h1, h2)[0]


def test_structural_witness_prefers_the_search_cut():
    # distinct 3-uniform hypertrees where agent 3 sits in two source edges
    # but three target edges: the single-agent cut (2, 3) comes first,
    # ahead of the hypertree witness, which cuts the source once
    source = _chain(list(range(1, 24)), 3)
    target = Hypergraph(source.agents, tuple((3, 6, 7) if e == (5, 6, 7) else e
                                             for e in source.edges))
    cut = make_witness(source, target, Bicoloring(source.agents, frozenset({3})))
    assert (cut.source_cut, cut.target_cut) == (2, 3)
    assert witness_r_uniform_hypertrees(source, target)[0].source_cut == 1
    assert structural_witness(source, target) == cut


# ---------------------------------------------------------------------------
# one walk per input state
# ---------------------------------------------------------------------------

def _swapped_chain_pair(r):
    """23-agent r-chains with agents 2 and 4 swapped: past the coloring
    bound, with no search cut between them."""
    return _chain(list(range(1, 24)), r), _chain([1, 4, 3, 2, *range(5, 24)], r)


@pytest.mark.parametrize("build, pair", [
    (witness_r_uniform_hypertrees, (star_tree(6, 1), path_tree(6))),
    (witness_r_uniform_hypertrees, (H(5, (1, 2, 3), (3, 4, 5)), H(5, (1, 2, 4), (3, 4, 5)))),
    (r_uniform_incomparability, (H(5, (1, 2, 3), (3, 4, 5)), H(5, (1, 2, 4), (3, 4, 5)))),
    (find_separating_pair, (H(5, (1, 2, 3), (3, 4, 5)), H(5, (1, 2, 4), (3, 4, 5)))),
    (structural_witness, _swapped_chain_pair(2)),
    (structural_witness, _swapped_chain_pair(3)),
    (witness_distinct_spanning_trees, (star_tree(6, 1), path_tree(6))),
], ids=["r-uniform-r2", "r-uniform-r3", "incomparability", "separating-pair",
        "structural-r2", "structural-r3", "spanning-trees"])
def test_each_input_state_is_walked_once_per_call(monkeypatch, build, pair):
    # the table's own walk is the connectivity check: no other walk, and no
    # second table, for either state, whichever module the walk is called from
    walked, real = [], hypergraph.reach

    def walk(h, *args):
        walked.append(h)
        return real(h, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("loccgraph") and getattr(module, "reach", None) is real:
            monkeypatch.setattr(module, "reach", walk)
    build(*pair)
    assert list(map(id, walked)) == list(map(id, pair))
