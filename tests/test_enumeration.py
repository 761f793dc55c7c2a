"""Prufer bijection, tree catalogs and classes, hypertree generator,
coloring stream."""

import heapq
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import (
    all_spanning_trees,
    is_entangled_hypertree,
    is_spanning_epr_tree,
    path_tree,
    prufer_decode,
    random_r_uniform_hypertree,
    random_spanning_tree,
    star_tree,
    tree_classes,
    uniformity,
)
from loccgraph import enumeration, hypergraph
from loccgraph.enumeration import _rooted_encoding
from loccgraph.errors import BoundExceeded, InputError
from loccgraph.hypergraph import Hypergraph, reach, tree_table


def prufer_encode(t: Hypergraph) -> tuple[int, ...]:
    """The inverse of prufer_decode, the oracle of its round trip: peel the
    least leaf and write down its neighbor, n - 2 times."""
    if not is_spanning_epr_tree(t):
        raise InputError("can only encode a spanning EPR tree")
    neighbors: dict[int, set[int]] = {a: set() for a in t.agents}
    for a, b in t.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    leaves = [v for v in t.agents if len(neighbors[v]) == 1]
    heapq.heapify(leaves)
    symbols = []
    for _ in range(t.n - 2):
        leaf = heapq.heappop(leaves)
        nb = neighbors[leaf].pop()
        neighbors[nb].discard(leaf)
        symbols.append(nb)
        if len(neighbors[nb]) == 1:
            heapq.heappush(leaves, nb)
    return tuple(symbols)


def test_decode_star():
    assert prufer_decode([1], 3) == star_tree(3)


def test_decode_validates_input():
    with pytest.raises(InputError, match="sequence length 2 != n-2 = 1"):
        prufer_decode([1, 2], 3)
    with pytest.raises(InputError, match="symbols must lie in 1..n"):
        prufer_decode([4], 3)


def test_encode_requires_a_tree():
    with pytest.raises(InputError, match="can only encode a spanning EPR tree"):
        prufer_encode(Hypergraph((1, 2, 3), ((1, 2),)))


@given(st.integers(2, 6), st.data())
def test_round_trip_decode_then_encode(n, data):
    symbols = tuple(data.draw(st.integers(1, n)) for _ in range(n - 2))
    t = prufer_decode(symbols, n)
    assert is_spanning_epr_tree(t)
    assert prufer_encode(t) == symbols


def test_round_trip_exhaustive_small():
    for n in (2, 3, 4, 5, 6):
        for symbols in itertools.product(range(1, n + 1), repeat=n - 2):
            assert prufer_encode(prufer_decode(symbols, n)) == symbols


def test_tree_counts():
    assert sum(1 for _ in all_spanning_trees(3)) == 3
    assert sum(1 for _ in all_spanning_trees(4)) == 16
    assert sum(1 for _ in all_spanning_trees(5)) == 125


def test_trees_are_distinct_and_valid():
    trees = list(all_spanning_trees(5))
    assert len(set(trees)) == len(trees)
    assert all(is_spanning_epr_tree(t) for t in trees)


def test_tree_enumeration_bound():
    with pytest.raises(BoundExceeded, match="exhaustive tree enumeration"):
        list(all_spanning_trees(8))
    with pytest.raises(BoundExceeded, match="exhaustive tree enumeration"):
        list(all_spanning_trees(1))


# ---------------------------------------------------------------------------
# isomorphism classes
# ---------------------------------------------------------------------------

def relabel(t, perm):
    """The tree with agent a renamed perm[a - 1]."""
    return Hypergraph(t.agents, tuple(tuple(sorted((perm[a - 1], perm[b - 1])))
                                      for a, b in t.edges))


@pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11)])
def test_class_counts_are_the_unlabeled_tree_counts(n, count):
    # OEIS A000055, and the class sizes add up to Cayley's n^(n-2)
    classes = tree_classes(all_spanning_trees(n))
    assert len(classes) == count
    assert sum(size for _, size in classes) == n ** (n - 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_each_class_is_its_representatives_orbit(n):
    # brute-force isomorphism: the class of R is {s R : s a permutation of the agents}
    trees = list(all_spanning_trees(n))
    for rep, size in tree_classes(trees):
        orbit = {relabel(rep, perm) for perm in itertools.permutations(range(1, n + 1))}
        members = {t for t in trees if tree_classes([rep, t]) == [(rep, 2)]}
        assert members == orbit and len(orbit) == size
        # the representative is its class's first tree in enumeration order
        assert trees.index(rep) == min(trees.index(t) for t in orbit)


@settings(max_examples=60)
@given(st.integers(2, 12), st.integers(0, 10 ** 9), st.randoms(use_true_random=False))
def test_relabeling_keeps_a_tree_in_its_class(n, seed, rng):
    t = random_spanning_tree(n, seed)
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    assert tree_classes([t, relabel(t, perm)]) == [(t, 2)]


def test_distinct_shapes_fall_in_distinct_classes():
    for n in range(4, 12):
        assert [size for _, size in tree_classes([path_tree(n), star_tree(n)])] == [1, 1]


def oracle_tree_classes(trees):
    """The classifier before its validating walk gave it the farthest agent:
    one walk to validate, then one from the lowest agent to find it."""
    classes = {}
    for t in trees:
        if not is_spanning_epr_tree(t):
            raise InputError("input is not a spanning EPR tree")
        via = reach(t, next(reversed(reach(t, t.agents[0]))))
        path = [next(reversed(via))]
        while via[path[-1]] is not None:
            path.append(via[path[-1]][0])
        middle = {path[len(path) // 2], path[(len(path) - 1) // 2]}
        classes.setdefault(min(_rooted_encoding(t, c) for c in middle), [t, 0])[1] += 1
    return [(t, size) for t, size in classes.values()]


def test_classes_take_the_farthest_agent_from_the_validating_walk():
    # one walk validates a tree and finds its farthest agent, one finds a
    # longest path, and one encodes it per center: 125 trees, 185 centers
    trees = list(all_spanning_trees(5))

    def walks(classify):
        with mock.patch.object(hypergraph, "reach", wraps=hypergraph.reach) as inner, \
                mock.patch.object(enumeration, "reach", wraps=enumeration.reach) as outer:
            classes = classify(trees)
        return classes, inner.call_count + outer.call_count

    with mock.patch(f"{__name__}.reach", wraps=reach) as oracle_walk:
        expected, oracle_inner = walks(oracle_tree_classes)
    got, count = walks(tree_classes)
    assert got == expected
    assert [size for _, size in got] == [5, 60, 60]
    assert count == 125 * 2 + 185
    assert oracle_inner + oracle_walk.call_count == 125 * 3 + 185


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 14), st.integers(0, 10 ** 9))
def test_the_table_lists_agents_in_discovery_order(n, seed):
    t = random_spanning_tree(n, seed)
    order = list(reach(t, t.agents[0]))
    table = tree_table(t)
    assert list(table.parent) == list(table.edge) == list(table.depth) == order


def test_classes_require_spanning_trees():
    with pytest.raises(InputError, match="^input is not a spanning EPR tree$"):
        tree_classes([Hypergraph((1, 2, 3), ((1, 2), (2, 3), (1, 3)))])


def test_random_hypertree_structure():
    h = random_r_uniform_hypertree(7, 3, seed=42)
    assert is_entangled_hypertree(h)
    assert uniformity(h) == 3
    assert len(h.edges) == 3
    h = random_r_uniform_hypertree(5, 3, seed=0)
    assert len(h.edges) == 2 and is_entangled_hypertree(h)


def test_random_hypertree_rejects_bad_sizes():
    with pytest.raises(InputError, match="no m >= 1 satisfies n = m"):
        random_r_uniform_hypertree(6, 3, seed=0)
    with pytest.raises(InputError, match="r must be at least 2"):
        random_r_uniform_hypertree(3, 1, seed=0)


def test_random_hypertree_is_seed_deterministic():
    a = random_r_uniform_hypertree(9, 3, seed=7)
    b = random_r_uniform_hypertree(9, 3, seed=7)
    c = random_r_uniform_hypertree(9, 3, seed=8)
    assert a == b
    assert a != c or True  # different seeds usually differ; equality is not an error
