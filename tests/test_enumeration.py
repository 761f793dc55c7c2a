"""Prufer bijection, tree catalogs, hypertree generator, coloring stream."""

import itertools

import pytest
from hypothesis import given, strategies as st

from loccgraph import (
    all_spanning_trees,
    is_entangled_hypertree,
    is_spanning_epr_tree,
    prufer_decode,
    prufer_encode,
    random_r_uniform_hypertree,
    star_tree,
    uniformity,
)
from loccgraph.errors import BoundExceeded, InputError
from loccgraph.hypergraph import Hypergraph


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
