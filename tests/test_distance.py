"""Quantum distance and copy-count bounds."""

import random
from unittest import mock

import pytest

from loccgraph import (
    cat_state,
    copies,
    distance_report,
    find_saturating_pairs,
    path_tree,
    quantum_distance,
    replay_trace,
    star_tree,
)
from loccgraph import hypergraph
from loccgraph.enumeration import random_spanning_tree
from loccgraph.errors import InputError


def test_distance_examples():
    assert quantum_distance(path_tree(4), path_tree(4)) == 0
    assert quantum_distance(star_tree(3, 1), star_tree(3, 3)) == 1
    assert quantum_distance(path_tree(4), star_tree(4)) == 2


def test_distance_rejects_non_trees():
    for fn in (quantum_distance, distance_report):
        with pytest.raises(InputError, match="^input is not a spanning EPR tree$"):
            fn(cat_state(3), path_tree(3))
        with pytest.raises(InputError, match="^input is not a spanning EPR tree$"):
            fn(path_tree(3), cat_state(3))
        with pytest.raises(InputError, match="^inputs do not share one agent set$"):
            fn(path_tree(3), path_tree(4))


def test_a_report_validates_each_tree_once():
    # each tree is checked by the one walk of its table, t1's being the one
    # the copies protocol reads its paths from
    for t1, t2 in ((path_tree(6), star_tree(6)), (path_tree(5), path_tree(5))):
        with mock.patch.object(hypergraph, "tree_table", wraps=hypergraph.tree_table) as table, \
                mock.patch.object(hypergraph, "reach", wraps=hypergraph.reach) as walk:
            distance_report(t1, t2)
        assert [c.args for c in table.call_args_list] == [(t1,), (t2,)]
        assert [c.args for c in walk.call_args_list] == [(t1, 1), (t2, 1)]


def test_report_for_distinct_stars():
    report = distance_report(star_tree(3, 1), star_tree(3, 3))
    assert report.qd == 1
    assert report.copies_lower == 2
    assert report.copies_upper == 2
    assert report.qubit_upper == 1
    assert replay_trace(report.upper_trace) == star_tree(3, 3)


def test_report_for_equal_trees():
    report = distance_report(path_tree(5), path_tree(5))
    assert (report.qd, report.copies_lower, report.copies_upper) == (0, 1, 1)


def test_report_bounds_random_pairs():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(4, 8)
        t1 = random_spanning_tree(n, rng.randrange(10 ** 6))
        t2 = random_spanning_tree(n, rng.randrange(10 ** 6))
        if t1 == t2:
            continue
        report = distance_report(t1, t2)
        assert 2 <= report.copies_lower <= report.copies_upper == report.qd + 1
        assert report.upper_trace.start == copies(t1, report.qd + 1)
        assert replay_trace(report.upper_trace) == t2


def test_metric_axioms_random_triples():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randint(4, 9)
        a = random_spanning_tree(n, rng.randrange(10 ** 6))
        b = random_spanning_tree(n, rng.randrange(10 ** 6))
        c = random_spanning_tree(n, rng.randrange(10 ** 6))
        assert quantum_distance(a, b) >= 0
        assert (quantum_distance(a, b) == 0) == (a == b)
        assert quantum_distance(a, b) == quantum_distance(b, a)
        assert quantum_distance(a, c) <= quantum_distance(a, b) + quantum_distance(b, c)


def test_saturating_pairs_exist_at_n3():
    low, high = find_saturating_pairs(3)
    low_report = distance_report(*low)
    high_report = distance_report(*high)
    assert low_report.copies_lower == 2
    assert high_report.copies_lower == high_report.copies_upper
