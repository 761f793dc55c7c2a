"""Quantum distance between spanning EPR trees and the copy-count bounds
it controls.

The distance QD(t1, t2) counts the edges of t1 absent from t2 (equal to
the reverse count, both trees having n-1 edges).  It is a metric on the
labeled spanning trees over a fixed agent set.  Producing t2 from copies
of t1 by LOCC needs at least 2 and at most QD+1 copies, and at most QD
qubits of quantum communication; the upper bound comes with an explicit
swap-along-paths protocol attached as evidence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError, require
from .hypergraph import Hypergraph, require_tree_pair
from .merging import DEFAULT_COLOR_BOUND, min_copies_lower_bound
from .protocols import ProtocolTrace, trees_copies_to_tree
from .enumeration import all_spanning_trees


def quantum_distance(t1: Hypergraph, t2: Hypergraph) -> int:
    """|edges(t1) \\ edges(t2)|; zero iff the trees coincide."""
    require_tree_pair(t1, t2)
    return len(set(t1.edges) - set(t2.edges))


@dataclass(frozen=True)
class DistanceReport:
    """Its fields, in this order, are the keys of `distance --json`."""
    qd: int
    copies_lower: int          # >= 2 for distinct trees, 1 when equal
    copies_upper: int          # qd + 1
    qubit_upper: int           # qd
    upper_trace: ProtocolTrace  # evidence for the copy upper bound


def distance_report(t1: Hypergraph, t2: Hypergraph, *,
                    color_bound: int = DEFAULT_COLOR_BOUND) -> DistanceReport:
    """Distance plus copy/qubit bounds for turning t1 into t2 by LOCC.

    copies_lower is the larger of 2 (distinct trees are incomparable, so
    one copy can never suffice) and the bipartition-cut bound, whose
    coloring scan is limited to `color_bound` agents; soundness of the
    move calculus guarantees it never exceeds copies_upper.
    """
    trace = trees_copies_to_tree(t1, t2)  # validates the pair once
    qd = len(set(t1.edges) - set(t2.edges))
    if qd == 0:
        lower = 1
    else:
        lower = max(2, int(min_copies_lower_bound(t1, t2, color_bound=color_bound)))
    report = DistanceReport(qd=qd, copies_lower=lower, copies_upper=qd + 1,
                            qubit_upper=qd, upper_trace=trace)
    require(report.copies_lower <= report.copies_upper, "copies_lower <= copies_upper")
    return report


def find_saturating_pairs(n: int) -> tuple[tuple[Hypergraph, Hypergraph],
                                           tuple[Hypergraph, Hypergraph]]:
    """Scan the labeled trees on n agents for a pair whose copy lower bound
    is exactly 2 and a pair whose lower bound meets the QD+1 upper bound.

    Returns (lower_saturating, upper_saturating); at n = 3 a single pair of
    stars saturates both ends at once.
    """
    low = high = None
    trees = list(all_spanning_trees(n))
    for t1, t2 in itertools.combinations(trees, 2):
        report = distance_report(t1, t2)
        if low is None and report.copies_lower == 2:
            low = (t1, t2)
        if high is None and report.copies_lower == report.copies_upper:
            high = (t1, t2)
        if low is not None and high is not None:
            return low, high
    raise InputError(f"no saturating pairs among the trees on {n} agents")
