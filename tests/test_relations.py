"""Metamorphic relations between verdicts: relabeling the agents.

Past the small world no oracle says which verdict a pair deserves, but the
verdicts must agree with one another.  An agent permutation σ carries every
coloring and every move of a pair to the relabeled pair, so (σA, σB) must
get the verdicts of (A, B) in both directions.  The image of a witness is a
witness with the same cuts, though not always the first one `check` finds,
and every witness `check` emits for the relabeled pair re-derives against
it.  Each direction runs through `_judge_direction`, so this is the
evidence `check --json` reports.
"""

import itertools

import pytest

from loccgraph import (
    Bicoloring,
    Hypergraph,
    cat_state,
    copies,
    path_tree,
    replay_trace,
    star_tree,
)
from loccgraph.merging import make_witness


def H(*edges):
    return Hypergraph((1, 2, 3, 4), edges)


PAIRS = H((1, 2), (3, 4))
CATALOG = {
    "cat4": cat_state(4),
    "path4": path_tree(4),
    "star4@1": star_tree(4),
    "star4@2": star_tree(4, center=2),
    "cycle4": H((1, 2), (2, 3), (3, 4), (1, 4)),
    "pairs": PAIRS,
    "2xpairs": copies(PAIRS, 2),
    "ghz123+34": H((1, 2, 3), (3, 4)),
    "ghz123+14": H((1, 2, 3), (1, 4)),
    "cat4+12": H((1, 2, 3, 4), (1, 2)),
    "epr12": H((1, 2)),
}
# no witness blocks either direction and the search finds no trace
TWO_GHZ, TRIANGLE = copies(H((1, 2, 3)), 2), H((1, 2), (2, 3), (1, 3))
ORDERED = [*itertools.permutations(CATALOG.values(), 2),
           (TWO_GHZ, TRIANGLE), (TRIANGLE, TWO_GHZ)]
# σ as the images of agents 1..4
SIGMAS = [(2, 1, 3, 4), (1, 2, 4, 3), (2, 3, 1, 4), (2, 3, 4, 1), (4, 3, 2, 1), (3, 4, 1, 2)]


def relabel(h, sigma):
    return Hypergraph(h.agents, tuple(tuple(sigma[v - 1] for v in e) for e in h.edges))


@pytest.fixture(scope="module")
def judged(judge_pair):
    return {(a, b): judge_pair(a, b) for a, b in ORDERED}


def test_two_ghz_against_the_triangle_is_unknown_both_ways(judged):
    assert judged[TWO_GHZ, TRIANGLE] == ({"verdict": "unknown"}, {"verdict": "unknown"},
                                         "unknown")


def test_the_catalog_holds_every_verdict(judged):
    verdicts = {entry["verdict"] for *entries, _ in judged.values() for entry in entries}
    assert verdicts == {"possible", "impossible", "unknown"}
    assert len(set(CATALOG.values())) == len(CATALOG)


@pytest.mark.parametrize("sigma", SIGMAS, ids=lambda s: "".join(map(str, s)))
def test_relabeled_pairs_classify_alike_and_their_witnesses_reverify(judged, sigma,
                                                                     judge_pair, rederive):
    for (a, b), (*entries, classification) in judged.items():
        pair = relabel(a, sigma), relabel(b, sigma)
        *relabeled, relabeled_classification = judge_pair(*pair)
        assert [e["verdict"] for e in relabeled] == [e["verdict"] for e in entries]
        assert relabeled_classification == classification
        for entry, image, (s, t) in zip(entries, relabeled, (pair, pair[::-1])):
            if "witness" in entry:
                w = entry["witness"]
                moved = Bicoloring(s.agents, {sigma[v - 1] for v in w["a_side"]})
                witness = make_witness(s, t, moved)
                assert (witness.source_cut, witness.target_cut) == (w["source_cut"],
                                                                    w["target_cut"])
                rederive(image["witness"], s, t)
            if "trace" in entry:
                trace = image["trace"]
                assert trace.start == s and replay_trace(trace) == t
                assert len(trace.moves) == len(entry["trace"].moves)
