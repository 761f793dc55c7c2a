"""The table-driven tree split and the shared-levels scan against the
per-call code they replaced.

`oracle_split` is the tree split as it ran before the per-tree tables:
every call validates both trees and walks them with the walks of
`walk_oracles`, one that skips the cut edge and one along the hyperpath.  The sweep builds one table and one level list per tree and
folds each pair from them; both must give exactly what the per-call code
gives.
"""

import itertools
import os
from collections import Counter
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import loccgraph
from loccgraph import Hypergraph, find_blocking_witness, path_tree, star_tree, sweeps
from loccgraph import merging, witnesses
from loccgraph.enumeration import all_spanning_trees, random_spanning_tree, tree_classes
from loccgraph.errors import InputError, require
from loccgraph.hypergraph import is_spanning_epr_tree, tree_table
from loccgraph.merging import (
    Bicoloring,
    bcm_cut,
    cut_profiles,
    make_witness,
)
from loccgraph.witnesses import (
    TreeSplit,
    split_trees,
    witness_distinct_spanning_trees,
)

from coloring_order import iter_bicolorings
from walk_oracles import oracle_hyperpath, oracle_reach


def oracle_split(t1, t2):
    for t in (t1, t2):
        if not is_spanning_epr_tree(t):
            raise InputError("input is not a spanning EPR tree")
    if t1.agents != t2.agents:
        raise InputError("inputs do not share one agent set")
    extra = sorted(set(t2.edges) - set(t1.edges))
    if not extra:
        raise InputError("the trees coincide")
    pivot = extra[0]

    side = {v: frozenset(oracle_reach(t2, v, skip=pivot)) - {v} for v in pivot}
    require(not side[pivot[0]] & side[pivot[1]], "the pivot's two sides are disjoint")
    require(bool(side[pivot[0]] | side[pivot[1]]), "the pivot's sides are not both empty")

    def build(i, j):
        edges, junctions = oracle_hyperpath(t1, i, j)
        return (i, *junctions, j), frozenset(oracle_reach(t1, i, skip=edges[0]))

    i, j = pivot
    path, colored_a = build(i, j)
    k1 = path[1]
    require(k1 in side[i] | side[j], "the first path vertex lies off the pivot")
    if k1 not in side[i]:
        i, j = j, i
        path, colored_a = build(i, j)

    witness = make_witness(t1, t2, Bicoloring(t1.agents, colored_a))
    require(witness.source_cut == 1, "the tree split cuts t1 once")
    return TreeSplit(pivot_edge=(i, j), source_path=path, colored_a=colored_a), witness


def outcome(split, *args):
    try:
        return split(*args)
    except (InputError, AssertionError) as exc:
        return type(exc), str(exc)


def relabel(t, labels):
    """t over agents 1..n carried to the sorted `labels`."""
    to = dict(zip(t.agents, labels))
    return Hypergraph(tuple(labels), tuple((to[a], to[b]) for a, b in t.edges))


# ---------------------------------------------------------------------------
# the tree split
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_ordered_pair_matches_the_oracle(n):
    trees = list(all_spanning_trees(n))
    for t1, t2 in itertools.product(trees, repeat=2):
        assert outcome(witness_distinct_spanning_trees, t1, t2) == outcome(oracle_split, t1, t2)


@st.composite
def tree_pairs(draw):
    """Two random trees over one set of 2..10 arbitrary labels; equal trees
    occur on the smallest sets."""
    labels = sorted(draw(st.sets(st.integers(-50, 1000), min_size=2, max_size=10)))
    t1, t2 = (random_spanning_tree(len(labels), draw(st.integers(0, 10 ** 6)))
              for _ in range(2))
    return relabel(t1, labels), relabel(t2, labels)


@settings(max_examples=400, deadline=None)
@given(tree_pairs())
def test_random_labeled_pairs_match_the_oracle(pair):
    t1, t2 = pair
    assert outcome(witness_distinct_spanning_trees, t1, t2) == outcome(oracle_split, t1, t2)
    s1, s2 = tree_table(t1), tree_table(t2)
    assert outcome(split_trees, s2, s1) == outcome(oracle_split, t2, t1)


_CYCLE = Hypergraph((1, 2, 3), ((1, 2), (1, 3), (2, 3)))
_SPLIT = Hypergraph((1, 2, 3, 4), ((1, 2), (3, 4)))


@pytest.mark.parametrize("t1, t2", [
    (_CYCLE, path_tree(3)),
    (path_tree(3), _CYCLE),
    (_SPLIT, path_tree(3)),                       # not a tree, before the agent sets
    (path_tree(4), Hypergraph((1, 2, 3, 5), ((1, 2), (2, 3), (3, 5)))),
    (star_tree(5), star_tree(5)),
    (Hypergraph((7,)), Hypergraph((7,))),
    (Hypergraph((1, 2, 3), ((1, 2), (1, 2))), path_tree(3)),
], ids=["cycle-first", "cycle-second", "forest-first", "agents", "coincide",
        "one-agent", "repeated-edge"])
def test_errors_and_their_order_match_the_oracle(t1, t2):
    expected = outcome(oracle_split, t1, t2)
    assert expected[0] is InputError
    assert outcome(witness_distinct_spanning_trees, t1, t2) == expected


@pytest.mark.parametrize("patch, claim", [
    ("witnesses.TreeTable.side = lambda self, x, e: self.below[self.tree.agents[0]]",
     "the pivot's two sides are disjoint"),
    ("witnesses.TreeTable.path = lambda self, x, y: ([(x, y)], [])",
     "the first path vertex lies off the pivot"),
], ids=["sides", "path"])
def test_tree_split_checks_survive_optimize_flag(patch, claim):
    script = (
        "import loccgraph.witnesses as witnesses\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        f"{patch}\n"
        "try:\n"
        "    witnesses.witness_distinct_spanning_trees(witnesses.path_tree(4),\n"
        "        witnesses.Hypergraph((1, 2, 3, 4), ((1, 3), (1, 4), (2, 4))))\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == claim + "\n"


# ---------------------------------------------------------------------------
# the shared-levels fold
# ---------------------------------------------------------------------------

def test_fold_over_shared_levels_matches_the_scan():
    trees = list(all_spanning_trees(4))
    profiles = cut_profiles(*trees)
    for (a, a_profile), (b, b_profile) in itertools.product(zip(trees, profiles), repeat=2):
        folded = a_profile.first_witness(b_profile)
        assert folded == find_blocking_witness(a, b)
        # the first witness in coloring order, one coloring at a time
        first = next((c for c in iter_bicolorings(a.agents)
                      if bcm_cut(b, c) > bcm_cut(a, c)), None)
        assert (folded and folded.coloring) == first


def test_sweep_validates_each_tree_once_and_recuts_every_witness(monkeypatch):
    validated, recut = [], []

    def validate(t):
        validated.append(t)
        return tree_table(t)

    def recount(*args, **kwargs):
        recut.append(args[:2])
        return make_witness(*args, **kwargs)

    monkeypatch.setattr(sweeps, "tree_table", validate)
    for module in (witnesses, merging):
        monkeypatch.setattr(module, "make_witness", recount)
    report = sweeps.spanning_tree_incomparability(sweeps.tree_catalog(4))
    trees = [*all_spanning_trees(3), *all_spanning_trees(4)]
    # the labeled pairs the representatives cover: 3 at n = 3, 120 at n = 4
    assert report["checked"] == 3 + 120 and report["failures"] == []
    assert validated == trees
    # each representative against every other tree on its agents: the tree
    # split's witness and the scan's witness
    reps = [rep for n in (3, 4) for rep, _ in tree_classes(all_spanning_trees(n))]
    assert len(reps) == 1 + 2
    assert Counter(recut) == {(rep, t): 2 for rep in reps for t in trees
                              if t.n == rep.n and t != rep}
