"""Theorem sweeps: the paper's results checked over enumerated and sampled
cases.

Each sweep lists its cases and states its checks; a `Sweep` runs them.
Every case is counted, a failed check (a `require` or any LoccError) ends
only its own case, and the first failure is kept as the case's fields plus
the error text.  Fields hold raw values, such as states and moves; the
command line encodes them.

The tree sweeps check one representative R per isomorphism class: cuts
do not change when both states and the coloring are relabeled by one s,
so (R, t) covers every labeled pair (s R, s t), and R covers its class
(the CAT is fixed by every s).  `checked` counts the labeled cases the
representatives cover: each pair of distinct trees, and each tree.
"""

from __future__ import annotations

import random

from . import distance
from .errors import LoccError, require
from .enumeration import (all_spanning_trees, random_r_uniform_hypertree,
                          random_spanning_tree, tree_classes)
from .hypergraph import Hypergraph, cat_state, pendant_vertices, tree_table
from .merging import Bicoloring, bcm_cut, cut_profiles
from .protocols import apply_move, cat_copies_to_tree, legal_moves, replay_trace
from .witnesses import (
    check_order_chain,
    r_uniform_incomparability,
    split_trees,
    witness_cat_vs_disconnected,
    witness_pendant_condition,
)


class Sweep:
    """One sweep's tally.  Each case runs its checks inside
    `with sweep.case(**fields):`, counted as `counted` cases.  A plain class
    rather than a generator-based context manager, which costs measurably
    per case."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checked = 0
        self.failures: list[dict] = []
        self._fields: dict = {}

    def case(self, *, counted: int = 1, **fields) -> "Sweep":
        self.checked += counted
        self._fields = fields
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> bool:
        if not isinstance(exc, (AssertionError, LoccError)):
            return False
        if not self.failures:
            self.failures.append({**self._fields, "error": str(exc)})
        return True

    def report(self) -> dict:
        return {"name": self.name, "checked": self.checked, "failures": self.failures}


def order_chain(n_max: int) -> dict:
    sweep = Sweep("order-chain")
    for n in range(3, n_max + 1):
        with sweep.case(n=n):
            check_order_chain(n)
    return sweep.report()


def tree_catalog(n_max: int) -> list:
    """(n, labeled trees, their classes) for n = 3..n_max: each n enumerated
    and classified once, for both tree sweeps."""
    return [(n, trees, tree_classes(trees)) for n in range(3, n_max + 1)
            for trees in [list(all_spanning_trees(n))]]


def spanning_tree_incomparability(catalog) -> dict:
    sweep = Sweep("spanning-tree-incomparability")
    for n, trees, classes in catalog:
        # each tree's split table and cut profile are built once, for all its pairs
        tables = [tree_table(t) for t in trees]
        profiles = cut_profiles(*trees)
        for rep, _ in classes:
            r = trees.index(rep)
            for i, t in enumerate(trees):
                if i == r:
                    continue
                with sweep.case(counted=False, n=n, t1=rep, t2=t):
                    split_trees(tables[r], tables[i])
                    require(profiles[r].first_witness(profiles[i]) is not None,
                            "the scan blocks")
        sweep.checked += len(trees) * (len(trees) - 1) // 2  # the labeled pairs covered
    return sweep.report()


def tree_count(catalog) -> dict:
    sweep = Sweep("tree-count")
    for n, trees, _ in catalog:
        if n <= 6:
            with sweep.case(n=n):
                require(len(set(trees)) == n ** (n - 2), "n^(n-2) distinct labeled trees")
    return sweep.report()


def cat_copy_bound(catalog) -> dict:
    sweep = Sweep("cat-copy-bound")
    for n, _, classes in catalog:
        # the CAT's cut profile is built once, for all the representatives
        cat, *profiles = cut_profiles(cat_state(n), *(rep for rep, _ in classes))
        for (rep, size), profile in zip(classes, profiles):
            with sweep.case(counted=size, n=n, tree=rep):
                require(cat.min_copies(profile) == n - 1,
                        "the copy lower bound is n - 1")
                require(cat_copies_to_tree(rep).end == rep, "n - 1 CAT copies make the tree")
    return sweep.report()


def r_uniform_hypertree_incomparability(r_list, seed: int, sample_count: int) -> dict:
    sweep = Sweep("r-uniform-hypertree-incomparability")
    for r in r_list:
        n = 7 if r == 3 else 2 * r - 1  # an r-uniform hypertree needs r - 1 | n - 1
        produced = 0
        attempt = 0
        while produced < sample_count:
            h1 = random_r_uniform_hypertree(n, r, seed + 2 * attempt)
            h2 = random_r_uniform_hypertree(n, r, seed + 2 * attempt + 1)
            attempt += 1
            if h1 == h2:
                continue
            produced += 1
            with sweep.case(r=r, n=n, h1=h1, h2=h2):
                r_uniform_incomparability(h1, h2)
    return sweep.report()


def disconnected_vs_cat(seed: int, sample_count: int) -> dict:
    sweep = Sweep("disconnected-vs-cat")
    rng = random.Random(seed)
    for n in (4, 5, 6):
        for _ in range(sample_count):
            cut = rng.randint(2, n - 2)
            groups = (range(1, cut + 1), range(cut + 1, n + 1))
            edges = set()
            while len(edges) < 2:
                for part in groups:
                    part = list(part)
                    if len(part) < 2:
                        continue
                    for _ in range(rng.randint(1, len(part))):
                        edges.add(tuple(sorted(rng.sample(part, 2))))
            g = Hypergraph(tuple(range(1, n + 1)), tuple(edges))
            with sweep.case(n=n, g=g):
                witness_cat_vs_disconnected(g)  # builds both directions' witnesses
    return sweep.report()


def pendant_condition(seed: int, sample_count: int) -> dict:
    sweep = Sweep("pendant-condition")
    attempt = 0
    while sweep.checked < sample_count:
        h1 = random_r_uniform_hypertree(7, 3, seed=seed + attempt)
        h2 = random_r_uniform_hypertree(7, 3, seed=seed + attempt + 10 ** 7)
        attempt += 1
        p1, p2 = pendant_vertices(h1), pendant_vertices(h2)
        if not (p1 - p2) or not (p2 - p1):
            continue
        with sweep.case(h1=h1, h2=h2):
            witness_pendant_condition(h1, h2)
            c1, c2 = cut_profiles(h1, h2)
            require(c1.first_witness(c2) is not None, "scan finds h1 -/-> h2")
            require(c2.first_witness(c1) is not None, "scan finds h2 -/-> h1")
    return sweep.report()


def quantum_distance(seed: int, sample_count: int) -> dict:
    sweep = Sweep("quantum-distance")
    qd = distance.quantum_distance
    rng = random.Random(seed)
    for _ in range(sample_count):
        n = rng.randint(4, 7)
        a = random_spanning_tree(n, rng.randrange(10 ** 9))
        b = random_spanning_tree(n, rng.randrange(10 ** 9))
        c = random_spanning_tree(n, rng.randrange(10 ** 9))
        with sweep.case():
            require((ab := qd(a, b)) == qd(b, a), "symmetry")
            require((ab == 0) == (a == b), "zero iff equal")
            require(qd(a, c) <= ab + qd(b, c), "triangle inequality")
            if a != b:
                rep = distance.distance_report(a, b)
                require(2 <= rep.copies_lower <= rep.copies_upper == rep.qd + 1,
                        "2 <= copies_lower <= copies_upper == qd + 1")
                require(replay_trace(rep.upper_trace) == b, "upper trace reaches b")
    # both ends of the copy bounds are attained; one check, not a sampled case
    with sweep.case(counted=False):
        low, high = distance.find_saturating_pairs(3)
        require(distance.distance_report(*low).copies_lower == 2, "lower bound 2 is attained")
        rep = distance.distance_report(*high)
        require(rep.copies_lower == rep.copies_upper, "upper bound qd + 1 is attained")
    return sweep.report()


def move_soundness(seed: int, sample_count: int) -> dict:
    sweep = Sweep("move-soundness")
    rng = random.Random(seed)
    while sweep.checked < sample_count * 10:
        n = rng.randint(3, 7)
        edges = tuple(tuple(rng.sample(range(1, n + 1), rng.randint(2, min(4, n))))
                      for _ in range(rng.randint(1, 4)))
        state = Hypergraph(tuple(range(1, n + 1)), edges)
        moves = legal_moves(state)
        if not moves:
            continue
        move = moves[rng.randrange(len(moves))]
        mask = rng.randrange(1 << n)
        coloring = Bicoloring(state.agents,
                              frozenset(a for i, a in enumerate(state.agents)
                                        if mask >> i & 1))
        with sweep.case(state=state, move=move, coloring=coloring):
            require(bcm_cut(apply_move(state, move), coloring) <= bcm_cut(state, coloring),
                    "no move raises a cut")
    return sweep.report()


def run_sweeps(n_max: int, r_list, seed: int, sample_count: int) -> list[dict]:
    """Every sweep's report, in the order `verify-theorems` prints them."""
    catalog = tree_catalog(n_max)
    return [
        order_chain(n_max),
        tree_count(catalog),
        spanning_tree_incomparability(catalog),
        cat_copy_bound(catalog),
        disconnected_vs_cat(seed, sample_count),
        pendant_condition(seed, sample_count),
        r_uniform_hypertree_incomparability(r_list, seed, sample_count),
        quantum_distance(seed, sample_count),
        move_soundness(seed, sample_count),
    ]
