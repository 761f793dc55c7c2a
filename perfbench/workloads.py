"""Seeded inputs and call lists for the benchmark workloads.

The inputs are generated here rather than by loccgraph, so every commit
sees byte-identical files for the same seed.  A state is a pair
``(n, edges)``: agents ``1..n`` and a sorted tuple of sorted hyperedges,
which is exactly loccgraph's canonical form.

Where the cost of a call depends on the shape of its input (reachability
search explores every state reachable from the source), the shapes come
from a fixed catalog and the seed only relabels the agents.  A relabeling
changes every file the program reads and every witness and trace it emits,
but not the size of the state space, so the cost of a pass does not swing
with the seed.  Coloring scans cost the same for every tree of one size,
so ``scan-distance`` draws its trees from the seed directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

State = tuple[int, tuple[tuple[int, ...], ...]]

# Verdict sets a direction may take without contradicting a theorem.
BLOCKED = frozenset({"impossible"})
OPEN = frozenset({"possible", "unknown"})  # no cut witness exists
ANY = (OPEN | BLOCKED, OPEN | BLOCKED)


def state(n: int, edges) -> State:
    return n, tuple(sorted(tuple(sorted(e)) for e in edges))


def to_text(s: State) -> str:
    n, edges = s
    return "".join([f"agents: {n}\n"] + ["cat: " + " ".join(map(str, e)) + "\n"
                                         for e in edges])


def relabel(s: State, rng: random.Random) -> State:
    n, edges = s
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return state(n, (tuple(perm[v - 1] for v in e) for e in edges))


def copies(s: State, k: int) -> State:
    return state(s[0], s[1] * k)


def star(n: int) -> State:
    return state(n, ((1, v) for v in range(2, n + 1)))


def path(n: int) -> State:
    return state(n, ((v, v + 1) for v in range(1, n)))


def cycle(n: int) -> State:
    return state(n, ((v, v % n + 1) for v in range(1, n + 1)))


def cat(n: int) -> State:
    return state(n, (tuple(range(1, n + 1)),))


def epr(n: int, a: int, b: int) -> State:
    return state(n, ((a, b),))


def random_tree(n: int, rng: random.Random) -> State:
    """Uniform labeled spanning tree, decoded from a random Prufer sequence."""
    code = [rng.randint(1, n) for _ in range(n - 2)]
    degree = [1] * (n + 1)
    for v in code:
        degree[v] += 1
    edges = []
    for v in code:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    last = [u for u in range(1, n + 1) if degree[u] == 1]
    edges.append((last[0], last[1]))
    return state(n, edges)


def random_hypertree(n: int, r: int, rng: random.Random) -> State:
    """r-uniform hypertree grown by hanging r-1 fresh agents off an old one."""
    edges = [tuple(range(1, r + 1))]
    for fresh in range(r + 1, n + 1, r - 1):
        anchor = rng.randint(1, fresh - 1)
        edges.append((anchor, *range(fresh, fresh + r - 1)))
    return state(n, edges)


def catalog(make, count: int, tag: str) -> list[State]:
    """`count` distinct shapes from a fixed stream, the same for every seed."""
    rng = random.Random(f"catalog:{tag}")
    shapes: list[State] = []
    while len(shapes) < count:
        s = make(rng)
        if s not in shapes:
            shapes.append(s)
    return shapes


@dataclass(frozen=True)
class Call:
    """One `cli.main` call and what its output must satisfy."""

    label: str
    kind: str                                     # "check" | "distance" | "sweep"
    argv: tuple[str, ...]
    files: tuple[tuple[str, State], ...] = ()     # written before timing starts
    source: State | None = None
    target: State | None = None
    classification: str | None = None             # exact, when a theorem fixes it
    allowed: tuple[frozenset, frozenset] = ANY     # forward, backward


def check(label: str, source: State, target: State, *,
          classification: str | None = None,
          allowed: tuple[frozenset, frozenset] = ANY) -> Call:
    files = ((f"{label}.src.txt", source), (f"{label}.tgt.txt", target))
    return Call(label, "check", ("check", files[0][0], files[1][0], "--json"),
                files, source, target, classification, allowed)


def distance(label: str, t1: State, t2: State) -> Call:
    files = ((f"{label}.t1.txt", t1), (f"{label}.t2.txt", t2))
    return Call(label, "distance", ("distance", files[0][0], files[1][0], "--json"),
                files, t1, t2)


def relabel_pair(a: State, b: State, rng: random.Random) -> tuple[State, State]:
    """One relabeling applied to both states: an isomorphic copy of the pair."""
    n = a[0]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return tuple(state(n, (tuple(perm[v - 1] for v in e) for e in s[1])) for s in (a, b))


def relabel_apart(a: State, b: State, rng: random.Random) -> tuple[State, State]:
    """Independent relabelings of two shapes, redrawn until they differ."""
    source = relabel(a, rng)
    while True:
        target = relabel(b, rng)
        if target != source:
            return source, target


def check_incomparable(rng: random.Random) -> list[Call]:
    """Distinct hypertrees and distinct trees: both directions blocked."""
    groups = [  # (tag, shapes, calls): call i checks shape i against shape i+1
        ("h7", catalog(lambda g: random_hypertree(7, 3, g), 3, "h7r3"), 3),
        ("t7", catalog(lambda g: random_tree(7, g), 2, "t7"), 2),
        ("h9", catalog(lambda g: random_hypertree(9, 3, g), 5, "h9r3"), 5),
        ("t8", catalog(lambda g: random_tree(8, g), 2, "t8"), 1),
    ]
    calls = []
    for tag, shapes, count in groups:
        for i in range(count):
            source, target = relabel_apart(shapes[i], shapes[(i + 1) % len(shapes)], rng)
            calls.append(check(f"{tag}-{i}", source, target, classification="incomparable"))
    return calls


def check_reachable(rng: random.Random) -> list[Call]:
    """Pairs whose search has to find a trace or exhaust the space."""
    calls = []
    calls.append(check("star7-cat", relabel(star(7), rng), cat(7),
                       classification="strictly_above"))
    for i, shape in enumerate(catalog(lambda g: random_tree(7, g), 2, "t7-cat")):
        calls.append(check(f"t7-{i}-cat", relabel(shape, rng), cat(7),
                           classification="strictly_above"))
    for n in (8, 10, 12):
        a, b = rng.sample(range(1, n + 1), 2)
        calls.append(check(f"cat{n}-epr", cat(n), epr(n, a, b),
                           classification="strictly_above"))
    for n in (5, 6):
        source, target = relabel_pair(copies(path(n), 2), star(n), rng)
        calls.append(check(f"2path{n}-star", source, target,
                           classification="incomparable"))
    for n in (5, 6):
        calls.append(check(f"cycle{n}-2cat", relabel(cycle(n), rng), copies(cat(n), 2),
                           allowed=(OPEN, BLOCKED)))
    calls.append(check("2ghz-triangle", copies(cat(3), 2), cycle(3),
                       allowed=(OPEN, OPEN)))
    return calls


def scan_distance(rng: random.Random) -> list[Call]:
    """Full 2^(n-1) coloring scans that no witness cuts short."""
    calls = []
    for n, count in ((13, 4), (14, 3), (15, 2)):
        for i in range(count):
            t1 = random_tree(n, rng)
            t2 = random_tree(n, rng)
            while t2 == t1:
                t2 = random_tree(n, rng)
            calls.append(distance(f"d{n}-{i}", t1, t2))
    t = random_tree(15, rng)
    calls.append(check("self15", t, t, classification="equivalent"))
    return calls


def sweep_theorems(rng: random.Random) -> list[Call]:
    """The theorem sweeps: tree-pair witnesses, scans and Prufer enumeration."""
    argv = ("verify-theorems", "--n-max", "5", "--r-list", "3", "4", "5",
            "--seed", str(rng.randrange(10 ** 6)))
    return [Call("sweep-n5", "sweep", argv)]


WORKLOADS = {
    "check-incomparable": check_incomparable,
    "check-reachable": check_reachable,
    "scan-distance": scan_distance,
    "sweep-theorems": sweep_theorems,
}


def build(workload: str, seed: int) -> list[Call]:
    """The fixed call list one pass of `workload` makes for `seed`."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
