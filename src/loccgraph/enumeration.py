"""Instance generators: labeled spanning trees via the Prufer bijection,
their isomorphism classes, and seeded r-uniform hypertrees.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import Counter
from typing import Iterable, Iterator

from .errors import BoundExceeded, InputError
from .hypergraph import Hypergraph, is_spanning_epr_tree, reach

TREE_ENUM_MAX_N = 7  # n^(n-2) <= 16807


def prufer_decode(symbols, n: int) -> Hypergraph:
    """Decode a length n-2 sequence over 1..n into its labeled spanning tree."""
    symbols = tuple(symbols)
    if n < 2:
        raise InputError("need at least two agents")
    if len(symbols) != n - 2:
        raise InputError(f"sequence length {len(symbols)} != n-2 = {n - 2}")
    if any(s < 1 or s > n for s in symbols):
        raise InputError("symbols must lie in 1..n")
    remaining = Counter(symbols)
    leaves = [v for v in range(1, n + 1) if remaining[v] == 0]
    heapq.heapify(leaves)
    edges = []
    for s in symbols:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        remaining[s] -= 1
        if remaining[s] == 0:
            heapq.heappush(leaves, s)
    a = heapq.heappop(leaves)
    b = heapq.heappop(leaves)
    edges.append((a, b))
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


def all_spanning_trees(n: int) -> Iterator[Hypergraph]:
    """All n^(n-2) labeled spanning trees on agents 1..n, deterministic order."""
    if not 2 <= n <= TREE_ENUM_MAX_N:
        raise BoundExceeded(f"exhaustive tree enumeration supports 2 <= n <= {TREE_ENUM_MAX_N}")
    for symbols in itertools.product(range(1, n + 1), repeat=n - 2):
        yield prufer_decode(symbols, n)


def tree_classes(trees: Iterable[Hypergraph]) -> list[tuple[Hypergraph, int]]:
    """Isomorphism classes of spanning EPR trees, as (first tree, class
    size) in order of first appearance.  A class's key is the
    Aho-Hopcroft-Ullman encoding rooted at the center (the lesser over two
    centers): a rooted tree is '(' + its subtrees' sorted encodings + ')'."""
    classes: dict[str, list] = {}
    for t in trees:
        if not is_spanning_epr_tree(t):
            raise InputError("can only classify spanning EPR trees")
        # the centers: the middle of a longest path, which starts at a farthest agent
        via = reach(t, next(reversed(reach(t, t.agents[0]))))
        path = [next(reversed(via))]
        while via[path[-1]] is not None:
            path.append(via[path[-1]][0])
        middle = {path[len(path) // 2], path[(len(path) - 1) // 2]}
        classes.setdefault(min(_rooted_encoding(t, c) for c in middle), [t, 0])[1] += 1
    return [(t, size) for t, size in classes.values()]


def _rooted_encoding(t: Hypergraph, root: int) -> str:
    via = reach(t, root)
    subtrees: dict[int, list[str]] = {a: [] for a in via}
    for a, step in reversed(via.items()):  # every agent after its parent
        code = "(" + "".join(sorted(subtrees[a])) + ")"
        if step is not None:
            subtrees[step[0]].append(code)
    return code  # the root's, which is discovered first


def random_spanning_tree(n: int, seed: int) -> Hypergraph:
    """Uniform labeled spanning tree via a seeded random Prufer sequence."""
    rng = random.Random(seed)
    symbols = tuple(rng.randrange(1, n + 1) for _ in range(n - 2))
    return prufer_decode(symbols, n)


def random_r_uniform_hypertree(n: int, r: int, seed: int) -> Hypergraph:
    """A seeded random r-uniform entangled hypertree on agents 1..n.

    Grown by repeatedly attaching a fresh hyperedge at a uniformly chosen
    existing vertex together with r-1 fresh vertices, then applying a
    seeded relabeling.  Requires n = m*(r-1) + 1 for some m >= 1.
    """
    if r < 2:
        raise InputError("r must be at least 2")
    if n < r or (n - 1) % (r - 1) != 0:
        raise InputError(f"no m >= 1 satisfies n = m*(r-1)+1 for n={n}, r={r}")
    m = (n - 1) // (r - 1)
    rng = random.Random(seed)
    vertices = list(range(1, r + 1))
    edges = [tuple(vertices)]
    nxt = r + 1
    for _ in range(m - 1):
        attach = rng.choice(vertices)
        fresh = list(range(nxt, nxt + r - 1))
        nxt += r - 1
        edges.append(tuple([attach] + fresh))
        vertices.extend(fresh)
    relabel = list(range(1, n + 1))
    rng.shuffle(relabel)
    mapping = {old: new for old, new in zip(range(1, n + 1), relabel)}
    return Hypergraph(tuple(range(1, n + 1)),
                      tuple(tuple(mapping[v] for v in e) for e in edges))
