"""A fixed reference kernel that measures how fast the machine runs right now.

The kernel is the benchmark's own code, so it does the same work on every
commit of loccgraph.  It does the kind of work loccgraph's hot paths do:
breadth-first search over canonical hypergraph states held in frozen
dataclasses, with tuple sorting, hashing and set membership.  Timing it
between the workload's calls gives the machine's current speed, by which the
workload's times are normalized: on a shared host the same code runs up to 2x
slower for minutes at a time, and the kernel slows down with it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from time import perf_counter


@dataclass(frozen=True)
class _State:
    edges: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(tuple(sorted(e)) for e in self.edges)))


def _moves(s: _State):
    edges = s.edges
    for i, j in combinations(range(len(edges)), 2):
        a, b = edges[i], edges[j]
        if set(a) & set(b):
            merged = tuple(sorted(set(a) | set(b)))
            rest = edges[:i] + edges[i + 1:j] + edges[j + 1:]
            yield rest + (merged,)
    for i, e in enumerate(edges):
        if len(e) > 2:
            for v in e:
                yield edges[:i] + (tuple(u for u in e if u != v),) + edges[i + 1:]


def kernel(n: int = 7) -> int:
    """BFS from the path on n agents; returns the number of states seen."""
    start = _State(tuple((v, v + 1) for v in range(1, n)))
    seen = {start}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for edges in _moves(s):
            t = _State(edges)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return len(seen)


def sample(min_seconds: float = 0.03) -> float:
    """Seconds per kernel run, averaged over at least two runs and `min_seconds`."""
    runs = 0
    t0 = perf_counter()
    while True:
        kernel()
        runs += 1
        elapsed = perf_counter() - t0
        if runs >= 2 and elapsed >= min_seconds:
            return elapsed / runs
