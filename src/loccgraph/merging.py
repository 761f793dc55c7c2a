"""Bicolored merging: two-colorings of the agents and the bipartite cuts
they induce.

Coloring every agent A or B and handing each color class to a single party
collapses a multipartite configuration to a two-party one.  For maximally
entangled states the number of bichromatic hyperedges equals the number of
EPR pairs the merged parties share, i.e. the marginal entropy across the
bipartition.  Since LOCC cannot increase that entropy, a coloring under
which the target's cut exceeds the source's cut is a machine-checkable
proof that the transformation is impossible: a blocking witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import BoundExceeded, InputError
from .hypergraph import Edge, Hypergraph

DEFAULT_COLOR_BOUND = 22


@dataclass(frozen=True)
class Bicoloring:
    """Total assignment of each agent to color A or B, stored as the A side."""

    agents: tuple[int, ...]
    a_side: frozenset[int]

    def __post_init__(self) -> None:
        agents = tuple(sorted(self.agents))
        a_side = frozenset(self.a_side)
        if not a_side.issubset(agents):
            raise InputError("A-side contains unknown agents")
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "a_side", a_side)

    @property
    def b_side(self) -> frozenset[int]:
        return frozenset(set(self.agents) - self.a_side)

    @property
    def nontrivial(self) -> bool:
        """Both colors occur."""
        return 0 < len(self.a_side) < len(self.agents)

    def color(self, agent: int) -> str:
        return "A" if agent in self.a_side else "B"

    def flipped(self) -> "Bicoloring":
        return Bicoloring(self.agents, self.b_side)

    def bits(self) -> str:
        """'1' for A, '0' for B, in canonical agent order."""
        return "".join("1" if a in self.a_side else "0" for a in self.agents)

    @classmethod
    def from_bits(cls, agents, bits: str) -> "Bicoloring":
        agents = tuple(sorted(agents))
        if len(bits) != len(agents) or set(bits) - {"0", "1"}:
            raise InputError("bit string does not match agent set")
        return cls(agents, frozenset(a for a, b in zip(agents, bits) if b == "1"))


@dataclass(frozen=True)
class BcmGraph:
    """Per-hyperedge collapse record of the merged two-party graph.

    A hyperedge collapses to a simple edge iff it holds agents of both
    colors, otherwise to a single vertex.
    """

    cross_edge_count: int
    collapsed: tuple[tuple[Edge, str], ...]  # (hyperedge, "edge" | "vertex")


@dataclass(frozen=True)
class BlockingWitness:
    """A coloring plus the two cut counts proving one LOCC direction
    impossible (the target needs strictly more EPR pairs across the
    bipartition than the source provides)."""

    coloring: Bicoloring
    source_cut: int
    target_cut: int
    direction: tuple[str, str] = ("source", "target")

    def __post_init__(self) -> None:
        if not self.target_cut > self.source_cut:
            raise InputError(
                f"not a witness: target cut {self.target_cut} "
                f"<= source cut {self.source_cut}")


def bcm_cut(h: Hypergraph, coloring: Bicoloring) -> int:
    """Number of bichromatic hyperedges, counted with multiplicity."""
    a = coloring.a_side
    count = 0
    for e in h.edges:
        inside = sum(1 for m in e if m in a)
        if 0 < inside < len(e):
            count += 1
    return count


def bcm_reduce(h: Hypergraph, coloring: Bicoloring) -> BcmGraph:
    a = coloring.a_side
    records = []
    cross = 0
    for e in h.edges:
        inside = sum(1 for m in e if m in a)
        if 0 < inside < len(e):
            records.append((e, "edge"))
            cross += 1
        else:
            records.append((e, "vertex"))
    return BcmGraph(cross_edge_count=cross, collapsed=tuple(records))


def iter_bicolorings(agents, bound: int = DEFAULT_COLOR_BOUND) -> Iterator[Bicoloring]:
    """All 2^(n-1) colorings with the canonical first agent pinned to B,
    in binary-counting order over the remaining agents (deterministic).

    Color-swap symmetry makes this exhaustive for cut purposes: the cut of
    a coloring equals the cut of its flip.
    """
    agents = tuple(sorted(agents))
    n = len(agents)
    if n > bound:
        raise BoundExceeded(f"{n} agents exceeds the coloring bound {bound}")
    rest = agents[1:]
    for mask in range(1 << (n - 1)):
        a_side = frozenset(a for i, a in enumerate(rest) if mask >> i & 1)
        yield Bicoloring(agents, a_side)


def make_witness(source: Hypergraph, target: Hypergraph,
                 coloring: Bicoloring,
                 direction: tuple[str, str] = ("source", "target")) -> BlockingWitness:
    """Build a witness by recomputing both cuts; raises if it is not one."""
    if source.agents != target.agents:
        raise InputError("source and target share no common agent set")
    return BlockingWitness(
        coloring=coloring,
        source_cut=bcm_cut(source, coloring),
        target_cut=bcm_cut(target, coloring),
        direction=direction,
    )


def find_blocking_witness(source: Hypergraph, target: Hypergraph, *,
                          color_bound: int = DEFAULT_COLOR_BOUND,
                          direction: tuple[str, str] = ("source", "target"),
                          ) -> BlockingWitness | None:
    """Exhaustive scan for a coloring with target cut > source cut.

    Returns the first witness in deterministic coloring order, or None when
    no bipartition-entropy obstruction exists.  None is NOT a proof that
    the transformation is possible; possibility is established only by an
    explicit protocol trace.
    """
    if source.agents != target.agents:
        raise InputError("source and target must share one agent set")
    for coloring in iter_bicolorings(source.agents, bound=color_bound):
        s = bcm_cut(source, coloring)
        t = bcm_cut(target, coloring)
        if t > s:
            return BlockingWitness(coloring, s, t, direction)
    return None


def min_copies_lower_bound(source: Hypergraph, target: Hypergraph, *,
                           color_bound: int = DEFAULT_COLOR_BOUND) -> int | float:
    """Lower bound on how many copies of `source` any LOCC protocol needs
    to produce one copy of `target`.

    For every nontrivial coloring, k copies of the source supply k times
    its cut, so k >= ceil(target_cut / source_cut).  Returns math.inf when
    some coloring gives the target a positive cut but the source none (no
    number of copies suffices), and 0 when the target has no hyperedges.
    """
    if source.agents != target.agents:
        raise InputError("source and target must share one agent set")
    best: int = 0
    for coloring in iter_bicolorings(source.agents, bound=color_bound):
        if not coloring.nontrivial:
            continue
        t = bcm_cut(target, coloring)
        if t == 0:
            continue
        s = bcm_cut(source, coloring)
        if s == 0:
            return math.inf
        best = max(best, -(-t // s))
    return best
