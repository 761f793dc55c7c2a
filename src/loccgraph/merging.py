"""Bicolored merging: two-colorings of the agents and the bipartite cuts
they induce.

Coloring every agent A or B and handing each color class to a single party
collapses a multipartite configuration to a two-party one: a hyperedge
holding agents of both colors (bichromatic) collapses to an EPR pair
between the two parties, any other hyperedge to a state local to one of
them.  For maximally entangled states the number of bichromatic hyperedges
therefore equals the number of EPR pairs the merged parties share, i.e. the
marginal entropy across the bipartition.  Since LOCC cannot increase that
entropy, a coloring under which the target's cut exceeds the source's cut
is a machine-checkable proof that the transformation is impossible: a
blocking witness.

The scans over all 2^(n-1) colorings are bit-parallel (broadword
computing, Knuth, TAOCP 4A, section 7.1.3): bit m of an integer stands for
coloring m of `iter_bicolorings`, so one bitwise operation treats every
coloring at once.  A scan is two steps: `_cut_levels` builds each state's
level sets (the colorings that cut it v times), and `_first_witness` folds
a source's and a target's levels into the first witness (`_min_copies`
folds them into the copy lower bound).  A state's levels depend on nothing
else, so the tree-pair sweep builds them once per labeled tree and the
CAT-copy sweep once per class representative, and each folds every pair
from them.  Every witness the fold emits has both cuts recomputed by the
per-coloring `bcm_cut`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator

from .errors import BoundExceeded, InputError
from .hypergraph import Hypergraph

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
class BlockingWitness:
    """A coloring plus the two cut counts proving one LOCC direction
    impossible (the target needs strictly more EPR pairs across the
    bipartition than the source provides)."""

    coloring: Bicoloring
    source_cut: int
    target_cut: int

    def __post_init__(self) -> None:
        if not self.target_cut > self.source_cut:
            raise InputError(
                f"not a witness: target cut {self.target_cut} "
                f"<= source cut {self.source_cut}")


def bcm_cut(h: Hypergraph, coloring: Bicoloring) -> int:
    """Number of bichromatic hyperedges, counted with multiplicity."""
    a = coloring.a_side
    return sum(not a.isdisjoint(e) and not a.issuperset(e) for e in h.edges)


def _check_bound(agents, bound: int) -> None:
    if len(agents) > bound:
        raise BoundExceeded(f"{len(agents)} agents exceeds the coloring bound {bound}")


def _coloring(agents: tuple[int, ...], mask: int) -> Bicoloring:
    """Coloring number `mask`: bit i puts agents[i + 1] on the A side."""
    return Bicoloring(agents, frozenset(a for i, a in enumerate(agents[1:])
                                        if mask >> i & 1))


def iter_bicolorings(agents, bound: int = DEFAULT_COLOR_BOUND) -> Iterator[Bicoloring]:
    """All 2^(n-1) colorings with the canonical first agent pinned to B,
    in binary-counting order over the remaining agents (deterministic).

    Color-swap symmetry makes this exhaustive for cut purposes: the cut of
    a coloring equals the cut of its flip.
    """
    agents = tuple(sorted(agents))
    _check_bound(agents, bound)
    for mask in range(1 << (len(agents) - 1)):
        yield _coloring(agents, mask)


def _cut_levels(agents: tuple[int, ...], *hypergraphs: Hypergraph) -> list[list[int]]:
    """Level sets of each hypergraph's cut: entry v of its list is the
    bitset of the colorings (bit m for `_coloring(agents, m)`) that cut it
    exactly v times.  A hyperedge is bichromatic under the OR of its
    members' columns (their A-side colorings) minus their AND."""
    size = 1 << (len(agents) - 1)
    column = {agents[0]: 0}
    for i, a in enumerate(agents[1:]):
        # bit i of m repeats with period 2 << i: (1 << i) zeros, as many ones
        half = 1 << i
        bits, width = ((1 << half) - 1) << half, half << 1
        while width < size:
            bits |= bits << width
            width <<= 1
        column[a] = bits
    result = []
    for h in hypergraphs:
        levels = [(1 << size) - 1]
        for e in h.edges:
            some, every = 0, -1
            for a in e:
                some |= column[a]
                every &= column[a]
            cross = some & ~every
            keep = ~cross
            levels.append(levels[-1] & cross)
            for v in range(len(levels) - 2, 0, -1):
                levels[v] = (levels[v] & keep) | (levels[v - 1] & cross)
            levels[0] &= keep
        result.append(levels)
    return result


def make_witness(source: Hypergraph, target: Hypergraph,
                 coloring: Bicoloring) -> BlockingWitness:
    """Build a witness by recomputing both cuts; raises if it is not one."""
    if source.agents != target.agents:
        raise InputError("source and target share no common agent set")
    return BlockingWitness(
        coloring=coloring,
        source_cut=bcm_cut(source, coloring),
        target_cut=bcm_cut(target, coloring),
    )


def find_blocking_witness(source: Hypergraph, target: Hypergraph, *,
                          color_bound: int = DEFAULT_COLOR_BOUND,
                          ) -> BlockingWitness | None:
    """Exhaustive scan for a coloring with target cut > source cut.

    Returns the first witness in deterministic coloring order, or None when
    no bipartition-entropy obstruction exists.  None is NOT a proof that
    the transformation is possible; possibility is established only by an
    explicit protocol trace.
    """
    if source.agents != target.agents:
        raise InputError("source and target must share one agent set")
    _check_bound(source.agents, color_bound)
    return _first_witness(source, target, *_cut_levels(source.agents, source, target))


def _first_witness(source: Hypergraph, target: Hypergraph,
                   source_levels: list[int], target_levels: list[int],
                   ) -> BlockingWitness | None:
    """The first coloring, in `iter_bicolorings` order, whose target level
    lies above its source level, given both level lists from `_cut_levels`
    over the common agents; None when there is none."""
    below = found = 0
    for source_level, target_level in zip_longest(source_levels, target_levels[1:],
                                                  fillvalue=0):
        below |= source_level  # colorings whose source cut is below the target level
        found |= target_level & below
    if not found:
        return None
    first = (found & -found).bit_length() - 1
    return make_witness(source, target, _coloring(source.agents, first))


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
    _check_bound(source.agents, color_bound)
    return _min_copies(*_cut_levels(source.agents, source, target))


def _min_copies(source_levels: list[int], target_levels: list[int]) -> int | float:
    """`min_copies_lower_bound` folded from both level lists of
    `_cut_levels` over the common agents."""
    if source_levels[0] & ~target_levels[0]:
        return math.inf
    best: int = 0
    for v in range(1, len(source_levels)):
        for w in range(len(target_levels) - 1, 0, -1):
            if source_levels[v] & target_levels[w]:
                best = max(best, -(-w // v))
                break
    return best
