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
coloring m of `_coloring`, so one bitwise operation treats every
coloring at once.  A scan is two steps: `cut_profiles` builds each state's
`CutProfile` (its level sets: the colorings that cut it v times), and
`CutProfile.first_witness` folds a source's and a target's profiles into
the first witness (`CutProfile.min_copies` folds them into the copy lower
bound).  `cut_profiles` counts bit-sliced: plane j of a state's counter
holds the colorings whose cut has bit j set, and each hyperedge's
bichromatic set enters with a ripple carry, O(log cut) operations per
edge.  A decoder then splits all colorings on each plane, top plane first,
which leaves the level sets in cut order.  A state's profile depends on
nothing else, so the tree-pair sweep builds it once per labeled tree and
the CAT-copy sweep once per class representative, and each folds every
pair from them.  Every witness the fold emits has both cuts recomputed by
the per-coloring `bcm_cut`.  `cheap_cuts` tests a family of single-agent
and component cuts with no scan at all; the search prunes with it and
`structural_witness` reads it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, zip_longest

from .errors import BoundExceeded, InputError
from .hypergraph import Hypergraph, shared_agents

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
    a, cut = coloring.a_side, 0
    for e in h.edges:
        if not a.isdisjoint(e) and not a.issuperset(e):
            cut += 1
    return cut


def _check_bound(agents, bound: int) -> None:
    if len(agents) > bound:
        raise BoundExceeded(f"{len(agents)} agents exceeds the coloring bound {bound}")


def _coloring(agents: tuple[int, ...], mask: int) -> Bicoloring:
    """Coloring number `mask`: bit i puts agents[i + 1] on the A side.  The
    first agent stays on B, since swapping the colors keeps every cut."""
    return Bicoloring(agents, frozenset(a for i, a in enumerate(agents[1:])
                                        if mask >> i & 1))


def make_witness(source: Hypergraph, target: Hypergraph,
                 coloring: Bicoloring) -> BlockingWitness:
    """Build a witness by recomputing both cuts; raises if it is not one."""
    if coloring.agents != shared_agents(source, target):
        raise InputError(f"coloring over {coloring.agents} does not color the states' agents")
    return BlockingWitness(
        coloring=coloring,
        source_cut=bcm_cut(source, coloring),
        target_cut=bcm_cut(target, coloring),
    )


@dataclass(frozen=True)
class CutProfile:
    """A state's cut under every coloring of its agents: entry v of
    `levels` is the bitset of the colorings (bit m for coloring m of
    `_coloring`) that cut the state exactly v times.  Built by
    `cut_profiles`; two profiles fold into a witness or a copy bound only
    when they were built over the same agents."""

    state: Hypergraph
    levels: tuple[int, ...]

    def first_witness(self, target: "CutProfile") -> BlockingWitness | None:
        """The first coloring, in the mask order of `_coloring`, whose target
        level lies above this state's level; None when there is none."""
        below = found = 0
        for source_level, target_level in zip_longest(self.levels, target.levels[1:],
                                                      fillvalue=0):
            below |= source_level  # colorings whose source cut is below the target level
            found |= target_level & below
        if not found:
            return None
        first = (found & -found).bit_length() - 1
        return make_witness(self.state, target.state, _coloring(self.state.agents, first))

    def min_copies(self, target: "CutProfile") -> int | float:
        """`min_copies_lower_bound` of this state and the target, folded
        from both profiles."""
        source_levels, target_levels = self.levels, target.levels
        if source_levels[0] & ~target_levels[0]:
            return math.inf
        best: int = 0
        for v in range(1, len(source_levels)):
            for w in range(len(target_levels) - 1, 0, -1):
                if source_levels[v] & target_levels[w]:
                    best = max(best, -(-w // v))
                    break
        return best


def cut_profiles(*states: Hypergraph,
                 color_bound: int = DEFAULT_COLOR_BOUND) -> list[CutProfile]:
    """The profile of each state, over their common agents.  A hyperedge
    is bichromatic under the OR of its members' columns (their A-side
    colorings) minus their AND; the columns are built once for all the
    states.  Raises unless there is a state and the states share one agent
    set within the coloring bound."""
    if not states:
        raise InputError("no state to profile")
    agents = shared_agents(*states)
    _check_bound(agents, color_bound)
    size = 1 << (len(agents) - 1)
    full = (1 << size) - 1
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
    for h in states:
        planes: list[int] = []  # plane j: the colorings whose cut has bit j set
        for e in h.edges:
            some = every = column[e[0]]
            for a in e[1:]:
                some |= column[a]
                every &= column[a]
            carry = some ^ every  # the colorings that cut e
            for j, plane in enumerate(planes):
                planes[j] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:  # carry is never 0 here: some coloring splits every edge
                planes.append(carry)
        levels = [full]
        for plane in reversed(planes):
            rest, parents, levels = full ^ plane, levels[::-1], []
            while parents:  # popped, so each parent set is freed once split
                level = parents.pop()
                levels += (level & rest, level & plane)
        cap = len(h.edges) + 1
        result.append(CutProfile(h, tuple(levels[:cap]) + (0,) * (cap - len(levels))))
    return result


def find_blocking_witness(source: Hypergraph, target: Hypergraph, *,
                          color_bound: int = DEFAULT_COLOR_BOUND,
                          ) -> BlockingWitness | None:
    """Exhaustive scan for a coloring with target cut > source cut.

    Returns the first witness in deterministic coloring order, or None when
    no bipartition-entropy obstruction exists.  None is NOT a proof that
    the transformation is possible; possibility is established only by an
    explicit protocol trace.
    """
    if source == target:  # equal states cut alike under every coloring; only the bound is left
        return _check_bound(source.agents, color_bound)
    source_profile, target_profile = cut_profiles(source, target, color_bound=color_bound)
    return source_profile.first_witness(target_profile)


def min_copies_lower_bound(source: Hypergraph, target: Hypergraph, *,
                           color_bound: int = DEFAULT_COLOR_BOUND) -> int | float:
    """Lower bound on how many copies of `source` any LOCC protocol needs
    to produce one copy of `target`.

    For every nontrivial coloring, k copies of the source supply k times
    its cut, so k >= ceil(target_cut / source_cut).  Returns math.inf when
    some coloring gives the target a positive cut but the source none (no
    number of copies suffices), and 0 when the target has no hyperedges.
    """
    source_profile, target_profile = cut_profiles(source, target, color_bound=color_bound)
    return source_profile.min_copies(target_profile)


def _find(parent: dict[int, int], x: int) -> int:
    """Union-find root of x, halving the path on the way; agents absent
    from `parent` are their own root."""
    while x in parent:
        up = parent[x]
        if up in parent:
            parent[x] = parent[up]
        x = up
    return x


def cheap_cuts(target: Hypergraph):
    """Predicate: the A-side of a coloring of the cheap family that cuts a
    state *less* than it cuts `target`, or None.  If there is one, no LOCC
    protocol turns that state into the target, because no move ever raises
    a bipartition cut.

    The family: every single-agent cut (a state degree below the target's
    degree; the lowest such agent is returned) and every component cut of
    the state (a target hyperedge spanning two of its components; the
    component of the first agent of the least such edge is returned).  The
    target's side is computed once; each test is then one pass over the
    agents and edges of the state.  Every member of the family can only
    shrink along a move, so every descendant of a state it blocks is
    blocked as well.

    The components come from a union-find local to the call, not from a
    `reach` walk per component, which would build the agent index again for
    each.  With such walks here, `reachability_search(path_tree(16),
    cat_state(16), budget=60_000)` took 2.1 s instead of 1.8 s at equal peak
    RSS (CPU time, best of 9 alternating runs, medians 2.45 s and 2.37 s;
    Python 3.11, shared 2-core VM).
    """
    target_degree = Counter(chain.from_iterable(target.edges))
    target_edges = sorted(set(target.edges))

    def blocking_side(state: Hypergraph) -> frozenset[int] | None:
        short = target_degree - Counter(chain.from_iterable(state.edges))
        if short:
            return frozenset({min(short)})
        parent: dict[int, int] = {}
        for e in state.edges:
            root = _find(parent, e[0])
            for a in e[1:]:
                other = _find(parent, a)
                if other != root:
                    parent[other] = root
        for e in target_edges:
            root = _find(parent, e[0])
            if any(_find(parent, a) != root for a in e[1:]):
                return frozenset(a for a in state.agents if _find(parent, a) == root)
        return None

    return blocking_side
