"""Sound LOCC move calculus on hypergraph states, constructive protocols,
and bounded reachability search.

The move set is deliberately minimal and provably LOCC-sound:

* Discard(E)            -- throw away a shared state.
* MeasureOut(E, v)      -- v measures its qubit of a k-CAT (k >= 3) in the
                           diagonal basis and broadcasts; E becomes E - {v}.
* Swap({a,b}, {b,c})    -- entanglement swapping at b; yields {a,c}.
* CatExpand(E, {a,b})   -- a teleports a fresh qubit to b over the EPR pair,
                           growing the CAT: E and {a,b} become E + {b}.

No move ever increases a bipartition cut, so reachability is sound but
incomplete: a failed search means Unknown, never Impossible.  Every move
strictly decreases the total hyperedge size, so traces and searches
terminate.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from itertools import chain
from typing import Union

from .errors import BoundExceeded, IllegalMove, InputError, require
from .hypergraph import (
    Edge,
    Hypergraph,
    cat_state,
    copies,
    hyperpath,
    is_spanning_epr_tree,
    reach,
)

DEFAULT_SEARCH_BUDGET = 10 ** 6


@dataclass(frozen=True)
class Discard:
    edge: Edge
    kind = "discard"

    def key(self):
        return (self.kind, self.edge)


@dataclass(frozen=True)
class MeasureOut:
    edge: Edge
    agent: int
    kind = "measure_out"

    def key(self):
        return (self.kind, self.edge, (self.agent,))


@dataclass(frozen=True)
class Swap:
    left: Edge
    right: Edge
    kind = "swap"

    def key(self):
        return (self.kind, self.left, self.right)


@dataclass(frozen=True)
class CatExpand:
    edge: Edge
    pair: Edge
    kind = "cat_expand"

    def key(self):
        return (self.kind, self.edge, self.pair)


LoccMove = Union[Discard, MeasureOut, Swap, CatExpand]


def apply_move(state: Hypergraph, move: LoccMove) -> Hypergraph:
    """The rewritten state; the agent set never changes.

    Raises IllegalMove with the violated precondition.
    """
    if isinstance(move, Discard):
        return state.replace(remove=[move.edge])
    if isinstance(move, MeasureOut):
        edge = tuple(sorted(move.edge))
        if len(edge) < 3:
            raise IllegalMove("measure-out needs a hyperedge of size >= 3")
        if move.agent not in edge:
            raise IllegalMove(f"agent {move.agent} not in hyperedge {edge}")
        return state.replace(remove=[edge],
                             add=[tuple(m for m in edge if m != move.agent)])
    if isinstance(move, Swap):
        e1 = tuple(sorted(move.left))
        e2 = tuple(sorted(move.right))
        if len(e1) != 2 or len(e2) != 2:
            raise IllegalMove("swap operates on two EPR pairs")
        shared = set(e1) & set(e2)
        if len(shared) != 1:
            raise IllegalMove(f"swap pairs {e1}, {e2} must share exactly one agent")
        new = tuple(sorted(set(e1) ^ set(e2)))
        return state.replace(remove=[e1, e2], add=[new])
    if isinstance(move, CatExpand):
        edge = tuple(sorted(move.edge))
        pair = tuple(sorted(move.pair))
        if len(pair) != 2:
            raise IllegalMove("cat expansion consumes an EPR pair")
        inside = set(pair) & set(edge)
        if len(inside) != 1:
            raise IllegalMove(
                f"pair {pair} must touch hyperedge {edge} in exactly one agent")
        fresh = (set(pair) - inside).pop()
        return state.replace(remove=[edge, pair],
                             add=[tuple(sorted(edge + (fresh,)))])
    raise IllegalMove(f"unknown move {move!r}")


@dataclass(frozen=True)
class ProtocolTrace:
    """Replayable evidence that `end` is LOCC-reachable from `start`."""

    start: Hypergraph
    moves: tuple[LoccMove, ...]
    end: Hypergraph


def make_trace(start: Hypergraph, moves) -> ProtocolTrace:
    """Build a trace by replaying the moves, checking every precondition
    and the strict decrease of the size potential.  Each state's size is
    summed once and carried to the next move."""
    moves = tuple(moves)
    state, size = start, start.size_total
    for move in moves:
        state = apply_move(state, move)
        shrunk = state.size_total
        require(shrunk < size, "every move shrinks the state")
        size = shrunk
    return ProtocolTrace(start=start, moves=moves, end=state)


def replay_trace(trace: ProtocolTrace) -> Hypergraph:
    """Re-execute the trace; raises if any move is illegal or the recorded
    end state does not match."""
    state = trace.start
    for move in trace.moves:
        state = apply_move(state, move)
    if state != trace.end:
        raise IllegalMove("trace end state does not match replay")
    return state


# ---------------------------------------------------------------------------
# constructive protocols
# ---------------------------------------------------------------------------

def tree_to_cat(t: Hypergraph) -> ProtocolTrace:
    """Build the n-CAT from EPR pairs shared along a spanning tree.

    Teleportation absorbs one pair per step: rooted at the lowest agent,
    edges are consumed in breadth-first discovery order, so every pair
    touches the CAT grown so far and exactly n-2 expansions turn the first
    pair into the full CAT.  For n = 2 the pair already is the 2-CAT and
    the trace is empty.
    """
    if not is_spanning_epr_tree(t):
        raise InputError("input is not a spanning EPR tree")
    steps = [(child, step[1]) for child, step in reach(t, t.agents[0]).items()
             if step is not None]
    current = steps[0][1]
    moves = []
    for child, pair in steps[1:]:
        moves.append(CatExpand(edge=current, pair=pair))
        current = tuple(sorted(current + (child,)))
    return make_trace(t, moves)


def cat_to_epr(n: int, a: int, b: int) -> ProtocolTrace:
    """Distill the EPR pair {a, b} from the n-CAT: every other agent
    measures out in turn (n-2 moves)."""
    if n < 2:
        raise InputError("need at least two agents")
    if a == b or not (1 <= a <= n) or not (1 <= b <= n):
        raise InputError(f"agents ({a}, {b}) invalid for n={n}")
    start = cat_state(n)
    return make_trace(start, _measure_outs(start.edges[0], a, b))


def _measure_outs(cat: Edge, a: int, b: int) -> list[MeasureOut]:
    """Every member of the CAT `cat` but a and b measures out, in order."""
    moves, current = [], cat
    for v in cat:
        if v not in (a, b):
            moves.append(MeasureOut(edge=current, agent=v))
            current = tuple(m for m in current if m != v)
    return moves


def cat_copies_to_tree(t: Hypergraph) -> ProtocolTrace:
    """Build a spanning tree from n-1 copies of the CAT over its agents,
    one copy per edge via the measure-out distillation."""
    if not is_spanning_epr_tree(t):
        raise InputError("target is not a spanning EPR tree")
    if t.n < 2:
        raise InputError("a CAT state needs at least two agents")
    moves = [m for a, b in t.edges for m in _measure_outs(t.agents, a, b)]
    return make_trace(copies(Hypergraph(t.agents, (t.agents,)), t.n - 1), moves)


def trees_copies_to_tree(t1: Hypergraph, t2: Hypergraph) -> ProtocolTrace:
    """Convert QD+1 copies of spanning tree t1 into spanning tree t2.

    One copy keeps the common edges (the rest are discarded); every other
    copy manufactures one missing edge of t2 by swapping along the t1 path
    between its endpoints, then discards its leftovers.
    """
    for t in (t1, t2):
        if not is_spanning_epr_tree(t):
            raise InputError("both inputs must be spanning EPR trees")
    if t1.agents != t2.agents:
        raise InputError("trees must span the same agents")
    missing = sorted(set(t2.edges) - set(t1.edges))
    start = copies(t1, len(missing) + 1)
    moves: list[LoccMove] = []
    for e in sorted(set(t1.edges) - set(t2.edges)):
        moves.append(Discard(e))
    for a, b in missing:
        path_edges, junctions = hyperpath(t1, a, b)
        path = [a, *junctions, b]
        current = path_edges[0]
        for nxt in path[2:]:
            # swap at the junction shared by the accumulated pair and the next hop
            junction = (set(current) - {a}).pop()
            moves.append(Swap(left=current, right=tuple(sorted((junction, nxt)))))
            current = tuple(sorted((a, nxt)))
        for e in sorted(set(t1.edges) - set(path_edges)):
            moves.append(Discard(e))
    trace = make_trace(start, moves)
    require(trace.end == t2, "the copies protocol ends at the target tree")
    return trace


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def legal_moves(state: Hypergraph) -> list[LoccMove]:
    """Every legal move of the state, in canonical (lexicographic) order.

    Moves are enumerated over distinct edge values; multiplicity only
    matters for operand availability, which value-based removal handles.
    """
    distinct = sorted(set(state.edges))
    pairs = [e for e in distinct if len(e) == 2]
    moves: list[LoccMove] = []
    for e in distinct:
        moves.append(Discard(e))
        if len(e) >= 3:
            for v in e:
                moves.append(MeasureOut(edge=e, agent=v))
        for p in pairs:
            if p != e and len(set(p) & set(e)) == 1:
                moves.append(CatExpand(edge=e, pair=p))
    for i, e1 in enumerate(pairs):
        for e2 in pairs[i + 1:]:
            if len(set(e1) & set(e2)) == 1:
                moves.append(Swap(left=e1, right=e2))
    moves.sort(key=lambda m: m.key())
    return moves


def _find(parent: dict[int, int], x: int) -> int:
    """Union-find root of x, halving the path on the way; agents absent
    from `parent` are their own root."""
    while x in parent:
        up = parent[x]
        if up in parent:
            parent[x] = parent[up]
        x = up
    return x


def _cut_pruner(target: Hypergraph):
    """Predicate: the A-side of a coloring of the prune family that cuts a
    state *less* than it cuts `target`, or None.  If there is one, no LOCC
    protocol turns that state into the target, because no move ever raises
    a bipartition cut.

    The family: every single-agent cut (a state degree below the target's
    degree; the lowest such agent is returned) and every component cut of
    the state (a target hyperedge spanning two of its components; the
    component of the first agent of the least such edge is returned).  The
    target's side is computed once; each test is then one pass over the
    agents and edges of the state.  Every member of the family can only
    shrink along a move, so every descendant of a pruned state is pruned
    as well.
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


def reachability_search(source: Hypergraph, target: Hypergraph,
                        budget: int = DEFAULT_SEARCH_BUDGET) -> ProtocolTrace | None:
    """Breadth-first search for a shortest LOCC trace source -> target.

    States are deduplicated by canonical form; successors are generated in
    canonical move order, so the returned trace is the lexicographically
    least among the shortest ones.  Returns None when the (finite) space
    is exhausted without success; raises BoundExceeded when the search
    was cut short by the state budget instead.

    The search is evidence-first.  After the `source == target` test it
    asks whether some single-agent cut or component cut of the source is
    below the target's; if one is, no protocol exists and it returns None
    at the root, without expanding a single state.  The same test prunes
    every state it discovers: such a state still counts against the budget
    and is still compared with the target, but it is never expanded.
    LOCC never raises a bipartition cut, so every state on a path to the
    target dominates all of the target's cuts: pruning keeps the returned
    trace, and it never hits the budget earlier than the unpruned search
    would.
    """
    if source.agents != target.agents:
        raise InputError("source and target must share one agent set")
    if source == target:
        return make_trace(source, ())
    cut_below_target = _cut_pruner(target)
    if cut_below_target(source) is not None:
        return None
    visited = {source.edges}
    parent: dict[tuple, tuple[Hypergraph, LoccMove]] = {}
    queue = deque([source])
    truncated = False
    while queue:
        state = queue.popleft()
        for move in legal_moves(state):
            nxt = apply_move(state, move)
            if nxt.edges in visited:
                continue
            if len(visited) >= budget:
                truncated = True
                continue
            visited.add(nxt.edges)
            parent[nxt.edges] = (state, move)
            if nxt == target:
                moves = []
                cur = nxt
                while cur != source:
                    prev, mv = parent[cur.edges]
                    moves.append(mv)
                    cur = prev
                moves.reverse()
                return make_trace(source, moves)
            if cut_below_target(nxt) is None:
                queue.append(nxt)
    if truncated:
        raise BoundExceeded(f"state budget {budget} hit before exhausting the space")
    return None
