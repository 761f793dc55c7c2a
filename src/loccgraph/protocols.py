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

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass
from typing import Union

from .errors import BoundExceeded, IllegalMove, InputError, require
from .hypergraph import (
    Edge,
    Hypergraph,
    cat_state,
    copies,
    epr_tree_table,
    require_tree_pair,
    shared_agents,
)
from .merging import cheap_cuts

DEFAULT_SEARCH_BUDGET = 10 ** 6


@dataclass(frozen=True)
class Discard:
    edge: Edge
    kind = "discard"


@dataclass(frozen=True)
class MeasureOut:
    edge: Edge
    agent: int
    kind = "measure_out"


@dataclass(frozen=True)
class Swap:
    left: Edge
    right: Edge
    kind = "swap"


@dataclass(frozen=True)
class CatExpand:
    edge: Edge
    pair: Edge
    kind = "cat_expand"


LoccMove = Union[Discard, MeasureOut, Swap, CatExpand]


def apply_move(state: Hypergraph, move: LoccMove) -> Hypergraph:
    """The rewritten state, by `_edit` on a copy of its edges; the agent set
    never changes.  Raises IllegalMove with the violated precondition."""
    pool = list(state.edges)
    _edit(pool, *_operands(move))
    return state.edited(pool)


def _operands(move: LoccMove) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
    """The sorted edges the move removes and adds, once its own preconditions
    hold, else IllegalMove naming the one it breaks; `_edit` trusts them."""
    if isinstance(move, Discard):
        return (tuple(sorted(move.edge)),), ()
    if isinstance(move, MeasureOut):
        edge = tuple(sorted(move.edge))
        if len(edge) < 3:
            raise IllegalMove("measure-out needs a hyperedge of size >= 3")
        if move.agent not in edge:
            raise IllegalMove(f"agent {move.agent} not in hyperedge {edge}")
        return (edge,), (tuple(m for m in edge if m != move.agent),)
    if isinstance(move, Swap):
        e1 = tuple(sorted(move.left))
        e2 = tuple(sorted(move.right))
        if len(e1) != 2 or len(e2) != 2:
            raise IllegalMove("swap operates on two EPR pairs")
        shared = set(e1) & set(e2)
        if len(shared) != 1:
            raise IllegalMove(f"swap pairs {e1}, {e2} must share exactly one agent")
        return (e1, e2), (tuple(sorted(set(e1) ^ set(e2))),)
    if isinstance(move, CatExpand):
        edge = tuple(sorted(move.edge))
        pair = tuple(sorted(move.pair))
        if len(pair) != 2:
            raise IllegalMove("cat expansion consumes an EPR pair")
        inside = set(pair) & set(edge)
        if len(inside) != 1:
            raise IllegalMove(
                f"pair {pair} must touch hyperedge {edge} in exactly one agent")
        if pair[0] == pair[1]:  # one agent twice, inside the hyperedge: no fresh agent
            raise IllegalMove("cat expansion consumes an EPR pair")
        fresh = (set(pair) - inside).pop()
        return (edge, pair), (tuple(sorted(edge + (fresh,))),)
    raise IllegalMove(f"unknown move {move!r}")


def _edit(pool: list[Edge], remove, add) -> int:
    """Swap one instance of each `remove` edge in `pool`, a sorted edge
    list, for the `add` edges; the change in size_total.  IllegalMove if a
    removed edge is absent.  It sorts and validates nothing, which is sound
    for what `_operands` hands it: the removals come first, and each added
    edge is built from members of the edges just found, so it has two or
    more distinct agents of the state."""
    change = 0
    for e in remove:
        try:
            i = bisect_left(pool, e)
        except TypeError:  # labels that do not compare with the state's
            i = len(pool)
        if i == len(pool) or pool[i] != e:
            raise IllegalMove(f"hyperedge {e} is not in the state")
        del pool[i]
        change -= len(e)
    for e in add:
        insort(pool, e)
        change += len(e)
    return change


@dataclass(frozen=True)
class ProtocolTrace:
    """Replayable evidence that `end` is LOCC-reachable from `start`."""

    start: Hypergraph
    moves: tuple[LoccMove, ...]
    end: Hypergraph


def make_trace(start: Hypergraph, moves) -> ProtocolTrace:
    """Build a trace by replaying the moves, checking every precondition
    and the strict decrease of the size potential.  Each move edits one
    copy of the start's edge list through `_edit`; only the end is built."""
    moves = tuple(moves)
    pool = list(start.edges)
    edit, operands = _edit, _operands
    for move in moves:
        remove, add = operands(move)
        if edit(pool, remove, add) >= 0:
            require(False, "every move shrinks the state")
    return ProtocolTrace(start=start, moves=moves, end=start.edited(pool))


def replay_trace(trace: ProtocolTrace) -> Hypergraph:
    """Re-execute the trace through `make_trace`, which checks every
    precondition and the size potential again; raises if the recorded end
    state does not match."""
    end = make_trace(trace.start, trace.moves).end
    if end != trace.end:
        raise IllegalMove("trace end state does not replay")
    return end


# ---------------------------------------------------------------------------
# constructive protocols
# ---------------------------------------------------------------------------

def tree_to_cat(t: Hypergraph) -> ProtocolTrace:
    """Build the n-CAT from EPR pairs shared along a spanning tree.

    Teleportation absorbs one pair per step: rooted at the lowest agent,
    edges are consumed in the breadth-first discovery order of the tree's
    table, so every pair touches the CAT grown so far and exactly n-2
    expansions turn the first pair into the full CAT.  For n = 2 the pair
    already is the 2-CAT and the trace is empty.
    """
    table = epr_tree_table(t)
    if t.n < 2:
        raise InputError("a CAT state needs at least two agents")
    order = list(table.edge)
    return make_trace(t, [CatExpand(edge=tuple(sorted(order[:k])), pair=table.edge[order[k]])
                          for k in range(2, t.n)])


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
    epr_tree_table(t)
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
    table, _ = require_tree_pair(t1, t2)
    # tree edges are sorted and distinct, so filters keep them in order
    discards = dict(zip(t1.edges, map(Discard, t1.edges)))
    missing = [e for e in t2.edges if e not in discards]
    start = copies(t1, len(missing) + 1)
    common = set(t2.edges)
    moves: list[LoccMove] = [d for e, d in discards.items() if e not in common]
    for a, b in missing:
        path_edges, junctions = table.path(a, b)
        current = path_edges[0]
        # swap at each junction: the accumulated pair (a, j) and the next hop
        for hop, nxt in zip(path_edges[1:], [*junctions[1:], b]):
            moves.append(Swap(left=current, right=hop))
            current = (a, nxt) if a < nxt else (nxt, a)
        moves += [d for e, d in discards.items() if e not in path_edges]
    trace = make_trace(start, moves)
    require(trace.end == t2, "the copies protocol ends at the target tree")
    return trace


# ---------------------------------------------------------------------------
# reachability
# ---------------------------------------------------------------------------

def legal_moves(state: Hypergraph) -> list[LoccMove]:
    """Every legal move of the state, in canonical order: by kind name,
    then field by field.  The order is generated, not sorted: the kinds
    come in name order, each from loops over the sorted distinct edges.

    Moves are enumerated over distinct edge values; multiplicity only
    matters for operand availability, which value-based removal handles.
    """
    distinct = sorted(set(state.edges))
    pairs = [e for e in distinct if len(e) == 2]
    moves: list[LoccMove] = [CatExpand(edge=e, pair=p) for e in distinct for p in pairs
                             if len(set(p) & set(e)) == 1]
    moves += map(Discard, distinct)
    moves += [MeasureOut(edge=e, agent=v) for e in distinct if len(e) >= 3 for v in e]
    moves += [Swap(left=e1, right=e2) for i, e1 in enumerate(pairs) for e2 in pairs[i + 1:]
              if len(set(e1) & set(e2)) == 1]
    return moves


def reachability_search(source: Hypergraph, target: Hypergraph,
                        budget: int = DEFAULT_SEARCH_BUDGET) -> ProtocolTrace | None:
    """Breadth-first search for a shortest LOCC trace source -> target.

    States are deduplicated by canonical form; successors are generated in
    canonical move order, so the returned trace is the lexicographically
    least among the shortest ones.  Returns None when the (finite) space
    is exhausted without success.  Raises BoundExceeded at the first new
    state past the state budget: no state can be added after it, so the
    target can no longer be found.

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
    shared_agents(source, target)
    if source == target:
        return make_trace(source, ())
    cut_below_target = cheap_cuts(target)
    if cut_below_target(source) is not None:
        return None
    # the parent map is the visited set; the source maps to None
    parent: dict[tuple, tuple[Hypergraph, LoccMove] | None] = {source.edges: None}
    queue = deque([source])
    while queue:
        state = queue.popleft()
        for move in legal_moves(state):
            nxt = apply_move(state, move)
            if nxt.edges in parent:
                continue
            if len(parent) >= budget:
                raise BoundExceeded(f"state budget {budget} hit before exhausting the space")
            parent[nxt.edges] = (state, move)
            if nxt == target:
                moves = []
                while (step := parent[nxt.edges]) is not None:
                    nxt, move = step
                    moves.append(move)
                return make_trace(source, moves[::-1])
            if cut_below_target(nxt) is None:
                queue.append(nxt)
    return None
