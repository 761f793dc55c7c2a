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

from .errors import BadAgents, BudgetExceeded, IllegalMove, MismatchedAgents, NotSpanningTree
from .hypergraph import Edge, Hypergraph, cat_state, copies, is_spanning_epr_tree

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
    try:
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
    except ValueError as exc:  # replace() did not find an operand instance
        raise IllegalMove(str(exc)) from None
    raise IllegalMove(f"unknown move {move!r}")


@dataclass(frozen=True)
class ProtocolTrace:
    """Replayable evidence that `end` is LOCC-reachable from `start`."""

    start: Hypergraph
    moves: tuple[LoccMove, ...]
    end: Hypergraph


def make_trace(start: Hypergraph, moves) -> ProtocolTrace:
    """Build a trace by replaying the moves, checking every precondition
    and the strict decrease of the size potential."""
    state = start
    for move in moves:
        nxt = apply_move(state, move)
        assert nxt.size_total < state.size_total
        state = nxt
    return ProtocolTrace(start=start, moves=tuple(moves), end=state)


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
    edges are consumed in depth-first order, so exactly n-2 expansions turn
    the first pair into the full CAT.  For n = 2 the pair already is the
    2-CAT and the trace is empty.
    """
    if not is_spanning_epr_tree(t):
        raise NotSpanningTree("input is not a spanning EPR tree")
    if t.n == 2:
        return make_trace(t, ())
    neighbors: dict[int, list[int]] = {a: [] for a in t.agents}
    for a, b in t.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    root = t.agents[0]
    order: list[tuple[int, int]] = []
    seen = {root}
    stack = [root]
    while stack:
        x = stack.pop()
        for y in sorted(neighbors[x], reverse=True):
            if y not in seen:
                seen.add(y)
                order.append((x, y))
                stack.append(y)
    current = tuple(sorted(order[0]))
    moves = []
    for parent, child in order[1:]:
        moves.append(CatExpand(edge=current, pair=tuple(sorted((parent, child)))))
        current = tuple(sorted(current + (child,)))
    return make_trace(t, moves)


def cat_to_epr(n: int, a: int, b: int) -> ProtocolTrace:
    """Distill the EPR pair {a, b} from the n-CAT: every other agent
    measures out in turn (n-2 moves)."""
    if n < 2:
        raise BadAgents("need at least two agents")
    if a == b or not (1 <= a <= n) or not (1 <= b <= n):
        raise BadAgents(f"agents ({a}, {b}) invalid for n={n}")
    start = cat_state(n)
    current = start.edges[0]
    moves = []
    for v in range(1, n + 1):
        if v in (a, b):
            continue
        moves.append(MeasureOut(edge=current, agent=v))
        current = tuple(m for m in current if m != v)
    return make_trace(start, moves)


def cat_copies_to_tree(t: Hypergraph) -> ProtocolTrace:
    """Build a spanning tree from n-1 copies of the n-CAT, one copy per
    edge via the measure-out distillation."""
    if not is_spanning_epr_tree(t):
        raise NotSpanningTree("target is not a spanning EPR tree")
    n = t.n
    start = copies(cat_state(n), n - 1)
    moves = []
    for a, b in t.edges:
        current = tuple(range(1, n + 1))
        for v in range(1, n + 1):
            if v in (a, b):
                continue
            moves.append(MeasureOut(edge=current, agent=v))
            current = tuple(m for m in current if m != v)
    return make_trace(start, moves)


def _tree_vertex_path(t: Hypergraph, a: int, b: int) -> list[int]:
    neighbors: dict[int, list[int]] = {x: [] for x in t.agents}
    for x, y in t.edges:
        neighbors[x].append(y)
        neighbors[y].append(x)
    parent = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for y in sorted(neighbors[x]):
            if y not in parent:
                parent[y] = x
                queue.append(y)
    path = [b]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def trees_copies_to_tree(t1: Hypergraph, t2: Hypergraph) -> ProtocolTrace:
    """Convert QD+1 copies of spanning tree t1 into spanning tree t2.

    One copy keeps the common edges (the rest are discarded); every other
    copy manufactures one missing edge of t2 by swapping along the t1 path
    between its endpoints, then discards its leftovers.
    """
    for t in (t1, t2):
        if not is_spanning_epr_tree(t):
            raise NotSpanningTree("both inputs must be spanning EPR trees")
    if t1.agents != t2.agents:
        raise MismatchedAgents("trees must span the same agents")
    missing = sorted(set(t2.edges) - set(t1.edges))
    start = copies(t1, len(missing) + 1)
    moves: list[LoccMove] = []
    for e in sorted(set(t1.edges) - set(t2.edges)):
        moves.append(Discard(e))
    for a, b in missing:
        path = _tree_vertex_path(t1, a, b)
        path_edges = {tuple(sorted((path[i], path[i + 1]))) for i in range(len(path) - 1)}
        current = tuple(sorted((path[0], path[1])))
        for nxt in path[2:]:
            # swap at the junction shared by the accumulated pair and the next hop
            junction = (set(current) - {a}).pop()
            moves.append(Swap(left=current, right=tuple(sorted((junction, nxt)))))
            current = tuple(sorted((a, nxt)))
        for e in sorted(set(t1.edges) - path_edges):
            moves.append(Discard(e))
    trace = make_trace(start, moves)
    assert trace.end == t2
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
    """Predicate: does some coloring of the prune family cut a state *less*
    than it cuts `target`?  If so, no LOCC protocol turns that state into
    the target, because no move ever raises a bipartition cut.

    The family: every single-agent cut (a state degree below the target's
    degree) and every component cut of the state (a target hyperedge
    spanning two of its components).  The target's side is computed once;
    each test is then one pass over the agents and edges of the state.
    Every member of the family can only shrink along a move, so every
    descendant of a pruned state is pruned as well.
    """
    target_degree = Counter(chain.from_iterable(target.edges))
    target_edges = set(target.edges)

    def pruned(state: Hypergraph) -> bool:
        if target_degree - Counter(chain.from_iterable(state.edges)):
            return True
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
                return True
        return False

    return pruned


def reachability_search(source: Hypergraph, target: Hypergraph,
                        budget: int = DEFAULT_SEARCH_BUDGET) -> ProtocolTrace | None:
    """Breadth-first search for a shortest LOCC trace source -> target.

    States are deduplicated by canonical form; successors are generated in
    canonical move order, so the returned trace is the lexicographically
    least among the shortest ones.  Returns None when the (finite) space
    is exhausted without success; raises BudgetExceeded when the search
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
        raise MismatchedAgents("source and target must share one agent set")
    if source == target:
        return make_trace(source, ())
    cut_below_target = _cut_pruner(target)
    if cut_below_target(source):
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
            if not cut_below_target(nxt):
                queue.append(nxt)
    if truncated:
        raise BudgetExceeded(f"state budget {budget} hit before exhausting the space")
    return None
