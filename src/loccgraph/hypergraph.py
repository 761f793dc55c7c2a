"""Multipartite entangled-state configurations modelled as hypergraphs.

Agents are integer labels.  A hyperedge of size 2 is an EPR pair shared by
its two members; a hyperedge of size k >= 3 is a k-CAT (GHZ-class) state
shared by its k members.  An EPR graph is simply the 2-uniform case.  The
edge multiset may contain repeats: k copies of the same shared state are k
equal hyperedges.

Everything here is an immutable value; all operations are pure functions.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass

from .errors import IllegalMove, InputError

Edge = tuple[int, ...]


@dataclass(frozen=True)
class Hypergraph:
    """Immutable hypergraph over a fixed, ordered agent set.

    Canonical form is enforced on construction: agents sorted ascending,
    every hyperedge sorted ascending, the edge multiset sorted
    lexicographically.  Two values compare equal iff they describe the same
    configuration, which makes the type directly usable as a search-space
    key.

    Agents that appear in no hyperedge are allowed (they arise mid
    protocol).
    """

    agents: tuple[int, ...]
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        agents = tuple(sorted(self.agents))
        if not agents:
            raise InputError("agent set must be nonempty")
        if len(set(agents)) != len(agents):
            raise InputError("agent labels must be unique")
        known = set(agents)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "edges",
                           tuple(sorted(self._canonical(e, known) for e in self.edges)))

    def _canonical(self, edge, known) -> Edge:
        """The edge sorted, once it is checked against the agent set."""
        e = tuple(sorted(edge))
        if len(e) < 2:
            raise InputError(f"hyperedge {e} has fewer than two members")
        if len(set(e)) != len(e):
            raise InputError(f"hyperedge {tuple(edge)} repeats a member")
        if not known.issuperset(e):
            raise InputError(f"hyperedge {e} uses agents outside {self.agents}")
        return e

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def size_total(self) -> int:
        """Sum of hyperedge sizes; strictly decreases under every LOCC move."""
        return sum(map(len, self.edges))

    def degree(self, agent: int) -> int:
        """Number of hyperedge instances containing the agent."""
        return sum(1 for e in self.edges if agent in e)

    def replace(self, remove=(), add=()) -> "Hypergraph":
        """New hypergraph with one instance of each `remove` edge swapped
        for the `add` edges.  Raises IllegalMove if an instance is absent.
        Only the `add` edges are validated; the result is built by
        `_trusted`."""
        pool = list(self.edges)
        for edge in remove:
            e = tuple(sorted(edge))
            try:
                i = bisect_left(pool, e)
            except TypeError:  # labels that do not compare with the state's
                i = len(pool)
            if i == len(pool) or pool[i] != e:
                raise IllegalMove(f"hyperedge {e} is not in the state")
            del pool[i]
        known = set(self.agents)
        for edge in add:
            insort(pool, self._canonical(edge, known))
        return _trusted(self.agents, tuple(pool))


def _trusted(agents: tuple[int, ...], edges: tuple[Edge, ...]) -> Hypergraph:
    """A Hypergraph from parts already in canonical form (sorted agents,
    sorted edges of known agents, sorted edge tuple), built without
    `__post_init__`.  Callers vouch for the form."""
    h = object.__new__(Hypergraph)
    object.__setattr__(h, "agents", agents)
    object.__setattr__(h, "edges", edges)
    return h


# ---------------------------------------------------------------------------
# convenience constructors
# ---------------------------------------------------------------------------

def cat_state(n: int) -> Hypergraph:
    """The n-CAT: one hyperedge over agents 1..n (the 2-CAT is an EPR pair)."""
    if n < 2:
        raise InputError("a CAT state needs at least two agents")
    return Hypergraph(tuple(range(1, n + 1)), (tuple(range(1, n + 1)),))


def epr_pair(n: int, a: int, b: int) -> Hypergraph:
    """A single EPR pair {a, b} in a network of agents 1..n."""
    return Hypergraph(tuple(range(1, n + 1)), ((a, b),))


def path_tree(n: int) -> Hypergraph:
    """The chain EPR graph 1-2-...-n."""
    return Hypergraph(tuple(range(1, n + 1)),
                      tuple((i, i + 1) for i in range(1, n)))


def star_tree(n: int, center: int = 1) -> Hypergraph:
    """The star EPR graph with every other agent attached to `center`."""
    return Hypergraph(tuple(range(1, n + 1)),
                      tuple((center, i) for i in range(1, n + 1) if i != center))


def copies(h: Hypergraph, k: int) -> Hypergraph:
    """k copies of every shared state of h (k >= 1).  Each canonical edge
    repeated k times in place keeps the edge tuple sorted."""
    if k < 1:
        raise InputError("need at least one copy")
    return _trusted(h.agents, tuple(e for e in h.edges for _ in range(k)))


# ---------------------------------------------------------------------------
# structural predicates
# ---------------------------------------------------------------------------

def reach(h: Hypergraph, start: int, skip: Edge | None = None,
          ) -> dict[int, tuple[int, Edge] | None]:
    """Breadth-first walk from `start` that never crosses the hyperedge
    value `skip`.

    Returns the reached agents in discovery order, each mapped to the
    (agent, hyperedge) it was first reached through; `start` maps to None.
    Discovery order puts every agent after the agent it was reached from.
    """
    index: dict[int, list[Edge]] = {a: [] for a in h.agents}
    for e in h.edges:
        if e != skip:
            for a in e:
                index[a].append(e)
    via: dict[int, tuple[int, Edge] | None] = {start: None}
    frontier = [start]
    for x in frontier:
        for e in index[x]:
            for y in e:
                if y not in via:
                    via[y] = (x, e)
                    frontier.append(y)
    return via


def components(h: Hypergraph) -> list[frozenset[int]]:
    """Connected components, ordered by their lowest agent."""
    comps: list[frozenset[int]] = []
    for a in h.agents:
        if not any(a in c for c in comps):
            comps.append(frozenset(reach(h, a)))
    return comps


def hyperpath(h: Hypergraph, a: int, b: int) -> tuple[list[Edge], list[int]]:
    """A shortest hyperpath a -> b (the unique one in a hypertree): its
    edges and the junction vertices between consecutive edges."""
    via = reach(h, a)
    if b not in via:
        raise InputError(f"no hyperpath between {a} and {b}")
    vertices, edges = [b], []  # walked back from b to a
    while via[vertices[-1]] is not None:
        prev, e = via[vertices[-1]]
        vertices.append(prev)
        edges.append(e)
    return edges[::-1], vertices[-2:0:-1]


def is_connected(h: Hypergraph) -> bool:
    """True iff every pair of agents is linked by a hyperpath.

    Agents in no hyperedge make a multi-agent instance disconnected; a
    single agent with no edges is trivially connected.
    """
    return len(reach(h, h.agents[0])) == h.n


def is_spanning_epr_tree(h: Hypergraph) -> bool:
    """True iff h is 2-uniform, multiplicity-free, connected and acyclic."""
    if any(len(e) != 2 for e in h.edges):
        return False
    if len(set(h.edges)) != len(h.edges):
        return False
    return len(h.edges) == h.n - 1 and is_connected(h)


def is_entangled_hypertree(h: Hypergraph) -> bool:
    """True iff h is connected with no pair of agents joined by two
    distinct hyperpaths.

    Implemented via the incidence-graph criterion: the bipartite graph with
    agents on one side and hyperedge instances on the other (membership as
    edges) must be a tree.  Duplicate hyperedges always create a cycle
    there, so hypertrees are automatically multiplicity-free.
    """
    if not is_connected(h):
        return False
    nodes = h.n + len(h.edges)
    links = h.size_total
    return links == nodes - 1


def uniformity(h: Hypergraph) -> int | None:
    """The common hyperedge size r, or None if sizes are mixed."""
    if not h.edges:
        raise InputError("uniformity of an edgeless hypergraph is undefined")
    sizes = {len(e) for e in h.edges}
    if len(sizes) == 1:
        return sizes.pop()
    return None


def pendant_vertices(h: Hypergraph) -> frozenset[int]:
    """Agents belonging to exactly one hyperedge instance (agents in no
    hyperedge are not pendant)."""
    counts = Counter(a for e in h.edges for a in e)
    return frozenset(a for a, c in counts.items() if c == 1)


# ---------------------------------------------------------------------------
# canonical text format
# ---------------------------------------------------------------------------
#
# One header line `agents: n`, one line `cat: i1 i2 ... ik` per hyperedge
# instance (duplicates encode multiplicity), agents numbered 1..n.  Parsing
# is order-insensitive; emission is canonical.

def parse_hypergraph(text: str) -> Hypergraph:
    n: int | None = None
    raw_edges: list[tuple[int, ...]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("agents:"):
            if n is not None:
                raise InputError("duplicate 'agents:' header", lineno)
            body = stripped[len("agents:"):].strip()
            try:
                n = int(body)
            except ValueError:
                raise InputError(f"bad agent count {body!r}", lineno) from None
            if n < 1:
                raise InputError("agent count must be >= 1", lineno)
        elif stripped.startswith("cat:"):
            body = stripped[len("cat:"):].split()
            try:
                members = tuple(int(tok) for tok in body)
            except ValueError:
                raise InputError("hyperedge members must be integers", lineno) from None
            if len(members) < 2:
                raise InputError("a hyperedge needs at least two members", lineno)
            if len(set(members)) != len(members):
                raise InputError("hyperedge repeats a member", lineno)
            raw_edges.append((lineno, members))
        else:
            raise InputError(f"unrecognized line {stripped!r}", lineno)
    if n is None:
        raise InputError("missing 'agents: n' header")
    agents = tuple(range(1, n + 1))
    for lineno, members in raw_edges:
        if any(m < 1 or m > n for m in members):
            raise InputError(f"member outside 1..{n}", lineno)
    return Hypergraph(agents, tuple(members for _, members in raw_edges))


def format_hypergraph(h: Hypergraph) -> str:
    """Canonical emission: members ascending, hyperedges lexicographic."""
    if h.agents != tuple(range(1, h.n + 1)):
        raise InputError("canonical text format requires agents numbered 1..n")
    lines = [f"agents: {h.n}"]
    lines.extend("cat: " + " ".join(str(m) for m in e) for e in h.edges)
    return "\n".join(lines) + "\n"
