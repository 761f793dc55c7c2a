"""Multipartite entangled-state configurations modelled as hypergraphs.

Agents are integer labels.  A hyperedge of size 2 is an EPR pair shared by
its two members; a hyperedge of size k >= 3 is a k-CAT (GHZ-class) state
shared by its k members.  An EPR graph is simply the 2-uniform case.  The
edge multiset may contain repeats: k copies of the same shared state are k
equal hyperedges.

Everything here is an immutable value: a state is its agents and its edges,
and nothing is written to it after construction.  Every operation is a pure
function.  `tree_table` is the one hypertree test: its table answers a
hypertree's cuts and hyperpaths from one walk.  Each precondition has one
check and one message: `shared_agents` and `epr_tree_table`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice

from .errors import InputError

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
        known = set(agents)
        if len(known) != len(agents):
            raise InputError("agent labels must be unique")
        edges = []
        for edge in self.edges:
            e = tuple(sorted(edge))
            if len(e) < 2:
                raise InputError(f"hyperedge {e} has fewer than two members")
            if len(set(e)) != len(e):
                raise InputError(f"hyperedge {tuple(edge)} repeats a member")
            if not known.issuperset(e):
                raise InputError(f"hyperedge {e} uses agents outside {agents}")
            edges.append(e)
        edges.sort()
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "edges", tuple(edges))

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

    def edited(self, pool: list[Edge] | tuple[Edge, ...]) -> "Hypergraph":
        """The state whose edges are `pool`, a copy of this state's changed
        only by `protocols._edit`, or the edge tuple of such a state, which
        `reachability_search` keeps: `_edit` made it, so it is canonical."""
        return _trusted(self.agents, tuple(pool))


def _trusted(agents: tuple[int, ...], edges: tuple[Edge, ...]) -> Hypergraph:
    """A Hypergraph from parts already in canonical form (sorted agents,
    sorted edges of known agents, sorted edge tuple), put into its instance
    dict in one update, past `__post_init__` and the frozen `__setattr__`.
    Callers vouch for them: `edited`, `copies` and `parse_hypergraph`."""
    h = object.__new__(Hypergraph)
    h.__dict__.update(agents=agents, edges=edges)
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

def reach(h: Hypergraph, start: int) -> dict[int, tuple[int, Edge] | None]:
    """Breadth-first walk from `start`.

    Returns the reached agents in discovery order, each mapped to the
    (agent, hyperedge) it was first reached through; `start` maps to None.
    Discovery order puts every agent after the agent it was reached from.
    """
    index = {a: [] for a in h.agents}
    for e in h.edges:
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


def is_connected(h: Hypergraph) -> bool:
    """True iff every pair of agents is linked by a hyperpath.

    Agents in no hyperedge make a multi-agent instance disconnected; a
    single agent with no edges is trivially connected.
    """
    return len(reach(h, h.agents[0])) == h.n


def shared_agents(first: Hypergraph, *rest: Hypergraph) -> tuple[int, ...]:
    """The agents of every state given, the one check that states share one
    agent set: InputError unless they do."""
    agents = first.agents
    for h in rest:
        if h.agents != agents:
            raise InputError("inputs do not share one agent set")
    return agents


def is_spanning_epr_tree(h: Hypergraph) -> bool:
    """True iff h is a 2-uniform entangled hypertree: connected, acyclic
    and multiplicity-free, with n - 1 EPR pairs."""
    try:
        epr_tree_table(h)
    except InputError:
        return False
    return True


def require_tree_pair(t1: Hypergraph, t2: Hypergraph) -> tuple[TreeTable, TreeTable]:
    """The `epr_tree_table`s of t1 and t2, the one check of a spanning-tree
    pair: InputError unless both are spanning EPR trees over one agent set."""
    s1, s2 = epr_tree_table(t1), epr_tree_table(t2)
    shared_agents(t1, t2)
    return s1, s2


def is_entangled_hypertree(h: Hypergraph) -> bool:
    """True iff h is connected with no pair of agents joined by two
    distinct hyperpaths: iff it has a `tree_table`."""
    return tree_table(h) is not None


@dataclass(frozen=True)
class TreeTable:
    """An entangled hypertree rooted at its lowest agent, built by
    `tree_table` and handed to whatever reads it: each agent's parent, the
    hyperedge it hangs from, its depth and its subtree, as a bitmask over
    agent positions (agent `tree.agents[p]` is bit p).  `parent`, `edge` and
    `depth` list the agents in the order the walk discovered them."""

    tree: Hypergraph
    bit: dict[int, int]
    parent: dict[int, int]            # the root is its own parent
    edge: dict[int, Edge]             # () at the root
    depth: dict[int, int]
    below: dict[int, int]

    def side(self, x: int, e: Edge) -> int:
        """The agents x still reaches once the hyperedge e is cut: the subtree
        hanging from e that holds x, else all but the subtrees hanging from e."""
        below, rest = self.below, self.below[self.tree.agents[0]]
        for m in e:
            if self.edge[m] == e:
                if below[m] & self.bit[x]:
                    return below[m]
                rest ^= below[m]
        return rest

    def path(self, x: int, y: int) -> tuple[list[Edge], list[int]]:
        """The hyperpath x -> y: its edges, and the junctions between
        consecutive edges.  It is climbed from both ends until they meet, or
        until they are two siblings hanging from one edge, one step apart."""
        parent, depth, edge = self.parent, self.depth, self.edge
        up, down = [x], [y]
        while edge[x] != edge[y]:
            if depth[x] >= depth[y]:
                up.append(x := parent[x])
            else:
                down.append(y := parent[y])
        if x != y:  # siblings: the step between them is their edge
            down.append(x)
        down = down[-2::-1]
        return [edge[a] for a in up[:-1] + down], (up + down)[1:-1]


def tree_table(h: Hypergraph) -> TreeTable | None:
    """The rooted table of h, from one walk; None unless h is an entangled
    hypertree: unless its incidence graph (agents and hyperedge instances,
    linked by membership; a repeated hyperedge closes a cycle there) is a
    tree.  Link and node counts are compared first, so a miss costs no walk."""
    root = h.agents[0]
    if h.size_total != h.n + len(h.edges) - 1 or len(via := reach(h, root)) != h.n:
        return None
    bit = {a: 1 << p for p, a in enumerate(h.agents)}
    parent, edge, depth, below = {root: root}, {root: ()}, {root: 0}, dict(bit)
    # discovery order puts every agent after its parent
    for y, (x, e) in islice(via.items(), 1, None):
        parent[y], edge[y], depth[y] = x, e, depth[x] + 1
    for y in islice(reversed(via), h.n - 1):
        below[parent[y]] |= below[y]
    return TreeTable(h, bit, parent, edge, depth, below)


def epr_tree_table(h: Hypergraph) -> TreeTable:
    """The `tree_table` of h, the one check that h is a spanning EPR tree:
    InputError unless it is.  Counting edges is enough to ask for pairs:
    every edge has two members or more, and a hypertree with E edges has
    total size n + E - 1, so with E = n - 1 that size is 2E: all are pairs."""
    if len(h.edges) != h.n - 1 or (table := tree_table(h)) is None:
        raise InputError("input is not a spanning EPR tree")
    return table


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
            try:
                members = tuple(map(int, stripped[len("cat:"):].split()))
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
    for lineno, members in raw_edges:
        if min(members) < 1 or max(members) > n:
            raise InputError(f"member outside 1..{n}", lineno)
    # the checks above are every check `Hypergraph` makes of these parts
    return _trusted(tuple(range(1, n + 1)),
                    tuple(sorted([tuple(sorted(members)) for _, members in raw_edges])))


def format_hypergraph(h: Hypergraph) -> str:
    """Canonical emission: members ascending, hyperedges lexicographic."""
    if h.agents != tuple(range(1, h.n + 1)):
        raise InputError("canonical text format requires agents numbered 1..n")
    lines = [f"agents: {h.n}"]
    lines.extend("cat: " + " ".join(str(m) for m in e) for e in h.edges)
    return "\n".join(lines) + "\n"
