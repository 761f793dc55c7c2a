"""Constructive blocking-witness generators.

Each function here builds the impossibility side of a known incomparability
result directly from the structure of its inputs, instead of scanning all
colorings.  Every emitted coloring is validated by recomputing both cuts
(BlockingWitness construction refuses anything that is not a witness), and
the test suite additionally cross-checks each constructive witness against
the exhaustive scan in :mod:`loccgraph.merging`.

Nondeterministic choices ("take any vertex") always resolve to the lowest
agent or lexicographically least hyperedge, so emitted proofs are
reproducible.  The tree split and the hypertree case analysis read each
state's cuts and hyperpaths from its `tree_table`, built once per call.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, require
from .hypergraph import (
    Edge,
    Hypergraph,
    TreeTable,
    cat_state,
    copies,
    epr_pair,
    epr_tree_table,
    pendant_vertices,
    path_tree,
    reach,
    require_tree_pair,
    shared_agents,
    tree_table,
    uniformity,
)
from .merging import (Bicoloring, BlockingWitness, cheap_cuts, find_blocking_witness,
                      make_witness)
from .protocols import Discard, ProtocolTrace, cat_to_epr, make_trace, tree_to_cat


# ---------------------------------------------------------------------------
# small structural helpers (inputs are connected hypergraphs or hypertrees,
# so edge values are unique and value identity is safe)
# ---------------------------------------------------------------------------

def _co_edge(h: Hypergraph, a: int, b: int) -> bool:
    return any(a in e and b in e for e in h.edges)


def _proper_two_coloring(table: TreeTable) -> frozenset[int]:
    """A-side of the proper 2-coloring of a tree: the smaller depth-parity
    class of its table (ties broken to the class not containing the lowest
    agent, the table's root)."""
    odd = frozenset(a for a, d in table.depth.items() if d & 1)
    return min(odd, frozenset(table.tree.agents) - odd, key=len)  # min keeps odd on a tie


# ---------------------------------------------------------------------------
# disconnected graphs vs CAT states
# ---------------------------------------------------------------------------

def witness_disconnected_vs_cat(g: Hypergraph) -> BlockingWitness:
    """No disconnected EPR graph can be turned into the n-CAT.

    Coloring one connected component A and the rest B cuts none of g's
    edges but always cuts the CAT: cuts (0, 1).
    """
    first = frozenset(reach(g, g.agents[0]))
    if len(first) == g.n:
        raise InputError("graph is connected; no component split exists")
    return make_witness(g, Hypergraph(g.agents, (g.agents,)), Bicoloring(g.agents, first))


def witness_cat_vs_disconnected(g: Hypergraph) -> tuple[BlockingWitness, BlockingWitness]:
    """CAT state and a disconnected EPR graph with >= 2 edges are
    incomparable; returns (cat -/-> g, g -/-> cat).

    The first direction colors one endpoint of each of two chosen edges A:
    two disjoint edges {i1,i2}, {j1,j2} give A = {i2, j2}; two edges
    sharing i2 give A = {i2}.  Either way g's cut is at least 2 while any
    CAT cut is 1.
    """
    if len(g.edges) < 2:
        raise InputError("need at least two EPR pairs")
    if any(len(e) != 2 for e in g.edges):
        raise InputError("every hyperedge must be an EPR pair")
    first = frozenset(reach(g, g.agents[0]))
    if len(first) == g.n:
        raise InputError("graph is connected; no component split exists")
    distinct = sorted(set(g.edges))
    if len(distinct) == 1:
        a_side = frozenset({distinct[0][1]})
    else:
        e1, e2 = distinct[0], distinct[1]
        shared = set(e1) & set(e2)
        if shared:
            a_side = frozenset(shared)
        else:
            a_side = frozenset({e1[1], e2[1]})
    cat = Hypergraph(g.agents, (g.agents,))
    forward = make_witness(cat, g, Bicoloring(g.agents, a_side))
    return forward, make_witness(g, cat, Bicoloring(g.agents, first))


# ---------------------------------------------------------------------------
# order chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrictOrderLink:
    """lower < upper: a trace turning upper into lower, and a witness that
    lower can never be turned into upper."""

    lower: Hypergraph
    upper: Hypergraph
    downgrade: ProtocolTrace
    obstruction: BlockingWitness


@dataclass(frozen=True)
class OrderChain:
    pair_vs_cat: StrictOrderLink
    cat_vs_tree: StrictOrderLink
    pair_vs_tree: StrictOrderLink


def check_order_chain(n: int) -> OrderChain:
    """Verify 1 EPR pair < n-CAT < spanning tree for the canonical instances
    (pair {1,2}, chain tree), with evidence at every link."""
    if n < 3:
        raise InputError("the chain is strict only from three agents on")
    pair = epr_pair(n, 1, 2)
    cat = cat_state(n)
    tree = path_tree(n)

    def link(lower, upper, downgrade):
        witness = find_blocking_witness(lower, upper)
        require(witness is not None, "expected obstruction is missing")
        require(downgrade.start == upper and downgrade.end == lower,
                "the downgrade trace runs from upper to lower")
        return StrictOrderLink(lower, upper, downgrade, witness)

    cat_to_pair = cat_to_epr(n, 1, 2)
    tree_to_cat_trace = tree_to_cat(tree)
    tree_to_pair = make_trace(tree, [Discard(e) for e in tree.edges if e != (1, 2)])
    return OrderChain(
        pair_vs_cat=link(pair, cat, cat_to_pair),
        cat_vs_tree=link(cat, tree, tree_to_cat_trace),
        pair_vs_tree=link(pair, tree, tree_to_pair),
    )


def witness_cat_copies_vs_tree(t: Hypergraph) -> BlockingWitness:
    """n-2 copies of the n-CAT over the tree's n agents cannot produce the
    spanning tree.

    The proper 2-coloring of the tree cuts all n-1 tree edges but each CAT
    copy only once: cuts (n-2, n-1).
    """
    table = epr_tree_table(t)
    n = t.n
    if n < 3:
        raise InputError("need at least three agents")
    source = copies(Hypergraph(t.agents, (t.agents,)), n - 2)
    coloring = Bicoloring(t.agents, _proper_two_coloring(table))
    witness = make_witness(source, t, coloring)
    require((witness.source_cut, witness.target_cut) == (n - 2, n - 1),
            "the proper 2-coloring cuts (n-2, n-1)")
    return witness


# ---------------------------------------------------------------------------
# distinct spanning trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeSplit:
    """Proof object for t1 -/-> t2: a pivot edge of t2 missing from t1, the
    t1 path between its endpoints, and the component coloring derived from
    cutting t1 at the first path edge."""

    pivot_edge: tuple[int, int]       # oriented (i, j)
    source_path: tuple[int, ...]      # i, k1, ..., km, j in t1
    colored_a: frozenset[int]         # component of i in t1 minus {i, k1}


def split_trees(s1: TreeTable, s2: TreeTable) -> tuple[TreeSplit, BlockingWitness]:
    """The t1 -/-> t2 tree split, from the tables of t1 and t2, two spanning
    EPR trees over one agent set (the callers check that).

    Cutting t1 at the first edge of the i..j path leaves exactly one
    bichromatic t1 edge, while t2 keeps the pivot plus at least one more
    edge across the split: cuts (1, >= 2).
    """
    t1, t2 = s1.tree, s2.tree
    # the pivot: the least t2 edge missing from t1
    bit, parent = s1.bit, s1.parent
    for pivot in t2.edges:
        i, j = pivot
        if parent[i] != j and parent[j] != i:
            break
    else:
        raise InputError("the trees coincide")

    side_i, side_j = s2.side(i, pivot) & ~bit[i], s2.side(j, pivot) & ~bit[j]
    require(not side_i & side_j, "the pivot's two sides are disjoint")
    require(bool(side_i | side_j), "the pivot's sides are not both empty")

    edges, junctions = s1.path(i, j)
    path, first = (i, *junctions, j), edges[0]
    require(bool((side_i | side_j) & bit[path[1]]), "the first path vertex lies off the pivot")
    if not side_i & bit[path[1]]:
        # anchor at the other endpoint so the second t2 crossing is forced
        i, j, path, first = j, i, path[::-1], edges[-1]
    colored = s1.side(i, first)

    colored_a = frozenset(a for a in t1.agents if colored & bit[a])
    witness = make_witness(t1, t2, Bicoloring(t1.agents, colored_a))
    require(witness.source_cut == 1, "the tree split cuts t1 once")
    return TreeSplit(pivot_edge=(i, j), source_path=path, colored_a=colored_a), witness


def witness_distinct_spanning_trees(t1: Hypergraph, t2: Hypergraph,
                                    ) -> tuple[TreeSplit, BlockingWitness]:
    """Any two distinct spanning trees are LOCC-incomparable; this builds
    the t1 -/-> t2 direction (swap arguments for the reverse) with
    `split_trees`."""
    return split_trees(*require_tree_pair(t1, t2))


# ---------------------------------------------------------------------------
# pendant condition
# ---------------------------------------------------------------------------

def witness_pendant_condition(h1: Hypergraph, h2: Hypergraph,
                              ) -> tuple[BlockingWitness, BlockingWitness]:
    """Incomparability when each side owns a pendant vertex the other
    lacks; returns (h1 -/-> h2, h2 -/-> h1).

    Isolating such a vertex u reduces its pendant side to a single EPR pair
    while the other side keeps one pair per hyperedge at u: cuts
    (1, degree >= 2).  Hypertree structure is not required.
    """
    shared_agents(h1, h2)

    def one_direction(src, dst):
        candidates = sorted(u for u in pendant_vertices(src) - pendant_vertices(dst)
                            if dst.degree(u) >= 2)
        if not candidates:
            raise InputError(
                "no vertex is pendant on one side and multiply covered on the other")
        u = candidates[0]
        coloring = Bicoloring(src.agents, frozenset({u}))
        witness = make_witness(src, dst, coloring)
        require(witness.source_cut == 1, "a pendant vertex is cut once")
        return witness

    return one_direction(h1, h2), one_direction(h2, h1)


# ---------------------------------------------------------------------------
# r-uniform hypertrees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SeparatingPair:
    """Vertices sharing a hyperedge in h2 but never sharing one in h1."""

    u: int
    v: int


def _hypertree_tables(h1: Hypergraph, h2: Hypergraph) -> tuple[int, TreeTable, TreeTable]:
    """The common r and the tables of two distinct r-uniform entangled
    hypertrees over one agent set, one walk each; raises InputError for any
    other pair."""
    shared_agents(h1, h2)
    s1, s2 = tree_table(h1), tree_table(h2)
    if s1 is None or s2 is None:
        raise InputError("input is not an entangled hypertree")
    r1, r2 = uniformity(h1), uniformity(h2)
    if r1 is None or r2 is None or r1 != r2:
        raise InputError("inputs are not r-uniform for one common r")
    if set(h1.edges) == set(h2.edges):
        raise InputError("the hypertrees coincide")
    return r1, s1, s2


def find_separating_pair(h1: Hypergraph, h2: Hypergraph) -> SeparatingPair:
    """A pair co-edged in h2 but separated in h1, for distinct r-uniform
    hypertrees with r >= 3."""
    _hypertree_tables(h1, h2)
    return _separating_pair(h1, h2)


def _separating_pair(h1: Hypergraph, h2: Hypergraph) -> SeparatingPair:
    """`find_separating_pair` for a pair already checked; raises InputError
    for r = 2.

    Construction: take the least h2 hyperedge E2 outside the common edge
    set, its least member w, and the least h1 hyperedge E1 containing w;
    then split on the overlap size of E1 and E2.  Every choice point breaks
    ties by canonical order, and the result is validated by a direct
    co-occurrence scan.
    """
    if len(h1.edges[0]) < 3:
        raise InputError("r = 2 is the spanning-tree case; use the tree split")
    common = set(h1.edges) & set(h2.edges)
    e2 = min(set(h2.edges) - common)
    w = e2[0]
    e1 = min(e for e in h1.edges if w in e)
    overlap = sorted(set(e1) & set(e2))
    outside = sorted(set(e2) - set(e1))
    require(bool(overlap) and bool(outside), "the least new h2 edge meets and leaves e1")

    u1 = overlap[0]
    v = next((v for v in outside if not _co_edge(h1, u1, v)), None)
    if v is not None:
        pair = (u1, v)
    elif len(overlap) > 1:
        # every outside vertex meets u1 somewhere in h1, so none of
        # them can also meet u2 without closing a cycle
        pair = (overlap[1], outside[0])
    else:
        # all outside vertices hang off u1; they cannot all share one
        # h1 hyperedge (that edge would equal e2), so two of them sit in
        # different u1 edges and are separated: a shared h1 edge other
        # than their u1 edge would close a cycle through u1
        va = outside[0]
        vb = next((v for v in outside if not _co_edge(h1, va, v)), None)
        require(vb is not None, "the outside vertices sit in two u1 edges")
        pair = (va, vb)

    u, v = sorted(pair)
    require(_co_edge(h2, u, v) and not _co_edge(h1, u, v),
            "the pair shares an h2 edge and no h1 edge")
    return SeparatingPair(u, v)


@dataclass(frozen=True)
class HypertreeProof:
    """One-direction proof that h1 -/-> h2 for r-uniform hypertrees."""

    pair: SeparatingPair
    shared_edge: Edge                 # the h2 hyperedge holding the pair
    case_label: str
    path_edges: tuple[Edge, ...]      # the h1 hyperpath between the pair
    witness: BlockingWitness


def _hypertree_direction(s1: TreeTable, s2: TreeTable) -> HypertreeProof:
    """Case analysis around the separating pair (u, v), from the tables of
    h1 and h2, whose bitmasks are its agent sets.

    All colorings cut h1 at exactly one hyperedge (one component of the
    cut edge against the rest), chosen so that the pair's h2 hyperedge is
    bichromatic and some second h2 edge must cross as well.
    """
    h1, h2 = s1.tree, s2.tree
    pair = _separating_pair(h1, h2)
    u, v = pair.u, pair.v
    shared = next(e for e in h2.edges if u in e and v in e)
    path_edges, junctions = s1.path(u, v)
    require(len(path_edges) >= 2, "the separated pair is two h1 edges apart")
    r = len(shared)
    bit, everyone = s1.bit, s1.below[h1.agents[0]]

    # how h2 falls apart around the shared edge
    comp2 = {x: s2.side(x, shared) for x in shared}
    side_u2, side_v2 = comp2[u] & ~bit[u], comp2[v] & ~bit[v]

    # how h1 falls apart around the path ends
    a_u, a_v = s1.side(u, path_edges[0]), s1.side(v, path_edges[-1])
    middle = everyone & ~(a_u | a_v)

    path_set = set(path_edges)
    hangers = middle & (side_u2 | side_v2)
    if hangers:
        # CASE 1: some middle vertex w hangs off u or v in h2.  Cut h1 at
        # the last u-v path edge on the way to w; the anchor stays opposite
        # w, so the h2 path from w back to the anchor must cross once more
        # than the shared edge alone.
        w = h1.agents[(hangers & -hangers).bit_length() - 1]  # the least
        anchor = u if side_u2 & bit[w] else v
        to_w, to_w_junctions = s1.path(anchor, w)
        x_edge = [e for e in to_w if e in path_set][-1]
        a_side = s1.side(anchor, x_edge)
        if w in x_edge:
            label = "1.1"
        else:
            # the vertex through which the path to w leaves the cut edge
            exit_vertex = [*to_w_junctions, w][to_w.index(x_edge)]
            label = "1.2" if exit_vertex in junctions else "1.3"
    else:
        # CASE 2: pigeonhole a vertex t of the first two path edges into the
        # part of h2 hanging off some third member w of the shared edge.
        w1 = junctions[0]
        w2 = junctions[1] if len(junctions) >= 2 else v
        c1 = set(path_edges[0]) - {u, w1}
        c2 = set(path_edges[1]) - {w1, w2}
        require(len(c1) == len(c2) == r - 2 >= 1 and not c1 & c2,
                "the first two path edges hold r-2 private vertices each")
        candidates = sorted(x for x in c1 | c2 if x not in shared)
        require(bool(candidates),
                "pigeonhole failed: every candidate sits inside the shared edge")
        t = candidates[0]
        w = next(x for x in shared if x not in (u, v) and comp2[x] & bit[t])
        host = path_edges[0] if t in c1 else path_edges[1]
        c_label = "2.1" if t in c1 else "2.2"
        t_comp = s1.side(t, host)
        if w in host:
            # w shares t's host edge: isolate w's own branch
            a_side = everyone ^ s1.side(w, host)
        else:
            # cut h1 where the path from t finally reaches w; t keeps at
            # least one of u, v (and the shared edge keeps w) on the far side
            to_w, _ = s1.path(t, w)
            a_side = s1.side(t, to_w[-1])
        if a_u & bit[w]:
            label = c_label + ".1"
        elif a_v & bit[w]:
            label = c_label + ".2"
        elif t_comp & bit[w] and w != t:
            label = c_label + ".3.1"
        else:
            label = c_label + ".3.2"

    coloring = Bicoloring(h1.agents, frozenset(a for a in h1.agents if a_side & bit[a]))
    witness = make_witness(h1, h2, coloring)
    require(witness.source_cut == 1, "the hypertree coloring cuts h1 once")
    return HypertreeProof(pair=pair, shared_edge=shared, case_label=label,
                          path_edges=tuple(path_edges), witness=witness)


def r_uniform_incomparability(h1: Hypergraph, h2: Hypergraph,
                              ) -> tuple[HypertreeProof, HypertreeProof]:
    """Both direction proofs for distinct r-uniform hypertrees, r >= 3,
    from one table per state."""
    _, s1, s2 = _hypertree_tables(h1, h2)
    return _hypertree_direction(s1, s2), _hypertree_direction(s2, s1)


def _hypertree_witness(s1: TreeTable, s2: TreeTable, r: int) -> BlockingWitness:
    """h1 -/-> h2 for distinct r-uniform hypertrees, from their tables: the
    tree split for r = 2 (spanning trees), the case analysis for r >= 3."""
    if r == 2:
        return split_trees(s1, s2)[1]
    return _hypertree_direction(s1, s2).witness


def witness_r_uniform_hypertrees(h1: Hypergraph, h2: Hypergraph,
                                 ) -> tuple[BlockingWitness, BlockingWitness]:
    """Any two distinct r-uniform entangled hypertrees are incomparable;
    returns (h1 -/-> h2, h2 -/-> h1)."""
    r, s1, s2 = _hypertree_tables(h1, h2)
    return _hypertree_witness(s1, s2, r), _hypertree_witness(s2, s1, r)


def structural_witness(source: Hypergraph, target: Hypergraph) -> BlockingWitness | None:
    """A witness built from the states' structure, for pairs too large for
    the exhaustive scan: the side of `cheap_cuts` (a single agent or a
    component cut), else the witness of two distinct r-uniform
    hypertrees; None when neither applies."""
    shared_agents(source, target)
    side = cheap_cuts(target)(source)
    if side is not None:
        return make_witness(source, target, Bicoloring(source.agents, side))
    try:
        r, s1, s2 = _hypertree_tables(source, target)
    except InputError:
        return None
    return _hypertree_witness(s1, s2, r)
