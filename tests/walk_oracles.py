"""The hand-rolled walks the src traversals replaced, kept as the
reference the differential tests hold them to.

`oracle_reach` walks from one agent and may skip one hyperedge value, as
`hypergraph.reach` did when it took a `skip`; `oracle_hyperpath` is the
shortest hyperpath by breadth-first search, as `hypergraph.hyperpath` gave
it.  `hypergraph.TreeTable.side` and `TreeTable.path` answer both
questions on entangled hypertrees.
"""

from collections import deque


def incidence(h):
    """Agent -> the hyperedge instances holding it, in edge order."""
    index = {a: [] for a in h.agents}
    for e in h.edges:
        for a in e:
            index[a].append(e)
    return index


def oracle_reach(h, start, skip=None):
    """The agents reached from `start` without crossing the hyperedge value
    `skip`, in discovery order, each mapped to the (agent, hyperedge) it
    was first reached through; `start` maps to None.  A new index, without
    the `skip` instances, on every call."""
    index = {a: [] for a in h.agents}
    for e in h.edges:
        if e != skip:
            for a in e:
                index[a].append(e)
    via = {start: None}
    frontier = [start]
    for x in frontier:
        for e in index[x]:
            for y in e:
                if y not in via:
                    via[y] = (x, e)
                    frontier.append(y)
    return via


def oracle_hyperpath(h, a, b):
    """A shortest hyperpath a -> b: its edges and the junction vertices
    between consecutive edges; ValueError when b is out of reach."""
    index = incidence(h)
    via = {a: None}
    queue = deque([a])
    while queue:
        x = queue.popleft()
        if x == b:
            break
        for e in index[x]:
            for y in e:
                if y not in via:
                    via[y] = (x, e)
                    queue.append(y)
    if b not in via:
        raise ValueError(f"no hyperpath between {a} and {b}")
    edges = []
    junctions = []
    cur = b
    while via[cur] is not None:
        prev, e = via[cur]
        edges.append(e)
        cur = prev
        if via[cur] is not None:
            junctions.append(cur)
    edges.reverse()
    junctions.reverse()
    return edges, junctions
