"""Traced mode: wraps loccgraph's public functions from outside the package.

Every public function of the layer modules, plus `Hypergraph.__post_init__`,
is rebound in every `loccgraph.*` module that holds it by name, so calls
through `from .merging import find_blocking_witness` are traced as well.
Each call is timed on a stack, which gives self time (a call's duration
minus the time of its traced children).  Generators are timed per item,
while they are consumed.

Spans (id, name, start, end, parent id, call id) are kept in memory and
written out by the caller.  The hottest functions are aggregated only, so
that the trace stays small; all functions are always counted.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

PACKAGE = "loccgraph"
LAYERS = ("cli", "hypergraph", "merging", "protocols", "witnesses", "enumeration",
          "distance")
POST_INIT = "hypergraph.Hypergraph.__post_init__"
# Called per state or per coloring: counted and timed, but never spanned.
HOT = frozenset({POST_INIT, "protocols.apply_move", "protocols.legal_moves",
                 "merging.bcm_cut", "merging.iter_bicolorings"})
# Hot functions that call no traced function get a cheaper wrapper without a
# stack frame; a traced call from inside one is reported as a violation.
LEAVES = HOT - {"protocols.apply_move"}
MAX_SPANS = 200_000
SCANS = ("merging.find_blocking_witness", "merging.min_copies_lower_bound")
TREE_MAKERS = ("enumeration.random_spanning_tree",
               "enumeration.random_r_uniform_hypertree")


def search_key(n: int, source_edges, target_edges) -> tuple:
    """Identifies a search by its arguments: agent count and both edge lists."""
    return n, source_edges, target_edges


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class SearchLog:
    """What one reachability search did, observed at its boundary."""

    def __init__(self, source, target, stats):
        self.key = search_key(len(source.agents), source.edges, target.edges)
        self.legal = stats["protocols.legal_moves"]
        self.apply = stats["protocols.apply_move"]
        self.start = (self.legal[0], self.apply[0])
        self.states = set()

    def counts(self) -> tuple[int, int]:
        """(states expanded, moves applied) since the search began."""
        return self.legal[0] - self.start[0], self.apply[0] - self.start[1]


class Tracer:
    def __init__(self):
        self.stats = {}          # name -> [calls, total s, self s, items]
        self.bindings = []       # (owner, attribute, original)
        self.stack = [[0.0, 0]]  # frames: [child time, span id]
        self.call_id = 0
        self.record_spans = False
        self.reset()

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0]
        self.spans = []
        self.dropped = 0
        self.entries = 0         # traced calls entered, for the leaf check
        self.leaf_violations = set()
        self.next_span = 1
        self.search = None
        self.searches = []       # (call id, key, seconds, truncated)
        self.colorings = 0
        self.expanded = self.moves = self.new_states = 0

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        wrappers = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        hg = mods["hypergraph"].Hypergraph
        post_init = hg.__dict__["__post_init__"]
        self.bindings.append((hg, "__post_init__", post_init))
        setattr(hg, "__post_init__", self._wrap(POST_INIT, post_init))
        for name, mod in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self.bindings.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.bindings):
            setattr(owner, attr, original)
        self.bindings.clear()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        spanned = name not in HOT
        short = name.rsplit(".", 1)[-1]
        before = getattr(self, "_before_" + short, None)
        after = getattr(self, "_after_" + short, None)
        tracer = self

        if name in LEAVES:
            def begin():
                tracer.entries += 1
                return tracer.entries, perf_counter()

            def end(token):
                entries, t0 = token
                dt = perf_counter() - t0
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt
                if tracer.entries != entries:
                    tracer.leaf_violations.add(name)
                return dt
        else:
            def begin():
                tracer.entries += 1
                parent = sid = stack[-1][1]
                if spanned and tracer.record_spans:
                    sid = tracer.next_span
                    tracer.next_span += 1
                frame = [0.0, sid]
                stack.append(frame)
                return frame, parent, perf_counter()

            def end(token):
                frame, parent, t0 = token
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if frame[1] != parent:
                    if len(tracer.spans) < MAX_SPANS:
                        tracer.spans.append((frame[1], name, t0, t1, parent, tracer.call_id))
                    else:
                        tracer.dropped += 1
                return dt

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    token = begin()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end(token)
                    st[3] += 1
                    yield item
        elif before is None and after is None:
            def wrapper(*args, **kwargs):
                token = begin()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end(token)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                token = begin()
                result = exc = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    dt = end(token)
                    if after is not None:
                        after(args, kwargs, result, exc, dt)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- observations at layer boundaries ---------------------------------

    def _before_reachability_search(self, args, kwargs) -> None:
        self.search = SearchLog(_arg(args, kwargs, 0, "source"),
                                _arg(args, kwargs, 1, "target"), self.stats)

    def _after_reachability_search(self, args, kwargs, result, exc, dt) -> None:
        log, self.search = self.search, None
        log.states.discard(log.key[1])
        expanded, moves = log.counts()
        self.expanded += expanded
        self.moves += moves
        self.new_states += len(log.states)
        truncated = type(exc).__name__ == "BudgetExceeded"
        self.searches.append((self.call_id, log.key, dt, truncated))

    def _after_apply_move(self, args, kwargs, result, exc, dt) -> None:
        if self.search is not None and result is not None:
            self.search.states.add(result.edges)

    def _after_find_blocking_witness(self, args, kwargs, result, exc, dt) -> None:
        """Colorings scanned, from the result: the witness's rank in
        binary-counting order plus one, or all 2^(n-1) without a witness."""
        if exc is not None:
            return
        agents = _arg(args, kwargs, 0, "source").agents
        if result is None:
            self.colorings += 1 << (len(agents) - 1)
        else:
            a_side = result.coloring.a_side
            self.colorings += 1 + sum(1 << i for i, a in enumerate(agents[1:])
                                      if a in a_side)

    def _after_min_copies_lower_bound(self, args, kwargs, result, exc, dt) -> None:
        if exc is None:
            self.colorings += 1 << (len(_arg(args, kwargs, 0, "source").agents) - 1)

    # -- per-pass metrics -------------------------------------------------

    def _sum(self, names, field: int) -> float:
        return sum(self.stats[n][field] for n in names if n in self.stats)

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, st in self.stats.items():
            out[name.split(".")[0]] += st[2]
        return out

    def metrics(self, blocked_keys: set) -> dict[str, float]:
        """Per-layer metrics of the pass traced since the last reset.

        `blocked_keys` holds the (call id, search key) of every direction
        that its own report proves impossible."""
        s = self.stats
        layer_self = self.layer_self()
        total_self = sum(layer_self.values()) or 1.0
        search_s = self._sum(["protocols.reachability_search"], 1)
        scan_s = self._sum(SCANS, 1)

        def calls_in(layer):
            return sum(st[0] for n, st in s.items() if n.startswith(layer + "."))

        m = {
            "hypergraph.constructions": s[POST_INIT][0],
            "hypergraph.construct_self_s": s[POST_INIT][2],
            "merging.scan_calls": self._sum(SCANS, 0),
            "merging.colorings": self.colorings,
            "merging.scan_self_s": scan_s,
            "merging.colorings_per_s": self.colorings / scan_s if scan_s else 0.0,
            "protocols.searches": len(self.searches),
            "protocols.searches_truncated": sum(t for *_, t in self.searches),
            "protocols.states_expanded": self.expanded,
            "protocols.moves_applied": self.moves,
            "protocols.new_state_ratio": self.new_states / self.moves if self.moves else 0.0,
            "protocols.search_self_s": self._sum(["protocols.reachability_search"], 2),
            "protocols.apply_move_self_s": self._sum(["protocols.apply_move"], 2),
            "protocols.legal_moves_self_s": self._sum(["protocols.legal_moves"], 2),
            "protocols.moves_per_s": self.moves / search_s if search_s else 0.0,
            "protocols.search_after_witness_s": sum(
                dt for cid, key, dt, _ in self.searches if (cid, key) in blocked_keys),
            "witnesses.calls": calls_in("witnesses"),
            "witnesses.self_s": layer_self["witnesses"],
            "enumeration.trees": (self._sum(["enumeration.all_spanning_trees"], 3)
                                  + self._sum(TREE_MAKERS, 0)),
            "enumeration.self_s": layer_self["enumeration"],
            "distance.calls": calls_in("distance"),
            "distance.self_s": layer_self["distance"],
            "cli.self_s": layer_self["cli"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_share"] = layer_self[layer] / total_self
        return m
