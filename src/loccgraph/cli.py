"""Command-line surface.

Subcommands: check, verify-theorems, distance, protocol, replay, enumerate,
export-dot.  Exit codes: 0 definite result, 1 a failed theorem sweep, 2 an
input error (malformed input, an unmet precondition or an exceeded bound),
3 Unknown, 4 internal inconsistency (a violated invariant, such as a
witness and a trace for the same direction, which must never happen).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
from dataclasses import dataclass, fields

from . import __version__
from .errors import BoundExceeded, InputError, LoccError, require
from .hypergraph import (
    Hypergraph,
    format_hypergraph,
    is_spanning_epr_tree,
    parse_hypergraph,
)
from .merging import (
    DEFAULT_COLOR_BOUND,
    Bicoloring,
    BlockingWitness,
    find_blocking_witness,
    make_witness,
    min_copies_lower_bound,
)
from .protocols import (
    DEFAULT_SEARCH_BUDGET,
    CatExpand,
    Discard,
    LoccMove,
    MeasureOut,
    ProtocolTrace,
    Swap,
    _cut_pruner,
    cat_copies_to_tree,
    make_trace,
    reachability_search,
    replay_trace,
)
from .enumeration import TREE_ENUM_MAX_N, all_spanning_trees, random_r_uniform_hypertree
from .distance import distance_report
from .witnesses import (
    check_order_chain,
    find_separating_pair,
    r_uniform_incomparability,
    witness_distinct_spanning_trees,
)
from .hypergraph import cat_state

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INCONSISTENT = 4


# ---------------------------------------------------------------------------
# JSON encoding / decoding
# ---------------------------------------------------------------------------

def state_to_json(h: Hypergraph) -> dict:
    return {"agents": list(h.agents), "edges": [list(e) for e in h.edges]}


def state_from_json(data: dict) -> Hypergraph:
    return Hypergraph(tuple(data["agents"]), tuple(tuple(e) for e in data["edges"]))


def witness_to_json(w: BlockingWitness) -> dict:
    return {
        "coloring_bits": w.coloring.bits(),
        "a_side": sorted(w.coloring.a_side),
        "source_cut": w.source_cut,
        "target_cut": w.target_cut,
        "direction": list(w.direction),
    }


def witness_from_json(data: dict, agents) -> BlockingWitness:
    coloring = Bicoloring.from_bits(agents, data["coloring_bits"])
    return BlockingWitness(coloring, data["source_cut"], data["target_cut"],
                           tuple(data["direction"]))


MOVE_KINDS = {cls.kind: cls for cls in (Discard, MeasureOut, Swap, CatExpand)}


def move_to_json(m: LoccMove) -> dict:
    out: dict = {"kind": m.kind}
    for f in fields(m):
        value = getattr(m, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def move_from_json(data: dict) -> LoccMove:
    kind = data["kind"]
    cls = MOVE_KINDS.get(kind)
    if cls is None:
        raise InputError(f"unknown move kind {kind!r}")
    values = {f.name: data[f.name] for f in fields(cls)}
    # every field is an edge except MeasureOut's agent
    for name, value in values.items():
        if not all(type(m) is int for m in ([value] if name == "agent" else value)):
            raise InputError(f"{kind} move field {name!r} holds a non-integer agent: "
                             f"{value!r}")
    return cls(**{name: value if name == "agent" else tuple(value)
                  for name, value in values.items()})


def trace_to_json(t: ProtocolTrace) -> dict:
    return {
        "start": state_to_json(t.start),
        "moves": [move_to_json(m) for m in t.moves],
        "end": state_to_json(t.end),
    }


def trace_from_json(data: dict) -> ProtocolTrace:
    """Decode and replay a trace; malformed JSON raises InputError."""
    try:
        start = state_from_json(data["start"])
        moves = [move_from_json(m) for m in data["moves"]]
        end = state_from_json(data["end"])
    except KeyError as exc:
        raise InputError(f"trace JSON lacks the field {exc}") from None
    except TypeError as exc:
        raise InputError(f"trace JSON has the wrong shape: {exc}") from None
    trace = make_trace(start, moves)
    if trace.end != end:
        raise InputError("trace end state does not replay")
    return trace


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None


def _read_state(path: str) -> Hypergraph:
    return parse_hypergraph(_read_text(path))


def _file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# ---------------------------------------------------------------------------
# comparability verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DirectionVerdict:
    kind: str  # "possible" | "impossible" | "unknown"
    trace: ProtocolTrace | None = None
    witness: BlockingWitness | None = None
    note: str = ""

    def __post_init__(self) -> None:
        require(self.trace is None or self.witness is None,
                "a direction cannot be possible and impossible at once")


@dataclass(frozen=True)
class ComparabilityVerdict:
    forward: DirectionVerdict
    backward: DirectionVerdict
    classification: str

    @classmethod
    def from_directions(cls, forward: DirectionVerdict,
                        backward: DirectionVerdict) -> "ComparabilityVerdict":
        table = {
            ("possible", "possible"): "equivalent",
            ("possible", "impossible"): "strictly_above",
            ("impossible", "possible"): "strictly_below",
            ("impossible", "impossible"): "incomparable",
        }
        cls_name = table.get((forward.kind, backward.kind), "unknown")
        return cls(forward, backward, cls_name)


def _judge_direction(source: Hypergraph, target: Hypergraph, *,
                     color_bound: int, search_budget: int,
                     direction: tuple[str, str]) -> DirectionVerdict:
    """Witness scan first (past the color bound, the cuts that prune the
    search, then the tree split of two distinct spanning trees); only a
    direction without a witness is searched."""
    witness = None
    note = ""
    try:
        witness = find_blocking_witness(source, target,
                                        color_bound=color_bound,
                                        direction=direction)
    except BoundExceeded as exc:
        note = f"witness scan skipped: {exc}"
        side = _cut_pruner(target)(source)
        if side is not None:
            witness = make_witness(source, target, Bicoloring(source.agents, side),
                                   direction=direction)
        elif source != target and is_spanning_epr_tree(source) and is_spanning_epr_tree(target):
            split = witness_distinct_spanning_trees(source, target)[1]
            witness = make_witness(source, target, split.coloring, direction=direction)
    trace = None
    if witness is None:
        try:
            trace = reachability_search(source, target, budget=search_budget)
        except BoundExceeded as exc:
            note = (note + "; " if note else "") + f"search truncated: {exc}"
    if witness is not None:
        return DirectionVerdict("impossible", witness=witness, note=note)
    if trace is not None:
        return DirectionVerdict("possible", trace=trace, note=note)
    return DirectionVerdict("unknown", note=note)


def _direction_to_json(d: DirectionVerdict) -> dict:
    out: dict = {"verdict": d.kind}
    if d.witness is not None:
        out["witness"] = witness_to_json(d.witness)
    if d.trace is not None:
        out["trace"] = trace_to_json(d.trace)
    if d.note:
        out["note"] = d.note
    return out


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    source = _read_state(args.source)
    target = _read_state(args.target)
    if source.agents != target.agents:
        raise InputError("inputs do not share one agent set")
    forward = _judge_direction(source, target,
                               color_bound=args.color_bound,
                               search_budget=args.search_budget,
                               direction=("source", "target"))
    backward = _judge_direction(target, source,
                                color_bound=args.color_bound,
                                search_budget=args.search_budget,
                                direction=("target", "source"))
    verdict = ComparabilityVerdict.from_directions(forward, backward)
    report = {
        "tool": "loccgraph",
        "version": __version__,
        "inputs": {
            "source": {"path": args.source, "sha256": _file_sha256(args.source)},
            "target": {"path": args.target, "sha256": _file_sha256(args.target)},
        },
        "forward": _direction_to_json(forward),
        "backward": _direction_to_json(backward),
        "classification": verdict.classification,
    }
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for label, d in (("forward  (source -> target)", forward),
                         ("backward (target -> source)", backward)):
            print(f"{label}: {d.kind}")
            if d.witness:
                print(f"  witness coloring A={sorted(d.witness.coloring.a_side)} "
                      f"cuts ({d.witness.source_cut}, {d.witness.target_cut})")
            if d.trace:
                print(f"  trace with {len(d.trace.moves)} move(s)")
        print(f"classification: {verdict.classification}")
    return EXIT_UNKNOWN if verdict.classification == "unknown" else EXIT_OK


def cmd_distance(args) -> int:
    t1 = _read_state(args.source)
    t2 = _read_state(args.target)
    report = distance_report(t1, t2)
    if args.json:
        print(json.dumps({
            "qd": report.qd,
            "copies_lower": report.copies_lower,
            "copies_upper": report.copies_upper,
            "qubit_upper": report.qubit_upper,
            "upper_trace": trace_to_json(report.upper_trace),
        }, indent=2))
    else:
        print(f"quantum distance: {report.qd}")
        print(f"copies needed: between {report.copies_lower} and {report.copies_upper}")
        print(f"qubit communication upper bound: {report.qubit_upper}")
    return EXIT_OK


def cmd_protocol(args) -> int:
    source = _read_state(args.source)
    target = _read_state(args.target)
    try:
        trace = reachability_search(source, target, budget=args.search_budget)
    except BoundExceeded:
        print("search budget exhausted before covering the space", file=sys.stderr)
        return EXIT_UNKNOWN
    if trace is None:
        print("no protocol found (search exhausted or blocked by a cut)", file=sys.stderr)
        return EXIT_UNKNOWN
    if args.json:
        print(json.dumps(trace_to_json(trace), indent=2))
    else:
        print(f"found a {len(trace.moves)}-move protocol:")
        for m in trace.moves:
            print(f"  {move_to_json(m)}")
    return EXIT_OK


def cmd_replay(args) -> int:
    try:
        data = json.loads(_read_text(args.trace))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(str(exc)) from None
    trace = trace_from_json(data)
    replay_trace(trace)
    print(f"replay OK, end state matches ({len(trace.moves)} moves)")
    return EXIT_OK


def cmd_enumerate(args) -> int:
    if args.kind == "trees":
        instances = all_spanning_trees(args.n)
    else:
        instances = (random_r_uniform_hypertree(args.n, args.r, args.seed + i)
                     for i in range(args.count))
    first = True
    for h in instances:
        if not first:
            print()
        print(format_hypergraph(h), end="")
        first = False
    return EXIT_OK


def cmd_export_dot(args) -> int:
    h = _read_state(args.source)
    lines = ["graph state {"]
    for a in h.agents:
        lines.append(f"  {a};")
    hub = 0
    for e in h.edges:
        if len(e) == 2:
            lines.append(f"  {e[0]} -- {e[1]};")
        else:
            name = f"cat{hub}"
            hub += 1
            lines.append(f'  {name} [shape=diamond, label="{len(e)}-cat"];')
            for m in e:
                lines.append(f"  {name} -- {m};")
    lines.append("}")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------
# theorem sweeps
# ---------------------------------------------------------------------------

def _sweep_order_chains(n_max: int) -> dict:
    fails = []
    for n in range(3, n_max + 1):
        try:
            check_order_chain(n)
        except (AssertionError, LoccError) as exc:
            fails.append({"n": n, "error": str(exc)})
    return {"name": "order-chain", "checked": max(0, n_max - 2), "failures": fails}


def _sweep_tree_pairs(n_max: int) -> dict:
    checked = 0
    fails = []
    for n in range(3, n_max + 1):
        trees = list(all_spanning_trees(n))
        for t1, t2 in itertools.combinations(trees, 2):
            checked += 1
            try:
                for a, b in ((t1, t2), (t2, t1)):
                    _, witness = witness_distinct_spanning_trees(a, b)
                    require(witness.target_cut > witness.source_cut, "the tree split blocks")
                    require(find_blocking_witness(a, b) is not None, "the scan blocks")
            except (AssertionError, LoccError) as exc:
                if not fails:
                    fails.append({"n": n, "t1": state_to_json(t1), "t2": state_to_json(t2),
                                  "error": str(exc)})
    return {"name": "spanning-tree-incomparability", "checked": checked, "failures": fails}


def _sweep_tree_counts(n_max: int) -> dict:
    fails = []
    checked = 0
    for n in range(3, min(n_max, 6) + 1):
        checked += 1
        try:
            require(sum(1 for _ in all_spanning_trees(n)) == n ** (n - 2),
                    "n^(n-2) labeled trees")
        except (AssertionError, LoccError) as exc:
            fails.append({"n": n, "error": str(exc)})
    return {"name": "tree-count", "checked": checked, "failures": fails}


def _sweep_copy_bounds(n_max: int) -> dict:
    checked = 0
    fails = []
    for n in range(3, n_max + 1):
        for t in all_spanning_trees(n):
            checked += 1
            try:
                require(min_copies_lower_bound(cat_state(n), t) == n - 1,
                        "the copy lower bound is n - 1")
                require(cat_copies_to_tree(t).end == t, "n - 1 CAT copies make the tree")
            except (AssertionError, LoccError) as exc:
                fails.append({"n": n, "tree": state_to_json(t), "error": str(exc)})
                break
    return {"name": "cat-copy-bound", "checked": checked, "failures": fails}


def _sweep_r_uniform(r_list, seed: int, sample_count: int) -> dict:
    checked = 0
    fails = []
    sizes = {3: 7, 4: 7, 5: 9}
    for r in r_list:
        n = sizes.get(r, r * 2 + 1)
        if (n - 1) % (r - 1) != 0:
            n = r * 2 - 1
        produced = 0
        attempt = 0
        while produced < sample_count:
            h1 = random_r_uniform_hypertree(n, r, seed + 2 * attempt)
            h2 = random_r_uniform_hypertree(n, r, seed + 2 * attempt + 1)
            attempt += 1
            if h1 == h2:
                continue
            produced += 1
            checked += 1
            try:
                pair = find_separating_pair(h1, h2)
                fwd, bwd = r_uniform_incomparability(h1, h2)
                require(fwd.witness.target_cut > fwd.witness.source_cut, "h1 -/-> h2")
                require(bwd.witness.target_cut > bwd.witness.source_cut, "h2 -/-> h1")
            except (AssertionError, LoccError) as exc:
                if not fails:
                    fails.append({"r": r, "n": n,
                                  "h1": state_to_json(h1), "h2": state_to_json(h2),
                                  "error": str(exc)})
    return {"name": "r-uniform-hypertree-incomparability",
            "checked": checked, "failures": fails}


def _sweep_disconnected(seed: int, sample_count: int) -> dict:
    import random as _random

    from .witnesses import witness_cat_vs_disconnected, witness_disconnected_vs_cat

    rng = _random.Random(seed)
    checked = 0
    fails = []
    for n in (4, 5, 6):
        for _ in range(sample_count):
            cut = rng.randint(2, n - 2)
            groups = (range(1, cut + 1), range(cut + 1, n + 1))
            edges = set()
            while len(edges) < 2:
                for part in groups:
                    part = list(part)
                    if len(part) < 2:
                        continue
                    for _ in range(rng.randint(1, len(part))):
                        edges.add(tuple(sorted(rng.sample(part, 2))))
            g = Hypergraph(tuple(range(1, n + 1)), tuple(edges))
            checked += 1
            try:
                witness_disconnected_vs_cat(g)
                witness_cat_vs_disconnected(g)
            except (AssertionError, LoccError) as exc:
                if not fails:
                    fails.append({"n": n, "g": state_to_json(g), "error": str(exc)})
    return {"name": "disconnected-vs-cat", "checked": checked, "failures": fails}


def _sweep_pendant(seed: int, sample_count: int) -> dict:
    from .hypergraph import pendant_vertices
    from .witnesses import witness_pendant_condition

    checked = 0
    fails = []
    attempt = 0
    while checked < sample_count:
        h1 = random_r_uniform_hypertree(7, 3, seed=seed + attempt)
        h2 = random_r_uniform_hypertree(7, 3, seed=seed + attempt + 10 ** 7)
        attempt += 1
        p1, p2 = pendant_vertices(h1), pendant_vertices(h2)
        if not (p1 - p2) or not (p2 - p1):
            continue
        checked += 1
        try:
            witness_pendant_condition(h1, h2)
            require(find_blocking_witness(h1, h2) is not None, "scan finds h1 -/-> h2")
            require(find_blocking_witness(h2, h1) is not None, "scan finds h2 -/-> h1")
        except (AssertionError, LoccError) as exc:
            if not fails:
                fails.append({"h1": state_to_json(h1), "h2": state_to_json(h2),
                              "error": str(exc)})
    return {"name": "pendant-condition", "checked": checked, "failures": fails}


def _sweep_distance(seed: int, sample_count: int) -> dict:
    import random as _random

    from .enumeration import random_spanning_tree
    from .protocols import replay_trace
    from .distance import find_saturating_pairs, quantum_distance

    rng = _random.Random(seed)
    checked = 0
    fails = []
    try:
        for _ in range(sample_count):
            n = rng.randint(4, 7)
            a = random_spanning_tree(n, rng.randrange(10 ** 9))
            b = random_spanning_tree(n, rng.randrange(10 ** 9))
            c = random_spanning_tree(n, rng.randrange(10 ** 9))
            checked += 1
            require(quantum_distance(a, b) == quantum_distance(b, a), "symmetry")
            require((quantum_distance(a, b) == 0) == (a == b), "zero iff equal")
            require(quantum_distance(a, c) <= quantum_distance(a, b) + quantum_distance(b, c),
                    "triangle inequality")
            if a != b:
                rep = distance_report(a, b)
                require(2 <= rep.copies_lower <= rep.copies_upper == rep.qd + 1,
                        "2 <= copies_lower <= copies_upper == qd + 1")
                require(replay_trace(rep.upper_trace) == b, "upper trace reaches b")
        low, high = find_saturating_pairs(3)
        require(distance_report(*low).copies_lower == 2, "lower bound 2 is attained")
        rep = distance_report(*high)
        require(rep.copies_lower == rep.copies_upper, "upper bound qd + 1 is attained")
    except (AssertionError, LoccError) as exc:
        fails.append({"error": str(exc)})
    return {"name": "quantum-distance", "checked": checked, "failures": fails}


def _sweep_soundness(seed: int, sample_count: int) -> dict:
    import random as _random

    from .merging import bcm_cut
    from .protocols import apply_move, legal_moves

    rng = _random.Random(seed)
    checked = 0
    fails = []
    while checked < sample_count * 10:
        n = rng.randint(3, 7)
        edges = tuple(tuple(rng.sample(range(1, n + 1), rng.randint(2, min(4, n))))
                      for _ in range(rng.randint(1, 4)))
        state = Hypergraph(tuple(range(1, n + 1)), edges)
        moves = legal_moves(state)
        if not moves:
            continue
        checked += 1
        move = moves[rng.randrange(len(moves))]
        mask = rng.randrange(1 << n)
        coloring = Bicoloring(state.agents,
                              frozenset(a for i, a in enumerate(state.agents)
                                        if mask >> i & 1))
        try:
            require(bcm_cut(apply_move(state, move), coloring) <= bcm_cut(state, coloring),
                    "no move raises a cut")
        except (AssertionError, LoccError) as exc:
            fails.append({"state": state_to_json(state),
                          "move": move_to_json(move),
                          "coloring": coloring.bits(),
                          "error": str(exc)})
            break
    return {"name": "move-soundness", "checked": checked, "failures": fails}


def cmd_verify_theorems(args) -> int:
    # checked before any sweep runs: a sweep over no cases would pass
    # vacuously, and an --n-max past the enumeration bound would fail only
    # after the sweeps at n = 7
    if not 3 <= args.n_max <= TREE_ENUM_MAX_N:
        raise InputError(f"--n-max must lie in 3..{TREE_ENUM_MAX_N}, got {args.n_max}")
    if args.sample_count < 1:
        raise InputError(f"--sample-count must be at least 1, got {args.sample_count}")
    if not args.r_list:
        raise InputError("--r-list needs at least one value")
    if any(r < 3 for r in args.r_list):
        raise InputError(f"--r-list values must be at least 3, got {min(args.r_list)} "
                         "(r = 2 is the spanning-tree case, which the tree sweeps cover)")
    sweeps = [
        _sweep_order_chains(args.n_max),
        _sweep_tree_counts(args.n_max),
        _sweep_tree_pairs(args.n_max),
        _sweep_copy_bounds(args.n_max),
        _sweep_disconnected(args.seed, args.sample_count),
        _sweep_pendant(args.seed, args.sample_count),
        _sweep_r_uniform(args.r_list, args.seed, args.sample_count),
        _sweep_distance(args.seed, args.sample_count),
        _sweep_soundness(args.seed, args.sample_count),
    ]
    failed = False
    for sweep in sweeps:
        status = "PASS" if not sweep["failures"] else "FAIL"
        failed = failed or bool(sweep["failures"])
        if not args.json:
            print(f"{sweep['name']}: {sweep['checked']} checked, {status}")
    if args.json:
        print(json.dumps({"version": __version__, "sweeps": sweeps}, indent=2))
    return EXIT_OK if not failed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loccgraph",
        description="LOCC comparability of maximally entangled multipartite "
                    "states given as EPR graphs and entangled hypergraphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit a JSON report")
        p.add_argument("--seed", type=int, default=0, help="seed for sampled sweeps")
        p.add_argument("--color-bound", type=int, default=DEFAULT_COLOR_BOUND,
                       help="max agents for the exhaustive coloring scan (time and memory "
                            "double per agent; n = 22 takes about 0.1 s and 18 MiB)")
        p.add_argument("--search-budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                       help="max canonical states for reachability search")

    p = sub.add_parser("check", help="classify a pair of state files")
    p.add_argument("source")
    p.add_argument("target")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("verify-theorems", help="run the theorem sweeps")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--r-list", type=int, nargs="*", default=[3])
    p.add_argument("--sample-count", type=int, default=50)
    common(p)
    p.set_defaults(func=cmd_verify_theorems)

    p = sub.add_parser("distance", help="quantum distance between two trees")
    p.add_argument("source")
    p.add_argument("target")
    common(p)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("protocol", help="search for an LOCC protocol")
    p.add_argument("source")
    p.add_argument("target")
    common(p)
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("replay", help="replay a JSON trace file")
    p.add_argument("trace")
    common(p)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("enumerate", help="emit instances in the text format")
    p.add_argument("kind", choices=["trees", "hypertrees"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--count", type=int, default=1)
    common(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("export-dot", help="render a state file as DOT")
    p.add_argument("source")
    common(p)
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
