"""Command-line surface.

Subcommands: check, verify-theorems, distance, protocol, replay, enumerate,
export-dot.  Exit codes: 0 definite result, 1 a failed theorem sweep, 2 an
input error (malformed input, an unmet precondition, an exceeded bound or
an input too large for the available memory), 3 Unknown, 4 internal
inconsistency (a violated invariant, such as a witness and a trace for the
same direction, which must never happen).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields

from . import __version__
from .errors import BoundExceeded, InputError, LoccError, require
from .hypergraph import Hypergraph, format_hypergraph, parse_hypergraph
from .merging import DEFAULT_COLOR_BOUND, Bicoloring, BlockingWitness, find_blocking_witness
from .protocols import (
    DEFAULT_SEARCH_BUDGET,
    CatExpand,
    Discard,
    LoccMove,
    MeasureOut,
    ProtocolTrace,
    Swap,
    make_trace,
    reachability_search,
)
from .enumeration import TREE_ENUM_MAX_N, all_spanning_trees, random_r_uniform_hypertree
from .distance import distance_report
from .sweeps import run_sweeps
from .witnesses import structural_witness

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNKNOWN = 3
EXIT_INCONSISTENT = 4


# ---------------------------------------------------------------------------
# JSON encoding / decoding
# ---------------------------------------------------------------------------

def state_to_json(h: Hypergraph) -> dict:
    return {"agents": list(h.agents), "edges": [list(e) for e in h.edges]}


def _require_integers(members, what: str, value) -> None:
    """The codec's one integer rule: every agent is a JSON integer, never a
    bool, a float or a string."""
    if not all(type(m) is int for m in members):
        raise InputError(f"{what} holds a non-integer agent: {value!r}")


def state_from_json(data: dict) -> Hypergraph:
    agents, edges = data["agents"], data["edges"]
    _require_integers(agents, "state field 'agents'", agents)
    for e in edges:
        _require_integers(e, "state field 'edges'", e)
    return Hypergraph(tuple(agents), tuple(map(tuple, edges)))


def witness_to_json(w: BlockingWitness, direction: tuple[str, str]) -> dict:
    """`direction` names the witness's (source, target) in the report."""
    return {
        "coloring_bits": w.coloring.bits(),
        "a_side": sorted(w.coloring.a_side),
        "source_cut": w.source_cut,
        "target_cut": w.target_cut,
        "direction": list(direction),
    }


def witness_from_json(data: dict, agents) -> BlockingWitness:
    coloring = Bicoloring.from_bits(agents, data["coloring_bits"])
    return BlockingWitness(coloring, data["source_cut"], data["target_cut"])


MOVE_FIELDS = {cls: tuple(f.name for f in fields(cls))
               for cls in (Discard, MeasureOut, Swap, CatExpand)}
MOVE_KINDS = {cls.kind: cls for cls in MOVE_FIELDS}


def move_to_json(m: LoccMove) -> dict:
    out: dict = {"kind": m.kind}
    for name in MOVE_FIELDS[type(m)]:
        value = getattr(m, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def move_from_json(data: dict) -> LoccMove:
    kind = data["kind"]
    cls = MOVE_KINDS.get(kind)
    if cls is None:
        raise InputError(f"unknown move kind {kind!r}")
    values = {name: data[name] for name in MOVE_FIELDS[cls]}
    # every field is an edge except MeasureOut's agent
    for name, value in values.items():
        _require_integers([value] if name == "agent" else value,
                          f"{kind} move field {name!r}", value)
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


def _field_to_json(value):
    """A field of a sweep failure: states, moves and colorings are encoded,
    the rest is JSON already."""
    if isinstance(value, Hypergraph):
        return state_to_json(value)
    if isinstance(value, tuple(MOVE_FIELDS)):
        return move_to_json(value)
    if isinstance(value, Bicoloring):
        return value.bits()
    return value


def _read(path: str) -> tuple[str, bytes]:
    """A file's bytes, read once, and their UTF-8 text less one leading
    byte-order mark, with newlines translated as text mode translates them."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n"), data


def _read_state(path: str) -> Hypergraph:
    return parse_hypergraph(_read(path)[0])


def _read_input(path: str) -> tuple[Hypergraph, dict]:
    """A state and its report entry, which hashes the bytes that were parsed."""
    text, data = _read(path)
    return parse_hypergraph(text), {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


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
                     color_bound: int, search_budget: int) -> DirectionVerdict:
    """Witness scan first (past the color bound, `structural_witness`);
    only a direction without a witness is searched."""
    note = ""
    try:
        witness = find_blocking_witness(source, target, color_bound=color_bound)
    except BoundExceeded as exc:
        note = f"witness scan skipped: {exc}"
        witness = structural_witness(source, target)
    if witness is not None:
        return DirectionVerdict("impossible", witness=witness, note=note)
    try:
        trace = reachability_search(source, target, budget=search_budget)
    except BoundExceeded as exc:
        trace, note = None, (note + "; " if note else "") + f"search truncated: {exc}"
    return DirectionVerdict("unknown" if trace is None else "possible", trace=trace, note=note)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    (source, source_input), (target, target_input) = map(_read_input,
                                                         (args.source, args.target))
    if source.agents != target.agents:
        raise InputError("inputs do not share one agent set")
    forward = _judge_direction(source, target, color_bound=args.color_bound,
                               search_budget=args.search_budget)
    backward = _judge_direction(target, source, color_bound=args.color_bound,
                                search_budget=args.search_budget)
    verdict = ComparabilityVerdict.from_directions(forward, backward)
    report = {
        "tool": "loccgraph",
        "version": __version__,
        "inputs": {"source": source_input, "target": target_input},
    }
    for key, d, direction in (("forward", forward, ("source", "target")),
                              ("backward", backward, ("target", "source"))):
        out = report[key] = {"verdict": d.kind}
        if d.witness is not None:
            out["witness"] = witness_to_json(d.witness, direction)
        if d.trace is not None:
            out["trace"] = trace_to_json(d.trace)
        if d.note:
            out["note"] = d.note
    report["classification"] = verdict.classification
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
    report = distance_report(t1, t2, color_bound=args.color_bound)
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
    text = _read(args.trace)[0]
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # malformed JSON or an overlong integer
        raise InputError(str(exc)) from None
    trace = trace_from_json(data)  # replays the trace and compares its end state
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
    sweeps = run_sweeps(args.n_max, args.r_list, args.seed, args.sample_count)
    failed = False
    for sweep in sweeps:
        status = "PASS" if not sweep["failures"] else "FAIL"
        failed = failed or bool(sweep["failures"])
        if not args.json:
            print(f"{sweep['name']}: {sweep['checked']} checked, {status}")
    if args.json:
        for sweep in sweeps:
            sweep["failures"] = [{key: _field_to_json(value) for key, value in failure.items()}
                                 for failure in sweep["failures"]]
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

    shared = {
        "--json": dict(action="store_true", help="emit a JSON report"),
        "--seed": dict(type=int, default=0, help="seed for sampled instances"),
        "--color-bound": dict(type=int, default=DEFAULT_COLOR_BOUND,
                              help="max agents for the exhaustive coloring scan (time and "
                                   "memory double per agent; n = 22 takes about 0.1 s and "
                                   "18 MiB)"),
        "--search-budget": dict(type=int, default=DEFAULT_SEARCH_BUDGET,
                                help="max canonical states for reachability search"),
    }

    def command(name, func, help, *arguments):
        """A subcommand taking only the arguments its handler reads."""
        p = sub.add_parser(name, help=help)
        for argument in arguments:
            p.add_argument(argument, **shared.get(argument, {}))
        p.set_defaults(func=func)
        return p

    command("check", cmd_check, "classify a pair of state files",
            "source", "target", "--json", "--color-bound", "--search-budget")
    p = command("verify-theorems", cmd_verify_theorems, "run the theorem sweeps",
                "--json", "--seed")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--r-list", type=int, nargs="*", default=[3])
    p.add_argument("--sample-count", type=int, default=50)
    command("distance", cmd_distance, "quantum distance between two trees",
            "source", "target", "--json", "--color-bound")
    command("protocol", cmd_protocol, "search for an LOCC protocol",
            "source", "target", "--json", "--search-budget")
    command("replay", cmd_replay, "replay a JSON trace file", "trace")
    p = command("enumerate", cmd_enumerate, "emit instances in the text format", "--seed")
    p.add_argument("kind", choices=["trees", "hypertrees"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--count", type=int, default=1)
    command("export-dot", cmd_export_dot, "render a state file as DOT", "source")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (LoccError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory: the input is too large for the memory "
              "available to this process", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


if __name__ == "__main__":
    sys.exit(main())
