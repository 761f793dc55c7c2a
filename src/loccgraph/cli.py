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
import functools
import hashlib
import json
import sys
from dataclasses import fields
from json.encoder import encode_basestring_ascii

from . import __version__
from .errors import BoundExceeded, InputError, LoccError, require
from .hypergraph import Hypergraph, format_hypergraph, parse_hypergraph
from .merging import DEFAULT_COLOR_BOUND, Bicoloring, find_blocking_witness
from .protocols import (
    DEFAULT_SEARCH_BUDGET,
    LoccMove,
    ProtocolTrace,
    reachability_search,
    replay_trace,
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

_INF = float("inf")


def dumps(obj) -> str:
    """`json.dumps(obj, indent=2)`, byte for byte, for every report, where
    a package value is written as its `to_json` form.

    The standard library's C encoder serves only unindented output, so
    `indent=2` runs a pure-Python generator per value.  Here each value
    returns its text, given `indent`, a newline and the indent of its
    closing line; a container joins its children's text one level deeper.
    A str and a plain int are told by their exact type, before the memo is
    read.  A state, move or trace is told by its exact type too, and the
    pairs of its `to_json` form are written in place.  Lists, tuples and
    dicts come next, their subclasses written as the base type; None,
    bools, floats and other subclasses come last.
    A trace repeats its edges and moves, so every value but a str or a
    plain int keeps its text for the call, keyed by identity, with the
    indent it was written at; a hit needs the same indent.  Each entry
    holds its value too, so no temporary, such as a `to_json` list of bits,
    can free its id for another value while the memo lives.
    A value with no JSON form, such as a set or a non-string key, is an
    internal inconsistency."""
    texts: dict = {}

    def text(value, indent: str) -> str:
        cls = type(value)
        if cls is str:
            return encode_basestring_ascii(value)
        if cls is int:
            return int.__repr__(value)
        if (found := texts.get(id(value))) is not None and found[1] == indent:
            return found[2]
        inner = indent + "  "
        if cls in DICT_FORMS:  # its keys are strings, and it has at least one
            out = ("{" + inner + f",{inner}".join([
                encode_basestring_ascii(key) + ": " + text(item, inner)
                for key, item in to_json(value).items()]) + indent + "}")
        elif isinstance(value, (list, tuple)):  # a namedtuple is written as a list
            out = ("[" + inner + f",{inner}".join([
                int.__repr__(item) if type(item) is int else text(item, inner)
                for item in value]) + indent + "]") if value else "[]"
        elif isinstance(value, dict):
            parts = []
            for key, item in value.items():
                if not isinstance(key, str):  # the message is formatted only for a bad key
                    require(False, f"a report key is not a string: {key!r}")
                parts.append(encode_basestring_ascii(key) + ": " + text(item, inner))
            out = "{" + inner + f",{inner}".join(parts) + indent + "}" if parts else "{}"
        elif isinstance(value, str):  # a str subclass writes as its text
            out = encode_basestring_ascii(value)
        elif value is None or value is True or value is False:
            out = "null" if value is None else "true" if value else "false"
        elif isinstance(value, int):  # an int subclass, such as an IntEnum
            out = int.__repr__(value)
        elif isinstance(value, float):
            out = ("NaN" if value != value else "Infinity" if value == _INF
                   else "-Infinity" if value == -_INF else float.__repr__(value))
        else:
            out = text(to_json(value), indent)
        texts[id(value)] = value, indent, out
        return out

    return text(obj, "\n")


MOVE_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in LoccMove.__args__}
MOVE_KINDS = {cls.kind: cls for cls in MOVE_FIELDS}
DICT_FORMS = frozenset([*MOVE_FIELDS, Hypergraph, ProtocolTrace])  # `dumps` writes their forms in place


def to_json(value):
    """The JSON form of a package value, read off the value: a state or a
    trace is a new dict of its own fields, a move the same with its kind
    first, and a coloring its bits.  The form may hold tuples and other
    package values, which `dumps` writes in turn."""
    if type(value) in MOVE_FIELDS:
        return {"kind": value.kind, **vars(value)}
    if type(value) in DICT_FORMS:
        return dict(vars(value))
    if isinstance(value, Bicoloring):
        return value.bits()
    require(False, f"a report value has no JSON form: {value!r}")


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
    trace = ProtocolTrace(start, tuple(moves), end)
    replay_trace(trace)
    return trace


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

CLASSIFICATION = {
    ("possible", "possible"): "equivalent",
    ("possible", "impossible"): "strictly_above",
    ("impossible", "possible"): "strictly_below",
    ("impossible", "impossible"): "incomparable",
}


def _judge_direction(source: Hypergraph, target: Hypergraph, names: tuple[str, str], *,
                     color_bound: int, search_budget: int) -> dict:
    """The direction's `check --json` entry.  Witness scan first (past the
    color bound, `structural_witness`); only a direction without a witness
    is searched.  `names` names the witness's (source, target) in the report."""
    note = ""
    try:
        witness = find_blocking_witness(source, target, color_bound=color_bound)
    except BoundExceeded as exc:
        note = f"witness scan skipped: {exc}"
        witness = structural_witness(source, target)
    if witness is not None:
        entry = {"verdict": "impossible", "witness": {
            "coloring_bits": witness.coloring.bits(),
            "a_side": sorted(witness.coloring.a_side),
            "source_cut": witness.source_cut,
            "target_cut": witness.target_cut,
            "direction": list(names),
        }}
    else:
        try:
            trace = reachability_search(source, target, budget=search_budget)
        except BoundExceeded as exc:
            trace, note = None, (note + "; " if note else "") + f"search truncated: {exc}"
        entry = {"verdict": "unknown"} if trace is None else {"verdict": "possible",
                                                              "trace": trace}
    if note:
        entry["note"] = note
    return entry


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    (source, source_input), (target, target_input) = map(_read_input,
                                                         (args.source, args.target))
    report = {
        "tool": "loccgraph",
        "version": __version__,
        "inputs": {"source": source_input, "target": target_input},
    }
    directions = {"forward": (source, target, ("source", "target")),
                  "backward": (target, source, ("target", "source"))}
    for key, (s, t, names) in directions.items():
        entry = report[key] = _judge_direction(s, t, names, color_bound=args.color_bound,
                                               search_budget=args.search_budget)
        require("witness" not in entry or "trace" not in entry,
                "a direction cannot be possible and impossible at once")
    classification = report["classification"] = CLASSIFICATION.get(
        (report["forward"]["verdict"], report["backward"]["verdict"]), "unknown")
    if args.json:
        print(dumps(report))
    else:
        for key, (_, _, (a, b)) in directions.items():
            entry = report[key]
            print(f"{key:8} ({a} -> {b}): {entry['verdict']}")
            if "witness" in entry:
                w = entry["witness"]
                print(f"  witness coloring A={w['a_side']} "
                      f"cuts ({w['source_cut']}, {w['target_cut']})")
            if "trace" in entry:
                print(f"  trace with {len(entry['trace'].moves)} move(s)")
        print(f"classification: {classification}")
    return EXIT_UNKNOWN if classification == "unknown" else EXIT_OK


def cmd_distance(args) -> int:
    t1 = _read_state(args.source)
    t2 = _read_state(args.target)
    report = distance_report(t1, t2, color_bound=args.color_bound)
    if args.json:
        print(dumps(vars(report)))
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
        print(dumps(trace))
    else:
        print(f"found a {len(trace.moves)}-move protocol:")
        for m in trace.moves:
            print(f"  {json.loads(dumps(m))}")  # its JSON form as a Python dict
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
    print("\n".join(map(format_hypergraph, instances)), end="")
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
        print(dumps({"version": __version__, "sweeps": sweeps}))
    return EXIT_OK if not failed else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; it holds no handler and no mutable default."""
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
                                   "memory double per agent; n = 22 takes about 0.035 s and "
                                   "17 MiB)"),
        "--search-budget": dict(type=int, default=DEFAULT_SEARCH_BUDGET,
                                help="max canonical states for reachability search"),
    }

    def command(name, help, *arguments):
        """A subcommand taking only the arguments its handler reads."""
        p = sub.add_parser(name, help=help)
        for argument in arguments:
            p.add_argument(argument, **shared.get(argument, {}))
        return p

    command("check", "classify a pair of state files",
            "source", "target", "--json", "--color-bound", "--search-budget")
    p = command("verify-theorems", "run the theorem sweeps", "--json", "--seed")
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--r-list", type=int, nargs="*", default=(3,))
    p.add_argument("--sample-count", type=int, default=50)
    command("distance", "quantum distance between two trees",
            "source", "target", "--json", "--color-bound")
    command("protocol", "search for an LOCC protocol",
            "source", "target", "--json", "--search-budget")
    command("replay", "replay a JSON trace file", "trace")
    p = command("enumerate", "emit instances in the text format", "--seed")
    p.add_argument("kind", choices=["trees", "hypertrees"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--count", type=int, default=1)
    command("export-dot", "render a state file as DOT", "source")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # checked before any input is read
        for option in ("color_bound", "search_budget", "sample_count", "count"):
            if getattr(args, option, 1) < 1:
                raise InputError(f"--{option.replace('_', '-')} must be at least 1, "
                                 f"got {getattr(args, option)}")
        # the handler is looked up at each call: one rebound after the parser was built runs
        return globals()["cmd_" + args.command.replace("-", "_")](args)
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
