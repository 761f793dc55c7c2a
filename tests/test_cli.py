"""Command-line surface: verdicts, reports, round-trips, exit codes."""

import argparse
import ast
import hashlib
import inspect
import json
import textwrap

import pytest

from loccgraph import (
    CatExpand,
    Discard,
    Hypergraph,
    MeasureOut,
    Swap,
    apply_move,
    bcm_cut,
    format_hypergraph,
    parse_hypergraph,
)
from loccgraph.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNKNOWN,
    MOVE_FIELDS,
    build_parser,
    main,
    move_from_json,
    move_to_json,
    state_from_json,
    trace_from_json,
    witness_from_json,
)
from loccgraph.errors import InputError


def write_state(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture
def ghz_file(tmp_path):
    return write_state(tmp_path, "ghz.txt", "agents: 3\ncat: 1 2 3\n")


@pytest.fixture
def two_epr_file(tmp_path):
    return write_state(tmp_path, "two_epr.txt", "agents: 3\ncat: 1 3\ncat: 2 3\n")


def test_check_ghz_vs_two_epr(ghz_file, two_epr_file, capsys):
    code = main(["check", ghz_file, two_epr_file])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "classification: strictly_below" in out
    assert "cuts (1, 2)" in out


def test_check_json_report_round_trips(ghz_file, two_epr_file, capsys):
    code = main(["check", "--json", ghz_file, two_epr_file])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "strictly_below"
    source = parse_hypergraph(open(ghz_file).read())
    target = parse_hypergraph(open(two_epr_file).read())
    # re-verify the witness and the trace against the inputs
    witness = witness_from_json(report["forward"]["witness"], source.agents)
    assert bcm_cut(source, witness.coloring) == witness.source_cut
    assert bcm_cut(target, witness.coloring) == witness.target_cut
    trace = trace_from_json(report["backward"]["trace"])
    assert trace.start == target and trace.end == source
    assert len(trace.moves) == 1
    for role, path in (("source", ghz_file), ("target", two_epr_file)):
        with open(path, "rb") as f:
            assert report["inputs"][role]["sha256"] == hashlib.sha256(f.read()).hexdigest()


def test_check_reads_each_input_once(ghz_file, two_epr_file, monkeypatch, capsys):
    # the report's hash names the bytes that were parsed, not a second read
    import builtins

    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main(["check", "--json", ghz_file, two_epr_file]) == EXIT_OK
    assert [opened.count(p) for p in (ghz_file, two_epr_file)] == [1, 1]


def test_check_rejects_input_that_is_not_utf8(tmp_path, ghz_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffagents: 3\ncat: 1 2 3\n")
    assert main(["check", str(bad), ghz_file]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "can't decode byte 0xff" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("target", ["ghz_file", "two_epr_file"])
def test_check_accepts_a_utf8_byte_order_mark(tmp_path, target, request, capsys):
    text, mark = b"agents: 3\ncat: 1 2 3\n", b"\xef\xbb\xbf"
    target = request.getfixturevalue(target)
    reports = []
    for name, data in (("marked.txt", mark + text), ("plain.txt", text)):
        (tmp_path / name).write_bytes(data)
        assert main(["check", "--json", str(tmp_path / name), target]) == EXIT_OK
        reports.append(json.loads(capsys.readouterr().out))
    marked, plain = (report["inputs"].pop("source") for report in reports)
    # the same verdicts, and the report hashes the raw bytes, mark included
    assert reports[0] == reports[1]
    assert marked["sha256"] == hashlib.sha256(mark + text).hexdigest() != plain["sha256"]
    # only one mark is a byte-order mark
    (tmp_path / "twice.txt").write_bytes(2 * mark + text)
    assert main(["check", str(tmp_path / "twice.txt"), target]) == EXIT_INPUT
    assert "unrecognized line '\\ufeffagents: 3'" in capsys.readouterr().err


def test_check_identical_files_equivalent(tmp_path, capsys):
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2\ncat: 2 3\n")
    b = write_state(tmp_path, "b.txt", "agents: 3\ncat: 1 2\ncat: 2 3\n")
    code = main(["check", "--json", a, b])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert report["classification"] == "equivalent"
    assert report["forward"]["trace"]["moves"] == []


def test_check_distinct_trees_incomparable(tmp_path, capsys):
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2\ncat: 1 3\n")
    b = write_state(tmp_path, "b.txt", "agents: 3\ncat: 1 3\ncat: 2 3\n")
    code = main(["check", a, b])
    assert code == EXIT_OK
    assert "incomparable" in capsys.readouterr().out


def test_check_rejects_mismatched_inputs(tmp_path, capsys):
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2\n")
    b = write_state(tmp_path, "b.txt", "agents: 4\ncat: 1 2\n")
    assert main(["check", a, b]) == EXIT_INPUT
    assert main(["check", a, str(tmp_path / "missing.txt")]) == EXIT_INPUT
    bad = write_state(tmp_path, "bad.txt", "agents: 3\ncat: 1\n")
    assert main(["check", a, bad]) == EXIT_INPUT
    assert "line 2" in capsys.readouterr().err


def test_distance_command(tmp_path, capsys):
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2\ncat: 1 3\n")
    b = write_state(tmp_path, "b.txt", "agents: 3\ncat: 1 3\ncat: 2 3\n")
    code = main(["distance", a, b])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "quantum distance: 1" in out
    assert "between 2 and 2" in out


def test_protocol_and_replay_round_trip(tmp_path, capsys):
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2\ncat: 1 3\n")
    b = write_state(tmp_path, "b.txt", "agents: 3\ncat: 1 2 3\n")
    code = main(["protocol", "--json", a, b])
    assert code == EXIT_OK
    trace_json = capsys.readouterr().out
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(trace_json)
    code = main(["replay", str(trace_file)])
    assert code == EXIT_OK
    assert "replay OK" in capsys.readouterr().out


def test_protocol_reports_unknown(tmp_path, capsys):
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2 3\n")
    b = write_state(tmp_path, "b.txt", "agents: 3\ncat: 1 3\ncat: 2 3\n")
    assert main(["protocol", a, b]) == EXIT_UNKNOWN


def test_enumerate_trees(capsys):
    code = main(["enumerate", "trees", "--n", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    docs = [d for d in out.split("\n\n") if d.strip()]
    assert len(docs) == 3
    trees = {parse_hypergraph(d) for d in docs}
    assert len(trees) == 3


def test_enumerate_hypertrees(capsys):
    code = main(["enumerate", "hypertrees", "--n", "7", "--r", "3",
                 "--count", "2", "--seed", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    docs = [d for d in out.split("\n\n") if d.strip()]
    assert len(docs) == 2
    for doc in docs:
        h = parse_hypergraph(doc)
        assert all(len(e) == 3 for e in h.edges)


def test_export_dot(tmp_path, capsys):
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2 3\n")
    code = main(["export-dot", a])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "graph state {" in out
    assert out.count("cat0 --") == 3
    b = write_state(tmp_path, "b.txt", "agents: 2\ncat: 1 2\n")
    main(["export-dot", b])
    assert "1 -- 2;" in capsys.readouterr().out


def test_verify_theorems_small(capsys):
    code = main(["verify-theorems", "--n-max", "4", "--sample-count", "5",
                 "--r-list", "3", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "FAIL" not in out
    assert "order-chain" in out and "spanning-tree-incomparability" in out


def test_verify_theorems_json(capsys):
    code = main(["verify-theorems", "--n-max", "3", "--sample-count", "3",
                 "--r-list", "3", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert all(not sweep["failures"] for sweep in report["sweeps"])


def test_state_json_round_trip():
    h = Hypergraph((1, 2, 3, 4), ((1, 2, 3), (3, 4), (3, 4)))
    from loccgraph.cli import state_to_json
    assert state_from_json(state_to_json(h)) == h
    assert parse_hypergraph(format_hypergraph(h)) == h


def test_check_reports_unknown(tmp_path, capsys):
    # a cycle and two GHZ copies balance every bipartition cut, and the
    # strictly size-decreasing move calculus cannot bridge equal totals:
    # neither a witness nor a trace exists in either direction
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2 3\ncat: 1 2 3\n")
    b = write_state(tmp_path, "b.txt", "agents: 3\ncat: 1 2\ncat: 1 3\ncat: 2 3\n")
    code = main(["check", "--json", a, b])
    report = json.loads(capsys.readouterr().out)
    assert code == EXIT_UNKNOWN
    assert report["classification"] == "unknown"
    assert report["forward"]["verdict"] == "unknown"


def test_internal_inconsistency_exit_code(monkeypatch, tmp_path):
    import loccgraph.cli as cli_mod

    def boom(args):
        raise AssertionError("witness and trace found for one direction")

    monkeypatch.setattr(cli_mod, "cmd_check", boom)
    parser = cli_mod.build_parser()
    a = write_state(tmp_path, "a.txt", "agents: 2\ncat: 1 2\n")
    args = parser.parse_args(["check", a, a])
    args.func = boom
    monkeypatch.setattr(cli_mod, "build_parser", lambda: parser)
    monkeypatch.setattr(parser, "parse_args", lambda argv=None: args)
    assert cli_mod.main(["check", a, a]) == 4


def _witnessed_pair(tmp_path):
    # the GHZ state cannot become two EPR pairs: a witness settles forward
    return (write_state(tmp_path, "ghz.txt", "agents: 3\ncat: 1 2 3\n"),
            write_state(tmp_path, "two_epr.txt", "agents: 3\ncat: 1 3\ncat: 2 3\n"))


def test_witnessed_direction_is_not_searched(monkeypatch, tmp_path, capsys):
    import loccgraph.cli as cli_mod

    searched = []
    real_search = cli_mod.reachability_search

    def recording_search(source, target, **kwargs):
        searched.append((source, target))
        return real_search(source, target, **kwargs)

    monkeypatch.setattr(cli_mod, "reachability_search", recording_search)
    a, b = _witnessed_pair(tmp_path)
    assert main(["check", "--json", a, b]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["forward"]["verdict"] == "impossible"
    assert report["backward"]["verdict"] == "possible"
    ghz, two_epr = (cli_mod._read_state(p) for p in (a, b))
    assert searched == [(two_epr, ghz)]


def test_verdict_guard_survives_optimize_flag(tmp_path):
    import os
    import subprocess
    import sys

    import loccgraph

    a, b = _witnessed_pair(tmp_path)
    script = (
        "import sys\n"
        "import loccgraph.cli as cli\n"
        "from loccgraph.protocols import make_trace\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "cli._judge_direction = lambda s, t, **kw: cli.DirectionVerdict(\n"
        "    'possible', trace=make_trace(s, ()),\n"
        "    witness=cli.find_blocking_witness(s, t))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script, "check", a, b],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert "possible and impossible at once" in proc.stderr


@pytest.mark.parametrize("payload,field", [
    ("{}", "'start'"),
    ('{"start": {"agents": [1, 2], "edges": [[1, 2]]},'
     ' "moves": [{"kind": "discard"}],'
     ' "end": {"agents": [1, 2], "edges": []}}', "'edge'"),
    ("[]", "wrong shape"),
    pytest.param('{"start": {"agents": [1, 2, 3], "edges": [[1, 2, 3]]},'
                 ' "moves": [{"kind": "discard", "edge": [1, 2, "x"]}],'
                 ' "end": {"agents": [1, 2, 3], "edges": []}}',
                 "field 'edge' holds a non-integer agent", id="non-integer-member"),
    pytest.param('{"start": {"agents": [1, 2, 3], "edges": [[1, 2]]},'
                 ' "moves": [{"kind": "discard", "edge": [2, 3]}],'
                 ' "end": {"agents": [1, 2, 3], "edges": []}}',
                 "hyperedge (2, 3) is not in the state", id="absent-operand"),
    pytest.param("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded",
                 id="nested-too-deep"),
    pytest.param('{"start": {"agents": [1, ' + "1" * 5000 + '], "edges": []},'
                 ' "moves": [], "end": {"agents": [1, 2], "edges": []}}',
                 "Exceeds the limit (4300 digits)", id="integer-too-long"),
    pytest.param('{"start": {"agents": [NaN, 2], "edges": []}, "moves": [],'
                 ' "end": {"agents": [NaN, 2], "edges": []}}',
                 "field 'agents' holds a non-integer agent: [nan, 2]", id="nan-agent"),
    pytest.param('{"start": {"agents": ["1", "2"], "edges": [["1", "2"]]}, "moves": [],'
                 ' "end": {"agents": ["1", "2"], "edges": [["1", "2"]]}}',
                 "field 'agents' holds a non-integer agent: ['1', '2']", id="string-agents"),
    pytest.param('{"start": {"agents": [1, 2], "edges": [[1.0, 2]]}, "moves": [],'
                 ' "end": {"agents": [1, 2], "edges": [[1.0, 2]]}}',
                 "field 'edges' holds a non-integer agent: [1.0, 2]", id="float-member"),
    pytest.param('{"start": {"agents": [1, 2], "edges": [[true, 2]]}, "moves": [],'
                 ' "end": {"agents": [1, 2], "edges": [[1, 2]]}}',
                 "field 'edges' holds a non-integer agent: [True, 2]", id="bool-member"),
])
def test_replay_rejects_malformed_trace(tmp_path, capsys, payload, field):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(payload)
    assert main(["replay", str(trace_file)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert len(err.splitlines()) == 1


def test_replay_applies_each_move_once(tmp_path, monkeypatch, capsys):
    import loccgraph.protocols as protocols
    from loccgraph import cat_copies_to_tree, path_tree
    from loccgraph.cli import trace_to_json

    trace = cat_copies_to_tree(path_tree(4))
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps(trace_to_json(trace)))
    applied = []

    def counting_apply_move(state, move):
        applied.append(move)
        return apply_move(state, move)

    monkeypatch.setattr(protocols, "apply_move", counting_apply_move)
    assert main(["replay", str(trace_file)]) == EXIT_OK
    assert capsys.readouterr().out == "replay OK, end state matches (6 moves)\n"
    assert applied == list(trace.moves)


def test_check_past_color_bound_uses_the_search_cuts(tmp_path, capsys):
    # 23 agents exceed the default color bound of 22, so the exhaustive
    # scan is skipped; agent degrees still block both directions
    n = 23
    path = write_state(tmp_path, "path.txt", f"agents: {n}\n"
                       + "".join(f"cat: {i} {i + 1}\n" for i in range(1, n)))
    star = write_state(tmp_path, "star.txt", f"agents: {n}\n"
                       + "".join(f"cat: 1 {i}\n" for i in range(2, n + 1)))
    assert main(["check", "--json", path, star]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "incomparable"
    source, target = (parse_hypergraph(open(p).read()) for p in (path, star))
    for key, (a, b), cuts in (("forward", (source, target), (1, 22)),
                              ("backward", (target, source), (1, 2))):
        direction = report[key]
        assert direction["verdict"] == "impossible"
        assert direction["note"].startswith("witness scan skipped")
        witness = witness_from_json(direction["witness"], source.agents)
        assert (witness.source_cut, witness.target_cut) == cuts
        assert (bcm_cut(a, witness.coloring), bcm_cut(b, witness.coloring)) == cuts


def _swapped_paths(tmp_path):
    # paths 1-2-...-23 and 1-3-2-4-...-23: 23 agents exceed the default
    # color bound, and equal degrees and connectedness leave no search cut
    n = 23
    order = [1, 3, 2, *range(4, n + 1)]
    path = write_state(tmp_path, "path.txt", f"agents: {n}\n"
                       + "".join(f"cat: {i} {i + 1}\n" for i in range(1, n)))
    swapped = write_state(tmp_path, "swapped.txt", f"agents: {n}\n"
                          + "".join(f"cat: {a} {b}\n" for a, b in zip(order, order[1:])))
    return path, swapped


def test_check_past_color_bound_splits_distinct_trees(tmp_path, capsys):
    path, swapped = _swapped_paths(tmp_path)
    assert main(["check", "--json", path, swapped]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "incomparable"
    source, target = (parse_hypergraph(open(p).read()) for p in (path, swapped))
    for key, (a, b), names in (("forward", (source, target), ["source", "target"]),
                               ("backward", (target, source), ["target", "source"])):
        direction = report[key]
        assert direction["verdict"] == "impossible"
        assert direction["note"].startswith("witness scan skipped")
        assert direction["witness"]["direction"] == names
        witness = witness_from_json(direction["witness"], source.agents)
        assert witness.source_cut == 1
        assert bcm_cut(a, witness.coloring) == 1
        assert bcm_cut(b, witness.coloring) == witness.target_cut > 1


def _swapped_chains(tmp_path):
    # the 3-uniform chain (1,2,3),(3,4,5),...,(21,22,23) against the same
    # with agents 2 and 4 swapped: equal degrees, both connected, so neither
    # search cut blocks, and the bounded search alone would say unknown
    n = 23
    chain = [(i, i + 1, i + 2) for i in range(1, n - 1, 2)]
    swap = {2: 4, 4: 2}
    swapped = [tuple(swap.get(a, a) for a in e) for e in chain]
    return [write_state(tmp_path, name, f"agents: {n}\n"
                        + "".join(f"cat: {' '.join(map(str, e))}\n" for e in edges))
            for name, edges in (("chain.txt", chain), ("swapped.txt", swapped))]


def test_check_past_color_bound_splits_distinct_hypertrees(tmp_path, capsys):
    files = _swapped_chains(tmp_path)
    assert main(["check", "--json", "--search-budget", "2000", *files]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "incomparable"
    source, target = (parse_hypergraph(open(p).read()) for p in files)
    for key, (a, b) in (("forward", (source, target)), ("backward", (target, source))):
        direction = report[key]
        assert direction["verdict"] == "impossible"
        assert direction["note"].startswith("witness scan skipped")
        witness = witness_from_json(direction["witness"], source.agents)
        assert (witness.source_cut, witness.target_cut) == (1, 2)
        assert (bcm_cut(a, witness.coloring), bcm_cut(b, witness.coloring)) == (1, 2)


@pytest.mark.parametrize("inputs, builder", [
    (_swapped_paths, "witness_distinct_spanning_trees"),
    (_swapped_chains, "_hypertree_direction"),
], ids=["trees", "hypertrees"])
def test_check_past_color_bound_builds_one_witness_per_direction(tmp_path, capsys,
                                                                 monkeypatch, inputs,
                                                                 builder):
    import loccgraph.witnesses as witnesses

    calls = {name: [] for name in ("witness_distinct_spanning_trees", "_hypertree_direction")}
    for name, record in calls.items():
        def recording(source, target, *rest, real=getattr(witnesses, name), record=record):
            record.append((source, target))
            return real(source, target, *rest)
        monkeypatch.setattr(witnesses, name, recording)
    files = inputs(tmp_path)
    assert main(["check", "--json", "--search-budget", "2000", *files]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["classification"] == "incomparable"
    source, target = (parse_hypergraph(open(p).read()) for p in files)
    assert calls.pop(builder) == [(source, target), (target, source)]
    assert calls.popitem()[1] == []


def test_module_runs_as_a_program():
    import os
    import subprocess
    import sys

    import loccgraph

    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    proc = subprocess.run([sys.executable, "-m", "loccgraph", "--version"],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().endswith(loccgraph.__version__)


def test_distance_honours_color_bound(tmp_path, capsys):
    path, swapped = _swapped_paths(tmp_path)
    assert main(["distance", path, swapped, "--color-bound", "23"]) == EXIT_OK
    assert "copies needed: between 3 and 3" in capsys.readouterr().out
    assert main(["distance", path, swapped]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: 23 agents exceeds the coloring bound 22\n"


def _subcommands() -> dict:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _options_read(handler) -> set:
    tree = ast.parse(textwrap.dedent(inspect.getsource(handler)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args"}


@pytest.mark.parametrize("name", sorted(_subcommands()))
def test_subcommand_declares_only_what_its_handler_reads(name):
    subparser = _subcommands()[name]
    declared = {a.dest for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
    assert declared == _options_read(subparser.get_default("func"))


@pytest.mark.parametrize("argv", [
    ["replay", "trace.json", "--json"],
    ["export-dot", "a.txt", "--color-bound", "5"],
])
def test_options_a_subcommand_does_not_read_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv,claim", [
    pytest.param(["--r-list", "3", "1"], "--r-list values must be at least 3", id="1"),
    pytest.param(["--r-list", "3", "2"], "--r-list values must be at least 3", id="2"),
    pytest.param(["--r-list"], "--r-list needs at least one value", id="empty-r-list"),
    pytest.param(["--sample-count", "0"], "--sample-count must be at least 1",
                 id="sample-count-0"),
    pytest.param(["--n-max", "2"], "--n-max must lie in 3..7, got 2", id="n-max-2"),
    # rejected before the 141M tree pairs at n = 7 are checked
    pytest.param(["--n-max", "8"], "--n-max must lie in 3..7, got 8", id="n-max-8"),
])
def test_verify_theorems_rejects_r_below_three(capsys, argv, claim):
    assert main(["verify-theorems", "--n-max", "3", *argv]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + claim)
    assert len(captured.err.splitlines()) == 1


def test_broken_witness_fails_the_sweeps(monkeypatch, capsys):
    # a witness generator that emits a coloring cutting nothing is a failed
    # theorem (exit 1), not bad input (exit 2)
    import loccgraph.witnesses as witnesses
    from loccgraph import Bicoloring

    real = witnesses.make_witness

    def empty_coloring(source, target, coloring):
        return real(source, target, Bicoloring(coloring.agents, frozenset()))

    monkeypatch.setattr(witnesses, "make_witness", empty_coloring)
    argv = ["verify-theorems", "--n-max", "3", "--sample-count", "2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "spanning-tree-incomparability: 3 checked, FAIL" in captured.out
    assert "disconnected-vs-cat: 6 checked, FAIL" in captured.out
    assert main([*argv, "--json"]) == 1
    sweeps = {s["name"]: s for s in json.loads(capsys.readouterr().out)["sweeps"]}
    assert sweeps["spanning-tree-incomparability"]["failures"][0]["error"] == \
        "not a witness: target cut 0 <= source cut 0"
    assert not sweeps["order-chain"]["failures"]


def test_invariants_survive_optimize_flag(tmp_path):
    import os
    import subprocess
    import sys

    import loccgraph

    # a copies protocol that stops one move short must be caught by the
    # invariant on its end state, with or without assert statements
    a = write_state(tmp_path, "a.txt", "agents: 3\ncat: 1 2\ncat: 1 3\n")
    b = write_state(tmp_path, "b.txt", "agents: 3\ncat: 1 3\ncat: 2 3\n")
    script = (
        "import sys\n"
        "import loccgraph.protocols as protocols\n"
        "import loccgraph.cli as cli\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "real = protocols.make_trace\n"
        "protocols.make_trace = lambda start, moves: real(start, list(moves)[:-1])\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script, "distance", a, b],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ("internal inconsistency: "
                           "the copies protocol ends at the target tree\n")


def test_theorem_sweeps_survive_optimize_flag():
    import os
    import subprocess
    import sys

    import loccgraph

    # an asymmetric distance must be recorded as a failed sweep, with or
    # without assert statements
    script = (
        "import json, sys\n"
        "import loccgraph.distance as distance\n"
        "import loccgraph.sweeps as sweeps\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "real = distance.quantum_distance\n"
        "distance.quantum_distance = lambda a, b: real(a, b) + (a.edges < b.edges)\n"
        "print(json.dumps(sweeps.quantum_distance(seed=0, sample_count=5)))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    sweep = json.loads(proc.stdout)
    assert sweep["name"] == "quantum-distance"
    assert sweep["failures"] == [{"error": "symmetry"}]


@pytest.mark.parametrize("move,keys", [
    (Discard((1, 2)), ["kind", "edge"]),
    (MeasureOut((1, 2, 3), 2), ["kind", "edge", "agent"]),
    (Swap((1, 2), (2, 3)), ["kind", "left", "right"]),
    (CatExpand((1, 2, 3), (3, 4)), ["kind", "edge", "pair"]),
])
def test_move_codec_round_trips_in_key_order(move, keys):
    data = move_to_json(move)
    assert list(data) == keys
    assert move_from_json(json.loads(json.dumps(data))) == move


def test_move_field_table_lists_each_move_class_fields():
    import dataclasses

    assert list(MOVE_FIELDS) == [Discard, MeasureOut, Swap, CatExpand]
    for cls, names in MOVE_FIELDS.items():
        assert names == tuple(f.name for f in dataclasses.fields(cls))


def test_move_codec_rejects_unknown_kind():
    with pytest.raises(InputError, match="unknown move kind 'teleport'"):
        move_from_json({"kind": "teleport", "edge": [1, 2]})


# The child sets an address-space limit on itself only, so that an input
# too large for memory fails fast; never run these inputs without it.
_MEMORY_LIMITED = (
    "import resource, sys\n"
    "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
    "limit = 400 << 20 if hard == resource.RLIM_INFINITY else min(400 << 20, hard)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (limit, hard))\n"
    "import loccgraph.cli as cli\n"
    "sys.exit(cli.main(sys.argv[1:]))\n"
)


def _run_memory_limited(*argv):
    import os
    import subprocess
    import sys

    import loccgraph

    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", _MEMORY_LIMITED, *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", [
    ["check", "{f}", "{f}"],
    ["distance", "{f}", "{f}"],
    ["protocol", "{f}", "{f}"],
    ["export-dot", "{f}"],
], ids=lambda c: c[0])
def test_out_of_memory_exits_2_with_one_line(tmp_path, command):
    # 4e9 agents: the agent tuple alone would take about 32 GB
    path = write_state(tmp_path, "huge.txt", "agents: 4000000000\ncat: 1 2\n")
    proc = _run_memory_limited(*(arg.format(f=path) for arg in command))
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1


def test_cut_kernel_out_of_memory_exits_2_with_one_line(tmp_path):
    # path_29's scan needs 28 columns of 2^28 bits, far past the limit
    path = write_state(tmp_path, "path29.txt",
                       "agents: 29\n" + "".join(f"cat: {i} {i + 1}\n" for i in range(1, 29)))
    proc = _run_memory_limited("check", path, path, "--color-bound", "30")
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1
