"""Command-line surface: verdicts, reports, round-trips, exit codes."""

import argparse
import ast
import hashlib
import inspect
import json
import re
import textwrap

import pytest

from loccgraph import (
    CatExpand,
    Discard,
    Hypergraph,
    MeasureOut,
    Swap,
    cat_state,
    format_hypergraph,
    parse_hypergraph,
    path_tree,
)
from loccgraph.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNKNOWN,
    MOVE_FIELDS,
    build_parser,
    dumps,
    main,
    move_from_json,
    state_from_json,
    to_json,
    trace_from_json,
)
from loccgraph.errors import IllegalMove, InputError
from loccgraph.protocols import ProtocolTrace, apply_move, replay_trace


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


def test_check_json_report_round_trips(ghz_file, two_epr_file, capsys, rederive):
    code = main(["check", "--json", ghz_file, two_epr_file])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "strictly_below"
    source = parse_hypergraph(open(ghz_file).read())
    target = parse_hypergraph(open(two_epr_file).read())
    # re-verify the witness and the trace against the inputs
    witness = rederive(report["forward"]["witness"], source, target)
    assert (witness.source_cut, witness.target_cut) == (1, 2)
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


@pytest.mark.parametrize("command", ["check", "distance", "protocol"])
def test_mismatched_agent_sets_read_alike_in_every_subcommand(tmp_path, capsys, command):
    a = write_state(tmp_path, "a.txt", format_hypergraph(path_tree(3)))
    b = write_state(tmp_path, "b.txt", format_hypergraph(path_tree(4)))
    assert main([command, a, b]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: inputs do not share one agent set\n"


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


@pytest.mark.parametrize("source,target,expected", [
    (format_hypergraph(path_tree(5)), format_hypergraph(cat_state(5)),
     "found a 3-move protocol:\n"
     "  {'kind': 'cat_expand', 'edge': [1, 2], 'pair': [2, 3]}\n"
     "  {'kind': 'cat_expand', 'edge': [1, 2, 3], 'pair': [3, 4]}\n"
     "  {'kind': 'cat_expand', 'edge': [1, 2, 3, 4], 'pair': [4, 5]}\n"),
    # one move of every kind
    ("agents: 5\ncat: 1 2\ncat: 1 2 3\ncat: 3 4\ncat: 4 5\n", "agents: 5\ncat: 1 3 5\n",
     "found a 4-move protocol:\n"
     "  {'kind': 'discard', 'edge': [1, 2]}\n"
     "  {'kind': 'measure_out', 'edge': [1, 2, 3], 'agent': 2}\n"
     "  {'kind': 'swap', 'left': [3, 4], 'right': [4, 5]}\n"
     "  {'kind': 'cat_expand', 'edge': [1, 3], 'pair': [3, 5]}\n"),
], ids=["path5-cat5", "every-kind"])
def test_protocol_text_prints_each_move_as_a_dict_with_list_edges(tmp_path, capsys, source,
                                                                  target, expected):
    a = write_state(tmp_path, "a.txt", source)
    b = write_state(tmp_path, "b.txt", target)
    assert main(["protocol", a, b]) == EXIT_OK
    assert capsys.readouterr().out == expected


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


@pytest.mark.parametrize("kind,count", [
    pytest.param("hypertrees", "0", id="0"),
    pytest.param("hypertrees", "-2", id="-2"),
    pytest.param("trees", "0", id="trees-0"),  # rejected although trees read no count
])
def test_enumerate_hypertrees_rejects_a_count_below_one(capsys, kind, count):
    # a count below one would print nothing and still exit 0
    assert main(["enumerate", kind, "--n", "7", "--count", count]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --count must be at least 1, got {count}\n"


@pytest.mark.parametrize("command,option,value", [
    ("check", "--search-budget", "-1"),
    ("check", "--color-bound", "-3"),
    ("distance", "--color-bound", "0"),
    ("protocol", "--search-budget", "0"),
])
def test_a_bound_below_one_is_rejected(two_epr_file, capsys, command, option, value):
    # a bound below one would report a truncated search or a skipped scan
    assert main([command, two_epr_file, two_epr_file, option, value]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {option} must be at least 1, got {value}\n"


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
    assert state_from_json(json.loads(dumps(h))) == h
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
    a = write_state(tmp_path, "a.txt", "agents: 2\ncat: 1 2\n")
    assert cli_mod.main(["check", a, a]) == 4


def test_the_parser_is_built_once_per_process(monkeypatch, tmp_path, ghz_file, capsys):
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real_init(self, *args, **kwargs)

    build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["check", ghz_file, ghz_file]) == EXIT_OK
    assert main(["export-dot", ghz_file]) == EXIT_OK
    assert main(["enumerate", "trees", "--n", "3"]) == EXIT_OK
    assert main(["verify-theorems", "--n-max", "3", "--sample-count", "1"]) == EXIT_OK
    assert main(["replay", str(tmp_path / "missing.json")]) == EXIT_INPUT
    # the top-level parser and its 7 subparsers, all on the first call
    assert len(built) == 8
    assert build_parser() is build_parser() is built[0]


def test_a_usage_error_leaves_the_parser_as_it_was(ghz_file, two_epr_file, capsys):
    argv = ["check", ghz_file, two_epr_file, "--json"]
    build_parser.cache_clear()
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["check", "--no-such-flag"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == first


def test_a_handler_rebound_after_the_first_call_runs(monkeypatch, ghz_file):
    import loccgraph.cli as cli_mod

    assert main(["check", ghz_file, ghz_file]) == EXIT_OK
    ran = []
    monkeypatch.setattr(cli_mod, "cmd_check", lambda args: ran.append(args.source) or 7)
    assert main(["check", ghz_file, ghz_file]) == 7
    assert ran == [ghz_file]


def test_parser_defaults_are_immutable():
    for subparser in _subcommands().values():
        for action in subparser._actions:
            hash(action.default)  # a list or dict default would be shared by every call


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
        "judge = cli._judge_direction\n"
        "cli._judge_direction = lambda s, t, names, **kw: {\n"
        "    **judge(s, t, names, **kw), 'trace': make_trace(s, ())}\n"
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


GHZ3 = {"agents": [1, 2, 3], "edges": [[1, 2, 3]]}


# each trace, which claims to end at the GHZ state, is tampered in one way:
# through `replay` it exits 2 with one line, and through the API the same
# fault raises its taxonomy class
@pytest.mark.parametrize("start,move,call,error,message", [
    pytest.param({"agents": [1, 2, 3], "edges": [[1, 2], [2, 3]]}, None,
                 lambda: replay_trace(ProtocolTrace(path_tree(3), (), cat_state(3))),
                 IllegalMove, "trace end state does not", id="end-does-not-replay"),
    pytest.param({"agents": [1, 1, 2], "edges": []}, None,
                 lambda: Hypergraph((1, 1, 2)),
                 InputError, "agent labels must be unique", id="duplicate-agent"),
    pytest.param(GHZ3, {"kind": "measure_out", "edge": [1, 2, 3], "agent": 4},
                 lambda: apply_move(cat_state(3), MeasureOut((1, 2, 3), 4)),
                 IllegalMove, "agent 4 not in hyperedge (1, 2, 3)", id="measure-out-agent"),
    pytest.param({"agents": [1, 2, 3], "edges": [[1, 2, 3], [2, 3]]},
                 {"kind": "swap", "left": [1, 2, 3], "right": [2, 3]},
                 lambda: apply_move(Hypergraph((1, 2, 3), ((1, 2, 3), (2, 3))),
                                    Swap((1, 2, 3), (2, 3))),
                 IllegalMove, "swap operates on two EPR pairs", id="swap-non-pair"),
    pytest.param({"agents": [1, 2, 3, 4], "edges": [[1, 2], [2, 3, 4]]},
                 {"kind": "cat_expand", "edge": [1, 2], "pair": [2, 3, 4]},
                 lambda: apply_move(Hypergraph((1, 2, 3, 4), ((1, 2), (2, 3, 4))),
                                    CatExpand((1, 2), (2, 3, 4))),
                 IllegalMove, "cat expansion consumes an EPR pair", id="cat-expand-non-pair"),
    # a pair that names one agent of the hyperedge twice leaves no fresh agent
    pytest.param({"agents": [1, 2, 3], "edges": [[1, 2, 3], [2, 3]]},
                 {"kind": "cat_expand", "edge": [1, 2, 3], "pair": [2, 2]},
                 lambda: apply_move(Hypergraph((1, 2, 3), ((1, 2, 3), (2, 3))),
                                    CatExpand((1, 2, 3), (2, 2))),
                 IllegalMove, "cat expansion consumes an EPR pair",
                 id="cat-expand-repeated-pair"),
    # the codec rejects an unknown kind by name; the calculus, any other value
    pytest.param(GHZ3, {"kind": "teleport", "edge": [1, 2, 3]},
                 lambda: apply_move(cat_state(3), Discard),
                 IllegalMove, "unknown move", id="unknown-move"),
])
def test_a_tampered_trace_exits_2_and_raises_its_class(tmp_path, capsys, start, move,
                                                       call, error, message):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(json.dumps({"start": start, "moves": [move] if move else [],
                                      "end": GHZ3}))
    assert main(["replay", str(trace_file)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_replay_applies_each_move_once(tmp_path, monkeypatch, capsys):
    import loccgraph.protocols as protocols
    from loccgraph import cat_copies_to_tree

    trace = cat_copies_to_tree(path_tree(4))
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(dumps(trace))
    applied = []

    operands = protocols._operands

    def counting_operands(move):
        applied.append(move)
        return operands(move)

    monkeypatch.setattr(protocols, "_operands", counting_operands)
    assert main(["replay", str(trace_file)]) == EXIT_OK
    assert capsys.readouterr().out == "replay OK, end state matches (6 moves)\n"
    assert applied == list(trace.moves)


def test_check_past_color_bound_uses_the_search_cuts(tmp_path, capsys, rederive):
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
        witness = rederive(direction["witness"], a, b)
        assert (witness.source_cut, witness.target_cut) == cuts


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


def test_check_past_color_bound_splits_distinct_trees(tmp_path, capsys, rederive):
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
        witness = rederive(direction["witness"], a, b)
        assert witness.source_cut == 1 and witness.target_cut > 1


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


def test_check_past_color_bound_splits_distinct_hypertrees(tmp_path, capsys, rederive):
    files = _swapped_chains(tmp_path)
    assert main(["check", "--json", "--search-budget", "2000", *files]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == "incomparable"
    source, target = (parse_hypergraph(open(p).read()) for p in files)
    for key, (a, b) in (("forward", (source, target)), ("backward", (target, source))):
        direction = report[key]
        assert direction["verdict"] == "impossible"
        assert direction["note"].startswith("witness scan skipped")
        witness = rederive(direction["witness"], a, b)
        assert (witness.source_cut, witness.target_cut) == (1, 2)


@pytest.mark.parametrize("inputs, builder", [
    (_swapped_paths, "split_trees"),
    (_swapped_chains, "_hypertree_direction"),
], ids=["trees", "hypertrees"])
def test_check_past_color_bound_builds_one_witness_per_direction(tmp_path, capsys,
                                                                 monkeypatch, inputs,
                                                                 builder):
    import loccgraph.witnesses as witnesses

    # both builders read the tables of (source, target)
    calls = {name: [] for name in ("split_trees", "_hypertree_direction")}
    for name, record in calls.items():
        def recording(s1, s2, real=getattr(witnesses, name), record=record):
            record.append((s1.tree, s2.tree))
            return real(s1, s2)
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
    import loccgraph.cli as cli_mod

    subparser = _subcommands()[name]
    declared = {a.dest for a in subparser._actions if not isinstance(a, argparse._HelpAction)}
    handler = getattr(cli_mod, "cmd_" + name.replace("-", "_"))
    assert declared == _options_read(handler)


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
    # the bounds checked for every command come before the command's own checks
    pytest.param(["--n-max", "9", "--sample-count", "0"], "--sample-count must be at least 1",
                 id="sample-count-before-n-max"),
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
    data = to_json(move)
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
    # a scan on 29 agents needs 28 columns of 2^28 bits, far past the limit;
    # the states differ, because equal states are not scanned
    path = write_state(tmp_path, "path29.txt",
                       "agents: 29\n" + "".join(f"cat: {i} {i + 1}\n" for i in range(1, 29)))
    star = write_state(tmp_path, "star29.txt",
                       "agents: 29\n" + "".join(f"cat: 1 {i}\n" for i in range(2, 30)))
    proc = _run_memory_limited("check", path, star, "--color-bound", "30")
    assert proc.returncode == EXIT_INPUT, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert proc.stderr.count("\n") == 1
