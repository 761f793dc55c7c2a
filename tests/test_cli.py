"""Command-line surface: verdicts, reports, round-trips, exit codes."""

import json

import pytest

from loccgraph import Hypergraph, bcm_cut, format_hypergraph, parse_hypergraph
from loccgraph.cli import (
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNKNOWN,
    main,
    state_from_json,
    trace_from_json,
    witness_from_json,
)


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
    assert report["inputs"]["source"]["sha256"]


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
])
def test_replay_rejects_malformed_trace(tmp_path, capsys, payload, field):
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(payload)
    assert main(["replay", str(trace_file)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert len(err.splitlines()) == 1
