"""The theorem-sweep runner: every case is counted, a failed check ends only
its own case, and the first failure is kept with its case fields."""

import json
import os
import subprocess
import sys

import pytest

import loccgraph

from loccgraph import sweeps
from loccgraph.cli import main, move_from_json, state_from_json
from loccgraph.enumeration import all_spanning_trees
from loccgraph.errors import IllegalMove, require
from loccgraph.protocols import legal_moves
from loccgraph.sweeps import Sweep


def test_every_case_is_counted_and_the_first_failure_kept():
    sweep = Sweep("demo")
    for i in range(6):
        with sweep.case(i=i, parity=i % 2):
            require(i < 2, f"case {i} fails")
    assert sweep.report() == {"name": "demo", "checked": 6,
                              "failures": [{"i": 2, "parity": 0, "error": "case 2 fails"}]}


def test_a_locc_error_fails_the_case_and_other_errors_propagate():
    sweep = Sweep("demo")
    with sweep.case(k=1):
        raise IllegalMove("no such move")
    assert sweep.failures == [{"k": 1, "error": "no such move"}]
    with pytest.raises(ZeroDivisionError):
        with sweep.case(k=2):
            1 / 0
    assert sweep.checked == 2


def test_an_uncounted_check_can_fail_without_counting():
    sweep = Sweep("demo")
    with sweep.case(counted=False):
        require(False, "both ends are attained")
    assert sweep.report() == {"name": "demo", "checked": 0,
                              "failures": [{"error": "both ends are attained"}]}


def test_a_failing_check_leaves_every_case_counted(monkeypatch):
    def refuse(tree):
        raise IllegalMove(f"no protocol for {tree.edges}")

    monkeypatch.setattr(sweeps, "cat_copies_to_tree", refuse)
    report = sweeps.cat_copy_bound(4)
    first = next(iter(all_spanning_trees(3)))
    assert report["checked"] == 3 + 16
    assert report["failures"] == [{"n": 3, "tree": first,
                                   "error": f"no protocol for {first.edges}"}]


def test_failure_fields_are_encoded_in_the_json_report(monkeypatch, capsys):
    def refuse(state, move):
        raise IllegalMove("refused")

    monkeypatch.setattr(sweeps, "apply_move", refuse)
    argv = ["verify-theorems", "--n-max", "3", "--sample-count", "1", "--json"]
    assert main(argv) == 1
    report = {s["name"]: s for s in json.loads(capsys.readouterr().out)["sweeps"]}
    soundness = report["move-soundness"]
    assert soundness["checked"] == 10
    [failure] = soundness["failures"]
    assert list(failure) == ["state", "move", "coloring", "error"]
    state = state_from_json(failure["state"])
    assert move_from_json(failure["move"]) in legal_moves(state)
    assert len(failure["coloring"]) == state.n and set(failure["coloring"]) <= {"0", "1"}
    assert failure["error"] == "refused"
    assert all(not s["failures"] for name, s in report.items() if name != "move-soundness")


def test_cat_copy_bound_builds_the_levels_once_per_n(monkeypatch):
    calls = []
    real = sweeps._cut_levels

    def counted(agents, *hypergraphs):
        calls.append(len(hypergraphs))
        return real(agents, *hypergraphs)

    monkeypatch.setattr(sweeps, "_cut_levels", counted)
    report = sweeps.cat_copy_bound(5)
    # every labeled tree is counted; the levels are built for its class's representative
    assert report == {"name": "cat-copy-bound", "checked": 3 + 16 + 125, "failures": []}
    assert calls == [1 + 1, 1 + 2, 1 + 3]


def test_the_orbit_reduced_sweeps_count_every_labeled_case_at_n6():
    report = {s["name"]: s for s in sweeps.run_sweeps(6, [3], seed=0, sample_count=1)}
    for name, checked in (("spanning-tree-incomparability", 847_033),
                          ("cat-copy-bound", 1_440)):
        assert report[name] == {"name": name, "checked": checked, "failures": []}
    assert all(not s["failures"] for s in report.values())


@pytest.mark.slow
def test_verify_theorems_passes_at_n7():
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    proc = subprocess.run([sys.executable, "-m", "loccgraph", "verify-theorems",
                           "--n-max", "7", "--json"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = {s["name"]: s for s in json.loads(proc.stdout)["sweeps"]}
    assert all(not s["failures"] for s in report.values())
    assert report["spanning-tree-incomparability"]["checked"] == 142_076_254
    assert report["cat-copy-bound"]["checked"] == 18_247
