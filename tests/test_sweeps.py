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
    report = sweeps.cat_copy_bound(sweeps.tree_catalog(4))
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
    real = sweeps.cut_profiles

    def counted(*states, **kwargs):
        calls.append(len(states))
        return real(*states, **kwargs)

    monkeypatch.setattr(sweeps, "cut_profiles", counted)
    report = sweeps.cat_copy_bound(sweeps.tree_catalog(5))
    # every labeled tree is counted; the profile is built for its class's representative
    assert report == {"name": "cat-copy-bound", "checked": 3 + 16 + 125, "failures": []}
    assert calls == [1 + 1, 1 + 2, 1 + 3]


def test_the_tree_sweeps_share_one_classification_per_n(monkeypatch):
    classified, enumerated = [], []
    real_classes, real_trees = sweeps.tree_classes, sweeps.all_spanning_trees

    def counted_classes(trees):
        classified.append(trees[0].n)
        return real_classes(trees)

    def counted_trees(n):
        enumerated.append(n)
        return real_trees(n)

    monkeypatch.setattr(sweeps, "tree_classes", counted_classes)
    monkeypatch.setattr(sweeps, "all_spanning_trees", counted_trees)
    report = {s["name"]: s for s in sweeps.run_sweeps(5, [3], seed=0, sample_count=1)}
    assert classified == [3, 4, 5]
    # the tree-count sweep reads the same catalog as the two tree sweeps
    assert enumerated == [3, 4, 5]
    assert report["tree-count"] == {"name": "tree-count", "checked": 3, "failures": []}
    assert report["spanning-tree-incomparability"]["checked"] == 3 + 120 + 7_750
    assert report["cat-copy-bound"]["checked"] == 3 + 16 + 125


def test_the_tree_count_sweep_rejects_a_repeated_tree():
    # Cayley's count holds only for distinct trees: a catalog that repeats
    # one tree in place of another keeps its length and must still fail
    catalog = sweeps.tree_catalog(5)
    assert sweeps.tree_count(catalog)["failures"] == []
    n, trees, classes = catalog[-1]
    catalog[-1] = (n, [*trees[:-1], trees[0]], classes)
    assert sweeps.tree_count(catalog) == {
        "name": "tree-count", "checked": 3,
        "failures": [{"n": 5, "error": "n^(n-2) distinct labeled trees"}]}


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
