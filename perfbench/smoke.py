"""Smoke test of the benchmark itself, on tiny inputs.

    python3 perfbench/smoke.py

Checks that the correctness gate accepts real outputs and rejects tampered
ones, that traced counts repeat exactly (within one process and across two
runs of run.py with the same seed), that tracing leaves loccgraph as it
found it, that BENCHMARK.json matches the metrics run.py prints, and that
run.py fails without printing a result when the checkout has no `src/`.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

import child
import run
import workloads as w
from gate import Gate
from tracer import LAYERS, Tracer, search_key

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = Path(__file__).resolve().parent / ".work" / "smoke"
MODS = child.load_loccgraph()


def tiny_calls() -> list[w.Call]:
    rng = w.random.Random("smoke")
    t5 = w.catalog(lambda g: w.random_tree(5, g), 2, "smoke-t5")
    h7 = w.catalog(lambda g: w.random_hypertree(7, 3, g), 2, "smoke-h7")
    return [
        w.check("t5", t5[0], t5[1], classification="incomparable"),
        w.check("h7", h7[0], h7[1], classification="incomparable"),
        w.check("star5-cat", w.relabel(w.star(5), rng), w.cat(5),
                classification="strictly_above"),
        w.check("cycle4-2cat", w.cycle(4), w.copies(w.cat(4), 2),
                allowed=(w.OPEN, w.BLOCKED)),
        w.distance("d6", w.random_tree(6, rng), w.path(6)),
        w.Call("sweep-n3", "sweep", ("verify-theorems", "--n-max", "3",
                                     "--sample-count", "2")),
    ]


def run_calls(calls, tracer=None):
    SCRATCH.mkdir(parents=True, exist_ok=True)
    for call in calls:
        for name, s in call.files:
            (SCRATCH / name).write_text(w.to_text(s), encoding="utf-8")
    cwd = Path.cwd()
    try:
        os.chdir(SCRATCH)
        if tracer is not None:
            tracer.install()
        try:
            return child.run_pass(calls, MODS["cli"], tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        os.chdir(cwd)


class GateTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.gate = Gate(MODS)
        cls.results = {r[0].label: r for r in run_calls(tiny_calls())}

    def judge(self, label, code=None, out=None, crash=None):
        call, real_code, real_out, _, _, _ = self.results[label]
        return self.gate.judge(call, real_code if code is None else code,
                               real_out if out is None else out, crash)

    def tampered(self, label, edit) -> str:
        report = json.loads(self.results[label][2])
        edit(report)
        return json.dumps(report)

    def test_real_outputs_pass(self):
        for label in self.results:
            outcome = self.judge(label)
            self.assertTrue(outcome.ok, f"{label}: {outcome.reason}")
        self.assertEqual(self.judge("t5").decided, 2)
        self.assertEqual(self.judge("cycle4-2cat").decided, 1)
        self.assertGreater(self.judge("sweep-n3").checked, 0)

    def test_witness_with_wrong_cut_fails(self):
        out = self.tampered("t5", lambda r: r["forward"]["witness"].update(
            source_cut=r["forward"]["witness"]["source_cut"] - 1))
        self.assertIn("recompute", self.judge("t5", out=out).reason)

    def test_trace_that_does_not_replay_fails(self):
        out = self.tampered("star5-cat", lambda r: r["forward"]["trace"]["moves"].pop())
        self.assertFalse(self.judge("star5-cat", out=out).ok)
        out = self.tampered("star5-cat", lambda r: r["forward"]["trace"]["moves"][0].update(
            pair=[1, 1]))                                  # an illegal move
        self.assertIn("does not verify", self.judge("star5-cat", out=out).reason)

    def test_wrong_classification_fails(self):
        out = self.tampered("t5", lambda r: r.update(classification="equivalent"))
        self.assertFalse(self.judge("t5", out=out).ok)

    def test_verdict_a_theorem_forbids_fails(self):
        def weaken(r):
            r["forward"] = {"verdict": "unknown"}
            r["classification"] = "unknown"
        self.assertIn("contradicts", self.judge("cycle4-2cat", out=self.tampered(
            "cycle4-2cat", lambda r: r["backward"].update(verdict="possible"))).reason)
        self.assertFalse(self.judge("t5", code=3, out=self.tampered("t5", weaken)).ok)

    def test_wrong_exit_code_fails(self):
        self.assertIn("exit code", self.judge("t5", code=3).reason)

    def test_wrong_distance_fails(self):
        out = self.tampered("d6", lambda r: r.update(qd=r["qd"] + 1))
        self.assertFalse(self.judge("d6", out=out).ok)
        out = self.tampered("d6", lambda r: r["upper_trace"]["moves"].pop())
        self.assertFalse(self.judge("d6", out=out).ok)

    def test_failed_sweep_and_crash_fail(self):
        out = self.results["sweep-n3"][2].replace("PASS", "FAIL", 1)
        self.assertIn("sweeps failed", self.judge("sweep-n3", out=out).reason)
        self.assertIn("crash", self.judge("t5", crash="Traceback\nKeyError: 'x'\n").reason)


class TracerTest(unittest.TestCase):
    def traced_metrics(self):
        tracer = Tracer()
        calls = tiny_calls()
        results = run_calls(calls, tracer)
        gate = Gate(MODS)
        blocked = set()
        for i, (call, code, out, crash, _, _) in enumerate(results):
            outcome = gate.judge(call, code, out, crash)
            self.assertTrue(outcome.ok, outcome.reason)
            blocked.update((i + 1, search_key(*s, t[1])) for s, t in outcome.blocked)
        self.assertEqual(tracer.leaf_violations, set())
        return tracer, tracer.metrics(blocked)

    def test_counts_repeat_and_are_plausible(self):
        first, m1 = self.traced_metrics()
        _, m2 = self.traced_metrics()
        for name in run.EXACT & m1.keys():
            self.assertEqual(m1[name], m2[name], name)
        self.assertEqual(m1["protocols.searches"], 8)        # two per check
        self.assertGreater(m1["distance.calls"], 0)
        self.assertGreater(m1["witnesses.calls"], 0)         # from the sweep
        self.assertGreater(m1["enumeration.trees"], 0)
        self.assertGreater(m1["protocols.search_after_witness_s"], 0)
        self.assertGreater(m1["hypergraph.constructions"], m1["protocols.moves_applied"])
        self.assertAlmostEqual(sum(m1[f"{layer}.self_share"] for layer in LAYERS), 1.0)
        parents = {sid for sid, *_ in first.spans}
        self.assertTrue(all(p == 0 or p in parents for *_, p, _ in first.spans))

    def test_colorings_follow_from_results(self):
        hg, merging = MODS["hypergraph"], MODS["merging"]
        tracer = Tracer()
        tracer.install()
        try:
            same = hg.path_tree(5)
            merging.find_blocking_witness(same, same)                # no witness
            witness = merging.find_blocking_witness(hg.path_tree(5), hg.star_tree(5))
        finally:
            tracer.uninstall()
        rank = sum(1 << i for i, a in enumerate((2, 3, 4, 5)) if a in witness.coloring.a_side)
        self.assertEqual(tracer.colorings, 16 + rank + 1)

    def test_uninstall_restores_every_binding(self):
        before = {name: dict(vars(mod)) for name, mod in MODS.items()}
        post_init = MODS["hypergraph"].Hypergraph.__post_init__
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(MODS["cli"].find_blocking_witness, before["cli"]["find_blocking_witness"])
        self.assertIsNot(MODS["witnesses"].find_blocking_witness,
                         before["witnesses"]["find_blocking_witness"])
        tracer.uninstall()
        for name, mod in MODS.items():
            self.assertEqual(dict(vars(mod)), before[name], name)
        self.assertIs(MODS["hypergraph"].Hypergraph.__post_init__, post_init)


class CommandTest(unittest.TestCase):
    def bench(self, cwd: Path, *args) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                              capture_output=True, text=True, timeout=170)

    def test_traced_counts_repeat_across_runs(self):
        args = ("--workload", "sweep-theorems", "--seed", "5", "--seconds", "1", "--trace", "1")
        a, b = (json.loads(self.bench(ROOT, *args).stdout.splitlines()[-1]) for _ in range(2))
        self.assertTrue(a["correct"] and b["correct"])
        self.assertEqual(set(a["metrics"]), set(run.PER_LAYER))
        for name in run.EXACT:
            self.assertEqual(a["metrics"][name], b["metrics"][name], name)

    def test_benchmark_json_matches_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertLessEqual({wl["name"] for wl in spec["workloads"]}, set(run.WORKLOADS))

    def test_fails_without_the_program(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = self.bench(bare, "--workload", "scan-distance", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(proc.stdout.strip().endswith("}"), proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
