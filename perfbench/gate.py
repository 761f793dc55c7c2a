"""Correctness gate: re-verifies every output outside the timed region.

A call fails when it crashes, exits with the wrong code, gives a verdict a
theorem rules out, or emits evidence that does not re-verify: a witness
whose cuts do not recompute, or a trace that does not replay to its target.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from workloads import Call, State

EXIT_OK, EXIT_UNKNOWN = 0, 3
CLASSIFY = {
    ("possible", "possible"): "equivalent",
    ("possible", "impossible"): "strictly_above",
    ("impossible", "possible"): "strictly_below",
    ("impossible", "impossible"): "incomparable",
}
SWEEP_LINE = re.compile(r"^(\S+): (\d+) checked, (PASS|FAIL)$")


class GateError(Exception):
    """An output that is wrong, with the reason."""


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    answers: int = 1              # directions, distance reports or sweeps judged
    decided: int = 0              # answers that are not Unknown
    blocked: tuple = ()           # (source, target) pairs proven impossible
    checked: int = 0              # items the theorem sweeps report as checked


def cut(s: State, a_side) -> int:
    return sum(1 for e in s[1] if 0 < sum(1 for v in e if v in a_side) < len(e))


class Gate:
    """Checks outputs with the program's own verifiers (`bcm_cut`,
    `replay_trace`) and with independent recomputation from the edge lists."""

    def __init__(self, loccgraph_modules):
        self.cli = loccgraph_modules["cli"]
        self.merging = loccgraph_modules["merging"]
        self.protocols = loccgraph_modules["protocols"]
        self.hypergraph = loccgraph_modules["hypergraph"]

    def judge(self, call: Call, code, out: str, crash: str | None) -> Outcome:
        answers = 2 if call.kind == "check" else 1
        if crash is not None:
            return Outcome(False, "crash: " + crash.strip().splitlines()[-1], answers)
        try:
            return getattr(self, "_" + call.kind)(call, code, out)
        except GateError as exc:
            return Outcome(False, str(exc), answers)
        except Exception as exc:  # output that breaks a verifier is wrong output
            return Outcome(False, f"output does not verify: {exc!r}", answers)

    def _hg(self, s: State):
        n, edges = s
        return self.hypergraph.Hypergraph(tuple(range(1, n + 1)), edges)

    def _replays(self, trace_json: dict, start: State, end: State) -> None:
        trace = self.cli.trace_from_json(trace_json)
        if trace.start != self._hg(start):
            raise GateError("trace starts elsewhere")
        if self.protocols.replay_trace(trace) != self._hg(end):
            raise GateError("trace does not end at the target")

    def _witness(self, w: dict, source: State, target: State) -> None:
        n = source[0]
        a_side = frozenset(v for v, bit in zip(range(1, n + 1), w["coloring_bits"])
                           if bit == "1")
        if sorted(a_side) != w["a_side"] or len(w["coloring_bits"]) != n:
            raise GateError("witness coloring is inconsistent")
        cuts = (cut(source, a_side), cut(target, a_side))
        coloring = self.merging.Bicoloring(tuple(range(1, n + 1)), a_side)
        recut = (self.merging.bcm_cut(self._hg(source), coloring),
                 self.merging.bcm_cut(self._hg(target), coloring))
        if cuts != recut or cuts != (w["source_cut"], w["target_cut"]):
            raise GateError(f"witness cuts {w['source_cut'], w['target_cut']} "
                            f"recompute as {cuts}")
        if not cuts[1] > cuts[0]:
            raise GateError("witness does not block")

    def _check(self, call: Call, code, out: str) -> Outcome:
        report = json.loads(out)
        verdicts = []
        blocked = []
        sides = ((call.source, call.target), (call.target, call.source))
        for key, (src, dst), allowed in zip(("forward", "backward"), sides, call.allowed):
            d = report[key]
            kind = d["verdict"]
            if kind not in allowed:
                raise GateError(f"{key} verdict {kind} contradicts a theorem")
            if ("witness" in d) != (kind == "impossible") or ("trace" in d) != (kind == "possible"):
                raise GateError(f"{key} evidence does not match verdict {kind}")
            if kind == "impossible":
                self._witness(d["witness"], src, dst)
                blocked.append((src, dst))
            elif kind == "possible":
                self._replays(d["trace"], src, dst)
            verdicts.append(kind)
        classification = CLASSIFY.get(tuple(verdicts), "unknown")
        if report["classification"] != classification:
            raise GateError(f"classification {report['classification']} "
                            f"does not follow from {verdicts}")
        if call.classification and classification != call.classification:
            raise GateError(f"classification {classification}, "
                            f"expected {call.classification}")
        want = EXIT_UNKNOWN if classification == "unknown" else EXIT_OK
        if code != want:
            raise GateError(f"exit code {code}, expected {want}")
        decided = sum(v != "unknown" for v in verdicts)
        return Outcome(True, answers=2, decided=decided, blocked=tuple(blocked))

    def _distance(self, call: Call, code, out: str) -> Outcome:
        if code != EXIT_OK:
            raise GateError(f"exit code {code}, expected 0")
        report = json.loads(out)
        t1, t2 = call.source, call.target
        qd = len(set(t1[1]) - set(t2[1]))
        got = (report["qd"], report["copies_upper"], report["qubit_upper"])
        if got != (qd, qd + 1, qd):
            raise GateError(f"qd/copies_upper/qubit_upper {got}, expected "
                            f"{(qd, qd + 1, qd)}")
        if not 2 <= report["copies_lower"] <= report["copies_upper"]:
            raise GateError(f"copies_lower {report['copies_lower']} out of range")
        start = (t1[0], tuple(sorted(t1[1] * (qd + 1))))
        self._replays(report["upper_trace"], start, t2)
        return Outcome(True, decided=1)

    def _sweep(self, call: Call, code, out: str) -> Outcome:
        lines = out.splitlines()
        matches = [SWEEP_LINE.match(line) for line in lines]
        if not lines or not all(matches):
            raise GateError("unexpected sweep output")
        failed = [m.group(1) for m in matches if m.group(3) != "PASS"]
        if failed:
            raise GateError(f"sweeps failed: {failed}")
        if code != EXIT_OK:
            raise GateError(f"exit code {code}, expected 0")
        return Outcome(True, answers=len(lines), decided=len(lines),
                       checked=sum(int(m.group(2)) for m in matches))
