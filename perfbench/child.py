"""One workload in a fresh interpreter: set up, then run timed passes.

Started by run.py.  Set-up imports loccgraph from the checkout's `src/`,
generates the seeded inputs and writes them as text files; the child then
prints `{"ready": <monotonic clock>}`.  Each pass calls `loccgraph.cli.main(argv)`
in-process, once per call of the workload, as a closed loop with one
client.  The reference kernel (calib.py) is timed before the first call
and after each call, outside the timed region, so that run.py can normalize
each call's time to the machine's speed; the gate checks every output after
the pass.  Progress goes to stdout as JSON lines, one per call, so that a
child killed for a limit still leaves a record:

    {"call": label, "pass": p, "traced": bool, "ms": .., "ref_ms": .., "ok": .., ...}
    {"layers": {...}, "pass": p, "ref_ms": ..}   after each traced pass
    {"rss_mb": ..}                    at the end
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import calib
import workloads
from gate import Gate
from tracer import LAYERS, Tracer, search_key

ROOT = Path(__file__).resolve().parent.parent


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


def load_loccgraph() -> dict:
    """Import loccgraph from this checkout, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import loccgraph.cli  # noqa: F401  (imports every layer module)

    if not Path(loccgraph.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"loccgraph was imported from {loccgraph.__file__}, not {src}")
    return {name: sys.modules[f"loccgraph.{name}"] for name in LAYERS}


def set_up(workload: str, seed: int, workdir: Path) -> tuple[dict, list]:
    mods = load_loccgraph()
    calls = workloads.build(workload, seed)
    workdir.mkdir(parents=True)
    for call in calls:
        for name, s in call.files:
            (workdir / name).write_text(workloads.to_text(s), encoding="utf-8")
    os.chdir(workdir)  # relative paths keep the reports identical across runs
    return mods, calls


def run_pass(calls, cli, tracer=None) -> list:
    """Each call's (call, exit code, stdout, traceback, seconds, kernel
    seconds).  The reference kernel runs before the first call and after
    each call; a call's kernel seconds are the mean of the samples on either
    side of it."""
    results = []
    gc.collect()
    ref = calib.sample()
    for i, call in enumerate(calls):
        if tracer is not None:
            tracer.call_id = i + 1
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception:  # recorded as a failed call; the run goes on
                code, crash = None, traceback.format_exc()
        dt = perf_counter() - t0
        gc.collect()  # no call pays for the garbage of the one before it
        after = calib.sample()
        results.append((call, code, out.getvalue(), crash, dt, (ref + after) / 2))
        ref = after
    return results


class Runner:
    def __init__(self, mods: dict, calls: list, trace: bool):
        self.cli = mods["cli"]
        self.calls = calls
        self.gate = Gate(mods)
        self.tracer = Tracer() if trace else None
        self.spans = []
        self.dropped = 0
        self.passes = 0

    def one_pass(self, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.reset()
            tracer.record_spans = not self.spans
            tracer.install()
        try:
            results = run_pass(self.calls, self.cli, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        blocked, out_bytes, checked = set(), 0, 0
        for i, (call, code, out, crash, dt, ref) in enumerate(results):
            o = self.gate.judge(call, code, out, crash)
            blocked.update((i + 1, search_key(*s, t[1])) for s, t in o.blocked)
            out_bytes += len(out.encode())
            checked += o.checked
            emit({"call": call.label, "pass": self.passes, "traced": traced,
                  "ms": dt * 1e3, "ref_ms": ref * 1e3, "ok": o.ok, "reason": o.reason,
                  "answers": o.answers, "decided": o.decided})
        if tracer is not None:
            layers = tracer.metrics(blocked)
            layers["cli.output_bytes"] = out_bytes
            layers["sweeps.checked"] = checked
            emit({"layers": layers, "pass": self.passes,
                  "ref_ms": statistics.mean(r[5] for r in results) * 1e3,
                  "leaf_violations": sorted(tracer.leaf_violations)})
            if not self.spans:
                self.spans, self.dropped = tracer.spans, tracer.dropped
        self.passes += 1

    def measure(self, until: float, trace: bool) -> None:
        """Passes until the next one would end after `until`.  With `trace`,
        untraced and traced passes alternate, so that drift in the machine's
        speed reaches both alike; there is at least one of each."""
        durations = []
        while True:
            traced = trace and self.passes % 2 == 1
            t0 = perf_counter()
            self.one_pass(traced)
            durations.append(perf_counter() - t0)
            if trace and self.passes < 2:
                continue
            if perf_counter() + statistics.median(durations) > until:
                return

    def write_spans(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write(json.dumps({**header, "dropped": self.dropped,
                                "fields": ["id", "name", "start", "end", "parent",
                                           "call"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    mods, calls = set_up(args.workload, args.seed, args.workdir)
    emit({"ready": time.monotonic()})  # same clock as the parent's
    if args.setup_only:
        return 0
    start = perf_counter()
    runner = Runner(mods, calls, bool(args.trace))
    runner.measure(start + args.seconds, bool(args.trace))
    if args.trace and args.spans is not None:
        runner.write_spans(args.spans, {"workload": args.workload, "seed": args.seed})
    emit({"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    return 0


if __name__ == "__main__":
    sys.exit(main())
