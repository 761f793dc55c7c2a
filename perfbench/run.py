"""End-to-end benchmark of the loccgraph command line.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in a fresh interpreter
(perfbench/child.py) under a time and memory limit, one after another.  The
child imports loccgraph from `src/` and calls `loccgraph.cli.main(argv)`
in-process on generated input files, as a closed loop with one client;
every output is checked outside the timed region.

With `--trace 0` this prints the end-to-end metrics, measured untraced.
With `--trace 1` it prints the per-layer metrics of a traced run and writes
its spans to perfbench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
same numbers for a reader.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SETUP_SAMPLES = 7        # set-up-only children timed per run
REF_KERNEL_MS = 15.0     # times are reported at the speed where one kernel run takes this
MEMORY_LIMIT = 2 << 30   # address-space limit of each child, bytes
TIME_MARGIN = 100        # seconds a child may run past --seconds before it is killed

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "call_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "decided_frac": ("ratio", "higher"),
    "ok_frac": ("ratio", "higher"),
}
COUNT, SECONDS, RATIO, RATE = ("count", "lower"), ("s", "lower"), ("ratio", "lower"), ("1/s", "higher")
PER_LAYER = {
    "hypergraph.constructions": COUNT,
    "hypergraph.construct_self_s": SECONDS,
    "merging.scan_calls": COUNT,
    "merging.colorings": COUNT,
    "merging.scan_self_s": SECONDS,
    "merging.colorings_per_s": RATE,
    "protocols.searches": COUNT,
    "protocols.searches_truncated": COUNT,
    "protocols.states_expanded": COUNT,
    "protocols.moves_applied": COUNT,
    "protocols.new_state_ratio": ("ratio", "higher"),
    "protocols.search_self_s": SECONDS,
    "protocols.apply_move_self_s": SECONDS,
    "protocols.legal_moves_self_s": SECONDS,
    "protocols.moves_per_s": RATE,
    "protocols.search_after_witness_s": SECONDS,
    "witnesses.calls": COUNT,
    "witnesses.self_s": SECONDS,
    "enumeration.trees": COUNT,
    "enumeration.self_s": SECONDS,
    "distance.calls": COUNT,
    "distance.self_s": SECONDS,
    "cli.self_s": SECONDS,
    "cli.output_bytes": ("B", "lower"),
    "sweeps.checked": COUNT,
    "trace.overhead_ratio": RATIO,
    **{f"{layer}.self_share": RATIO for layer in LAYERS},
}
# Per-layer values that must repeat exactly between passes and runs.
EXACT = {name for name, (unit, _) in PER_LAYER.items() if unit in ("count", "B")}
EXACT.add("protocols.new_state_ratio")


class SetupFailed(Exception):
    """The workload could not be set up; no result is printed."""


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def spawn(workload: str, seed: int, workdir: Path, extra: list[str],
          timeout: float) -> tuple[float, list[dict], int | None, str]:
    """Run one child; return (set-up seconds, records, exit code or None if
    it was killed, stderr)."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir), *extra]
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, env=env, timeout=timeout,
                              preexec_fn=_limit_memory)
        out, err, code = proc.stdout, proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        out, err, code = exc.stdout or b"", exc.stderr or b"", None
    records = []
    for line in out.decode(errors="replace").splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:  # the last line of a killed child
            pass
    err = err.decode(errors="replace")
    ready = [r["ready"] for r in records if "ready" in r]
    if not ready:
        raise SetupFailed(f"{workload}: child exited with {code} before it was ready:\n"
                          + err[-2000:])
    return ready[0] - t0, records, code, err


def measure(workload: str, seed: int, seconds: int, trace: bool, rundir: Path) -> dict:
    setups = []
    for i in range(SETUP_SAMPLES):
        setup_s, _, code, err = spawn(workload, seed, rundir / f"setup{i}",
                                      ["--setup-only"], timeout=15)
        if code != 0:
            raise SetupFailed(f"{workload}: set-up child exited with {code}:\n{err[-2000:]}")
        setups.append(setup_s)
    spans = BENCH / "out" / f"spans-{workload}-seed{seed}.jsonl.gz"
    extra = ["--seconds", str(seconds), "--trace", str(int(trace)), "--spans", str(spans)]
    _, records, code, err = spawn(workload, seed, rundir / "run", extra,
                                  timeout=seconds + TIME_MARGIN)

    calls = [r for r in records if "call" in r]
    problems = [f"{r['call']} (pass {r['pass']}): {r['reason']}" for r in calls if not r["ok"]]
    attempted, failed = len(calls), len(problems)
    if code != 0:  # killed at a limit or crashed: the call in flight failed
        attempted += 1
        failed += 1
        problems.append(f"child {'killed at the time limit' if code is None else f'exited with {code}'}"
                        f": {err.strip().splitlines()[-1] if err.strip() else ''}")
    rss = [r["rss_mb"] for r in records if "rss_mb" in r]
    peak_rss = rss[0] if rss else resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

    untraced = [r for r in calls if not r["traced"]]
    if not untraced:
        raise SetupFailed(f"{workload}: no call completed:\n{err[-2000:]}")
    times = call_times(untraced)
    ok = [r for r in untraced if r["ok"]]
    answers = sum(r["answers"] for r in ok)
    unknown = sum(r["answers"] - r["decided"] for r in ok)
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(times.values()) / 1e3,
        "call_p50_ms": statistics.median(times.values()),
        "peak_rss_mb": peak_rss,
        "decided_frac": 1 - unknown / answers if answers else 0.0,
        "ok_frac": 1 - failed / attempted,
    }
    raw = {"wall_s": sum(call_times(untraced, raw=True).values()) / 1e3,
           "kernel_ms": statistics.median(r["ref_ms"] for r in untraced)}
    result = {"workload": workload, "seed": seed, "e2e": e2e, "raw": raw,
              "passes": len({r["pass"] for r in untraced}), "calls": len(times),
              "attempted": attempted, "failed": failed, "problems": problems,
              "unknown_frac": 1 - e2e["decided_frac"], "fail_frac": failed / attempted}
    if trace:
        traced_times = call_times([r for r in calls if r["traced"]])
        layers, mismatch = per_layer([r for r in records if "layers" in r])
        if traced_times:
            layers["trace.overhead_ratio"] = (sum(traced_times.values())
                                              / sum(times.values()))
        if mismatch:
            problems.append("traced counts differ between passes: " + ", ".join(mismatch))
        leaves = sorted({v for r in records for v in r.get("leaf_violations", ())})
        if leaves:
            problems.append("traced leaves made traced calls: " + ", ".join(leaves))
        result["layers"] = layers
        result["spans"] = str(spans.relative_to(BENCH.parent)) if spans.exists() else None
    return result


def call_times(calls: list[dict], raw: bool = False) -> dict[str, float]:
    """Each call's median time (ms) over the run's passes.

    Unless `raw`, each time is first normalized to the machine's
    speed during the call: multiplied by REF_KERNEL_MS over the reference
    kernel's time around it (calib.py).  The machine's speed drifts by up
    to 2x over minutes (other tenants' load), and the kernel slows down with
    the program, so the normalized time holds still where the raw one does
    not."""
    times: dict[str, list[float]] = {}
    for r in calls:
        t = r["ms"] if raw else normalize(r["ms"], "s", r["ref_ms"])
        times.setdefault(r["call"], []).append(t)
    return {call: statistics.median(ts) for call, ts in times.items()}


def normalize(value: float, unit: str, ref_ms: float) -> float:
    """A time or rate measured while one kernel run took `ref_ms`, at the
    speed where it takes REF_KERNEL_MS."""
    if unit == "s":
        return value * REF_KERNEL_MS / ref_ms
    if unit == "1/s":
        return value * ref_ms / REF_KERNEL_MS
    return value


def per_layer(passes: list[dict]) -> tuple[dict, list[str]]:
    """Counts from the first traced pass (they must repeat in every pass),
    times and rates as the median over the traced passes, each normalized
    to the machine's speed during its pass as in call_times()."""
    if not passes:
        return {}, ["no traced pass completed"]
    first = passes[0]["layers"]
    mismatch = sorted(k for k in EXACT if any(p["layers"].get(k) != first.get(k)
                                              for p in passes))
    layers = {k: (first[k] if k in EXACT else
                  statistics.median(normalize(p["layers"][k], PER_LAYER[k][0], p["ref_ms"])
                                    for p in passes))
              for k in PER_LAYER if k in first}
    return layers, mismatch


def report(result: dict, trace: bool) -> dict:
    """Print the run for a reader; return the object for the last line."""
    e2e = result["e2e"]
    print(f"{result['workload']}  seed={result['seed']}  passes={result['passes']}  "
          f"calls={result['calls']}  trace={int(trace)}")
    shown = {**e2e, "unknown_frac": result["unknown_frac"], "fail_frac": result["fail_frac"]}
    units = {**{k: u for k, (u, _) in END_TO_END.items()},
             "unknown_frac": "ratio", "fail_frac": "ratio"}
    raw = result["raw"]
    notes = {
        "setup_s": f"  (median of {SETUP_SAMPLES})",
        "wall_s": f"  (raw {raw['wall_s']:.4g} s; kernel {raw['kernel_ms']:.4g} ms, "
                  f"normalized to {REF_KERNEL_MS:g} ms)",
        "call_p50_ms": f"  (median of {result['calls']} calls, each its median of "
                       f"{result['passes']} passes)",
    }
    for name, value in shown.items():
        print(f"  {name:<14} {value:.6g} {units[name]}{notes.get(name, '')}")
    if trace:
        for name, value in result["layers"].items():
            print(f"  {name:<34} {value:.6g} {PER_LAYER[name][0]}")
        if result.get("spans"):
            print(f"  spans written to {result['spans']}")
    for p in result["problems"][:10]:
        print(f"  FAILED {p}", file=sys.stderr)
    table = result["layers"] if trace else e2e
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": max(result["failed"], 1 if result["problems"] else 0),
        "metrics": {k: {"value": table.get(k, 0), "unit": names[k][0]} for k in names},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rundir = BENCH / ".work" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            result = measure(name, args.seed, args.seconds, bool(args.trace), rundir / name)
            results[name] = report(result, bool(args.trace))
    except SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            rundir.parent.rmdir()
        except OSError:  # another run is using it
            pass
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
