"""Pinned output of every benchmark call.

For seeds 1-3, every call of the four workloads in `perfbench/workloads.py`
runs in-process through `cli.main`, from a directory that holds its input
files, with stdout and stderr captured.  Each `--json` call runs again
without `--json`.  `golden/bench_calls.txt` holds one line per run:
workload, seed, label, mode (`json` or `text`), exit code, and the sha256
of stdout and of stderr.  The module is loaded by path and only read.

After an intended output change, rewrite the file with

    PYTHONPATH=src python tests/test_bench_calls.py

and review its diff.
"""

import contextlib
import hashlib
import importlib.util
import io
import os
import pathlib
import sys
import tempfile

from loccgraph.cli import main

HERE = pathlib.Path(__file__).parent
GOLDEN = HERE / "golden" / "bench_calls.txt"
WORKLOADS_PY = HERE.parent / "perfbench" / "workloads.py"
SEEDS = (1, 2, 3)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv) -> str:
    """The exit code and the digests of stdout and stderr of one call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return f"{code} {_sha(out.getvalue())} {_sha(err.getvalue())}"


def digests(workdir) -> list[str]:
    """One line per run, in workload, seed and call order; each workload
    and seed writes its files into a directory of its own under `workdir`."""
    workloads = _workloads()
    lines = []
    cwd = os.getcwd()
    try:
        for name in workloads.WORKLOADS:
            for seed in SEEDS:
                calls = workloads.build(name, seed)
                here = pathlib.Path(workdir) / f"{name}-{seed}"
                here.mkdir()
                for call in calls:
                    for file, state in call.files:
                        (here / file).write_text(workloads.to_text(state), encoding="utf-8")
                os.chdir(here)
                for call in calls:
                    runs = [("text", call.argv)]
                    if "--json" in call.argv:
                        runs = [("json", call.argv),
                                ("text", tuple(a for a in call.argv if a != "--json"))]
                    lines += [f"{name} {seed} {call.label} {mode} {_run(argv)}"
                              for mode, argv in runs]
    finally:
        os.chdir(cwd)
    return lines


def test_every_benchmark_call_writes_what_it_wrote(tmp_path):
    expected = GOLDEN.read_text().splitlines()
    got = digests(tmp_path)
    for want, have in zip(expected, got):
        assert have == want, f"first run that differs: {want.rsplit(' ', 3)[0]}"
    assert len(got) == len(expected)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.write_text("".join(line + "\n" for line in digests(tmp)))
    sys.exit(0)
