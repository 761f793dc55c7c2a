"""Names the benchmark harness binds, kept alive through every refactor.

The harness under `perfbench/` drives the package from outside, by name:
- `perfbench/gate.py` verifies outputs with `cli.trace_from_json`,
  `protocols.replay_trace`, `merging.Bicoloring` and `merging.bcm_cut`;
- `perfbench/tracer.py` rebinds the public functions of its `LAYERS` in
  every module that holds them, and `Hypergraph.__post_init__` in the class
  dict; its children call `cli.main` after `import loccgraph.cli`, which
  must load every layer;
- `perfbench/smoke.py` reads `find_blocking_witness` in `cli`, `witnesses`
  and `merging`.

The lists are written out here rather than imported from `perfbench`, so a
simplification that deletes one of these names fails the suite.
"""

import inspect
import os
import subprocess
import sys

import pytest

import loccgraph
from loccgraph import cli, hypergraph, merging, protocols, witnesses

# perfbench/tracer.py LAYERS
LAYERS = ("cli", "hypergraph", "merging", "protocols", "witnesses", "enumeration",
          "distance")

BOUND = [
    (cli, "main"),
    (cli, "trace_from_json"),
    (cli, "find_blocking_witness"),
    (witnesses, "find_blocking_witness"),
    (merging, "find_blocking_witness"),
    (merging, "Bicoloring"),
    (merging, "bcm_cut"),
    (protocols, "replay_trace"),
]


@pytest.mark.parametrize("module, name", BOUND,
                         ids=[f"{m.__name__.rpartition('.')[2]}.{n}" for m, n in BOUND])
def test_the_harness_finds_each_name_it_binds(module, name):
    assert callable(vars(module).get(name)), f"{module.__name__}.{name} is gone"


def test_post_init_lives_in_the_class_dict():
    assert inspect.isfunction(hypergraph.Hypergraph.__dict__.get("__post_init__"))


def test_importing_the_cli_loads_every_layer():
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    script = ("import sys, loccgraph.cli; "
              "print(*sorted(m for m in sys.modules if m.startswith('loccgraph.')))")
    proc = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {f"loccgraph.{layer}" for layer in LAYERS} <= loaded
