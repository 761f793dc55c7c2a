"""Golden CLI transcript: the exit code, stdout and stderr of a fixed set
of in-process invocations must stay byte-identical.

Every input is built here and passed by a relative path, so the
transcript does not depend on where it runs.  After an intended output
change, rewrite the transcript with

    PYTHONPATH=src python tests/test_golden.py

and review its diff.
"""

import contextlib
import io
import os
import pathlib
import sys
import tempfile

from loccgraph import cat_state, copies, format_hypergraph, path_tree, star_tree
from loccgraph.cli import main
from loccgraph.enumeration import random_r_uniform_hypertree

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.txt"


def _text(n, edges):
    return f"agents: {n}\n" + "".join(f"cat: {' '.join(map(str, e))}\n" for e in edges)


def _cycle(n):
    return _text(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def _chain(order):
    return _text(len(order), list(zip(order, order[1:])))


def _hyperchain(order):
    """The 3-uniform chain (o1, o2, o3), (o3, o4, o5), ... over `order`."""
    return _text(len(order), [tuple(sorted(order[i:i + 3]))
                              for i in range(0, len(order) - 2, 2)])


INPUTS = {
    "ghz.txt": "agents: 3\ncat: 1 2 3\n",
    "two_epr.txt": "agents: 3\ncat: 1 3\ncat: 2 3\n",
    "path5.txt": format_hypergraph(path_tree(5)),
    "star5.txt": format_hypergraph(star_tree(5)),
    "cat5.txt": format_hypergraph(cat_state(5)),
    "hyper_a.txt": format_hypergraph(random_r_uniform_hypertree(7, 3, 1)),
    "hyper_b.txt": format_hypergraph(random_r_uniform_hypertree(7, 3, 2)),
    "path5x2.txt": format_hypergraph(copies(path_tree(5), 2)),
    "cycle5.txt": _cycle(5),
    "cat5x2.txt": format_hypergraph(copies(cat_state(5), 2)),
    # 23 agents exceed the default color bound of 22
    "path23.txt": _chain(list(range(1, 24))),
    "swapped23.txt": _chain([1, 3, 2, *range(4, 24)]),
    "hyper23.txt": _hyperchain(list(range(1, 24))),
    "hyper_swapped23.txt": _hyperchain([1, 4, 3, 2, *range(5, 24)]),
    "cycle23.txt": _cycle(23),
    "cat23.txt": format_hypergraph(cat_state(23)),
    "path6.txt": format_hypergraph(path_tree(6)),
    "star6.txt": format_hypergraph(star_tree(6)),
    "mismatch.txt": "agents: 4\ncat: 1 2\n",
    "bad.txt": "agents: 3\ncat: 1 9\n",
}

CHECK_PAIRS = [
    ("ghz.txt", "two_epr.txt"),
    ("path5.txt", "star5.txt"),
    ("hyper_a.txt", "hyper_b.txt"),
    ("path5x2.txt", "star5.txt"),
    ("cycle5.txt", "cat5x2.txt"),
    ("path23.txt", "swapped23.txt"),
    ("hyper23.txt", "hyper_swapped23.txt"),
]


def _invocations():
    """The argument lists, in transcript order.  `protocol` writes the
    trace that the following `replay` reads."""
    for a, b in CHECK_PAIRS:
        for source, target in ((a, b), (b, a)):
            yield ["check", source, target]
            yield ["check", "--json", source, target]
    yield ["check", "--json", "--search-budget", "3", "path5.txt", "cat5.txt"]
    # past the color bound: a search cut one way, nothing the other way
    for source, target in (("cycle23.txt", "cat23.txt"), ("cat23.txt", "cycle23.txt")):
        yield ["check", "--json", "--search-budget", "50", source, target]
    yield ["protocol", "--search-budget", "3", "path5.txt", "cat5.txt"]
    yield ["protocol", "--json", "path5.txt", "cat5.txt"]
    yield ["replay", "trace.json"]
    yield ["distance", "--json", "path6.txt", "star6.txt"]
    yield ["verify-theorems", "--json", "--n-max", "4"]
    yield ["enumerate", "hypertrees", "--n", "7", "--r", "3", "--count", "2", "--seed", "1"]
    yield ["export-dot", "hyper_a.txt"]
    yield ["check", "missing.txt", "ghz.txt"]
    yield ["check", "ghz.txt", "mismatch.txt"]
    yield ["export-dot", "bad.txt"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript(workdir) -> str:
    """Write the inputs into `workdir`, run every invocation from there
    and return the transcript."""
    workdir = pathlib.Path(workdir)
    for name, text in INPUTS.items():
        (workdir / name).write_text(text)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        blocks = []
        for argv in _invocations():
            code, out, err = _run(argv)
            if argv[0] == "protocol":
                pathlib.Path("trace.json").write_text(out)
            blocks.append(f"$ loccgraph {' '.join(argv)}\nexit {code}\n"
                          f"--- stdout\n{out}--- stderr\n{err}")
    finally:
        os.chdir(cwd)
    return "".join(blocks)


def test_cli_transcript_is_unchanged(tmp_path):
    assert transcript(tmp_path) == GOLDEN.read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(transcript(tmp))
    sys.exit(0)
