"""The error taxonomy holds across the whole package.

Every failure the package raises is an InputError, a BoundExceeded, an
IllegalMove, or an AssertionError from `require` (an internal
inconsistency, which must survive `python -O`, so no `assert` statement
may carry it).  Only `hypergraph.py` may build an object with
`object.__new__`, in its one trusted constructor that skips validation.
No module imports a `_`-prefixed name from another, and every top-level
function but the exported API and the cli entry points has a caller in the
package.
"""

import ast
import inspect
import pathlib
import re
from collections import Counter

import pytest

import loccgraph
from loccgraph import (
    Bicoloring,
    Hypergraph,
    cat_copies_to_tree,
    cat_state,
    distance_report,
    epr_pair,
    errors,
    find_blocking_witness,
    find_separating_pair,
    min_copies_lower_bound,
    path_tree,
    quantum_distance,
    r_uniform_incomparability,
    random_r_uniform_hypertree,
    reachability_search,
    star_tree,
    tree_classes,
    tree_to_cat,
    trees_copies_to_tree,
    witness_cat_copies_vs_tree,
    witness_distinct_spanning_trees,
    witness_pendant_condition,
    witness_r_uniform_hypertrees,
)
from loccgraph.merging import cut_profiles, make_witness
from loccgraph.witnesses import structural_witness

SOURCES = sorted(pathlib.Path(loccgraph.__file__).parent.glob("*.py"))
ALLOWED = {"InputError", "BoundExceeded", "IllegalMove", "AssertionError"}


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: use errors.require instead of assert"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_raise_names_a_taxonomy_class(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = [(node.lineno, _raised_name(node)) for node in ast.walk(tree)
             if isinstance(node, ast.Raise) and _raised_name(node) not in ALLOWED]
    assert stray == []


def _is_object_new(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__new__" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "object")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_trusted_construction_stays_in_hypergraph(path):
    # one trusted constructor in hypergraph.py builds with object.__new__,
    # skipping validation, for `edited`, `copies` and `parse_hypergraph`;
    # anywhere else that would let unchecked states in
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if _is_object_new(node)]
    if path.name == "hypergraph.py":
        assert len(lines) == 1, "hypergraph.py needs exactly one trusted constructor"
    else:
        assert lines == [], f"{path.name}: object.__new__ outside hypergraph.py"


def _private_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) of each `_`-prefixed, non-dunder name imported from a
    loccgraph module, relatively or by the package's own name."""
    return [(node.lineno, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "loccgraph")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_imports_a_private_name_of_another(path):
    # a name with a leading underscore is its module's own; a module that
    # needs it from outside needs a public name instead
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _private_imports(tree) == [], f"{path.name} imports a private name"


def _referenced(node: ast.AST) -> Counter:
    """How often each name is read under `node`, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def test_every_src_function_has_a_caller_in_src():
    # a function that only the tests call is dead code; the names `__init__`
    # exports are the package's API, and `cli.main`, `cli.build_parser` and
    # the `cmd_*` handlers are entry points, reached from outside or by name
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    referenced = sum(map(_referenced, trees.values()), Counter())
    exported = {alias.name for node in trees["__init__.py"].body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    entry = {("cli.py", "main"), ("cli.py", "build_parser")}
    uncalled = [f"{name}:{node.name}" for name, tree in trees.items() for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name not in exported and (name, node.name) not in entry
                and not (name == "cli.py" and node.name.startswith("cmd_"))
                and not referenced[node.name] - _referenced(node)[node.name]]
    assert uncalled == []


def test_errors_module_defines_the_taxonomy():
    classes = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and obj.__module__ == errors.__name__}
    assert classes == {"LoccError", "InputError", "BoundExceeded", "IllegalMove"}
    assert issubclass(errors.InputError, ValueError)
    for name in classes - {"LoccError"}:
        assert issubclass(getattr(errors, name), errors.LoccError)


SHARED = "^inputs do not share one agent set$"
_HYPERTREES = (random_r_uniform_hypertree(5, 3, 0), random_r_uniform_hypertree(7, 3, 0))


@pytest.mark.parametrize("call,message", [
    (lambda: Bicoloring((1, 2, 3), {4}), "A-side contains unknown agents"),
    (lambda: make_witness(path_tree(3), path_tree(4), Bicoloring((1, 2, 3), {1})), SHARED),
    # a coloring over other agents than the states' would name agents outside them
    (lambda: make_witness(epr_pair(3, 1, 2), cat_state(3),
                          Bicoloring((1, 2, 3, 4, 5), frozenset({3, 4}))),
     r"coloring over \(1, 2, 3, 4, 5\) does not color the states' agents"),
    (lambda: reachability_search(path_tree(3), star_tree(4)), SHARED),
    (lambda: witness_pendant_condition(path_tree(4), star_tree(5)), SHARED),
    (lambda: witness_r_uniform_hypertrees(*_HYPERTREES), SHARED),
    (lambda: structural_witness(cat_state(3), cat_state(4)), SHARED),
    (lambda: find_blocking_witness(path_tree(3), path_tree(4)), SHARED),
    (lambda: min_copies_lower_bound(path_tree(3), path_tree(4)), SHARED),
    (lambda: cut_profiles(path_tree(3), path_tree(4)), SHARED),
    (lambda: r_uniform_incomparability(*_HYPERTREES), SHARED),
    (lambda: find_separating_pair(*_HYPERTREES), SHARED),
    (lambda: quantum_distance(path_tree(3), path_tree(4)), SHARED),
    (lambda: distance_report(path_tree(3), path_tree(4)), SHARED),
    (lambda: trees_copies_to_tree(path_tree(3), path_tree(4)), SHARED),
    (lambda: witness_distinct_spanning_trees(path_tree(3), path_tree(4)), SHARED),
], ids=["bicoloring", "make_witness", "make_witness-coloring", "reachability_search",
        "witness_pendant_condition", "witness_r_uniform_hypertrees", "structural_witness",
        "find_blocking_witness", "min_copies_lower_bound", "cut_profiles",
        "r_uniform_incomparability", "find_separating_pair", "quantum_distance",
        "distance_report", "trees_copies_to_tree", "witness_distinct_spanning_trees"])
def test_states_over_different_agents_raise_input_error(call, message):
    with pytest.raises(errors.InputError, match=message):
        call()


_CYCLE = Hypergraph((1, 2, 3), ((1, 2), (1, 3), (2, 3)))


@pytest.mark.parametrize("call", [
    lambda: tree_to_cat(_CYCLE),
    lambda: cat_copies_to_tree(_CYCLE),
    lambda: witness_cat_copies_vs_tree(_CYCLE),
    lambda: tree_classes([_CYCLE]),
    lambda: quantum_distance(_CYCLE, path_tree(3)),
    lambda: distance_report(_CYCLE, path_tree(3)),
    lambda: trees_copies_to_tree(_CYCLE, path_tree(3)),
    lambda: witness_distinct_spanning_trees(_CYCLE, path_tree(3)),
], ids=["tree_to_cat", "cat_copies_to_tree", "witness_cat_copies_vs_tree", "tree_classes",
        "quantum_distance", "distance_report", "trees_copies_to_tree",
        "witness_distinct_spanning_trees"])
def test_a_state_that_is_not_a_spanning_tree_raises_input_error(call):
    with pytest.raises(errors.InputError, match="^input is not a spanning EPR tree$"):
        call()


# each precondition's one message, and a pattern for any message that names
# its rule; "agent set must be nonempty" and the coloring check of
# `make_witness` are other rules
PRECONDITIONS = {
    "inputs do not share one agent set": r"\bshare\b.*\bagent set\b|same agents",
    "input is not a spanning EPR tree": r"spanning EPR tree",
}


def _input_error_literals() -> list[tuple[str, str]]:
    """(module, message) of every `raise InputError(<string literal>)` in src."""
    return [(path.name, node.exc.args[0].value) for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(node, ast.Raise) and _raised_name(node) == "InputError"
            and isinstance(node.exc, ast.Call) and node.exc.args
            and isinstance(node.exc.args[0], ast.Constant)]


@pytest.mark.parametrize("message", PRECONDITIONS, ids=["agent-set", "spanning-tree"])
def test_each_precondition_is_raised_once_in_hypergraph(message):
    # one function in hypergraph.py owns each rule and its one message, and
    # every other site calls it, so a bad input reads alike everywhere
    raises = [(name, text) for name, text in _input_error_literals()
              if re.search(PRECONDITIONS[message], text)]
    assert raises == [("hypergraph.py", message)]
