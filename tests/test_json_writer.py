"""The one JSON writer behind every `--json` report: `cli.dumps` returns what
`json.dumps(value, indent=2)` returns, byte for byte, and a value with no
JSON form is an internal inconsistency (exit 4), never a traceback."""

import ast
import collections
import dataclasses
import enum
import json
import math
import pathlib
import random
from json.encoder import encode_basestring_ascii
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import loccgraph
from loccgraph import Bicoloring, Hypergraph, cli, path_tree, star_tree
from loccgraph.cli import MOVE_FIELDS, dumps, main
from loccgraph.distance import distance_report
from loccgraph.enumeration import random_spanning_tree
from loccgraph.errors import require
from loccgraph.hypergraph import format_hypergraph, reach
from loccgraph.protocols import CatExpand, Discard, MeasureOut, ProtocolTrace, Swap


def oracle(value) -> str:
    return json.dumps(value, indent=2)


# short int lists, so that equal lists recur and the writer's memo is hit
INT_LISTS = st.lists(st.integers(-3, 3), max_size=3)
TEXT = st.text(st.characters(min_codepoint=0)) | st.sampled_from(
    ["", "ascii", "\x00\x1f\x7f", "tab\there", 'quote " and \\', "é ü ø", "日本", "\U0001f600"])
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-(10 ** 60), 10 ** 60)
           | st.floats() | TEXT)
VALUES = st.recursive(
    SCALARS | INT_LISTS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(TEXT, children, max_size=4)),
    max_leaves=30)


@settings(max_examples=1000, deadline=None)
@given(VALUES)
@example(None)
@example([])
@example({})
@example(())
@example([[], {}, ()])
@example([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
@example([True, False, 1, 0, 10 ** 40, -(10 ** 40)])
def test_dumps_matches_the_standard_library(value):
    assert dumps(value) == oracle(value)


@pytest.mark.parametrize("value", [
    # a bool list hashes like the int list beside it, in either order
    {"ints": [1, 1], "bools": [True, 1], "more": [1, True], "again": [1, 1]},
    {"bools": [True, 1], "ints": [1, 1]},
    [[1.0, 1], [1, 1], [1, 1.0]],
    # one list at two depths is indented twice over
    (lambda edge: {"a": edge, "b": [edge, [edge, {"c": edge}]], "d": edge})([1, 2]),
    [[1, 2], (1, 2), [[1, 2]], [[[1, 2]]]],
])
def test_the_identity_memo_tells_types_and_depths_apart(value):
    assert dumps(value) == oracle(value)


def plain(value):
    """`value` with every move written out as its JSON form, a dict of its
    kind and then its fields, so the standard library can encode it."""
    if isinstance(value, (Discard, MeasureOut, Swap, CatExpand)):
        return {"kind": value.kind, **{f.name: getattr(value, f.name)
                                       for f in dataclasses.fields(value)}}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, dict):
        return {key: plain(item) for key, item in value.items()}
    return value


Point = collections.namedtuple("Point", "x y")


class Level(enum.IntEnum):
    LOW = 1


class Tag(str):
    pass


class Side(str, enum.Enum):
    LEFT = "left"


@pytest.mark.parametrize("value", [
    # equal values that hash alike but print apart, in either order
    [(0,), (False,)],
    [(False,), (0,), (0,)],
    [(1, 2), (1.0, 2)],
    [(1.0, 2), (1, 2), [[1, 2]]],
    [Discard((1, 2)), Discard((True, 2)), Discard((1, 2))],
    [Discard((True, 2)), Discard((1, 2)), [Discard((1, 2))]],
    [Discard((1, 2)), Discard((1.0, 2))],
    [MeasureOut((1, 2, 3), 1), MeasureOut((1, 2, 3), True), MeasureOut((1, 2, 3), 1.0)],
    [MeasureOut((True, 2, 3), 2), MeasureOut((1, 2, 3), 2)],
    [Swap((1, 2), (2, 3)), Swap((1, 2), (2.0, 3)), CatExpand((1, 2, 3), (3, 4)),
     CatExpand((1, 2, 3), (3, False))],
    # a move whose field is not a tuple of ints is memoized by identity, as
    # every list, tuple, dict and move is
    [Discard([1, 2]), Discard((1, 2)), Discard(((1, 2), 3)), Discard(())],
    # subclasses are written as their base type
    [Point(1, 2), (1, 2), Point(True, 2), Point(1.5, [2])],
    collections.OrderedDict([("b", [1, 2]), ("a", Discard((1, 2)))]),
    {"inner": collections.OrderedDict(z=1, a=collections.OrderedDict())},
    [Level.LOW, 1, [Level.LOW, 1], [1, Level.LOW], (Level.LOW,)],
    [Tag("tag"), "tag", Tag(""), Side.LEFT, {"key": Tag("x")}],
])
def test_the_memo_keeps_equal_values_that_print_apart_apart(value):
    assert dumps(value) == oracle(plain(value))


def test_fresh_values_are_written_as_themselves():
    # a move's or a state's `to_json` dict is a temporary: a memo keyed by
    # identity that did not hold it would let its id, and so its text, pass
    # to the next value built in its place
    moves = [move for i in range(300) for move in (
        Discard((i, i + 1)), MeasureOut((i, i + 1, i + 2), i + 1),
        Swap((i, i + 1), (i + 1, i + 2)), CatExpand((i, i + 1, i + 2), (i + 2, i + 3)))]
    states = [t for n in range(2, 40) for t in (path_tree(n), star_tree(n))]
    assert len(set(moves)) == len(moves) >= 1000
    for written, expected in ((dumps(moves), oracle(plain(moves))),
                              (dumps(states), oracle([{"agents": t.agents, "edges": t.edges}
                                                      for t in states]))):
        lines = zip(written.splitlines(), expected.splitlines())
        # name the first line that differs: pytest's verbose diff of two long texts takes minutes
        assert next((i for i, (w, e) in enumerate(lines) if w != e), None) is None
        assert written == expected


def test_distance_writes_each_distinct_move_once(tmp_path):
    t1, t2 = path_tree(8), star_tree(8)
    paths = []
    for name, t in (("t1.txt", t1), ("t2.txt", t2)):
        (tmp_path / name).write_text(format_hypergraph(t))
        paths.append(str(tmp_path / name))
    trace = distance_report(t1, t2).upper_trace
    moves = trace.moves
    assert len(moves) > len(set(moves))  # the trace repeats moves from copy to copy
    with mock.patch.object(cli, "to_json", wraps=cli.to_json) as to_json:
        assert main(["distance", "--json", *paths]) == 0
    # the trace, its start, each distinct move object once, in trace order, and its end
    written = [call.args[0] for call in to_json.call_args_list]
    assert written == [trace, trace.start, *{id(m): m for m in moves}.values(), trace.end]
    # the copies protocol shares one Discard per tree edge, so each is written once
    discards = [m for m in written if type(m) is Discard]
    assert len(discards) == len(set(discards)) < sum(type(m) is Discard for m in moves)


def test_a_distance_report_is_written_byte_for_byte(tmp_path, capsys):
    paths = []
    for name, text in (("a.txt", "agents: 6\ncat: 1 2\ncat: 2 3\ncat: 3 4\ncat: 4 5\ncat: 5 6\n"),
                       ("b.txt", "agents: 6\ncat: 1 6\ncat: 2 6\ncat: 3 6\ncat: 4 6\ncat: 5 6\n")):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    assert main(["distance", "--json", *paths]) == 0
    out = capsys.readouterr().out
    assert out == oracle(json.loads(out)) + "\n"


@pytest.mark.parametrize("value", [{1, 2}, {"edges": [[1, 2], {3}]}, {1: "int key"},
                                   {"nested": {(1, 2): []}}, [object()]])
def test_a_value_with_no_json_form_raises_from_require(value):
    with pytest.raises(AssertionError) as excinfo:
        dumps(value)
    assert excinfo.traceback[-1].name == "require"


@pytest.mark.parametrize("bad", [{3}, {3: "agent"}], ids=["set", "int-key"])
def test_a_report_with_no_json_form_exits_4_with_one_line(monkeypatch, tmp_path, capsys, bad):
    (tmp_path / "ghz.txt").write_text("agents: 3\ncat: 1 2 3\n")
    (tmp_path / "two_epr.txt").write_text("agents: 3\ncat: 1 3\ncat: 2 3\n")
    judge = cli._judge_direction

    def judge_with_bad_side(source, target, names, **kwargs):
        entry = judge(source, target, names, **kwargs)
        if "witness" in entry:
            entry["witness"]["a_side"] = bad
        return entry

    monkeypatch.setattr(cli, "_judge_direction", judge_with_bad_side)
    code = main(["check", "--json", str(tmp_path / "ghz.txt"), str(tmp_path / "two_epr.txt")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INCONSISTENT
    assert captured.out == ""
    assert captured.err.startswith("internal inconsistency: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_no_report_is_written_by_the_standard_library_encoder():
    src = pathlib.Path(loccgraph.__file__).parent
    calls = [(path.name, node.lineno) for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "dumps" and isinstance(node.func.value, ast.Name)
             and node.func.value.id == "json"]
    assert calls == []


# ---------------------------------------------------------------------------
# the writer before it tested exact types first
# ---------------------------------------------------------------------------

def oracle_dumps(obj) -> str:
    """The writer before it tested each value's exact type first and wrote
    states, moves and traces in place: an `isinstance` chain, and every
    `to_json` form written as a dict value of its own."""
    texts: dict = {}

    def text(value, indent: str) -> str:
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        if type(value) is int:
            return int.__repr__(value)
        if (found := texts.get((indent, id(value)))) is not None:
            return found[1]
        inner = indent + "  "
        if isinstance(value, (list, tuple)):
            out = ("[" + inner + f",{inner}".join([text(item, inner) for item in value])
                   + indent + "]") if value else "[]"
        elif isinstance(value, dict):
            parts = []
            for key, item in value.items():
                if not isinstance(key, str):
                    require(False, f"a report key is not a string: {key!r}")
                parts.append(encode_basestring_ascii(key) + ": " + text(item, inner))
            out = "{" + inner + f",{inner}".join(parts) + indent + "}" if parts else "{}"
        elif value is None or value is True or value is False:
            out = "null" if value is None else "true" if value else "false"
        elif isinstance(value, int):
            out = int.__repr__(value)
        elif isinstance(value, float):
            out = ("NaN" if value != value else "Infinity" if value == math.inf
                   else "-Infinity" if value == -math.inf else float.__repr__(value))
        else:
            out = text(cli.to_json(value), indent)
        texts[indent, id(value)] = value, out
        return out

    return text(obj, "\n")


def _written(write, value):
    """The text a writer returns, or the type and message of its error."""
    try:
        return write(value)
    except AssertionError as exc:
        return type(exc), str(exc)


class Edges(tuple):
    pass


class Half(float):
    pass


LABELS = st.integers(-3, 12)
EDGES = st.lists(LABELS, min_size=2, max_size=4, unique=True).map(lambda e: tuple(sorted(e)))
ODD_EDGES = st.lists(st.integers(-3, 12) | st.booleans() | st.floats(-3, 3)
                     | st.builds(Level, st.just(1)) | st.builds(Edges, st.lists(LABELS, max_size=2)),
                     max_size=3).map(tuple)
MOVES = st.one_of(*(st.builds(cls, *([EDGES | ODD_EDGES] * len(MOVE_FIELDS[cls])))
                    for cls in (Discard, Swap, CatExpand)),
                  st.builds(MeasureOut, EDGES | ODD_EDGES, LABELS | st.booleans()))


@st.composite
def package_values(draw):
    """A state, a move, a trace of moves or a coloring, each built from
    edge objects that recur."""
    agents = tuple(range(1, draw(st.integers(2, 7)) + 1))
    edge = st.lists(st.sampled_from(agents), min_size=2, max_size=len(agents), unique=True)
    pool = [tuple(sorted(e)) for e in draw(st.lists(edge, min_size=1, max_size=4))]
    state = Hypergraph(agents, tuple(draw(st.lists(st.sampled_from(pool), max_size=8))))
    if draw(st.booleans()):
        reach(state, agents[0])  # a walked state is written as an unwalked one
    kind = draw(st.sampled_from(["state", "move", "trace", "coloring"]))
    if kind == "state":
        return state
    if kind == "coloring":
        return Bicoloring(agents, frozenset(draw(st.sets(st.sampled_from(agents)))))
    moves = draw(st.lists(MOVES | st.sampled_from(pool).map(Discard), max_size=5))
    if kind == "move":
        return draw(st.sampled_from(moves)) if moves else Discard(pool[0])
    shared = moves + moves[::-1]  # one move object at two places in a trace
    return ProtocolTrace(state, tuple(shared), Hypergraph(state.agents, state.edges))


SUBCLASSES = (st.builds(Tag, TEXT) | st.sampled_from([Side.LEFT, Level.LOW])
              | st.builds(Point, SCALARS, SCALARS) | st.builds(Edges, st.lists(SCALARS, max_size=3))
              | st.builds(Half, st.floats()))


@st.composite
def reports(draw):
    """A report that holds package values, scalars and subclasses of str,
    int, float and tuple at several depths, with some objects shared."""
    leaves = draw(st.lists(package_values() | SCALARS | SUBCLASSES | INT_LISTS,
                           min_size=1, max_size=6))
    value = draw(st.recursive(
        st.sampled_from(leaves),
        lambda children: (st.lists(children, max_size=4)
                          | st.lists(children, max_size=4).map(tuple)
                          | st.dictionaries(TEXT, children, max_size=4)
                          | st.dictionaries(TEXT, children, max_size=3).map(
                              collections.OrderedDict)
                          | st.builds(Point, children, children)),
        max_leaves=20))
    return {"report": value, "again": draw(st.sampled_from(leaves)), "leaves": leaves}


@settings(max_examples=300, deadline=None)
@given(reports())
def test_reports_are_written_as_the_isinstance_writer_wrote_them(report):
    assert dumps(report) == oracle_dumps(report)


@settings(max_examples=100, deadline=None)
@given(reports(), st.sampled_from([{3}, {3: "agent"}, {"a": {(1, 2): []}}, [object()]]))
def test_a_value_with_no_json_form_fails_as_the_isinstance_writer_failed(report, bad):
    report["bad"] = bad
    assert _written(dumps, report) == _written(oracle_dumps, report)


def test_distance_reports_of_random_trees_are_written_as_before():
    # nine pairs of random trees on 13 to 15 agents, the sizes whose
    # reports hold traces of 100 to 200 moves
    rng = random.Random(1)
    for n, count in ((13, 4), (14, 3), (15, 2)):
        for _ in range(count):
            t1, t2 = random_spanning_tree(n, rng.randrange(10 ** 9)), \
                random_spanning_tree(n, rng.randrange(10 ** 9))
            if t1 != t2:
                report = vars(distance_report(t1, t2))
                assert dumps(report) == oracle_dumps(report)
