"""Data model and structural predicates."""

import contextlib
import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from loccgraph import (
    Hypergraph,
    format_hypergraph,
    is_connected,
    is_entangled_hypertree,
    is_spanning_epr_tree,
    parse_hypergraph,
    path_tree,
    pendant_vertices,
    star_tree,
    uniformity,
)
from loccgraph.cli import main
from loccgraph.enumeration import random_r_uniform_hypertree
from loccgraph.errors import IllegalMove, InputError


def H(n, *edges):
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_is_order_insensitive():
    a = Hypergraph((3, 1, 2), ((2, 1), (3, 2)))
    b = Hypergraph((1, 2, 3), ((2, 3), (1, 2)))
    assert a == b
    assert a.edges == ((1, 2), (2, 3))


def test_rejects_bad_edges():
    with pytest.raises(InputError, match="fewer than two members"):
        H(3, (1,))
    with pytest.raises(InputError, match="repeats a member"):
        H(3, (1, 1))
    with pytest.raises(InputError, match="uses agents outside"):
        H(3, (1, 4))
    with pytest.raises(InputError, match="agent set must be nonempty"):
        Hypergraph((), ())


def test_multiplicity_and_replace():
    h = H(4, (1, 2), (1, 2), (3, 4))
    assert h.edges.count((1, 2)) == 2
    assert h.replace(remove=[(1, 2)]).edges.count((1, 2)) == 1
    with pytest.raises(IllegalMove, match=re.escape("hyperedge (1, 3) is not in the state")):
        h.replace(remove=[(1, 3)])


# ---------------------------------------------------------------------------
# connectivity and trees
# ---------------------------------------------------------------------------

def test_connectivity_basics():
    assert is_connected(H(3, (1, 2), (2, 3)))
    assert not is_connected(H(4, (1, 2), (3, 4)))
    assert is_connected(H(1))
    assert not is_connected(H(3, (1, 2)))  # agent 3 isolated


def test_connectivity_on_seven_agent_tree():
    t = H(7, (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7))
    assert is_connected(t)
    assert is_spanning_epr_tree(t)


def test_spanning_tree_recognition():
    assert is_spanning_epr_tree(H(3, (1, 2), (1, 3)))
    assert not is_spanning_epr_tree(H(3, (1, 2), (2, 3), (1, 3)))  # cycle
    assert not is_spanning_epr_tree(H(3, (1, 2, 3)))               # not 2-uniform
    assert not is_spanning_epr_tree(H(3, (1, 2), (1, 2)))          # multiplicity


def test_hypertree_recognition():
    assert is_entangled_hypertree(H(5, (1, 2, 3), (3, 4, 5)))
    assert not is_entangled_hypertree(H(4, (1, 2, 3), (2, 3, 4)))  # two 2-3 paths
    assert is_entangled_hypertree(H(4, (1, 2), (2, 3), (3, 4)))


def test_uniformity():
    assert uniformity(H(5, (1, 2, 3), (3, 4, 5))) == 3
    assert uniformity(H(4, (1, 2), (2, 3, 4))) is None
    assert uniformity(path_tree(5)) == 2
    with pytest.raises(InputError, match="edgeless"):
        uniformity(H(2))


def test_pendant_vertices():
    assert pendant_vertices(H(5, (1, 2, 3), (3, 4, 5))) == {1, 2, 4, 5}
    assert pendant_vertices(H(3, (1, 2), (2, 3))) == {1, 3}
    assert pendant_vertices(H(3, (1, 2, 3))) == {1, 2, 3}


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_uniform_hypertree_edge_count_law(r, m, seed):
    n = m * (r - 1) + 1
    h = random_r_uniform_hypertree(n, r, seed)
    assert is_entangled_hypertree(h) and uniformity(h) == r
    assert len(h.edges) * (r - 1) + 1 == h.n


@given(st.integers(2, 5), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_hypertree_implies_connected(r, m, seed):
    n = m * (r - 1) + 1
    h = random_r_uniform_hypertree(n, r, seed)
    assert is_entangled_hypertree(h)
    assert is_connected(h)


def _random_hypergraph(rng):
    n = rng.randint(2, 7)
    m = rng.randint(0, 4)
    edges = []
    for _ in range(m):
        k = rng.randint(2, min(4, n))
        edges.append(tuple(rng.sample(range(1, n + 1), k)))
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


def _count_hyperpaths(h, a, b, limit=3):
    """Alternating vertex/edge walks a -> b with distinct vertices and
    distinct edge instances; stops counting at `limit`."""
    instances = list(enumerate(h.edges))
    count = 0

    def extend(vertex, used_edges, used_vertices):
        nonlocal count
        if count >= limit:
            return
        for idx, e in instances:
            if idx in used_edges or vertex not in e:
                continue
            if b in e and b != vertex:
                count += 1
                if count >= limit:
                    return
            for nxt in e:
                if nxt not in used_vertices and nxt != b:
                    extend(nxt, used_edges | {idx}, used_vertices | {nxt})

    extend(a, frozenset(), frozenset({a}))
    return count


def _oracle_hypertree(h):
    unique_paths = all(
        _count_hyperpaths(h, a, b, limit=2) <= 1
        for i, a in enumerate(h.agents)
        for b in h.agents[i + 1:]
    )
    return is_connected(h) and unique_paths


def test_acyclicity_matches_two_path_oracle_random():
    rng = random.Random(20240811)
    for _ in range(300):
        h = _random_hypergraph(rng)
        assert is_entangled_hypertree(h) == _oracle_hypertree(h)


def test_acyclicity_matches_two_path_oracle_exhaustive():
    # every edge multiset with up to three hyperedges over five agents
    import itertools

    agents = tuple(range(1, 6))
    pool = [tuple(c) for k in range(2, 6)
            for c in itertools.combinations(agents, k)]
    for count in range(4):
        for edges in itertools.combinations_with_replacement(pool, count):
            h = Hypergraph(agents, edges)
            assert is_entangled_hypertree(h) == _oracle_hypertree(h)


def test_two_uniform_hypertree_is_spanning_tree():
    rng = random.Random(7)
    for _ in range(200):
        h = _random_hypergraph(rng)
        if all(len(e) == 2 for e in h.edges):
            assert is_entangled_hypertree(h) == is_spanning_epr_tree(h)
    assert is_entangled_hypertree(star_tree(5))


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_and_format_round_trip():
    text = "agents: 5\ncat: 3 1 2\ncat: 3 4 5\n"
    h = parse_hypergraph(text)
    assert h == H(5, (1, 2, 3), (3, 4, 5))
    assert format_hypergraph(h) == "agents: 5\ncat: 1 2 3\ncat: 3 4 5\n"
    assert parse_hypergraph(format_hypergraph(h)) == h


def test_parse_duplicates_encode_multiplicity():
    h = parse_hypergraph("agents: 2\ncat: 1 2\ncat: 1 2\n")
    assert h.edges.count((1, 2)) == 2


def test_parse_errors_carry_line_numbers():
    with pytest.raises(InputError, match="^line 2: a hyperedge needs at least two members") as exc:
        parse_hypergraph("agents: 3\ncat: 1\n")
    assert exc.value.line == 2
    with pytest.raises(InputError, match="^missing 'agents: n' header"):
        parse_hypergraph("cat: 1 2\n")
    with pytest.raises(InputError, match="^line 2: unrecognized line") as exc:
        parse_hypergraph("agents: 3\nwat: 1 2\n")
    assert exc.value.line == 2
    with pytest.raises(InputError, match=r"^line 2: member outside 1\.\.2") as exc:
        parse_hypergraph("agents: 2\ncat: 1 3\n")
    assert exc.value.line == 2


# ---------------------------------------------------------------------------
# fuzzing the text format
# ---------------------------------------------------------------------------

# Junk holds no decimal digits, so the only agent counts are the header's,
# which stay at most 50; lone surrogates cannot be written to a file.
_junk = st.text(st.characters(exclude_categories=("Cs", "Nd")), max_size=10)
_member = st.one_of(st.integers(-2, 52).map(str), _junk)
_line = st.one_of(
    st.integers(-2, 50).map(lambda n: f"agents: {n}"),
    _junk.map(lambda body: "agents:" + body),
    st.lists(_member, max_size=6).map(lambda ms: "cat: " + " ".join(ms)),
    st.lists(st.integers(1, 8).map(str), min_size=2, max_size=4, unique=True)
    .map(lambda ms: "cat: " + " ".join(ms)),
    _junk,
)
_valid = st.integers(2, 8).flatmap(lambda n: st.lists(
    st.lists(st.integers(1, n).map(str), min_size=2, max_size=n, unique=True)
    .map(lambda ms: "cat: " + " ".join(ms)), max_size=5)
    .map(lambda lines: [f"agents: {n}", *lines]))
texts = st.tuples(st.one_of(st.lists(_line, max_size=8), _valid),
                  st.sampled_from(["\n", "\r\n", "\r"]),
                  st.sampled_from(["", "  ", "\t"])).map(
    lambda parts: parts[1].join(parts[2] + line for line in parts[0]))


@settings(max_examples=500, deadline=None)
@given(texts)
def test_parse_returns_a_state_or_raises_input_error(text):
    try:
        h = parse_hypergraph(text)
    except InputError:
        return
    assert isinstance(h, Hypergraph) and h.agents == tuple(range(1, h.n + 1))
    assert parse_hypergraph(format_hypergraph(h)) == h


@settings(max_examples=200, deadline=None)
@given(texts)
def test_export_dot_of_any_text_prints_it_or_one_error_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "state.txt"
    path.write_text(text, encoding="utf-8")
    try:
        parse_hypergraph(path.read_text(encoding="utf-8"))
        parsed = True
    except InputError:
        parsed = False
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["export-dot", str(path)])
    if parsed:
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue().startswith("graph state {\n")
    else:
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
