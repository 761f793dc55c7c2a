"""Protocol traces against the per-move code they replaced.

The oracles below are the trace kernel as it was before each move cost a
few C-level operations: `make_trace` summed every state's edge sizes in a
Python generator twice per move, each move built a new state whose removed
edges were found with `list.remove` (`oracle_replace`), and `copies`
re-validated and re-sorted all k·|E| edges through the public constructor.
Later `make_trace` built a new state per move through `apply_move`, and the
copies protocol re-sorted set differences for every copy, sorted each swap's
operands and found each t1 path by a breadth-first search
(`walk_oracles.oracle_hyperpath`).  Until the edit, now `protocols._edit`,
trusted the edges `_operands` hands it, it sorted every removed edge again
and validated every added one (`oracle_edit`).
"""

import dataclasses
import os
import random
import subprocess
import sys
from bisect import bisect_left, insort
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import loccgraph
from loccgraph import (
    CatExpand,
    Discard,
    Hypergraph,
    MeasureOut,
    ProtocolTrace,
    Swap,
    apply_move,
    cat_state,
    copies,
    legal_moves,
    make_trace,
    parse_hypergraph,
    path_tree,
    random_spanning_tree,
    reachability_search,
    star_tree,
    trees_copies_to_tree,
)
from loccgraph import protocols
from loccgraph.cli import dumps
from loccgraph.errors import IllegalMove, InputError, LoccError, require
from loccgraph.hypergraph import reach, tree_table

from walk_oracles import oracle_hyperpath


def oracle_size_total(h):
    return sum(len(e) for e in h.edges)


def oracle_replace(self, remove=(), add=()):
    pool = list(self.edges)
    for edge in remove:
        e = tuple(sorted(edge))
        try:
            pool.remove(e)
        except ValueError:
            raise IllegalMove(f"hyperedge {e} is not in the state") from None
    known = set(self.agents)
    for edge in add:
        insort(pool, self._canonical(edge, known))
    h = object.__new__(Hypergraph)
    object.__setattr__(h, "agents", self.agents)
    object.__setattr__(h, "edges", tuple(pool))
    return h


def oracle_copies(h, k):
    if k < 1:
        raise InputError("need at least one copy")
    return Hypergraph(h.agents, h.edges * k)


def oracle_make_trace(start, moves):
    """The old trace builder: every move's operands applied to a new state
    by the list-remove `oracle_replace`, never through `protocols._edit`."""
    state = start
    for move in moves:
        nxt = oracle_replace(state, *protocols._operands(move))
        if not oracle_size_total(nxt) < oracle_size_total(state):
            raise AssertionError("every move shrinks the state")
        state = nxt
    return ProtocolTrace(start=start, moves=tuple(moves), end=state)


def stepwise_make_trace(start, moves):
    """The trace builder before it replayed on one edge list: one
    `apply_move` per move, each through a new state."""
    moves = tuple(moves)
    state, size = start, start.size_total
    for move in moves:
        state = apply_move(state, move)
        shrunk = state.size_total
        require(shrunk < size, "every move shrinks the state")
        size = shrunk
    return ProtocolTrace(start=start, moves=moves, end=state)


def oracle_copies_protocol(t1, t2):
    """The copies protocol's start and moves as they were built before its
    filters: set differences sorted for every copy, each swap's operands
    sorted and its junction popped from a set."""
    missing = sorted(set(t2.edges) - set(t1.edges))
    moves = [Discard(e) for e in sorted(set(t1.edges) - set(t2.edges))]
    for a, b in missing:
        path_edges, junctions = oracle_hyperpath(t1, a, b)
        path = [a, *junctions, b]
        current = path_edges[0]
        for nxt in path[2:]:
            junction = (set(current) - {a}).pop()
            moves.append(Swap(left=current, right=tuple(sorted((junction, nxt)))))
            current = tuple(sorted((a, nxt)))
        moves += [Discard(e) for e in sorted(set(t1.edges) - set(path_edges))]
    return copies(t1, len(missing) + 1), moves


def _outcome(fn, *args):
    """The value of a call, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (LoccError, AssertionError) as exc:
        return type(exc), str(exc)


def _same_value(h):
    """`h` is the value the validated constructor builds from its parts."""
    built = Hypergraph(h.agents, h.edges)
    assert type(h) is Hypergraph
    assert (h.agents, h.edges) == (built.agents, built.edges)
    assert h == built and hash(h) == hash(built)
    assert h.size_total == sum(len(e) for e in h.edges)


@st.composite
def states(draw, max_n=7):
    """A state over 1..max_n arbitrary labels whose hyperedges, drawn from a
    small pool, repeat often."""
    agents = tuple(sorted(draw(st.sets(st.integers(-5, 40), min_size=2, max_size=max_n))))
    edge = st.lists(st.sampled_from(agents), min_size=2, max_size=min(len(agents), 5),
                    unique=True)
    pool = draw(st.lists(edge, min_size=1, max_size=5))
    return Hypergraph(agents, tuple(draw(st.lists(st.sampled_from(pool), max_size=12))))


def _walk(state, rng, length):
    """Up to `length` legal moves, each chosen at random in the state it
    meets."""
    moves = []
    for _ in range(length):
        options = legal_moves(state)
        if not options:
            break
        moves.append(rng.choice(options))
        state = apply_move(state, moves[-1])
    return moves


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(states(), st.integers(0, 10 ** 6), st.integers(0, 12))
def test_traces_match_the_oracle(start, seed, length):
    moves = _walk(start, random.Random(seed), length)
    got, expected = make_trace(start, moves), oracle_make_trace(start, moves)
    assert got == expected
    _same_value(got.end)


@settings(max_examples=300, deadline=None)
@given(states(), states(), st.integers(0, 10 ** 6), st.integers(0, 8))
def test_a_trace_broken_by_a_foreign_move_fails_like_the_oracle(start, other, seed, length):
    # legal moves of another state are often illegal here: absent operands,
    # a member outside the hyperedge, labels of the wrong agents
    rng = random.Random(seed)
    moves = _walk(start, rng, length)
    foreign = legal_moves(other)
    if foreign:
        moves.insert(rng.randrange(len(moves) + 1), rng.choice(foreign))
    assert _outcome(make_trace, start, moves) == _outcome(oracle_make_trace, start, moves)


@settings(max_examples=300, deadline=None)
@given(states(), states(), st.integers(1, 3), st.integers(0, 10 ** 6), st.integers(0, 12),
       st.booleans())
def test_the_one_list_replay_matches_the_stepwise_oracle(h, other, k, seed, length, foreign):
    # walks from a state and from its copies, legal or broken by a move of
    # another state: the same trace, or the same error type and text
    rng = random.Random(seed)
    for start in (h, copies(h, k)):
        moves = _walk(start, rng, length)
        if foreign and (options := legal_moves(other)):
            moves.insert(rng.randrange(len(moves) + 1), rng.choice(options))
        got = _outcome(make_trace, start, moves)
        assert got == _outcome(stepwise_make_trace, start, moves)
        if isinstance(got, ProtocolTrace):
            _same_value(got.end)


def _holds_agents_and_edges_alone(state):
    """Walked and tabled, the state still holds its agents and edges and
    nothing else."""
    reach(state, state.agents[-1])
    tree_table(state)
    assert vars(state).keys() == {"agents", "edges"}


@settings(max_examples=300, deadline=None)
@given(states(), st.integers(1, 4), st.integers(0, 10 ** 6), st.integers(0, 16))
def test_states_carry_no_size_and_sum_their_edges(h, k, seed, length):
    # `copies`, every move, a trace's end and a parsed file build a state
    # from its agents and edges alone; its size is read from its edges
    rng = random.Random(seed)
    label = {a: i for i, a in enumerate(h.agents, 1)}
    text = f"agents: {h.n}\n" + "".join(f"cat: {' '.join(str(label[a]) for a in e)}\n"
                                        for e in h.edges)
    _holds_agents_and_edges_alone(parse_hypergraph(text))
    for start in (h, copies(h, k)):
        state, moves = start, []
        for _ in range(length + 1):
            _holds_agents_and_edges_alone(state)
            assert state.size_total == oracle_size_total(state)
            options = legal_moves(state)
            if not options:
                break
            moves.append(rng.choice(options))
            state = apply_move(state, moves[-1])
        _holds_agents_and_edges_alone(make_trace(start, moves).end)


def test_a_generator_of_moves_is_kept_in_the_trace():
    moves = [MeasureOut(edge=(1, 2, 3), agent=2)]
    start = Hypergraph((1, 2, 3), ((1, 2, 3),))
    assert make_trace(start, iter(moves)).moves == tuple(moves)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_copies_protocols_match_the_oracle(n):
    for t1, t2 in ((path_tree(n), star_tree(n)), (star_tree(n), path_tree(n))):
        trace = trees_copies_to_tree(t1, t2)
        start = oracle_copies(t1, len(set(t1.edges) - set(t2.edges)) + 1)
        assert trace == oracle_make_trace(start, trace.moves)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 15), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.sampled_from(["random", "equal", "star-path", "path-star"]))
def test_the_copies_protocol_builds_the_oracle_moves(n, seed1, seed2, kind):
    # equal trees give QD = 0: one copy and no moves
    t1, t2 = random_spanning_tree(n, seed1), random_spanning_tree(n, seed2)
    t1, t2 = {"random": (t1, t2), "equal": (t1, t1), "star-path": (star_tree(n), path_tree(n)),
              "path-star": (path_tree(n), star_tree(n))}[kind]
    start, moves = oracle_copies_protocol(t1, t2)
    trace = trees_copies_to_tree(t1, t2)
    assert (trace.start, trace.moves, trace.end) == (start, tuple(moves), t2)
    assert dumps(trace) == dumps(ProtocolTrace(start, tuple(moves), t2))


def test_a_move_that_keeps_its_state_is_caught_under_optimize_flag(tmp_path):
    # the size check compares the real sizes: a move rewrite that changes
    # nothing must fail it, with or without assert statements
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("agents: 3\ncat: 1 2\ncat: 1 3\n")
    b.write_text("agents: 3\ncat: 1 3\ncat: 2 3\n")
    script = (
        "import sys\n"
        "import loccgraph.protocols as protocols\n"
        "import loccgraph.cli as cli\n"
        "assert False, 'assert statements must be stripped under -O'\n"
        "protocols._operands = lambda move: ((), ())\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(loccgraph.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-O", "-c", script, "distance", str(a), str(b)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 4, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "internal inconsistency: every move shrinks the state\n"


# ---------------------------------------------------------------------------
# removed edges: the edit a move makes
# ---------------------------------------------------------------------------

def test_replace_keeps_the_absent_edge_message_for_labels_of_another_type():
    # a removed edge whose labels do not compare with the state's is absent
    h = Hypergraph(("a", "b", "c"), (("a", "b"), ("b", "c")))
    for moves in ([Discard((1, 2))], [Discard(("b", "c")), Discard((2, 1))]):
        with pytest.raises(IllegalMove) as info:
            apply_move(h, moves[-1])
        assert str(info.value) == "hyperedge (1, 2) is not in the state"
        expected = (IllegalMove, str(info.value))
        assert _outcome(make_trace, h, moves) == _outcome(oracle_make_trace, h, moves) \
            == expected


def test_replace_removes_one_instance_of_a_repeated_edge():
    h = Hypergraph((1, 2, 3), ((1, 2), (1, 2), (1, 2), (2, 3)))
    moves = [Discard((2, 1)), Discard((1, 2))]
    assert make_trace(h, moves).end.edges == ((1, 2), (2, 3))
    assert apply_move(h, moves[0]).edges == ((1, 2), (1, 2), (2, 3))
    assert apply_move(h, Swap(left=(1, 2), right=(2, 3))).edges == ((1, 2), (1, 2), (1, 3))


# ---------------------------------------------------------------------------
# copies
# ---------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(states(), st.integers(-1, 5))
def test_copies_match_validated_construction(h, k):
    got = _outcome(copies, h, k)
    assert got == _outcome(oracle_copies, h, k)
    if isinstance(got, Hypergraph):
        _same_value(got)
        assert got.edges == oracle_copies(h, k).edges


# ---------------------------------------------------------------------------
# trusted edits: `_operands` checks a move once, and `_edit` trusts its edges
# ---------------------------------------------------------------------------

def oracle_edit(self, pool, remove=(), add=()):
    """`protocols._edit` before it trusted its edges: it sorted every removed
    edge again and validated every added edge against the state's agents."""
    change = 0
    for edge in remove:
        e = tuple(sorted(edge))
        try:
            i = bisect_left(pool, e)
        except TypeError:  # labels that do not compare with the state's
            i = len(pool)
        if i == len(pool) or pool[i] != e:
            raise IllegalMove(f"hyperedge {e} is not in the state")
        del pool[i]
        change -= len(e)
    if add:
        known = set(self.agents)
        for edge in add:
            insort(pool, e := self._canonical(edge, known))
            change += len(e)
    return change


def edit_make_trace(start, moves):
    """The trace builder before it held one agent set for the trace: the
    validating edit built the set again for every move that adds an edge,
    and the size test was a `require` call per move."""
    moves = tuple(moves)
    pool = list(start.edges)
    for move in moves:
        require(oracle_edit(start, pool, *protocols._operands(move)) < 0,
                "every move shrinks the state")
    return ProtocolTrace(start=start, moves=moves, end=start.edited(pool))


def oracle_apply_move(state, move):
    """`apply_move` before it trusted its edges: the validating edit on a copy
    of the state's edges, built into a state by the validating constructor."""
    pool = list(state.edges)
    oracle_edit(state, pool, *protocols._operands(move))
    return Hypergraph(state.agents, tuple(pool))


def any_moves(agents):
    """Moves of every kind over the state's labels and others, legal or not:
    unsorted, repeated or foreign members, edges of any size, and values
    that are no move at all."""
    label = st.sampled_from(agents) | st.integers(-6, 45)
    edge = st.lists(label, max_size=4).map(tuple)
    return st.one_of(
        st.builds(Discard, edge), st.builds(MeasureOut, edge, label),
        st.builds(Swap, edge, edge), st.builds(CatExpand, edge, edge),
        st.sampled_from(["teleport", None, ((1, 2),)]))


def _reordered(move, rng):
    """The move with the members of each of its edges in a random order."""
    def mix(value):
        if not isinstance(value, tuple):
            return value
        members = list(value)
        rng.shuffle(members)
        return tuple(members)
    return type(move)(*(mix(getattr(move, f.name)) for f in dataclasses.fields(move)))


@settings(max_examples=500, deadline=None)
@given(states(), st.integers(1, 3), st.integers(0, 10 ** 6), st.integers(0, 12), st.data())
def test_replay_matches_the_per_move_agent_set_oracle(h, k, seed, length, data):
    # a legal walk from the state or its copies, with arbitrary moves put
    # in anywhere: the same trace, or the same error type and text
    rng = random.Random(seed)
    start = data.draw(st.sampled_from([h, copies(h, k)]))
    moves = _walk(start, rng, length)
    for move in data.draw(st.lists(any_moves(start.agents), max_size=3)):
        moves.insert(rng.randrange(len(moves) + 1), move)
    got = _outcome(make_trace, start, moves)
    assert got == _outcome(edit_make_trace, start, moves)
    if isinstance(got, ProtocolTrace):
        _same_value(got.end)


@settings(max_examples=200, deadline=None)
@given(states(), st.integers(1, 3), st.integers(0, 10 ** 6), st.integers(0, 8), st.data())
def test_apply_move_matches_the_validating_edit_oracle(h, k, seed, length, data):
    # every legal move of each state on a walk from the state or its copies,
    # also with the members of its edges reordered, and arbitrary moves: the
    # same state, or the same error type and text
    rng = random.Random(seed)
    state = data.draw(st.sampled_from([h, copies(h, k)]))
    for _ in range(length + 1):
        options = legal_moves(state)
        others = data.draw(st.lists(any_moves(state.agents), max_size=3))
        for move in [*options, *(_reordered(m, rng) for m in options), *others]:
            got = _outcome(apply_move, state, move)
            assert got == _outcome(oracle_apply_move, state, move)
            if isinstance(got, Hypergraph):
                _same_value(got)
        if not options:
            break
        state = apply_move(state, rng.choice(options))


@pytest.mark.parametrize("operands", [
    lambda move: ((), ()),                                     # keeps the state
    lambda move: ((move.edge,), (move.edge,)),                 # swaps an edge for itself
    lambda move: ((move.edge,), (move.edge, move.edge[:2])),   # grows the state
])
def test_a_move_that_does_not_shrink_fails_like_the_oracle(monkeypatch, operands):
    start = Hypergraph((1, 2, 3), ((1, 2, 3), (1, 2)))
    moves = [Discard((1, 2)), Discard((1, 2, 3))]
    monkeypatch.setattr(protocols, "_operands", operands)
    expected = (AssertionError, "every move shrinks the state")
    assert _outcome(make_trace, start, moves) == _outcome(edit_make_trace, start, moves) \
        == expected


def test_a_legal_move_validates_no_edge():
    # neither a trace nor a search validates an edge a move adds, while the
    # constructor still does
    t1, t2, source, target, h = path_tree(9), star_tree(9), star_tree(5), cat_state(5), \
        path_tree(3)
    with mock.patch.object(Hypergraph, "_canonical", autospec=True,
                           side_effect=Hypergraph._canonical) as canonical, \
            mock.patch.object(protocols, "apply_move", wraps=protocols.apply_move) as applied:
        trace = trees_copies_to_tree(t1, t2)
        found = reachability_search(source, target)
        assert canonical.call_count == 0
        Hypergraph(h.agents, ((1, 3),))
    assert len(trace.moves) > 1 and found is not None and applied.call_count > 1
    assert canonical.call_count == 1
