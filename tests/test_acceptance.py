"""Acceptance suite: one test per criterion, exact checks, stated budgets.

Each test prints a single pass line (visible with ``pytest -s``); pytest -v
additionally reports one pass/fail line per criterion.
"""

import itertools
import random
import time

from loccgraph import (
    Bicoloring,
    Hypergraph,
    bcm_cut,
    cat_copies_to_tree,
    cat_state,
    check_order_chain,
    copies,
    distance_report,
    find_blocking_witness,
    find_saturating_pairs,
    find_separating_pair,
    is_entangled_hypertree,
    legal_moves,
    min_copies_lower_bound,
    pendant_vertices,
    quantum_distance,
    reachability_search,
    replay_trace,
    uniformity,
    witness_cat_vs_disconnected,
    witness_disconnected_vs_cat,
    witness_distinct_spanning_trees,
    witness_pendant_condition,
    witness_r_uniform_hypertrees,
)
from loccgraph.enumeration import (
    all_spanning_trees,
    random_r_uniform_hypertree,
    random_spanning_tree,
)
from loccgraph.protocols import apply_move


def H(n, *edges):
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


def report(name, elapsed, budget=None):
    budget_note = f" (budget {budget:.0f}s)" if budget else ""
    print(f"PASS {name}: {elapsed:.2f}s{budget_note}")
    if budget is not None:
        assert elapsed < budget


def valid_witness(w, source, target):
    assert w.target_cut > w.source_cut
    assert bcm_cut(source, w.coloring) == w.source_cut
    assert bcm_cut(target, w.coloring) == w.target_cut


def test_criterion_01_ghz_irreversibility(judge_pair, rederive):
    start = time.perf_counter()
    ghz = cat_state(3)
    two_epr = H(3, (1, 3), (2, 3))
    forward, backward, classification = judge_pair(ghz, two_epr)
    witness = rederive(forward["witness"], ghz, two_epr)
    assert (witness.source_cut, witness.target_cut) == (1, 2)
    assert reachability_search(ghz, two_epr) is None
    trace = backward["trace"]
    assert replay_trace(trace) == ghz and trace.start == two_epr and len(trace.moves) == 1
    assert classification == "strictly_below"
    report("criterion 1 (GHZ irreversibility)", time.perf_counter() - start, budget=1.0)


def test_criterion_02_order_chains():
    start = time.perf_counter()
    for n in (3, 4, 5, 6):
        chain = check_order_chain(n)
        for link in (chain.pair_vs_cat, chain.cat_vs_tree, chain.pair_vs_tree):
            assert replay_trace(link.downgrade) == link.lower
            valid_witness(link.obstruction, link.lower, link.upper)
    report("criterion 2 (order chains n=3..6)", time.perf_counter() - start, budget=5.0)


def test_criterion_03_spanning_tree_incomparability():
    start = time.perf_counter()
    for n, expect_pairs in ((4, 120), (5, 7750)):
        trees = list(all_spanning_trees(n))
        pairs = 0
        for t1, t2 in itertools.combinations(trees, 2):
            pairs += 1
            for a, b in ((t1, t2), (t2, t1)):
                split, constructive = witness_distinct_spanning_trees(a, b)
                valid_witness(constructive, a, b)
                assert find_blocking_witness(a, b) is not None
        assert pairs == expect_pairs
    report("criterion 3 (tree incomparability n=4,5)",
           time.perf_counter() - start, budget=60.0)


def test_criterion_04_tree_count():
    start = time.perf_counter()
    for n, expected in ((3, 3), (4, 16), (5, 125), (6, 1296)):
        trees = list(all_spanning_trees(n))
        assert len(trees) == expected
        assert len(set(trees)) == expected
    report("criterion 4 (tree counts)", time.perf_counter() - start)


def test_criterion_05_copy_bound():
    start = time.perf_counter()
    for n in range(3, 8):
        if n <= 5:
            trees = list(all_spanning_trees(n))
        else:
            trees = [random_spanning_tree(n, seed) for seed in range(25)]
        for t in trees:
            assert min_copies_lower_bound(cat_state(n), t) == n - 1
            trace = cat_copies_to_tree(t)
            assert trace.start == copies(cat_state(n), n - 1)
            assert replay_trace(trace) == t
    report("criterion 5 (copy bound n=3..7)", time.perf_counter() - start, budget=30.0)


def _random_disconnected(rng, n):
    cut = rng.randint(2, n - 2)
    groups = (list(range(1, cut + 1)), list(range(cut + 1, n + 1)))
    edges = set()
    while len(edges) < 2:
        for part in groups:
            if len(part) < 2:
                continue
            for _ in range(rng.randint(1, len(part))):
                edges.add(tuple(sorted(rng.sample(part, 2))))
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


def test_criterion_06_disconnected_graphs():
    start = time.perf_counter()
    rng = random.Random(2024)
    for n in range(4, 9):
        for _ in range(50):
            g = _random_disconnected(rng, n)
            w = witness_disconnected_vs_cat(g)
            valid_witness(w, g, cat_state(n))
            fwd, bwd = witness_cat_vs_disconnected(g)
            valid_witness(fwd, cat_state(n), g)
            valid_witness(bwd, g, cat_state(n))
    report("criterion 6 (disconnected graphs)", time.perf_counter() - start)


def test_criterion_07_pendant_condition():
    start = time.perf_counter()
    produced = 0
    seed = 0
    while produced < 200:
        r = 3 if seed % 3 else 4
        h1 = random_r_uniform_hypertree(7, r, seed=seed)
        h2 = random_r_uniform_hypertree(7, r, seed=seed + 10 ** 7)
        seed += 1
        p1, p2 = pendant_vertices(h1), pendant_vertices(h2)
        if not (p1 - p2) or not (p2 - p1):
            continue
        produced += 1
        w12, w21 = witness_pendant_condition(h1, h2)
        valid_witness(w12, h1, h2)
        valid_witness(w21, h2, h1)
        assert find_blocking_witness(h1, h2) is not None
        assert find_blocking_witness(h2, h1) is not None
    report("criterion 7 (pendant condition, 200 pairs)", time.perf_counter() - start)


def test_criterion_08_r_uniform_hypertrees(judge_pair, rederive):
    start = time.perf_counter()
    configs = ((3, 5), (3, 7), (3, 9), (4, 7), (4, 10))
    for r, n in configs:
        produced = 0
        attempt = 0
        while produced < 200:
            base = 10 ** 6 * r + 10 ** 4 * n
            h1 = random_r_uniform_hypertree(n, r, seed=base + 2 * attempt)
            h2 = random_r_uniform_hypertree(n, r, seed=base + 2 * attempt + 1)
            attempt += 1
            if h1 == h2:
                continue
            produced += 1
            pair = find_separating_pair(h1, h2)
            assert any(pair.u in e and pair.v in e for e in h2.edges)
            assert not any(pair.u in e and pair.v in e for e in h1.edges)
            fwd, bwd = witness_r_uniform_hypertrees(h1, h2)
            valid_witness(fwd, h1, h2)
            valid_witness(bwd, h2, h1)
            forward, backward, classification = judge_pair(h1, h2)
            rederive(forward["witness"], h1, h2)
            rederive(backward["witness"], h2, h1)
            assert classification == "incomparable"
    report("criterion 8 (r-uniform hypertrees, 5x200 pairs)",
           time.perf_counter() - start, budget=120.0)


def test_criterion_09_hypertree_edge_count_law():
    start = time.perf_counter()
    for r in (2, 3, 4, 5):
        for m in (1, 2, 3, 4, 5, 6):
            n = m * (r - 1) + 1
            if n < r:
                continue
            for seed in range(10):
                h = random_r_uniform_hypertree(n, r, seed=seed)
                assert is_entangled_hypertree(h)
                assert uniformity(h) == r
                assert len(h.edges) * (r - 1) + 1 == h.n
    report("criterion 9 (edge-count law r=2..5)", time.perf_counter() - start)


def test_criterion_10_quantum_distance():
    start = time.perf_counter()
    rng = random.Random(31337)
    for n in range(4, 10):
        for _ in range(1000):
            a = random_spanning_tree(n, rng.randrange(10 ** 9))
            b = random_spanning_tree(n, rng.randrange(10 ** 9))
            c = random_spanning_tree(n, rng.randrange(10 ** 9))
            assert quantum_distance(a, b) >= 0
            assert (quantum_distance(a, b) == 0) == (a == b)
            assert quantum_distance(a, b) == quantum_distance(b, a)
            assert quantum_distance(a, c) <= quantum_distance(a, b) + quantum_distance(b, c)
    produced = 0
    while produced < 500:
        n = rng.randint(4, 8)
        t1 = random_spanning_tree(n, rng.randrange(10 ** 9))
        t2 = random_spanning_tree(n, rng.randrange(10 ** 9))
        if t1 == t2:
            continue
        produced += 1
        rep = distance_report(t1, t2)
        assert 2 <= rep.copies_lower <= rep.copies_upper == rep.qd + 1
        assert replay_trace(rep.upper_trace) == t2
    low, high = find_saturating_pairs(3)
    assert distance_report(*low).copies_lower == 2
    high_rep = distance_report(*high)
    assert high_rep.copies_lower == high_rep.copies_upper
    report("criterion 10 (distance metric and bounds)", time.perf_counter() - start)


def _random_state(rng):
    n = rng.randint(3, 7)
    edges = []
    for _ in range(rng.randint(1, 4)):
        k = rng.randint(2, min(4, n))
        edges.append(tuple(rng.sample(range(1, n + 1), k)))
    return Hypergraph(tuple(range(1, n + 1)), tuple(edges))


def test_criterion_11_soundness():
    start = time.perf_counter()
    rng = random.Random(424242)
    checked = 0
    while checked < 10 ** 4:
        state = _random_state(rng)
        moves = legal_moves(state)
        if not moves:
            continue
        checked += 1
        move = moves[rng.randrange(len(moves))]
        after = apply_move(state, move)
        mask = rng.randrange(1 << state.n)
        coloring = Bicoloring(
            state.agents,
            frozenset(a for i, a in enumerate(state.agents) if mask >> i & 1))
        assert bcm_cut(after, coloring) <= bcm_cut(state, coloring)
    # exclusivity: a witness and a trace must never coexist for a direction
    family = list(all_spanning_trees(4)) + [cat_state(4), H(4, (1, 2)), H(4, (1, 2), (3, 4))]
    for s, t in itertools.permutations(family, 2):
        witness = find_blocking_witness(s, t)
        trace = reachability_search(s, t, budget=10 ** 5)
        assert not (witness is not None and trace is not None)
    report("criterion 11 (soundness, 10^4 triples + exclusivity sweep)",
           time.perf_counter() - start)


def test_criterion_12_hypertree_pair_n15_ends_at_its_witnesses(tmp_path, capsys, rederive):
    import json

    from loccgraph import parse_hypergraph
    from loccgraph.cli import main

    start = time.perf_counter()
    assert main(["enumerate", "hypertrees", "--n", "15", "--r", "3",
                 "--count", "2", "--seed", "3"]) == 0
    docs = [d for d in capsys.readouterr().out.split("\n\n") if d.strip()]
    assert len(docs) == 2
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"h{i}.txt"
        path.write_text(doc)
        paths.append(str(path))
    assert main(["check", "--json", *paths]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["classification"] == "incomparable"
    h1, h2 = (parse_hypergraph(doc) for doc in docs)
    for key, (source, target) in (("forward", (h1, h2)), ("backward", (h2, h1))):
        rederive(result[key]["witness"], source, target)
    report("criterion 12 (n=15 r=3 hypertree check)",
           time.perf_counter() - start, budget=5.0)
