"""Acceptance gate: eight cross-checks, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  Every discrete quantity (dimension, key set, membership,
exit condition) is compared exactly; the only floating-point comparisons are
dense-matrix identities involving sqrt(2) rotations, at numpy defaults.
"""

import random

import numpy as np

import oracles
from dlagraph.closure import lie_closure
from dlagraph.catalog import LABELS, place_on_graph
from dlagraph.classify import classify
from dlagraph.graphs import (
    bipartition,
    build_graph,
    complete_bipartite,
    complete_graph,
    enumerate_connected_graphs,
    is_connected,
    max_degree,
)
from dlagraph.pauli import (
    commutator,
    commutes,
    multiply,
    parse_pauli,
    quarter_congruence,
    quarter_conjugate,
    transpose_sign,
)
from dlagraph.suites import (
    all_passed,
    suite_appendix_complete,
    suite_equivalence,
    suite_frustration,
    suite_involution,
    suite_theorem1,
)


def report(num, name, ok, detail=""):
    tail = f" | {detail}" if detail else ""
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _failures(cases):
    return "; ".join(f"{c.name}: {c.detail}" for c in cases if not c.passed)


def test_criterion_1_structure_tables_branched_graphs():
    cases = suite_theorem1(6)
    assert len(cases) == (4 + 19 + 110) * 12
    report(1, "branched-graph structure tables, n=4..6", all_passed(cases),
           _failures(cases) or f"{len(cases)} cells")


def test_criterion_1_seven_vertex_sample():
    # a fixed sample, every 85th of the 851 branched 7-vertex graphs, chosen
    # before any result; `dlagraph verify theorem1 --max-n 7` runs all of them
    sample = enumerate_connected_graphs(7, min_max_degree=3)[::85]
    assert len(sample) == 11
    bad = []
    for idx, g in enumerate(sample):
        for label in LABELS:
            predicted = classify(g, label).total_dim
            actual = lie_closure(place_on_graph(label, g)).dimension
            if predicted != actual:
                bad.append(f"graph#{85 * idx:03d} {label}: predicted {predicted}, "
                           f"closure {actual}, edges {list(g.edges)}")
    report(1, "branched-graph structure tables, n=7 sample", not bad,
           "; ".join(bad) or f"{len(sample) * len(LABELS)} cells")


def test_criterion_2_structure_tables_complete_graphs():
    cases = suite_appendix_complete(6)
    assert len(cases) == 4 * 12
    report(2, "complete-graph structure tables, n=3..6", all_passed(cases),
           _failures(cases) or f"{len(cases)} cells")


def test_criterion_3_reduction_preserves_closures():
    cases = suite_equivalence()
    report(3, "reduction moves preserve closures as sets", all_passed(cases),
           _failures(cases) or f"{len(cases)} pairs")


def test_criterion_4_frustration_certificates():
    cases = suite_frustration()
    report(4, "frustration walks vs closure membership", all_passed(cases),
           _failures(cases) or f"{len(cases)} claims")


def test_criterion_5_involution_fixed_points():
    cases = suite_involution(6)
    assert len(cases) == 30
    recorded = sum("out of hypothesis" in c.detail for c in cases)
    report(5, "involution fixed points vs block closures", all_passed(cases),
           _failures(cases) or f"{len(cases)} shapes, {recorded} outside the closed form")


def _random_pauli(rng, n):
    word = "".join(rng.choice("IXYZ") for _ in range(n))
    return parse_pauli(rng.choice(["", "i", "-", "-i"]) + word)


def test_criterion_6_pauli_engine_vs_dense_matrices():
    rng = random.Random(20260813)
    cases = 10000
    bad = 0
    for _ in range(cases):
        n = rng.randint(1, oracles.MAX_DENSE_QUBITS)
        a = _random_pauli(rng, n)
        b = _random_pauli(rng, n)
        ma = oracles.word_matrix(a.letters(), a.phase_exp)
        mb = oracles.word_matrix(b.letters(), b.phase_exp)
        prod = multiply(a, b)
        ok = np.array_equal(ma @ mb, oracles.word_matrix(prod.letters(), prod.phase_exp))
        ok = ok and commutes(a, b) == np.array_equal(ma @ mb, mb @ ma)
        lie = commutator(a, b)
        if lie is None:
            ok = ok and np.array_equal(ma @ mb - mb @ ma, np.zeros_like(ma))
        else:
            ok = ok and np.array_equal(
                ma @ mb - mb @ ma,
                2 * oracles.word_matrix(lie.letters(), lie.phase_exp),
            )
        ok = ok and np.array_equal(ma.T, transpose_sign(a) * ma)
        if not a.is_identity and a.phase_exp % 2 == 0:
            rot = oracles.quarter_rotation(ma)
            conj = quarter_conjugate(a, b)
            ok = ok and np.allclose(
                rot @ mb @ rot.conj().T,
                oracles.word_matrix(conj.letters(), conj.phase_exp),
            )
            cong = quarter_congruence(a, b)
            ok = ok and np.allclose(
                rot @ mb @ rot.T,
                oracles.word_matrix(cong.letters(), cong.phase_exp),
            )
        bad += not ok
    report(6, "string engine vs dense matrices", bad == 0,
           f"{bad} mismatches in {cases} random cases")


def _swap_keys(result, mask, kind):
    n = result.n
    low = (1 << n) - 1
    out = set()
    for k in result.order:
        x, z = k >> n, k & low
        if kind == "xy":  # X <-> Y fixing Z on masked sites
            z ^= x & mask
        else:  # Y <-> Z fixing X on masked sites
            x ^= z & mask
        out.add((x << n) | z)
    return out


def _random_bipartite_branched(rng):
    while True:
        n = rng.randint(4, 6)
        l = rng.randint(1, n - 1)
        pairs = [(u, v) for u in range(l) for v in range(l, n)]
        edges = rng.sample(pairs, rng.randint(n - 1, len(pairs)))
        g = build_graph(n, edges)
        if is_connected(g) and max_degree(g) >= 3:
            return g


def test_criterion_7_bipartite_letter_swap_isomorphisms():
    rng = random.Random(97)
    bad = []
    for i in range(20):
        g = _random_bipartite_branched(rng)
        mask = sum(1 << v for v in bipartition(g).left)
        c2 = lie_closure(place_on_graph("a2", g))
        c4 = lie_closure(place_on_graph("a4", g))
        c6 = lie_closure(place_on_graph("a6", g))
        c7 = lie_closure(place_on_graph("a7", g))
        ok = (
            c2.dimension == c4.dimension
            and c6.dimension == c7.dimension
            and _swap_keys(c2, mask, "xy") == set(c4.keys)
            and _swap_keys(c6, mask, "yz") == set(c7.keys)
        )
        if not ok:
            bad.append(f"graph {i} edges {list(g.edges)}")
    report(7, "one-sided letter swaps map closures onto each other", not bad,
           "; ".join(bad) or "20 random bipartite branched graphs")


def _random_connected(rng):
    while True:
        n = rng.randint(2, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(min(len(pairs), n - 1), len(pairs)))
        g = build_graph(n, edges)
        if is_connected(g):
            return g


def test_criterion_8_closed_forms_and_exponential_floor():
    rng = random.Random(131)
    bad = []
    for i in range(20):
        g = _random_connected(rng)
        n, e = g.n, g.edge_count
        for label, want in (("a0", e), ("b0", n), ("b1", n + e), ("b3", 3 * n)):
            got = lie_closure(place_on_graph(label, g)).dimension
            if got != want:
                bad.append(f"graph {i} {label}: {got} != {want}")
    # every 2-design-capable label grows at least like the smallest table entry,
    # 4 * dim so(2^(n-2)) = 480 at n = 6
    floor = 4 * ((1 << 4) * ((1 << 4) - 1) // 2)
    assert floor == 480
    for g, name in (
        (complete_bipartite(1, 5), "K_{1,5}"),
        (complete_bipartite(2, 4), "K_{2,4}"),
        (complete_graph(6), "K_6"),
    ):
        for label in ("a2", "a4", "a6", "a7", "a14", "a16", "a20", "a22"):
            got = lie_closure(place_on_graph(label, g)).dimension
            if got < floor:
                bad.append(f"{name} {label}: {got} < {floor}")
    report(8, "linear closed forms and exponential floor", not bad,
           "; ".join(bad) or f"20 random graphs; floor {floor} at n=6")
