"""Each checker accepts a right answer and rejects a wrong one.

    python3 -m pytest bench/test_checks.py
"""

import random
import sys
from pathlib import Path

import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def keys(*words):
    return [checks.key_of(w) for w in words]


SIGMA = checks.graph_of_spec("Sigma")
OMEGA = checks.graph_of_spec("Omega")


@pytest.mark.parametrize("label, spec, dim", [
    ("a2", "Sigma", 120),     # bipartite 3+2: so(16)
    ("a4", "Omega", 60),      # odd cycle, n even: su(4)^4
    ("a14", "Kb:3,3", 1056),  # bipartite 3+3: sp(16)^2
    ("a14", "Kb:2,4", 992),   # bipartite 2+4: so(32)^2
    ("a6", "K:5", 510),       # complete: su(16)^2
    ("a22", "K:5", 1023),     # su(32)
    ("a16", "L:5", 496),      # graph-independent label on a line: so(32)
    ("a0", "Sigma", 4),
    ("b1", "Omega", 8),
    ("b3", "K:3", 9),
])
def test_dimension_formula(label, spec, dim):
    n, edges = checks.graph_of_spec(spec)
    assert checks.dimension_problem(label, n, edges, dim) is None
    assert checks.dimension_problem(label, n, edges, dim + 1) is not None
    assert checks.dimension_problem(label, n, edges, dim - 1) is not None


def test_no_formula_for_lines_with_graph_dependent_labels():
    n, edges = checks.graph_of_spec("L:5")
    with pytest.raises(ValueError):
        checks.expected_dim("a2", n, edges)


def test_closure_check_rejects_a_missing_bracket():
    gens = keys("XX", "YY", "ZI")
    basis = list(checks.shortest_walks(gens, 2))
    assert checks.closure_problem(gens, basis, 2, random.Random(0), sample=len(basis)) is None
    for dropped in basis:
        if dropped in gens:
            continue
        short = [k for k in basis if k != dropped]
        assert checks.closure_problem(gens, short, 2, random.Random(0), sample=len(short)) is not None
    assert checks.closure_problem(gens, basis + basis[:1], 2, random.Random(0)) is not None


def test_replay_rejects_an_illegal_toggle():
    gens = keys("XX", "YY", "ZI")
    # ZI anticommutes with XX, so toggling it onto {XX} is legal; YY commutes with XX
    assert checks.replay_problem(gens, 2, 0, [2], 0b101, checks.key_of("YX")) is None
    assert checks.replay_problem(gens, 2, 0, [1], 0b011, checks.key_of("ZZ")) is not None


def test_replay_rejects_a_wrong_product_or_coloring():
    gens = keys("XX", "YY", "ZI")
    assert checks.replay_problem(gens, 2, 0, [2], 0b101, checks.key_of("YY")) is not None
    assert checks.replay_problem(gens, 2, 0, [2], 0b100, checks.key_of("YX")) is not None


def test_certificate_rejects_a_trace_one_step_longer_than_the_shortest():
    # YI is itself a generator (0 toggles) and also the product of XI and ZI
    gens = keys("XI", "ZI", "YI")
    dist = checks.shortest_walks(gens, 2)
    target = checks.key_of("YI")
    assert checks.certificate_problem(gens, 2, dist, target, (2, [], 0b100)) is None
    assert checks.replay_problem(gens, 2, 0, [1], 0b011, target) is None
    assert checks.certificate_problem(gens, 2, dist, target, (0, [1], 0b011)) is not None


def test_certificate_rejects_a_wrong_membership_answer():
    gens = keys("XX", "YY", "ZI")
    dist = checks.shortest_walks(gens, 2)
    assert checks.certificate_problem(gens, 2, dist, checks.key_of("YX"), None) is not None
    unreachable = checks.key_of("ZZ")  # XX*YY, but XX and YY commute
    assert unreachable not in dist
    assert checks.certificate_problem(gens, 2, dist, unreachable, None) is None
    assert checks.certificate_problem(gens, 2, dist, unreachable, (0, [1], 0b011)) is not None


def test_shortest_walks_is_the_closure():
    # the su(2) on one site: X, Z generate Y after one toggle
    dist = checks.shortest_walks(keys("X", "Z"), 1)
    assert dist == {checks.key_of("X"): 0, checks.key_of("Z"): 0, checks.key_of("Y"): 1}


def test_encodings_agree_with_dlagraph():
    from dlagraph.graphs import graph_from_spec
    from dlagraph.pauli import parse_pauli

    for word in ("XIZ", "YYIX", "IZ"):
        assert checks.key_of(word) == parse_pauli(word).key
    for spec in ("Sigma", "Omega", "K:4", "Kb:2,3", "L:5", "C:6"):
        n, edges = checks.graph_of_spec(spec)
        g = graph_from_spec(spec)
        assert (n, {tuple(sorted(e)) for e in edges}) == (g.n, set(g.edges))
