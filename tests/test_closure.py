import hashlib
import random

import numpy as np
import pytest

from dlagraph import closure
from dlagraph.catalog import ALTERNATIVES, LABELS, place_alternative, place_on_graph
from dlagraph.closure import (
    ClosureLimitError,
    closed_under,
    closure_equal,
    contains,
    lie_closure,
)
from dlagraph.graphs import (
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    line_graph,
    omega_graph,
    sigma_graph,
)
from dlagraph.pauli import parse_pauli

from oracles import assert_bracket_closed, assert_orbit_replays, lie_closure_dim_dense


# dimensions confirmed with the dense-matrix oracle before the engine existed
FROZEN_DIMS = [
    ("a2", complete_bipartite(1, 3), 30),
    ("b3", complete_graph(4), 12),
    ("a14", complete_graph(2), 6),
    ("a2", omega_graph(), 56),
    ("a14", complete_bipartite(1, 3), 72),
    ("a7", complete_graph(4), 60),
    ("a16", omega_graph(), 120),
]


@pytest.mark.parametrize("label,graph,expected", FROZEN_DIMS)
def test_frozen_dimensions(label, graph, expected):
    assert lie_closure(place_on_graph(label, graph)).dimension == expected


# polynomial closures on lines and cycles, the 1-D case (Wiersema et al.,
# arXiv:2309.05690); (line, cycle) dimensions for n sites
ONE_D_CLOSED_FORMS = {
    "a2": lambda n: (n * (n - 1), 2 * n * (n - 1)),
    "a4": lambda n: (n * (n - 1), n * (2 * n - 1) if n % 2 else 2 * n * (n - 1)),
    "a14": lambda n: (n * (2 * n - 1), 2 * n * (2 * n - 1)),
}


@pytest.mark.parametrize("n", [*range(3, 11), 17, 24, 31])
def test_one_dimensional_closed_forms(n):
    # up to the 31-qubit key width
    got = {
        label: tuple(lie_closure(place_on_graph(label, g)).dimension
                     for g in (line_graph(n), cycle_graph(n)))
        for label in ONE_D_CLOSED_FORMS
    }
    assert got == {label: dims(n) for label, dims in ONE_D_CLOSED_FORMS.items()}


def test_engine_matches_dense_oracle_small_cases():
    cases = [
        ("a0", complete_graph(3)),
        ("a2", complete_graph(3)),
        ("a6", complete_graph(3)),
        ("a16", complete_graph(3)),
        ("a22", complete_graph(3)),
        ("b1", line_graph(3)),
        ("a4", omega_graph()),
        ("a20", complete_bipartite(1, 3)),
        ("b0", omega_graph()),
    ]
    for label, graph in cases:
        gens = place_on_graph(label, graph)
        engine = lie_closure(gens).dimension
        dense = lie_closure_dim_dense([p.letters() for p in gens.members])
        assert engine == dense, (label, graph)


def test_engine_matches_dense_oracle_random_graphs():
    rng = random.Random(21)
    labels = ["a0", "a2", "a4", "a6", "a7", "a14", "b0", "b1", "b3"]
    trials = 0
    while trials < 8:
        n = rng.randint(2, 4)
        edges = [e for e in
                 [(i, j) for i in range(n) for j in range(i + 1, n)]
                 if rng.random() < 0.7]
        if not edges:
            continue
        graph = build_graph(n, edges)
        label = rng.choice(labels)
        gens = place_on_graph(label, graph)
        engine = lie_closure(gens).dimension
        dense = lie_closure_dim_dense([p.letters() for p in gens.members])
        assert engine == dense, (label, graph)
        trials += 1


def test_su_2n_ceiling_at_n6():
    r = lie_closure(place_on_graph("a22", complete_graph(6)))
    assert r.dimension == 4095  # su(2^6): every non-identity string


def test_generators_in_basis_and_identity_never():
    gens = place_on_graph("a14", omega_graph())
    r = lie_closure(gens)
    for p in gens.members:
        assert contains(r, p)
    assert not contains(r, parse_pauli("IIII"))
    assert parse_pauli("-IIII") not in r


def test_order_independence():
    gens = list(place_on_graph("a2", omega_graph()).members)
    base = lie_closure(gens)
    rng = random.Random(3)
    for _ in range(3):
        rng.shuffle(gens)
        assert closure_equal(lie_closure(gens), base)


def test_phase_insensitivity():
    gens = [parse_pauli("XY"), parse_pauli("YX")]
    flipped = [parse_pauli("-XY"), parse_pauli("iYX")]
    assert closure_equal(lie_closure(gens), lie_closure(flipped))


def test_idempotence():
    r = lie_closure(place_on_graph("a4", complete_bipartite(1, 3)))
    again = lie_closure(r.strings())
    assert closure_equal(r, again)
    assert again.dimension == r.dimension


def test_closed_set_stays_put():
    # an already closed set: single generator commuting with itself
    r = lie_closure([parse_pauli("XX")])
    assert r.dimension == 1
    assert r.strings()[0].letters() == "XX"


# the size after the generator that first took the basis past the limit
LIMIT_CASES = [
    ("a2", sigma_graph(), 17, 19),
    ("a14", sigma_graph(), 40, 43),
    ("a6", omega_graph(), 100, 103),
    ("a22", complete_graph(5), 100, 101),
    ("a4", complete_bipartite(2, 3), 40, 42),
    ("a7", complete_graph(6), 333, 339),
]


def test_limit_raises_with_partial_size():
    for label, graph, limit, partial in LIMIT_CASES:
        with pytest.raises(ClosureLimitError) as info:
            lie_closure(place_on_graph(label, graph), limit=limit)
        assert info.value.partial_dimension == partial, (label, limit)
        assert info.value.limit == limit


def test_identity_generator_rejected():
    with pytest.raises(ValueError):
        lie_closure([parse_pauli("II")])
    with pytest.raises(ValueError):
        lie_closure([])
    with pytest.raises(ValueError):
        lie_closure([parse_pauli("X"), parse_pauli("XX")])


def test_key_width_bounds_site_count():
    assert lie_closure([parse_pauli("X" * 31)]).dimension == 1
    with pytest.raises(ValueError, match="qubit cap"):
        lie_closure([parse_pauli("X" * 32)])


def test_contains_rejects_other_sizes():
    r = lie_closure([parse_pauli("XY"), parse_pauli("YX")])
    assert not contains(r, parse_pauli("XYI"))
    assert contains(r, parse_pauli("-XY"))  # canonical membership ignores phase
    assert not contains(r, parse_pauli("ZZ"))  # XY and YX commute, nothing new


def test_stats_counted():
    gens = place_on_graph("a2", omega_graph())
    r = lie_closure(gens)
    assert r.stats.pops == r.dimension
    assert r.stats.pair_evaluations == r.dimension * len(gens.members)


def test_stats_count_levels():
    assert lie_closure([parse_pauli("XY"), parse_pauli("YX")]).stats.levels == 0
    # depth 1: YX from ZI by XX, XY from IZ by XX; depth 2: YY, met first
    # from XY by ZI and again from YX by IZ; YY brings nothing new
    r = lie_closure([parse_pauli(w) for w in ("XX", "ZI", "IZ")])
    assert r.words() == ["XX", "ZI", "IZ", "YX", "XY", "YY"]
    assert r.parents.tolist() == [[1, 0], [2, 0], [4, 1]]
    assert r.stats.levels == 2


def test_dimension_bound_property():
    # closures live inside su(2^n): never more than 4^n - 1 strings
    for g in enumerate_connected_graphs(3):
        if g.edge_count == 0:
            continue
        for label in ("a2", "a22", "b1"):
            r = lie_closure(place_on_graph(label, g))
            assert r.dimension <= 4**g.n - 1


# ------------------------------------------------ pairwise oracle agreement
# A closed key set holding the generators spans at least Lie(G); one whose
# every key replays to the generators spans at most Lie(G).  Both checks are
# plain-integer code that shares nothing with the engine.

def assert_matches_oracles(graph):
    for label in LABELS:
        gens = place_on_graph(label, graph)
        r = lie_closure(gens)
        assert_bracket_closed(r.order, graph.n)
        assert_orbit_replays(r.order, r.parents, [p.key for p in gens.members], graph.n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_small_graph_matches_pairwise_oracle(n):
    for graph in enumerate_connected_graphs(n):
        assert_matches_oracles(graph)


@pytest.mark.parametrize("index", [0, 56])  # the star K_{1,5}; a non-bipartite 8-edge graph
def test_n6_sample_matches_pairwise_oracle(index):
    assert_matches_oracles(enumerate_connected_graphs(6)[index])


# sha256 of order + parents over every connected graph on 3-5 vertices times
# the twelve labels and the recorded alternatives, as the one-generator-at-a-time
# orbit produced them
ORBIT_DIGEST_3_TO_5 = "a16f278527c61def4180d20b5d6672c5ea3407fbb838d171379545b46ff9469e"


def small_graph_orbits():
    for n in (3, 4, 5):
        for graph in enumerate_connected_graphs(n):
            for label in LABELS:
                yield lie_closure(place_on_graph(label, graph))
            for label in ALTERNATIVES:
                yield lie_closure(place_alternative(label, graph))


@pytest.mark.parametrize("bytemap_max_keys", [closure._BYTEMAP_MAX_KEYS, 0])
def test_block_size_keeps_tie_break(monkeypatch, bytemap_max_keys):
    # one generator row per block is the one-generator-at-a-time loop; wider
    # blocks must keep its generator-major first-occurrence tie-break
    monkeypatch.setattr(closure, "_BYTEMAP_MAX_KEYS", bytemap_max_keys)
    ref = list(small_graph_orbits())
    digest = hashlib.sha256()
    for r in ref:
        digest.update(np.asarray(r.order, dtype=np.int64).tobytes())
        digest.update(np.asarray(r.parents, dtype=np.int32).tobytes())
    assert digest.hexdigest() == ORBIT_DIGEST_3_TO_5
    for block_pairs in (1, 1 << 30):
        monkeypatch.setattr(closure, "_BLOCK_PAIRS", block_pairs)
        for want, got in zip(ref, small_graph_orbits(), strict=True):
            assert got.order == want.order
            assert np.array_equal(got.parents, want.parents)
            assert got.stats == want.stats


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 17, 24, 31])
def test_stable_order_is_stable_argsort(n):
    # widths on both sides of every 16-bit digit boundary of a 2n-bit key
    rng = np.random.default_rng(n)
    distinct = rng.integers(0, 1 << (2 * n), size=40, dtype=np.int64)
    for keys in (rng.choice(distinct, size=3000), rng.integers(0, 1 << (2 * n), 500)):
        assert np.array_equal(
            closure._stable_order(keys, n), np.argsort(keys, kind="stable")
        )


def closure_digest(r):
    digest = hashlib.sha256(np.asarray(r.order, dtype=np.int64).tobytes())
    digest.update(np.asarray(r.parents, dtype=np.int32).tobytes())
    digest.update(repr((r.stats.pops, r.stats.pair_evaluations, r.stats.levels)).encode())
    return digest.hexdigest()


# sha256 of (order, parents, stats) as the generator-major first-pair orbit
# produced them; the 31-site line takes the widest keys, four 16-bit digits
@pytest.mark.parametrize("gens,expected", [
    (place_on_graph("a22", complete_graph(6)),
     "8edb913ea2e6540426b21b009f7e71ddb6237489e1227d3bde9bf0adb9f931f9"),
    (place_on_graph("a14", sigma_graph()),
     "4040871a76a9a3bc92ffa738ce051fa329a6820884e36e018d4913c998530c6c"),
    (place_alternative("a6", omega_graph()),
     "d78373e5c21bc4df97ee89f1b7f46c86b30df995f31280b0a34883a33fea9831"),
    (place_on_graph("a2", line_graph(31)),
     "478f06b3ac11d2b870e6d2fcae685c49e98b7b32acaf4bc9ec17eed43c7ebd2b"),
], ids=["K6-a22", "Sigma-a14", "Omega-a6-alt", "L31-a2"])
def test_frozen_orbit_digests(gens, expected):
    assert closure_digest(lie_closure(gens)) == expected


def test_set_dedup_matches_bytemap(monkeypatch):
    gens = place_on_graph("a14", sigma_graph())
    ref = lie_closure(gens)
    monkeypatch.setattr(closure, "_BYTEMAP_MAX_KEYS", 0)
    r = lie_closure(gens)
    assert r.order == ref.order
    assert np.array_equal(r.parents, ref.parents)


# ------------------------------------------------ certificate rejection

def wrong_generator(keys, parents):
    parents[-1, 1] = (parents[-1, 1] + 1) % (keys.size - len(parents))
    return keys, parents


def missing_bracket(keys, parents):
    return keys[:-1], parents[:-1]


def closed_superset(keys, parents):
    # ZZ = XY * YX commutes with both generators, so the set stays closed,
    # but XY and YX commute: the pointer names no bracket
    return np.append(keys, keys[0] ^ keys[1]), np.vstack([parents, [[0, 1]]]).astype(np.int32)


@pytest.mark.parametrize("edit,words", [
    (wrong_generator, None),
    (missing_bracket, None),
    (closed_superset, ["XY", "YX"]),
])
def test_verify_rejects_broken_certificate(monkeypatch, edit, words):
    gens = [parse_pauli(w) for w in words] if words else place_on_graph("a2", omega_graph())
    orbit = closure._orbit

    def tampered(g, n, limit):
        keys, parents, levels = orbit(g, n, limit)
        return (*edit(keys.copy(), parents.copy()), levels)

    monkeypatch.setattr(closure, "_orbit", tampered)
    broken = lie_closure(gens, verify=False)
    if edit is closed_superset:
        assert_bracket_closed(broken.order, 2)  # a closedness sweep alone accepts it
    with pytest.raises(AssertionError):
        lie_closure(gens)


def test_certificate_rejects_repeated_string(monkeypatch):
    # a second pointer re-deriving the last string replays and keeps the set
    # closed; only the distinctness count can reject it, on either dedup path
    gens = np.asarray([p.key for p in place_on_graph("a2", omega_graph()).members])
    keys, parents, _ = closure._orbit(gens, 4, closure.DEFAULT_LIMIT)
    repeated = np.append(keys, keys[-1]), np.vstack([parents, parents[-1:]])
    for bytemap_max_keys in (closure._BYTEMAP_MAX_KEYS, 0):
        monkeypatch.setattr(closure, "_BYTEMAP_MAX_KEYS", bytemap_max_keys)
        closure._check_certificate(gens, keys, parents, 4)
        with pytest.raises(AssertionError, match="twice"):
            closure._check_certificate(gens, *repeated, 4)


def test_closed_under_checks_every_block():
    # so(16) on Sigma is closed; ZIIII brings a product outside it, and it
    # sits past the first block of rows tested together
    keys = np.asarray(lie_closure(place_on_graph("a2", sigma_graph())).order)
    outsider = parse_pauli("ZIIII").key
    assert not closed_under(keys, np.asarray([outsider]), 5)
    inside = np.concatenate([keys, keys])
    assert inside.size > closure._BLOCK_PAIRS // keys.size
    assert closed_under(keys, inside, 5)
    assert not closed_under(keys, np.append(inside, outsider), 5)


def test_closed_under_itself_checks_every_later_pair(monkeypatch):
    # su(4) on sites 0-1 is closed; IIXX and IIZI commute with all of it but
    # not with each other, and their product IIYX is missing.  With one row
    # per block, that pair is met only in the block of row 15, past su(4).
    words = ("XIII", "ZIII", "IXII", "IZII", "XXII")
    su4 = np.asarray(lie_closure([parse_pauli(w) for w in words]).order)
    assert su4.size == 15 and closed_under(su4, su4, 4)
    xx, zi = parse_pauli("IIXX").key, parse_pauli("IIZI").key
    monkeypatch.setattr(closure, "_BLOCK_PAIRS", 1)
    for tail in ([xx, zi], [zi, xx]):
        keys = np.append(su4, tail)
        assert not closed_under(keys, keys, 4)
        # an equal array that is not ``keys`` itself takes the ordered path
        assert not closed_under(keys, keys.copy(), 4)
    closed = np.append(su4, [xx, zi, parse_pauli("IIYX").key])
    assert closed_under(closed, closed, 4)


# ------------------------------------------------ words from packed keys

@pytest.mark.parametrize("graph", [sigma_graph(), omega_graph(), complete_graph(5)])
def test_words_match_strings(graph):
    for label in LABELS:
        r = lie_closure(place_on_graph(label, graph))
        assert r.words() == [p.letters() for p in r.strings()]
        assert sorted(r.words()) == sorted(str(p) for p in r.strings())


@pytest.mark.parametrize("label", ["a0", "a2"])
def test_words_on_twenty_sites(label):
    r = lie_closure(place_on_graph(label, line_graph(20)))
    assert r.words() == [p.letters() for p in r.strings()]
