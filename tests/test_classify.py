import itertools
import random

import pytest

from dlagraph.catalog import LABELS, place_on_graph
from dlagraph.classify import (
    Classification,
    NormalForm,
    SCOPE_COMPLETE,
    SCOPE_DIRECT_SUM,
    SCOPE_ORACLE,
    SCOPE_OUT,
    SCOPE_THEOREM,
    Summand,
    classify,
    normal_form,
    simple_dim,
    theorem_summands,
)
from dlagraph.closure import lie_closure
from dlagraph.graphs import (
    bipartition,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    is_connected,
    line_graph,
    omega_graph,
    sigma_graph,
)


def test_simple_dims():
    assert simple_dim("u1", 1) == 1
    assert simple_dim("su", 4) == 15
    assert simple_dim("so", 8) == 28
    assert simple_dim("so", 16) == 120
    # compact convention: sp(1) is su(2), so a14 on one edge is 2 x sp(1)
    assert simple_dim("sp", 1) == 3
    assert simple_dim("sp", 4) == 36
    with pytest.raises(ValueError):
        simple_dim("e8", 8)


def test_summand_dim_and_str():
    s = Summand("sp", 4, 2)
    assert s.dim == 72
    assert str(s) == "sp(4)^2"
    assert str(Summand("so", 16)) == "so(16)"


# ------------------------------------------------------------- normal forms

def test_normal_form_branches():
    assert normal_form(sigma_graph(), "a2") == NormalForm("complete_bipartite", (3, 2))
    assert normal_form(omega_graph(), "a4") == NormalForm("complete", (4,))
    assert normal_form(line_graph(4), "a16") == NormalForm("complete", (4,))
    assert normal_form(line_graph(4), "a2") == NormalForm("line_or_cycle", (4,))
    assert normal_form(cycle_graph(6), "a14") == NormalForm("line_or_cycle", (6,))
    assert normal_form(line_graph(2), "a22") == NormalForm("too_small", (2,))
    # K_3 is a cycle too, but complete graphs come first
    for label in ("a2", "a4", "a6", "a14"):
        assert normal_form(complete_graph(3), label) == NormalForm("complete", (3,))
    with pytest.raises(ValueError):
        normal_form(sigma_graph(), "b0")
    # a disconnected graph has no single normal form
    two_triangles = build_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError):
        normal_form(two_triangles, "a7")
    star_and_edge = build_graph(7, [(0, 1), (1, 2), (1, 3), (4, 5)])
    with pytest.raises(ValueError):
        normal_form(star_and_edge, "a2")


# ----------------------------------------------------------- the main table

def test_classify_spot_values():
    # branching tree, odd-odd bipartition
    c = classify(complete_bipartite(1, 3), "a14")
    assert c.summands == (Summand("sp", 4, 2),)
    assert c.total_dim == 72 and c.scope == SCOPE_THEOREM

    c = classify(omega_graph(), "a2")
    assert c.summands == (Summand("so", 8, 2),)
    assert c.total_dim == 56

    c = classify(omega_graph(), "a16")
    assert c.summands == (Summand("so", 16),)
    assert c.total_dim == 120

    c = classify(sigma_graph(), "a22")
    assert c.summands == (Summand("su", 32),)
    assert c.total_dim == 1023

    c = classify(complete_graph(4), "a7")
    assert c.summands == (Summand("su", 4, 4),)
    assert c.total_dim == 60 and c.scope == SCOPE_COMPLETE

    c = classify(complete_graph(5), "a4")
    assert c.summands == (Summand("su", 16),)
    assert c.total_dim == 255


def test_classify_abelian_and_b_rows():
    g = sigma_graph()
    assert classify(g, "a0").total_dim == 4
    assert classify(g, "b0").total_dim == 5
    assert classify(g, "b1").total_dim == 9
    assert classify(g, "b3").total_dim == 15
    assert classify(g, "b3").summands == (Summand("su", 2, 5),)
    # they apply to every graph, lines and cycles included
    assert classify(cycle_graph(6), "b1").total_dim == 12
    assert classify(line_graph(4), "a0").total_dim == 3


def test_classify_bipartite_parity_cases():
    # both classes even
    c = classify(complete_bipartite(2, 4), "a2")
    assert c.summands == (Summand("so", 16, 4),)
    assert c.bipartite == (2, 4)
    # mixed parity (n odd)
    c = classify(complete_bipartite(2, 3), "a2")
    assert c.summands == (Summand("so", 16),)
    # both odd
    c = classify(complete_bipartite(1, 3), "a2")
    assert c.summands == (Summand("su", 4, 2),)
    # a14 parity rows
    assert classify(complete_bipartite(2, 4), "a14").summands == (Summand("so", 32, 2),)
    assert classify(complete_bipartite(2, 3), "a14").summands == (Summand("su", 16),)


def test_sigma_equals_k23_prediction():
    k23 = complete_bipartite(2, 3)
    for label in ("a2", "a4", "a6", "a14"):
        assert classify(sigma_graph(), label).total_dim == classify(k23, label).total_dim


def test_lines_and_cycles_out_of_scope():
    for g in (line_graph(4), cycle_graph(5), line_graph(2)):
        c = classify(g, "a2")
        assert c.scope == SCOPE_OUT and c.summands == ()
    # oracle fallback hands back a dimension but no family
    c = classify(line_graph(3), "a2", oracle=True)
    assert c.scope == SCOPE_ORACLE
    assert c.total_dim == lie_closure(place_on_graph("a2", line_graph(3))).dimension
    assert c.summands == ()


def test_k3_classifies_via_complete_table():
    c = classify(complete_graph(3), "a22")
    assert c.scope == SCOPE_COMPLETE and c.total_dim == 63


def test_disconnected_direct_sum():
    two_omegas = build_graph(8, [(0, 1), (1, 2), (1, 3), (2, 3),
                                 (4, 5), (5, 6), (5, 7), (6, 7)])
    c = classify(two_omegas, "a2")
    assert c.scope == SCOPE_DIRECT_SUM
    assert c.summands == (Summand("so", 8, 4),)
    assert c.total_dim == 112
    # singleton component contributes nothing for a-types
    with_spectator = build_graph(5, [(0, 1), (1, 2), (1, 3), (2, 3)])
    c = classify(with_spectator, "a2")
    assert c.total_dim == 56 and c.scope == SCOPE_DIRECT_SUM
    # but a line component poisons the whole prediction
    with_line = build_graph(7, [(0, 1), (1, 2), (1, 3), (2, 3), (5, 6)])
    assert classify(with_line, "a2").scope == SCOPE_OUT
    assert classify(with_line, "a2", oracle=True).scope == SCOPE_ORACLE


def test_b_rows_merge_across_components():
    g = build_graph(5, [(0, 1)])
    c = classify(g, "b3")
    assert c.summands == (Summand("su", 2, 5),)
    assert c.scope == SCOPE_DIRECT_SUM


def _random_disconnected_graphs(seed, draws):
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        n = rng.randint(2, 8)
        pairs = list(itertools.combinations(range(n), 2))
        g = build_graph(n, rng.sample(pairs, rng.randint(0, len(pairs))))
        if not is_connected(g):
            out.append(g)
    return out


def test_merge_against_engine_on_random_disconnected_graphs():
    # the per-component merge must reproduce the closure of the whole placement
    graphs = _random_disconnected_graphs(23, 150)
    assert len(graphs) > 50
    for g in graphs:
        bip = bipartition(g)
        for label in LABELS:
            c = classify(g, label, oracle=True)
            # an a-type placement needs an edge: an edgeless graph closes to nothing
            engine = (
                lie_closure(place_on_graph(label, g)).dimension
                if g.edges or label.startswith("b") else 0
            )
            assert c.total_dim == engine, (label, g)
            assert c.bipartite == (bip.sizes if bip else None), (label, g)


def test_full_theorem_table_against_engine_n4():
    # every branched 4-vertex graph, every label: prediction == closure
    graphs = [
        complete_bipartite(1, 3),
        omega_graph(),
        build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),
        complete_graph(4),
    ]
    for g in graphs:
        for label in LABELS:
            c = classify(g, label)
            assert c.scope in (SCOPE_THEOREM, SCOPE_COMPLETE)
            engine = lie_closure(place_on_graph(label, g)).dimension
            assert c.total_dim == engine, (label, g)


# one cell per label and table column: K_n at n = 5 and 6, and K_{l,m} at
# (3, 3), (2, 4) and (2, 3).  The engine checks compare only total dimensions,
# so these pin the family and the multiplicity of each entry.
_TABLE_CELLS = [
    ("a2", NormalForm("complete", (5,)), "so(16)^2"),
    ("a2", NormalForm("complete", (6,)), "so(32)^2"),
    ("a2", NormalForm("complete_bipartite", (3, 3)), "su(16)^2"),
    ("a2", NormalForm("complete_bipartite", (2, 4)), "so(16)^4"),
    ("a2", NormalForm("complete_bipartite", (2, 3)), "so(16)"),
    ("a4", NormalForm("complete", (5,)), "su(16)"),
    ("a4", NormalForm("complete", (6,)), "su(16)^4"),
    ("a4", NormalForm("complete_bipartite", (3, 3)), "su(16)^2"),
    ("a4", NormalForm("complete_bipartite", (2, 4)), "so(16)^4"),
    ("a4", NormalForm("complete_bipartite", (2, 3)), "so(16)"),
    ("a6", NormalForm("complete", (5,)), "su(16)^2"),
    ("a6", NormalForm("complete", (6,)), "su(32)^2"),
    ("a6", NormalForm("complete_bipartite", (3, 3)), "su(16)^4"),
    ("a6", NormalForm("complete_bipartite", (2, 4)), "su(16)^4"),
    ("a6", NormalForm("complete_bipartite", (2, 3)), "su(16)"),
    ("a7", NormalForm("complete", (5,)), "su(16)"),
    ("a7", NormalForm("complete", (6,)), "su(16)^4"),
    ("a14", NormalForm("complete", (5,)), "su(16)^2"),
    ("a14", NormalForm("complete", (6,)), "su(32)^2"),
    ("a14", NormalForm("complete_bipartite", (3, 3)), "sp(16)^2"),
    ("a14", NormalForm("complete_bipartite", (2, 4)), "so(32)^2"),
    ("a14", NormalForm("complete_bipartite", (2, 3)), "su(16)"),
    ("a16", NormalForm("complete", (5,)), "so(32)"),
    ("a16", NormalForm("complete", (6,)), "so(64)"),
    ("a20", NormalForm("complete", (5,)), "su(16)^2"),
    ("a20", NormalForm("complete", (6,)), "su(32)^2"),
    ("a22", NormalForm("complete", (5,)), "su(32)"),
    ("a22", NormalForm("complete", (6,)), "su(64)"),
]


def _cell_id(index, label, nf, want):
    # the ids the cells had when the lookup took (label, n, bip_sizes), so a
    # cell's test history survives the change of signature
    shape = "None" if nf.kind == "complete" else f"bip_sizes{index}"
    return f"{label}-{sum(nf.params)}-{shape}-{want}"


@pytest.mark.parametrize(
    "label, nf, want", _TABLE_CELLS,
    ids=[_cell_id(i, *cell) for i, cell in enumerate(_TABLE_CELLS)],
)
def test_theorem_summands_table_cells(label, nf, want):
    assert [str(s) for s in theorem_summands(label, nf)] == [want]


def test_complete_summands_need_n3():
    with pytest.raises(ValueError):
        theorem_summands("a0", NormalForm("complete", (4,)))


@pytest.mark.parametrize("label, nf", [
    ("a2", NormalForm("line_or_cycle", (6,))),
    ("a2", NormalForm("too_small", (2,))),
    *(
        (label, NormalForm("complete_bipartite", (3, 3)))
        for label in ("a7", "a16", "a20", "a22")
    ),
], ids=lambda v: v if isinstance(v, str) else v.kind)
def test_theorem_summands_rejects_forms_without_a_column(label, nf):
    # no column in the label's row fits these forms: refuse rather than guess
    with pytest.raises(ValueError, match="no .* table column"):
        theorem_summands(label, nf)


@pytest.mark.parametrize("label", ["a7", "a16", "a20", "a22"])
def test_lines_and_cycles_reduce_to_complete_table(label):
    # these labels see only n: every line and cycle closes like K_n
    for n in range(3, 9):
        for g in (line_graph(n), cycle_graph(n)):
            c = classify(g, label)
            want = SCOPE_COMPLETE if g == complete_graph(3) else SCOPE_THEOREM
            assert c.scope == want, (label, g)
            assert c.total_dim == lie_closure(place_on_graph(label, g)).dimension, (label, g)
