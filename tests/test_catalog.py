import pytest

from dlagraph.catalog import (
    ALTERNATIVES,
    CATALOG,
    LABELS,
    TemplateSet,
    generator_members,
    place_alternative,
    place_on_graph,
    place_templates,
    templates_for,
)
from dlagraph.closure import lie_closure
from dlagraph.frustration import build_frustration, member_via_frustration
from dlagraph.graphs import build_graph, complete_bipartite, complete_graph, sigma_graph
from dlagraph.pauli import parse_pauli

EDGE = build_graph(2, [(0, 1)])


def texts(gens):
    return [str(p) for p in gens.members]


def test_single_edge_placements():
    assert texts(place_on_graph("a0", EDGE)) == ["XX"]
    assert texts(place_on_graph("a2", EDGE)) == ["XY", "YX"]
    assert texts(place_on_graph("a4", EDGE)) == ["XX", "YY"]
    assert texts(place_on_graph("a6", EDGE)) == ["XX", "YZ", "ZY"]
    assert texts(place_on_graph("a7", EDGE)) == ["XX", "YY", "ZZ"]
    assert texts(place_on_graph("a14", EDGE)) == ["XX", "YY", "XY", "YX"]
    assert texts(place_on_graph("a16", EDGE)) == ["XY", "YX", "YZ", "ZY"]
    assert texts(place_on_graph("a20", EDGE)) == ["XX", "YY", "YZ", "ZY"]
    assert texts(place_on_graph("a22", EDGE)) == ["XX", "XY", "YX", "XZ", "ZX"]
    assert texts(place_on_graph("b0", EDGE)) == ["XI", "IX"]
    assert texts(place_on_graph("b1", EDGE)) == ["XX", "XI", "IX"]
    assert texts(place_on_graph("b3", EDGE)) == ["XI", "YI", "IX", "IY"]


def test_both_orientations_each_string_once():
    gens = place_on_graph("a2", build_graph(3, [(0, 1)]))
    assert texts(gens) == ["XYI", "YXI"]
    # ordered templates XY and YX collapse onto the same two strings
    assert len(gens.members) == 2


def test_every_placement_has_no_identity_and_no_duplicates():
    g = sigma_graph()
    for label in LABELS:
        gens = place_on_graph(label, g)
        keys = [p.key for p in gens.members]
        assert len(keys) == len(set(keys)), label
        assert all(not p.is_identity for p in gens.members), label
        assert all(p.phase_exp == 0 for p in gens.members), label


def test_member_counts_on_sigma():
    g = sigma_graph()  # 4 edges, 5 vertices
    assert len(place_on_graph("a0", g).members) == 4
    assert len(place_on_graph("a2", g).members) == 8
    assert len(place_on_graph("a22", g).members) == 20
    assert len(place_on_graph("b0", g).members) == 5
    assert len(place_on_graph("b1", g).members) == 9
    assert len(place_on_graph("b3", g).members) == 10
    # alternative a14 generators: XX per edge plus Z per vertex
    assert len(place_alternative("a14", g).members) == 9


def test_alternative_template_sets():
    assert ALTERNATIVES["a14"].one_local == ("Z",)
    assert ALTERNATIVES["a6"].two_local == ("XY", "YX", "ZZ")
    assert "a0" not in ALTERNATIVES
    with pytest.raises(ValueError):
        place_alternative("a0", EDGE)


def test_alternative_a14_on_edge():
    assert texts(place_alternative("a14", EDGE)) == ["XX", "ZI", "IZ"]


def test_a_type_needs_an_edge():
    g = build_graph(3, [])
    with pytest.raises(ValueError):
        place_on_graph("a2", g)
    assert texts(place_on_graph("b3", g)) == ["XII", "YII", "IXI", "IYI", "IIX", "IIY"]


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        place_on_graph("a5", EDGE)
    with pytest.raises(ValueError):
        templates_for("c1")


def test_bipartite_placement_spans_classes():
    g = complete_bipartite(1, 3)
    gens = place_on_graph("a2", g)
    assert texts(gens) == ["XYII", "YXII", "XIYI", "YIXI", "XIIY", "YIIX"]


def test_catalog_is_frozen_surface():
    assert set(CATALOG) == set(LABELS)
    assert all(len(t) == 2 for ts in CATALOG.values() for t in ts.two_local)
    assert all(len(t) == 1 for ts in CATALOG.values() for t in ts.one_local)
    # K5 a22 placement: XX gives 1 string per edge, XY/YX and XZ/ZX 2 each
    gens = place_on_graph("a22", complete_graph(5))
    assert len(gens.members) == 10 * 5


# a7 and a14 stamp most edge strings twice (XX from both orientations, XY
# from one and YX from the other), and the first stamp fixes the order
@pytest.mark.parametrize("label,graph,words", [
    ("a7", sigma_graph(),
     "XXIII YYIII ZZIII IXXII IYYII IZZII IXIIX IYIIY IZIIZ IIXXI IIYYI IIZZI"),
    ("a7", complete_graph(4),
     "XXII YYII ZZII XIXI YIYI ZIZI XIIX YIIY ZIIZ IXXI IYYI IZZI IXIX IYIY IZIZ IIXX IIYY IIZZ"),
    ("a14", sigma_graph(),
     "XXIII YYIII XYIII YXIII IXXII IYYII IXYII IYXII IXIIX IYIIY IXIIY IYIIX"
     " IIXXI IIYYI IIXYI IIYXI"),
    ("a14", complete_graph(4),
     "XXII YYII XYII YXII XIXI YIYI XIYI YIXI XIIX YIIY XIIY YIIX IXXI IYYI IXYI IYXI"
     " IXIX IYIY IXIY IYIX IIXX IIYY IIXY IIYX"),
], ids=["a7-Sigma", "a7-K4", "a14-Sigma", "a14-K4"])
def test_frozen_member_words(label, graph, words):
    assert texts(place_on_graph(label, graph)) == words.split()


def test_bad_template_letter_still_rejected():
    # a string whose key is already admitted is not rebuilt, but a letter
    # that has no key is always handed to pauli_from_sites
    with pytest.raises(ValueError, match="unknown Pauli letter"):
        place_templates(TemplateSet(("XI", "XQ")), EDGE)


def paulis(*words):
    return [parse_pauli(w) for w in words]


def test_generator_members_takes_sets_and_iterables():
    gens = place_on_graph("a2", EDGE)
    assert generator_members(gens) == gens.members
    assert generator_members(iter(gens.members)) == gens.members
    # repeats are the consumer's business
    assert generator_members(paulis("XX", "-XX")) == tuple(paulis("XX", "-XX"))


@pytest.mark.parametrize("consume", [
    generator_members,
    lie_closure,
    build_frustration,
    lambda gens: member_via_frustration(gens, parse_pauli("XX")),
], ids=["generator_members", "lie_closure", "build_frustration", "member_via_frustration"])
@pytest.mark.parametrize("words", [(), ("X", "XX"), ("XX", "II")],
                         ids=["empty", "mixed_sites", "identity"])
def test_consumers_reject_the_same_generator_lists(consume, words):
    with pytest.raises(ValueError):
        consume(paulis(*words))


def test_repeats_up_to_phase_merge_in_closure_only():
    # closure works on phase-free keys; a coloring names generators by index
    assert lie_closure(paulis("XX", "-XX")).dimension == 1
    with pytest.raises(ValueError):
        build_frustration(paulis("XX", "-XX"))
