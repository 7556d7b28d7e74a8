import itertools

import pytest

from dlagraph.catalog import place_alternative, place_on_graph
from dlagraph.closure import contains, lie_closure
from dlagraph.frustration import (
    SearchSpaceTooLarge,
    Trace,
    build_frustration,
    colorings_for_target,
    is_legal_toggle,
    member_via_frustration,
    product_of,
    reachable,
    toggle,
)
from dlagraph.graphs import complete_bipartite, line_graph, sigma_graph
from dlagraph.pauli import parse_pauli


def paulis(*texts):
    return [parse_pauli(t) for t in texts]


def test_build_adjacency_small():
    fg = build_frustration(paulis("XX", "YY", "ZI"))
    assert fg.edges() == [(0, 2), (1, 2)]


def test_build_adjacency_a2_path():
    # generators X0Y1, Y0X1, X1Y2, Y1X2: only cross-edge pairs anticommute
    fg = build_frustration(place_on_graph("a2", line_graph(3)))
    assert [str(p) for p in fg.generators] == ["XYI", "YXI", "IXY", "IYX"]
    assert fg.edges() == [(0, 2), (1, 3)]


def test_build_rejects_duplicates_and_identity():
    with pytest.raises(ValueError):
        build_frustration(paulis("XX", "-XX"))
    with pytest.raises(ValueError):
        build_frustration(paulis("XX", "II"))


def test_product_of_colorings():
    fg = build_frustration(place_on_graph("a2", sigma_graph()))
    assert product_of(fg, 0).is_identity
    # members: 0:XY... on edge (0,1), 3:Y1X2, 6:X2Y3
    assert str(product_of(fg, 0b1001001)) == "XIIYI"
    assert product_of(fg, 1) == fg.generators[0]
    with pytest.raises(ValueError):
        product_of(fg, 1 << fg.size)


def test_toggle_rules():
    fg = build_frustration(paulis("XX", "YY", "ZI"))
    # vertex 2 anticommutes with both others
    assert is_legal_toggle(fg, 0b001, 2)
    assert toggle(fg, 0b001, 2) == 0b101
    # removing it again is equally legal (same parity rule)
    assert toggle(fg, 0b101, 2) == 0b001
    # vertex 1 sees no colored neighbor in {0}
    assert not is_legal_toggle(fg, 0b001, 1)
    with pytest.raises(ValueError):
        toggle(fg, 0b001, 1)
    with pytest.raises(ValueError):
        toggle(fg, 0b001, 7)


def test_colorings_for_target_complete():
    fg = build_frustration(place_on_graph("a2", sigma_graph()))
    target = parse_pauli("XIIYI")
    found = colorings_for_target(fg, target)
    brute = [
        c for c in range(1 << fg.size)
        if product_of(fg, c).same_letters(target)
    ]
    assert found == brute
    assert 0b1001001 in found
    # a string outside the group span has no colorings at all
    assert colorings_for_target(fg, parse_pauli("ZIIII")) == []


def test_search_cap_refuses_in_span_targets_before_listing():
    # 27 distinct strings on 3 qubits: rank at most 6, kernel at least 21
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=3)][1:28]
    fg = build_frustration(paulis(*words))
    with pytest.raises(SearchSpaceTooLarge):
        colorings_for_target(fg, parse_pauli(words[0]))


def test_search_cap_holds_below_the_old_kernel_bound():
    # K_{2,4} a16: 32 generators with a kernel of dimension 20, which the
    # kernel bound alone let through as 2^20 colorings
    fg = build_frustration(place_on_graph("a16", complete_bipartite(2, 4)))
    assert fg.size == 32
    with pytest.raises(SearchSpaceTooLarge):
        colorings_for_target(fg, parse_pauli("XYIIII"))


def test_reachable_singleton_and_replay():
    fg = build_frustration(place_on_graph("a2", sigma_graph()))
    t = reachable(fg, 0b0000001)
    assert t == Trace(0, (), 1)
    target = colorings_for_target(fg, parse_pauli("XIIYI"))[0]
    t = reachable(fg, target)
    assert t is not None
    assert t.replay(fg) == target  # every step legal, lands on the target


def test_reachable_refuses_oversized_graphs():
    words = ["".join(w) for w in itertools.product("IXYZ", repeat=3)][1:28]
    fg = build_frustration(paulis(*words))
    with pytest.raises(ValueError):
        reachable(fg, 1)


def test_member_on_sigma():
    gens = place_on_graph("a2", sigma_graph())
    trace = member_via_frustration(gens, parse_pauli("XIIYI"))
    assert trace is not None
    fg = build_frustration(gens)
    final = trace.replay(fg)
    assert product_of(fg, final).same_letters(parse_pauli("XIIYI"))
    # identity and out-of-group strings are never members
    assert member_via_frustration(gens, parse_pauli("IIIII")) is None
    assert member_via_frustration(gens, parse_pauli("ZIIII")) is None


def test_blocked_path_counterexample():
    # a1 - a2 - a3 with [a1, a3] = 0: the coloring {a1, a3} is stranded
    gens = paulis("YX", "XX", "XY")
    fg = build_frustration(gens)
    assert fg.edges() == [(0, 1), (1, 2)]
    assert reachable(fg, 0b101) is None
    assert member_via_frustration(gens, parse_pauli("ZZ")) is None
    # and indeed ZZ is not in the closure
    assert not contains(lie_closure(gens), parse_pauli("ZZ"))


def test_member_agrees_with_closure_exhaustively():
    # completeness + soundness against the closure engine on small cases
    cases = [
        place_on_graph("a2", sigma_graph()),
        place_on_graph("a14", line_graph(3)),
        place_alternative("a14", line_graph(4)),
        place_on_graph("b1", line_graph(3)),
    ]
    for gens in cases:
        closed = lie_closure(gens)
        fg = build_frustration(gens)
        for p in closed.strings():
            trace = member_via_frustration(gens, p)
            assert trace is not None, (gens.label, str(p))
            assert product_of(fg, trace.replay(fg)).same_letters(p)
        # group elements outside the closure must be rejected
        outside = 0
        for c in range(1 << fg.size):
            prod = product_of(fg, c)
            if prod.is_identity or contains(closed, prod):
                continue
            assert member_via_frustration(gens, prod) is None
            outside += 1
            if outside >= 5:
                break
