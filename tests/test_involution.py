from functools import reduce

import pytest

from dlagraph.catalog import place_on_graph
from dlagraph.closure import ClosureResult, ClosureStats, closure_equal, lie_closure
from dlagraph.graphs import complete_bipartite, complete_graph
from dlagraph.involution import (
    Involution,
    cross_check,
    fixed_subset,
    is_fixed,
    make_theta,
    upper_bound_dim,
)
from dlagraph.pauli import parse_pauli, quarter_congruence


def test_make_theta_layout():
    assert make_theta(2, 1).q.letters() == "YYX"
    assert make_theta(1, 3).q.letters() == "YXXX"
    with pytest.raises(ValueError):
        make_theta(0, 2)


def test_is_fixed_spot_cases():
    # Q = YX: XX anticommutes with Q and has no Ys -> fixed
    assert is_fixed(make_theta(1, 1), parse_pauli("XX"))
    # Q = YYX: IIX commutes, no Ys -> not fixed; ZII anticommutes -> fixed
    theta = make_theta(2, 1)
    assert not is_fixed(theta, parse_pauli("IIX"))
    assert is_fixed(theta, parse_pauli("ZII"))
    with pytest.raises(ValueError):
        is_fixed(theta, parse_pauli("XX"))


def test_fixed_subset_is_closed_and_counts():
    # (2,2): every a14 generator on K_{2,2} should survive inside closure(K4)
    theta = make_theta(2, 2)
    whole = lie_closure(place_on_graph("a14", complete_graph(4)))
    fixed = fixed_subset(theta, whole)
    assert fixed.dimension == 56
    assert fixed.keys <= whole.keys


def test_fixed_subset_rejects_non_closed_basis():
    # XX and ZI are fixed under Q = YX and anticommute; their product YX,
    # also fixed, is left out of the hand-made basis
    theta = make_theta(1, 1)
    xx, zi = parse_pauli("XX"), parse_pauli("ZI")
    assert is_fixed(theta, xx) and is_fixed(theta, zi) and is_fixed(theta, parse_pauli("YX"))
    basis = ClosureResult(2, (xx.key, zi.key), ClosureStats(0, 0))
    with pytest.raises(AssertionError):
        fixed_subset(theta, basis)


@pytest.mark.parametrize("label", ["a4", "a14"])
def test_fixed_subset_matches_is_fixed(label):
    # the packed-key parity test keeps exactly the strings is_fixed keeps
    for n in range(2, 7):
        whole = lie_closure(place_on_graph(label, complete_graph(n)))
        for l in range(1, n):
            theta = make_theta(l, n - l)
            want = tuple(p.key for p in whole.strings() if is_fixed(theta, p))
            assert fixed_subset(theta, whole).order == want, (label, l, n - l)


def test_upper_bound_formula_values():
    assert upper_bound_dim("a14", 1, 2) == 15  # su(4)
    assert upper_bound_dim("a14", 2, 2) == 56  # so(8) x 2
    assert upper_bound_dim("a14", 1, 3) == 72  # sp(4) x 2
    assert upper_bound_dim("a4", 2, 2) == 24   # so(4) x 4
    assert upper_bound_dim("a4", 1, 3) == 30   # su(4) x 2
    assert upper_bound_dim("a4", 2, 3) == 120  # so(16)
    with pytest.raises(ValueError):
        upper_bound_dim("a2", 1, 2)


@pytest.mark.parametrize("label", ["a4", "a14"])
def test_upper_bound_refuses_single_edge(label):
    # the column would read su(1)^2 = 0 for a4, while the K_{1,1} closure
    # and its fixed points both have dimension 2
    with pytest.raises(ValueError, match="l \\+ m >= 3"):
        upper_bound_dim(label, 1, 1)
    check = cross_check(label, 1, 1, lie_closure(place_on_graph(label, complete_graph(2))))
    assert check.formula_dim is None
    assert check.tight and check.passed and not check.in_hypothesis


def test_generators_of_klm_are_fixed():
    # every K_{l,m} edge generator of a4/a14 anticommutes with Q and has
    # even Y count, hence lands in the fixed subalgebra
    for (l, m) in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        theta = make_theta(l, m)
        for label in ("a4", "a14"):
            for p in place_on_graph(label, complete_bipartite(l, m)).members:
                assert is_fixed(theta, p), (label, l, m, str(p))


@pytest.mark.parametrize("label", ["a4", "a14"])
@pytest.mark.parametrize("lm", [(1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3)])
def test_tightness_on_small_blocks(label, lm):
    # closure on K_{l,m} equals the theta-fixed subset of closure on K_{l+m}
    l, m = lm
    theta = make_theta(l, m)
    whole = lie_closure(place_on_graph(label, complete_graph(l + m)))
    fixed = fixed_subset(theta, whole)
    part = lie_closure(place_on_graph(label, complete_bipartite(l, m)))
    assert closure_equal(fixed, part)


def test_formula_matches_when_hypothesis_holds():
    for label in ("a4", "a14"):
        for (l, m) in [(1, 3), (3, 1), (2, 3), (1, 4), (3, 3), (2, 4), (1, 5)]:
            part = lie_closure(place_on_graph(label, complete_bipartite(l, m)))
            assert part.dimension == upper_bound_dim(label, l, m), (label, l, m)


@pytest.mark.parametrize("label", ["a4", "a14"])
def test_cross_check_hypothesis_is_table_scope(label):
    # the closed form binds where the table covers K_{l,m}: max(l, m) >= 3
    for n in range(2, 6):
        whole = lie_closure(place_on_graph(label, complete_graph(n)))
        for l in range(1, n):
            check = cross_check(label, l, n - l, whole)
            assert check.in_hypothesis == (n >= 4 and max(l, n - l) >= 3), (l, n - l)
            assert check.tight and check.passed, (l, n - l)
            if n >= 3:
                assert check.formula_dim == upper_bound_dim(label, l, n - l)


@pytest.mark.parametrize("lm", [(1, 2), (1, 3)])
def test_cross_check_fails_on_a_foreign_closure(lm):
    # the a14 closure on K_{l+m} has fixed points that the a4 block closure
    # lacks; out of hypothesis the check still fails on tightness alone
    l, m = lm
    whole = lie_closure(place_on_graph("a14", complete_graph(l + m)))
    check = cross_check("a4", l, m, whole)
    assert not check.tight and not check.passed


# --------------------------------------------- quarter-congruence sequences
# conjugating Q through explicit quarter rotations reproduces the normal
# forms used to identify the fixed subalgebras

def conjugate_chain(axes, q):
    return reduce(lambda acc, a: quarter_congruence(a, acc), reversed(axes), q)


@pytest.mark.parametrize("lm", [(1, 3), (2, 2), (3, 1), (1, 5), (2, 4), (3, 3)])
def test_even_n_y_block_normal_form(lm):
    # exp(i pi/4 X Z..Z) exp(-i pi/4 X I..I) maps Q to Z X^{l-1} Y^m (up to phase)
    l, m = lm
    n = l + m
    q = make_theta(l, m).q
    axes = [parse_pauli("X" + "Z" * (n - 1)), parse_pauli("-X" + "I" * (n - 1))]
    got = conjugate_chain(axes, q)
    want = parse_pauli("Z" + "X" * (l - 1) + "Y" * m)
    assert got.same_letters(want), (lm, str(got))


@pytest.mark.parametrize("lm", [(2, 2), (2, 4), (4, 2)])
def test_even_blocks_x_block_normal_form(lm):
    # three rotations send Q to I Z^{l-1} I^m when both blocks are even
    l, m = lm
    n = l + m
    q = make_theta(l, m).q
    axes = [
        parse_pauli("IX" + "I" * (n - 2)),
        parse_pauli("IX" + "Z" * (n - 2)),
        parse_pauli("Y" + "X" * (n - 1)),
    ]
    got = conjugate_chain(axes, q)
    want = parse_pauli("I" + "Z" * (l - 1) + "I" * m)
    assert got.same_letters(want), (lm, str(got))


@pytest.mark.parametrize("lm", [(2, 1), (2, 3), (4, 1)])
def test_odd_n_x_block_normal_form(lm):
    # two rotations suffice when n is odd (l even)
    l, m = lm
    n = l + m
    q = make_theta(l, m).q
    axes = [
        parse_pauli("Z" + "Y" * (n - 1)),
        parse_pauli("Y" + "X" * (n - 1)),
    ]
    got = conjugate_chain(axes, q)
    want = parse_pauli("I" + "Z" * (l - 1) + "I" * m)
    assert got.same_letters(want), (lm, str(got))
