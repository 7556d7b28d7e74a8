"""Antiunitary involution fixed points for bipartite upper bounds.

The involution acts on a Hermitian generator g as -(Q g^T Q) with
Q = Y...Y X...X (l Ys then m Xs).  A Pauli string is fixed exactly when its
transpose sign and its commutation sign with Q multiply to -1, so the fixed
subset of a string basis is computable without matrices.  Fixed points of a
closed basis are again closed; ``fixed_subset`` asserts that instead of
assuming it.  ``cross_check`` compares the fixed points with the closure on
K_{l,m} and with the structure table's K_{l,m} column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dlagraph.catalog import place_on_graph
from dlagraph.classify import NormalForm, normal_form, theorem_summands
from dlagraph.closure import ClosureResult, ClosureStats, anticommuting, closed_under, lie_closure
from dlagraph.graphs import complete_bipartite
from dlagraph.pauli import PauliString, check_qubits, commutes, transpose_sign


@dataclass(frozen=True)
class Involution:
    """g -> -(Q g^T Q) with Q the Y-block/X-block string for (l, m)."""

    l: int
    m: int
    q: PauliString

    @property
    def n(self) -> int:
        return self.l + self.m


def make_theta(l: int, m: int) -> Involution:
    """The (l, m) involution; the first l qubits are the Y block.

    >>> make_theta(2, 1).q.letters()
    'YYX'
    """
    if l < 1 or m < 1:
        raise ValueError("both blocks need at least one qubit")
    check_qubits(l + m)  # before Q's l + m bits: every x bit, and z bits on the Y block
    return Involution(l, m, PauliString(l + m, (1 << (l + m)) - 1, (1 << l) - 1))


def is_fixed(theta: Involution, p: PauliString) -> bool:
    """Whether the string (times i, as a Hermitian basis element) is fixed.

    theta(p) = -(t c) p where t is the transpose sign and c is +1/-1 as p
    commutes/anticommutes with Q; fixed means t*c == -1.
    """
    if p.n != theta.n:
        raise ValueError(f"string has {p.n} sites, involution acts on {theta.n}")
    c = 1 if commutes(theta.q, p) else -1
    return transpose_sign(p) * c == -1


def fixed_subset(theta: Involution, result: ClosureResult) -> ClosureResult:
    """The fixed points of a closure basis, checked to be bracket-closed."""
    if result.n != theta.n:
        raise ValueError(f"closure has {result.n} sites, involution acts on {theta.n}")
    # is_fixed on the packed keys (x_bits << n) | z_bits: the transpose sign
    # is -1 for an odd popcount of x_bits & z_bits, that is of (key >> n) & key,
    # and fixed means exactly one of the two signs is -1
    keys = np.asarray(result.order, dtype=np.int64)
    odd_y = (np.bitwise_count((keys >> theta.n) & keys) & 1).astype(bool)
    keys = keys[odd_y ^ anticommuting(keys, theta.q.key, theta.n)]
    if not closed_under(keys, keys, result.n):
        raise AssertionError("fixed-point subset failed to close")
    return ClosureResult(result.n, tuple(keys.tolist()), ClosureStats(0, 0))


def upper_bound_dim(label: str, l: int, m: int) -> int:
    """Fixed-subalgebra dimension formula for a4 or a14 at block sizes (l, m).

    This is the structure table's K_{l,m} column.  Valid as a statement about
    complete bipartite graphs once K_{l,m} has a vertex of degree > 2
    (max(l, m) >= 3); smaller shapes are out of hypothesis and the number is
    only a conjecture to compare against.  K_{1,1}, a single edge, is refused:
    the column would read su(1)^2 there.
    """
    if l < 1 or m < 1:
        raise ValueError("block sizes must be positive")
    if l + m < 3:
        raise ValueError("the K_{l,m} column needs l + m >= 3")
    if label not in ("a4", "a14"):
        raise ValueError(f"fixed-point bounds are recorded for a4 and a14, not {label!r}")
    return sum(s.dim for s in theorem_summands(label, NormalForm("complete_bipartite", (l, m))))


@dataclass(frozen=True)
class CrossCheck:
    """The (l, m) cross-check: fixed points of the K_{l+m} closure against the
    K_{l,m} closure and against the structure table's K_{l,m} column."""

    block: ClosureResult
    fixed: ClosureResult
    tight: bool  # the fixed keys are exactly the block keys
    formula_dim: int | None  # None where upper_bound_dim has no number: K_{1,1}
    in_hypothesis: bool  # the table covers K_{l,m}, so the closed form must match
    passed: bool


def cross_check(label: str, l: int, m: int, whole: ClosureResult) -> CrossCheck:
    """Cross-check ``whole``, the closure of ``label`` on K_{l+m}, at blocks (l, m)."""
    shape = complete_bipartite(l, m)
    block = lie_closure(place_on_graph(label, shape))
    fixed = fixed_subset(make_theta(l, m), whole)
    formula = upper_bound_dim(label, l, m) if l + m >= 3 else None
    in_hypothesis = normal_form(shape, label).kind == "complete_bipartite"
    tight = fixed.keys == block.keys
    passed = tight and (formula == fixed.dimension or not in_hypothesis)
    return CrossCheck(block, fixed, tight, formula, in_hypothesis, passed)
