"""Structure prediction: which direct sum of simple algebras a placement closes to.

A connected graph first reduces to its normal form (``normal_form``): K_n for
a complete graph with n >= 3 and, under a7/a16/a20/a22, for every connected
graph with n >= 3; K_n or K_{l,m} under a2/a4/a6/a14 once a vertex has degree
> 2.  One table (``_TABLE``) is then read by normal form:
``theorem_summands(label, nf)`` takes K_n's column from n and K_{l,m}'s from
(l, m), and refuses a form with no column.  Lines and cycles are out of scope
only for a2/a4/a6/a14: the classifier refuses to guess and the caller can fall
back to the closure engine for a dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from dlagraph.catalog import check_label, place_on_graph
from dlagraph.closure import lie_closure
from dlagraph.graphs import (
    InteractionGraph,
    bipartition,
    connected_components,
    is_complete,
    is_connected,
    max_degree,
    subgraph,
)

SCOPE_THEOREM = "Theorem1"
SCOPE_COMPLETE = "AppendixB_complete"
SCOPE_DIRECT_SUM = "DirectSum"
SCOPE_ORACLE = "OracleFallback"
SCOPE_OUT = "OutOfScope"

# Theorem 1's table.  Each entry is (family, n - log2 size, multiplicity) for
# one normal-form shape: K_n with n odd, K_n with n even, then K_{l,m} with
# both blocks odd, both even, or of mixed parity.  A row with only the two
# K_n columns reduces every connected graph on n >= 3 vertices to K_n.
_TABLE = {
    "a2": (("so", 1, 2), ("so", 1, 2), ("su", 2, 2), ("so", 2, 4), ("so", 1, 1)),
    "a4": (("su", 1, 1), ("su", 2, 4), ("su", 2, 2), ("so", 2, 4), ("so", 1, 1)),
    "a6": (("su", 1, 2), ("su", 1, 2), ("su", 2, 4), ("su", 2, 4), ("su", 1, 1)),
    "a7": (("su", 1, 1), ("su", 2, 4)),
    "a14": (("su", 1, 2), ("su", 1, 2), ("sp", 2, 2), ("so", 1, 2), ("su", 1, 1)),
    "a16": (("so", 0, 1), ("so", 0, 1)),
    "a20": (("su", 1, 2), ("su", 1, 2)),
    "a22": (("su", 0, 1), ("su", 0, 1)),
}


def simple_dim(family: str, size: int) -> int:
    """Real dimension of the compact simple (or u1) family member.

    sp uses the compact-group convention: sp(N) has dimension N(2N+1),
    so sp(1) is the 3-dimensional su(2).
    """
    if size < 1:
        raise ValueError(f"size must be positive, got {size}")
    if family == "u1":
        return 1
    if family == "su":
        return size * size - 1
    if family == "so":
        return size * (size - 1) // 2
    if family == "sp":
        return size * (2 * size + 1)
    raise ValueError(f"unknown family {family!r}")


@dataclass(frozen=True)
class Summand:
    family: str
    size: int
    multiplicity: int = 1

    @property
    def dim(self) -> int:
        return self.multiplicity * simple_dim(self.family, self.size)

    def __str__(self) -> str:
        base = f"{self.family}({self.size})"
        return base if self.multiplicity == 1 else f"{base}^{self.multiplicity}"


@dataclass(frozen=True)
class Classification:
    summands: tuple[Summand, ...]
    total_dim: int
    scope: str
    bipartite: tuple[int, int] | None = None


@dataclass(frozen=True)
class NormalForm:
    """Result of reducing a graph under label-preserving moves."""

    kind: str  # "complete" | "complete_bipartite" | "line_or_cycle" | "too_small"
    params: tuple[int, ...] = ()


def normal_form(g: InteractionGraph, label: str) -> NormalForm:
    """Equivalence-class normal form of a connected graph for an a-type label.

    Complete graphs come first: K_n with n >= 3 is its own normal form.
    Labels a7/a16/a20/a22 reduce any connected graph with n >= 3 to K_n.
    Labels a2/a4/a6/a14 need a vertex of degree > 2 and then reduce to K_n
    (non-bipartite) or K_{l,m} (bipartite); their lines and cycles stay
    ``line_or_cycle``.  A disconnected graph raises ValueError: it has no
    single normal form, and ``classify`` reduces it per component.
    """
    if not is_connected(g):
        raise ValueError("normal_form needs a connected graph")
    bip = bipartition(g)
    return _reduce(g, label, bip.sizes if bip else None)


def _row(label: str) -> tuple:
    check_label(label)
    row = _TABLE.get(label)
    if row is None:
        raise ValueError(f"no reduction theory for {label}")
    return row


def _reduce(g: InteractionGraph, label: str, bip_sizes) -> NormalForm:
    # normal_form given the bipartition sizes, which classify needs anyway
    row = _row(label)
    if g.n < 3:
        return NormalForm("too_small", (g.n,))
    if is_complete(g) or len(row) == 2:
        return NormalForm("complete", (g.n,))
    if max_degree(g) <= 2:
        return NormalForm("line_or_cycle", (g.n,))
    if bip_sizes is None:
        return NormalForm("complete", (g.n,))
    return NormalForm("complete_bipartite", bip_sizes)


def theorem_summands(label: str, nf: NormalForm) -> tuple[Summand, ...]:
    """Predicted summands of ``label`` on the normal form ``nf``.

    K_n reads its column from ``nf.params == (n,)`` and K_{l,m} from
    ``(l, m)``.  A form with no column in the label's row raises ValueError.

    >>> [str(s) for s in theorem_summands("a14", NormalForm("complete_bipartite", (3, 3)))]
    ['sp(16)^2']
    """
    row = _row(label)
    n = sum(nf.params)
    if nf.kind == "complete":
        column = int(n % 2 == 0)
    elif nf.kind == "complete_bipartite":
        column = 4 if n % 2 else 2 + (nf.params[0] % 2 == 0)
    else:
        column = len(row)  # line_or_cycle and too_small have no column
    if column >= len(row):
        raise ValueError(f"no {label} table column for {nf}")
    family, drop, multiplicity = row[column]
    return (Summand(family, 1 << (n - drop), multiplicity),)


def _merge(summands) -> tuple[Summand, ...]:
    counts: dict[tuple[str, int], int] = {}
    for s in summands:
        counts[(s.family, s.size)] = counts.get((s.family, s.size), 0) + s.multiplicity
    return tuple(
        Summand(fam, size, mult)
        for (fam, size), mult in sorted(counts.items())
    )


def _finish(summands, scope, bip) -> Classification:
    summands = _merge(summands)
    total = sum(s.dim for s in summands)
    return Classification(summands, total, scope, bip)


def _classify_connected(g: InteractionGraph, label: str, oracle: bool) -> Classification:
    n, e = g.n, g.edge_count
    bip = bipartition(g)
    bip_sizes = bip.sizes if bip else None
    if label == "a0":
        return _finish([Summand("u1", 1, e)] if e else [], SCOPE_THEOREM, bip_sizes)
    if label == "b0":
        return _finish([Summand("u1", 1, n)], SCOPE_THEOREM, bip_sizes)
    if label == "b1":
        return _finish([Summand("u1", 1, n + e)], SCOPE_THEOREM, bip_sizes)
    if label == "b3":
        return _finish([Summand("su", 2, n)], SCOPE_THEOREM, bip_sizes)
    # a-type with k > 0
    if e == 0:
        # an isolated vertex carries no 2-local interaction at all
        return _finish([], SCOPE_THEOREM, bip_sizes)
    nf = _reduce(g, label, bip_sizes)
    if nf.kind in ("complete", "complete_bipartite"):
        scope = SCOPE_COMPLETE if is_complete(g) else SCOPE_THEOREM
        return _finish(theorem_summands(label, nf), scope, bip_sizes)
    if oracle:
        dim = lie_closure(place_on_graph(label, g)).dimension
        return Classification((), dim, SCOPE_ORACLE, bip_sizes)
    return Classification((), 0, SCOPE_OUT, bip_sizes)


def classify(g: InteractionGraph, label: str, oracle: bool = False) -> Classification:
    """Predict the closure structure of the labeled placement on g.

    Disconnected graphs classify per component and merge (scope DirectSum).
    Components whose normal form is ``line_or_cycle`` or ``too_small`` yield
    OutOfScope unless ``oracle`` is set, in which case the closure engine
    supplies the dimension with the family left unidentified.
    """
    check_label(label)
    comps = connected_components(g)
    if len(comps) == 1:
        return _classify_connected(g, label, oracle)
    whole_bip = bipartition(g)
    whole_sizes = whole_bip.sizes if whole_bip else None
    parts = [_classify_connected(subgraph(g, comp), label, oracle) for comp in comps]
    if any(p.scope == SCOPE_OUT for p in parts):
        return Classification((), 0, SCOPE_OUT, whole_sizes)
    scope = SCOPE_ORACLE if any(p.scope == SCOPE_ORACLE for p in parts) else SCOPE_DIRECT_SUM
    merged = _merge(s for p in parts for s in p.summands)
    total = sum(p.total_dim for p in parts)
    return Classification(merged, total, scope, whole_sizes)
