"""Structure prediction: which direct sum of simple algebras a placement closes to.

``classify`` walks the graph once and merges its components' parts.  Each
component reduces to its normal form (``normal_form``, the one reduction)
from four numbers of the walk: vertex count n, edge count, top degree and
colour-class sizes.  K_n for a complete graph (n(n-1)/2 edges) with n >= 3
and, under a7/a16/a20/a22, for every connected graph with n >= 3; K_n (odd
cycle) or K_{l,m} (two colour classes) under a2/a4/a6/a14 once a vertex has
degree > 2.  One table (``_TABLE``) is then read by normal form:
``theorem_summands(label, nf)`` takes K_n's column from n and K_{l,m}'s from
(l, m), and refuses a form with no column.  Lines and cycles are out of scope
only for a2/a4/a6/a14: the classifier refuses to guess and the caller can fall
back to the closure engine for a dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

from dlagraph.catalog import check_label, place_on_graph
from dlagraph.closure import lie_closure
from dlagraph.graphs import InteractionGraph, _walk, subgraph

SCOPE_THEOREM = "Theorem1"
SCOPE_COMPLETE = "AppendixB_complete"
SCOPE_DIRECT_SUM = "DirectSum"
SCOPE_ORACLE = "OracleFallback"
SCOPE_OUT = "OutOfScope"
_K1 = ((0,), 0, 0, (1, 0))  # the graphs._walk numbers of an edgeless vertex

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

    The one reduction, applied by ``classify`` to each component; the module
    docstring gives its rules.  Complete graphs come first; lines and cycles
    stay ``line_or_cycle``.  A disconnected graph raises ValueError.
    """
    parts, colors = _walk(g)
    if len(parts) + g.n - len(colors) != 1:
        raise ValueError("normal_form needs a connected graph")
    return _reduce(label, *(parts[0] if parts else _K1))


def _reduce(label: str, vertices, e: int, top: int, sizes) -> NormalForm:
    """``normal_form`` of one component from its ``_walk`` numbers."""
    row = _row(label)
    n = len(vertices)
    if n < 3:
        return NormalForm("too_small", (n,))
    if e == n * (n - 1) // 2 or len(row) == 2:
        return NormalForm("complete", (n,))
    if top <= 2:
        return NormalForm("line_or_cycle", (n,))
    return NormalForm("complete_bipartite", sizes) if sizes else NormalForm("complete", (n,))


def _row(label: str) -> tuple:
    check_label(label)
    row = _TABLE.get(label)
    if row is None:
        raise ValueError(f"no reduction theory for {label}")
    return row


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


def _merge(counted) -> tuple[Summand, ...]:
    # (classification, count) pairs: equal summands add their multiplicities
    counts: dict[tuple[str, int], int] = {}
    for c, k in counted:
        for s in c.summands:
            counts[(s.family, s.size)] = counts.get((s.family, s.size), 0) + k * s.multiplicity
    return tuple(
        Summand(fam, size, mult)
        for (fam, size), mult in sorted(counts.items())
    )


def _classify_connected(g: InteractionGraph, label: str, oracle: bool, part) -> Classification:
    # one component of g, given by its _walk numbers; classify fills in bipartite
    n, e = len(part[0]), part[1]
    scope = SCOPE_THEOREM
    if label == "a0":
        summands = (Summand("u1", 1, e),) if e else ()
    elif label == "b0":
        summands = (Summand("u1", 1, n),)
    elif label == "b1":
        summands = (Summand("u1", 1, n + e),)
    elif label == "b3":
        summands = (Summand("su", 2, n),)
    elif e == 0:
        # an isolated vertex carries no 2-local interaction at all
        summands = ()
    else:
        nf = _reduce(label, *part)
        if nf.kind not in ("complete", "complete_bipartite"):
            if oracle:
                dim = lie_closure(place_on_graph(label, subgraph(g, part[0]))).dimension
                return Classification((), dim, SCOPE_ORACLE)
            return Classification((), 0, SCOPE_OUT)
        summands = theorem_summands(label, nf)
        scope = SCOPE_COMPLETE if e == n * (n - 1) // 2 else SCOPE_THEOREM
    return Classification(summands, sum(s.dim for s in summands), scope)


def classify(g: InteractionGraph, label: str, oracle: bool = False) -> Classification:
    """Predict the closure structure of the labeled placement on g.

    One graph walk gives each component's numbers; the edgeless vertices
    are one K_1 part counted as often as they occur.  One component keeps
    its own scope; several merge as OutOfScope if any part is, else
    OracleFallback if any part is, else DirectSum.  A ``line_or_cycle`` or
    ``too_small`` component is OutOfScope unless ``oracle`` is set; then
    the closure engine supplies its dimension, family unidentified.
    """
    check_label(label)
    parts, colors = _walk(g)
    isolated = g.n - len(colors)
    counted = [(_classify_connected(g, label, oracle, p), 1) for p in parts]
    if isolated:
        counted.append((_classify_connected(g, label, oracle, _K1), isolated))
    ones = sum(colors.values())
    sizes = None if any(p[3] is None for p in parts) else (g.n - ones, ones)
    scopes = [c.scope for c, _ in counted]
    if SCOPE_OUT in scopes:
        return Classification((), 0, SCOPE_OUT, sizes)
    if len(parts) + isolated == 1:
        scope = scopes[0]
    else:
        scope = SCOPE_ORACLE if SCOPE_ORACLE in scopes else SCOPE_DIRECT_SUM
    return Classification(_merge(counted), sum(c.total_dim * k for c, k in counted), scope, sizes)
