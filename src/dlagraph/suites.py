"""Named verification suites shared by the CLI and the acceptance tests.

Each suite pits two independently implemented routes against each other
(structure tables vs closure engine, frustration walks vs closure membership,
fixed-point counts vs block closures, symplectic products vs a literal
single-site multiplication table) and reports one CheckCase per cell.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from dlagraph.catalog import LABELS, place_alternative, place_on_graph
from dlagraph.classify import classify
from dlagraph.closure import DEFAULT_LIMIT, closure_equal, contains, lie_closure
from dlagraph.frustration import build_frustration, member_via_frustration, product_of
from dlagraph.graphs import (
    ENUMERATE_MAX_N,
    add_edges,
    complete_graph,
    enumerate_connected_graphs,
    line_graph,
    omega_graph,
    sigma_graph,
)
from dlagraph.involution import cross_check
from dlagraph.pauli import (
    PauliString,
    commutator,
    commutes,
    multiply,
    parse_pauli,
    quarter_congruence,
    quarter_conjugate,
    transpose_sign,
)


@dataclass(frozen=True)
class CheckCase:
    name: str
    passed: bool
    detail: str = ""


def all_passed(cases) -> bool:
    return all(c.passed for c in cases)


# su(2^n), the largest closure on n sites, has 4^n - 1 strings; this is the
# largest n for which that fits under the default closure limit
_FULL_CLOSURE_MAX_N = ((DEFAULT_LIMIT + 1).bit_length() - 1) // 2


def _check_size(suite: str, name: str, value: int, low: int, high: int) -> None:
    """Reject, before any work, a size bound that selects no case or that the
    suite cannot run up to (graph enumeration, closure limit)."""
    if not low <= value <= high:
        raise ValueError(f"{suite} needs {low} <= {name} <= {high}, got {value}")


# --------------------------------------------------------------- theorem1

def _table_vs_engine(name: str, g, label: str, detail: str = "") -> CheckCase:
    """One cell: the structure table's dimension against the closure engine's."""
    predicted = classify(g, label).total_dim
    actual = lie_closure(place_on_graph(label, g)).dimension
    return CheckCase(name, predicted == actual, f"predicted {predicted}, closure {actual}{detail}")


def suite_theorem1(max_n: int = 5) -> list[CheckCase]:
    """Structure table vs closure engine on every branched graph up to max_n."""
    _check_size("theorem1", "max_n", max_n, 4, ENUMERATE_MAX_N)
    return [
        _table_vs_engine(f"n={n} graph#{idx:03d} {label}", g, label, f", edges {list(g.edges)}")
        for n in range(4, max_n + 1)
        for idx, g in enumerate(enumerate_connected_graphs(n, min_max_degree=3))
        for label in LABELS
    ]


# ------------------------------------------------------- complete graphs

def suite_appendix_complete(max_n: int = 6) -> list[CheckCase]:
    """Known complete-graph closures vs the engine for n = 3..max_n."""
    _check_size("appendixB", "max_n", max_n, 3, _FULL_CLOSURE_MAX_N)
    return [
        _table_vs_engine(f"K{n} {label}", complete_graph(n), label)
        for n in range(3, max_n + 1)
        for label in LABELS
    ]


# ----------------------------------------------------------- equivalence

def suite_equivalence() -> list[CheckCase]:
    """Graph-reduction moves preserve the closure as a set, not just its size."""
    out = []
    sigma = sigma_graph()
    k23 = add_edges(sigma, [(0, 3), (3, 4)])  # completes Sigma's bipartition
    omega = omega_graph()
    k4 = complete_graph(4)
    for label in ("a2", "a4", "a6", "a14"):
        same = closure_equal(
            lie_closure(place_on_graph(label, sigma)),
            lie_closure(place_on_graph(label, k23)),
        )
        out.append(CheckCase(f"Sigma ~ K_{{2,3}} {label}", same))
        same = closure_equal(
            lie_closure(place_on_graph(label, omega)),
            lie_closure(place_on_graph(label, k4)),
        )
        out.append(CheckCase(f"Omega ~ K4 {label}", same))
    for label in ("a7", "a16", "a20", "a22"):
        same = closure_equal(
            lie_closure(place_on_graph(label, line_graph(3))),
            lie_closure(place_on_graph(label, complete_graph(3))),
        )
        out.append(CheckCase(f"L3 ~ K3 {label}", same))
    return out


# ----------------------------------------------------------- frustration

def _membership_claims():
    return [
        ("a2 Sigma", place_on_graph("a2", sigma_graph()), "XIIYI"),
        ("a14 Sigma XX+Z", place_alternative("a14", sigma_graph()), "XIIXI"),
        ("a2 Omega", place_on_graph("a2", omega_graph()), "XIYI"),
        ("a4 Omega", place_on_graph("a4", omega_graph()), "XIXI"),
        ("a6 Omega XY/YX/ZZ", place_alternative("a6", omega_graph()), "ZIZI"),
        ("a14 Omega XX+Z", place_alternative("a14", omega_graph()), "XIXI"),
    ]


def suite_frustration() -> list[CheckCase]:
    """Coloring-walk certificates vs direct closure membership."""
    out = []
    for name, gens, text in _membership_claims():
        target = parse_pauli(text)
        trace = member_via_frustration(gens, target)
        ok = trace is not None
        detail = "no trace found"
        if ok:
            fg = build_frustration(gens)
            final = trace.replay(fg)  # raises if any step is illegal
            ok = product_of(fg, final).same_letters(target)
            ok = ok and contains(lie_closure(gens), target)
            detail = f"start g{trace.start}, {len(trace.steps)} toggles"
        out.append(CheckCase(f"{name}: {text} reachable", ok, detail))
    # blocked-path counterexample: commuting endpoints are unreachable
    gens = [parse_pauli(t) for t in ("YX", "XX", "XY")]
    trace = member_via_frustration(gens, parse_pauli("ZZ"))
    in_closure = contains(lie_closure(gens), parse_pauli("ZZ"))
    out.append(CheckCase(
        "blocked path: ZZ not reachable",
        trace is None and not in_closure,
        f"trace {trace}, closure membership {in_closure}",
    ))
    return out


# ------------------------------------------------------------ involution

def suite_involution(max_n: int = 6) -> list[CheckCase]:
    """Fixed points of the full-block closure vs the split-block closure."""
    _check_size("involution", "max_n", max_n, 2, _FULL_CLOSURE_MAX_N)
    out = []
    for label in ("a4", "a14"):
        for n in range(2, max_n + 1):
            whole = lie_closure(place_on_graph(label, complete_graph(n)))
            for l in range(1, n):
                check = cross_check(label, l, n - l, whole)
                tag = "" if check.in_hypothesis else " [out of hypothesis, recorded]"
                out.append(CheckCase(
                    f"{label} ({l},{n - l})",
                    check.passed,
                    f"K_{{l,m}} dim {check.block.dimension}, fixed {check.fixed.dimension}, "
                    f"formula {'none' if check.formula_dim is None else check.formula_dim}{tag}",
                ))
    return out


# ----------------------------------------------------------------- pauli

_SITE_PRODUCTS = {
    ("I", "I"): ("I", 0), ("I", "X"): ("X", 0), ("I", "Y"): ("Y", 0), ("I", "Z"): ("Z", 0),
    ("X", "I"): ("X", 0), ("Y", "I"): ("Y", 0), ("Z", "I"): ("Z", 0),
    ("X", "X"): ("I", 0), ("Y", "Y"): ("I", 0), ("Z", "Z"): ("I", 0),
    ("X", "Y"): ("Z", 1), ("Y", "X"): ("Z", 3),
    ("Y", "Z"): ("X", 1), ("Z", "Y"): ("X", 3),
    ("Z", "X"): ("Y", 1), ("X", "Z"): ("Y", 3),
}


def _ref_product(a: PauliString, b: PauliString):
    letters = []
    phase = a.phase_exp + b.phase_exp
    for la, lb in zip(a.letters(), b.letters()):
        lo, ph = _SITE_PRODUCTS[(la, lb)]
        letters.append(lo)
        phase += ph
    return "".join(letters), phase % 4


def _random_string(rng, n, phased=True):
    word = "".join(rng.choice("IXYZ") for _ in range(n))
    prefix = rng.choice(["", "i", "-", "-i"]) if phased else ""
    return parse_pauli(prefix + word)


def suite_pauli(cases: int = 10000, seed: int = 7) -> list[CheckCase]:
    """Symplectic engine vs the literal one-site multiplication table."""
    if cases < 1:
        raise ValueError(f"pauli needs at least one case, got {cases}")
    rng = random.Random(seed)
    bad = {"multiply": 0, "commutes": 0, "commutator": 0,
           "transpose": 0, "conjugate": 0, "congruence": 0}
    for _ in range(cases):
        n = rng.randint(1, 8)
        a = _random_string(rng, n)
        b = _random_string(rng, n)
        want_letters, want_phase = _ref_product(a, b)
        got = multiply(a, b)
        if got.letters() != want_letters or got.phase_exp != want_phase:
            bad["multiply"] += 1
        ab, ba = _ref_product(a, b), _ref_product(b, a)
        ref_commute = ab == ba
        if commutes(a, b) != ref_commute:
            bad["commutes"] += 1
        lie = commutator(a, b)
        if ref_commute:
            if lie is not None:
                bad["commutator"] += 1
        elif lie is None or lie.letters() != ab[0] or lie.phase_exp != ab[1]:
            bad["commutator"] += 1
        ref_t = -1 if a.letters().count("Y") % 2 else 1
        if transpose_sign(a) != ref_t:
            bad["transpose"] += 1
        if a.is_identity or a.phase_exp % 2:
            continue
        conj = quarter_conjugate(a, b)
        if ref_commute:
            ok = conj == b
        else:
            ok = conj.letters() == ab[0] and conj.phase_exp == (ab[1] + 1) % 4
        if not ok:
            bad["conjugate"] += 1
        cong = quarter_congruence(a, b)
        combine = ref_commute == (ref_t == 1)
        if combine:
            ok = cong.letters() == ab[0] and cong.phase_exp == (ab[1] + 1) % 4
        else:
            ok = cong == b
        if not ok:
            bad["congruence"] += 1
    out = [
        CheckCase(f"{op} vs letter table", count == 0, f"{count} mismatches in {cases} cases")
        for op, count in bad.items()
    ]
    # frozen identities, confirmed against the dense oracle in the test suite
    out.append(CheckCase(
        "XY.YX == ZZ",
        multiply(parse_pauli("XY"), parse_pauli("YX")) == parse_pauli("ZZ"),
    ))
    got = commutator(parse_pauli("XX"), parse_pauli("XY"))
    out.append(CheckCase(
        "[XX,XY]/2 == i IZ",
        got is not None and got.letters() == "IZ" and got.phase_exp == 1,
    ))
    return out


SUITES = {
    "theorem1": suite_theorem1,
    "appendixB": suite_appendix_complete,
    "equivalence": suite_equivalence,
    "frustration": suite_frustration,
    "involution": suite_involution,
    "pauli": suite_pauli,
}
