"""Dynamical Lie algebras of 1- and 2-local Pauli interactions on graphs.

The pieces, bottom up: symplectic Pauli strings (`pauli`), interaction graphs
(`graphs`), the twelve symmetric generator catalogs (`catalog`), a Lie-closure
engine that walks the generator orbit p -> g*p breadth-first and checks a
two-way certificate (`closure`), frustration-graph membership certificates
(`frustration`), the structure classifier (`classify`), antiunitary involution
fixed points (`involution`), and shared verification suites (`suites`).
"""

from dlagraph.catalog import (
    LABELS,
    GeneratorSet,
    place_alternative,
    place_on_graph,
    templates_for,
)
from dlagraph.classify import (
    Classification,
    Summand,
    classify,
    normal_form,
    simple_dim,
)
from dlagraph.closure import (
    ClosureLimitError,
    ClosureResult,
    closure_equal,
    contains,
    lie_closure,
)
from dlagraph.frustration import (
    FrustrationGraph,
    SearchSpaceTooLarge,
    Trace,
    build_frustration,
    colorings_for_target,
    member_via_frustration,
    product_of,
    reachable,
    toggle,
)
from dlagraph.graphs import (
    InteractionGraph,
    bipartition,
    build_graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    enumerate_connected_graphs,
    graph_from_spec,
    line_graph,
    omega_graph,
    parse_graph,
    sigma_graph,
)
from dlagraph.involution import (
    CrossCheck,
    Involution,
    cross_check,
    fixed_subset,
    is_fixed,
    make_theta,
    upper_bound_dim,
)
from dlagraph.pauli import (
    PauliString,
    commutator,
    commutes,
    format_pauli,
    multiply,
    parse_pauli,
    quarter_congruence,
    quarter_conjugate,
    transpose_sign,
)
from dlagraph.suites import SUITES, CheckCase

__all__ = [
    "LABELS",
    "SUITES",
    "CheckCase",
    "Classification",
    "ClosureLimitError",
    "ClosureResult",
    "CrossCheck",
    "FrustrationGraph",
    "GeneratorSet",
    "InteractionGraph",
    "Involution",
    "PauliString",
    "SearchSpaceTooLarge",
    "Summand",
    "Trace",
    "bipartition",
    "build_frustration",
    "build_graph",
    "classify",
    "closure_equal",
    "colorings_for_target",
    "commutator",
    "commutes",
    "complete_bipartite",
    "complete_graph",
    "contains",
    "cross_check",
    "cycle_graph",
    "enumerate_connected_graphs",
    "fixed_subset",
    "format_pauli",
    "graph_from_spec",
    "is_fixed",
    "lie_closure",
    "line_graph",
    "make_theta",
    "member_via_frustration",
    "multiply",
    "normal_form",
    "omega_graph",
    "parse_graph",
    "parse_pauli",
    "place_alternative",
    "place_on_graph",
    "product_of",
    "quarter_congruence",
    "quarter_conjugate",
    "reachable",
    "sigma_graph",
    "simple_dim",
    "templates_for",
    "toggle",
    "transpose_sign",
    "upper_bound_dim",
]

__version__ = "0.1.0"
