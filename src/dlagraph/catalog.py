"""The twelve symmetric 2-local generator catalogs and their graph placement.

Each label owns a template set: 2-letter templates stamped onto every edge in
both orientations, and single letters stamped onto vertices: every vertex for
a b-label, every vertex that carries an edge for an a-label, which needs at
least one edge.  Placement builds packed keys first, edges (sorted) then
vertices, keeps the first stamp of each key and only then builds the strings,
so a generator list is reproducible from (label, graph) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from dlagraph.graphs import InteractionGraph
from dlagraph.pauli import _BITS_FOR_LETTER, PauliString, check_qubits

LABELS = ("a0", "a2", "a4", "a6", "a7", "a14", "a16", "a20", "a22", "b0", "b1", "b3")


@dataclass(frozen=True)
class TemplateSet:
    two_local: tuple[str, ...]
    one_local: tuple[str, ...] = ()


CATALOG: dict[str, TemplateSet] = {
    "a0": TemplateSet(("XX",)),
    "a2": TemplateSet(("XY", "YX")),
    "a4": TemplateSet(("XX", "YY")),
    "a6": TemplateSet(("XX", "YZ", "ZY")),
    "a7": TemplateSet(("XX", "YY", "ZZ")),
    "a14": TemplateSet(("XX", "YY", "XY", "YX")),
    "a16": TemplateSet(("XY", "YX", "YZ", "ZY")),
    "a20": TemplateSet(("XX", "YY", "YZ", "ZY")),
    "a22": TemplateSet(("XX", "XY", "YX", "XZ", "ZX")),
    "b0": TemplateSet((), ("X",)),
    "b1": TemplateSet(("XX",), ("X",)),
    "b3": TemplateSet((), ("X", "Y")),
}

# generator sets whose frustration graphs look different: a14's has the same closure,
# a6's the same dimension with other strings (every connected graph on 2-6 vertices)
ALTERNATIVES: dict[str, TemplateSet] = {
    "a14": TemplateSet(("XX",), ("Z",)),
    "a6": TemplateSet(("XY", "YX", "ZZ")),
}


def check_label(label: str) -> str:
    if label not in CATALOG:
        raise ValueError(f"unknown algebra label {label!r}; choose from {', '.join(LABELS)}")
    return label


def templates_for(label: str) -> TemplateSet:
    return CATALOG[check_label(label)]


@dataclass(frozen=True)
class GeneratorSet:
    label: str
    graph: InteractionGraph
    members: tuple[PauliString, ...]

    @property
    def n(self) -> int:
        return self.graph.n


def generator_members(generators) -> tuple[PauliString, ...]:
    """The members of a GeneratorSet or of any iterable of PauliString.

    Raises ValueError unless the list is nonempty, every member has the same
    site count and none is the identity.  Repeats are kept.
    """
    members = generators.members if isinstance(generators, GeneratorSet) else tuple(generators)
    if not members:
        raise ValueError("need at least one generator")
    n = members[0].n
    for p in members:
        if p.n != n:
            raise ValueError(f"mixed site counts in generators: {p.n} vs {n}")
        if p.is_identity:
            raise ValueError("identity is not a valid generator")
    return members


def _site_key(letter: str, n: int) -> int:
    """The letter's bits in a packed n-site key at site 0."""
    if letter not in _BITS_FOR_LETTER:
        raise ValueError(f"unknown Pauli letter {letter!r}")
    return (_BITS_FOR_LETTER[letter][0] << n) | _BITS_FOR_LETTER[letter][1]


def _stamp(templates: TemplateSet, graph: InteractionGraph, vertices) -> tuple[PauliString, ...]:
    n = graph.n
    check_qubits(n)  # before any key is built: a key has 2n bits
    two = [(_site_key(a, n), _site_key(b, n)) for a, b in templates.two_local]
    one = [_site_key(letter, n) for letter in templates.one_local]
    keys = [k for (i, j) in graph.edges for a, b in two
            for k in ((a << i) | (b << j), (a << j) | (b << i))]
    keys += [k << v for v in vertices for k in one]
    mask = (1 << n) - 1
    # a list, not a generator: tuple() of one raised theorem_sweep's peak RSS by 5%
    return tuple([PauliString(n, key >> n, key & mask) for key in dict.fromkeys(keys)])


def place_templates(templates: TemplateSet, graph: InteractionGraph) -> tuple[PauliString, ...]:
    """Stamp a template set onto a graph, its one-local letters on every vertex."""
    return _stamp(templates, graph, range(graph.n))


def _place(label: str, templates: TemplateSet, graph: InteractionGraph) -> GeneratorSet:
    # the a-label rule, for primary and alternative sets alike
    vertices = range(graph.n)
    if label.startswith("a"):
        if graph.edge_count == 0:
            raise ValueError(f"{label} needs at least one edge")
        vertices = sorted({v for edge in graph.edges for v in edge})
    return GeneratorSet(label, graph, _stamp(templates, graph, vertices))


def place_on_graph(label: str, graph: InteractionGraph) -> GeneratorSet:
    """Primary generators of the labeled algebra on the graph.

    >>> [str(p) for p in place_on_graph("a2", build_graph(2, [(0, 1)])).members]
    ['XY', 'YX']
    """
    return _place(label, templates_for(label), graph)


def place_alternative(label: str, graph: InteractionGraph) -> GeneratorSet:
    """Like place_on_graph but with the label's alternative template set."""
    if check_label(label) not in ALTERNATIVES:
        raise ValueError(f"no alternative generators recorded for {label}")
    return _place(label, ALTERNATIVES[label], graph)
