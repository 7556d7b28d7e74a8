"""The twelve symmetric 2-local generator catalogs and their graph placement.

Each label owns a template set: 2-letter templates stamped onto every edge in
both orientations, and single letters stamped onto every vertex.  Placement
order is edges (sorted) then vertices, deduplicating repeats, so a generator
list is reproducible from (label, graph) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from dlagraph.graphs import InteractionGraph
from dlagraph.pauli import _BITS_FOR_LETTER, PauliString, check_qubits, pauli_from_sites

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

# generator sets with the same closure, useful because their frustration
# graphs look different
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
    """The letter's bits in a packed n-site key at site 0; -1 for a non-Pauli letter.

    A key with a -1 part is negative, so it is never admitted before
    pauli_from_sites has refused its letter.
    """
    bits = _BITS_FOR_LETTER.get(letter)
    return -1 if bits is None else (bits[0] << n) | bits[1]


def place_templates(templates: TemplateSet, graph: InteractionGraph) -> tuple[PauliString, ...]:
    """Stamp a template set onto a graph; edge block first, then vertex block."""
    n = graph.n
    check_qubits(n)  # before any key is built: a key has 2n bits
    members: list[PauliString] = []
    seen: set[int] = set()

    def admit(key: int, sites):
        # the packed key comes first, so a string stamped twice is built and checked once
        if key not in seen:
            seen.add(key)
            members.append(pauli_from_sites(n, sites))

    two = [(t[0], t[1], _site_key(t[0], n), _site_key(t[1], n)) for t in templates.two_local]
    for (i, j) in graph.edges:
        for a, b, ka, kb in two:
            admit((ka << i) | (kb << j), ((i, a), (j, b)))
            admit((ka << j) | (kb << i), ((j, a), (i, b)))
    for v in range(n):
        for letter in templates.one_local:
            admit(_site_key(letter, n) << v, ((v, letter),))
    return tuple(members)


def place_on_graph(label: str, graph: InteractionGraph) -> GeneratorSet:
    """Primary generators of the labeled algebra on the graph.

    >>> [str(p) for p in place_on_graph("a2", build_graph(2, [(0, 1)])).members]
    ['XY', 'YX']
    """
    if check_label(label).startswith("a") and graph.edge_count == 0:
        raise ValueError(f"{label} needs at least one edge")
    return GeneratorSet(label, graph, place_templates(templates_for(label), graph))


def place_alternative(label: str, graph: InteractionGraph) -> GeneratorSet:
    """Like place_on_graph but with the label's alternative template set."""
    if check_label(label) not in ALTERNATIVES:
        raise ValueError(f"no alternative generators recorded for {label}")
    return GeneratorSet(label, graph, place_templates(ALTERNATIVES[label], graph))
