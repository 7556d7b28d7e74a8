"""Frustration graphs: membership certificates from coloring walks.

Vertices are the generators; two are adjacent when they anticommute.  A
coloring (bitmask over generator indices) stands for the canonical product of
its generators.  Toggling vertex i is legal exactly when i is adjacent to an
odd number of colored vertices; a product lies in the closure iff some
coloring of it is reachable from a singleton through legal toggles.  The
search is breadth-first, so returned traces are shortest.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from dlagraph.catalog import generator_members
from dlagraph.pauli import PauliString, commutes

# The only cap.  build_frustration rejects repeats and the identity, so s
# generators span r >= log2(s + 1) dimensions, and a target in their span has
# 2^(s - r) colorings: at most 2^19 at s = 24.
MAX_SEARCH_VERTICES = 24


class SearchSpaceTooLarge(ValueError):
    """Too many generators for a breadth-first walk over 2^size colorings."""


@dataclass(frozen=True)
class FrustrationGraph:
    generators: tuple[PauliString, ...]
    adjacency: tuple[int, ...]  # adjacency[i] = bitmask of anticommuting partners

    @property
    def size(self) -> int:
        return len(self.generators)

    @property
    def n(self) -> int:
        return self.generators[0].n

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(self.size)
            for j in range(i + 1, self.size)
            if self.adjacency[i] >> j & 1
        ]


def build_frustration(generators) -> FrustrationGraph:
    """Anticommutation graph of a generator list, as canonical strings.

    Raises ValueError on a list ``generator_members`` rejects, and on repeats
    up to phase, since a coloring names generators by index.

    >>> fg = build_frustration([parse_pauli("XX"), parse_pauli("YY"), parse_pauli("ZI")])
    >>> fg.edges()
    [(0, 2), (1, 2)]
    """
    members = tuple(p.canonical for p in generator_members(generators))
    if len({p.key for p in members}) != len(members):
        raise ValueError("duplicate generators (up to phase) confuse coloring indices")
    adj = [0] * len(members)
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if not commutes(members[i], members[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return FrustrationGraph(members, tuple(adj))


def product_of(fg: FrustrationGraph, coloring: int) -> PauliString:
    """Canonical product of the colored generators (identity for the empty set)."""
    _check_coloring(fg, coloring)
    x = z = 0
    for i, p in enumerate(fg.generators):
        if coloring >> i & 1:
            x ^= p.x_bits
            z ^= p.z_bits
    return PauliString(fg.n, x, z)


def _check_coloring(fg: FrustrationGraph, coloring: int):
    if not 0 <= coloring < (1 << fg.size):
        raise ValueError(f"coloring {coloring:#x} out of range for {fg.size} generators")


def _check_target(fg: FrustrationGraph, target: PauliString):
    if target.n != fg.n:
        raise ValueError(f"target has {target.n} sites, generators {fg.n}")


def _check_search_size(fg: FrustrationGraph):
    if fg.size > MAX_SEARCH_VERTICES:
        raise SearchSpaceTooLarge(
            f"{fg.size} generators exceed the search cap {MAX_SEARCH_VERTICES}"
        )


def is_legal_toggle(fg: FrustrationGraph, coloring: int, i: int) -> bool:
    if not 0 <= i < fg.size:
        raise ValueError(f"no generator {i}")
    return (fg.adjacency[i] & coloring).bit_count() % 2 == 1


def toggle(fg: FrustrationGraph, coloring: int, i: int) -> int:
    """Add or remove vertex i; legal only with odd colored adjacency."""
    _check_coloring(fg, coloring)
    if not is_legal_toggle(fg, coloring, i):
        raise ValueError(f"toggling generator {i} is illegal for coloring {coloring:#x}")
    return coloring ^ (1 << i)


def colorings_for_target(fg: FrustrationGraph, target: PauliString) -> list[int]:
    """All colorings whose product is canonically the target, sorted.

    Solves the linear system over GF(2) (one particular solution plus the
    kernel of the generator matrix) and enumerates.  A target outside the
    generators' span gets [] at any size; for one inside it, a graph with more
    than MAX_SEARCH_VERTICES generators raises SearchSpaceTooLarge before any
    coloring is listed.
    """
    _check_target(fg, target)
    vectors = [p.key for p in fg.generators]
    goal = target.key

    pivots: dict[int, tuple[int, int]] = {}  # leading bit -> (vector, membermask)
    kernel: list[int] = []
    for i, v in enumerate(vectors):
        mask = 1 << i
        while v:
            lead = v.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = (v, mask)
                break
            pv, pm = pivots[lead]
            v ^= pv
            mask ^= pm
        else:
            kernel.append(mask)

    mask = 0
    while goal:
        lead = goal.bit_length() - 1
        if lead not in pivots:
            return []
        pv, pm = pivots[lead]
        goal ^= pv
        mask ^= pm
    _check_search_size(fg)
    solutions = {mask}
    for k in kernel:
        solutions |= {s ^ k for s in solutions}
    return sorted(solutions)


@dataclass(frozen=True)
class Trace:
    """A legal walk: start at the singleton ``start``, then toggle ``steps`` in order."""

    start: int
    steps: tuple[int, ...]
    coloring: int

    def replay(self, fg: FrustrationGraph) -> int:
        c = 1 << self.start
        for i in self.steps:
            c = toggle(fg, c, i)
        return c


def reachable(fg: FrustrationGraph, target_coloring: int):
    """Shortest Trace from any singleton to the target coloring, or None.

    Breadth-first over the coloring space (all singletons enter the queue at
    distance zero), with ties broken by vertex index, so results are
    deterministic.  The state space is 2^size, so a graph with more than
    MAX_SEARCH_VERTICES generators raises SearchSpaceTooLarge, even for the
    empty coloring.
    """
    _check_coloring(fg, target_coloring)
    _check_search_size(fg)
    if target_coloring == 0:
        return None
    parents: dict[int, tuple[int, int]] = {}
    queue = deque()
    for i in range(fg.size):
        c = 1 << i
        if c == target_coloring:
            return Trace(i, (), c)
        parents[c] = (-1, i)
        queue.append(c)
    while queue:
        c = queue.popleft()
        for i in range(fg.size):
            if (fg.adjacency[i] & c).bit_count() % 2 == 0:
                continue
            nxt = c ^ (1 << i)
            if nxt in parents or nxt == 0:
                continue
            parents[nxt] = (c, i)
            if nxt == target_coloring:
                return _trace_from(parents, nxt)
            queue.append(nxt)
    return None


def _trace_from(parents, final):
    steps = []
    c = final
    while True:
        prev, i = parents[c]
        if prev == -1:
            return Trace(i, tuple(reversed(steps)), final)
        steps.append(i)
        c = prev


def member_via_frustration(generators, target: PauliString):
    """Certificate that the target is (not) in the closure of the generators.

    Returns the shortest Trace whose final coloring multiplies to the target,
    or None when no coloring of the target is reachable from any singleton.
    The identity and targets outside the generators' span get None at any
    size; any other target raises SearchSpaceTooLarge past
    MAX_SEARCH_VERTICES generators, before a coloring is listed.
    """
    fg = build_frustration(generators)
    _check_target(fg, target)
    if target.is_identity:
        return None
    best = None
    for coloring in colorings_for_target(fg, target):
        trace = reachable(fg, coloring)
        if trace is not None and (best is None or len(trace.steps) < len(best.steps)):
            best = trace
    return best
