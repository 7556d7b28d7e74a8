"""Undirected interaction graphs: construction, parsing, enumeration.

Vertices are 0..n-1.  Edges are stored sorted as (u, v) with u < v so graph
values hash and compare deterministically.  One DFS, ``_walk``, gives the
components, connectivity and 2-colouring, and per component the four numbers
``classify`` reads: vertex count, edge count, top degree, colour classes.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class InteractionGraph:
    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __str__(self) -> str:
        return f"graph(n={self.n}, edges={list(self.edges)})"


def build_graph(n: int, edges) -> InteractionGraph:
    """Validate and normalize an edge list.

    >>> build_graph(5, [(1, 0), (1, 2), (1, 4), (2, 3)]).edges
    ((0, 1), (1, 2), (1, 4), (2, 3))
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    seen = set()
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        seen.add((min(u, v), max(u, v)))
    return InteractionGraph(n, tuple(sorted(seen)))


def degrees(g: InteractionGraph) -> tuple[int, ...]:
    d = [0] * g.n
    for (u, v) in g.edges:
        d[u] += 1
        d[v] += 1
    return tuple(d)


def max_degree(g: InteractionGraph) -> int:
    return max(degrees(g))


def _walk(g: InteractionGraph):
    """One DFS over the vertices that carry an edge, in O(edges) at any n.

    Returns ``(parts, colors)``.  ``parts`` has one ``(sorted vertices, edge
    count, top degree, colour-class sizes)`` per component with an edge, in
    least-vertex order; sizes put the least vertex's class 0 first and are
    None on an odd cycle.  ``colors`` maps each vertex with an edge to its
    class; each vertex it lacks is a K_1 component.
    """
    adj: dict[int, list[int]] = {}
    for (u, v) in g.edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    colors: dict[int, int] = {}
    parts = []
    # roots in vertex order: each uncoloured root is its component's least vertex
    for root in sorted(adj):
        if root in colors:
            continue
        colors[root] = 0
        stack, comp, odd = [root], [root], False
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in colors:
                    colors[w] = 1 - colors[v]
                    comp.append(w)
                    stack.append(w)
                odd |= colors[w] == colors[v]
        ones = sum(colors[v] for v in comp)
        parts.append((tuple(sorted(comp)), sum(len(adj[v]) for v in comp) // 2,
                      max(len(adj[v]) for v in comp), None if odd else (len(comp) - ones, ones)))
    return parts, colors


def connected_components(g: InteractionGraph) -> list[tuple[int, ...]]:
    """Components as sorted vertex tuples, ordered by smallest vertex."""
    parts, colors = _walk(g)
    by_root = {p[0][0]: p[0] for p in parts}
    return [by_root.get(v, (v,)) for v in range(g.n) if v in by_root or v not in colors]


def is_connected(g: InteractionGraph) -> bool:
    parts, colors = _walk(g)
    return len(parts) + g.n - len(colors) == 1


def subgraph(g: InteractionGraph, vertices) -> InteractionGraph:
    """Induced subgraph with vertices relabeled 0..k-1 in sorted order."""
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    edges = [
        (index[u], index[v])
        for (u, v) in g.edges
        if u in index and v in index
    ]
    return build_graph(len(verts), edges)


def add_edges(g: InteractionGraph, extra) -> InteractionGraph:
    return build_graph(g.n, list(g.edges) + list(extra))


@dataclass(frozen=True)
class Bipartition:
    """2-coloring: ``left`` is the color class of each component's least vertex."""

    colors: tuple[int, ...]

    @property
    def left(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == 0)

    @property
    def right(self) -> tuple[int, ...]:
        return tuple(v for v, c in enumerate(self.colors) if c == 1)

    @property
    def sizes(self) -> tuple[int, int]:
        return len(self.left), len(self.right)


def bipartition(g: InteractionGraph):
    """The Bipartition, or None if some component has an odd cycle."""
    parts, colors = _walk(g)
    odd = any(p[3] is None for p in parts)
    return None if odd else Bipartition(tuple(colors.get(v, 0) for v in range(g.n)))


# ------------------------------------------------------------- named graphs

def line_graph(n: int) -> InteractionGraph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> InteractionGraph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> InteractionGraph:
    return build_graph(n, itertools.combinations(range(n), 2))


def complete_bipartite(l: int, m: int) -> InteractionGraph:
    """K_{l,m}; the left class is vertices 0..l-1."""
    if l < 1 or m < 1:
        raise ValueError("both classes need at least one vertex")
    return build_graph(l + m, [(i, l + j) for i in range(l) for j in range(m)])


def sigma_graph() -> InteractionGraph:
    """Five-vertex tree: hub 1 joined to 0, 2, 4, with a tail 2-3."""
    return build_graph(5, [(0, 1), (1, 2), (1, 4), (2, 3)])


def omega_graph() -> InteractionGraph:
    """Triangle 1-2-3 with pendant vertex 0 attached to 1."""
    return build_graph(4, [(0, 1), (1, 2), (1, 3), (2, 3)])


# ----------------------------------------------------------------- parsing

def parse_graph_text(text: str) -> InteractionGraph:
    """Edge-list format: first line 'n <count>', then 'u v' lines, '#' comments."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        form = "'n <count>'" if n is None else "'u v'"
        try:
            if len(parts) != 2 or (n is None and parts[0] != "n"):
                raise ValueError
            if n is None:
                n = int(parts[1])
            else:
                edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"line {lineno}: expected {form}, got {raw!r}") from None
    if n is None:
        raise ValueError("missing 'n <count>' header line")
    return build_graph(n, edges)


def parse_graph_json(text: str) -> InteractionGraph:
    """JSON format: {"n": 5, "edges": [[0,1], [1,2]]}."""
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.loads recurses once per nesting level, so deep input overflows the stack
        raise ValueError(f"bad graph JSON: {exc}") from exc
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise ValueError("graph JSON needs keys 'n' and 'edges'")
    n, edges = obj["n"], obj["edges"]
    if not isinstance(edges, list) or not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValueError("graph JSON 'edges' must be a list of pairs [u, v]")
    # bool is a subclass of int, and a float such as 3.7 must not pass as 3
    bad = [x for x in (n, *(v for e in edges for v in e)) if type(x) is not int]
    if bad:
        raise ValueError(f"graph JSON 'n' and edge endpoints must be integers, got {bad[0]!r}")
    return build_graph(n, [tuple(e) for e in edges])


def parse_graph(text: str) -> InteractionGraph:
    """Dispatch on leading '{' between the JSON and edge-list formats."""
    if text.lstrip().startswith("{"):
        return parse_graph_json(text)
    return parse_graph_text(text)


_SHORTCUTS = {"sigma": sigma_graph, "omega": omega_graph}
# inline spec heads: constructor, argument count and edge count; each declares sum(args) vertices
_SPEC_FORMS = {"K": (complete_graph, 1, lambda n: n * (n - 1) // 2),
               "Kb": (complete_bipartite, 2, lambda l, m: l * m),
               "L": (line_graph, 1, lambda n: n - 1), "C": (cycle_graph, 1, lambda n: n)}
# most vertices plus edges an inline spec may declare: K:1413, Kb:999,999, L:500000 and
# C:500000 each classify in under 4 s and 250 MB
SPEC_MAX_SIZE = 10**6


def _parse_spec(spec: str):
    """(constructor, integer arguments, edge count) of an inline spec; ValueError on a bad one."""
    s = spec.strip()
    if s.lower() in _SHORTCUTS:
        return _SHORTCUTS[s.lower()], (), 0  # a named graph has a handful of edges
    head, colon, tail = s.partition(":")
    if colon and head in _SPEC_FORMS:
        build, arity, edges = _SPEC_FORMS[head]
        try:
            args = tuple(int(p) for p in tail.split(","))
        except ValueError:
            args = ()
        if len(args) == arity:
            return build, args, edges(*args)
    raise ValueError(f"bad graph spec {spec!r}")


def graph_from_spec(spec: str) -> InteractionGraph:
    """Inline constructors: 'K:5', 'Kb:2,3', 'L:4', 'C:6', 'Sigma', 'Omega'."""
    build, args, edges = _parse_spec(spec)
    # before any edge is built; a size below 1 is left to the constructor's own message
    if min(args, default=1) > 0 and sum(args) + edges > SPEC_MAX_SIZE:
        raise ValueError(f"graph spec {spec!r} has more than {SPEC_MAX_SIZE} vertices plus edges")
    return build(*args)


def spec_vertex_count(spec: str) -> int:
    """The vertex count an inline spec declares, read without building an edge.

    >>> spec_vertex_count("Kb:2,3")
    5
    """
    build, args, _ = _parse_spec(spec)
    return sum(args) if args else build().n


# -------------------------------------------------- isomorphism enumeration

# largest vertex count enumerate_connected_graphs handles
ENUMERATE_MAX_N = 7


def enumerate_connected_graphs(n: int, min_max_degree: int = 0) -> list[InteractionGraph]:
    """All connected graphs on n vertices up to isomorphism, one per class.

    A labeled graph is a bitmask over the n(n-1)/2 vertex pairs in
    lexicographic order, and each class is represented by its canonical
    mask, the minimum over all vertex permutations.  The classes come from
    vertex augmentation: every connected graph has a vertex whose removal
    leaves it connected (a leaf of any spanning tree), so each connected
    n-vertex graph is a connected (n-1)-vertex graph plus one vertex joined
    to a non-empty subset of it.  Augmenting one representative per
    (n-1)-vertex class therefore reaches every n-vertex class, and the
    canonical form of the candidates, computed with one matrix product per
    permutation, keeps one mask per class.  Graphs are ordered by
    (edge count, edges); n=7 (112 x 63 candidates, 5040 permutations) takes
    about a second.
    """
    if not 1 <= n <= ENUMERATE_MAX_N:
        raise ValueError(f"enumeration supported for 1 <= n <= {ENUMERATE_MAX_N}")
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for row in _connected_classes(n):
        g = build_graph(n, [pairs[b] for b in np.flatnonzero(row)])
        if max_degree(g) >= min_max_degree:
            out.append(g)
    out.sort(key=lambda g: (g.edge_count, g.edges))
    return out


def _connected_classes(n: int) -> np.ndarray:
    """Canonical masks of the connected n-vertex classes, one 0/1 row each."""
    if n == 1:
        return np.zeros((1, 0), dtype=np.int64)
    prev = _connected_classes(n - 1)
    pairs = list(itertools.combinations(range(n), 2))
    bit_of = {p: b for b, p in enumerate(pairs)}
    old = [bit_of[p] for p in itertools.combinations(range(n - 1), 2)]
    new = [bit_of[(u, n - 1)] for u in range(n - 1)]
    # vertex n-1 joined to each non-empty subset of the n-1 old vertices
    subsets = (np.arange(1, 1 << (n - 1))[:, None] >> np.arange(n - 1)) & 1
    cand = np.zeros((len(prev), len(subsets), len(pairs)), dtype=np.int64)
    cand[:, :, old] = prev[:, None, :]
    cand[:, :, new] = subsets
    reps = np.unique(_canonical_masks(cand.reshape(-1, len(pairs)), n))
    return (reps[:, None] >> np.arange(len(pairs))) & 1


def _canonical_masks(bits: np.ndarray, n: int) -> np.ndarray:
    """Minimum mask over all vertex permutations of each 0/1 row of ``bits``."""
    pairs = np.array(list(itertools.combinations(range(n), 2)))
    bit_of = np.zeros((n, n), dtype=np.int64)
    bit_of[pairs[:, 0], pairs[:, 1]] = bit_of[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    perms = np.array(list(itertools.permutations(range(n))))
    # weights[p, b] = 2^b', where permutation p takes pair b to pair b'
    weights = 1 << bit_of[perms[:, pairs[:, 0]], perms[:, pairs[:, 1]]]
    canon = np.full(len(bits), np.iinfo(np.int64).max)
    for w in weights:
        np.minimum(canon, bits @ w, out=canon)
    return canon
