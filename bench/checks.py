"""Checks of dlagraph outputs that share no code with dlagraph.

Pauli strings are plain integers here: for an n-site string, bit i of x and of
z gives the letter at site i (I=00, X=10, Y=11, Z=01, site 0 leftmost), and
the key is (x << n) | z.  Every checker returns None when the answer is right
and a one-line description of the first problem otherwise.
"""

from __future__ import annotations

import random
from collections import deque

_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


# ------------------------------------------------------------------ strings

def key_of(word: str) -> int:
    """Key of a phase-free letter word such as 'XIZ'."""
    n = len(word)
    x = z = 0
    for i, letter in enumerate(word):
        xb, zb = _BITS[letter]
        x |= xb << i
        z |= zb << i
    return (x << n) | z


def anticommute(a: int, b: int, n: int) -> bool:
    mask = (1 << n) - 1
    xa, za, xb, zb = a >> n, a & mask, b >> n, b & mask
    return bin((xa & zb) ^ (za & xb)).count("1") % 2 == 1


def word_problem(word: str, n: int):
    """Problem with a basis word of n sites: wrong length, bad letter or identity."""
    if len(word) != n:
        return f"{word!r} has {len(word)} sites, expected {n}"
    if any(c not in _BITS for c in word):
        return f"{word!r} has a letter outside IXYZ"
    if set(word) == {"I"}:
        return f"{word!r} is the identity"
    return None


# ------------------------------------------------------------------- graphs

def graph_of_spec(spec: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, edges) of the inline specs the benchmark uses: K:n, Kb:l,m, L:n, C:n,
    Sigma and Omega, as the dlagraph CLI documents them."""
    if spec == "Sigma":
        return 5, [(0, 1), (1, 2), (1, 4), (2, 3)]
    if spec == "Omega":
        return 4, [(0, 1), (1, 2), (1, 3), (2, 3)]
    kind, _, arg = spec.partition(":")
    if kind == "Kb":
        l, m = (int(s) for s in arg.split(","))
        return l + m, [(i, l + j) for i in range(l) for j in range(m)]
    n = int(arg)
    if kind == "K":
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "L":
        return n, [(i, i + 1) for i in range(n - 1)]
    if kind == "C":
        return n, [(i, (i + 1) % n) for i in range(n)]
    raise ValueError(f"unknown graph spec {spec!r}")


def color_classes(n: int, edges) -> tuple[int, int] | None:
    """Sizes of the two color classes of a connected graph, or None if it has an odd cycle."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    color[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if color[w] == -1:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                return None
    if -1 in color:
        raise ValueError("graph is not connected")
    left = color.count(0)
    return left, n - left


def max_degree(n: int, edges) -> int:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return max(deg)


# ------------------------------------------------------- closure dimensions

def _su(size):
    return size * size - 1


def _so(size):
    return size * (size - 1) // 2


def _sp(size):
    return size * (2 * size + 1)


def expected_dim(label: str, n: int, edges) -> int:
    """Closure dimension of a label placed on a connected graph, from the paper.

    Theorem 1 covers graphs with a vertex of degree >= 3; the complete-graph
    results cover K_n for n >= 3.  Labels a7, a16, a20 and a22 do not depend
    on the graph beyond n, so for them any connected graph with n >= 3
    (lines and cycles too) has the complete-graph dimension.  Only n, the
    edge count and, for a2, a4, a6 and a14, the color-class parities enter.
    """
    e = len(edges)
    if label == "a0":
        return e
    if label == "b0":
        return n
    if label == "b1":
        return n + e
    if label == "b3":
        return 3 * n
    complete = e == n * (n - 1) // 2
    if n < 3 or not (complete or max_degree(n, edges) >= 3 or label in ("a7", "a16", "a20", "a22")):
        raise ValueError(f"no closed form for {label} on this graph")
    full, half, quarter = 1 << n, 1 << (n - 1), 1 << (n - 2)
    sizes = color_classes(n, edges)
    parity = None if sizes is None else ("odd" if sizes[0] % 2 and sizes[1] % 2
                                         else "even" if sizes[0] % 2 == sizes[1] % 2 == 0
                                         else "mixed")
    split = _su(half) if n % 2 else 4 * _su(quarter)
    if label in ("a2", "a4") and parity is not None:
        return {"odd": 2 * _su(quarter), "even": 4 * _so(quarter), "mixed": _so(half)}[parity]
    if label == "a2":
        return 2 * _so(half)
    if label == "a4":
        return split
    if label == "a6":
        return split if parity is not None else 2 * _su(half)
    if label == "a7":
        return split
    if label == "a14":
        if parity is None:
            return 2 * _su(half)
        return {"odd": 2 * _sp(quarter), "even": 2 * _so(half), "mixed": _su(half)}[parity]
    if label == "a16":
        return _so(full)
    if label == "a20":
        return 2 * _su(half)
    if label == "a22":
        return _su(full)
    raise ValueError(f"unknown label {label!r}")


def dimension_problem(label: str, n: int, edges, got: int):
    want = expected_dim(label, n, edges)
    if got != want:
        return f"{label} on n={n} edges={list(edges)}: dimension {got}, the paper gives {want}"
    return None


def closure_problem(gen_keys, basis_keys, n: int, rng: random.Random, sample: int = 32):
    """Problem with a closure basis: not distinct, out of range, missing a
    generator, or a sampled element whose bracket with some generator falls
    outside the basis."""
    basis = set(basis_keys)
    if len(basis) != len(basis_keys):
        return "basis keys are not distinct"
    if 0 in basis or max(basis) >= 1 << (2 * n):
        return "basis holds the identity or a key out of range"
    missing = [g for g in gen_keys if g not in basis]
    if missing:
        return f"generator key {missing[0]} is not in the basis"
    picks = rng.sample(list(basis_keys), min(sample, len(basis_keys)))
    for b in picks:
        for g in gen_keys:
            if anticommute(b, g, n) and b ^ g not in basis:
                return f"[{g}, {b}] = {b ^ g} is not in the basis"
    return None


# --------------------------------------------------------- certificates

def replay_problem(gen_keys, n: int, start: int, steps, coloring: int, target: int):
    """Problem with a toggle walk: an illegal toggle, a wrong final coloring,
    or a final product other than the target."""
    m = len(gen_keys)
    if not 0 <= start < m:
        return f"start {start} is not a generator"
    colored = 1 << start
    for t, i in enumerate(steps):
        if not 0 <= i < m:
            return f"step {t} toggles {i}, which is not a generator"
        odd = sum(1 for j in range(m) if colored >> j & 1 and anticommute(gen_keys[i], gen_keys[j], n)) % 2
        if not odd:
            return f"step {t} toggles g{i}, which has an even number of colored anticommuting neighbours"
        colored ^= 1 << i
    if colored != coloring:
        return f"walk ends at coloring {colored:#x}, trace says {coloring:#x}"
    product = 0
    for j in range(m):
        if colored >> j & 1:
            product ^= gen_keys[j]
    if product != target:
        return f"walk ends at product key {product}, target is {target}"
    return None


def shortest_walks(gen_keys, n: int) -> dict[int, int]:
    """Fewest toggles from some generator to each reachable product.

    Breadth-first over products: from p, each generator g that anticommutes
    with p leads to g*p.  The products reached are exactly the closure.
    """
    dist = {}
    queue = deque()
    for g in gen_keys:
        if g not in dist:
            dist[g] = 0
            queue.append(g)
    while queue:
        p = queue.popleft()
        for g in gen_keys:
            if anticommute(p, g, n):
                q = p ^ g
                if q not in dist:
                    dist[q] = dist[p] + 1
                    queue.append(q)
    return dist


def certificate_problem(gen_keys, n: int, dist: dict[int, int], target: int, trace):
    """Problem with a member_via_frustration answer, given ``shortest_walks``.

    ``trace`` is None or (start, steps, coloring).  A trace must exist exactly
    when the target is reachable, replay legally to it and be shortest.
    """
    reachable = target in dist
    if trace is None:
        return f"target {target} is in the closure but no trace was returned" if reachable else None
    if not reachable:
        return f"target {target} is not in the closure but a trace was returned"
    start, steps, coloring = trace
    bad = replay_problem(gen_keys, n, start, steps, coloring, target)
    if bad:
        return bad
    if len(steps) != dist[target]:
        return f"trace has {len(steps)} toggles, the shortest walk has {dist[target]}"
    return None
