"""Reference implementations, used only by the test suite.

The dense-matrix helpers work on explicit 2^n x 2^n numpy arrays so they
share no code (and no bit tricks) with the library under test.  Capped at
n <= 5 by design: the point is an independent cross-check, not performance.
The closure-certificate checks use plain Python integers and the pairwise
definition of closedness, not the engine's generator orbit.  The graph
enumerator at the end canonicalizes every labeled graph, not just the
augmentation candidates the library builds.
"""

import itertools

import numpy as np

from dlagraph.graphs import build_graph, is_connected, max_degree

MAT = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

MAX_DENSE_QUBITS = 5


def word_matrix(word, phase_exp=0):
    """Dense matrix of i^phase_exp * (letter tensor product), site 0 leftmost."""
    assert 1 <= len(word) <= MAX_DENSE_QUBITS, word
    out = np.array([[1]], dtype=complex)
    for letter in word:
        out = np.kron(out, MAT[letter])
    return (1j ** (phase_exp % 4)) * out


def commutes_dense(a, b):
    return np.allclose(a @ b, b @ a, atol=1e-12)


def commutator_dense(a, b):
    return a @ b - b @ a


def quarter_rotation(a):
    """exp(i pi/4 A) for A with A^2 = I, computed as (I + iA)/sqrt(2)."""
    dim = a.shape[0]
    assert np.allclose(a @ a, np.eye(dim), atol=1e-12), "rotation axis must square to I"
    return (np.eye(dim) + 1j * a) / np.sqrt(2.0)


def phase_between(actual, expected):
    """Return scalar c with actual == c * expected, or None if not proportional."""
    idx = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
    if abs(expected[idx]) < 1e-12:
        return None
    c = actual[idx] / expected[idx]
    if np.allclose(actual, c * expected, atol=1e-10):
        return c
    return None


def lie_closure_dim_dense(words, max_dim=None):
    """Dimension of the Lie closure of the given Pauli words, by dense linear algebra.

    Maintains an orthonormal basis (Hilbert-Schmidt inner product) of the
    closure and a worklist of basis representatives; every pair of spanning
    elements gets its matrix commutator tested against the current span.
    """
    n = len(words[0])
    assert all(len(w) == n for w in words)
    dim = 2**n
    flat = np.zeros((0, dim * dim), dtype=complex)
    reps = []

    def admit(m):
        nonlocal flat
        v = m.reshape(-1)
        # classical Gram-Schmidt, applied twice for numerical stability
        for _ in range(2):
            if flat.shape[0]:
                coeffs = flat.conj() @ v
                v = v - flat.T @ coeffs
        norm = np.linalg.norm(v)
        if norm < 1e-8:
            return False
        v = v / norm
        flat = np.vstack([flat, v[None, :]])
        reps.append(v.reshape(dim, dim))
        return True

    for w in words:
        admit(word_matrix(w))
    i = 0
    while i < len(reps):
        a = reps[i]
        j = 0
        while j < len(reps):
            admit(commutator_dense(a, reps[j]))
            if max_dim is not None and len(reps) > max_dim:
                raise RuntimeError("dense closure exceeded max_dim")
            j += 1
        i += 1
    return len(reps)


def _anticommute(a, b, n):
    return (((a >> n) & b) ^ (a & (b >> n))).bit_count() & 1 == 1


def assert_bracket_closed(keys, n):
    """Every anticommuting pair of packed keys has its product among the keys.

    O(d^2) over all unordered pairs: the definition of a closed string set.
    """
    mask = (1 << n) - 1
    rows = [(int(k), int(k) >> n, int(k) & mask) for k in keys]
    present = {k for k, _, _ in rows}
    assert len(present) == len(rows), "a key is listed twice"
    for i, (a, xa, za) in enumerate(rows):
        missing = [
            b for b, xb, zb in rows[i + 1:]
            if ((xa & zb) ^ (za & xb)).bit_count() & 1 and a ^ b not in present
        ]
        assert not missing, f"bracket of key {a} with key {missing[0]} is missing"


def assert_orbit_replays(order, parents, generator_keys, n):
    """Every key is a generator or a bracket of a generator with an earlier key."""
    order = [int(k) for k in order]
    m = len(order) - len(parents)
    assert set(order[:m]) == {int(k) for k in generator_keys}, "basis does not start with the generators"
    for k, (src, via) in enumerate(parents.tolist(), start=m):
        parent, gen = order[src], order[via]
        assert src < k and via < m, f"pointer of element {k} is not earlier"
        assert _anticommute(parent, gen, n), f"element {k} is no bracket"
        assert parent ^ gen == order[k], f"element {k} does not replay"


def enumerate_connected_graphs_brute(n, min_max_degree=0):
    """Connected n-vertex graphs up to isomorphism, from all 2^(n(n-1)/2) masks.

    The canonical form of every labeled graph is its minimum mask over all
    vertex permutations, one matrix product per permutation; the masks equal
    to their canonical form are the representatives.  Practical through n=6
    (32768 masks x 720 permutations).
    """
    if n == 1:
        g = build_graph(1, [])
        return [g] if min_max_degree <= 0 else []
    pairs = list(itertools.combinations(range(n), 2))
    bit_of = {p: i for i, p in enumerate(pairs)}
    nbits = len(pairs)
    masks = np.arange(1 << nbits, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(nbits)) & 1
    canon = masks.copy()
    for perm in itertools.permutations(range(n)):
        weights = np.zeros(nbits, dtype=np.int64)
        for (u, v), b in bit_of.items():
            pu, pv = perm[u], perm[v]
            weights[b] = 1 << bit_of[(min(pu, pv), max(pu, pv))]
        np.minimum(canon, bits @ weights, out=canon)
    reps = np.nonzero(canon == masks)[0]
    out = []
    for mask in reps.tolist():
        edges = [pairs[b] for b in range(nbits) if mask >> b & 1]
        g = build_graph(n, edges)
        if is_connected(g) and max_degree(g) >= min_max_degree:
            out.append(g)
    out.sort(key=lambda g: (g.edge_count, g.edges))
    return out
