"""Lie closure of Pauli generators as a breadth-first orbit.

The closure of a Pauli generator set G under commutators is spanned by the
right-normed brackets [g1, [g2, ... [g_{k-1}, g_k]]] with every g_i in G, and
each such bracket is a single Pauli string up to phase.  So the closure basis
is the orbit of G under p -> g*p, taken only for the generators g that
anticommute with p: the frustration-graph picture.  The engine walks that
orbit level by level, one blocked numpy pass per level over frontier x
generators, each block at most about _BLOCK_PAIRS pairs, and records for
every derived string the (parent, generator) pair that produced it.  Pairs
are taken generator-major, frontier index within a generator, and a string
met more than once keeps its first pair: the basis order is that of a loop
over one generator at a time.  That costs d * |G| anticommutation tests for
a basis of size d, each the parity of a basis key AND a generator key with
its x and z halves swapped; the generator keys are swapped once per closure.
The first pair of each new key is found by a stable sort of the block's
keys, run as a least-significant-first radix over 16-bit digits (one pass up
to n = 8, ceil(2n / 16) beyond), which numpy sorts without comparisons.
Being stable, it keeps the tie-break of a stable comparison sort.

Everything lives on phase-free packed keys (x_bits << n) | z_bits, so a
product is a XOR of keys.  For n up to 13 a dense bytemap over all 4^n keys
handles dedup and membership; beyond that a plain set takes over.

``verify=True`` checks a certificate in both directions: every parent pointer
replays (the parent comes earlier, its generator anticommutes with it and
their product is the element), so the basis lies in Lie(G); and g*b is in
the basis for every generator g and basis element b that anticommute, so the
span contains G and is invariant under every ad_g, hence contains Lie(G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from dlagraph.catalog import generator_members
from dlagraph.pauli import _SITE_LETTERS, PauliString

DEFAULT_LIMIT = 4**10

_BYTEMAP_MAX_KEYS = 1 << 26
# pairs tested per numpy pass in the orbit and in closed_under, so temporaries stay small
_BLOCK_PAIRS = 1 << 14
# pauli's site letters as bytes, indexed by (x_bit << 1) | z_bit
_LETTER_CODES = np.frombuffer(_SITE_LETTERS.encode("ascii"), dtype=np.uint8)
# packed keys (x_bits << n) | z_bits are stored as int64: pauli.MAX_QUBITS keeps 2n <= 62 bits


class ClosureLimitError(RuntimeError):
    """Basis grew past the requested limit; carries the partial size."""

    def __init__(self, limit: int, partial_dimension: int):
        super().__init__(
            f"closure exceeded limit {limit} (partial basis size {partial_dimension})"
        )
        self.limit = limit
        self.partial_dimension = partial_dimension


@dataclass(frozen=True)
class ClosureStats:
    """Work counters: elements expanded, generator-element pairs tested, and
    the breadth-first depth (levels of derived strings past the generators)."""

    pops: int
    pair_evaluations: int
    levels: int = 0


@dataclass(frozen=True)
class ClosureResult:
    """Closure basis as canonical packed keys, in breadth-first order.

    The first ``dimension - len(parents)`` keys are the distinct generators.
    Row k of ``parents`` is (parent index, generator index) for the key at
    ``order[dimension - len(parents) + k]``: that key is the product of the
    generator ``order[generator index]`` with the earlier key
    ``order[parent index]``.  ``parents`` is None for a basis that is not an
    orbit, such as a fixed-point subset.
    """

    n: int
    order: tuple[int, ...]
    stats: ClosureStats
    parents: np.ndarray | None = field(default=None, compare=False, repr=False)

    @cached_property
    def keys(self) -> frozenset[int]:
        return frozenset(self.order)

    @property
    def dimension(self) -> int:
        return len(self.order)

    def strings(self) -> tuple[PauliString, ...]:
        mask = (1 << self.n) - 1
        return tuple(
            PauliString(self.n, k >> self.n, k & mask) for k in self.order
        )

    def words(self) -> list[str]:
        """The letters of each basis string, in ``order``; no PauliString is built."""
        keys = np.asarray(self.order, dtype=np.int64)
        # bit i of z_bits is bit i of the key itself, since z_bits is the low half
        x, z = keys >> self.n, keys
        letters = np.empty((keys.size, self.n), dtype=np.uint8)
        for i in range(self.n):
            letters[:, i] = _LETTER_CODES[((x >> i) & 1) << 1 | ((z >> i) & 1)]
        return letters.view(f"S{self.n}").ravel().astype(f"U{self.n}").tolist()

    def __contains__(self, p: PauliString) -> bool:
        return contains(self, p)


def anticommuting(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Elementwise (broadcasting) anticommutation of packed n-site keys.

    With a = (x1, z1) and b = (x2, z2), the symplectic form x1.z2 + z1.x2 is
    the popcount of a AND (b with its halves swapped).
    """
    return _odd_overlap(a, _swap_halves(b, n))


def _swap_halves(keys: np.ndarray, n: int) -> np.ndarray:
    """Packed keys with their halves swapped, (z_bits << n) | x_bits."""
    return ((keys & ((1 << n) - 1)) << n) | (keys >> n)


def _odd_overlap(a: np.ndarray, swapped: np.ndarray) -> np.ndarray:
    """Anticommutation of keys a and b, given ``swapped = _swap_halves(b, n)``."""
    # a bool view, not a uint8 mask: flatnonzero takes its fast path only on bool
    return (np.bitwise_count(a & swapped) & 1).view(bool)


def _stable_order(keys: np.ndarray, n: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for packed n-site keys, by 16-bit digits.

    Stable argsorts of uint16 digits, least significant first, are radix
    sorts in numpy: one pass for n <= 8 and ceil(2n / 16) passes up to 31 qubits.
    The cast to uint16 keeps the low 16 bits, the digit.
    """
    order = np.argsort(keys.astype(np.uint16), kind="stable")
    for shift in range(16, 2 * n, 16):
        digits = (keys[order] >> shift).astype(np.uint16)
        order = order[np.argsort(digits, kind="stable")]
    return order


def lie_closure(generators, limit: int = DEFAULT_LIMIT, verify: bool = True) -> ClosureResult:
    """Smallest commutator-closed set of canonical strings containing the generators.

    ``generators`` is a GeneratorSet or any iterable of PauliString, checked
    by ``generator_members``; repeats, also up to phase, count once.  Raises
    ClosureLimitError when the basis grows past ``limit``, and AssertionError
    when ``verify`` is set and the two-way certificate does not check.  The
    result only depends on the generator set; the basis ordering only on its
    ordering.

    >>> r = lie_closure([parse_pauli("XY"), parse_pauli("YX")])
    >>> r.dimension
    2
    """
    if limit < 1:
        raise ValueError(f"limit must be positive, got {limit}")
    members = generator_members(generators)
    n = members[0].n
    gens = np.asarray(list(dict.fromkeys(p.key for p in members)), dtype=np.int64)
    keys, parents, levels = _orbit(gens, n, limit)
    if verify:
        _check_certificate(gens, keys, parents, n)
    stats = ClosureStats(keys.size, keys.size * gens.size, levels)
    return ClosureResult(n, tuple(keys.tolist()), stats, parents)


def _orbit(gens: np.ndarray, n: int, limit: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Breadth-first orbit of the generator keys: (keys, parent pointers, levels)."""
    seen = _KeySet(gens, n)
    swapped = _swap_halves(gens, n)
    key_chunks = [gens]
    parent_chunks = []
    frontier, start, size, levels = gens, 0, gens.size, 0
    while frontier.size:
        level = []
        step = max(1, _BLOCK_PAIRS // frontier.size)
        for j in range(0, gens.size, step):
            block = gens[j:j + step, None]
            # flat pair indices run generator-major: the order of the tie-break
            pairs = np.flatnonzero(_odd_overlap(frontier, swapped[j:j + step, None]))
            cand = (frontier ^ block).ravel()[pairs]
            new = ~seen.has(cand)
            pairs, cand = pairs[new], cand[new]
            if not cand.size:
                continue
            if block.size > 1:
                # a key met under several generators keeps its first pair
                by_key = _stable_order(cand, n)
                first = np.ones(cand.size, dtype=bool)
                first[by_key[1:]] = cand[by_key[1:]] != cand[by_key[:-1]]
                pairs, cand = pairs[first], cand[first]
            rows, idx = np.divmod(pairs, frontier.size)
            level.append(cand)
            seen.add(cand)
            pointers = np.empty((cand.size, 2), dtype=np.int32)
            pointers[:, 0] = idx + start
            pointers[:, 1] = rows + j
            parent_chunks.append(pointers)
            if size + cand.size > limit:
                # report the size after the generator row that crossed the limit
                counts = np.bincount(rows, minlength=block.size)
                sizes = size + np.cumsum(counts)
                raise ClosureLimitError(limit, int(sizes[np.argmax((sizes > limit) & (counts > 0))]))
            size += cand.size
        start += frontier.size
        frontier = np.concatenate(level) if level else gens[:0]
        key_chunks.append(frontier)
        levels += bool(level)
    keys = np.concatenate(key_chunks)
    parents = np.concatenate(parent_chunks) if parent_chunks else np.zeros((0, 2), np.int32)
    return keys, parents, levels


def _check_certificate(gens: np.ndarray, keys: np.ndarray, parents: np.ndarray, n: int):
    """Raise AssertionError unless span(keys) is exactly Lie(gens).

    Checked against the input generators and the final key list only, never
    against the engine's dedup state.
    """
    m, d = gens.size, keys.size
    if not np.array_equal(keys[:m], gens) or parents.shape != (d - m, 2):
        raise AssertionError("closure certificate does not start from the generators")
    src, via = parents[:, 0].astype(np.int64), parents[:, 1].astype(np.int64)
    if not ((src >= 0) & (src < np.arange(m, d)) & (via >= 0) & (via < m)).all():
        raise AssertionError("closure certificate has a parent pointer out of range")
    src_keys, via_keys = keys[src], gens[via]
    if not (anticommuting(src_keys, via_keys, n).all()
            and np.array_equal(src_keys ^ via_keys, keys[m:])):
        raise AssertionError("closure certificate has a parent pointer that does not replay")
    # the orbit's own radix sort: np.sort's kernels would add their pages to the RSS
    ordered = keys[_stable_order(keys, n)]
    if (ordered[1:] == ordered[:-1]).any():
        raise AssertionError("closure certificate lists a string twice")
    if not closed_under(keys, gens, n):
        raise AssertionError("closure certificate is missing a bracket with a generator")


def closed_under(keys: np.ndarray, by: np.ndarray, n: int) -> bool:
    """Whether b*k is again among ``keys`` for every anticommuting b in ``by``, k in ``keys``.

    When ``by`` is ``keys`` itself (the closedness of a set), only the pairs
    (keys[i], keys[j]) with j > i are tested: b*k and k*b are the same key
    and a key commutes with itself.
    """
    # one pass per block of ``by``, at most about _BLOCK_PAIRS (b, k) pairs each
    member = _KeySet(keys, n)
    unordered = by is keys
    swapped = _swap_halves(by, n)
    step = max(1, _BLOCK_PAIRS // max(keys.size, 1))
    for i in range(0, by.size, step):
        block = by[i:i + step, None]
        cols = keys[i + 1:] if unordered else keys
        hit = _odd_overlap(cols, swapped[i:i + step, None])
        if unordered:
            # row i + r meets column i + 1 + c, a later key when c >= r
            hit &= np.arange(cols.size) >= np.arange(block.shape[0])[:, None]
        # a flat take is faster than a 2-D boolean index here
        if not member.has((cols ^ block).ravel()[np.flatnonzero(hit)]).all():
            return False
    return True


class _KeySet:
    """Vectorized set of packed n-site keys: a bytemap over all 4^n keys up to
    n = 13, a plain set beyond."""

    def __init__(self, keys: np.ndarray, n: int):
        self._map = None
        if (1 << (2 * n)) <= _BYTEMAP_MAX_KEYS:
            self._map = np.zeros(1 << (2 * n), dtype=bool)
            self._map[keys] = True
        else:
            self._set = set(keys.tolist())

    def has(self, cand: np.ndarray) -> np.ndarray:
        if self._map is not None:
            return self._map[cand]
        return np.fromiter((k in self._set for k in cand.tolist()), bool, cand.size)

    def add(self, keys: np.ndarray) -> None:
        if self._map is not None:
            self._map[keys] = True
        else:
            self._set.update(keys.tolist())


def contains(result: ClosureResult, p: PauliString) -> bool:
    """Canonical membership; the identity is never a member."""
    if p.n != result.n or p.is_identity:
        return False
    return p.key in result.keys


def closure_equal(a: ClosureResult, b: ClosureResult) -> bool:
    return a.n == b.n and a.keys == b.keys
