"""Pauli strings in symplectic bit encoding with exact i^k phase tracking.

An n-site string is stored as two n-bit integers: bit ``i`` of ``x_bits`` /
``z_bits`` gives the letter at site ``i`` via (x,z) -> I,X,Y,Z for
(0,0),(1,0),(1,1),(0,1).  A global phase ``i**phase_exp`` rides along so that
products, commutators and quarter rotations are exact, not just projective.

Site 0 is the leftmost letter of the text form.  Everything in this module is
integer bit arithmetic; dense matrices never appear.
"""

from __future__ import annotations

from dataclasses import dataclass

# widest string: the packed key (x_bits << n) | z_bits must fit an int64, 2n <= 62 bits
MAX_QUBITS = 31

_SITE_LETTERS = "IZXY"  # the letter of a site with bits (x, z) is at (x << 1) | z
_BITS_FOR_LETTER = {letter: (code >> 1, code & 1) for code, letter in enumerate(_SITE_LETTERS)}
_PHASE_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PREFIX_PHASE = {"": 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}


@dataclass(frozen=True)
class PauliString:
    """i**phase_exp times a tensor product of I/X/Y/Z letters.

    Equality and hashing are exact (phase included); use ``canonical`` or
    ``key`` for the phase-free view that Lie-algebra membership cares about.
    """

    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one site, got n={self.n}")
        if self.n > MAX_QUBITS:
            raise ValueError(f"n={self.n} exceeds qubit cap {MAX_QUBITS}")
        mask = (1 << self.n) - 1
        if not (0 <= self.x_bits <= mask and 0 <= self.z_bits <= mask):
            raise ValueError("x_bits/z_bits out of range for n sites")
        object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    @property
    def key(self) -> int:
        """Phase-free packed integer, (x_bits << n) | z_bits."""
        return (self.x_bits << self.n) | self.z_bits

    @property
    def canonical(self) -> "PauliString":
        """The same letters with phase_exp forced to 0."""
        if self.phase_exp == 0:
            return self
        return PauliString(self.n, self.x_bits, self.z_bits, 0)

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def letter(self, site: int) -> str:
        if not 0 <= site < self.n:
            raise IndexError(f"site {site} out of range for n={self.n}")
        return _SITE_LETTERS[((self.x_bits >> site) & 1) << 1 | ((self.z_bits >> site) & 1)]

    def letters(self) -> str:
        x, z = self.x_bits, self.z_bits
        return "".join(_SITE_LETTERS[((x >> i) & 1) << 1 | ((z >> i) & 1)] for i in range(self.n))

    def same_letters(self, other: "PauliString") -> bool:
        """Canonical (phase-free) equality."""
        return (
            self.n == other.n
            and self.x_bits == other.x_bits
            and self.z_bits == other.z_bits
        )

    def __str__(self) -> str:
        return format_pauli(self)

    def __repr__(self) -> str:
        return f"PauliString({format_pauli(self)!r})"


def pauli_from_sites(n: int, assignments) -> PauliString:
    """Build a phase-free string from (site, letter) pairs; unlisted sites are I.

    >>> pauli_from_sites(3, [(0, "X"), (2, "Y")]).letters()
    'XIY'
    """
    x = z = 0
    taken = 0
    for site, letter in assignments:
        if not 0 <= site < n:
            raise ValueError(f"site {site} out of range for n={n}")
        if taken & (1 << site):
            raise ValueError(f"site {site} assigned twice")
        taken |= 1 << site
        try:
            xb, zb = _BITS_FOR_LETTER[letter]
        except KeyError:
            raise ValueError(f"unknown Pauli letter {letter!r}") from None
        x |= xb << site
        z |= zb << site
    return PauliString(n, x, z)


def parse_pauli(text: str) -> PauliString:
    """Parse 'XIZ', '-YY', 'iXZ', '-iZZ' style text into a PauliString."""
    s = text.strip()
    phase = 0
    for prefix in ("-i", "+i", "i", "-", "+"):
        if s.startswith(prefix) and len(s) > len(prefix):
            phase = _PREFIX_PHASE[prefix]
            s = s[len(prefix):]
            break
    if not s:
        raise ValueError(f"empty Pauli string in {text!r}")
    x = z = 0
    for i, letter in enumerate(s):
        if letter not in _BITS_FOR_LETTER:
            raise ValueError(f"bad letter {letter!r} in Pauli string {text!r}")
        xb, zb = _BITS_FOR_LETTER[letter]
        x |= xb << i
        z |= zb << i
    return PauliString(len(s), x, z, phase)


def format_pauli(p: PauliString) -> str:
    return _PHASE_PREFIX[p.phase_exp] + p.letters()


def _check_same_n(a: PauliString, b: PauliString):
    if a.n != b.n:
        raise ValueError(f"site-count mismatch: {a.n} vs {b.n}")


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Exact operator product a*b, phase included.

    Per site, with letters written as i^{xz} X^x Z^z, the product picks up
    i^{x1 z1 + x2 z2 + 2 z1 x2 - x3 z3} where (x3, z3) = (x1^x2, z1^z2).

    >>> format_pauli(multiply(parse_pauli("XY"), parse_pauli("YX")))
    'ZZ'
    """
    _check_same_n(a, b)
    x3 = a.x_bits ^ b.x_bits
    z3 = a.z_bits ^ b.z_bits
    phase = (
        a.phase_exp
        + b.phase_exp
        + (a.x_bits & a.z_bits).bit_count()
        + (b.x_bits & b.z_bits).bit_count()
        + 2 * (a.z_bits & b.x_bits).bit_count()
        - (x3 & z3).bit_count()
    )
    return PauliString(a.n, x3, z3, phase % 4)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab == ba (symplectic inner product is even)."""
    _check_same_n(a, b)
    return ((a.x_bits & b.z_bits) ^ (a.z_bits & b.x_bits)).bit_count() % 2 == 0


def commutator(a: PauliString, b: PauliString):
    """[a,b]/2 as a PauliString, or None when a and b commute.

    Two Pauli strings either commute or anticommute; in the latter case
    [a,b] = 2ab, and the scalar 2 is left to the caller.
    """
    if commutes(a, b):
        return None
    return multiply(a, b)


def transpose_sign(p: PauliString) -> int:
    """+1 or -1: the letters transpose to themselves up to (-1)^(#Y)."""
    return -1 if (p.x_bits & p.z_bits).bit_count() % 2 else 1


def _check_rotation_axis(a: PauliString):
    # exp(i pi/4 a) formulas below need a^2 = I, i.e. a real sign, no i factor
    if a.phase_exp % 2:
        raise ValueError("rotation axis must carry a real phase (+1 or -1)")
    if a.is_identity:
        raise ValueError("rotation axis must not be the identity")


def quarter_conjugate(a: PauliString, b: PauliString) -> PauliString:
    """exp(i pi/4 a) b exp(-i pi/4 a): b itself, or i*a*b when they anticommute.

    >>> format_pauli(quarter_conjugate(parse_pauli("X"), parse_pauli("Z")))
    'Y'
    """
    _check_rotation_axis(a)
    _check_same_n(a, b)
    if commutes(a, b):
        return b
    prod = multiply(a, b)
    return PauliString(prod.n, prod.x_bits, prod.z_bits, prod.phase_exp + 1)


def quarter_congruence(a: PauliString, q: PauliString) -> PauliString:
    """R q R^T for R = exp(i pi/4 a), with R^T = exp(i pi/4 transpose_sign(a) a).

    The two rotations cancel (q unchanged) or combine into exp(i pi/2 a) = i a,
    depending on whether a and q commute and on transpose_sign(a).
    """
    _check_rotation_axis(a)
    _check_same_n(a, q)
    combine = commutes(a, q) == (transpose_sign(a) == 1)
    if not combine:
        return q
    prod = multiply(a, q)
    return PauliString(prod.n, prod.x_bits, prod.z_bits, prod.phase_exp + 1)
