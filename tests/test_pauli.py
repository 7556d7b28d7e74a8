"""Symplectic Pauli arithmetic against the dense-matrix reference."""

import random

import numpy as np
import pytest

from dlagraph.pauli import (
    PauliString,
    commutator,
    commutes,
    format_pauli,
    multiply,
    parse_pauli,
    pauli_from_sites,
    quarter_congruence,
    quarter_conjugate,
    transpose_sign,
)

from oracles import (
    commutator_dense,
    commutes_dense,
    phase_between,
    quarter_rotation,
    word_matrix,
)

PHASES = [1, 1j, -1, -1j]


def dense(p):
    return word_matrix(p.letters(), p.phase_exp)


def random_pauli(rng, n, allow_phase=True):
    word = "".join(rng.choice("IXYZ") for _ in range(n))
    phase = rng.randrange(4) if allow_phase else 0
    return parse_pauli(["", "i", "-", "-i"][phase] + word)


# ---------------------------------------------------------------- parsing

def test_parse_and_format_roundtrip():
    for text in ["X", "IZ", "XIY", "-YY", "iXZ", "-iZZI", "+XX"]:
        p = parse_pauli(text)
        canonical_text = format_pauli(p)
        assert parse_pauli(canonical_text) == p
    assert format_pauli(parse_pauli("+XX")) == "XX"


def test_parse_site_order():
    p = parse_pauli("IIZ")
    assert p.letter(2) == "Z" and p.letter(0) == "I"
    assert p.z_bits == 0b100 and p.x_bits == 0


def test_parse_rejects_garbage():
    for bad in ["", "i", "-", "AB", "X Y", "xz"]:
        with pytest.raises(ValueError):
            parse_pauli(bad)


def test_qubit_cap_default():
    # packed keys (x_bits << n) | z_bits fit an int64 up to 31 qubits
    p = parse_pauli("I" * 30 + "X")
    assert p.n == 31 and p.key == 1 << 61
    with pytest.raises(ValueError, match="qubit cap 31"):
        parse_pauli("I" * 31 + "X")


def test_pauli_from_sites():
    assert pauli_from_sites(3, [(0, "X"), (2, "Y")]).letters() == "XIY"
    assert pauli_from_sites(2, [(1, "Z")]).letters() == "IZ"
    with pytest.raises(ValueError):
        pauli_from_sites(2, [(0, "X"), (0, "Y")])
    with pytest.raises(ValueError):
        pauli_from_sites(2, [(5, "X")])


def test_exact_vs_canonical_equality():
    a = parse_pauli("XY")
    b = parse_pauli("-XY")
    assert a != b
    assert a.same_letters(b)
    assert a.canonical == b.canonical
    assert a.key == b.key


# ---------------------------------------------------- frozen small identities
# expected values confirmed with the dense oracle before the symplectic
# implementation existed

def test_xy_times_yx_is_zz_exactly():
    assert multiply(parse_pauli("XY"), parse_pauli("YX")) == parse_pauli("ZZ")


def test_commutator_xx_xy():
    got = commutator(parse_pauli("XX"), parse_pauli("XY"))
    assert got.same_letters(parse_pauli("IZ"))
    assert got.phase_exp == 1  # [XX,XY] = 2i IZ
    dense_c = commutator_dense(word_matrix("XX"), word_matrix("XY"))
    assert phase_between(dense_c, word_matrix("IZ")) == 2j


def test_single_site_table():
    # X.Y = iZ, Y.Z = iX, Z.X = iY and the reversed anticommuting partners
    for a, b, out, ph in [
        ("X", "Y", "Z", 1), ("Y", "X", "Z", 3),
        ("Y", "Z", "X", 1), ("Z", "Y", "X", 3),
        ("Z", "X", "Y", 1), ("X", "Z", "Y", 3),
        ("X", "X", "I", 0), ("Y", "Y", "I", 0), ("Z", "Z", "I", 0),
    ]:
        got = multiply(parse_pauli(a), parse_pauli(b))
        assert got.letters() == out and got.phase_exp == ph, (a, b)


def test_quarter_conjugate_x_z_gives_y():
    assert quarter_conjugate(parse_pauli("X"), parse_pauli("Z")) == parse_pauli("Y")


def test_quarter_conjugate_commuting_unchanged():
    b = parse_pauli("XX")
    assert quarter_conjugate(parse_pauli("XI"), b) == b


def test_transpose_sign_counts_ys():
    assert transpose_sign(parse_pauli("XZ")) == 1
    assert transpose_sign(parse_pauli("YZ")) == -1
    assert transpose_sign(parse_pauli("YY")) == 1
    assert transpose_sign(parse_pauli("YYY")) == -1


def test_rotation_axis_must_be_real():
    with pytest.raises(ValueError):
        quarter_conjugate(parse_pauli("iX"), parse_pauli("Z"))
    with pytest.raises(ValueError):
        quarter_congruence(parse_pauli("-iX"), parse_pauli("Z"))


# ------------------------------------------------------- randomized vs dense

def test_multiply_matches_dense():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 4)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        got = multiply(a, b)
        assert np.allclose(dense(a) @ dense(b), dense(got)), (a, b)


def test_commutes_and_commutator_match_dense():
    rng = random.Random(12)
    for _ in range(400):
        n = rng.randint(1, 4)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        c = commutes(a, b)
        assert c == commutes_dense(dense(a), dense(b))
        lie = commutator(a, b)
        if c:
            assert lie is None
        else:
            assert np.allclose(commutator_dense(dense(a), dense(b)), 2 * dense(lie))


def test_quarter_conjugate_matches_dense():
    rng = random.Random(13)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = random_pauli(rng, n)
        if a.is_identity or a.phase_exp % 2:
            continue
        b = random_pauli(rng, n)
        r = quarter_rotation(dense(a))
        assert np.allclose(r @ dense(b) @ r.conj().T, dense(quarter_conjugate(a, b)))


def test_quarter_congruence_matches_dense():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 4)
        a = random_pauli(rng, n)
        if a.is_identity or a.phase_exp % 2:
            continue
        q = random_pauli(rng, n)
        r = quarter_rotation(dense(a))
        assert np.allclose(r @ dense(q) @ r.T, dense(quarter_congruence(a, q)))


# ------------------------------------------------------------ algebraic laws

def test_multiply_associative_and_phase_group():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 5)
        a, b, c = (random_pauli(rng, n) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_square_is_real_identity():
    rng = random.Random(16)
    for _ in range(200):
        p = random_pauli(rng, rng.randint(1, 5), allow_phase=False)
        sq = multiply(p, p)
        assert sq.is_identity and sq.phase_exp == 0


def test_anticommute_flip_sign():
    # ab = -ba exactly when they anticommute
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(1, 5)
        a, b = random_pauli(rng, n), random_pauli(rng, n)
        ab, ba = multiply(a, b), multiply(b, a)
        if commutes(a, b):
            assert ab == ba
        else:
            assert ab.same_letters(ba) and (ab.phase_exp - ba.phase_exp) % 4 == 2


def test_mismatched_sites_rejected():
    with pytest.raises(ValueError):
        multiply(parse_pauli("X"), parse_pauli("XX"))
    with pytest.raises(ValueError):
        commutes(parse_pauli("X"), parse_pauli("XX"))
