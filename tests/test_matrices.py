"""Tests for division-free matrix kernels over commutative rings."""

from __future__ import annotations

import random
from fractions import Fraction

from towerlim.cyclo import CycloRing
from towerlim.matrices import (
    det_one_minus_y,
    mat_identity,
    mat_mul,
    mat_trace,
    mat_vec,
    power,
)


def _det_fraction(m):
    """Determinant by exact Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return det


def _poly_eval(coeffs, y):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * y + c
    return acc


def test_char_coeffs_match_elimination_determinant():
    # det(I - y*M) from the division-free recursion must agree with the
    # rational-elimination determinant at several sample points.
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        coeffs = det_one_minus_y(m, 1, 0)
        assert len(coeffs) == n + 1
        assert coeffs[0] == 1
        for y in (-2, -1, 0, 1, 2, 3):
            shifted = [
                [(1 if i == j else 0) - y * m[i][j] for j in range(n)]
                for i in range(n)
            ]
            assert _poly_eval(coeffs, Fraction(y)) == _det_fraction(shifted)


class _Counted:
    """An int that counts the multiplies of two ring elements."""

    muls = 0

    def __init__(self, x):
        self.x = x

    def __add__(self, o):
        return _Counted(self.x + o.x)

    def __sub__(self, o):
        return _Counted(self.x - o.x)

    def __mul__(self, o):
        _Counted.muls += 1
        return _Counted(self.x * o.x)


def test_berkowitz_adds_unit_terms_instead_of_multiplying():
    # Multiplies left once the leading ones are added: r = 2 needs one for
    # R.S and one convolution product; r = 3 needs 8 + 2 + 3.
    rng = random.Random(61)
    for r, want in [(1, 0), (2, 2), (3, 13)]:
        m = [[rng.randint(-9, 9) for _ in range(r)] for _ in range(r)]
        _Counted.muls = 0
        got = det_one_minus_y([[_Counted(x) for x in row] for row in m],
                              _Counted(1), _Counted(0))
        assert _Counted.muls == want
        assert [c.x for c in got] == det_one_minus_y(m, 1, 0)
        z3 = CycloRing(3, 1, prec=5)
        mod3 = det_one_minus_y(
            [[z3.from_int(x) for x in row] for row in m], z3.one(), z3.zero())
        assert mod3 == [z3.from_int(c.x) for c in got]


def test_char_coeffs_of_triangular_ring_matrix():
    # For upper-triangular input the answer factors through the diagonal:
    # det(I - yM) = prod_i (1 - d_i y).
    ring = CycloRing(3, 2, prec=6)
    rng = random.Random(47)
    diag = [ring.zeta(rng.randrange(9)) for _ in range(3)]
    m = [[ring.zero() for _ in range(3)] for _ in range(3)]
    for i in range(3):
        m[i][i] = diag[i]
        for j in range(i + 1, 3):
            m[i][j] = ring.zeta(rng.randrange(9))
    coeffs = det_one_minus_y(m, ring.one(), ring.zero())
    expected = [ring.one()]
    for d in diag:
        nxt = [ring.zero()] * (len(expected) + 1)
        for i, c in enumerate(expected):
            nxt[i] = nxt[i] + c
            nxt[i + 1] = nxt[i + 1] - c * d
        expected = nxt
    assert coeffs == expected


def test_char_coeffs_ring_matrix_galois_equivariance():
    # Applying a ring automorphism entrywise commutes with taking the
    # characteristic coefficients.
    ring = CycloRing(5, 1, prec=5)
    rng = random.Random(53)
    m = [[ring.zeta(rng.randrange(5)) + ring.from_int(rng.randrange(3)) for _ in range(3)] for _ in range(3)]
    coeffs = det_one_minus_y(m, ring.one(), ring.zero())
    for u in (2, 3, 4):
        twisted = [[x.galois_act(u) for x in row] for row in m]
        got = det_one_minus_y(twisted, ring.one(), ring.zero())
        assert got == [c.galois_act(u) for c in coeffs]


def test_mat_helpers_integer_semantics():
    a = [[1, 2], [3, 4]]
    b = [[0, 1], [1, 0]]
    assert mat_mul(a, b) == [[2, 1], [4, 3]]
    assert mat_trace(a) == 5
    assert mat_vec(a, [1, 1]) == [3, 7]
    assert mat_identity(3, 1, 0) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_power_of_a_matrix_matches_repeated_product():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        e = rng.randint(1, 6)
        want = a
        for _ in range(e - 1):
            want = mat_mul(want, a)
        assert power(a, e, mat_mul) == want


def test_power_of_a_matrix_over_cyclotomic_ring():
    ring = CycloRing(3, 1, prec=4)
    a = [[ring.zeta(1), ring.one()], [ring.zero(), ring.zeta(2)]]
    assert power(a, 2, mat_mul) == mat_mul(a, a)
    assert power(a, 3, mat_mul) == mat_mul(mat_mul(a, a), a)
