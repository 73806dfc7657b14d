"""Matrix and polynomial helpers: one implementation of each.

* Square matrices over any commutative ring.  Entries only need +, -, *
  (ints, CycloElem, PadicInt, ... all qualify).  Every routine takes
  explicit `one`/`zero` ring constants where it cannot infer them, and the
  characteristic polynomial uses the Berkowitz algorithm, which is
  division-free and therefore valid verbatim over these rings.
* Polynomials as ascending coefficient lists over any such ring.
* Integer matrices mod M, and orbits of (Z/M)^b under an integer matrix.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Callable, Iterator, Sequence

from .errors import InputError

Matrix = Sequence[Sequence]


def mat_identity(r: int, one, zero) -> list[list]:
    return [[one if i == j else zero for j in range(r)] for i in range(r)]


def mat_add(a: Matrix, b: Matrix) -> list[list]:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> list[list]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a: Matrix, b: Matrix) -> list[list]:
    r, mid, c = len(a), len(b), len(b[0])
    out = []
    for i in range(r):
        row_a = a[i]
        row = []
        for j in range(c):
            acc = row_a[0] * b[0][j]
            for t in range(1, mid):
                acc = acc + row_a[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(a: Matrix, v: Sequence) -> list:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for t in range(1, len(v)):
            acc = acc + row[t] * v[t]
        out.append(acc)
    return out


def mat_pow(a: Matrix, e: int, one, zero) -> list[list]:
    out = mat_identity(len(a), one, zero)
    base = [list(r) for r in a]
    while e:
        if e & 1:
            out = mat_mul(out, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return out


def mat_trace(a: Matrix):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def berkowitz_char_coeffs(m: Matrix, one, zero) -> list:
    """Coefficients of det(y*I - M), descending: [1, c_1, ..., c_r].

    Berkowitz's vector recurrence: growing the leading principal minor one
    row at a time, the new coefficient vector is a truncated convolution of
    the old one with the Toeplitz column

        [1, -M[i][i], -(R.S), -(R.A.S), -(R.A^2.S), ...]

    where A is the previous leading block, R the new row to its left, and
    S the new column above the diagonal entry.  No divisions anywhere.
    The leading entries of the column and of the coefficient vector are
    the caller's `one`, so terms with either are added, not multiplied.
    """
    r = len(m)
    coeffs = [one]
    for i in range(r):
        col = [one, zero - m[i][i]]
        if i > 0:
            lead = [row[:i] for row in m[:i]]
            s = [m[t][i] for t in range(i)]
            row_left = m[i][:i]
            for k in range(i):
                acc = row_left[0] * s[0]
                for t in range(1, i):
                    acc = acc + row_left[t] * s[t]
                col.append(zero - acc)
                if k < i - 1:
                    s = mat_vec(lead, s)
        out = [zero] * (i + 2)
        for ai, av in enumerate(col):
            for bi, bv in enumerate(coeffs[: i + 2 - ai]):
                term = bv if ai == 0 else av if bi == 0 else av * bv
                out[ai + bi] = out[ai + bi] + term
        coeffs = out
    return coeffs


def det_one_minus_y(m: Matrix, one, zero) -> list:
    """Coefficients [a_0, ..., a_r] of det(I - y*M), ascending in y.

    The coefficient of y^i here equals the coefficient of lambda^(r-i) in
    det(lambda*I - M), so this is a relabeling of the Berkowitz output.
    """
    return berkowitz_char_coeffs(m, one, zero)


# -- polynomials -------------------------------------------------------------


def _is_zero(x) -> bool:
    return x == 0 if isinstance(x, int) else x.is_zero()


def poly_mul(a: Sequence, b: Sequence, zero, stretch: int = 1) -> list:
    """a(y) * b(y^stretch), ascending coefficients, skipping zero terms of b.

    Every term of `a` is multiplied by every nonzero term of `b`, so the
    number of ring multiplies depends on the shapes of `a` and `b`, not on
    how many coefficients of `a` happen to vanish.

    Python ints may stand in `b` next to ring elements of `a`, as in
    ``poly_mul(h, [1, root], zero)``: ``x * 1`` is an integer scaling, not
    a ring multiply.  Integer callers reduce mod M themselves.
    """
    out = [zero] * (len(a) + (len(b) - 1) * stretch)
    for i, c in enumerate(b):
        if _is_zero(c):
            continue
        base = i * stretch
        for j, x in enumerate(a):
            out[base + j] = out[base + j] + x * c
    return out


# -- integer matrices mod M --------------------------------------------------


def mat_mul_mod(a: Matrix, b: Matrix, mod: int) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) % mod for col in cols]
            for row in a]


def mat_vec_mod(a: Matrix, v: Sequence[int], mod: int) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) % mod for row in a)


def mat_pow_mod(a: Matrix, e: int, mod: int) -> list[list[int]]:
    out = [[int(i == j) % mod for j in range(len(a))] for i in range(len(a))]
    base = [[x % mod for x in row] for row in a]
    while e:
        if e & 1:
            out = mat_mul_mod(out, base, mod)
        e >>= 1
        if e:
            base = mat_mul_mod(base, base, mod)
    return out


def mat_inv_mod(a: Matrix, mod: int) -> list[list[int]]:
    """Inverse of an integer matrix mod a prime power, by Gauss-Jordan.

    Every column is cleared with a unit pivot.  Over Z/p^k such a pivot
    exists at every step exactly when the matrix is invertible, so a
    missing one raises InputError.
    """
    r = len(a)
    rows = [[x % mod for x in row] + [int(i == j) for j in range(r)]
            for i, row in enumerate(a)]
    for col in range(r):
        piv = next((i for i in range(col, r) if gcd(rows[i][col], mod) == 1),
                   None)
        if piv is None:
            raise InputError(f"matrix is not invertible mod {mod}")
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, mod)
        pivot_row = rows[col] = [x * inv % mod for x in rows[col]]
        for i in range(r):
            f = rows[i][col]
            if i != col and f:
                rows[i] = [(x - f * y) % mod for x, y in zip(rows[i], pivot_row)]
    return [row[r:] for row in rows]


# -- orbits of (Z/M)^b under an integer matrix -------------------------------


def orbit_reps(
    step: Matrix,
    mod: int,
    b: int,
    keep: Callable[[tuple[int, ...]], bool],
) -> list[tuple[tuple[int, ...], int]]:
    """Orbits of v -> step*v on (Z/mod)^b: lex-least members with sizes.

    Points are scanned in ascending lex order.  Each unseen point passing
    `keep` starts a walk that marks its whole orbit in a dense seen-set of
    mod^b bytes, so the point is its orbit's lex-least member.  `step` must
    be invertible mod `mod` and `keep` invariant under it; callers bound
    mod^b before calling.
    """
    seen = bytearray(mod**b)
    reps = []
    for idx, v in enumerate(product(range(mod), repeat=b)):
        if seen[idx] or not keep(v):
            continue
        size = 0
        w = v
        while True:
            widx = 0
            for x in w:
                widx = widx * mod + x
            if seen[widx]:
                break
            seen[widx] = 1
            size += 1
            w = mat_vec_mod(step, w, mod)
        reps.append((v, size))
    return reps


def inverse_orbit(step: Matrix, v: Sequence[int], mod: int,
                  k: int) -> Iterator[tuple[int, ...]]:
    """step^-i v mod `mod` for i = 1..k, in order."""
    inv = mat_inv_mod(step, mod)
    w = tuple(x % mod for x in v)
    for _ in range(k):
        w = mat_vec_mod(inv, w, mod)
        yield w
