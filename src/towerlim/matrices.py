"""Matrix helpers: one implementation of each.

* Square matrices over any commutative ring.  Entries only need +, -, *
  (ints, CycloElem, ... all qualify).  Every routine takes
  explicit `one`/`zero` ring constants where it cannot infer them, and the
  characteristic polynomial uses the Berkowitz algorithm, which is
  division-free and therefore valid verbatim over these rings.
* Orbits of (Z/M)^b under an integer matrix: `orbit` is the one orbit
  walker.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

from .errors import CheckFailed

Matrix = Sequence[Sequence]


def mat_identity(r: int, one, zero) -> list[list]:
    return [[one if i == j else zero for j in range(r)] for i in range(r)]


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


def det_one_minus_y(m: Matrix, one, zero) -> list:
    """Coefficients [a_0, ..., a_r] of det(I - y*M), ascending in y.

    They are the coefficients of det(lambda*I - M), descending in lambda,
    from Berkowitz's vector recurrence: growing the leading principal minor
    one row at a time, the new coefficient vector is a truncated
    convolution of the old one with the Toeplitz column

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


# -- integer vectors mod M and their orbits ----------------------------------


def mat_vec_mod(a: Matrix, v: Sequence[int], mod: int) -> tuple[int, ...]:
    return tuple(sum(x * y for x, y in zip(row, v)) % mod for row in a)


def orbit(step: Matrix, v: Sequence[int], mod: int,
          **context) -> list[tuple[int, ...]]:
    """The orbit v, step*v, step^2*v, ... mod `mod`, up to its return to v.

    The one orbit walk.  An invertible step closes it within mod^b steps;
    one still open then is a CheckFailed carrying `rep` and `context`.
    """
    v = tuple(x % mod for x in v)
    limit = mod ** len(v)
    members = [v]
    w = mat_vec_mod(step, v, mod)
    while w != v:
        if len(members) >= limit:
            raise CheckFailed(
                f"orbit of {v} mod {mod} did not close within {limit} steps",
                rep=v, **context,
            )
        members.append(w)
        w = mat_vec_mod(step, w, mod)
    return members


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
        members = orbit(step, v, mod)
        for w in members:
            widx = 0
            for x in w:
                widx = widx * mod + x
            seen[widx] = 1
        reps.append((v, len(members)))
    return reps
