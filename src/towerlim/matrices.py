"""Matrix helpers: one implementation of each.

* Square matrices over any commutative ring.  Entries only need +, -, *
  (ints, CycloElem, ... all qualify).  Every routine takes
  explicit `one`/`zero` ring constants where it cannot infer them, and the
  characteristic polynomial uses the Berkowitz algorithm, which is
  division-free and therefore valid verbatim over these rings.
* `power` is the one square-and-multiply, under any product.
* Orbits: `orbit` is the one orbit walker, under any step.  Matrix walks
  step by `mat_step`; the scan `orbit_reps` of (Z/M)^b under an integer
  matrix steps through a successor table built in numpy, and keeps which
  orbit each point fell in, and the successor table it walked, so later
  walks of the same orbits are table reads too.  `Orbits.classes` is the
  one grouping of a scan's orbits into classes under a scalar unit.
"""

from __future__ import annotations

from array import array
from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import CheckFailed

Matrix = Sequence[Sequence]

# Points a numpy pass holds at once: a slab of `successor_table`, or the
# group-ring entries per array of a batch of twisted products.
SLAB = 1 << 14


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


def power(x, e: int, mul: Callable):
    """x^e for e >= 1 under the associative product `mul`: the one
    square-and-multiply, read from e's top bit down (Knuth, TAOCP vol. 2,
    4.6.3).  It makes e.bit_length() - 1 squarings and one multiply by x
    for each other set bit of e, so x^1 is x itself, with no product."""
    out = x
    bit = 1 << (e.bit_length() - 1)
    while bit > 1:
        bit >>= 1
        out = mul(out, out)
        if e & bit:
            out = mul(out, x)
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


def mat_step(a: Matrix, mod: int) -> Callable[[Sequence[int]],
                                               tuple[int, ...]]:
    """`mat_vec_mod` bound to the matrix a and the modulus `mod`: the step
    v -> a*v mod `mod` of a matrix walk."""
    return lambda v: mat_vec_mod(a, v, mod)


def orbit(step: Callable, v, limit: int, **context) -> list:
    """The orbit v, step(v), step(step(v)), ... up to its return to v.

    The one orbit walk.  A step that permutes a set of `limit` points
    closes it within `limit` steps; one still open then is a CheckFailed
    carrying `rep` and `context`.
    """
    members = [v]
    w = step(v)
    while w != v:
        if len(members) >= limit:
            raise CheckFailed(
                f"orbit of {v} did not close within {limit} steps",
                rep=v, **context,
            )
        members.append(w)
        w = step(w)
    return members


class Orbits(list):
    """What `orbit_reps` returns: the (lex-least member, size) pairs of the
    orbits in scan order, plus the scan's record of the orbit each kept
    point fell in, so `orbit_of` finds a point's orbit without a walk, and
    its successor table, so `walk` retraces an orbit by table reads."""

    __slots__ = ("_labels", "_mod", "_successor")

    def __init__(self, reps, labels, mod: int, successor):
        super().__init__(reps)
        self._labels = labels
        self._mod = mod
        self._successor = successor

    def index(self, w: Sequence[int]) -> int:
        """Lex-scan index of the point w, entries in [0, mod)."""
        idx = 0
        for x in w:
            idx = idx * self._mod + x
        return idx

    def orbit_of(self, w: Sequence[int]) -> int:
        """Position in the list of the orbit holding the kept point w."""
        return self._labels[self.index(w)] - 1

    def walk(self, v: Sequence[int], **context) -> list[int]:
        """Lex-scan indices of v, step*v, step^2*v, ...: `orbit` stepping
        through the successor table, one read a step."""
        return orbit(self._successor.__getitem__, self.index(v),
                     len(self._labels), **context)

    def classes(self, g: int, **context) -> tuple[tuple, ...]:
        """The orbits grouped into classes under the scalar unit g, each
        the tuple of its orbits' reps, in scan order: the orbits of v,
        g v, ..., g^(c-1) v, v the class's lex-least point.

        g commutes with the step and keeps `keep`, so it permutes the
        orbits; `orbit` walks o -> the orbit of g rep(o) from the first
        orbit not yet in a class until g^c v is back in the orbit of v.  A
        walk that does not close is a CheckFailed carrying the position as
        `rep`, v as `point`, and `context`.
        """
        mod = self._mod

        def times_g(o: int) -> int:
            return self.orbit_of(tuple(g * x % mod for x in self[o][0]))

        placed, out = set(), []
        for o, (v, _) in enumerate(self):
            if o not in placed:
                walk = orbit(times_g, o, len(self), point=v, **context)
                placed.update(walk)
                out.append(tuple(self[i][0] for i in walk))
        return tuple(out)


def successor_table(step: Matrix, mod: int, b: int) -> array:
    """Entry i is the lex-scan index of step*v mod `mod`, v the point of
    (Z/mod)^b at index i: 4 bytes a point.

    Built in numpy, a slab of SLAB consecutive indices at a time: each
    slab's coordinates, then each coordinate of step*v, reduced and
    weighted by its place value, so nothing but the table grows with
    mod^b.
    """
    total = mod**b
    if total >= 2**31:
        raise OverflowError(f"{total} points do not fit 4-byte indices")
    table = array("i", [0]) * total
    out = np.frombuffer(table, dtype=np.int32)
    rows = [[a % mod for a in row] for row in step]  # products fit int64
    places = [mod ** (b - 1 - j) for j in range(b)]
    for start in range(0, total, SLAB):
        idx = np.arange(start, min(start + SLAB, total), dtype=np.int64)
        coords = [idx // place % mod for place in places]
        succ = np.zeros_like(idx)
        for row, place in zip(rows, places):
            succ += sum(a * x for a, x in zip(row, coords)) % mod * place
        out[start:start + len(idx)] = succ
    return table


def orbit_reps(
    step: Matrix,
    mod: int,
    b: int,
    keep: Callable[[tuple[int, ...]], bool],
) -> Orbits:
    """Orbits of v -> step*v on (Z/mod)^b: lex-least members with sizes.

    Points are scanned in ascending lex order.  Each unseen point passing
    `keep` starts an `orbit` walk through the `successor_table`, one read
    a step, that labels its whole orbit by index in a dense array of
    mod^b 4-byte orbit numbers (0 for unseen), so the point is its orbit's
    lex-least member, and the labels answer `Orbits.orbit_of` later, the
    table `Orbits.walk`.  The scan holds 8 bytes a point, the table and the
    labels, besides the member list of the orbit it walks.  `step` must be
    invertible mod `mod` and `keep` invariant under it; callers bound
    mod^b before calling.
    """
    total = mod**b
    table = successor_table(step, mod, b)
    successor = table.__getitem__
    labels = array("i", [0]) * total
    reps = []
    for idx, v in enumerate(product(range(mod), repeat=b)):
        if labels[idx] or not keep(v):
            continue
        members = orbit(successor, idx, total, point=v)
        reps.append((v, len(members)))
        for w in members:
            labels[w] = len(reps)
    return Orbits(reps, labels, mod, table)
