"""Plain oracles shared by several test modules."""

from __future__ import annotations

import cmath
from fractions import Fraction

from towerlim.cyclo import CycloElem
from towerlim.fields import _poly_mul_mod
from towerlim.tower import r_poly


def mat_pow_mod(a, e, mod):
    """a^e mod `mod` for an integer matrix, by square-and-multiply.

    The reference, independent of `matrices.orbit`, that orbit sizes, the
    backward walk Q^-i v = Q^(k-i) v and log(Q^k) = k log Q are checked
    against.
    """
    def mul(x, y):
        cols = list(zip(*y))
        return [[sum(p * q for p, q in zip(row, col)) % mod for col in cols]
                for row in x]

    out = [[int(i == j) % mod for j in range(len(a))] for i in range(len(a))]
    base = [[x % mod for x in row] for row in a]
    while e:
        if e & 1:
            out = mul(out, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return out


def poly_mul(a, b, zero, stretch=1):
    """a(y) * b(y^stretch) over any ring, ascending coefficients: every
    term of `a` times every nonzero term of `b`.  The serial route the
    aggregate and the curve-tower numerators are checked against."""
    out = [zero] * (len(a) + (len(b) - 1) * stretch)
    for i, c in enumerate(b):
        if c == 0:
            continue
        for j, x in enumerate(a):
            out[i * stretch + j] = out[i * stretch + j] + x * c
    return out


def rational_det_from_traces(traces):
    """Newton's identities k c_k = -sum_{i<=k} tr_i c_{k-i} over exact
    rationals: det(1 - x B) from tr(B^1), ..., tr(B^D), integral or not."""
    coeffs = [Fraction(1)]
    for k in range(1, len(traces) + 1):
        acc = sum(Fraction(traces[i - 1]) * coeffs[k - i]
                  for i in range(1, k + 1))
        coeffs.append(-acc / k)
    return coeffs


def strip_timings(report):
    """A report without its wall-clock `timings`: the part golden digests
    and warm-cache comparisons hash."""
    return {k: v for k, v in report.items() if k != "timings"}


# -- exact-ring references ----------------------------------------------


def conjugate(x):
    """Complex conjugation of a CycloElem (zeta -> zeta^-1) or a BiCycloElem
    (zeta_p -> zeta_p^-1 and zeta -> zeta^-1)."""
    if isinstance(x, CycloElem):
        return x.galois_act(-1 % max(x.ring.order, 2))
    br = x.ring
    counts = {}
    for a, row in enumerate(x.mat):
        for j, c in enumerate(row):
            if c:
                key = ((-a) % br.p, (-j) % max(br.cyclo.order, 1))
                counts[key] = counts.get(key, 0) + c
    return br.from_exponent_counts(counts)


def complex_value(x):
    """Float sanity embedding of a ring element, zeta -> exp(2 pi i / l^n)
    and zeta_p -> exp(2 pi i / p); not exact.  A fixed-precision CycloElem's
    coefficients are read as balanced residues."""
    if isinstance(x, CycloElem):
        r = x.ring
        z = cmath.exp(2j * cmath.pi / max(r.order, 1))
        q = r.qmod
        cs = x.coeffs
        if q is not None:
            cs = tuple(c - q if c > q // 2 else c for c in cs)
        return sum(c * z**j for j, c in enumerate(cs))
    br = x.ring
    zp = cmath.exp(2j * cmath.pi / br.p)
    zl = cmath.exp(2j * cmath.pi / max(br.cyclo.order, 1))
    return sum(c * zp**a * zl**j
               for a, row in enumerate(x.mat) for j, c in enumerate(row) if c)


# -- scalar finite-field references -------------------------------------
#
# One element at a time, through the packed codec or the exp/dlog tables:
# the references the batch operations of `FqField` are checked against.


def fq_add(field, a, b):
    return field.encode([x + y for x, y in zip(field.decode(a),
                                               field.decode(b))])


def fq_sub(field, a, b):
    return fq_add(field, a, field.neg(b))


def fq_mul(field, a, b):
    if a == 0 or b == 0:
        return 0
    e = int(field.dlog_table[a]) + int(field.dlog_table[b])
    return int(field.exp_table[e % (field.q - 1)])


def fq_inv(field, a):
    return int(field.exp_table[-int(field.dlog_table[a]) % (field.q - 1)])


def fq_pow(field, a, e):
    if a == 0:
        return 0 if e else 1
    return int(field.exp_table[int(field.dlog_table[a]) * e % (field.q - 1)])


def fq_tr_abs(field, a):
    """Absolute trace to F_p, an int in [0, p)."""
    return sum(c * t for c, t in zip(field.decode(a),
                                     field._trace_basis.tolist())) % field.p


def fq_mul_poly(field, a, b):
    """a * b by polynomial multiplication modulo the field's modulus, with
    no table."""
    prod = _poly_mul_mod(field.decode(a), field.decode(b),
                         list(field.modulus), field.p)
    return field.encode(prod)


def aggregates(spec):
    """r_n for n = 1..n_max through one p_{n,v} memo: the levels `converge`
    passes to the general rows when caching is off."""
    pieces = {}
    return {n: r_poly(spec, n, pieces) for n in range(1, spec.n_max + 1)}
