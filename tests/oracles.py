"""Plain oracles shared by several test modules."""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import product

from towerlim.charsums import (
    gauss_sum,
    h_poly_tower,
    jacobi_sum,
    predicted_counts,
    prime_power_split,
)
from towerlim.cyclo import BiCycloRing, CycloElem, CycloRing
from towerlim.errors import CheckFailed, GuardExceeded, InputError
from towerlim.fields import _poly_mul_mod, field_build
from towerlim.matrices import mat_vec_mod
from towerlim.padic import min_val
from towerlim.tower import OrbitParams, matrix_log, r_poly


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


def rational_int(x):
    """The rational integer a CycloElem or BiCycloElem equals: its constant
    basis coefficient.  CheckFailed naming any other nonzero one."""
    coeffs = (x.coeffs if isinstance(x, CycloElem)
              else [c for row in x.mat for c in row])
    for i, c in enumerate(coeffs):
        if i and c:
            raise CheckFailed(
                f"not a rational integer (basis coefficient {i} is {c})",
                coefficient=i, value=c,
            )
    return coeffs[0]


# -- point counts from every character ----------------------------------
#
# The all-character expansions of the two curve counts, written on the
# public sums: the references the enumerations and the `zeta` pipeline
# (one sum per Galois orbit, through the zeta numerator) are checked
# against.


def fermat_count(ell, n, q):
    """Projective points of x^d + y^d + z^d = 0 over F_q, d = l^n | q - 1:

        N = q + d + sum_{j1, j2 = 1..d-1} J(chi^j1, chi^j2),

    where a pair with chi^j1 chi^j2 trivial gives J = -chi^j1(-1) = -1
    (d is odd)."""
    field = field_build(*prime_power_split(q))
    d = ell**n
    total = CycloRing(ell, n, None).from_int(q + d)
    for j1 in range(1, d):
        for j2 in range(1, d):
            total = total + jacobi_sum(field, ell, n, j1, j2)
    return rational_int(total)


def artin_schreier_count(ell, n, q, m):
    """Points of y^q - y = x^d (d = l^n | q^m - 1) over K = F_{q^m}, the
    point at infinity included:

        N = q^m + 1 + sum_{a in F_q^*} sum_{j=1..d-1} g(psi_a o Tr, chi^j),

    with psi_a o Tr_{K/F_q} = psi(a x) on K, the twist a taken in the
    subfield F_q^* = <G^((q^m - 1)/(q - 1))> of K."""
    p, f = prime_power_split(q)
    big = field_build(p, f * m)
    step = (big.q - 1) // (q - 1)
    total = BiCycloRing(p, ell, n).from_int(q**m + 1)
    for t in range(q - 1):
        a = int(big.exp_table[t * step])
        for j in range(1, ell**n):
            total = total + gauss_sum(big, ell, n, j, a=a)
    return rational_int(total)


def pipeline_count(family, ell, n, q, m):
    """N_m as `zeta` predicts it: from the level-n numerator that
    `h_poly_tower` builds, through `predicted_counts`."""
    return predicted_counts(h_poly_tower(family, ell, q, n)["f"], q, m)[m - 1]


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


def enumerated_orbit_params(spec, cap):
    """(alpha, beta0, n0) with beta0 found by brute force: the largest
    min-entry valuation of (log Q / l^alpha) v over primitive residue
    vectors, enumerated at increasing moduli l^c until the value certifies
    itself (worst < c).  A modulus past `cap` residue vectors is a
    GuardExceeded; no certificate below the working precision is an
    InputError.  The reference `tower.orbit_params`' closed form is
    checked against."""
    ell, b = spec.ell, spec.b
    work = spec.prec + 6
    log_q = matrix_log(spec.q_matrix, ell, work)
    alpha = min_val(ell, (x for row in log_q for x in row))
    if alpha is None or alpha >= work - 2:
        raise InputError("log Q vanishes to working precision")
    x_mat = [[(log_q[i][j] // ell**alpha) % ell ** (work - alpha)
              for j in range(b)] for i in range(b)]
    beta0 = None
    for c in range(1, work - alpha):
        need = ell ** (c * b)
        if need > cap:
            raise GuardExceeded(
                f"beta0 enumeration at modulus {ell}^{c} needs {need} residue "
                f"vectors > cap {cap}",
                level=c, need=need, limit=cap,
            )
        mc = ell**c
        xm = [[x % mc for x in row] for row in x_mat]
        worst = 0
        for v in product(range(mc), repeat=b):
            if all(x % ell == 0 for x in v):
                continue
            wv = min_val(ell, mat_vec_mod(xm, v, mc))
            worst = max(worst, c if wv is None else wv)
        if worst < c:
            beta0 = worst
            break
    if beta0 is None:
        raise InputError("orbit depth did not stabilize at working precision")
    return OrbitParams(alpha, beta0, alpha + beta0)
