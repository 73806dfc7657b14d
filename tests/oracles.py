"""Plain oracles shared by several test modules."""

from __future__ import annotations

import cmath
import math
from array import array
from fractions import Fraction
from itertools import product

import numpy as np

from towerlim.charsums import (
    h_poly_tower,
    jacobi_sum,
    predicted_counts,
    prime_power_split,
)
from towerlim.cyclo import BiCycloRing, CycloElem, CycloRing, demote
from towerlim.errors import CheckFailed, GuardExceeded, InputError
from towerlim.fields import (
    _poly_deg,
    _poly_gcd,
    _poly_mul_mod,
    _poly_pow_mod,
    field_build,
    prime_factors,
)
from towerlim.matrices import Orbits, mat_step, mat_vec_mod, orbit
from towerlim.padic import min_val
from towerlim.tower import (
    OrbitParams,
    _group_ring_dtype,
    _product_dtype,
    _q_orbit,
    build_ring,
    matrix_log,
    r_poly,
)


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


def serial_orbit_reps(step, mod, b, keep):
    """The orbit scan `matrices.orbit_reps` made before its successor
    table: each unseen kept point, in ascending lex order, walks its orbit
    one `mat_vec_mod` at a time, and every member is labelled by its
    position in the lex scan.  It keeps no successor table, so its
    `Orbits.walk` is not to be read."""
    labels = array("i", [0]) * mod**b
    reps = []
    for idx, v in enumerate(product(range(mod), repeat=b)):
        if labels[idx] or not keep(v):
            continue
        members = orbit(mat_step(step, mod), v, mod**b)
        reps.append((v, len(members)))
        for w in members:
            pos = 0
            for x in w:
                pos = pos * mod + x
            labels[pos] = len(reps)
    return Orbits(reps, labels, mod, None)


def unit_classes(scan, g_scan, points):
    """The classes of `scan`'s orbits under a scalar unit g, from the
    direct scan `g_scan` of the same points under g: two orbits share a
    class when one g-orbit meets both, joined by union-find over `points`.
    Each class as (its least rep, the set of its reps), by that rep; what
    `Orbits.classes` is checked against."""
    parent = list(range(len(scan)))

    def find(o):
        while parent[o] != o:
            o = parent[o]
        return o

    met = {}  # g-orbit -> a scan orbit it meets
    for w in points:
        o = scan.orbit_of(w)
        if o >= 0:
            parent[find(o)] = find(met.setdefault(g_scan.orbit_of(w), o))
    groups = {}
    for o, (v, _) in enumerate(scan):
        groups.setdefault(find(o), []).append(v)
    return sorted(((min(vs), set(vs)) for vs in groups.values()),
                  key=lambda c: c[0])


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


def twisted_gauss_sum(field, ell, level, v, a=1):
    """g(psi_a, chi_v) = sum_{x != 0} psi(ax) chi_v(x), exact, summed
    directly: the reference for g(psi_a, chi_v) = chi_v(a)^-1 g(psi, chi_v),
    on which `h_poly_tower` takes one Gauss sum per unit orbit."""
    d, n = ell**level, field.q - 1
    ks = np.arange(n, dtype=np.int64)
    ka = field.dlog(a % field.q)  # a = 0 mod q is refused here
    traces = field.tr_abs_batch(field.exp_table)[(ks + ka) % n]
    counts = np.zeros((field.p, d), dtype=np.int64)
    np.add.at(counts, (traces, (v % d) * ks % d), 1)
    ts, es = np.nonzero(counts)
    return BiCycloRing(field.p, ell, level).from_exponent_counts(
        {(int(t), int(e)): int(c) for t, e, c in zip(ts, es, counts[ts, es])})


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
            total = total + twisted_gauss_sum(big, ell, n, j, a=a)
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


# -- the int64 field tables ----------------------------------------------
#
# The field construction as it stood before the float64 block steps and
# the root sieve: every candidate modulus through the Rabin test, and the
# exp table stepped by int64 matrix products.  The references `FqField`'s
# modulus, generator and tables are checked against.


def rabin_irreducible(mod_poly, p):
    """Rabin's test: x^(p^f) = x mod m, and gcd(x^(p^(f/d)) - x, m) = 1 for
    every prime d | f."""
    f = len(mod_poly) - 1
    x = [0, 1] + [0] * (f - 2)
    if _poly_pow_mod(x, p**f, mod_poly, p) != x:
        return False
    for d in prime_factors(f):
        sub = _poly_pow_mod(x, p ** (f // d), mod_poly, p)
        diff = [(a - b) % p for a, b in zip(sub, x)]
        if _poly_deg(_poly_gcd(diff, list(mod_poly), p)) != 0:
            return False
    return True


def unsieved_modulus(p, f):
    """The lexicographically first monic irreducible of degree f, by the
    Rabin test on every candidate in ascending packed order; constant term
    first, leading 1 last."""
    if f == 1:
        return (0, 1)
    for code in range(p**f):
        digits = []
        t = code
        for _ in range(f):
            digits.append(t % p)
            t //= p
        poly = digits + [1]
        if rabin_irreducible(poly, p):
            return tuple(poly)
    raise AssertionError(f"no irreducible polynomial for p={p}, f={f}")


def packed_pow(a, e, modulus, p):
    """a^e for a packed element a of F_p[x] / (modulus), by `_poly_pow_mod`,
    packed."""
    f = len(modulus) - 1
    digits = [a // p**i % p for i in range(f)]
    return sum(c * p**i for i, c in
               enumerate(_poly_pow_mod(digits, e, list(modulus), p)))


def every_prime_generator(p, f):
    """(modulus, gen) of F_{p^f}: the unsieved modulus and the smallest
    packed encoding g with g^((q - 1) / d) != 1 for every prime d | q - 1,
    each power by `_poly_pow_mod` (no norm shortcut)."""
    modulus = unsieved_modulus(p, f)
    n = p**f - 1
    gen = next(g for g in range(1, n + 1)
               if all(packed_pow(g, n // d, modulus, p) != 1
                      for d in prime_factors(n)))
    return modulus, gen


def int64_field_tables(p, f):
    """(modulus, gen, exp_table, dlog_table) of F_{p^f}: the unsieved
    modulus, the smallest generator by packed encoding
    (`every_prime_generator`), and the exp table filled by doubling its
    first block of M_{g^k} columns, then advanced a block at a time by
    M_{g^block}, all in int64."""
    modulus, gen = every_prime_generator(p, f)
    modulus = list(modulus)
    q, n = p**f, p**f - 1
    weights = np.array([p**i for i in range(f)], dtype=np.int64)

    def decode(a):
        return [a // p**i % p for i in range(f)]

    def mult_matrix(a):
        cols = [_poly_mul_mod(decode(a), decode(p**j), modulus, p)
                for j in range(f)]
        return np.array(cols, dtype=np.int64).T % p

    block = min(4096, n)
    digits = np.zeros((f, block), dtype=np.int64)
    digits[0, 0] = 1
    mk = mult_matrix(gen)  # M_{g^k}, k = 1, 2, 4, ...
    k = 1
    while k < block:
        take = min(k, block - k)
        digits[:, k : k + take] = mk @ digits[:, :take] % p
        k += take
        if k < block:
            mk = mk @ mk % p
    mb = mult_matrix(packed_pow(gen, block, modulus, p))
    exp = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        m = min(block, n - pos)
        exp[pos : pos + m] = weights @ digits[:, :m]
        pos += m
        if pos < n:
            digits = mb @ digits % p
    dlog = np.full(q, -1, dtype=np.int64)
    dlog[exp] = np.arange(n, dtype=np.int64)
    assert int((dlog >= 0).sum()) == n, "generator order check failed"
    return tuple(modulus), gen, exp, dlog


# -- the Artin-Schreier count through the exp table ----------------------


def table_as_count(q, m, d, chunk=1 << 16):
    """The Artin-Schreier count of y^q - y = x^d over F_{q^m} by the table
    route: the g-th powers exp_table[::g], g = gcd(d, q^m - 1), split into
    digit rows and tested against the relative trace matrix `chunk` rows at
    a time; q (1 + g #{zero images}) affine points plus one at infinity."""
    p, f = prime_power_split(q)
    big = field_build(p, f * m)
    trace = big.trace_matrix(q, m)
    trace = trace[trace.any(axis=1)].T
    g = math.gcd(d, big.q - 1)
    powers = big.exp_table[::g]
    zeros = 0
    for start in range(0, len(powers), chunk):
        images = big.digits(powers[start : start + chunk]) @ trace % p
        zeros += len(images) - int(np.count_nonzero(images.any(axis=1)))
    return q * (1 + g * zeros) + 1


def _roll_add(out, src, t):
    """out += src rolled by t along axis 1, for 0 <= t < src.shape[1].

    In the group ring that is adding src times the group element z^t.
    """
    size = src.shape[1]
    out[:, t:] += src[:, :size - t]
    if t:
        out[:, :t] += src[:, size - t:]


def serial_frobenius_product(spec, n, v, ring):
    """A_n(v) one product at a time: the route `tower.frobenius_product`
    took before products were batched.  The factors follow the walk of v
    backwards, in the group ring (Z/l^prec)[C_{l^n}]: acc[i, :, j] holds
    the l^n exponent coefficients of entry (i, j), and a factor
    F(z^w) = sum_t M_t z^<e_t, w> multiplies in as acc times M_t, rolled
    by <e_t, w> with `_roll_add`, per term, summed and reduced mod
    l^prec.  The entries fold to the power basis at the end."""
    dtype = _product_dtype(spec, ring)
    r, size, q = spec.r, ring.order, ring.qmod
    mats = [np.array(t.matrix, dtype=dtype) for t in spec.f_terms]
    acc = np.zeros((r, size, r), dtype=dtype)
    for i in range(r):
        acc[i, 0, i] = 1
    for w in reversed(_q_orbit(spec, n, v)):
        new = np.zeros_like(acc)
        for term, m in zip(spec.f_terms, mats):
            d = sum(e * x for e, x in zip(term.exponents, w))
            _roll_add(new, acc @ m, d % size)
        if q is not None:
            new %= q
        acc = new
    return [
        [CycloElem(ring, tuple(ring._fold_top(acc[i, :, j].tolist())))
         for j in range(r)]
        for i in range(r)
    ]


def aggregates(spec):
    """r_n for n = 1..n_max through one p_{n,v} memo: the levels `converge`
    passes to the general rows when caching is off."""
    pieces = {}
    return {n: r_poly(spec, n, pieces) for n in range(1, spec.n_max + 1)}


def serial_class_norm(spec, n, polys, members):
    """The integer class norm prod over the members u of p_{n,u}, every
    member's charpoly multiplied in, in the group ring (Z/l^prec)[C_(l^n)]:
    acc[i] holds the l^n exponent coefficients of y^i, and each power-basis
    term x z^t of each coefficient c_j of a member adds x times acc rolled
    by t into the rows from j on, reduced mod l^prec once per member.  The
    array holds int64 while (r+1) phi (l^prec - 1)^2 < 2^63, Python ints
    otherwise.  Rows fold to the power basis at the end
    (Z[x]/(x^(l^n) - 1) -> Z[z] is a ring map) and come down to integers
    through `demote`.  The route `tower.r_poly` took before it formed each
    norm by descent from the class rep alone."""
    ring = build_ring(spec, n)
    q = ring.qmod
    dtype = _group_ring_dtype(ring, (spec.r + 1) * ring.phi * (q - 1))
    acc = np.zeros((1, ring.order), dtype=dtype)
    acc[0, 0] = 1
    for u in members:
        coeffs = polys[u]
        rows = acc.shape[0]
        new = np.zeros((rows + len(coeffs) - 1, ring.order), dtype=dtype)
        for j, c in enumerate(coeffs):
            out = new[j: j + rows]
            for t, x in enumerate(c.coeffs):
                if x:
                    _roll_add(out, x * acc, t)
        new %= q
        acc = new
    return demote((ring._fold_top(row.tolist()) for row in acc),
                  f"serial class norm of rep {members[0]} at level {n}")


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
