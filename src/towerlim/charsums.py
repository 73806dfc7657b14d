"""Character sums over finite fields and the zeta data they assemble.

Conventions, fixed once for the whole package:

* Multiplicative characters of F_q at l-power level n are parametrized by
  an integer v: chi_v(x) = zeta_{l^n}^(v * dlog(x)) against the field's
  tabulated generator, with chi_v(0) = 0.  This requires l^n | q - 1.
* The additive character is psi(x) = zeta_p^Tr(x) (absolute trace), with
  a-twists psi_a(x) = psi(ax).
* Gauss sums g(psi_a, chi_v) = sum over x != 0 live in Z[zeta_p, zeta_{l^n}]
  (exact integer bicyclotomic elements); Jacobi sums J(chi_v1, chi_v2) =
  sum over all x of chi_v1(x) chi_v2(1-x) live in Z[zeta_{l^n}].

Every point count is produced twice, by plain enumeration and through
character sums, and a mismatch is a hard error: the two routes share no
code beyond the field tables and their digit codec.
"""

from __future__ import annotations

import math
from itertools import product as _iproduct
from typing import Optional, Sequence

import numpy as np

from .cyclo import BiCycloElem, BiCycloRing, CycloElem, CycloRing, convolve
from .errors import CheckFailed, GuardExceeded, InputError
from .fields import FqField, check_field_size, field_build
from .matfermat import det_from_traces, traces_from_det
from .matrices import orbit, orbit_reps
from .padic import check_odd_prime, int_val, min_val

ENUM_CAP = 10**7
# Elements per digit-codec batch in the two enumerations (d-th powers per
# trace-map product, x^d + 1 lookups in the Fermat count): bounds the digit
# rows alive at once to O(AS_CHUNK * f) integers, f the degree over F_p of
# the field enumerated, whatever its size.
AS_CHUNK = 1 << 16


def prime_power_split(q: int) -> tuple[int, int]:
    """q = p^f with p prime; error if q is not a prime power."""
    if q < 2:
        raise InputError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            break
        if q % p == 0:
            f = 0
            t = q
            while t % p == 0:
                t //= p
                f += 1
            if t != 1:
                raise InputError(f"{q} is not a prime power")
            return p, f
    return q, 1


def _char_level_check(field: FqField, ell: int, level: int) -> int:
    check_odd_prime(ell)
    if level < 1:
        raise InputError("character level must be >= 1")
    d = ell**level
    if (field.q - 1) % d != 0:
        raise InputError(
            f"level-{level} characters need {ell}^{level} | q - 1 "
            f"(q = {field.q})"
        )
    return d


def gauss_sum(field: FqField, ell: int, level: int, v: int,
              a: int = 1) -> BiCycloElem:
    """g(psi_a, chi_v) = sum_{x != 0} psi(ax) chi_v(x), exact."""
    d = _char_level_check(field, ell, level)
    a %= field.q
    if a == 0:
        raise InputError(f"additive twist a must be nonzero mod q = {field.q}")
    n = field.q - 1
    ks = np.arange(n, dtype=np.int64)
    traces = field.tr_abs_batch(field.exp_table)
    ka = field.dlog(a)
    tr_shift = traces[(ks + ka) % n] if ka else traces
    return _gauss_from_table(field.p, ell, level, tr_shift, (v % d) * ks % d)


def jacobi_sum(field: FqField, ell: int, level: int, v1: int,
               v2: int) -> CycloElem:
    """J(chi_v1, chi_v2) = sum_x chi_v1(x) chi_v2(1 - x), exact.

    The chi(0) = 0 convention silently drops x = 0 and x = 1, so the sum
    effectively ranges over x != 0, 1.
    """
    d = _char_level_check(field, ell, level)
    n = field.q - 1
    ks = np.arange(n, dtype=np.int64)
    om = field.one_minus_batch(field.exp_table)
    mask = om != 0
    k2 = field.dlog_table[om[mask]]
    es = ((v1 % d) * ks[mask] + (v2 % d) * k2) % d
    return _jacobi_from_exponents(ell, level, es)


def _gauss_from_table(p: int, ell: int, level: int, trs: np.ndarray,
                      es: np.ndarray) -> BiCycloElem:
    """Sum of zeta_p^tr * zeta_{l^level}^e over the paired entries."""
    counts = np.zeros((p, ell**level), dtype=np.int64)
    np.add.at(counts, (trs, es), 1)
    ts, ks = np.nonzero(counts)
    pairs = {(int(t), int(e)): int(c)
             for t, e, c in zip(ts, ks, counts[ts, ks])}
    return BiCycloRing(p, ell, level).from_exponent_counts(pairs)


def _jacobi_from_exponents(ell: int, level: int, es: np.ndarray) -> CycloElem:
    """Sum of zeta_{l^level}^e over the entries of es (each < l^level)."""
    counts = np.bincount(es, minlength=ell**level)
    return CycloRing(ell, level, None).from_exponent_counts(
        [(int(e), int(c)) for e, c in enumerate(counts) if c]
    )


# -- orbit-sum lemmas -----------------------------------------------------


def _powers(q: int, mod: int) -> list[int]:
    """q^0, q^1, ..., q^(k-1) mod `mod`: the orbit of 1 under x -> q*x."""
    if math.gcd(q, mod) != 1:
        raise InputError(f"{q} is not invertible mod {mod}")
    return [t for (t,) in orbit([[q]], (1,), mod)]


def mult_order(q: int, mod: int) -> int:
    """The multiplicative order of q mod `mod`."""
    return len(_powers(q, mod))


def s_rho_n(ell: int, n: int, q: int, w: int, rho: int) -> dict:
    """S = sum_{i=1..rho} zeta_{l^n}^(q^i w); certifies v_l(S) >= v_l(rho).

    Precondition: the multiplicative order k_n of q mod l^n divides rho, so
    the sum is (rho/k_n) copies of a full orbit sum.  The exact element and
    its coefficient-wise divisibility are returned; falling short of the
    certified bound is a hard error.
    """
    check_odd_prime(ell)
    if n < 1 or rho < 1:
        raise InputError("need n >= 1 and rho >= 1")
    mod = ell**n
    powers = _powers(q, mod)  # the same multiset as q^1, ..., q^k
    k = len(powers)
    if rho % k != 0:
        raise InputError(f"rho = {rho} is not a multiple of the orbit size {k}")
    ring = CycloRing(ell, n, None)
    s = ring.from_exponent_counts((t * w % mod, rho // k) for t in powers)
    required = int_val(ell, rho)
    val = min_val(ell, s.coeffs)
    if val is not None and val < required:
        raise CheckFailed(
            f"orbit sum valuation {val} below the certified bound {required}",
            level=n, valuation=val, required=required,
        )
    return {
        "n": n,
        "q": q,
        "w": w,
        "rho": rho,
        "k_n": k,
        "exactly_zero": val is None,
        "valuation": val,
        "required": required,
        "passed": True,
    }


def primitive_char_sum(ell: int, n: int, shape: Sequence[int],
                       lam: Sequence[int]) -> dict:
    """Sum of chi over elements of maximal order in a product of cyclic
    l-groups; certifies the divisibility floor.

    M = prod Z/l^(n_i) with max n_i = n; the maximal-order elements are
    those with a unit coordinate in some full-depth factor.  chi is
    parametrized by lam: chi(x) = zeta_{l^n}^(sum lam_i x_i l^(n - n_i)).
    Certified: v_l(sum) >= n - 1, improving to (n-1)*b when all depths
    equal n (the free case, b = number of factors).  Hard error if missed.
    """
    check_odd_prime(ell)
    shape = tuple(int(x) for x in shape)
    lam = tuple(int(x) for x in lam)
    if not shape or len(shape) != len(lam):
        raise InputError("shape and lam must be nonempty and equal length")
    if any(x < 1 for x in shape):
        raise InputError("all depths must be >= 1")
    if max(shape) != n:
        raise InputError(f"max depth {max(shape)} must equal n = {n}")
    total = 1
    for ni in shape:
        total *= ell**ni
        if total > ENUM_CAP:
            raise GuardExceeded(
                f"module of shape {shape} has more than {ENUM_CAP} elements",
                shape=shape, need=total, limit=ENUM_CAP,
            )
    free = all(ni == n for ni in shape)
    required = (n - 1) * (len(shape) if free else 1)
    mod = ell**n
    ring = CycloRing(ell, n, None)
    weights = [ell ** (n - ni) for ni in shape]
    buf = [0] * mod
    count = 0
    for x in _iproduct(*[range(ell**ni) for ni in shape]):
        if not any(ni == n and xi % ell for ni, xi in zip(shape, x)):
            continue
        count += 1
        e = sum(li * xi * wi for li, xi, wi in zip(lam, x, weights)) % mod
        buf[e] += 1
    s = ring.from_exponent_counts([(e, c) for e, c in enumerate(buf) if c])
    val = min_val(ell, s.coeffs)
    if val is not None and val < required:
        raise CheckFailed(
            f"primitive character sum valuation {val} below bound {required}",
            level=n, valuation=val, required=required,
        )
    return {
        "n": n,
        "shape": list(shape),
        "lam": list(lam),
        "free": free,
        "num_primitive": count,
        "exactly_zero": val is None,
        "valuation": val,
        "required": required,
        "passed": True,
    }


# -- point counts, two independent routes each ----------------------------


def _elem_int(coeffs: Sequence[int], what: str, **context) -> int:
    """The constant term; CheckFailed naming any other nonzero one."""
    for i, c in enumerate(coeffs):
        if i and c:
            raise CheckFailed(
                f"{what} is not a rational integer "
                f"(basis coefficient {i} is {c})",
                coefficient=i, value=c, **context,
            )
    return coeffs[0]


def fermat_point_count(ell: int, n: int, q: int) -> dict:
    """Projective points of x^d + y^d + z^d = 0 over F_q, d = l^n.

    Route one is plain enumeration: tabulate the d-th power map, count
    y-solutions per x through a value-count table, add the points at
    infinity.  Route two assembles the count from Jacobi sums:

        N = q + d + sum over nontrivial (j1, j2) of J(chi^j1, chi^j2),

    where pairs with chi^j1 chi^j2 trivial contribute -1.  Any mismatch is
    a hard error.
    """
    p, f = prime_power_split(q)
    field = field_build(p, f)
    d = _char_level_check(field, ell, n)
    enum = fermat_enum_count(q, d, field=field)
    n_enum = enum["count"]
    ring = CycloRing(ell, n, None)
    total = ring.from_int(q + d)
    for j1 in range(1, d):
        for j2 in range(1, d):
            if (j1 + j2) % d == 0:
                total = total + ring.from_int(-1)
            else:
                total = total + jacobi_sum(field, ell, n, j1, j2)
    n_char = _elem_int(total.coeffs, "Jacobi-sum point count",
                       family="fermat", q=q, m=1, d=d)
    if n_enum != n_char:
        raise CheckFailed(
            f"Fermat counts disagree: enumeration {n_enum} vs "
            f"character sums {n_char} (q = {q}, d = {d})",
            family="fermat", q=q, m=1, d=d,
            enumeration=n_enum, character_sums=n_char,
        )
    return {
        "curve": f"x^{d} + y^{d} + z^{d} = 0",
        "q": q,
        "d": d,
        "count": n_enum,
        "affine": enum["affine"],
        "at_infinity": enum["at_infinity"],
        "routes_agree": True,
    }


def artin_schreier_point_count(ell: int, n: int, q: int, m: int) -> dict:
    """Points of y^q - y = x^d (d = l^n) over F_{q^m}, plus one at infinity.

    Route one is the additive criterion: y^q - y = c is solvable in K iff
    Tr_{K/F_q}(c) = 0, contributing q solutions, so the affine count is
    q * #{x in K : Tr_{K/F_q}(x^d) = 0}.  Route two expands the count in
    Gauss sums over K:

        N = q^m + 1 + sum_{a in F_q^*} sum_{j=1..d-1} g(psi_a o Tr, chi^j).

    Any mismatch is a hard error.
    """
    p, f = prime_power_split(q)
    if m < 1:
        raise InputError("extension degree m must be >= 1")
    big = field_build(p, f * m)
    d = _char_level_check(big, ell, n)
    enum = artin_schreier_enum_count(q, m, d, field=big)
    n_enum = enum["count"]
    nq = big.q - 1
    ks = np.arange(nq, dtype=np.int64)
    step = nq // (q - 1)
    traces = big.tr_abs_batch(big.exp_table)
    kd = ks % d
    pairs: dict[tuple[int, int], int] = {}
    for t in range(q - 1):
        ka = t * step
        shifted = traces[(ks + ka) % nq]
        counts = np.zeros((p, d), dtype=np.int64)
        np.add.at(counts, (shifted, kd), 1)
        nz_t, nz_e = np.nonzero(counts)
        for tt, ee, cc in zip(nz_t, nz_e, counts[nz_t, nz_e]):
            for j in range(1, d):
                key = (int(tt), int(j * ee % d))
                pairs[key] = pairs.get(key, 0) + int(cc)
    ring = BiCycloRing(p, ell, n)
    total = ring.from_exponent_counts(pairs)
    n_char = q**m + 1 + _elem_int(
        [c for row in total.mat for c in row], "Gauss-sum point count",
        family="artin-schreier", q=q, m=m, d=d)
    if n_enum != n_char:
        raise CheckFailed(
            f"Artin-Schreier counts disagree: trace criterion {n_enum} vs "
            f"Gauss sums {n_char} (q = {q}, m = {m}, d = {d})",
            family="artin-schreier", q=q, m=m, d=d,
            enumeration=n_enum, character_sums=n_char,
        )
    return {
        "curve": f"y^{q} - y = x^{d}",
        "q": q,
        "m": m,
        "d": d,
        "count": n_enum,
        "affine": enum["affine"],
        "routes_agree": True,
    }


# -- Weil polynomials from counts -----------------------------------------


def zeta_from_counts(q: int, genus: int, counts: Sequence[int]) -> dict:
    """Numerator of the zeta function from point counts N_1..N_{2g}.

    Converts counts to power traces a_m = q^m + 1 - N_m and runs the Newton
    recurrence over the integers (a non-integral coefficient is an error).
    Enforces the functional equation c_{2g-k} = q^(g-k) c_k and the Weil
    bound |a_m| <= 2g sqrt(q^m); violations are hard errors (they mean the
    counts are not the counts of a genus-g curve).
    """
    if genus < 0:
        raise InputError("genus must be >= 0")
    if len(counts) < 2 * genus:
        raise InputError(
            f"need {2 * genus} counts for genus {genus}, got {len(counts)}"
        )
    traces = [q**m + 1 - counts[m - 1] for m in range(1, 2 * genus + 1)]
    for m, a in enumerate(traces, start=1):
        if a * a > 4 * genus * genus * q**m:
            raise CheckFailed(
                f"Weil bound violated at m = {m}: |{a}| > 2g q^(m/2)",
                m=m, trace=a, genus=genus, q=q,
            )
    coeffs = det_from_traces(traces, "zeta numerator")
    for k in range(genus + 1):
        if coeffs[2 * genus - k] != q ** (genus - k) * coeffs[k]:
            raise CheckFailed(
                f"functional equation failed at k = {k}: "
                f"{coeffs[2 * genus - k]} != {q}^{genus - k} * {coeffs[k]}",
                k=k, high=coeffs[2 * genus - k], low=coeffs[k],
                genus=genus, q=q,
            )
    return {
        "q": q,
        "genus": genus,
        "traces": traces,
        "coeffs": coeffs,
    }


def predicted_counts(coeffs: Sequence[int], q: int, m_max: int) -> list[int]:
    """Counts implied by a zeta numerator: N_m = q^m + 1 - (power sums)."""
    if m_max > 64:
        raise InputError("prediction range is capped at 64")
    traces = traces_from_det(list(coeffs), m_max)
    return [q**m + 1 - traces[m - 1] for m in range(1, m_max + 1)]


# -- the motivating hyperelliptic family (the one 2-power case) -----------


def motivating_curve_counts(tower_level: int = 3,
                            m_max: Optional[int] = None) -> dict:
    """Counts for y^2 = x^(2^t) + 1 over F_5 extensions, by enumeration.

    The quadratic character does the y-counting: x contributes
    1 + chi_2(x^d + 1) points (just 1 when x^d + 1 = 0), plus the two
    rational points at infinity of the smooth model (d is even and the
    leading coefficient is a square).  This family is the package's one
    l = 2 pipeline and deliberately bypasses the cyclotomic machinery.
    The largest field, F_(5^m_max), is checked against the field guard
    before any table is built.
    """
    t = tower_level
    if t < 2:
        raise InputError("tower level must be >= 2 (genus would vanish)")
    d = 2**t
    genus = 2 ** (t - 1) - 1
    if m_max is None:
        m_max = 2 * genus
    check_field_size(5, m_max)
    counts = []
    for m in range(1, m_max + 1):
        field = field_build(5, m)
        nq = field.q - 1
        ks = np.arange(nq, dtype=np.int64)
        pows = np.zeros(field.q, dtype=np.int64)
        pows[field.exp_table] = field.exp_table[ks * d % nq]
        vals = field.add_batch(pows, np.ones(field.q, dtype=np.int64))
        sols = np.ones(field.q, dtype=np.int64)
        nz = vals != 0
        sols[nz] += 1 - 2 * (field.dlog_table[vals[nz]] % 2)
        counts.append(int(sols.sum()) + 2)
    return {
        "curve": f"y^2 = x^{d} + 1",
        "base": 5,
        "genus": genus,
        "counts": counts,
    }


def motivating_reference_poly(tower_level: int = 3) -> list[int]:
    """The closed-form zeta numerator of the motivating family:

        (1 - 2x + 5x^2) * prod_{i=1..t-2} (1 + 5^(2^(i-1)) x^(2^i))^2.
    """
    t = tower_level
    if t < 2:
        raise InputError("tower level must be >= 2")
    poly = [1, -2, 5]
    for i in range(1, t - 1):
        factor = [1] + [0] * (2**i - 1) + [5 ** (2 ** (i - 1))]
        poly = convolve(convolve(poly, factor), factor)
    return poly


def motivating_zeta_check(tower_level: int = 3) -> dict:
    """Counts -> zeta numerator, compared against the closed form."""
    data = motivating_curve_counts(tower_level)
    z = zeta_from_counts(5, data["genus"], data["counts"])
    want = motivating_reference_poly(tower_level)
    return {
        "curve": data["curve"],
        "genus": data["genus"],
        "counts": data["counts"],
        "coeffs": z["coeffs"],
        "reference": want,
        "passed": z["coeffs"] == want,
    }


def _enum_field(p: int, f: int, field: Optional[FqField]) -> FqField:
    """F_{p^f}, or `field` when the caller has already built it."""
    if field is None:
        return field_build(p, f)
    if field.q != p**f:
        raise InputError(f"expected the field of size {p**f}, got {field.q}")
    return field


def fermat_enum_count(q: int, d: int, *,
                      field: Optional[FqField] = None) -> dict:
    """Projective count of x^d + y^d + z^d = 0 over F_q by enumeration only.

    Works for any exponent d >= 1 (no character-level requirement), so it
    also serves extensions where d does not divide q - 1.  The targets
    -(x^d + 1) go through the digit codec AS_CHUNK at a time.  A caller
    that already holds F_q passes it as `field`.
    """
    if d < 1:
        raise InputError("exponent d must be >= 1")
    field = _enum_field(*prime_power_split(q), field)
    nq = field.q - 1
    ks = np.arange(nq, dtype=np.int64)
    pows = np.zeros(field.q, dtype=np.int64)
    pows[field.exp_table] = field.exp_table[ks * d % nq]
    roots_count = np.bincount(pows, minlength=field.q)
    n_aff = 0
    for start in range(0, field.q, AS_CHUNK):
        chunk = pows[start : start + AS_CHUNK]
        targets = field.neg_batch(field.add_batch(chunk, np.ones_like(chunk)))
        n_aff += int(roots_count[targets].sum())
    n_inf = int(roots_count[field.neg(1)])
    return {"q": q, "d": d, "count": n_aff + n_inf,
            "affine": n_aff, "at_infinity": n_inf}


def artin_schreier_enum_count(q: int, m: int, d: int, *,
                              field: Optional[FqField] = None) -> dict:
    """Count of y^q - y = x^d over F_{q^m} (plus the point at infinity)
    by the trace criterion alone: x contributes q points iff
    Tr_{K/F_q}(x^d) = 0.

    x -> x^d maps K^* onto the g-th powers exp_table[::g], g = gcd(d,
    q^m - 1), hitting each g times, so the affine count is
    q * (1 + g * #{g-th powers y : T y = 0}) with T = the relative trace
    matrix `FqField.trace_matrix`.  The powers are tested AS_CHUNK at a
    time.  A caller that already holds F_{q^m} passes it as `field`.
    """
    if d < 1 or m < 1:
        raise InputError("need d >= 1 and m >= 1")
    p, f = prime_power_split(q)
    big = _enum_field(p, f * m, field)
    trace = big.trace_matrix(q, m)
    trace = trace[trace.any(axis=1)].T  # zero rows test nothing
    g = math.gcd(d, big.q - 1)
    powers = big.exp_table[::g]
    zeros = 0
    for start in range(0, len(powers), AS_CHUNK):
        images = big.digits(powers[start : start + AS_CHUNK]) @ trace % p
        zeros += len(images) - int(np.count_nonzero(images.any(axis=1)))
    n_aff = q * (1 + g * zeros)
    return {"q": q, "m": m, "d": d, "count": n_aff + 1, "affine": n_aff}


# -- degree-l descent identities ------------------------------------------
#
# E is a degree-l extension of a subfield of size sub_q, with
# v_l(sub_q - 1) = n.  The subfield is always addressed through the
# norm-compatible generator g' = G^step (step = (|E| - 1)/(sub_q - 1)),
# so both sides of each identity are evaluated with consistent character
# conventions inside E.


def _coleman_jacobi_core(E: FqField, sub_q: int, ell: int, n: int,
                         w1: int, w2: int) -> dict:
    """Level-(n+1) Jacobi sum over E against its level-n subfield image.

    The identity checked: J_E(chi_w1, chi_w2) equals
    sub_q^((l-1)/2) * J_sub(chi_w1, chi_w2), the right side lifted one
    level.  Returns a pass/fail row.
    """
    d_lo = ell**n
    step = (E.q - 1) // (sub_q - 1)
    j_big = jacobi_sum(E, ell, n + 1, w1, w2)
    ts = np.arange(sub_q - 1, dtype=np.int64)
    xs = E.exp_table[ts * step]
    om = E.one_minus_batch(xs)
    mask = om != 0
    k2 = E.dlog_table[om[mask]]
    if int((k2 % step).sum()):
        raise CheckFailed("1 - x left the subfield; tables are inconsistent",
                          level=n, sub_q=sub_q)
    es = ((w1 % d_lo) * ts[mask] + (w2 % d_lo) * (k2 // step)) % d_lo
    j_sub = _jacobi_from_exponents(ell, n, es)
    rhs = j_sub.embed_up() * (sub_q ** ((ell - 1) // 2))
    return {"w": [int(w1), int(w2)], "passed": bool(j_big == rhs)}


def _coleman_gauss_core(E: FqField, sub_q: int, ell: int, n: int,
                        v: int) -> dict:
    """Level-(n+1) Gauss sum over E against its level-n subfield image.

    The candidate right side is

        g_sub * zeta_{l^(n+1)}^(-l * v * s) * sub_q^((l-1)/2),

    where s is the subfield discrete log of the rational integer l (the
    zeta factor is the inverse of chi_v evaluated at l, lifted one level).
    Both global signs are tried; the row records which of them matched.
    """
    d_lo = ell**n
    d_hi = ell ** (n + 1)
    step = (E.q - 1) // (sub_q - 1)
    g_big = gauss_sum(E, ell, n + 1, v)
    ts = np.arange(sub_q - 1, dtype=np.int64)
    xs = E.exp_table[ts * step]
    ell_inv = pow(ell % E.p, -1, E.p)
    trs = ell_inv * E.tr_abs_batch(xs) % E.p
    g_sub = _gauss_from_table(E.p, ell, n, trs, (v % d_lo) * ts % d_lo)
    k_ell = E.dlog(ell % E.p)
    if k_ell % step:
        raise CheckFailed("l left the subfield; tables are inconsistent",
                          level=n, sub_q=sub_q)
    zexp = (-ell * v * (k_ell // step)) % d_hi
    zfac = CycloRing(ell, n + 1, None).zeta(zexp)
    base = g_sub.embed_up() * zfac * (sub_q ** ((ell - 1) // 2))
    return {
        "v": int(v),
        "sign_plus": bool(g_big == base),
        "sign_minus": bool(g_big == -base),
    }


def coleman_jacobi_check(ell: int, q: int, v1: int, v2: int) -> dict:
    """Jacobi descent through the degree-l extension E = F_{q^l}.

    With n = v_l(q - 1) >= 1, levels n (over F_q) and n + 1 (over E) are
    both primitive settings; the check requires chi_v1, chi_v2 and their
    product nontrivial at the lower level.
    """
    check_odd_prime(ell)
    p, f = prime_power_split(q)
    n = int_val(ell, q - 1)
    if n < 1:
        raise InputError(f"need {ell} | q - 1 (q = {q})")
    d_lo = ell**n
    d_hi = ell ** (n + 1)
    for name, w in (("chi_1", v1), ("chi_2", v2), ("their product", v1 + v2)):
        if w % d_lo == 0:
            raise InputError(
                f"{name} is degenerate at level {n} (v = {w}); the descent "
                f"identity does not apply"
            )
    big = field_build(p, f * ell)
    row = _coleman_jacobi_core(big, q, ell, n, v1 % d_hi, v2 % d_hi)
    return {
        "identity": "jacobi",
        "ell": ell,
        "q": q,
        "extension_q": big.q,
        "level": n + 1,
        "v": [v1, v2],
        "scale": q ** ((ell - 1) // 2),
        "passed": row["passed"],
    }


def coleman_gauss_check(ell: int, q: int, v: Optional[int] = None) -> dict:
    """Gauss descent through E = F_{q^l}, with sign resolution.

    Runs one row per character parameter (all units mod l^(n+1) when v is
    not given).  Status is "pass" only if every row matches under exactly
    one global sign and all rows agree on it; "degenerate" if some row
    matches both signs; "fail" otherwise.
    """
    check_odd_prime(ell)
    p, f = prime_power_split(q)
    n = int_val(ell, q - 1)
    if n < 1:
        raise InputError(f"need {ell} | q - 1 (q = {q})")
    d_hi = ell ** (n + 1)
    if v is None:
        vs = [w for w in range(1, d_hi) if w % ell]
    else:
        if v % ell == 0:
            raise InputError(
                f"v = {v} is not primitive at level {n + 1} (unit mod {ell} "
                f"required)"
            )
        vs = [v % d_hi]
    big = field_build(p, f * ell)
    rows = [_coleman_gauss_core(big, q, ell, n, w) for w in vs]
    status = "pass"
    signs = set()
    for r in rows:
        if r["sign_plus"] and r["sign_minus"]:
            status = "degenerate"
        elif not r["sign_plus"] and not r["sign_minus"]:
            status = "fail"
        else:
            signs.add(1 if r["sign_plus"] else -1)
    if status == "pass" and len(signs) != 1:
        status = "fail"
    return {
        "identity": "gauss",
        "ell": ell,
        "q": q,
        "extension_q": big.q,
        "level": n + 1,
        "scale": q ** ((ell - 1) // 2),
        "status": status,
        "sign": signs.pop() if status == "pass" else None,
        "rows": rows,
    }


# -- zeta numerators level by level up a tower of curves ------------------


def _fresh_orbits(family: str, ell: int, m: int,
                  mult: int) -> list[tuple[tuple[int, ...], int]]:
    """Orbits of v -> mult * v on the fresh characters of level m, with sizes.

    Fermat: Jacobi pairs (v1, v2) mod l^m that are valid (both components
    and their sum nonzero) and of exact level m (not both components
    divisible by l; the others are lifts of lower-level pairs, counted
    there).  Artin-Schreier: the units v mod l^m, as 1-tuples.  With
    mult = q these are the Frobenius orbits; with a primitive root mod l^m
    they are the orbits of the Galois group of Q(zeta_{l^m}).
    """
    d = ell**m
    if family == "fermat":
        def fresh(v):
            v1, v2 = v
            return (v1 % ell or v2 % ell) and 0 not in (v1, v2, (v1 + v2) % d)

        return orbit_reps([[mult, 0], [0, mult]], d, 2, fresh)
    return orbit_reps([[mult]], d, 1, lambda v: v[0] % ell)


def _primitive_root(ell: int, m: int) -> int:
    """The least generator of the cyclic group (Z/l^m)^*."""
    d = ell**m
    phi = d - d // ell
    return next(g for g in range(2, d + 1) if mult_order(g, d) == phi)


def _h_from_traces(family: str, m: int, k_m: int, gens: Sequence,
                   degree: int) -> list[int]:
    """h_m(y) = prod (1 + S y) over the Frobenius-orbit sums S of level m.

    The S form the Galois orbits of `gens`, each member counted k_m times,
    so the power sums are P_k = (1/k_m) sum_gen Tr(gen^k), k = 1..degree:
    one ring multiply per power.  Newton's identities for the roots -S give
    the coefficients.  A trace sum that k_m does not divide, or a
    coefficient that is not an integer, is a hard error naming the family,
    the level and the power or coefficient.
    """
    sums = [0] * degree
    for g in gens:
        x = g
        for k in range(degree):
            if k:
                x = x * g
            sums[k] += x.trace()
    traces = []
    for k, s in enumerate(sums, start=1):
        if s % k_m:
            raise CheckFailed(
                f"{family} level {m}: the trace sum of power {k} is not "
                f"divisible by the orbit size {k_m}",
                family=family, level=m, power=k,
            )
        traces.append(-(s // k_m) if k % 2 else s // k_m)
    return det_from_traces(traces, f"{family} level-{m} h",
                           family=family, level=m)


def h_poly_tower(family: str, ell: int, q: int, n: int) -> dict:
    """Zeta numerator of the level-n curve of a tower, built level by level.

    Families over F_q (which must contain the l-th roots of unity):

    * "fermat": x^(l^n) + y^(l^n) + z^(l^n) = 0 (projective).
    * "artin-schreier": y^q - y = x^(l^n).

    Level m contributes h_m(y) = product over the Frobenius orbits
    (v -> q v) of fresh characters of (1 + S * y), with S the Jacobi
    (resp. Gauss, one per additive twist a in F_q^*) sum over F_{q^(k_m)},
    k_m the orbit size; the numerator is f_n(y) = prod_m h_m(y^(k_m)).

    The product is never formed.  The Galois group of Q(zeta_{l^m})
    (resp. Q(zeta_p, zeta_{l^m})) permutes the sums freely: sigma_u maps
    J(chi^v1, chi^v2) to J(chi^(u v1), chi^(u v2)), and sigma_(c,u) maps
    g(psi_a, chi^v) to g(psi_(c a), chi^(u v)).  So one generator per orbit
    of the units on the fresh characters suffices -- the Jacobi sum at each
    unit-orbit representative, or the Gauss sum at v = 1 for each coset rep
    a of F_q^* / F_p^* -- and h_m is rebuilt from exact traces of their
    powers (`_h_from_traces`).  The fresh-character count, the orbit sizes
    (k_m for Frobenius, phi(l^m) for the units) and every degree are
    checked against the genus bookkeeping, else a hard error.

    For levels m >= n1 = v_l(q - 1) the step from m to m + 1 is a
    degree-l field extension, and the per-orbit descent identities are
    re-verified through the same cores as the standalone checks; the rows
    are returned under "stabilization".
    """
    if family not in ("fermat", "artin-schreier"):
        raise InputError("family must be 'fermat' or 'artin-schreier'")
    check_odd_prime(ell)
    p, f = prime_power_split(q)
    n1 = int_val(ell, q - 1)
    if n1 < 1:
        raise InputError(f"need {ell} | q - 1 (q = {q})")
    if n < 1:
        raise InputError("tower depth n must be >= 1")

    fields: dict[int, FqField] = {}

    def get_field(k: int) -> FqField:
        if k not in fields:
            fields[k] = field_build(p, f * k)
        return fields[k]

    levels = []
    f_poly = [1]
    for m in range(1, n + 1):
        d = ell**m
        phi = d - d // ell
        k_m = mult_order(q, d)
        big = get_field(k_m)
        orbits = _fresh_orbits(family, ell, m, q)
        units = _fresh_orbits(family, ell, m, _primitive_root(ell, m))
        if family == "fermat":
            twists = 1
            want_fresh = (d - 1) * (d - 2)
            if m > 1:
                want_fresh -= (d // ell - 1) * (d // ell - 2)
            gens = [jacobi_sum(big, ell, m, v1, v2) for (v1, v2), _ in units]
        else:
            twists = q - 1  # each unit orbit once per additive twist a
            want_fresh = (q - 1) * phi
            step = (big.q - 1) // (q - 1)
            gens = [gauss_sum(big, ell, m, v, a=int(big.exp_table[t * step]))
                    for t in range((q - 1) // (p - 1)) for (v,), _ in units]
        fresh = twists * sum(size for _, size in orbits)
        if fresh != want_fresh:
            raise CheckFailed(
                f"level-{m} character count {fresh} != expected {want_fresh}",
                family=family, level=m, expected=want_fresh, measured=fresh,
            )
        sizes = {size for _, size in orbits}
        if sizes and sizes != {k_m}:
            raise CheckFailed(
                f"level-{m} orbit sizes {sorted(sizes)} differ from the "
                f"multiplicative order {k_m}",
                family=family, level=m, expected=k_m, measured=sorted(sizes),
            )
        unit_sizes = {size for _, size in units}
        if unit_sizes and unit_sizes != {phi}:
            raise CheckFailed(
                f"level-{m} unit orbit sizes {sorted(unit_sizes)} differ "
                f"from phi({d}) = {phi}",
                family=family, level=m, expected=phi,
                measured=sorted(unit_sizes),
            )
        h_int = _h_from_traces(family, m, k_m, gens, twists * len(orbits))
        if (len(h_int) - 1) * k_m != fresh:
            raise CheckFailed(
                f"level-{m} degree bookkeeping failed",
                family=family, level=m, expected=fresh,
                measured=(len(h_int) - 1) * k_m,
            )
        stretched = [0] * ((len(h_int) - 1) * k_m + 1)
        stretched[::k_m] = h_int  # h_m(y^(k_m))
        f_poly = convolve(f_poly, stretched)
        levels.append({"m": m, "k": k_m, "field_q": big.q, "h": h_int})

    want_deg = (ell**n - 1) * (ell**n - 2) if family == "fermat" \
        else (q - 1) * (ell**n - 1)
    if len(f_poly) - 1 != want_deg:
        raise CheckFailed(
            f"total degree {len(f_poly) - 1} != expected {want_deg}",
            family=family, level=n, expected=want_deg,
            measured=len(f_poly) - 1,
        )

    stab = []
    for m in range(n1, n):
        d_hi = ell ** (m + 1)
        k_lo = mult_order(q, ell**m)
        k_hi = mult_order(q, d_hi)
        if k_hi != ell * k_lo:
            raise CheckFailed(
                f"orbit size did not grow by a factor of {ell} at level "
                f"{m + 1} (got {k_hi} from {k_lo})",
                family=family, level=m + 1, expected=ell * k_lo,
                measured=k_hi,
            )
        big = get_field(k_hi)
        sub_q = q**k_lo
        rows = []
        if family == "fermat":
            d_lo = ell**m
            for (w1, w2), _ in _fresh_orbits(family, ell, m + 1, q):
                if w1 % d_lo == 0 or w2 % d_lo == 0 or (w1 + w2) % d_lo == 0:
                    rows.append({"w": [w1, w2], "passed": None,
                                 "note": "degenerate at the lower level"})
                    continue
                rows.append(_coleman_jacobi_core(big, sub_q, ell, m, w1, w2))
            ok = all(r["passed"] for r in rows if r["passed"] is not None)
        else:
            for (v,), _ in _fresh_orbits(family, ell, m + 1, q):
                rows.append(_coleman_gauss_core(big, sub_q, ell, m, v))
            one_sign = all(r["sign_plus"] != r["sign_minus"] for r in rows)
            uniform = len({r["sign_plus"] for r in rows}) <= 1
            ok = one_sign and uniform
        stab.append({
            "m": m,
            "extension_q": big.q,
            "sub_q": sub_q,
            "rows": rows,
            "passed": bool(ok),
        })

    return {
        "family": family,
        "ell": ell,
        "q": q,
        "n": n,
        "n1": n1,
        "degree": len(f_poly) - 1,
        "f": f_poly,
        "levels": levels,
        "stabilization": stab,
        "stabilization_passed":
            all(s["passed"] for s in stab) if stab else None,
    }
