"""Character sums over finite fields and the zeta data they assemble.

Conventions, fixed once for the whole package:

* Multiplicative characters of F_q at l-power level n are parametrized by
  an integer v: chi_v(x) = zeta_{l^n}^(v * dlog(x)) against the field's
  tabulated generator, with chi_v(0) = 0.  This requires l^n | q - 1.
* The additive character is psi(x) = zeta_p^Tr(x) (absolute trace).  Its
  twists psi(ax) are never summed: g(psi(a .), chi_v) = chi_v(a)^-1
  g(psi, chi_v).
* Gauss sums g(psi, chi_v) = sum over x != 0 live in Z[zeta_p, zeta_{l^n}]
  (exact integer bicyclotomic elements); Jacobi sums J(chi_v1, chi_v2) =
  sum over all x of chi_v1(x) chi_v2(1-x) live in Z[zeta_{l^n}].  Both
  also run over a subfield (`sub_q`), against the subfield's own
  characters, for the degree-l descent checks.

Every point count `zeta fermat|as` checks is produced twice: by plain
enumeration (`fermat_enum_count`, `artin_schreier_enum_count`), and by
`predicted_counts` from the zeta numerator that `h_poly_tower` builds out
of Jacobi/Gauss sums.  The two routes share no code beyond the field
construction (its block stepper, tables and digit codec); the CLI reports a
count on which they disagree as a `fail` row (exit 2).
"""

from __future__ import annotations

import math
from itertools import product as _iproduct
from typing import Optional, Sequence

import numpy as np

from .cyclo import (BiCycloElem, BiCycloRing, CycloElem, CycloRing, convolve,
                    demote, stretch)
from .errors import CheckFailed, GuardExceeded, InputError
from .fields import (
    FIELD_CAP,
    FqField,
    _float_mod,
    check_field_size,
    field_build,
    prime_factors,
)
from .matfermat import det_from_traces, traces_from_det
from .matrices import mat_step, orbit, orbit_reps
from .padic import check_odd_prime, int_val, min_val, primitive_root

ENUM_CAP = 10**7
# Elements per digit-codec batch in the Fermat count (its x^d + 1
# lookups): bounds the digit rows alive at once to O(AS_CHUNK * f)
# integers, f the degree over F_p of the field enumerated, whatever its
# size.  The Artin-Schreier count steps `FqField.power_blocks` instead.
AS_CHUNK = 1 << 16
# Coefficient bits one level's generator norms and its product f_m may
# process, estimated before the first product (see `h_poly_tower`).
NORM_WORK_CAP = 3 * 10**7


def prime_power_split(q: int) -> tuple[int, int]:
    """q = p^f with p prime; error if q is not a prime power.  Every caller
    builds F_q, so a q past the field guard is refused before any trial
    division (up to sqrt(q) steps)."""
    if q < 2:
        raise InputError(f"{q} is not a prime power", field="q")
    if q > FIELD_CAP:
        raise GuardExceeded(
            f"q = {q} exceeds the table guard of {FIELD_CAP} elements",
            q=q, limit=FIELD_CAP,
        )
    primes = prime_factors(q)
    if len(primes) != 1:
        raise InputError(f"{q} is not a prime power", field="q")
    return primes[0], int_val(primes[0], q)


def _subfield_powers(field: FqField, ell: int, level: int,
                     sub_q: Optional[int]) -> tuple[np.ndarray, int, int]:
    """(xs, d, step) for a character sum over the subfield of sub_q
    elements (the whole field when None): xs[t] = G^(step t), t < sub_q - 1,
    step = (q - 1)/(sub_q - 1), and d = l^level, which must divide sub_q - 1.
    """
    check_odd_prime(ell)
    sub_q = field.q if sub_q is None else sub_q
    if sub_q < 2 or (field.q - 1) % (sub_q - 1):
        raise InputError(f"F_{field.q}^* has no subgroup of order {sub_q} - 1",
                         field="sub_q")
    if level < 1:
        raise InputError("character level must be >= 1", field="level")
    d = ell**level
    if (sub_q - 1) % d != 0:
        raise InputError(
            f"level-{level} characters need {ell}^{level} | q - 1 "
            f"(q = {sub_q})", field="level",
        )
    step = (field.q - 1) // (sub_q - 1)
    return field.exp_table[::step], d, step


def gauss_sum(field: FqField, ell: int, level: int, v: int,
              sub_q: Optional[int] = None) -> BiCycloElem:
    """g(psi, chi_v) = sum_{x != 0} psi(x) chi_v(x), exact.

    With `sub_q` the sum runs over the subfield of sub_q elements: chi_v
    against its generator G^((q - 1)/(sub_q - 1)), psi through its own
    absolute trace, [F_q : F_sub_q]^-1 times that of F_q (mod p).
    """
    xs, d, _ = _subfield_powers(field, ell, level, sub_q)
    p, deg = field.p, 1
    if sub_q is not None:
        deg = field.f // max(int_val(p, sub_q), 1)
        if sub_q**deg != field.q or deg % p == 0:
            raise InputError(f"the trace of F_{field.q} does not give that "
                             f"of F_{sub_q}", field="sub_q")
    counts = np.zeros((p, d), dtype=np.int64)
    np.add.at(counts, (field.tr_abs_batch(xs) * pow(deg, -1, p) % p,
                       (v % d) * np.arange(len(xs), dtype=np.int64) % d), 1)
    ts, es = np.nonzero(counts)
    return BiCycloRing(p, ell, level).from_exponent_counts(
        {(int(t), int(e)): int(c) for t, e, c in zip(ts, es, counts[ts, es])})


def jacobi_sum(field: FqField, ell: int, level: int, v1: int, v2: int,
               sub_q: Optional[int] = None) -> CycloElem:
    """J(chi_v1, chi_v2) = sum_x chi_v1(x) chi_v2(1 - x), exact; over the
    subfield of sub_q elements when given, as in `gauss_sum`.

    The chi(0) = 0 convention silently drops x = 0 and x = 1, so the sum
    effectively ranges over x != 0, 1.  A 1 - x outside the subfield is a
    CheckFailed.
    """
    xs, d, step = _subfield_powers(field, ell, level, sub_q)
    om = field.one_minus_batch(xs)
    mask = om != 0
    k2 = field.dlog_table[om[mask]]
    if (k2 % step).any():
        raise CheckFailed("1 - x left the subfield; tables are inconsistent",
                          level=level, sub_q=sub_q)
    es = ((v1 % d) * np.flatnonzero(mask) + (v2 % d) * (k2 // step)) % d
    counts = np.bincount(es, minlength=d)
    return CycloRing(ell, level, None).from_exponent_counts(
        [(int(e), int(c)) for e, c in enumerate(counts) if c])


# -- orbit-sum lemmas -----------------------------------------------------


def _powers(q: int, mod: int) -> list[int]:
    """q^0, q^1, ..., q^(k-1) mod `mod`: the orbit of 1 under x -> q*x."""
    if math.gcd(q, mod) != 1:
        raise InputError(f"{q} is not invertible mod {mod}", field="q")
    return [t for (t,) in orbit(mat_step([[q]], mod), (1 % mod,), mod)]


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
        raise InputError("need n >= 1 and rho >= 1",
                         field="n" if n < 1 else "rho")
    mod = ell**n
    powers = _powers(q, mod)  # the same multiset as q^1, ..., q^k
    k = len(powers)
    if rho % k != 0:
        raise InputError(f"rho = {rho} is not a multiple of the orbit size {k}",
                         field="rho")
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
        raise InputError("shape and lam must be nonempty and equal length",
                         field="shape" if not shape else "lam")
    if any(x < 1 for x in shape):
        raise InputError("all depths must be >= 1", field="shape")
    if max(shape) != n:
        raise InputError(f"max depth {max(shape)} must equal n = {n}",
                         field="shape")
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
        raise InputError("genus must be >= 0", field="genus")
    if len(counts) < 2 * genus:
        raise InputError(
            f"need {2 * genus} counts for genus {genus}, got {len(counts)}",
            field="counts",
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
        raise InputError("prediction range is capped at 64", field="m_max")
    traces = traces_from_det(list(coeffs), m_max)
    return [q**m + 1 - traces[m - 1] for m in range(1, m_max + 1)]


def _dth_powers(field: FqField, d: int) -> np.ndarray:
    """x^d for every element x of `field`, indexed by its code (0^d = 0)."""
    nq = field.q - 1
    pows = np.zeros(field.q, dtype=np.int64)
    pows[field.exp_table] = field.exp_table[
        np.arange(nq, dtype=np.int64) * d % nq]
    return pows


# -- the motivating hyperelliptic family (the one 2-power case) -----------


def motivating_curve_counts(tower_level: int) -> dict:
    """Counts for y^2 = x^(2^t) + 1 over F_5 extensions, by enumeration.

    The quadratic character does the y-counting: x contributes
    1 + chi_2(x^d + 1) points (just 1 when x^d + 1 = 0), plus the two
    rational points at infinity of the smooth model (d is even and the
    leading coefficient is a square).  This family is the package's one
    l = 2 pipeline and deliberately bypasses the cyclotomic machinery.
    Counts run over m = 1..2g; the largest field, F_(5^2g), is checked
    against the field guard before any table is built.
    """
    t = tower_level
    if t < 2:
        raise InputError("tower level must be >= 2 (genus would vanish)",
                         field="level")
    d = 2**t
    genus = 2 ** (t - 1) - 1
    check_field_size(5, 2 * genus)
    counts = []
    for m in range(1, 2 * genus + 1):
        field = field_build(5, m)
        vals = field.add_batch(_dth_powers(field, d),
                               np.ones(field.q, dtype=np.int64))
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


def motivating_reference_poly(tower_level: int) -> list[int]:
    """The closed-form zeta numerator of the motivating family:

        (1 - 2x + 5x^2) * prod_{i=1..t-2} (1 + 5^(2^(i-1)) x^(2^i))^2.
    """
    t = tower_level
    if t < 2:
        raise InputError("tower level must be >= 2", field="level")
    poly = [1, -2, 5]
    for i in range(1, t - 1):
        factor = [1] + [0] * (2**i - 1) + [5 ** (2 ** (i - 1))]
        poly = convolve(convolve(poly, factor), factor)
    return poly


def motivating_zeta_check(tower_level: int) -> dict:
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


def fermat_enum_count(q: int, d: int) -> dict:
    """Projective count of x^d + y^d + z^d = 0 over F_q by enumeration only.

    Works for any exponent d >= 1 (no character-level requirement), so it
    also serves extensions where d does not divide q - 1.  The targets
    -(x^d + 1) go through the digit codec AS_CHUNK at a time.
    """
    if d < 1:
        raise InputError("exponent d must be >= 1", field="d")
    field = field_build(*prime_power_split(q))
    pows = _dth_powers(field, d)
    roots_count = np.bincount(pows, minlength=field.q)
    n_aff = 0
    for start in range(0, field.q, AS_CHUNK):
        chunk = pows[start : start + AS_CHUNK]
        targets = field.neg_batch(field.add_batch(chunk, np.ones_like(chunk)))
        n_aff += int(roots_count[targets].sum())
    n_inf = int(roots_count[field.neg(1)])
    return {"q": q, "d": d, "count": n_aff + n_inf,
            "affine": n_aff, "at_infinity": n_inf}


def artin_schreier_enum_count(q: int, m: int, d: int) -> dict:
    """Count of y^q - y = x^d over F_{q^m} (plus the point at infinity)
    by the trace criterion alone: x contributes q points iff
    Tr_{K/F_q}(x^d) = 0.

    x -> x^d maps K^* onto the g-th powers, g = gcd(d, q^m - 1), hitting
    each g times, so the affine count is q * (1 + g * #{g-th powers y :
    T y = 0}) with T = the relative trace matrix `FqField.trace_matrix`.
    The (q^m - 1) / g powers of gen^g are stepped once as digit blocks
    (`FqField.power_blocks`) and each block is tested against the nonzero
    rows of T in float64, exact since every sum is at most f (p - 1)^2 <
    2^53.  Neither field table is built.  The stepped powers must be
    (q^m - 1) / g distinct nonzero elements, else a CheckFailed.
    """
    if d < 1 or m < 1:
        raise InputError("need d >= 1 and m >= 1", field="d" if d < 1 else "m")
    p, f = prime_power_split(q)
    big = field_build(p, f * m)
    trace = big.trace_matrix(q, m)
    trace = trace[trace.any(axis=1)].astype(float)  # zero rows test nothing
    g = math.gcd(d, big.q - 1)
    stepped = (big.q - 1) // g
    weights = big._weights.astype(float)
    seen = np.zeros(big.q, dtype=bool)
    zeros = 0
    for block in big.power_blocks(big._pow_poly(big.gen, g), stepped):
        seen[(weights @ block).astype(np.int64)] = True
        images = trace @ block
        _float_mod(images, p, np.empty_like(images))
        zeros += block.shape[1] - int(np.count_nonzero(images.any(axis=0)))
    if int(np.count_nonzero(seen[1:])) != stepped:
        raise CheckFailed(
            f"the powers of gen^{g} in F_{big.q} are not {stepped} distinct "
            "elements",
            p=p, f=big.f, g=g,
        )
    n_aff = q * (1 + g * zeros)
    return {"q": q, "m": m, "d": d, "count": n_aff + 1, "affine": n_aff,
            "g": g, "stepped": stepped}


# -- degree-l descent identities ------------------------------------------
#
# E is a degree-l extension of a subfield of size sub_q, with
# v_l(sub_q - 1) = n.  The subfield is always addressed through the
# norm-compatible generator g' = G^step (step = (|E| - 1)/(sub_q - 1)),
# so both sides of each identity are evaluated with consistent character
# conventions inside E.


def _degenerate_jacobi(w1: int, w2: int,
                       d_lo: int) -> list[tuple[str, str, int]]:
    """(name, parameter, v) of each of chi_w1, chi_w2 and their product
    that is trivial at the lower level l^n = d_lo; the Jacobi descent needs
    none."""
    pairs = (("chi_1", "v1", w1), ("chi_2", "v2", w2),
             ("their product", "v1+v2", w1 + w2))
    return [(name, key, w) for name, key, w in pairs if w % d_lo == 0]


def _gauss_sign_status(rows: Sequence[dict]) -> tuple[str, Optional[int]]:
    """(status, sign) of sign-resolved Gauss descent rows: "pass" and the
    sign if each row matches exactly one sign and all rows agree; else the
    last row matching both signs ("degenerate") or neither ("fail") sets
    the status, and rows that disagree are a "fail"."""
    status, signs = "pass", set()
    for r in rows:
        if r["sign_plus"] == r["sign_minus"]:
            status = "degenerate" if r["sign_plus"] else "fail"
        else:
            signs.add(1 if r["sign_plus"] else -1)
    if status == "pass" and len(signs) != 1:
        status = "fail"
    return status, signs.pop() if status == "pass" else None


def _coleman_jacobi_core(E: FqField, sub_q: int, ell: int, n: int,
                         w1: int, w2: int) -> dict:
    """Level-(n+1) Jacobi sum over E against its level-n subfield image.

    The identity checked: J_E(chi_w1, chi_w2) equals
    sub_q^((l-1)/2) * J_sub(chi_w1, chi_w2), the right side lifted one
    level.  Returns a pass/fail row.
    """
    j_big = jacobi_sum(E, ell, n + 1, w1, w2)
    j_sub = jacobi_sum(E, ell, n, w1, w2, sub_q=sub_q)
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
    d_hi = ell ** (n + 1)
    step = (E.q - 1) // (sub_q - 1)
    k_ell = E.dlog(ell % E.p)
    if k_ell % step:
        raise CheckFailed("l left the subfield; tables are inconsistent",
                          level=n, sub_q=sub_q)
    g_big = gauss_sum(E, ell, n + 1, v)
    g_sub = gauss_sum(E, ell, n, v, sub_q=sub_q)
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
        raise InputError(f"need {ell} | q - 1 (q = {q})", field="q")
    d_lo = ell**n
    d_hi = ell ** (n + 1)
    for name, key, w in _degenerate_jacobi(v1, v2, d_lo):
        raise InputError(
            f"{name} is degenerate at level {n} (v = {w}); the descent "
            f"identity does not apply", field=key,
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
        raise InputError(f"need {ell} | q - 1 (q = {q})", field="q")
    d_hi = ell ** (n + 1)
    if v is None:
        vs = [w for w in range(1, d_hi) if w % ell]
    else:
        if v % ell == 0:
            raise InputError(
                f"v = {v} is not primitive at level {n + 1} (unit mod {ell} "
                f"required)", field="v",
            )
        vs = [v % d_hi]
    big = field_build(p, f * ell)
    rows = [_coleman_gauss_core(big, q, ell, n, w) for w in vs]
    status, sign = _gauss_sign_status(rows)
    return {
        "identity": "gauss",
        "ell": ell,
        "q": q,
        "extension_q": big.q,
        "level": n + 1,
        "scale": q ** ((ell - 1) // 2),
        "status": status,
        "sign": sign,
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


def _generator_norm(family: str, m: int, gen: tuple, s, e: int,
                    conj: Sequence[int]) -> list[int]:
    """prod over u in `conj` of (1 + sigma_u(s^e) y), in integers, one
    linear factor at a time: new[j] = old[j] + sigma_u(s^e) old[j - 1].

    s is a Jacobi (e = 1) or Gauss sum at level m.  An s^e off
    Z[zeta_{l^m}] or a norm coefficient off Z is a CheckFailed naming the
    family, the level, the generator `gen` and the coefficient.
    """
    what = f"{family} level-{m} h"
    x = s
    for _ in range(e - 1):
        x = x * s
    if isinstance(x, BiCycloElem):  # the zeta_p rows 1..p-2 must vanish
        x = CycloElem(x.ring.cyclo, tuple(demote(
            zip(*x.mat), what, family=family, level=m, generator=gen)))
    acc = [x.ring.one()]
    for u in conj:
        t = x.galois_act(u)
        acc = [acc[0]] + [a + t * b for a, b in zip(acc[1:], acc)] \
            + [t * acc[-1]]
    return demote((a.coeffs for a in acc), what,
                  family=family, level=m, generator=gen)


def h_poly_tower(family: str, ell: int, q: int, n: int) -> dict:
    """Zeta numerator of the level-n curve of a tower, built level by level.

    Families over F_q (which must contain the l-th roots of unity):

    * "fermat": x^(l^n) + y^(l^n) + z^(l^n) = 0 (projective).
    * "artin-schreier": y^q - y = x^(l^n).

    Level m contributes h_m(y) = product over the Frobenius orbits
    (v -> q v) of fresh characters of (1 + S * y), with S the Jacobi
    (resp. Gauss, one per additive twist a in F_q^*) sum over F_{q^(k_m)},
    k_m the orbit size; the numerator is f_n(y) = prod_m h_m(y^(k_m)).

    The product over all orbits is never formed.  Frobenius (x q) is a
    unit of index c = phi(l^m)/k_m, so the Frobenius orbits in the unit
    orbit of v are those of g^i v, i < c (g = primitive_root(l, m)), and
    sigma_u maps J(chi^v1, chi^v2) to J(chi^(u v1), chi^(u v2)): each unit
    orbit gives the integer norm prod_(i<c) (1 + sigma_(g^i)(S) y) of the
    Jacobi sum S at its representative (`_generator_norm`).  A Gauss sum
    S = g(psi, chi^v) (one per unit orbit) has the twists g(psi_a, chi^v) =
    chi^v(a)^-1 S, a in F_q^*; with e the order of chi^v on F_q^* (odd)
    their factors multiply to (1 + S^e y^e)^((q-1)/e), and S^e lies in
    Z[zeta_{l^m}], fixed by Gal(Q(zeta_p)/Q) since F_p^* lies in F_q^*.
    The fresh-character count, the unit-orbit count, the orbit sizes (k_m
    for Frobenius, phi(l^m) for the units) and every degree are checked
    against the genus bookkeeping, else a hard error.  The counts have
    closed forms (Fermat: (l^m - 2) + (l^(m-1) - 1) unit orbits;
    Artin-Schreier: one), so a level whose estimated work passes
    NORM_WORK_CAP is refused before its orbit scans, the first allocation
    that grows with (l^m)^2.

    For levels m >= n1 = v_l(q - 1) the step from m to m + 1 is a
    degree-l field extension, and the per-orbit descent identities are
    re-verified through the same cores as the standalone checks; the rows
    are returned under "stabilization".
    """
    if family not in ("fermat", "artin-schreier"):
        raise InputError("family must be 'fermat' or 'artin-schreier'",
                         field="family")
    check_odd_prime(ell)
    p, f = prime_power_split(q)
    n1 = int_val(ell, q - 1)
    if n1 < 1:
        raise InputError(f"need {ell} | q - 1 (q = {q})", field="q")
    if n < 1:
        raise InputError("tower depth n must be >= 1", field="n")

    fields: dict[int, FqField] = {}

    def get_field(k: int) -> FqField:
        if k not in fields:
            fields[k] = field_build(p, f * k)
        return fields[k]

    levels = []
    frobenius = {}  # the Frobenius orbits of each level, for the rows below
    f_poly = [1]
    for m in range(1, n + 1):
        d = ell**m
        phi = d - d // ell
        k_m = mult_order(q, d)
        big = get_field(k_m)
        if family == "fermat":
            twists, e, char_sum = 1, 1, jacobi_sum
            want_fresh = (d - 1) * (d - 2)
            if m > 1:
                want_fresh -= (d // ell - 1) * (d // ell - 2)
            # unit orbits of the fresh pairs: (1, w), w != 0, -1, and
            # (w, 1), l | w != 0
            gens = (d - 2) + (d // ell - 1)
        else:
            # each unit orbit once per additive twist a
            twists, char_sum = q - 1, gauss_sum
            want_fresh = (q - 1) * phi
            # the order of chi_v, v a unit, on F_q^* = <G^((|big|-1)/(q-1))>
            e = d // math.gcd(d, (big.q - 1) // (q - 1))
            gens = 1
        share = twists // e
        # c(c+1)/2 multiplies of phi coefficients of c (b + 1) bits per
        # generator's norm, its roots of size 2^b = q^(e k_m / 2); by that
        # bound the product f_m of degree D packs D^2 (lg q / 2 + 1) bits.
        # The counts are the closed forms, so this runs before the scans.
        c, lg_q = phi // k_m, q.bit_length()
        deg_f = len(f_poly) - 1 + want_fresh
        need = (gens * c * (c + 1) // 2 * phi * c * (e * k_m * lg_q // 2 + 1)
                + deg_f * deg_f * (lg_q // 2 + 1))
        if need > NORM_WORK_CAP:
            raise GuardExceeded(
                f"{family} level {m}: {gens} norms over {c} conjugates and "
                f"f_{m} of degree {deg_f} need about {need} bits > "
                f"{NORM_WORK_CAP}",
                family=family, level=m, need=need, limit=NORM_WORK_CAP,
            )
        orbits = frobenius[m] = _fresh_orbits(family, ell, m, q)
        g = primitive_root(ell, m)
        units = _fresh_orbits(family, ell, m, g)
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
        if len(units) != gens:
            raise CheckFailed(
                f"level-{m} unit orbit count {len(units)} != expected {gens}",
                family=family, level=m, expected=gens, measured=len(units),
            )
        conj = [pow(g, i, d) for i in range(c)]
        norms = [1]
        for v, _ in units:
            norms = convolve(norms, _generator_norm(
                family, m, v, char_sum(big, ell, m, *v), e, conj))
        h_int = [1]
        while share:  # h_m(y^(1/e)) = norms^share, by squaring
            if share & 1:
                h_int = convolve(h_int, norms)
            share >>= 1
            if share:
                norms = convolve(norms, norms)
        h_int = stretch(h_int, e)
        if (len(h_int) - 1) * k_m != fresh:
            raise CheckFailed(
                f"level-{m} degree bookkeeping failed",
                family=family, level=m, expected=fresh,
                measured=(len(h_int) - 1) * k_m,
            )
        f_poly = convolve(f_poly, stretch(h_int, k_m))
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
            for (w1, w2), _ in frobenius[m + 1]:
                if _degenerate_jacobi(w1, w2, d_lo):
                    rows.append({"w": [w1, w2], "passed": None,
                                 "note": "degenerate at the lower level"})
                    continue
                rows.append(_coleman_jacobi_core(big, sub_q, ell, m, w1, w2))
            ok = all(r["passed"] for r in rows if r["passed"] is not None)
        else:
            for (v,), _ in frobenius[m + 1]:
                rows.append(_coleman_gauss_core(big, sub_q, ell, m, v))
            ok = _gauss_sign_status(rows)[0] == "pass"
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
