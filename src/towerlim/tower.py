"""Twisted matrix products along an l-power tower and their congruences.

Setup: an odd prime l, a twist matrix Q (b x b over Z, Q = I mod l, of
infinite order), and a matrix-valued Laurent-free polynomial F in b
variables with r x r integer coefficient matrices.  At level n the residue
vector v mod l^n has an orbit v, Qv, Q^2 v, ... of some l-power size
k_n(v), and the twisted product

    A_n(v) = F(z^(Q^-1 v)) F(z^(Q^-2 v)) ... F(z^(Q^-k v)),   k = k_n(v),

lives over Z[z], z = zeta_{l^n}, where z^w means substituting the monomial
exponents through the dot product with w.  The objects computed here:

* p_{n,v}(y) = det(I - y A_n(v)), a charpoly over the cyclotomic ring;
* r_n(y) = prod over primitive orbit reps of p_{n,v}(y^(k_n(v)/k_n)),
  which collapses to base-ring (integer) coefficients;
* congruence measurements between consecutive levels, whose guaranteed
  depth kicks in at the orbit threshold n0 = alpha + beta0 derived from
  the l-adic logarithm of Q.

Everything is exact modulo l^precision; valuations saturate at precision.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .cyclo import CycloElem, CycloRing, ell_divisibility
from .errors import CheckFailed, GuardExceeded, InputError
from .matfermat import poly_diff_val, traces_from_det
from .matrices import (
    det_one_minus_y,
    inverse_orbit,
    mat_identity,
    mat_mul,
    mat_pow_mod,
    mat_vec_mod,
    orbit_reps,
    poly_mul,
)
from .padic import PadicFloat, check_odd_prime, int_val, int_val_capped

DEFAULT_ORBIT_CAP = 10**7


@dataclass(frozen=True)
class FTerm:
    """One monomial of F: coefficient matrix times t1^e1 ... tb^eb."""

    exponents: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TowerSpec:
    ell: int
    b: int
    r: int
    q_matrix: tuple[tuple[int, ...], ...]
    f_terms: tuple[FTerm, ...]
    n_max: int
    prec: int
    orbit_cap: int = DEFAULT_ORBIT_CAP
    name: str = ""

    def digest(self) -> str:
        """Digest of the whole spec; reports carry it."""
        return json_digest({**self._content(), "n_max": self.n_max})

    def level_digest(self) -> str:
        """Digest of what r_n depends on: the spec without n_max.

        Cache entries are keyed on it, so a configured precision reuses
        levels across n_max values.
        """
        return json_digest(self._content())

    def _content(self) -> dict:
        return {
            "format": 1,
            "ell": self.ell,
            "b": self.b,
            "r": self.r,
            "Q": [list(row) for row in self.q_matrix],
            "F": [
                {"exponents": list(t.exponents),
                 "matrix": [list(row) for row in t.matrix]}
                for t in self.f_terms
            ],
            "precision": self.prec,
        }

    def is_scalar_q(self) -> bool:
        q = self.q_matrix
        d = q[0][0]
        return all(
            q[i][j] == (d if i == j else 0)
            for i in range(self.b)
            for j in range(self.b)
        )


def json_digest(payload: dict) -> str:
    """SHA-256 of the canonical JSON of a payload."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def make_tower_spec(
    ell: int,
    b: int,
    r: int,
    q_matrix: Sequence[Sequence[int]],
    f_terms: Sequence[tuple[Sequence[int], Sequence[Sequence[int]]]],
    n_max: int,
    prec: Optional[int] = None,
    orbit_cap: int = DEFAULT_ORBIT_CAP,
    name: str = "",
) -> TowerSpec:
    """Validate raw data and freeze it into a :class:`TowerSpec`."""
    check_odd_prime(ell)
    if b < 1:
        raise InputError(f"b must be >= 1, got {b}")
    if r < 1:
        raise InputError(f"r must be >= 1, got {r}")
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    q = _check_int_matrix(q_matrix, b, "Q")
    for i in range(b):
        for j in range(b):
            want = 1 if i == j else 0
            if (q[i][j] - want) % ell != 0:
                raise InputError(
                    f"Q must be congruent to the identity mod {ell}; "
                    f"entry Q[{i}][{j}] = {q[i][j]} violates that"
                )
    if all(q[i][j] == (1 if i == j else 0) for i in range(b) for j in range(b)):
        raise InputError("Q must differ from the identity (infinite order)")
    if not f_terms:
        raise InputError("F needs at least one term")
    terms = []
    seen_exps = set()
    for idx, (exps, mat) in enumerate(f_terms):
        e = tuple(int(x) for x in exps)
        if len(e) != b:
            raise InputError(f"F[{idx}].exponents must have length b = {b}")
        if any(x < 0 for x in e):
            raise InputError(f"F[{idx}].exponents must be nonnegative")
        if e in seen_exps:
            raise InputError(f"F[{idx}] repeats exponents {e}")
        seen_exps.add(e)
        terms.append(FTerm(e, _check_int_matrix(mat, r, f"F[{idx}].matrix")))
    if prec is None:
        prec = b * n_max + 6
    if prec < n_max + 1:
        raise InputError(
            f"precision {prec} is below n_max + 1 = {n_max + 1}; "
            "congruence depths could not be certified"
        )
    if orbit_cap < 1000:
        raise InputError("orbit_cap must be >= 1000")
    spec = TowerSpec(ell, b, r, q, tuple(terms), n_max, prec, orbit_cap, name)
    if spec.is_scalar_q() and prec < b * (n_max - 1):
        raise InputError(
            f"precision {prec} is below b*(n_max - 1) = {b * (n_max - 1)}, "
            "the depth the last general congruence row must show for a "
            "scalar Q"
        )
    return spec


def _check_int_matrix(m, size: int, label: str) -> tuple[tuple[int, ...], ...]:
    rows = list(m)
    if len(rows) != size:
        raise InputError(f"{label} must be {size}x{size}, got {len(rows)} rows")
    out = []
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != size:
            raise InputError(
                f"{label}[{i}] must have {size} entries, got {len(row)}"
            )
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputError(f"{label}[{i}][{j}] must be an integer")
        out.append(tuple(row))
    return tuple(out)


# -- orbit structure ------------------------------------------------------


@dataclass(frozen=True)
class OrbitParams:
    alpha: int
    beta0: int
    n0: int
    verified_level: Optional[int]  # level where sizes were cross-checked


def orbit_order(spec: TowerSpec, n: int, v: Sequence[int]) -> int:
    """Size of the orbit of v mod l^n under powers of Q (an l-power).

    Tests Q^(l^t) v = v for t = 0, 1, ...; the first fixing power is the
    orbit size because the stabilizer of a cyclic l-group action is the
    subgroup of index (orbit size).
    """
    if n == 0:
        return 1
    mod = spec.ell**n
    v = tuple(x % mod for x in v)
    qp = [[x % mod for x in row] for row in spec.q_matrix]
    k = 1
    for _ in range(n * spec.b + 4):
        if mat_vec_mod(qp, v, mod) == v:
            return k
        qp = mat_pow_mod(qp, spec.ell, mod)
        k *= spec.ell
    raise CheckFailed("orbit order did not resolve (impossible for Q = I mod l)")


def primitive_orbit_reps(
    spec: TowerSpec, n: int
) -> list[tuple[tuple[int, ...], int]]:
    """Lex-first representatives of primitive orbits mod l^n, with sizes.

    Primitive means not all coordinates divisible by l.  Scanning residue
    vectors in ascending lex order and walking each unseen orbit yields the
    lex-least member as the representative, deterministically.
    """
    if n < 1:
        raise InputError("orbit enumeration needs n >= 1")
    mod = spec.ell**n
    total = mod**spec.b
    if total > spec.orbit_cap:
        raise GuardExceeded(
            f"level {n} needs {total} residue vectors > orbit cap {spec.orbit_cap}"
        )
    ell = spec.ell
    return orbit_reps(spec.q_matrix, mod, spec.b,
                      keep=lambda v: any(x % ell for x in v))


def orbit_params(spec: TowerSpec) -> OrbitParams:
    """(alpha, beta0, n0): the threshold data from the l-adic log of Q.

    alpha is the min entry valuation of log Q (computed by the exact series
    with tracked divisions); beta0 is the largest min-entry valuation of
    (log Q / l^alpha) v over primitive residue vectors, found by enumerating
    at increasing moduli until the value certifies itself (worst < modulus
    exponent).  n0 = alpha + beta0: congruence theorems apply from n >= n0.
    """
    ell, b = spec.ell, spec.b
    work = spec.prec + 6
    mod = ell**work
    bmat = [
        [(spec.q_matrix[i][j] - (1 if i == j else 0)) for j in range(b)]
        for i in range(b)
    ]
    log_q = [[0] * b for _ in range(b)]
    power = mat_identity(b, 1, 0)
    k = 0
    while True:
        k += 1
        if k >= work and ell ** (k - work) >= k:
            break
        power = mat_mul(power, bmat)
        power = [[x % (mod * ell**work) for x in row] for row in power]
        vk = int_val(ell, k) if k % ell == 0 else 0
        unit = k // ell**vk
        uinv = pow(unit, -1, mod)
        sign = 1 if k % 2 == 1 else -1
        for i in range(b):
            for j in range(b):
                entry = power[i][j]
                assert entry % ell**vk == 0
                log_q[i][j] = (
                    log_q[i][j] + sign * (entry // ell**vk) * uinv
                ) % mod
    alpha = min(
        int_val_capped(ell, log_q[i][j], work) for i in range(b) for j in range(b)
    )
    if alpha >= work - 2:
        raise InputError(
            "log Q vanishes to working precision; raise `precision` "
            "(Q is too close to the identity for this setting)"
        )
    x_mat = [[(log_q[i][j] // ell**alpha) % ell ** (work - alpha)
              for j in range(b)] for i in range(b)]
    beta0 = None
    for c in range(1, work - alpha):
        if ell ** (c * b) > spec.orbit_cap:
            raise GuardExceeded(
                f"beta0 enumeration at modulus {ell}^{c} exceeds the orbit cap"
            )
        mc = ell**c
        xm = [[x % mc for x in row] for row in x_mat]
        worst = 0
        for v in product(range(mc), repeat=b):
            if all(x % ell == 0 for x in v):
                continue
            w = mat_vec_mod(xm, v, mc)
            wv = min(int_val_capped(ell, x, c) for x in w)
            if wv > worst:
                worst = wv
        if worst < c:
            beta0 = worst
            break
    if beta0 is None:
        raise InputError(
            "orbit depth did not stabilize at working precision; "
            "raise `precision`"
        )
    n0 = alpha + beta0
    verified = None
    for n in range(max(n0, 1), spec.n_max + 1):
        if ell ** (n * b) > min(spec.orbit_cap, 100_000):
            break
        sizes = [s for _, s in primitive_orbit_reps(spec, n)]
        if min(sizes) != ell ** max(0, n - n0):
            raise CheckFailed(
                f"orbit sizes at level {n} contradict n0 = {n0} "
                f"(min size {min(sizes)})"
            )
        verified = n
        break
    return OrbitParams(alpha, beta0, n0, verified)


# -- twisted products and characteristic polynomials ----------------------


@dataclass(frozen=True)
class CharPoly:
    """Ascending coefficients of det(I - y*A); level 0 means integers."""

    ell: int
    level: int
    prec: Optional[int]
    coeffs: tuple

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def embed_up(self) -> "CharPoly":
        if self.level == 0:
            raise InputError("base-ring polynomial has no embedding step")
        return CharPoly(
            self.ell, self.level + 1, self.prec,
            tuple(c.embed_up() for c in self.coeffs),
        )

    def as_record(self) -> dict:
        if self.level == 0:
            coeffs = [str(c) for c in self.coeffs]
        else:
            coeffs = [[str(x) for x in c.coeffs] for c in self.coeffs]
        return {
            "ell": self.ell,
            "level": self.level,
            "precision": self.prec,
            "coeffs": coeffs,
        }


def build_ring(spec: TowerSpec, n: int, exact: bool = False) -> CycloRing:
    return CycloRing(spec.ell, n, None if exact else spec.prec)


# Working-set ceiling for one twisted product: the acc, new and rolled
# r x r x l^n arrays together.  Past it the product would thrash the host.
MAX_PRODUCT_BYTES = 1 << 30


def _product_dtype(spec: TowerSpec, ring: CycloRing):
    """int64 when one multiply step provably fits, else Python ints.

    A step sums, per output entry, acc coefficients in [0, l^prec) times
    one column of the coefficient matrices, so its magnitude stays below
    (l^prec - 1) * (largest column sum of |F_t| over all terms t).
    Exact rings have no such bound.
    """
    if ring.qmod is None:
        return object
    col = max(
        sum(abs(t.matrix[a][j]) for t in spec.f_terms for a in range(spec.r))
        for j in range(spec.r)
    )
    return np.int64 if (ring.qmod - 1) * col < 1 << 63 else object


def _product_bytes(spec: TowerSpec, ring: CycloRing, dtype) -> int:
    """Estimated bytes of the acc, new and rolled arrays.

    An object entry is a pointer plus one int the size of the modulus
    (exact rings: a one-digit int, a lower bound).
    """
    item = 8 if dtype is np.int64 else 8 + sys.getsizeof(ring.qmod or 1)
    return 3 * spec.r**2 * ring.order * item


def frobenius_product(
    spec: TowerSpec,
    n: int,
    v: Sequence[int],
    ring: Optional[CycloRing] = None,
    k: Optional[int] = None,
) -> list[list[CycloElem]]:
    """A_n(v) = F(z^(Q^-1 v)) ... F(z^(Q^-k v)) over the level-n ring.

    The product is formed in the group ring (Z/l^prec)[C_{l^n}]: acc[i, :, j]
    holds the l^n exponent coefficients of entry (i, j).  A factor
    F(z^w) = sum_t M_t z^<e_t, w> multiplies in as one roll of acc by
    <e_t, w> per term, times M_t, summed and reduced mod l^prec.  The
    entries are folded to the power basis once, at the end.
    """
    if ring is None:
        ring = build_ring(spec, n)
    if k is None:
        k = orbit_order(spec, n, v)
    dtype = _product_dtype(spec, ring)
    need = _product_bytes(spec, ring, dtype)
    if need > MAX_PRODUCT_BYTES:
        raise GuardExceeded(
            f"twisted product at level {n}, rep {tuple(v)} needs about "
            f"{need} bytes > {MAX_PRODUCT_BYTES}"
        )
    r, size, q = spec.r, ring.order, ring.qmod
    mats = [np.array(t.matrix, dtype=dtype) for t in spec.f_terms]
    acc = np.zeros((r, size, r), dtype=dtype)
    for i in range(r):
        acc[i, 0, i] = 1
    for w in inverse_orbit(spec.q_matrix, v, size, k):
        new = np.zeros_like(acc)
        for term, m in zip(spec.f_terms, mats):
            d = sum(e * x for e, x in zip(term.exponents, w))
            new += np.roll(acc, d % size, axis=1) @ m
        if q is not None:
            new %= q
        acc = new
    return [
        [CycloElem(ring, tuple(ring._fold_top(acc[i, :, j].tolist())))
         for j in range(r)]
        for i in range(r)
    ]


def _memo_p_poly(pieces: Optional[dict], spec: TowerSpec, n: int,
                 v: tuple, ring: CycloRing, k: int) -> "CharPoly":
    """p_poly through a per-run memo keyed by (level, rep), when given."""
    if pieces is None:
        return p_poly(spec, n, v, ring, k)
    p = pieces.get((n, v))
    if p is None:
        p = pieces[(n, v)] = p_poly(spec, n, v, ring, k)
    return p


def p_poly(
    spec: TowerSpec,
    n: int,
    v: Sequence[int],
    ring: Optional[CycloRing] = None,
    k: Optional[int] = None,
) -> CharPoly:
    """p_{n,v}(y) = det(I - y A_n(v)) over Z[zeta_{l^n}] mod l^prec."""
    if ring is None:
        ring = build_ring(spec, n)
    a = frobenius_product(spec, n, v, ring, k)
    coeffs = det_one_minus_y(a, ring.one(), ring.zero())
    return CharPoly(spec.ell, n, ring.prec, tuple(coeffs))


def r_poly(
    spec: TowerSpec,
    n: int,
    reps: Optional[list] = None,
    pieces: Optional[dict] = None,
) -> tuple[CharPoly, dict]:
    """The aggregate polynomial r_n(y) with base-ring coefficients.

    Multiplies p_{n,v}(y^(k_n(v)/k_n)) over primitive orbit reps v, where
    k_n is the smallest orbit size at level n, then demotes coefficients to
    integers mod l^prec.  A non-rational coefficient means the Galois
    stability that makes r_n well-defined has failed: hard error.

    Returns (polynomial, meta) where meta records k_n, the rep count, and
    per-rep orbit sizes.  `pieces`, when given, is a per-run memo of p_{n,v}
    keyed by (level, rep), read and filled here (scalar congruence rows
    reuse it).
    """
    if reps is None:
        reps = primitive_orbit_reps(spec, n)
    if not reps:
        raise InputError(f"no primitive orbits at level {n}")
    ring = build_ring(spec, n)
    k_n = min(s for _, s in reps)
    poly: list = [ring.one()]
    for v, size in reps:
        p = _memo_p_poly(pieces, spec, n, v, ring, size)
        s, rem = divmod(size, k_n)
        if rem:
            raise CheckFailed(
                f"orbit size {size} not divisible by k_n = {k_n} at level {n}"
            )
        poly = poly_mul(poly, p.coeffs, ring.zero(), s)
    ints = []
    for i, c in enumerate(poly):
        if any(x % (ring.qmod or 0) != 0 if ring.qmod else x != 0
               for x in c.coeffs[1:]):
            raise CheckFailed(
                f"r_{n} coefficient {i} is not in the base ring; "
                "Galois stability violated"
            )
        ints.append(c.coeffs[0] % ring.qmod if ring.qmod else c.coeffs[0])
    meta = {
        "level": n,
        "k_n": k_n,
        "num_orbits": len(reps),
        "orbit_sizes": sorted({s for _, s in reps}),
        "degree": len(ints) - 1,
    }
    return CharPoly(spec.ell, 0, spec.prec, tuple(ints)), meta


# -- congruence reports ---------------------------------------------------


@dataclass(frozen=True)
class CongruenceRow:
    """One measured comparison between consecutive tower levels."""

    mode: str                       # "scalar" | "general"
    n: int
    rep: Optional[tuple]            # orbit rep (scalar rows); None for general
    k_lo: int
    k_hi: int
    required: int
    measured: int
    saturated: bool                 # difference vanished to working precision
    status: str                     # "pass" | "fail" | "below-threshold"

    def as_record(self) -> dict:
        rec = {
            "mode": self.mode,
            "n": self.n,
            "k_n": self.k_lo,
            "k_n_plus_1": self.k_hi,
            "required": self.required,
            "measured": self.measured,
            "saturated": self.saturated,
            "status": self.status,
        }
        if self.rep is not None:
            rec["rep"] = list(self.rep)
        return rec


def _status(n: int, n0: int, measured: int, saturated: bool, required: int) -> str:
    if n < n0:
        return "below-threshold"
    if measured >= required or saturated:
        return "pass"
    return "fail"


def scalar_congruence_rows(
    spec: TowerSpec,
    n_lo: int = 1,
    n_hi: Optional[int] = None,
    params: Optional[OrbitParams] = None,
    pieces: Optional[dict] = None,
) -> list[CongruenceRow]:
    """Per-orbit charpoly congruences p_{n+1,v} = p_{n,v} mod k_{n+1}.

    Only defined for scalar Q (the statement needs the twist to act by a
    scalar); refuses other twists.  For each level-n primitive orbit rep v,
    compares p_{n+1,v} against the embedded p_{n,v}; the guaranteed depth is
    v_l(k_{n+1}(v)) once n >= n0, and rows below the threshold are marked
    rather than judged.

    Each p_{n,v} is computed once: `pieces` is the (level, rep) memo that
    `r_poly` fills, and without one a fresh memo still carries row n's
    level-(n+1) polynomials into row n+1.
    """
    if not spec.is_scalar_q():
        raise InputError("scalar congruence mode requires a scalar twist Q")
    if n_hi is None:
        n_hi = spec.n_max - 1
    if n_lo < 1 or n_hi + 1 > spec.n_max:
        raise InputError("level range must fit within 1..n_max")
    if params is None:
        params = orbit_params(spec)
    if pieces is None:
        pieces = {}
    rows = []
    for n in range(n_lo, n_hi + 1):
        ring_lo = build_ring(spec, n)
        ring_hi = build_ring(spec, n + 1)
        for v, size in primitive_orbit_reps(spec, n):
            size_hi = orbit_order(spec, n + 1, v)
            p_lo = _memo_p_poly(pieces, spec, n, v, ring_lo, size)
            p_hi = _memo_p_poly(pieces, spec, n + 1, v, ring_hi, size_hi)
            required = int_val(spec.ell, size_hi) if size_hi > 1 else 0
            # both coefficient lists, spread over the ring basis
            measured, sat = poly_diff_val(
                [x for c in p_hi.coeffs for x in c.coeffs],
                [x for c in p_lo.embed_up().coeffs for x in c.coeffs],
                spec.ell, spec.prec,
            )
            rows.append(
                CongruenceRow(
                    "scalar", n, v, size, size_hi, required, measured, sat,
                    _status(n, params.n0, measured, sat, required),
                )
            )
    return rows


def general_congruence_rows(
    spec: TowerSpec,
    n_lo: int = 1,
    n_hi: Optional[int] = None,
    params: Optional[OrbitParams] = None,
    r_cache: Optional[dict] = None,
) -> list[CongruenceRow]:
    """Aggregate congruences r_{n+1} = r_n^(l^(b-1)) mod l^n, per level.

    The guaranteed depth is n (n*b for scalar twists) once n >= n0; below
    the threshold the degrees need not even match and the row is marked
    below-threshold with the raw measurement included.
    """
    if n_hi is None:
        n_hi = spec.n_max - 1
    if n_lo < 1 or n_hi + 1 > spec.n_max:
        raise InputError("level range must fit within 1..n_max")
    if params is None:
        params = orbit_params(spec)
    scalar = spec.is_scalar_q()
    mod = spec.ell**spec.prec
    polys: dict[int, tuple[CharPoly, dict]] = {}
    if r_cache is not None:
        polys.update(r_cache)
    rows = []
    for n in range(n_lo, n_hi + 1):
        for level in (n, n + 1):
            if level not in polys:
                polys[level] = r_poly(spec, level)
        (r_lo, meta_lo), (r_hi, meta_hi) = polys[n], polys[n + 1]
        power = list(r_lo.coeffs)
        for _ in range(spec.b - 1):  # power = r_lo^(l^(b-1)) mod l^prec
            base = power
            for _ in range(spec.ell - 1):
                power = [x % mod for x in poly_mul(power, base, 0)]
        measured, sat = poly_diff_val(r_hi.coeffs, power, spec.ell,
                                      spec.prec)
        required = n * spec.b if scalar else n
        rows.append(
            CongruenceRow(
                "general", n, None, meta_lo["k_n"], meta_hi["k_n"],
                required, measured, sat,
                _status(n, params.n0, measured, sat, required),
            )
        )
    if r_cache is not None:
        r_cache.update(polys)
    return rows


# -- l-adic limit estimation (log/exp route) ------------------------------


def _serialize_lfloat(x: PadicFloat) -> dict:
    if x.is_zero():
        return {"zero_to": x.zero_prec}
    return {"exp": x.e, "unit": str(x.unit), "rel_prec": x.rel}


DEFAULT_LIMIT_DEGREE = 16


def caseB_limit_estimate(
    spec: TowerSpec,
    n_lo: int,
    n_hi: int,
    degree: Optional[int] = None,
) -> dict:
    """Watch log r_n / l^((n-n0)(b-1)) converge coefficient-wise.

    For each level the log series of r_n is produced by the division-free
    power-sum recurrence (the only divisions are by the term index d and the
    normalizing l-power, both tracked through l-adic floats).  The report
    tabulates the valuation of consecutive differences per degree (a Cauchy
    table), then exponentiates the last level back and flags any coefficient
    that is non-integral or out of precision.  Measured output only: no
    theorem verdict is attached.
    """
    if n_lo < 1 or n_hi > spec.n_max or n_lo >= n_hi:
        raise InputError("need 1 <= n_lo < n_hi <= n_max")
    params = orbit_params(spec)
    ell = spec.ell
    series: dict[int, list[PadicFloat]] = {}
    degrees = []
    for n in range(n_lo, n_hi + 1):
        rp, _meta = r_poly(spec, n)
        degrees.append(rp.degree)
        cap = DEFAULT_LIMIT_DEGREE if degree is None else degree
        d_max = min(cap, rp.degree)
        traces = [t % ell**spec.prec
                  for t in traces_from_det(rp.coeffs, d_max)]
        norm = max(0, n - params.n0) * (spec.b - 1)
        coeffs = []
        for d in range(1, d_max + 1):
            base = PadicFloat.from_residue(ell, spec.prec, -traces[d - 1])
            coeffs.append(base.divide_int(d * ell**norm))
        series[n] = coeffs
    d_common = min(len(series[n]) for n in series)
    cauchy = []
    for n in range(n_lo, n_hi):
        row = []
        for d in range(d_common):
            delta = series[n + 1][d] - series[n][d]
            if delta.is_zero():
                row.append({"zero_to": delta.zero_prec})
            else:
                row.append({"val": delta.e})
        cauchy.append({"n": n, "n_next": n + 1, "coeff_diffs": row})
    last = series[n_hi]
    limit_coeffs: list[dict] = [{"exp": 0, "unit": "1", "rel_prec": spec.prec}]
    flags = []
    recovered: list[PadicFloat] = [
        PadicFloat.from_residue(ell, spec.prec, 1)
    ]
    for d in range(1, len(last) + 1):
        acc = None
        for i in range(1, d + 1):
            term = (last[i - 1] * i) * recovered[d - i]
            acc = term if acc is None else acc + term
        cd = acc.divide_int(d)
        recovered.append(cd)
        limit_coeffs.append(_serialize_lfloat(cd))
        if not cd.is_zero() and cd.e < 0:
            flags.append({"degree": d, "issue": "non-integral"})
        elif not cd.is_zero() and cd.rel <= 0:
            flags.append({"degree": d, "issue": "precision-exhausted"})
    return {
        "mode": "limit-estimate",
        "n_range": [n_lo, n_hi],
        "orbit": {"alpha": params.alpha, "beta0": params.beta0,
                  "n0": params.n0},
        "normalizer_exponent": (spec.b - 1),
        "log_coeffs": {
            str(n): [_serialize_lfloat(x) for x in series[n]]
            for n in sorted(series)
        },
        "cauchy_table": cauchy,
        "limit_poly": limit_coeffs,
        "flags": flags,
        "degrees": degrees,
    }


# -- character-sum explorer ----------------------------------------------


def qsum_rows(
    spec: TowerSpec,
    lam: Sequence[int],
    v: Sequence[int],
    n_lo: int,
    n_hi: int,
    emit_products: bool = False,
) -> dict:
    """Exact orbit character sums S_n = sum_i zeta^(<lam, Q^-i v>) by level.

    Uses exact integer cyclotomic arithmetic (no precision cap), reporting
    the coefficient-wise l-divisibility of each sum; an exactly-zero sum is
    reported as such.  With `emit_products` (r = 1 only), also emits the
    twisted products A_n(v) themselves and the valuation of consecutive
    differences A_{n+1} - embed(A_n).
    """
    if len(lam) != spec.b or len(v) != spec.b:
        raise InputError("lambda and v must each have length b")
    if n_lo < 1 or n_lo > n_hi:
        raise InputError("need 1 <= n_lo <= n_hi")
    if emit_products and spec.r != 1:
        raise InputError("product emission requires r = 1")
    rows = []
    products = []
    prev_prod = None
    for n in range(n_lo, n_hi + 1):
        ring = CycloRing(spec.ell, n, None)
        k = orbit_order(spec, n, v)
        s = ring.from_exponent_counts(
            (sum(a * x for a, x in zip(lam, w)), 1)
            for w in inverse_orbit(spec.q_matrix, v, spec.ell**n, k)
        )
        sval, sat = ell_divisibility(s)
        rows.append({
            "n": n,
            "k_n": k,
            "sum_is_zero": bool(sat),
            "valuation": None if sat else sval,
            "status": "measured-only",
        })
        if emit_products:
            a = frobenius_product(spec, n, v, ring, k)[0][0]
            entry = {"n": n, "k_n": k,
                     "coeffs": [str(c) for c in a.coeffs]}
            if prev_prod is not None:
                diff = a - prev_prod.embed_up()
                dval, dsat = ell_divisibility(diff)
                entry["diff_from_previous"] = (
                    {"exactly_zero": True} if dsat
                    else {"valuation": dval}
                )
            products.append(entry)
            prev_prod = a
    out = {
        "lambda": list(lam),
        "v": list(v),
        "rows": rows,
    }
    if emit_products:
        out["products"] = products
    return out
