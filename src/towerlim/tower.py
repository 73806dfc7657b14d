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

from .cyclo import CycloElem, CycloRing, convolve
from .errors import CheckFailed, GuardExceeded, InputError
from .matfermat import poly_diff_val
from .matrices import (
    det_one_minus_y,
    mat_identity,
    mat_mul,
    mat_vec_mod,
    orbit,
    orbit_reps,
)
from .padic import check_odd_prime, int_val, min_val

# Residue vectors an orbit scan or the beta0 enumeration may visit.
ORBIT_CAP = 10**7


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
    spec = TowerSpec(ell, b, r, q, tuple(terms), n_max, prec, name)
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
    """Size of the orbit of v mod l^n under powers of Q, by `orbit`.

    Q = I mod l makes it a power of l (the matrix Fermat theorem); any
    other walked size is a CheckFailed naming level, rep and size.
    """
    members = orbit(spec.q_matrix, v, spec.ell**n, level=n)
    size = len(members)
    if spec.ell ** int_val(spec.ell, size) != size:
        raise CheckFailed(
            f"orbit size {size} at level {n} is not a power of {spec.ell}",
            level=n, rep=members[0], size=size,
        )
    return size


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
    if total > ORBIT_CAP:
        raise GuardExceeded(
            f"level {n} needs {total} residue vectors > orbit cap {ORBIT_CAP}",
            level=n, need=total, limit=ORBIT_CAP,
        )
    ell = spec.ell
    return orbit_reps(spec.q_matrix, mod, spec.b,
                      keep=lambda v: any(x % ell for x in v))


def matrix_log(m: Sequence[Sequence[int]], ell: int,
               work: int) -> list[list[int]]:
    """Residues mod l^work of log m = sum (-1)^(k+1) (m - I)^k / k.

    m is a b x b integer matrix with m = I mod l.  Each term is an exact
    integer division by the l-part of k and a modular inverse of its unit
    part; the series stops once k - log_l(k) >= work, past which every
    term vanishes mod l^work.
    """
    b = len(m)
    mod = ell**work
    bmat = [
        [(m[i][j] - (1 if i == j else 0)) for j in range(b)]
        for i in range(b)
    ]
    log_m = [[0] * b for _ in range(b)]
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
                log_m[i][j] = (
                    log_m[i][j] + sign * (entry // ell**vk) * uinv
                ) % mod
    return log_m


def orbit_params(spec: TowerSpec) -> OrbitParams:
    """(alpha, beta0, n0): the threshold data from the l-adic log of Q.

    alpha is the min entry valuation of log Q (from `matrix_log`); beta0 is
    the largest min-entry valuation of (log Q / l^alpha) v over primitive
    residue vectors, found by enumerating at increasing moduli until the
    value certifies itself (worst < modulus exponent).  n0 = alpha + beta0:
    congruence theorems apply from n >= n0.
    """
    ell, b = spec.ell, spec.b
    work = spec.prec + 6
    log_q = matrix_log(spec.q_matrix, ell, work)
    # entries are residues mod l^work: a nonzero one has valuation < work
    alpha = min_val(ell, (x for row in log_q for x in row))
    if alpha is None or alpha >= work - 2:
        raise InputError(
            "log Q vanishes to working precision; raise `precision` "
            "(Q is too close to the identity for this setting)"
        )
    x_mat = [[(log_q[i][j] // ell**alpha) % ell ** (work - alpha)
              for j in range(b)] for i in range(b)]
    beta0 = None
    for c in range(1, work - alpha):
        need = ell ** (c * b)
        if need > ORBIT_CAP:
            raise GuardExceeded(
                f"beta0 enumeration at modulus {ell}^{c} needs {need} residue "
                f"vectors > orbit cap {ORBIT_CAP}",
                level=c, need=need, limit=ORBIT_CAP,
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
        raise InputError(
            "orbit depth did not stabilize at working precision; "
            "raise `precision`"
        )
    n0 = alpha + beta0
    verified = None
    n = max(n0, 1)
    if n <= spec.n_max and ell ** (n * b) <= 100_000:
        sizes = [s for _, s in primitive_orbit_reps(spec, n)]
        if min(sizes) != ell ** max(0, n - n0):
            raise CheckFailed(
                f"orbit sizes at level {n} contradict n0 = {n0} "
                f"(min size {min(sizes)})",
                level=n, n0=n0, min_size=min(sizes),
            )
        verified = n
    return OrbitParams(alpha, beta0, n0, verified)


# -- twisted products and characteristic polynomials ----------------------


def build_ring(spec: TowerSpec, n: int) -> CycloRing:
    return CycloRing(spec.ell, n, spec.prec)


# Working-set ceiling for one group-ring array computation: the twisted
# product's or the aggregate's two arrays plus one temporary.  Past it the
# computation would thrash the host.
MAX_PRODUCT_BYTES = 1 << 30


def _group_ring_dtype(ring: CycloRing, weight: int):
    """int64 when every step sum provably fits, else Python ints.

    A step sums, per output entry, coefficients in [0, l^prec) times
    integers whose absolute values add up to at most `weight`, so its
    magnitude stays below (l^prec - 1) * weight.  The reduction `%= l^prec`
    needs l^prec itself in int64, hence a weight of at least 1.  Exact rings
    have no such bound.
    """
    if ring.qmod is None:
        return object
    return np.int64 if (ring.qmod - 1) * max(weight, 1) < 1 << 63 else object


def _product_dtype(spec: TowerSpec, ring: CycloRing):
    """The twisted product's dtype: one step weighs one column of the
    coefficient matrices, so the weight is the largest column sum of |F_t|
    over all terms t."""
    col = max(
        sum(abs(t.matrix[a][j]) for t in spec.f_terms for a in range(spec.r))
        for j in range(spec.r)
    )
    return _group_ring_dtype(ring, col)


def _aggregate_dtype(spec: TowerSpec, ring: CycloRing):
    """The aggregate's dtype: an entry of r_n sums at most (r+1) * phi
    products of two coefficients below l^prec."""
    return _group_ring_dtype(
        ring, (spec.r + 1) * ring.phi * ((ring.qmod or 1) - 1))


def _group_ring_bytes(ring: CycloRing, dtype, entries: int) -> int:
    """Estimated bytes of three arrays of `entries` entries each.

    An object entry is a pointer plus one int the size of the modulus
    (exact rings: a one-digit int, a lower bound).
    """
    item = 8 if dtype is np.int64 else 8 + sys.getsizeof(ring.qmod or 1)
    return 3 * entries * item


def _roll_add(out: np.ndarray, src: np.ndarray, t: int) -> None:
    """out += src rolled by t along axis 1, for 0 <= t < src.shape[1].

    In the group ring that is adding src times the group element z^t.
    """
    size = src.shape[1]
    out[:, t:] += src[:, :size - t]
    if t:
        out[:, :t] += src[:, size - t:]


def frobenius_product(
    spec: TowerSpec,
    n: int,
    v: Sequence[int],
    ring: Optional[CycloRing] = None,
) -> list[list[CycloElem]]:
    """A_n(v) = F(z^(Q^-1 v)) ... F(z^(Q^-k v)) over the level-n ring.

    k is the orbit size and Q^-i v = Q^(k-i) v: the factors follow the
    walk `orbit` backwards, taken once the memory guard has passed.
    The product is formed in the group ring (Z/l^prec)[C_{l^n}]: acc[i, :, j]
    holds the l^n exponent coefficients of entry (i, j).  A factor
    F(z^w) = sum_t M_t z^<e_t, w> multiplies in as acc times M_t, rolled
    by <e_t, w>, per term, summed and reduced mod l^prec.  The entries are
    folded to the power basis once, at the end.
    """
    if ring is None:
        ring = build_ring(spec, n)
    dtype = _product_dtype(spec, ring)
    need = _group_ring_bytes(ring, dtype, spec.r**2 * ring.order)
    if need > MAX_PRODUCT_BYTES:
        raise GuardExceeded(
            f"twisted product at level {n}, rep {tuple(v)} needs about "
            f"{need} bytes > {MAX_PRODUCT_BYTES}",
            level=n, rep=tuple(v), need=need, limit=MAX_PRODUCT_BYTES,
        )
    r, size, q = spec.r, ring.order, ring.qmod
    mats = [np.array(t.matrix, dtype=dtype) for t in spec.f_terms]
    acc = np.zeros((r, size, r), dtype=dtype)
    for i in range(r):
        acc[i, 0, i] = 1
    for w in reversed(orbit(spec.q_matrix, v, size, level=n)):
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


def _memo_p_poly(pieces: Optional[dict], spec: TowerSpec, n: int,
                 v: tuple, ring: CycloRing) -> tuple[CycloElem, ...]:
    """p_poly through a per-run memo keyed by (level, rep), when given."""
    if pieces is None:
        return p_poly(spec, n, v, ring)
    p = pieces.get((n, v))
    if p is None:
        p = pieces[(n, v)] = p_poly(spec, n, v, ring)
    return p


def p_poly(
    spec: TowerSpec,
    n: int,
    v: Sequence[int],
    ring: Optional[CycloRing] = None,
) -> tuple[CycloElem, ...]:
    """Ascending coefficients of p_{n,v}(y) = det(I - y A_n(v)) over
    Z[zeta_{l^n}] mod l^prec; the twisted product walks the orbit of v
    itself."""
    if ring is None:
        ring = build_ring(spec, n)
    a = frobenius_product(spec, n, v, ring)
    return tuple(det_one_minus_y(a, ring.one(), ring.zero()))


def r_poly(
    spec: TowerSpec,
    n: int,
    pieces: Optional[dict] = None,
) -> tuple[tuple[int, ...], dict]:
    """The aggregate polynomial r_n(y) with base-ring coefficients.

    Multiplies p_{n,v}(y^(k_n(v)/k_n)) over primitive orbit reps v, where
    k_n is the smallest orbit size at level n, then demotes coefficients to
    integers mod l^prec.  A non-rational coefficient means the Galois
    stability that makes r_n well-defined has failed: hard error.

    The running product lives in the group ring (Z/l^prec)[C_{l^n}]:
    acc[i] holds the l^n exponent coefficients of y^i.  Multiplying by
    p(y^s) adds, for each power-basis term x z^t of each coefficient c_j
    of p, x times acc rolled by t into the rows from j*s on, then reduces
    mod l^prec once.  The cost depends on the shapes and on the sparsity of
    the p_{n,v} only.  Each row is folded to the power basis once, at the
    end; Z[x]/(x^(l^n) - 1) -> Z[z] is a ring map, so that commutes with
    the products.

    Returns (coefficients, meta) where meta records k_n, the rep count, and
    per-rep orbit sizes.  `pieces`, when given, is a per-run memo of p_{n,v}
    keyed by (level, rep), read and filled here (scalar congruence rows
    reuse it).
    """
    reps = primitive_orbit_reps(spec, n)
    if not reps:
        raise InputError(f"no primitive orbits at level {n}")
    ring = build_ring(spec, n)
    k_n = min(s for _, s in reps)
    factors = []
    for v, size in reps:
        p = _memo_p_poly(pieces, spec, n, v, ring)
        s, rem = divmod(size, k_n)
        if rem:
            raise CheckFailed(
                f"orbit size {size} not divisible by k_n = {k_n} at level {n}",
                level=n, rep=tuple(v), size=size,
            )
        factors.append((p, s))
    degree = sum((len(c) - 1) * s for c, s in factors)
    dtype = _aggregate_dtype(spec, ring)
    need = _group_ring_bytes(ring, dtype, (degree + 1) * ring.order)
    if need > MAX_PRODUCT_BYTES:
        raise GuardExceeded(
            f"aggregate r_{n} at level {n} has degree {degree} and needs "
            f"about {need} bytes > {MAX_PRODUCT_BYTES}",
            level=n, degree=degree, need=need, limit=MAX_PRODUCT_BYTES,
        )
    q = ring.qmod
    acc = np.zeros((1, ring.order), dtype=dtype)
    acc[0, 0] = 1
    for coeffs, s in factors:
        rows = acc.shape[0]
        new = np.zeros((rows + (len(coeffs) - 1) * s, ring.order), dtype=dtype)
        for j, c in enumerate(coeffs):
            out = new[j * s: j * s + rows]
            for t, x in enumerate(c.coeffs):
                if x:
                    _roll_add(out, x * acc, t)
        if q is not None:
            new %= q
        acc = new
    ints = []
    for i, row in enumerate(acc):
        c = ring._fold_top(row.tolist())
        if any(c[1:]):
            raise CheckFailed(
                f"r_{n} coefficient {i} is not in the base ring; "
                "Galois stability violated",
                level=n, coefficient=i,
            )
        ints.append(c[0])
    meta = {
        "level": n,
        "k_n": k_n,
        "num_orbits": len(reps),
        "orbit_sizes": sorted({s for _, s in reps}),
        "degree": len(ints) - 1,
    }
    return tuple(ints), meta


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
    params: Optional[OrbitParams] = None,
    pieces: Optional[dict] = None,
) -> list[CongruenceRow]:
    """Per-orbit charpoly congruences p_{n+1,v} = p_{n,v} mod k_{n+1}.

    Only defined for scalar Q (the statement needs the twist to act by a
    scalar); refuses other twists.  For each level-n primitive orbit rep v,
    n = 1..n_max-1, compares p_{n+1,v} against the embedded p_{n,v}; the
    guaranteed depth is v_l(k_{n+1}(v)) once n >= n0, and rows below the
    threshold are marked rather than judged.

    Each p_{n,v} is computed once: `pieces` is the (level, rep) memo that
    `r_poly` fills, and without one a fresh memo still carries row n's
    level-(n+1) polynomials into row n+1.
    """
    if not spec.is_scalar_q():
        raise InputError("scalar congruence mode requires a scalar twist Q")
    if params is None:
        params = orbit_params(spec)
    if pieces is None:
        pieces = {}
    rows = []
    for n in range(1, spec.n_max):
        ring_lo = build_ring(spec, n)
        ring_hi = build_ring(spec, n + 1)
        for v, size in primitive_orbit_reps(spec, n):
            size_hi = orbit_order(spec, n + 1, v)
            p_lo = _memo_p_poly(pieces, spec, n, v, ring_lo)
            p_hi = _memo_p_poly(pieces, spec, n + 1, v, ring_hi)
            required = int_val(spec.ell, size_hi) if size_hi > 1 else 0
            # both coefficient lists, spread over the ring basis
            measured, sat = poly_diff_val(
                [x for c in p_hi for x in c.coeffs],
                [x for c in p_lo for x in c.embed_up().coeffs],
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
    params: Optional[OrbitParams] = None,
    r_cache: Optional[dict] = None,
) -> list[CongruenceRow]:
    """Aggregate congruences r_{n+1} = r_n^(l^(b-1)) mod l^n, per level
    n = 1..n_max-1.

    The guaranteed depth is n (n*b for scalar twists) once n >= n0; below
    the threshold the degrees need not even match and the row is marked
    below-threshold with the raw measurement included.
    """
    if params is None:
        params = orbit_params(spec)
    scalar = spec.is_scalar_q()
    mod = spec.ell**spec.prec
    polys: dict[int, tuple[tuple[int, ...], dict]] = {}
    if r_cache is not None:
        polys.update(r_cache)
    rows = []
    for n in range(1, spec.n_max):
        for level in (n, n + 1):
            if level not in polys:
                polys[level] = r_poly(spec, level)
        (r_lo, meta_lo), (r_hi, meta_hi) = polys[n], polys[n + 1]
        power = r_lo
        for _ in range(spec.b - 1):  # power = r_lo^(l^(b-1)) mod l^prec
            base = power
            for _ in range(spec.ell - 1):
                power = [x % mod for x in convolve(power, base)]
        measured, sat = poly_diff_val(r_hi, power, spec.ell, spec.prec)
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


# -- character-sum explorer ----------------------------------------------


def qsum_rows(
    spec: TowerSpec,
    lam: Sequence[int],
    v: Sequence[int],
    n_lo: int,
    n_hi: int,
    emit_products: bool = False,
) -> dict:
    """Exact orbit character sums S_n = sum_i zeta^(<lam, Q^i v>) by level,
    over the walk `orbit` (the same multiset as the Q^-i v).

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
        members = orbit(spec.q_matrix, v, spec.ell**n, level=n)
        k = len(members)
        s = ring.from_exponent_counts(
            (sum(a * x for a, x in zip(lam, w)), 1) for w in members
        )
        sval = min_val(spec.ell, s.coeffs)
        rows.append({
            "n": n,
            "k_n": k,
            "sum_is_zero": sval is None,
            "valuation": sval,
            "status": "measured-only",
        })
        if emit_products:
            a = frobenius_product(spec, n, v, ring)[0][0]
            entry = {"n": n, "k_n": k,
                     "coeffs": [str(c) for c in a.coeffs]}
            if prev_prod is not None:
                dval = min_val(spec.ell, (a - prev_prod.embed_up()).coeffs)
                entry["diff_from_previous"] = (
                    {"exactly_zero": True} if dval is None
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
