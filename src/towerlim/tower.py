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
from typing import Optional, Sequence

import numpy as np

from .cyclo import CycloElem, CycloRing, convolve, demote, stretch
from .errors import CheckFailed, GuardExceeded, InputError
from .matfermat import poly_diff_val
from .matrices import (
    Orbits,
    det_one_minus_y,
    mat_identity,
    mat_mul,
    orbit,
    orbit_reps,
)
from .padic import check_odd_prime, int_val, min_val, primitive_root

# Residue vectors an orbit scan may visit (and qsum exponents per level).
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
    for field, x in (("b", b), ("r", r), ("n_max", n_max), ("prec", prec)):
        if field == "prec" and x is None:
            continue
        if type(x) is not int or x < 1:  # a bool is not an int here
            raise InputError(f"{field} must be an integer >= 1, got {x!r}",
                             field=field)
    q = _check_int_matrix(q_matrix, b, "Q")
    for i in range(b):
        for j in range(b):
            want = 1 if i == j else 0
            if (q[i][j] - want) % ell != 0:
                raise InputError(
                    f"Q must be congruent to the identity mod {ell}; "
                    f"entry Q[{i}][{j}] = {q[i][j]} violates that", field="Q",
                )
    if all(q[i][j] == (1 if i == j else 0) for i in range(b) for j in range(b)):
        raise InputError("Q must differ from the identity (infinite order)",
                         field="Q")
    if not f_terms:
        raise InputError("F needs at least one term", field="F")
    terms = []
    seen_exps = set()
    for idx, (exps, mat) in enumerate(f_terms):
        label = f"F[{idx}].exponents"
        e = _check_ints(exps, label, label)
        if len(e) != b:
            raise InputError(f"{label} must have length b = {b}", field=label)
        if any(x < 0 for x in e):
            raise InputError(f"{label} must be nonnegative", field=label)
        if e in seen_exps:
            raise InputError(f"F[{idx}] repeats exponents {e}", field=label)
        seen_exps.add(e)
        terms.append(FTerm(e, _check_int_matrix(mat, r, f"F[{idx}].matrix")))
    if prec is None:
        prec = b * n_max + 6
    if prec < n_max + 1:
        raise InputError(
            f"precision {prec} is below n_max + 1 = {n_max + 1}; "
            "congruence depths could not be certified", field="precision",
        )
    spec = TowerSpec(ell, b, r, q, tuple(terms), n_max, prec, name)
    if spec.is_scalar_q() and prec < b * (n_max - 1):
        raise InputError(
            f"precision {prec} is below b*(n_max - 1) = {b * (n_max - 1)}, "
            "the depth the last general congruence row must show for a "
            "scalar Q", field="precision",
        )
    return spec


def _check_int_matrix(m, size: int, label: str) -> tuple[tuple[int, ...], ...]:
    rows = list(m)
    if len(rows) != size:
        raise InputError(f"{label} must be {size}x{size}, got {len(rows)} rows",
                         field=label)
    out = []
    for i, row in enumerate(rows):
        row = list(row)
        if len(row) != size:
            raise InputError(
                f"{label}[{i}] must have {size} entries, got {len(row)}",
                field=label,
            )
        out.append(_check_ints(row, f"{label}[{i}]", label))
    return tuple(out)


def _check_ints(xs, label: str, field: str) -> tuple[int, ...]:
    """xs as a tuple; InputError naming `label` and the index of the first
    entry that is not an int (a bool is not one), with context `field`."""
    out = tuple(xs)
    for j, x in enumerate(out):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"{label}[{j}] must be an integer", field=field)
    return out


# -- orbit structure ------------------------------------------------------


@dataclass(frozen=True)
class OrbitParams:
    alpha: int
    beta0: int
    n0: int


def primitive_orbit_reps(spec: TowerSpec, n: int) -> Orbits:
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
    bmat = [[m[i][j] - (i == j) for j in range(b)] for i in range(b)]
    log_m = [[0] * b for _ in range(b)]
    power = mat_identity(b, 1, 0)
    k = 1
    while k < work or ell ** (k - work) < k:
        power = [[x % (mod * ell**work) for x in row]
                 for row in mat_mul(power, bmat)]
        lk = ell ** int_val(ell, k)  # divides every entry of (m - I)^k
        coef = (-1) ** (k + 1) * pow(k // lk, -1, mod)
        log_m = [[(y + x // lk * coef) % mod for x, y in zip(prow, lrow)]
                 for prow, lrow in zip(power, log_m)]
        k += 1
    return log_m


def orbit_params(spec: TowerSpec) -> OrbitParams:
    """(alpha, beta0, n0): the threshold data from the l-adic log of Q.

    alpha is the min entry valuation of log Q (from `matrix_log`).  beta0,
    the largest valuation of X v over primitive v, X = log Q / l^alpha, is
    X's largest elementary-divisor valuation (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4.4): v_l(det X) -
    min_val(adj X), adj X = +-sum_(k<b) a_k X^(b-1-k) by Cayley-Hamilton
    from det(I - yX) = sum a_k y^k.  A det X vanishing mod l^(work - alpha),
    where X is known, is refused.  n0 = alpha + beta0: congruence theorems
    apply from n >= n0.
    """
    ell, b = spec.ell, spec.b
    work = spec.prec + 6
    log_q = matrix_log(spec.q_matrix, ell, work)
    # entries are residues mod l^work: a nonzero one has valuation < work
    alpha = min_val(ell, (x for row in log_q for x in row))
    if alpha is None or alpha >= work - 2:
        raise InputError(
            "log Q vanishes to working precision; raise `precision` "
            "(Q is too close to the identity for this setting)",
            field="precision",
        )
    mod = ell ** (work - alpha)
    x_mat = [[x // ell**alpha % mod for x in row] for row in log_q]
    coeffs = det_one_minus_y(x_mat, 1, 0)
    det_val = min_val(ell, [coeffs[b] % mod])
    if det_val is None:
        raise InputError(
            "orbit depth did not stabilize at working precision: "
            f"det(log Q / {ell}^{alpha}) vanishes mod {ell}^{work - alpha} "
            "(Q fixes a primitive direction, or raise `precision`)",
            field="Q",
        )
    adj = mat_identity(b, 1, 0)  # Horner: adj = adj X + a_k I, k = 1..b-1
    for a in coeffs[1:b]:
        adj = [[(x + a * (i == j)) % mod for j, x in enumerate(row)]
               for i, row in enumerate(mat_mul(adj, x_mat))]
    beta0 = det_val - min_val(ell, (x for row in adj for x in row))
    return OrbitParams(alpha, beta0, alpha + beta0)


def check_orbit_threshold(spec: TowerSpec, params: OrbitParams,
                          polys: dict) -> Optional[int]:
    """Check every level's k_n against l^max(0, n - n0), which it is:
    v_l(Q^k v - v) = v_l(k) + alpha + v_l(X v) exactly for odd l, with
    X = log Q / l^alpha.

    `polys` is r_poly's (coefficients, meta) by level, cached or fresh; a
    k_n off that law is a CheckFailed naming level, n0 and k_n.  Returns
    max(n0, 1), the level the report names as verified, if the run
    reaches it, else None.
    """
    for n, (_, meta) in sorted(polys.items()):
        want = spec.ell ** max(0, n - params.n0)
        if meta["k_n"] != want:
            raise CheckFailed(
                f"level {n} has k_n = {meta['k_n']}, but n0 = {params.n0} "
                f"makes it {want}",
                level=n, n0=params.n0, k_n=meta["k_n"],
            )
    return max(params.n0, 1) if params.n0 <= spec.n_max else None


# -- twisted products and characteristic polynomials ----------------------


def build_ring(spec: TowerSpec, n: int) -> CycloRing:
    return CycloRing(spec.ell, n, spec.prec)


# Working-set ceiling for one group-ring array computation: the twisted
# product's or a class norm's two arrays plus one temporary.  Past it the
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
    """The class norms' dtype: one step of a norm sums, per entry, at most
    (r+1) * phi products of two coefficients below l^prec."""
    return _group_ring_dtype(ring, (spec.r + 1) * ring.phi * (ring.qmod - 1))


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


def frobenius_product(spec: TowerSpec, n: int, v: Sequence[int],
                      ring: CycloRing) -> list[list[CycloElem]]:
    """A_n(v) = F(z^(Q^-1 v)) ... F(z^(Q^-k v)) over the level-n ring.

    k is the orbit size and Q^-i v = Q^(k-i) v: the factors follow the
    walk `orbit` backwards, taken once the memory guard has passed.
    The product is formed in the group ring (Z/l^prec)[C_{l^n}]: acc[i, :, j]
    holds the l^n exponent coefficients of entry (i, j).  A factor
    F(z^w) = sum_t M_t z^<e_t, w> multiplies in as acc times M_t, rolled
    by <e_t, w>, per term, summed and reduced mod l^prec.  The entries are
    folded to the power basis once, at the end.  `ring` is the level-n
    ring: mod l^prec for p_poly, exact for qsum_rows.
    """
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


def p_poly(spec: TowerSpec, n: int,
           v: Sequence[int]) -> tuple[CycloElem, ...]:
    """Ascending coefficients of p_{n,v}(y) = det(I - y A_n(v)) over
    Z[zeta_{l^n}] mod l^prec; the twisted product walks the orbit of v
    itself."""
    ring = build_ring(spec, n)
    a = frobenius_product(spec, n, v, ring)
    return tuple(det_one_minus_y(a, ring.one(), ring.zero()))


@dataclass(frozen=True)
class LevelPieces:
    """What a run reads of one level, built once by `level_pieces`: its one
    orbit scan (an `Orbits`), k_n, the unit classes (each a tuple of member
    reps, its own rep first) and every p_{n,v} by rep."""

    reps: Orbits
    k_n: int
    classes: tuple
    polys: dict

    def work(self) -> dict:
        """Reps, classes, and the charpolys computed directly: one per
        class, one more per class of two or more orbits."""
        return {"reps": len(self.reps), "classes": len(self.classes),
                "direct_charpolys": sum(1 + (len(c) > 1)
                                        for c in self.classes)}


def _galois(p: tuple[CycloElem, ...], a: int) -> tuple[CycloElem, ...]:
    return tuple(c.galois_act(a) for c in p)


def _check_transport(n: int, rep: tuple, member: tuple, unit: int,
                     want: tuple, got: tuple, what: str) -> None:
    """CheckFailed at the first coefficient where got differs from want."""
    for j, (x, y) in enumerate(zip(want, got)):
        if x != y:
            raise CheckFailed(
                f"{what} at level {n}, rep {rep}, member {member}, unit "
                f"{unit}: coefficient {j} differs; Galois transport violated",
                level=n, rep=rep, member=member, unit=unit, coefficient=j,
            )


def level_pieces(spec: TowerSpec, n: int) -> LevelPieces:
    """The record of level n: its one orbit scan, k_n, the unit classes and
    every p_{n,v} by Galois transport, with a direct check per class.

    The scan is `primitive_orbit_reps(spec, n)`; an empty one is an
    InputError.  Q = I mod l makes every orbit size a power of l (the
    matrix Fermat theorem), so k_n, the least, divides them all; any other
    size is a CheckFailed naming level, rep and size, before any charpoly.

    The units a mod l^n act on primitive vectors and commute with Q, so
    they permute the <Q>-orbits, and A_n(a v) = sigma_a(A_n(v)) because F
    has integer coefficients: the orbit of a v is a times the orbit of v,
    and a cyclic rotation of the product leaves its charpoly unchanged.  So
    p_{n,u} = sigma_a(p_{n,v}) exactly whenever u's orbit is a v's.  With
    g the least primitive root mod l^n, a class walks g^i v by `orbit` from
    its lex-least rep v and looks each point's orbit up in the scan's
    labels, until g^c v is back in the orbit of v: its c orbits are those
    of v, g v, ..., g^(c-1) v.  p_{n,v} is computed directly and the other
    members transported.

    Two checks per class, always on; a mismatch is a CheckFailed naming
    level, rep, member, unit and coefficient:

    * stabiliser: g^c v lies in the orbit of v, so sigma_(g^c)(p_{n,v})
      must equal p_{n,v} (no twisted product; it is also what puts the
      class norm in the base ring);
    * direct: with c >= 2, p at the rep u of g v is computed directly too
      and must equal sigma_g(p_{n,v}).
    """
    reps = primitive_orbit_reps(spec, n)
    if not reps:
        raise InputError(f"no primitive orbits at level {n}")
    for v, size in reps:
        if spec.ell ** int_val(spec.ell, size) != size:
            raise CheckFailed(
                f"level {n} orbit size {size} is not a power of {spec.ell}",
                level=n, rep=v, size=size,
            )
    mod = spec.ell**n
    g = primitive_root(spec.ell, n)
    g_mat = [[g if i == j else 0 for j in range(spec.b)]
             for i in range(spec.b)]
    polys = {}
    classes = []
    for v, _ in reps:
        if v in polys:
            continue
        members = []  # (orbit rep, unit) of v, g v, ..., g^(c-1) v
        unit = 1
        for w in orbit(g_mat, v, mod, level=n):
            u = reps[reps.orbit_of(w)][0]
            if members and u == v:
                break
            members.append((u, unit))
            unit = unit * g % mod
        p = p_poly(spec, n, v)
        _check_transport(n, v, v, unit, p, _galois(p, unit),
                         "stabiliser check")
        polys[v] = p
        for u, a in members[1:]:
            polys[u] = _galois(p, a)
        if len(members) > 1:
            u = members[1][0]
            _check_transport(n, v, u, g, polys[u], p_poly(spec, n, u),
                             "direct check")
        classes.append(tuple(u for u, _ in members))
    return LevelPieces(reps, min(s for _, s in reps), tuple(classes), polys)


def r_poly(spec: TowerSpec, n: int,
           pieces: dict) -> tuple[tuple[int, ...], dict]:
    """The aggregate r_n(y) = prod over primitive orbit reps v of
    p_{n,v}(y^(k_n(v)/k_n)), as the product of its integer class norms.

    The c members of the unit class C of v share v's orbit size, so C
    contributes N_C(y^s), s = k_n(v)/k_n, where N_C, the product of the
    members' p_{n,u}, is prod_(i<c) sigma_(g^i)(p_{n,v}): the stabiliser
    check makes sigma_g fix it, so it lies in the base ring.  N_C is formed
    in the group ring (Z/l^prec)[C_{l^n}], acc[i] holding the l^n exponent
    coefficients of y^i: each power-basis term x z^t of each coefficient
    c_j of a member adds x times acc rolled by t into the rows from j on,
    reduced mod l^prec once per member.  Each row is folded to the power
    basis at the end (Z[x]/(x^(l^n) - 1) -> Z[z] is a ring map), demoted to
    an integer, and N_C(y^s) multiplied into r_n by `convolve` mod l^prec.
    A norm off the base ring is a CheckFailed naming level, the class rep
    and the coefficient, whatever the class checks passed; a norm whose
    c*r + 1 rows would pass MAX_PRODUCT_BYTES is a GuardExceeded naming
    level, rep, degree, need and limit, before it is formed.

    Returns (coefficients, meta), meta recording k_n, the rep count and the
    orbit sizes.  `pieces` is the run's memo of `LevelPieces` by level: a
    level in it is read; otherwise `level_pieces` fills it here.
    """
    if n not in pieces:
        pieces[n] = level_pieces(spec, n)
    level = pieces[n]
    ring = build_ring(spec, n)
    dtype = _aggregate_dtype(spec, ring)
    q = ring.qmod
    sizes = dict(level.reps)
    r_n = [1]
    for members in level.classes:
        v = members[0]
        degree = len(members) * spec.r
        need = _group_ring_bytes(ring, dtype, (degree + 1) * ring.order)
        if need > MAX_PRODUCT_BYTES:
            raise GuardExceeded(
                f"class norm of rep {v} at level {n} has degree {degree} "
                f"and needs about {need} bytes > {MAX_PRODUCT_BYTES}",
                level=n, rep=v, degree=degree, need=need,
                limit=MAX_PRODUCT_BYTES,
            )
        acc = np.zeros((1, ring.order), dtype=dtype)
        acc[0, 0] = 1
        for u in members:
            coeffs = level.polys[u]
            rows = acc.shape[0]
            new = np.zeros((rows + len(coeffs) - 1, ring.order), dtype=dtype)
            for j, c in enumerate(coeffs):
                out = new[j: j + rows]
                for t, x in enumerate(c.coeffs):
                    if x:
                        _roll_add(out, x * acc, t)
            new %= q
            acc = new
        norm = demote((ring._fold_top(row.tolist()) for row in acc),
                      f"class norm of rep {v} at level {n}", level=n, rep=v)
        r_n = [x % q for x in
               convolve(r_n, stretch(norm, sizes[v] // level.k_n))]
    meta = {
        "level": n,
        "k_n": level.k_n,
        "num_orbits": len(level.reps),
        "orbit_sizes": sorted(set(sizes.values())),
        "degree": len(r_n) - 1,
    }
    return tuple(r_n), meta


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


def check_scalar_twist(spec: TowerSpec) -> None:
    """InputError unless Q is a scalar matrix, which scalar mode needs."""
    if not spec.is_scalar_q():
        raise InputError("scalar congruence mode requires a scalar twist Q")


def scalar_congruence_rows(spec: TowerSpec, params: OrbitParams,
                           pieces: dict) -> list[CongruenceRow]:
    """Per-orbit charpoly congruences p_{n+1,v} = p_{n,v} mod k_{n+1}.

    Only defined for scalar Q (the statement needs the twist to act by a
    scalar); refuses other twists.  For each level-n primitive orbit rep v,
    n = 1..n_max-1, compares p_{n+1,v} against the embedded p_{n,v}; the
    guaranteed depth is v_l(k_{n+1}(v)) once n >= n0, and rows below the
    threshold are marked rather than judged.

    `pieces` is the run's memo of `LevelPieces` by level that `r_poly`
    fills; a level whose aggregate came from the cache is filled here.  A
    level-n rep v is also a level-(n+1) rep: each member of its
    level-(n+1) orbit is entrywise at least its reduction mod l^n, a
    member of the level-n orbit, which is at least v in lex order.  Its
    level-(n+1) size is read from that level's scan.
    """
    check_scalar_twist(spec)
    for n in range(1, spec.n_max + 1):
        if n not in pieces:
            pieces[n] = level_pieces(spec, n)
    rows = []
    for n in range(1, spec.n_max):
        lo, hi = pieces[n], pieces[n + 1]
        for v, size in lo.reps:
            size_hi = hi.reps[hi.reps.orbit_of(v)][1]
            required = int_val(spec.ell, size_hi) if size_hi > 1 else 0
            # both coefficient lists, spread over the ring basis
            measured, sat = poly_diff_val(
                [x for c in hi.polys[v] for x in c.coeffs],
                [x for c in lo.polys[v] for x in c.embed_up().coeffs],
                spec.ell, spec.prec,
            )
            rows.append(
                CongruenceRow(
                    "scalar", n, v, size, size_hi, required, measured, sat,
                    _status(n, params.n0, measured, sat, required),
                )
            )
    return rows


def general_congruence_rows(spec: TowerSpec, params: OrbitParams,
                            polys: dict) -> list[CongruenceRow]:
    """Aggregate congruences r_{n+1} = r_n^(l^(b-1)) mod l^n, per level
    n = 1..n_max-1, from `polys`: r_poly's (coefficients, meta) for every
    level 1..n_max.

    The guaranteed depth is n (n*b for scalar twists) once n >= n0; below
    the threshold the degrees need not even match and the row is marked
    below-threshold with the raw measurement included.
    """
    scalar = spec.is_scalar_q()
    mod = spec.ell**spec.prec
    rows = []
    for n in range(1, spec.n_max):
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
    reported as such.  Each level's work and memory grow like l^n, so a
    range reaching l^n > ORBIT_CAP is refused before any level runs.  With
    `emit_products` (r = 1 only), also emits the twisted products A_n(v)
    themselves and the valuation of consecutive differences
    A_{n+1} - embed(A_n).
    """
    if len(lam) != spec.b or len(v) != spec.b:
        raise InputError("lambda and v must each have length b")
    if n_lo < 1 or n_lo > n_hi:
        raise InputError("need 1 <= n_lo <= n_hi")
    if emit_products and spec.r != 1:
        raise InputError("product emission requires r = 1")
    size = 1  # l^n, formed only until it passes the cap
    for n in range(1, n_hi + 1):
        size *= spec.ell
        if size > ORBIT_CAP:
            level = max(n, n_lo)
            raise GuardExceeded(
                f"level {level} needs {spec.ell}^{level} exponents > orbit "
                f"cap {ORBIT_CAP}",
                level=level, limit=ORBIT_CAP,
            )
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
