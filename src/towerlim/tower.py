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

from .cyclo import (CycloElem, CycloRing, convolve, norm, norm_bytes,
                    stretch)
from .errors import CheckFailed, GuardExceeded, InputError
from .matfermat import poly_diff_val
from .matrices import (
    SLAB,
    Orbits,
    det_one_minus_y,
    mat_identity,
    mat_mul,
    mat_step,
    orbit,
    orbit_reps,
    power,
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
    """Validate raw data and freeze it into a :class:`TowerSpec`: the one
    check of each tower value; every refusal's `field` is the config key."""
    check_odd_prime(ell)
    for field, x in (("b", b), ("r", r), ("n_max", n_max)):
        check_count(field, x)
    if prec is not None:
        check_count("precision", prec)
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
    if not _is_list(f_terms) or not f_terms:
        raise InputError("F needs at least one term", field="F")
    terms = []
    seen_exps = set()
    for idx, term in enumerate(f_terms):
        if not _is_list(term) or len(term) != 2:
            raise InputError(f"F[{idx}] must be an (exponents, matrix) pair",
                             field=f"F[{idx}]")
        exps, mat = term
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


def check_count(field: str, x) -> None:
    """The rule for b, r, n_max and precision: an int >= 1."""
    if type(x) is not int or x < 1:  # a bool is not an int here
        raise InputError(f"{field} must be an integer >= 1, got {x!r}",
                         field=field)


def _is_list(x) -> bool:
    return isinstance(x, (list, tuple))


def _check_int_matrix(m, size: int, label: str) -> tuple[tuple[int, ...], ...]:
    if not _is_list(m) or len(m) != size:
        raise InputError(f"{label} must be a list of {size} rows", field=label)
    out = []
    for i, row in enumerate(m):
        if not _is_list(row) or len(row) != size:
            raise InputError(f"{label}[{i}] must be a list of {size} integers",
                             field=label)
        out.append(_check_ints(row, f"{label}[{i}]", label))
    return tuple(out)


def _check_ints(xs, label: str, field: str) -> tuple[int, ...]:
    """xs as a tuple; InputError naming `label` (and the index of the first
    entry that is not an int, a bool not being one), with context `field`."""
    if not _is_list(xs):
        raise InputError(f"{label} must be a list of integers", field=field)
    for j, x in enumerate(xs):
        if not isinstance(x, int) or isinstance(x, bool):
            raise InputError(f"{label}[{j}] must be an integer", field=field)
    return tuple(xs)


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
        raise InputError("orbit enumeration needs n >= 1", field="n")
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


def _q_orbit(spec: TowerSpec, n: int, v: Sequence[int]) -> list:
    """The orbit of v mod l^n under Q: v reduced, Q v, Q^2 v, ...,
    walked by `orbit`, which names level n and v if it does not close."""
    mod = spec.ell**n
    return orbit(mat_step(spec.q_matrix, mod), tuple(x % mod for x in v),
                 mod**spec.b, level=n)


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
    bpow = mat_identity(b, 1, 0)
    k = 1
    while k < work or ell ** (k - work) < k:
        bpow = [[x % (mod * ell**work) for x in row]
                for row in mat_mul(bpow, bmat)]
        lk = ell ** int_val(ell, k)  # divides every entry of (m - I)^k
        coef = (-1) ** (k + 1) * pow(k // lk, -1, mod)
        log_m = [[(y + x // lk * coef) % mod for x, y in zip(prow, lrow)]
                 for prow, lrow in zip(bpow, log_m)]
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


# Working-set ceiling for one product: the twisted product's two group-ring
# arrays plus one temporary, or a class norm's largest `convolve`.  Past it
# the computation would thrash the host.  Batches of products are chunked
# to SLAB entries an array, so a batch never needs more than its largest
# product or a chunk.
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


def _group_ring_bytes(ring: CycloRing, dtype, entries: int) -> int:
    """Estimated bytes of three arrays of `entries` entries each.

    An object entry is a pointer plus one int the size of the modulus
    (exact rings: a one-digit int, a lower bound).
    """
    item = 8 if dtype is np.int64 else 8 + sys.getsizeof(ring.qmod or 1)
    return 3 * entries * item


def _guarded_dtype(spec: TowerSpec, n: int, v: Sequence[int],
                   ring: CycloRing):
    """The product dtype, once one product's working set is known to fit
    MAX_PRODUCT_BYTES; a GuardExceeded naming level n and rep v if not."""
    dtype = _product_dtype(spec, ring)
    need = _group_ring_bytes(ring, dtype, spec.r**2 * ring.order)
    if need > MAX_PRODUCT_BYTES:
        raise GuardExceeded(
            f"twisted product at level {n}, rep {tuple(v)} needs about "
            f"{need} bytes > {MAX_PRODUCT_BYTES}",
            level=n, rep=tuple(v), need=need, limit=MAX_PRODUCT_BYTES,
        )
    return dtype


def _exponents(spec: TowerSpec, size: int, points: np.ndarray) -> np.ndarray:
    """<e_t, w> mod `size` for every point w of `points`, an int64 array
    (P, k, b) of P walks of k points each, in one pass: shape (k, T, P),
    T the number of terms of F."""
    exps = np.array([t.exponents for t in spec.f_terms], dtype=object)
    exps = (exps % size).astype(np.int64)  # products below b * size^2
    return (points @ exps.T % size).transpose(1, 2, 0)


def _twisted_products(spec: TowerSpec, ring: CycloRing, dtype,
                      dots: np.ndarray) -> list[list[list[CycloElem]]]:
    """The P twisted products whose walks have the exponents `dots`
    (`_exponents`), stepped together.

    A_n(v) = F(z^(Q^-1 v)) ... F(z^(Q^-k v)), and Q^-i v = Q^(k-i) v: the
    factors follow each walk backwards.  The products are formed side by
    side in the group ring (Z/l^prec)[C_{l^n}]: acc[i, p l^n + j, c] holds
    the coefficient of z^j in entry (i, c) of product p.  A step
    multiplies in F(z^w) = sum_t M_t z^<e_t, w> as one matmul acc @ M_t
    per term, each rolled, product p by its own d_(p,t) = <e_t, w>, by one
    flat `np.take` at index p l^n + (j - d_(p,t)) mod l^n; the terms are
    summed and reduced mod l^prec.  The indices are read off a table of
    p l^n + (x mod l^n), x < 2 l^n, so a step divides nothing but the
    reduction.  The entries are folded to the power basis once, at the
    end.  `ring` is the level-n ring: mod l^prec for the charpolys, exact
    for qsum_rows.
    """
    r, size, q = spec.r, ring.order, ring.qmod
    count = dots.shape[2]
    mats = [np.array(t.matrix, dtype=dtype) for t in spec.f_terms]
    acc = np.zeros((r, count * size, r), dtype=dtype)
    for i in range(r):
        acc[i, ::size, i] = 1
    # product p rolled by d reads table[start_p - d + j] at its entry j
    table = (np.arange(count)[:, None] * size
             + np.arange(2 * size) % size).ravel()
    start = np.arange(size, 2 * count * size, 2 * size)
    j = np.arange(size)
    for step in dots[::-1]:
        new = None
        for m, d in zip(mats, step):
            idx = table.take((start - d)[:, None] + j).ravel()
            rolled = np.take(acc @ m, idx, axis=1)
            if new is None:
                new = rolled
            else:
                new += rolled
        if q is not None:
            new %= q
        acc = new
    flat = acc.reshape(r, count, size, r).transpose(1, 0, 3, 2).tolist()
    return [[[CycloElem(ring, tuple(ring._fold_top(x))) for x in row]
             for row in prod] for prod in flat]


def frobenius_product(spec: TowerSpec, n: int, v: Sequence[int],
                      ring: CycloRing) -> list[list[CycloElem]]:
    """A_n(v) = F(z^(Q^-1 v)) ... F(z^(Q^-k v)) over the level-n ring, k
    the orbit size: the batch of one of `_twisted_products`, on the walk
    of v that `_q_orbit` takes once the memory guard has passed."""
    dtype = _guarded_dtype(spec, n, v, ring)
    walk = np.array([_q_orbit(spec, n, v)], dtype=np.int64)
    return _twisted_products(spec, ring, dtype,
                             _exponents(spec, ring.order, walk))[0]


def p_poly(spec: TowerSpec, n: int,
           v: Sequence[int]) -> tuple[CycloElem, ...]:
    """Ascending coefficients of p_{n,v}(y) = det(I - y A_n(v)) over
    Z[zeta_{l^n}] mod l^prec; the twisted product walks the orbit of v
    itself."""
    ring = build_ring(spec, n)
    a = frobenius_product(spec, n, v, ring)
    return tuple(det_one_minus_y(a, ring.one(), ring.zero()))


def p_polys(spec: TowerSpec, n: int, reps: Orbits,
            vs: Sequence[tuple]) -> tuple[dict, int]:
    """p_{n,v} for each orbit rep v in `vs` of the level-n scan `reps`,
    and the numpy steps their products took.

    Products of one orbit size k step together in `_twisted_products`, in
    chunks of at most SLAB group-ring entries an array and at least one
    product; each chunk takes k steps.  Each walk is `Orbits.walk`, read
    from the scan's successor table, and a chunk's exponents come from its
    walked indices in one pass.  The memory guard, the same for every
    product of the level, names vs[0].
    """
    ring = build_ring(spec, n)
    dtype = _guarded_dtype(spec, n, vs[0], ring)
    size, b = ring.order, spec.b
    places = np.array([size ** (b - 1 - j) for j in range(b)], dtype=np.int64)
    per_chunk = max(1, SLAB // (spec.r**2 * size))
    sizes = dict(reps)
    by_size: dict = {}
    for v in vs:
        by_size.setdefault(sizes[v], []).append(v)
    polys, steps = {}, 0
    for k, group in by_size.items():
        for start in range(0, len(group), per_chunk):
            chunk = group[start:start + per_chunk]
            walks = np.array([reps.walk(v, level=n) for v in chunk],
                             dtype=np.int64)
            points = walks[:, :, None] // places % size
            products = _twisted_products(spec, ring, dtype,
                                         _exponents(spec, size, points))
            for v, a in zip(chunk, products):
                polys[v] = tuple(det_one_minus_y(a, ring.one(), ring.zero()))
            steps += k
    return polys, steps


@dataclass(frozen=True)
class LevelPieces:
    """What a run reads of one level, built once by `level_pieces`: its one
    orbit scan (an `Orbits`), k_n, the unit classes (each a tuple of member
    reps, its own rep first), p_{n,v} by rep as far as computed or read,
    each rep's (class rep, unit a): p_{n,u} = sigma_a(p_{n,v}), and the
    numpy steps its twisted products took (`p_polys`)."""

    reps: Orbits
    k_n: int
    classes: tuple
    polys: dict
    units: dict
    product_steps: int

    def charpoly(self, u: tuple) -> tuple[CycloElem, ...]:
        """p_{n,u} for the rep u, transported from its class rep's on
        first read."""
        p = self.polys.get(u)
        if p is None:
            v, a = self.units[u]
            p = self.polys[u] = _galois(self.polys[v], a)
        return p

    def work(self) -> dict:
        """Reps, classes, the charpolys computed directly (one per class,
        one more per class of two or more orbits) and the numpy steps
        their products took."""
        return {"reps": len(self.reps), "classes": len(self.classes),
                "direct_charpolys": sum(1 + (len(c) > 1)
                                        for c in self.classes),
                "product_steps": self.product_steps}


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
    the p_{n,v} of each class rep, with a direct check per class; every
    other p_{n,u} is a Galois transport, made when it is first read.

    The scan is `primitive_orbit_reps(spec, n)`, never empty (e_1 is
    primitive).  Q = I mod l makes every orbit size a power of l (the
    matrix Fermat theorem), so k_n, the least, divides them all; any other
    size is a CheckFailed naming level, rep and size, before any charpoly.

    The units a mod l^n act on primitive vectors and commute with Q, so
    they permute the <Q>-orbits, and A_n(a v) = sigma_a(A_n(v)) because F
    has integer coefficients: the orbit of a v is a times the orbit of v,
    and a cyclic rotation of the product leaves its charpoly unchanged.  So
    p_{n,u} = sigma_a(p_{n,v}) exactly whenever u's orbit is a v's.  With
    g the least primitive root mod l^n, the classes are the scan's
    `Orbits.classes` under g (a scalar, so it commutes with Q): the class
    of its lex-least rep v holds the orbits of v, g v, ..., g^(c-1) v, and
    g^c stabilises the orbit of v.

    Then p_{n,v} of every class rep, and of each direct check's member, is
    computed by `p_polys`, batched by orbit size; each other member's unit
    is recorded for `LevelPieces.charpoly`.  Two checks per class, always
    on; a mismatch is a CheckFailed naming level, rep, member, unit and
    coefficient:

    * stabiliser: g^c v lies in the orbit of v, so sigma_(g^c)(p_{n,v})
      must equal p_{n,v} (no twisted product; it is also what puts the
      class norm in the base ring);
    * direct: with c >= 2, p at the rep u of g v is computed directly too
      and must equal sigma_g(p_{n,v}).
    """
    reps = primitive_orbit_reps(spec, n)
    for v, size in reps:
        if spec.ell ** int_val(spec.ell, size) != size:
            raise CheckFailed(
                f"level {n} orbit size {size} is not a power of {spec.ell}",
                level=n, rep=v, size=size,
            )
    mod = spec.ell**n
    g = primitive_root(spec.ell, n)
    classes = reps.classes(g, level=n)
    # rep u -> (class rep v, unit a), p_{n,u} = sigma_a(p_{n,v})
    units = {u: (members[0], pow(g, i, mod))
             for members in classes for i, u in enumerate(members)}
    direct = [c[0] for c in classes] + [c[1] for c in classes if len(c) > 1]
    computed, steps = p_polys(spec, n, reps, direct)
    polys = {}
    for members in classes:
        v = members[0]
        p = polys[v] = computed[v]
        stab = pow(g, len(members), mod)
        _check_transport(n, v, v, stab, p, _galois(p, stab),
                         "stabiliser check")
        if len(members) > 1:
            u = members[1]
            polys[u] = _galois(p, g)
            _check_transport(n, v, u, g, polys[u], computed[u],
                             "direct check")
    return LevelPieces(reps, min(s for _, s in reps), classes, polys, units,
                       steps)


def r_poly(spec: TowerSpec, n: int,
           pieces: dict) -> tuple[tuple[int, ...], dict]:
    """The aggregate r_n(y) = prod over primitive orbit reps v of
    p_{n,v}(y^(k_n(v)/k_n)), as the product of its integer class norms.

    The c members of the unit class C of v share v's orbit size, so C
    contributes N_C(y^s), s = k_n(v)/k_n, where N_C, the product of the
    members' p_{n,u}, is prod_(i<c) sigma_(g^i)(p_{n,v}): the norm of
    p_{n,v}, which the stabiliser check puts in the fixed field of
    sigma_(g^c), down to Q, formed from p_{n,v} alone by `cyclo.norm` mod
    l^prec, whose CheckFailed names level, the class rep and the
    coefficient, whatever the class checks passed.  A class whose largest
    `convolve` would pass MAX_PRODUCT_BYTES (`cyclo.norm_bytes`) is a
    GuardExceeded naming level, rep, degree c*r, need and limit, before
    the level's first product.  N_C(y^s) then multiplies into r_n by
    `convolve` mod l^prec.  Only each class rep's p is read:
    `level_pieces` proves the other members' transports.

    Returns (coefficients, meta), meta recording k_n, the rep count and the
    orbit sizes.  `pieces` is the run's memo of `LevelPieces` by level: a
    level in it is read; otherwise `level_pieces` fills it here.
    """
    if n not in pieces:
        pieces[n] = level_pieces(spec, n)
    level = pieces[n]
    ell, q = spec.ell, spec.ell**spec.prec
    for members in level.classes:
        need = norm_bytes(ell, len(members), spec.r, q)
        if need > MAX_PRODUCT_BYTES:
            v, degree = members[0], len(members) * spec.r
            raise GuardExceeded(
                f"class norm of rep {v} at level {n} has degree {degree} "
                f"and needs about {need} bytes > {MAX_PRODUCT_BYTES}",
                level=n, rep=v, degree=degree, need=need,
                limit=MAX_PRODUCT_BYTES,
            )
    sizes = dict(level.reps)
    r_n = [1]
    for members in level.classes:
        v = members[0]
        class_norm = norm([c.coeffs for c in level.polys[v]], ell, n,
                          len(members), spec.prec,
                          f"class norm of rep {v} at level {n}",
                          level=n, rep=v)
        r_n = [c % q for c in
               convolve(r_n, stretch(class_norm, sizes[v] // level.k_n))]
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
        raise InputError("scalar congruence mode requires a scalar twist Q",
                         field="Q")


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
                [x for c in hi.charpoly(v) for x in c.coeffs],
                [x for c in lo.charpoly(v) for x in c.embed_up().coeffs],
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
        r_pow = power(r_lo, spec.ell ** (spec.b - 1),
                      lambda a, b: [x % mod for x in convolve(a, b)])
        measured, sat = poly_diff_val(r_hi, r_pow, spec.ell, spec.prec)
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
        raise InputError("lambda and v must each have length b",
                         field="lambda" if len(lam) != spec.b else "v")
    if n_lo < 1 or n_lo > n_hi:
        raise InputError("need 1 <= n_lo <= n_hi", field="n_range")
    if emit_products and spec.r != 1:
        raise InputError("product emission requires r = 1",
                         field="emit_products")
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
        members = _q_orbit(spec, n, v)
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
