"""Finite fields F_q, q = p^f, backed by full exp/dlog tables.

Elements are packed integers sum a_i p^i for the coefficient vector
(a_0, ..., a_{f-1}) over a deterministic modulus: the lexicographically
first monic irreducible of degree f (comparing coefficient tuples from the
x^(f-1) coefficient down).  The search skips a candidate with a root in F_p
(a constant term of zero is the root 0) before it runs Ben-Or's test.
The multiplicative group is tabulated against the smallest generator (by
packed encoding), so powers of the generator and discrete logs are O(1)
lookups.  A candidate g is a generator iff g^((q - 1) / d) != 1 for every
prime d | q - 1.  For d | p - 1 that power is N(g)^((p - 1) / d), with
N(g) = g^((q - 1) / (p - 1)) = det M_g the norm to F_p, so one f x f
determinant mod p settles those primes and only the others cost an
exponentiation in F_q.  One block stepper, `power_blocks`, walks the powers
of any element as digit blocks: multiplication by h^k is F_p-linear, so its
first block fills by doubling (columns [k, 2k) are M_{h^k} times columns
[0, k)) and it then advances through one small matrix product per block.
It has two readers: the exp table packs the generator's blocks, and the
Artin-Schreier count tests the blocks of a power of the generator directly.

The block steps run in float64, so numpy hands the products to BLAS; they
are exact, since every partial sum is an integer of at most f (p - 1)^2 <=
10^14 < 2^53 under the cap, and `_float_mod` reduces them exactly.  Both
tables are built on their first read, so constructing a field costs only
its modulus and generator search: enumerating an Artin-Schreier curve
reads neither.  So is the absolute trace basis, which only `tr_abs_batch`
reads.

Batched arithmetic goes through one digit codec: `digits` splits packed
encodings into their base-p coefficient rows, and every batch operation is
a line of int64 F_p arithmetic on those rows.

Every field is capped at q <= FIELD_CAP = 10^7 (a full-table design is a
desk-scale tool); `check_field_size` is the one place the cap is checked.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import CheckFailed, GuardExceeded, InputError
from .matrices import power
from .padic import is_prime

FIELD_CAP = 10**7
_BLOCK = 4096


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending, by trial division: the
    package's one factorization (every caller keeps m <= FIELD_CAP)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def check_field_size(p: int, f: int) -> None:
    """GuardExceeded naming p, f and the limit when p^f > FIELD_CAP.

    p^f is never formed: p multiplies into a running product only until it
    passes the cap, at most 24 steps for p >= 2, whatever f is.
    """
    q = 1
    for _ in range(f):
        q *= p
        if q > FIELD_CAP:
            raise GuardExceeded(
                f"the field F_{p}^{f} exceeds the table guard of {FIELD_CAP} "
                "elements",
                p=p, f=f, limit=FIELD_CAP,
            )


def _float_mod(x: np.ndarray, p: int, quot: np.ndarray) -> np.ndarray:
    """x mod p, in place, for a float64 array of integers in [0, 2^53);
    `quot`, a float64 array of x's shape, is overwritten.

    Computed as x - floor(x / p) p, which is exact.  Write x = k p + r with
    0 <= r < p.  True division rounds t = x / p to the nearest double; since
    t < 2^53 / p, the spacing of doubles at t is below 2 / p, so the rounded
    quotient lies within 1 / p of t (strictly), and the distance from t to
    k + 1 is (p - r) / p >= 1 / p.  Rounding is monotone and k, k + 1 are
    doubles (both at most 2^53), so the rounded quotient lies in [k, k + 1)
    and its floor is k.  Then k p <= x is an integer below 2^53, exact as a
    double, and x - k p = r is exact.
    """
    np.divide(x, p, out=quot)
    np.floor(quot, out=quot)
    quot *= p
    x -= quot
    return x


def _poly_mul_mod(a: list[int], b: list[int], mod_poly: list[int], p: int) -> list[int]:
    f = len(mod_poly) - 1
    buf = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                buf[i + j] = (buf[i + j] + x * y) % p
    for i in range(len(buf) - 1, f - 1, -1):
        c = buf[i]
        if c:
            for j in range(f):
                buf[i - f + j] = (buf[i - f + j] - c * mod_poly[j]) % p
            buf[i] = 0
    return [x % p for x in buf[:f]] + [0] * max(0, f - len(buf))


def _poly_pow_mod(a: list[int], e: int, mod_poly: list[int], p: int) -> list[int]:
    return power(a, e, lambda x, y: _poly_mul_mod(x, y, mod_poly, p))


def _det_mod(rows: list[list[int]], p: int) -> int:
    """Determinant mod p of a square matrix over F_p, by elimination;
    `rows` is overwritten."""
    det = 1
    for i in range(len(rows)):
        piv = next((r for r in range(i, len(rows)) if rows[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            rows[i], rows[piv] = rows[piv], rows[i]
            det = -det
        det = det * rows[i][i] % p
        inv = pow(rows[i][i], -1, p)
        for r in range(i + 1, len(rows)):
            c = rows[r][i] * inv % p
            if c:
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], rows[i])]
    return det % p


def _poly_deg(u: list[int]) -> int:
    d = len(u) - 1
    while d >= 0 and u[d] == 0:
        d -= 1
    return d


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = [x % p for x in a], [x % p for x in b]
    while _poly_deg(b) >= 0:
        da, db = _poly_deg(a), _poly_deg(b)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db], -1, p)
        while da >= db:
            shift = da - db
            c = a[da] * inv % p
            for i in range(db + 1):
                a[i + shift] = (a[i + shift] - c * b[i]) % p
            da = _poly_deg(a)
        a, b = b, a
    return a


def _is_irreducible(mod_poly: list[int], p: int) -> bool:
    """Ben-Or's test: a monic m of degree f is irreducible iff
    gcd(x^(p^i) - x, m) = 1 for every i <= f/2, since x^(p^i) - x is the
    product of the monic irreducibles of degree dividing i, and a reducible
    m has a factor of degree at most f/2.  It stops at the first nontrivial
    gcd, which for most reducible m comes at a small i."""
    f = len(mod_poly) - 1
    x = [0, 1] + [0] * (f - 2)
    frob = x  # x^(p^i) mod m
    for _ in range(f // 2):
        frob = _poly_pow_mod(frob, p, mod_poly, p)
        diff = [(a - b) % p for a, b in zip(frob, x)]
        if _poly_deg(_poly_gcd(diff, list(mod_poly), p)) != 0:
            return False
    return True


def _find_modulus(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree f.

    Candidates are compared coefficient-high-first, (c_{f-1}, ..., c_0),
    which is exactly ascending order of the packed code whose base-p digit i
    is c_i.  Returned constant-term first, with the leading 1 appended.

    A candidate of degree f >= 2 with a root in F_p has a linear factor, so
    the search skips it before `_is_irreducible`; a constant term of zero is
    the root 0.  Only reducible candidates are skipped, so the result is the
    first irreducible still.
    """
    if f == 1:
        return (0, 1)
    # row i holds x^i mod p at every x in F_p (x^i < p^f fits int64)
    powers = np.arange(p, dtype=np.int64) ** np.arange(f + 1)[:, None] % p
    for code in range(p**f):
        poly = []
        t = code
        for _ in range(f):
            poly.append(t % p)
            t //= p
        poly.append(1)
        if np.all(poly @ powers % p) and _is_irreducible(poly, p):
            return tuple(poly)
    raise InputError(f"no irreducible polynomial found for p={p}, f={f}",
                     field="f")


class FqField:
    """F_{p^f} with exp/dlog tables; elements are packed ints in [0, q)."""

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise InputError(f"p must be prime, got {p}", field="p")
        if f < 1:
            raise InputError(f"f must be >= 1, got {f}", field="f")
        check_field_size(p, f)
        self.p, self.f, self.q = p, f, p**f
        self.modulus = _find_modulus(p, f)
        self._weights = np.array([p**i for i in range(f)], dtype=np.int64)
        primes = prime_factors(self.q - 1)
        self._norm_primes = [d for d in primes if (p - 1) % d == 0]
        self._power_primes = [d for d in primes if (p - 1) % d]
        self.gen = self._find_generator()
        if not self._is_generator(self.gen):
            raise CheckFailed("generator order check failed (impossible)",
                              p=p, f=f, gen=self.gen)

    # -- construction internals ------------------------------------------

    def _pow_poly(self, a: int, e: int) -> int:
        return self.encode(
            _poly_pow_mod(self.decode(a), e, list(self.modulus), self.p)
        )

    def _norm(self, a: int) -> int:
        """N(a) = a^((q - 1) / (p - 1)) in F_p, as det M_a mod p."""
        return _det_mod(self._mult_columns(a), self.p)

    def _is_generator(self, enc: int) -> bool:
        """enc^((q - 1) / d) != 1 for every prime d | q - 1.

        For d | p - 1 the power is N(enc)^((p - 1) / d), tested in F_p;
        only the other primes exponentiate in F_q.
        """
        p, order = self.p, self.q - 1
        norm = self._norm(enc)
        if norm == 0 or any(pow(norm, (p - 1) // d, p) == 1
                            for d in self._norm_primes):
            return False
        return all(self._pow_poly(enc, order // d) != 1
                   for d in self._power_primes)

    def _find_generator(self) -> int:
        for enc in range(1, self.q):  # 1 generates F_2^* and no other
            if self._is_generator(enc):
                return enc
        raise CheckFailed("no multiplicative generator found (impossible)",
                          p=self.p, f=self.f, gen=None)

    def _mult_columns(self, a: int) -> list[list[int]]:
        """Columns a x^j mod the modulus, j < f, of multiplication by `a`:
        column j + 1 is column j shifted up one place, less its top digit
        times the monic modulus."""
        p, col = self.p, self.decode(a)
        cols = [col]
        for _ in range(self.f - 1):
            top = col[-1]
            col = [(c - top * m) % p
                   for c, m in zip([0] + col[:-1], self.modulus)]
            cols.append(col)
        return cols

    def _mult_matrix(self, a: int) -> np.ndarray:
        """f x f matrix over F_p of multiplication by `a` in the basis, as
        float64 for the block steps."""
        return np.array(self._mult_columns(a), dtype=float).T

    def power_blocks(self, h: int, count: int) -> Iterator[np.ndarray]:
        """Digit blocks of h^0, h^1, ..., h^(count - 1), count >= 1.

        Each block is a float64 (f, <= _BLOCK) view whose column j holds the
        base-p digits of the power after the previous blocks' columns; it
        stays valid until the next step.  The first block fills by doubling
        (columns [k, 2k) are M_{h^k} times columns [0, k)); every later one
        is one product with M_{h^block}, built only if there is one.  Exact
        in float64: every partial sum is an integer of at most f (p - 1)^2 <
        2^53 (f products of two residues), reduced by `_float_mod`.
        """
        p, f = self.p, self.f
        block = min(_BLOCK, count)
        digits = np.zeros((f, block))
        digits[0, 0] = 1.0
        # fresh block-sized temporaries in the loop cost more than the steps
        spare, quot = np.empty_like(digits), np.empty_like(digits)
        mk = self._mult_matrix(h)  # M_{h^k}, k = 1, 2, 4, ...
        k = 1
        while k < block:
            take = min(k, block - k)
            digits[:, k : k + take] = _float_mod(mk @ digits[:, :take], p,
                                                 quot[:, :take])
            k += take
            if k < block:
                mk = mk @ mk % p  # f x f: exact, and too small to matter
        yield digits[:, :block]
        if count > block:
            mb = self._mult_matrix(self._pow_poly(h, block))
            for pos in range(block, count, block):
                np.matmul(mb, digits, out=spare)
                digits, spare = _float_mod(spare, p, quot), digits
                yield digits[:, : min(block, count - pos)]

    @cached_property
    def exp_table(self) -> np.ndarray:
        """g^0, g^1, ..., g^(q-2) as packed encodings; built on first read.

        Packs `power_blocks(gen, q - 1)` in float64 (a packed code is below
        q < 2^53).  Refuses a gen whose powers repeat before q - 1.
        """
        n = self.q - 1
        weights = self._weights.astype(float)
        exp = np.empty(n, dtype=np.int64)
        pos = 0
        for block in self.power_blocks(self.gen, n):
            exp[pos : pos + block.shape[1]] = weights @ block
            pos += block.shape[1]
        seen = np.zeros(self.q, dtype=bool)
        seen[exp] = True
        if int(np.count_nonzero(seen[1:])) != n:
            raise CheckFailed("generator order check failed (impossible)",
                              p=self.p, f=self.f, gen=self.gen)
        return exp

    @cached_property
    def dlog_table(self) -> np.ndarray:
        """Discrete logs to base gen, -1 at 0; built on first read."""
        dlog = np.full(self.q, -1, dtype=np.int64)
        dlog[self.exp_table] = np.arange(self.q - 1, dtype=np.int64)
        return dlog

    @cached_property
    def _trace_basis(self) -> np.ndarray:
        """Tr(x^i) for the power basis, for O(f) absolute traces; built on
        first read."""
        return self.trace_matrix(self.p, self.f)[0]

    def trace_matrix(self, q: int, m: int) -> np.ndarray:
        """Tr_{K/F_q} on K = F_{q^m} (this field) as an F_p-matrix in K's
        power basis.

        The Frobenius x -> x^q is F_p-linear; column j of its matrix is
        (x^j)^q = h^j, h = x^q: the first f powers of h, one
        `power_blocks` run.  The trace is the sum of the matrix's first m
        powers; it lands in F_q, so T T = m T (mod p), and a matrix that
        fails this is a hard error.
        """
        p, f = self.p, self.f
        h = self._pow_poly(p % self.q, q)  # p encodes x (0 when f = 1)
        frob = np.hstack([b.astype(np.int64) for b in self.power_blocks(h, f)])
        trace = np.eye(f, dtype=np.int64)
        frob_i = trace
        for _ in range(m - 1):
            frob_i = frob @ frob_i % p
            trace = trace + frob_i
        trace %= p
        if np.any((trace @ trace - m * trace) % p):
            raise CheckFailed(
                f"relative trace matrix of F_{self.q} over F_{q} fails "
                "T T = m T",
                q=q, m=m, field_q=self.q,
            )
        return trace

    # -- element codec ----------------------------------------------------

    def decode(self, a: int) -> list[int]:
        out = []
        for _ in range(self.f):
            out.append(a % self.p)
            a //= self.p
        return out

    def encode(self, coeffs: list[int]) -> int:
        acc = 0
        for c in reversed(coeffs[: self.f]):
            acc = acc * self.p + c % self.p
        return acc

    # -- arithmetic -------------------------------------------------------

    def neg(self, a: int) -> int:
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def dlog(self, a: int) -> int:
        if a == 0:
            raise InputError("dlog of 0 is undefined")
        return int(self.dlog_table[a])

    def digits(self, encs: np.ndarray) -> np.ndarray:
        """Base-p coefficient rows of packed encodings: shape (len, f)."""
        return np.asarray(encs)[:, None] // self._weights % self.p

    def _pack(self, digits: np.ndarray) -> np.ndarray:
        return digits % self.p @ self._weights

    def tr_abs_batch(self, encs: np.ndarray) -> np.ndarray:
        return self.digits(encs) @ self._trace_basis % self.p

    def add_batch(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._pack(self.digits(a) + self.digits(b))

    def one_minus_batch(self, encs: np.ndarray) -> np.ndarray:
        return self._pack(np.eye(1, self.f, dtype=np.int64) - self.digits(encs))

    def neg_batch(self, encs: np.ndarray) -> np.ndarray:
        return self._pack(-self.digits(encs))

    def __repr__(self) -> str:
        return f"FqField({self.p}^{self.f}, modulus={list(self.modulus)}, g={self.gen})"


def field_build(p: int, f: int) -> FqField:
    """Construct F_{p^f} with its tables (deterministic modulus/generator)."""
    return FqField(p, f)
