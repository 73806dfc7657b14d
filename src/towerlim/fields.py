"""Finite fields F_q, q = p^f, backed by full exp/dlog tables.

Elements are packed integers sum a_i p^i for the coefficient vector
(a_0, ..., a_{f-1}) over a deterministic modulus: the lexicographically
first monic irreducible of degree f (comparing coefficient tuples from the
x^(f-1) coefficient down).  The multiplicative group is tabulated against
the smallest generator (by packed encoding), so powers of the generator
and discrete logs are O(1) lookups.  Construction is vectorized:
multiplication by g^k is F_p-linear, so the first block of the exp table
fills by doubling (columns [k, 2k) are M_{g^k} times columns [0, k)) and the
table then advances in blocks through one small matrix product per block.

Batched arithmetic goes through one digit codec: `digits` splits packed
encodings into their base-p coefficient rows, and every batch operation is
a line of F_p arithmetic on those rows.

Every field is capped at q <= FIELD_CAP = 10^7 (a full-table design is a
desk-scale tool); `check_field_size` is the one place the cap is checked.
"""

from __future__ import annotations

import numpy as np

from .errors import CheckFailed, GuardExceeded, InputError
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
    out = [1] + [0] * (len(mod_poly) - 2)
    base = list(a)
    while e:
        if e & 1:
            out = _poly_mul_mod(out, base, mod_poly, p)
        e >>= 1
        if e:
            base = _poly_mul_mod(base, base, mod_poly, p)
    return out


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
    """Rabin test: x^(p^f) = x mod m, and gcd(x^(p^(f/d)) - x, m) constant
    for every prime d | f."""
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


def _find_modulus(p: int, f: int) -> tuple[int, ...]:
    """Lexicographically first monic irreducible of degree f.

    Candidates are compared coefficient-high-first, (c_{f-1}, ..., c_0),
    which is exactly ascending order of the packed code whose base-p digit i
    is c_i.  Returned constant-term first, with the leading 1 appended.
    """
    if f == 1:
        return (0, 1)
    for code in range(p**f):
        digits = []
        t = code
        for _ in range(f):
            digits.append(t % p)
            t //= p
        poly = digits + [1]
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise InputError(f"no irreducible polynomial found for p={p}, f={f}")


class FqField:
    """F_{p^f} with exp/dlog tables; elements are packed ints in [0, q)."""

    def __init__(self, p: int, f: int):
        if not is_prime(p):
            raise InputError(f"p must be prime, got {p}")
        if f < 1:
            raise InputError(f"f must be >= 1, got {f}")
        check_field_size(p, f)
        self.p, self.f, self.q = p, f, p**f
        self.modulus = _find_modulus(p, f)
        self._weights = np.array([p**i for i in range(f)], dtype=np.int64)
        self.gen = self._find_generator()
        self._build_tables()
        # Tr(x^i) for the power basis, for O(f) absolute traces
        self._trace_basis = self.trace_matrix(p, f)[0]

    # -- construction internals ------------------------------------------

    def _pow_poly(self, a: int, e: int) -> int:
        return self.encode(
            _poly_pow_mod(self.decode(a), e, list(self.modulus), self.p)
        )

    def _find_generator(self) -> int:
        order = self.q - 1
        prime_divs = prime_factors(order)
        for enc in range(1, self.q):  # 1 generates F_2^* and no other
            ok = True
            for d in prime_divs:
                if self._pow_poly(enc, order // d) == 1:
                    ok = False
                    break
            if ok:
                return enc
        raise InputError("no multiplicative generator found (impossible)")

    def _mult_matrix(self, a: int) -> np.ndarray:
        """f x f matrix over F_p of multiplication by `a` in the basis."""
        cols = []
        for j in range(self.f):
            basis = [0] * self.f
            basis[j] = 1
            prod = _poly_mul_mod(
                self.decode(a), basis, list(self.modulus), self.p
            )
            cols.append(prod)
        return np.array(cols, dtype=np.int64).T % self.p

    def _build_tables(self) -> None:
        q, p, f = self.q, self.p, self.f
        n = q - 1
        block = min(_BLOCK, n)
        digits = np.zeros((f, block), dtype=np.int64)
        digits[0, 0] = 1
        mk = self._mult_matrix(self.gen)  # M_{g^k}, k = 1, 2, 4, ...
        k = 1
        while k < block:
            take = min(k, block - k)
            digits[:, k : k + take] = mk @ digits[:, :take] % p
            k += take
            if k < block:
                mk = mk @ mk % p
        mb = self._mult_matrix(self._pow_poly(self.gen, block))
        exp = np.empty(n, dtype=np.int64)
        pos = 0
        while pos < n:
            m = min(block, n - pos)
            exp[pos : pos + m] = self._weights @ digits[:, :m]
            pos += m
            if pos < n:
                digits = mb @ digits % p
        self.exp_table = exp
        dlog = np.full(q, -1, dtype=np.int64)
        dlog[exp] = np.arange(n, dtype=np.int64)
        if int((dlog >= 0).sum()) != n:
            raise InputError("generator order check failed (impossible)")
        self.dlog_table = dlog

    def trace_matrix(self, q: int, m: int) -> np.ndarray:
        """Tr_{K/F_q} on K = F_{q^m} (this field) as an F_p-matrix in K's
        power basis.

        The Frobenius x -> x^q is F_p-linear; column j of its matrix is the
        basis vector x^j raised to the q-th power modulo K's modulus, and the
        trace is the sum of its first m powers.  The trace lands in F_q, so
        T T = m T (mod p); a matrix that fails this is a hard error.
        """
        p, f = self.p, self.f
        modulus = list(self.modulus)
        basis = np.eye(f, dtype=np.int64).tolist()
        frob = np.array([_poly_pow_mod(e, q, modulus, p) for e in basis],
                        dtype=np.int64).T
        trace = np.eye(f, dtype=np.int64)
        power = trace
        for _ in range(m - 1):
            power = frob @ power % p
            trace = trace + power
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
