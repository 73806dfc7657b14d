"""Fixed-precision l-adic integers for an odd prime l.

A `PadicInt` is a residue modulo ``l**prec`` together with the precision
``prec``: "known mod l**prec".  Arithmetic is exact on residues.  Precision
only ever shrinks, and only through division by powers of l; every operation
returns a result carrying the precision that is actually justified.

Valuations saturate at the precision: when the residue is 0 all we know is
``val >= prec``, and :meth:`PadicInt.val` reports ``(prec, saturated=True)``
in that case via :func:`val`.

l = 2 is rejected throughout.  The exp/log series below rely on the odd-prime
convergence margin v_l(k!) <= (k-1)/(l-1) <= (k-1)/2, and nothing downstream
needs the 2-adic case.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InputError, PrecisionExhausted

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond desk scale."""
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def check_odd_prime(ell: int) -> int:
    if not isinstance(ell, int) or not is_prime(ell):
        raise InputError(f"l must be prime, got {ell!r}")
    if ell == 2:
        raise InputError("l = 2 is not supported here")
    return ell


def int_val(ell: int, m: int) -> int:
    """v_l(m) for a nonzero integer m."""
    if m == 0:
        raise ValueError("valuation of 0 is infinite; handle separately")
    v = 0
    while m % ell == 0:
        m //= ell
        v += 1
    return v


def int_val_capped(ell: int, m: int, cap: int) -> int:
    """min(v_l(m), cap); safe for m = 0."""
    v = 0
    while v < cap and m % ell == 0:
        m //= ell
        v += 1
        if m == 0:
            return cap
    return v


def min_val(ell: int, xs: Iterable[int]) -> Optional[int]:
    """Least v_l over the nonzero entries of xs; None when all are zero.

    Stops at the first unit: nothing can go below 0.
    """
    best = None
    for x in xs:
        if x:
            v = int_val(ell, x)
            if best is None or v < best:
                best = v
                if v == 0:
                    break
    return best


class PadicInt:
    """An l-adic integer known modulo ``prime**prec``."""

    __slots__ = ("prime", "prec", "residue")

    def __init__(self, prime: int, prec: int, value: int):
        check_odd_prime(prime)
        if prec < 1:
            raise InputError(f"precision must be >= 1, got {prec}")
        self.prime = prime
        self.prec = prec
        self.residue = value % prime**prec

    @classmethod
    def from_rational(cls, prime: int, prec: int, num: int, den: int) -> "PadicInt":
        """The image of num/den, which must be an l-adic integer (l not| den)."""
        if den % prime == 0:
            raise InputError(f"{num}/{den} is not integral at {prime}")
        inv = pow(den, -1, prime**prec)
        return cls(prime, prec, num * inv)

    # -- plumbing ---------------------------------------------------------

    def _coerce(self, other) -> "PadicInt":
        if isinstance(other, PadicInt):
            if other.prime != self.prime:
                raise InputError("mixed primes in PadicInt arithmetic")
            return other
        if isinstance(other, int):
            return PadicInt(self.prime, self.prec, other)
        return NotImplemented  # type: ignore[return-value]

    def reduce(self, prec: int) -> "PadicInt":
        if prec > self.prec:
            raise PrecisionExhausted(
                f"cannot promote precision {self.prec} -> {prec}"
            )
        return PadicInt(self.prime, prec, self.residue)

    def __repr__(self) -> str:
        return f"PadicInt({self.prime}, {self.prec}, {self.residue})"

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = PadicInt(self.prime, self.prec, other)
        if not isinstance(other, PadicInt):
            return NotImplemented
        return (
            self.prime == other.prime
            and self.prec == other.prec
            and self.residue == other.residue
        )

    def __hash__(self) -> int:
        return hash((self.prime, self.prec, self.residue))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "PadicInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = min(self.prec, o.prec)
        return PadicInt(self.prime, k, self.residue + o.residue)

    __radd__ = __add__

    def __sub__(self, other) -> "PadicInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = min(self.prec, o.prec)
        return PadicInt(self.prime, k, self.residue - o.residue)

    def __rsub__(self, other) -> "PadicInt":
        return (-self).__add__(other)

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.prime, self.prec, -self.residue)

    def __mul__(self, other) -> "PadicInt":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        k = min(self.prec, o.prec)
        return PadicInt(self.prime, k, self.residue * o.residue)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "PadicInt":
        if e < 0:
            return self.inverse() ** (-e)
        return PadicInt(
            self.prime, self.prec, pow(self.residue, e, self.prime**self.prec)
        )

    def val(self) -> tuple[int, bool]:
        """(v, saturated): v = v_l(self) capped at prec; saturated flags a
        zero residue, meaning only v >= prec is known."""
        if self.residue == 0:
            return self.prec, True
        return int_val(self.prime, self.residue), False

    def is_unit(self) -> bool:
        return self.residue % self.prime != 0

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise InputError("cannot invert a non-unit l-adic integer")
        return PadicInt(
            self.prime, self.prec, pow(self.residue, -1, self.prime**self.prec)
        )

    def shift_down(self, j: int) -> "PadicInt":
        """Exact division by l**j.  The residue must be divisible; the result
        loses j digits of absolute precision."""
        if j == 0:
            return self
        if j < 0 or self.residue % self.prime**j != 0:
            raise InputError(f"residue not divisible by {self.prime}^{j}")
        if self.prec - j < 1:
            raise PrecisionExhausted(
                f"division by {self.prime}^{j} leaves no precision"
            )
        return PadicInt(self.prime, self.prec - j, self.residue // self.prime**j)

    def divide_exact(self, k: int) -> "PadicInt":
        """Division by a nonzero integer k, splitting off its l-part."""
        if k == 0:
            raise InputError("division by zero")
        j = int_val(self.prime, k)
        u = k // self.prime**j
        return self.shift_down(j) * pow(u, -1, self.prime ** max(self.prec - j, 1))


def val(x: PadicInt) -> tuple[int, bool]:
    """Valuation of x with saturation flag; see :meth:`PadicInt.val`."""
    return x.val()


def padic_exp(x: PadicInt) -> PadicInt:
    """exp(x) for v_l(x) >= 1, evaluated by the exact lifted-integer series.

    Each term x^k / k! is an l-adic integer (k*v_l(x) - v_l(k!) > 0 for odd l),
    so the sum is formed over plain integers with exact division by the l-part
    of k! and a modular inverse for its unit part.  The result carries the full
    input precision: exp maps l^N-congruent arguments to l^N-congruent values.
    """
    ell, n = x.prime, x.prec
    m, _ = x.val()
    if m < 1:
        raise InputError("padic_exp requires v_l(x) >= 1")
    if x.residue == 0:
        return PadicInt(ell, n, 1)
    lift = x.residue
    # Term k has valuation k*m - v_l(k!) >= k*(m - 1/(l-1)), which is
    # increasing, so every term from kmax on vanishes mod l^n.  (The raw
    # per-term valuation is not monotone -- e.g. k = l^j dips -- hence the
    # closed-form cutoff instead of stopping at the first negligible term.)
    den = m * (ell - 1) - 1
    kmax = -(-(n * (ell - 1) - 1) // den)  # ceil division
    mod = ell ** (2 * n + 2)
    total, pw, fact_v, fact_u = 1, 1, 0, 1
    for k in range(1, kmax):
        pw = pw * lift % mod
        vk = int_val(ell, k)
        fact_v += vk
        fact_u = fact_u * (k // ell**vk) % mod
        assert pw % ell**fact_v == 0
        total = (total + pw // ell**fact_v * pow(fact_u, -1, mod)) % mod
    return PadicInt(ell, n, total)


def padic_log(u: PadicInt) -> PadicInt:
    """log(u) for u = 1 mod l, by the exact series sum (-1)^(k+1) d^k / k.

    Division loss is tracked per term; for odd l the loss is always zero
    (k*m - v_l(k) >= m for m >= 1), so the result keeps the input precision.
    """
    ell, n = u.prime, u.prec
    d = (u.residue - 1) % ell**n
    if d % ell != 0:
        raise InputError("padic_log requires u = 1 mod l")
    if d == 0:
        return PadicInt(ell, n, 0)
    m = int_val(ell, d)
    mod = ell ** (2 * n + 2)
    total, pw, k = 0, 1, 0
    max_loss = 0
    while True:
        k += 1
        # stop once k*m - n >= log_l(k); the continuous bound k*m - log_l(k)
        # is increasing, so every later term also has valuation >= n
        if k * m >= n and ell ** (k * m - n) >= k:
            break
        vk = int_val(ell, k)
        pw = pw * d % mod
        assert pw % ell**vk == 0
        term = pw // ell**vk * pow(k // ell**vk, -1, mod) % mod
        total = (total - term if k % 2 == 0 else total + term) % mod
        max_loss = max(max_loss, vk - (k - 1) * m)
    out_prec = n - max(0, max_loss)
    if out_prec < 1:
        raise PrecisionExhausted("log series consumed all precision")
    return PadicInt(ell, out_prec, total)


def binom_series_coeff(lam: PadicInt, k: int) -> PadicInt:
    """Binomial coefficient C(lam, k) = lam(lam-1)...(lam-k+1)/k! in Z_l.

    The value is always an l-adic integer, but dividing by k! costs
    v_l(k!) digits of certainty about it; the result precision reflects that.
    Raises PrecisionExhausted when nothing provable remains.
    """
    if k < 0:
        raise InputError("k must be >= 0")
    ell, n = lam.prime, lam.prec
    if k == 0:
        return PadicInt(ell, n, 1)
    prod = 1
    mod = ell**n
    for i in range(k):
        prod = prod * (lam.residue - i) % mod
    loss = 0
    q = ell
    while q <= k:
        loss += k // q
        q *= ell
    if n - loss < 1:
        raise PrecisionExhausted(
            f"C(lam, {k}) at prime {ell}: v_l(k!) = {loss} >= precision {n}"
        )
    assert prod % ell ** min(loss, n) == 0
    unit = 1
    for i in range(1, k + 1):
        unit = unit * (i // ell ** int_val_capped(ell, i, n)) % mod
    return PadicInt(ell, n - loss, prod // ell**loss * pow(unit, -1, mod))


class PadicFloat:
    """An l-adic value l^e * u with u a unit known to `rel` digits.

    Unlike `PadicInt` this tracks *relative* precision, so division by l is
    lossless and negative exponents (non-integral values) are representable.
    A zero is the statement "v_l(value) >= zero_prec" and remembers only that
    absolute bound.  Used for series manipulations where every division by a
    term index must be accounted for.
    """

    __slots__ = ("prime", "e", "unit", "rel", "zero_prec")

    def __init__(self, prime, e, unit, rel, zero_prec=None):
        self.prime = prime
        if zero_prec is not None:
            self.e = 0
            self.unit = 0
            self.rel = 0
            self.zero_prec = zero_prec
            return
        if rel < 1:
            raise PrecisionExhausted("l-adic float with no significant digits")
        unit %= prime**rel
        if unit % prime == 0:
            raise ValueError("unit part must be a unit")
        self.e, self.unit, self.rel, self.zero_prec = e, unit, rel, None

    @classmethod
    def from_residue(cls, prime: int, prec: int, residue: int) -> "PadicFloat":
        """Lift a residue known mod l^prec (absolute) to float form."""
        residue %= prime**prec
        if residue == 0:
            return cls(prime, 0, 0, 0, zero_prec=prec)
        e = int_val(prime, residue)
        return cls(prime, e, residue // prime**e, prec - e)

    def is_zero(self) -> bool:
        return self.zero_prec is not None

    def abs_prec(self) -> int:
        """Absolute precision: the value is pinned down mod l^(this)."""
        if self.is_zero():
            return self.zero_prec
        return self.e + self.rel

    def __neg__(self) -> "PadicFloat":
        if self.is_zero():
            return self
        return PadicFloat(self.prime, self.e, -self.unit % self.prime**self.rel, self.rel)

    def __mul__(self, other) -> "PadicFloat":
        if isinstance(other, int):
            other = PadicFloat.from_residue(self.prime, self.abs_prec() + 64, other)
        if self.is_zero() or other.is_zero():
            if self.is_zero() and other.is_zero():
                return PadicFloat(self.prime, 0, 0, 0,
                                  zero_prec=self.zero_prec + other.zero_prec)
            z, nz = (self, other) if self.is_zero() else (other, self)
            return PadicFloat(self.prime, 0, 0, 0, zero_prec=z.zero_prec + nz.e)
        rel = min(self.rel, other.rel)
        return PadicFloat(self.prime, self.e + other.e, self.unit * other.unit, rel)

    __rmul__ = __mul__

    def __add__(self, other) -> "PadicFloat":
        if not isinstance(other, PadicFloat):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return PadicFloat(self.prime, 0, 0, 0,
                              zero_prec=min(self.zero_prec, other.zero_prec))
        if self.is_zero() or other.is_zero():
            z, nz = (self, other) if self.is_zero() else (other, self)
            # the zero only matters below its absolute bound
            cap = z.zero_prec
            if nz.e >= cap:
                return PadicFloat(self.prime, 0, 0, 0, zero_prec=cap)
            rel = min(nz.rel, cap - nz.e)
            return PadicFloat(self.prime, nz.e, nz.unit, rel)
        ap = min(self.abs_prec(), other.abs_prec())
        ell = self.prime
        lo = min(self.e, other.e)
        if ap - lo < 1:
            raise PrecisionExhausted("cancellation below known precision")
        mod = ell ** (ap - lo)
        s = (self.unit * ell ** (self.e - lo) + other.unit * ell ** (other.e - lo)) % mod
        if s == 0:
            return PadicFloat(ell, 0, 0, 0, zero_prec=ap)
        v = int_val(ell, s)
        return PadicFloat(ell, lo + v, s // ell**v, ap - lo - v)

    def __sub__(self, other) -> "PadicFloat":
        return self.__add__(-other)

    def divide_int(self, k: int) -> "PadicFloat":
        """Exact division by a nonzero integer; may push the exponent < 0."""
        if k == 0:
            raise InputError("division by zero")
        ell = self.prime
        j = int_val(ell, k)
        u = k // ell**j
        if self.is_zero():
            return PadicFloat(ell, 0, 0, 0, zero_prec=self.zero_prec - j)
        return PadicFloat(
            ell, self.e - j, self.unit * pow(u, -1, ell**self.rel), self.rel
        )

    def __repr__(self) -> str:
        if self.is_zero():
            return f"PadicFloat({self.prime}; O({self.prime}^{self.zero_prec}))"
        return (
            f"PadicFloat({self.prime}^{self.e} * {self.unit} "
            f"+ O({self.prime}^{self.abs_prec()}))"
        )
