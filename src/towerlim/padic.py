"""Primality, l-adic valuations and relative-precision l-adic floats.

`is_prime` and `check_odd_prime` validate the prime l (l = 2 is rejected
throughout; nothing downstream needs the 2-adic case).  `int_val` and
`min_val` are the integer valuations.  A `PadicFloat` is l^e times a unit
known to a fixed number of digits, so division by l is lossless;
`tower.caseB_limit_estimate` runs its series in it.
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


class PadicFloat:
    """An l-adic value l^e * u with u a unit known to `rel` digits.

    The precision is *relative*, so division by l is lossless and negative
    exponents (non-integral values) are representable.  A zero is the
    statement "v_l(value) >= zero_prec" and remembers only that absolute
    bound.  Used for series manipulations where every division by a term
    index must be accounted for.
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
