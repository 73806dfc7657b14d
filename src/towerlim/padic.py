"""Primality and l-adic valuations of integers.

`is_prime` and `check_odd_prime` validate the prime l (l = 2 is rejected
throughout; nothing downstream needs the 2-adic case).  `int_val` is the
valuation of one integer and `min_val` the least valuation over a sequence,
the one valuation of an exact ring element or coefficient list.
`primitive_root` is the one generator of the cyclic group (Z/l^m)^* that
both the tower engine and the curve pipelines walk the Galois action with.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import InputError
from .matrices import orbit

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
        raise InputError(f"l must be prime, got {ell!r}", field="ell")
    if ell == 2:
        raise InputError("l = 2 is not supported here", field="ell")
    return ell


def primitive_root(ell: int, m: int) -> int:
    """The least generator of the cyclic group (Z/l^m)^*, l an odd prime:
    the least unit g whose orbit of 1 under x -> g*x has phi(l^m) members."""
    d = ell**m
    phi = d - d // ell
    return next(g for g in range(2, d + 1)
                if g % ell and len(orbit(lambda x: x * g % d, 1, d)) == phi)


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

