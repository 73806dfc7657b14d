"""Tests for primality, valuations and the matrix log."""

from __future__ import annotations

import random

import pytest

from towerlim.errors import InputError
from towerlim.padic import (
    check_odd_prime,
    int_val,
    is_prime,
    min_val,
)
from towerlim.tower import matrix_log

PRIMES = [3, 5, 7, 11, 13]


def _sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for k in range(2, int(limit**0.5) + 1):
        if flags[k]:
            for m in range(k * k, limit + 1, k):
                flags[m] = False
    return flags


def test_is_prime_matches_sieve():
    flags = _sieve(2000)
    for m in range(-3, 2001):
        expected = flags[m] if m >= 0 else False
        assert is_prime(m) == expected


def test_check_odd_prime():
    for ell in PRIMES:
        assert check_odd_prime(ell) == ell
    for bad in (2, 1, 0, 9, 15, -3):
        with pytest.raises(InputError):
            check_odd_prime(bad)


def test_int_val_exact():
    assert int_val(3, 54) == 3
    assert int_val(5, -250) == 3
    assert int_val(7, 1) == 0
    with pytest.raises(ValueError):
        int_val(3, 0)


def test_min_val():
    assert min_val(3, []) is None
    assert min_val(3, [0, 0]) is None
    assert min_val(3, [54, 0, 3**9]) == 3
    assert min_val(3, [0, 3**9]) == 9
    assert min_val(3, [3**9, 7, 54]) == 0


def _log_series(ell, prec, u):
    """Independent logarithm of u = 1 + t via the alternating series."""
    mod = ell**prec
    t = u - 1
    acc = 0
    for k in range(1, 4 * prec + 8):
        m = k
        a = 0
        while m % ell == 0:
            m //= ell
            a += 1
        num = t**k
        assert num % ell**a == 0
        sign = 1 if k % 2 == 1 else -1
        acc = (acc + sign * (num // ell**a) * pow(m, -1, mod)) % mod
    return acc


def test_log_matches_reference_series():
    rng = random.Random(23)
    for _ in range(60):
        ell = rng.choice(PRIMES)
        prec = rng.randint(3, 9)
        u = 1 + ell * rng.randrange(ell ** (prec - 1))
        assert matrix_log([[u]], ell, prec) == [[_log_series(ell, prec, u)]]
