"""Integer-matrix congruences: trace and characteristic-polynomial tests.

The core statement: for an integer matrix A and odd prime l,

    tr A^(l^(n+1)) = tr A^(l^n)   (mod l^(n+1)),

with a matching congruence between the characteristic polynomials of the two
powers.  `arnold_zarelua_check` measures both valuations exactly.  For l = 2
the congruence is outside the guaranteed range, so the check still measures
but renders no pass/fail verdict.

`det_from_traces` and `traces_from_det` are Newton's identities between
power traces and det(1 - x*B), over the integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Optional, Sequence

from .errors import CheckFailed, GuardExceeded, InputError
from .matrices import det_one_minus_y, mat_mul, mat_trace, power
from .padic import is_prime, min_val

IntMatrix = Sequence[Sequence[int]]


def check_square(a: IntMatrix) -> int:
    r = len(a)
    if r == 0 or any(len(row) != r for row in a):
        raise InputError("matrix must be square and nonempty", field="matrix")
    return r


def poly_diff_val(p1: Sequence[int], p2: Sequence[int], ell: int,
                  cap: int) -> tuple[int, bool]:
    """Min l-valuation over coefficients of p1 - p2, capped; True = all zero."""
    best = min_val(ell, (a - b for a, b in zip_longest(p1, p2, fillvalue=0)))
    if best is None:
        return cap, True
    return min(best, cap), False


MAX_POWER_DIGITS = 50_000  # entry digits of the next power (2 x 2: seconds)
MAX_TRACE_DIGITS = 4300  # trace digits a report prints: Python's str limit
VAL_CAP = 64  # reported valuations of an exactly-zero difference


@dataclass(frozen=True)
class TracePowerReport:
    ell: int
    n: int
    trace_lo: int
    trace_hi: int
    trace_val: int
    trace_saturated: bool
    charpoly_val: int
    charpoly_saturated: bool
    required: int
    passed: Optional[bool]  # None: measured only (l = 2)

    def as_record(self) -> dict:
        return {
            "ell": self.ell,
            "n": self.n,
            "trace_low": str(self.trace_lo),
            "trace_high": str(self.trace_hi),
            "trace_valuation": self.trace_val,
            "trace_saturated": self.trace_saturated,
            "charpoly_valuation": self.charpoly_val,
            "charpoly_saturated": self.charpoly_saturated,
            "required": self.required,
            "status": (
                "measured" if self.passed is None
                else "pass" if self.passed else "fail"
            ),
        }


def arnold_zarelua_check(a: IntMatrix, ell: int, n: int) -> TracePowerReport:
    """Compare tr/charpoly of A^(l^n) and A^(l^(n+1)) l-adically.

    For odd primes the congruence must hold to depth n+1 and the report
    carries a verdict; for l = 2 it reports measured valuations only.
    Valuations print capped at VAL_CAP; an exactly-zero (saturated)
    difference meets any required depth.

    Powers are taken one l-th power at a time; a step whose entry bound
    |X|^l (|X| the largest row sum of |x_ij|) passes 10^MAX_POWER_DIGITS,
    or a trace past MAX_TRACE_DIGITS digits, is a GuardExceeded.
    """
    check_square(a)
    if not is_prime(ell):
        raise InputError(f"l must be prime, got {ell}", field="ell")
    if n < 0:
        raise InputError("n must be >= 0", field="n")
    hi = a
    for i in range(1, n + 2):  # hi: A^(l^(i-1)) -> A^(l^i)
        digits = ell * math.log10(max(sum(map(abs, row)) for row in hi) or 1)
        if digits > MAX_POWER_DIGITS:
            raise GuardExceeded(f"arnold at n = {n}: entries of A^({ell}^{i}) "
                                f"may reach 10^{digits:.0f}",
                                n=n, step=i, digits=round(digits),
                                limit=MAX_POWER_DIGITS)
        lo, hi = hi, power(hi, ell, mat_mul)
    t_lo, t_hi = mat_trace(lo), mat_trace(hi)
    big = max(abs(t_lo), abs(t_hi))
    if big >= 10**MAX_TRACE_DIGITS:
        digits = round(big.bit_length() * math.log10(2))
        raise GuardExceeded(f"arnold at n = {n}: a trace of about "
                            f"{digits} digits is too long to report",
                            n=n, step=n + 1, digits=digits,
                            limit=MAX_TRACE_DIGITS)
    tv, tsat = poly_diff_val([t_hi], [t_lo], ell, VAL_CAP)
    p_lo = det_one_minus_y(lo, 1, 0)
    p_hi = det_one_minus_y(hi, 1, 0)
    cv, csat = poly_diff_val(p_hi, p_lo, ell, VAL_CAP)
    required = n + 1
    passed = None if ell == 2 else (
        (tv >= required or tsat) and (cv >= required or csat))
    return TracePowerReport(ell, n, t_lo, t_hi, tv, tsat, cv, csat,
                            required, passed)


def det_from_traces(traces: Sequence[int], what: str) -> list[int]:
    """Integer coefficients of det(1 - x*B) from the power traces tr(B^d).

    Newton's identities applied to exp(-sum tr(B^d) x^d / d), arranged
    division-free except for the single division by the coefficient index:

        k * c_k = -sum_{i=1..k} tr(B^i) * c_{k-i}.

    Input traces (tr B^1, ..., tr B^D) yield c_0..c_D.  They are integers
    whenever the traces come from an integer matrix; the first division
    that leaves a remainder is a CheckFailed naming `what` and the
    coefficient index.
    """
    coeffs = [1]
    for k in range(1, len(traces) + 1):
        num = -sum(t * x for t, x in zip(traces, reversed(coeffs)))
        c, rem = divmod(num, k)
        if rem:
            g = math.gcd(num, k)
            raise CheckFailed(f"{what}: coefficient {k} is non-integral "
                              f"({num // g}/{k // g})",
                              coefficient=k)
        coeffs.append(c)
    return coeffs


def traces_from_det(coeffs: Sequence[int], degree: int) -> list[int]:
    """Inverse of :func:`det_from_traces`: power sums from det(1 - x*B).

    Division-free: tr(B^d) = -d*c_d - sum_{i<d} c_i tr(B^(d-i)).
    `coeffs` is [c_0=1, c_1, ...]; missing high coefficients count as zero.
    """
    traces: list[int] = []
    for d in range(1, degree + 1):
        cd = coeffs[d] if d < len(coeffs) else 0
        traces.append(-d * cd - sum(
            c * t for c, t in zip(coeffs[1:d], reversed(traces))))
    return traces
