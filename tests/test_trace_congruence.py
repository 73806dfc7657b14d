"""Tests for integer-matrix trace congruences and trace/determinant bridges."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim.errors import CheckFailed, InputError
from towerlim.matfermat import (
    arnold_zarelua_check,
    det_from_traces,
    poly_diff_val,
    traces_from_det,
)
from towerlim.matrices import det_one_minus_y, mat_pow, mat_trace

from oracles import rational_det_from_traces

SWEEP_SEED = 971
PROPS = settings(derandomize=True, database=None, max_examples=80,
                 deadline=None)


def trace_power(a, e):
    """tr(A^e), exact, through the matrix-power route."""
    return mat_trace(mat_pow(a, e, 1, 0))


def closed_walk_count(a, length):
    """Weighted count of closed walks of the given length.

    Brute-force enumeration over all vertex sequences, each weighted by the
    product of traversed entry values: independent of the matrix-power
    route (it never multiplies matrices), and exponential in `length`.
    """
    if length == 0:
        return len(a)
    total = 0
    for walk in product(range(len(a)), repeat=length):
        w = 1
        for i in range(length):
            w *= a[walk[i]][walk[(i + 1) % length]]
            if w == 0:
                break
        total += w
    return total


def test_closed_walks_equal_power_traces():
    # tr(A^m) counts closed walks of length m in the weighted digraph of A.
    rng = random.Random(SWEEP_SEED)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        for length in range(1, 6):
            assert closed_walk_count(a, length) == trace_power(a, length)


def test_trace_power_small_cases():
    a = [[2, 1], [1, 1]]
    assert trace_power(a, 1) == 3
    assert trace_power(a, 2) == 7
    assert trace_power([[5]], 4) == 625


def test_congruence_holds_on_random_sweep():
    """tr(A^(l^(n+1))) = tr(A^(l^n)) mod l^(n+1) for every integer matrix."""
    rng = random.Random(SWEEP_SEED + 1)
    for _ in range(150):
        n_dim = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(n_dim)] for _ in range(n_dim)]
        ell = rng.choice([3, 5, 7])
        n = rng.randint(0, 2)
        rep = arnold_zarelua_check(a, ell, n)
        assert rep.passed is True
        assert rep.required == n + 1
        if not rep.trace_saturated:
            assert rep.trace_val >= n + 1
        assert rep.trace_hi % ell ** (n + 1) == rep.trace_lo % ell ** (n + 1)


def test_congruence_report_record_shape():
    rep = arnold_zarelua_check([[2, 1], [0, 3]], 3, 1)
    rec = rep.as_record()
    assert rec["status"] == "pass"
    assert rec["required"] == 2
    assert int(rec["trace_low"]) == rep.trace_lo
    assert int(rec["trace_high"]) == rep.trace_hi
    assert rec["trace_valuation"] == rep.trace_val


def test_even_prime_is_measured_only():
    rep = arnold_zarelua_check([[1, 1], [1, 0]], 2, 1)
    assert rep.passed is None
    assert rep.as_record()["status"] == "measured"


def test_charpoly_congruence_tracks_trace_congruence():
    rng = random.Random(SWEEP_SEED + 2)
    for _ in range(40):
        a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        rep = arnold_zarelua_check(a, 5, 1)
        assert rep.passed is True
        if not rep.charpoly_saturated:
            assert rep.charpoly_val >= rep.required


def test_input_validation():
    with pytest.raises(InputError):
        arnold_zarelua_check([[1, 2]], 3, 1)  # not square
    with pytest.raises(InputError):
        arnold_zarelua_check([[1]], 6, 1)  # composite modulus
    with pytest.raises(InputError):
        arnold_zarelua_check([[1]], 3, -1)


def test_traces_and_determinant_coefficients_are_inverse():
    rng = random.Random(SWEEP_SEED + 3)
    for _ in range(30):
        deg = rng.randint(1, 6)
        traces = [rng.randint(-20, 20) for _ in range(deg)]
        coeffs = rational_det_from_traces(traces)
        assert len(coeffs) == deg + 1
        assert coeffs[0] == 1
        back = traces_from_det(coeffs, deg)
        assert [Fraction(t) for t in traces] == [Fraction(b) for b in back]


def test_det_from_traces_known_matrix():
    # A = [[2,1],[1,1]] has det(I - yA) = 1 - 3y + y^2.
    traces = [trace_power([[2, 1], [1, 1]], m) for m in (1, 2)]
    assert det_from_traces(traces) == [1, -3, 1]


def test_det_from_traces_raises_at_the_first_non_integral_coefficient():
    # c_1 = -1, then 2 c_2 = -(1 * c_1 + 0 * c_0) = 1
    with pytest.raises(CheckFailed) as err:
        det_from_traces([1, 0, 5], "test polynomial", family="x", level=3)
    assert err.value.context == {"coefficient": 2, "family": "x", "level": 3}
    assert str(err.value) == ("test polynomial: coefficient 2 is "
                              "non-integral (1/2)")


@PROPS
@given(st.integers(1, 4).flatmap(lambda r: st.lists(
    st.lists(st.integers(-6, 6), min_size=r, max_size=r),
    min_size=r, max_size=r)), st.integers(0, 3))
def test_det_from_traces_matches_rationals_on_integer_matrices(a, extra):
    r = len(a)
    traces = [trace_power(a, d) for d in range(1, r + extra + 1)]
    got = det_from_traces(traces)
    assert got == rational_det_from_traces(traces)
    assert all(type(c) is int for c in got)
    assert got == det_one_minus_y(a, 1, 0) + [0] * extra


@PROPS
@given(st.lists(st.integers(-30, 30), min_size=1, max_size=8))
def test_det_from_traces_raises_where_the_rationals_turn_fractional(traces):
    want = rational_det_from_traces(traces)
    bad = next((i for i, c in enumerate(want) if c.denominator != 1), None)
    if bad is None:
        assert det_from_traces(traces) == want
        return
    with pytest.raises(CheckFailed) as err:
        det_from_traces(traces, "h", level=7)
    assert err.value.context == {"coefficient": bad, "level": 7}
    assert str(err.value).endswith(f"non-integral ({want[bad]})")


def test_poly_diff_val():
    assert poly_diff_val([1, 9, 27], [1, 0, 27], 3, 10) == (2, False)
    assert poly_diff_val([1, 2, 3], [1, 2, 3], 3, 10) == (10, True)
    assert poly_diff_val([1, 2], [1, 2, 9], 3, 10) == (2, False)
