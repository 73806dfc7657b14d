"""Property tests for the shared polynomial, matrix, orbit and valuation
helpers, each against a plain oracle written out here."""

from __future__ import annotations

from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim.charsums import mult_order
from towerlim.cyclo import CycloRing
from towerlim.errors import CheckFailed, InputError
from towerlim.matfermat import poly_diff_val
from towerlim.matrices import mat_vec_mod, orbit, orbit_reps
from towerlim.padic import min_val
from towerlim.tower import make_tower_spec, orbit_order

from oracles import mat_pow_mod, poly_mul

PROPS = settings(derandomize=True, database=None, max_examples=60,
                 deadline=None)

ints = st.integers(-50, 50)
int_polys = st.lists(ints, min_size=1, max_size=7)


def schoolbook(a, b, zero, stretch):
    """a(y) * b(y^stretch) by expanding b into a dense polynomial first."""
    dense = [zero] * ((len(b) - 1) * stretch + 1)
    for i, c in enumerate(b):
        dense[i * stretch] = c
    out = [zero] * (len(a) + len(dense) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(dense):
            out[i + j] = out[i + j] + x * y
    return out


# The serial oracle `poly_mul` of tests/oracles.py, checked against a
# dense expansion of b(y^stretch).
@PROPS
@given(int_polys, int_polys, st.integers(1, 4))
def test_poly_mul_ints_matches_schoolbook(a, b, stretch):
    assert poly_mul(a, b, 0, stretch) == schoolbook(a, b, 0, stretch)


@PROPS
@given(st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                min_size=1, max_size=4),
       st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2),
                min_size=1, max_size=4),
       st.integers(1, 3), st.sampled_from([None, 4]))
def test_poly_mul_cyclo_matches_schoolbook(a, b, stretch, prec):
    ring = CycloRing(3, 1, prec)  # phi = 2
    ea = [ring.elem(c) for c in a]
    eb = [ring.elem(c) for c in b]
    assert (poly_mul(ea, eb, ring.zero(), stretch)
            == schoolbook(ea, eb, ring.zero(), stretch))


def test_poly_mul_int_factor_scales_ring_coefficients():
    ring = CycloRing(5, 1, None)
    root = ring.zeta(2) * 3
    h = [ring.one(), ring.zeta(1)]
    want = [ring.one(), ring.zeta(1) + root, ring.zeta(1) * root]
    assert poly_mul(h, [1, root], ring.zero()) == want


@st.composite
def unipotent_mod(draw, ell=3, n=3):
    """A b x b integer matrix congruent to the identity mod l, b <= 4."""
    b = draw(st.integers(1, 4))
    mod = ell**n
    return [
        [(int(i == j) + ell * draw(st.integers(0, mod))) for j in range(b)]
        for i in range(b)
    ], mod


@PROPS
@given(unipotent_mod(), st.data())
def test_orbit_closes_after_the_least_fixing_ell_power(qm, data):
    q, mod = qm
    b = len(q)
    v = tuple(data.draw(st.lists(st.integers(0, mod - 1), min_size=b,
                                 max_size=b)))
    walk = orbit(q, v, mod)
    k = len(walk)
    assert walk[0] == v and len(set(walk)) == k
    assert mat_vec_mod(q, walk[-1], mod) == v

    def q_power_v(e):
        return mat_vec_mod(mat_pow_mod(q, e, mod), v, mod)

    # the powering oracle: the least l^t with Q^(l^t) v = v
    t = 0
    while q_power_v(3**t) != v:
        t += 1
    assert k == 3**t
    # the backward walk Q^-i v = Q^(k-i) v, i = 1..k, is the walk reversed
    back = list(reversed(walk))
    assert back == [q_power_v(k - i) for i in range(1, k + 1)]


@PROPS
@given(st.integers(-200, 200), st.sampled_from([1, 3, 9, 27, 5, 25, 49]))
def test_mult_order_matches_brute_force(q, mod):
    if gcd(q, mod) != 1:
        with pytest.raises(InputError):
            mult_order(q, mod)
        return
    k, t = 1, q % mod
    while t != 1 % mod:
        t = t * q % mod
        k += 1
    assert mult_order(q, mod) == k


def test_orbit_that_does_not_close_names_rep_and_context():
    # 1 -> 3 -> 0 -> 0 -> ... mod 9 never returns to 1
    with pytest.raises(CheckFailed) as exc:
        orbit([[3]], (1,), 9, level=2)
    assert exc.value.context == {"rep": (1,), "level": 2}


@PROPS
@given(st.sampled_from([
    [[4, 0], [3, 4]], [[4, 3], [0, 7]], [[10, 0], [0, 10]], [[1, 3], [0, 1]],
]), st.integers(1, 2))
def test_orbit_walk_partitions_kept_points(q, n):
    ell, b = 3, 2
    mod = ell**n
    spec = make_tower_spec(ell, b, 1, q, [((0, 0), [[1]])], n_max=3)

    def keep(v):
        return any(x % ell for x in v)

    reps = orbit_reps(q, mod, b, keep)
    covered = []
    for rep, size in reps:
        walk = [rep]
        while True:
            nxt = mat_vec_mod(q, walk[-1], mod)
            if nxt == rep:
                break
            walk.append(nxt)
        assert len(walk) == size == orbit_order(spec, n, rep)
        assert rep == min(walk)
        assert orbit(q, rep, mod) == walk
        covered.extend(walk)
    kept = [v for v in product(range(mod), repeat=b) if keep(v)]
    assert sorted(covered) == kept


def brute_val(ell, x):
    v = 0
    while x % ell == 0:
        x //= ell
        v += 1
    return v


@PROPS
@given(int_polys, int_polys, st.integers(0, 6))
def test_poly_diff_val_matches_brute_force(p1, p2, shift):
    p1 = [x * 3**shift for x in p1]
    p2 = [x * 3**shift for x in p2]
    n = max(len(p1), len(p2))
    diffs = [(p1[i] if i < len(p1) else 0) - (p2[i] if i < len(p2) else 0)
             for i in range(n)]
    vals = [brute_val(3, d) for d in diffs if d]
    want = (min(min(vals), 5), False) if vals else (5, True)
    assert poly_diff_val(p1, p2, 3, 5) == want


def test_ell_divisibility_saturation():
    # on an exact ring the valuation of an element is min_val of its
    # coefficients, None meaning zero
    exact = CycloRing(3, 2, None)
    assert min_val(3, exact.zero().coeffs) is None
    assert min_val(3, exact.from_int(3**7).coeffs) == 7
