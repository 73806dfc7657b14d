"""Property tests for the shared polynomial, matrix, orbit and valuation
helpers, each against a plain oracle written out here."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim.cyclo import CycloRing, ell_divisibility
from towerlim.errors import InputError
from towerlim.matfermat import poly_diff_val
from towerlim.matrices import (
    inverse_orbit,
    mat_inv_mod,
    mat_mul_mod,
    mat_vec_mod,
    orbit_reps,
    poly_mul,
)
from towerlim.tower import make_tower_spec, orbit_order

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
@given(unipotent_mod())
def test_mat_inv_mod_is_an_inverse(data):
    a, mod = data
    b = len(a)
    inv = mat_inv_mod(a, mod)
    ident = [[int(i == j) for j in range(b)] for i in range(b)]
    assert mat_mul_mod(a, inv, mod) == ident
    assert mat_mul_mod(inv, a, mod) == ident


@pytest.mark.parametrize("a", [
    [[3]],
    [[1, 2], [2, 4]],
    [[3, 0], [0, 1]],
    [[1, 1, 0], [0, 1, 1], [1, 2, 1]],
])
def test_mat_inv_mod_rejects_singular(a):
    with pytest.raises(InputError):
        mat_inv_mod(a, 27)


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
        orbit = [rep]
        while True:
            nxt = mat_vec_mod(q, orbit[-1], mod)
            if nxt == rep:
                break
            orbit.append(nxt)
        assert len(orbit) == size == orbit_order(spec, n, rep)
        assert rep == min(orbit)
        # the inverse walk visits the same orbit, ending back at rep
        back = list(inverse_orbit(q, rep, mod, size))
        assert back[-1] == rep and sorted(back) == sorted(orbit)
        covered.extend(orbit)
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
    exact = CycloRing(3, 2, None)
    fixed = CycloRing(3, 2, 5)
    assert ell_divisibility(exact.zero()) == (-1, True)
    assert ell_divisibility(fixed.zero()) == (5, True)
    assert ell_divisibility(exact.from_int(3**7)) == (7, False)
    assert ell_divisibility(fixed.from_int(3**4) * fixed.zeta(1)) == (4, False)
