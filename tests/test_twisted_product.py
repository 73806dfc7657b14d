"""The group-ring twisted product against the ring-element oracle, the
int64/object choice at its bound, the working-set guard, and the per-run
p_{n,v} memo."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim import tower
from towerlim.cli import main
from towerlim.cyclo import CycloRing
from towerlim.errors import GuardExceeded
from towerlim.matrices import mat_identity, mat_mul, mat_vec_mod
from towerlim.tower import (
    build_ring,
    frobenius_product,
    make_tower_spec,
    orbit_params,
    r_poly,
    scalar_congruence_rows,
)

from oracles import mat_pow_mod

PROPS = settings(derandomize=True, database=None, max_examples=200,
                 deadline=None)


def f_eval(spec, ring, w):
    """F(z^w): each coefficient matrix weighted by zeta^(<e, w>)."""
    dots = [sum(e * x for e, x in zip(t.exponents, w)) for t in spec.f_terms]
    return [
        [ring.from_exponent_counts(
            (dots[t], term.matrix[i][j])
            for t, term in enumerate(spec.f_terms) if term.matrix[i][j])
         for j in range(spec.r)]
        for i in range(spec.r)
    ]


def oracle_product(spec, n, v, ring, k):
    """A_n(v) as a product of ring-element matrices, one factor per step,
    with Q^-i v = Q^(k-i) v computed by matrix powering."""
    mod = spec.ell**n
    acc = mat_identity(spec.r, ring.one(), ring.zero())
    for i in range(1, k + 1):
        w = mat_vec_mod(mat_pow_mod(spec.q_matrix, k - i, mod), v, mod)
        acc = mat_mul(acc, f_eval(spec, ring, w))
    return acc


def coeffs(mat):
    return [[x.coeffs for x in row] for row in mat]


def assert_matches_oracle(spec, n, v, ring):
    k = len(tower._q_orbit(spec, n, v))
    assert (coeffs(frobenius_product(spec, n, v, ring))
            == coeffs(oracle_product(spec, n, v, ring, k)))


# ring kinds: (l, precision or None for exact, deepest level drawn from 1)
RINGS = {
    "window": (3, 14, 3),   # l^prec = 3^14 < 2^25
    "wide": (7, 9, 2),      # l^prec = 7^9 > 2^25, still int64
    "exact": (5, None, 2),  # Python ints
}


@st.composite
def products(draw):
    kind = draw(st.sampled_from(sorted(RINGS)))
    ell, prec, deepest = RINGS[kind]
    b = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3))
    shift = [[draw(st.integers(-2, 2)) for _ in range(b)] for _ in range(b)]
    if not any(map(any, shift)):
        shift[0][0] = 1  # Q must differ from the identity
    q = [[int(i == j) + ell * shift[i][j] for j in range(b)]
         for i in range(b)]
    # exponents up to 40 put <e, w> past l^n on most steps
    exps = draw(st.lists(st.tuples(*[st.integers(0, 40)] * b),
                         min_size=1, max_size=3, unique=True))
    mats = [[[draw(st.integers(-9, 9)) for _ in range(r)] for _ in range(r)]
            for _ in exps]
    spec = make_tower_spec(ell, b, r, q, list(zip(exps, mats)), 1)
    n = draw(st.integers(1, deepest))
    v = tuple(draw(st.integers(0, ell**n - 1)) for _ in range(b))
    return spec, n, v, CycloRing(ell, n, prec)


@PROPS
@given(products())
def test_group_ring_product_matches_oracle(case):
    spec, n, v, ring = case
    assert_matches_oracle(spec, n, v, ring)


# l = 3, precision 2: (l^prec - 1) * 2^60 is exactly 2^63
BOUND_COLUMNS = [
    ([[2**59]], [[2**59 - 1]], np.int64),    # 8 * (2^60 - 1) < 2^63
    ([[2**59]], [[-(2**59)]], object),       # exactly at the bound
    ([[2**59]], [[2**59 + 1]], object),      # above it
]


@pytest.mark.parametrize("m0, m1, dtype", BOUND_COLUMNS)
def test_dtype_choice_at_the_int64_bound(m0, m1, dtype):
    spec = make_tower_spec(3, 1, 1, [[4]], [((0,), m0), ((1,), m1)], 1)
    for n in (1, 2):
        ring = CycloRing(3, n, 2)
        assert tower._product_dtype(spec, ring) is dtype
        for v in range(3**n):
            assert_matches_oracle(spec, n, (v,), ring)


@pytest.mark.parametrize("top, dtype", [(2**59 - 1, np.int64),
                                        (2**59, object)])
def test_dtype_bound_sums_a_whole_column(top, dtype):
    # column 1 sums to top + 2^59 over both rows and both terms, column 0
    # to 2; with l^prec = 9 the bound falls at a column sum of 2^60
    spec = make_tower_spec(3, 2, 2, [[4, 0], [0, 4]], [
        ((0, 0), [[1, top], [-1, 0]]),
        ((1, 2), [[0, 0], [0, -(2**59)]]),
    ], 1)
    ring = CycloRing(3, 1, 2)
    assert tower._product_dtype(spec, ring) is dtype
    assert tower._product_dtype(spec, CycloRing(3, 1, None)) is object
    for v in [(1, 0), (1, 2), (2, 2)]:
        assert_matches_oracle(spec, 1, v, ring)


def test_memory_guard_names_level_rep_and_estimate():
    # b = 1, r = 4, l^n = 3^14 fits the orbit cap, but the three int64
    # arrays need 3 * 16 * 3^14 * 8 bytes, about 1.8 GB
    eye = [[int(i == j) for j in range(4)] for i in range(4)]
    spec = make_tower_spec(3, 1, 4, [[4]], [((0,), eye), ((1,), eye)], 14)
    assert 3**14 <= tower.ORBIT_CAP
    with pytest.raises(GuardExceeded) as err:
        frobenius_product(spec, 14, (1,), build_ring(spec, 14))
    msg = str(err.value)
    assert "level 14" in msg and "rep (1,)" in msg
    assert str(3 * 16 * 3**14 * 8) in msg
    # one level down the same product fits
    ring = build_ring(spec, 1)
    assert frobenius_product(spec, 1, (1,), ring)[0][0] == ring.elem([1, 1])


# -- one charpoly per unit class and one per class check --------------------

SCALAR_R2 = make_tower_spec(5, 1, 2, [[6]], [
    ((0,), [[1, 1], [0, 1]]),
    ((1,), [[0, -1], [2, 1]]),
    ((2,), [[3, 0], [1, -2]]),
], 3)


def _count_p_poly(monkeypatch):
    calls = []
    real = tower.p_poly

    def counting(spec, n, v):
        calls.append((n, tuple(v)))
        return real(spec, n, v)

    monkeypatch.setattr(tower, "p_poly", counting)
    return calls


def test_scalar_rows_compute_each_charpoly_once(monkeypatch):
    params = orbit_params(SCALAR_R2)
    want = scalar_congruence_rows(SCALAR_R2, params, {})
    calls = _count_p_poly(monkeypatch)
    assert scalar_congruence_rows(SCALAR_R2, params, {}) == want
    # 4 reps a level, one unit class of 4 orbits: its rep and its check
    assert len(calls) == len(set(calls)) == 6


def test_converge_shares_charpolys_between_aggregates_and_rows(
        monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    pieces = {}
    for n in (1, 2, 3):
        r_poly(SCALAR_R2, n, pieces)
    assert sum(len(pieces[n].units) for n in (1, 2, 3)) == 12
    calls = _count_p_poly(monkeypatch)
    assert scalar_congruence_rows(SCALAR_R2, orbit_params(SCALAR_R2), pieces)
    assert calls == []
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "name": "r2", "ell": 5, "b": 1, "r": 2, "Q": [6], "n_max": 3,
        "F": [{"exponents": list(t.exponents),
               "matrix": [list(row) for row in t.matrix]}
              for t in SCALAR_R2.f_terms],
    }))
    assert main(["converge", "--config", str(cfg), "--mode", "scalar"]) == 0
    capsys.readouterr()
    assert len(calls) == len(set(calls)) == 6
