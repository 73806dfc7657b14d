"""The group-ring aggregate r_n against the serial ring-element oracle, its
int64/object choice, its working-set guard, the context its checks carry,
and that it does no ring multiplies of its own."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim import tower
from towerlim.cli import main
from towerlim.cyclo import CycloElem, CycloRing
from towerlim.errors import CheckFailed, GuardExceeded
from towerlim.tower import (
    build_ring,
    make_tower_spec,
    p_poly,
    primitive_orbit_reps,
    r_poly,
)

from oracles import poly_mul

PROPS = settings(derandomize=True, database=None, max_examples=100,
                 deadline=None)

GEN = make_tower_spec(3, 2, 1, [[4, 0], [3, 4]],
                      [((0, 0), [[1]]), ((3, 1), [[1]])], 4)


def oracle_r_poly(spec, n):
    """r_n multiplied out serially: one ring multiply per pair of terms."""
    reps = primitive_orbit_reps(spec, n)
    ring = build_ring(spec, n)
    k_n = min(s for _, s in reps)
    poly = [ring.one()]
    for v, size in reps:
        p = p_poly(spec, n, v, ring)
        poly = poly_mul(poly, p, ring.zero(), size // k_n)
    assert all(not any(c.coeffs[1:]) for c in poly)
    meta = {
        "level": n,
        "k_n": k_n,
        "num_orbits": len(reps),
        "orbit_sizes": sorted({s for _, s in reps}),
        "degree": len(poly) - 1,
    }
    return tuple(c.coeffs[0] for c in poly), meta


def assert_matches_oracle(spec, n):
    poly, meta = r_poly(spec, n)
    assert (poly, meta) == oracle_r_poly(spec, n)
    return meta


@st.composite
def towers(draw):
    ell = draw(st.sampled_from([3, 5]))
    b = draw(st.integers(1, 2))
    r = draw(st.integers(1, 3))
    if b == 1:
        q = [[1 + ell * draw(st.sampled_from([-1, 1, 2]))]]
    else:
        # a rank-one shift u w^T, as in Q = [[1, 3], [0, 1]], leaves a line
        # of slower vectors: orbits of sizes 1 and 3 at level 2 (s = 3)
        pair = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
        if draw(st.booleans()):
            u, w = draw(pair), draw(pair)
            shift = [[u[i] * w[j] for j in range(2)] for i in range(2)]
        else:
            shift = [list(draw(pair)), list(draw(pair))]
        if not any(map(any, shift)):
            shift[0][1] = 1  # Q must differ from the identity
        q = [[int(i == j) + ell * shift[i][j] for j in range(2)]
             for i in range(2)]
    deepest = {(3, 1): 3, (3, 2): 2, (5, 1): 3, (5, 2): 1}[(ell, b)]
    n = draw(st.integers(1, deepest))
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * b),
                         min_size=1, max_size=3, unique=True))
    mats = [[[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(r)]
            for _ in exps]
    prec = draw(st.sampled_from([None, 12, 40]))
    return make_tower_spec(ell, b, r, q, list(zip(exps, mats)), n, prec), n


@PROPS
@given(towers())
def test_group_ring_aggregate_matches_oracle(case):
    spec, n = case
    assert_matches_oracle(spec, n)


@pytest.mark.parametrize("q", [[[1, 3], [0, 1]], [[4, 3], [0, 1]]])
@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize("prec, dtype", [(None, np.int64), (40, object)])
def test_aggregate_matches_oracle_with_mixed_orbit_sizes(q, r, prec, dtype):
    mats = [[[(i + 2 * j + t) % 5 - 2 for j in range(r)] for i in range(r)]
            for t in range(3)]
    spec = make_tower_spec(3, 2, r, q, list(zip(
        [(0, 0), (1, 2), (3, 1)], mats)), 2, prec)
    assert tower._aggregate_dtype(spec, build_ring(spec, 2)) is dtype
    assert assert_matches_oracle(spec, 2)["orbit_sizes"] == [1, 3]


def test_aggregate_dtype_at_the_int64_bound():
    # (r+1) * phi * (3^19 - 1)^2 is about 5.4e18 < 2^63 at phi = 2 and
    # about 1.6e19 > 2^63 at phi = 6
    spec = make_tower_spec(3, 1, 1, [[4]], [((0,), [[2]]), ((1,), [[-1]])],
                           2, 19)
    assert tower._aggregate_dtype(spec, build_ring(spec, 1)) is np.int64
    assert tower._aggregate_dtype(spec, build_ring(spec, 2)) is object
    for n in (1, 2):
        assert_matches_oracle(spec, n)


ZERO_F = {"ell": 5, "b": 1, "r": 1, "Q": [[6]],
          "F": [{"exponents": [1], "matrix": [[0]]}], "n_max": 2}


@pytest.mark.parametrize("prec, dtype", [(27, np.int64), (28, object)])
def test_zero_f_keeps_the_modulus_in_range(prec, dtype, tmp_path, capsys,
                                           monkeypatch):
    # all-zero F: the column-sum weight is 0, yet `%= 5^28` needs Python
    # ints because 5^28 > 2^63
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    spec = make_tower_spec(5, 1, 1, [[6]], [((1,), [[0]])], 2, prec)
    for n in (0, 1, 2):
        assert tower._product_dtype(spec, CycloRing(5, n, prec)) is dtype
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({**ZERO_F, "precision": prec}))
    assert main(["converge", "--config", str(cfg), "--mode", "general"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"] and all(
        row["status"] == "pass" for row in report["rows"])


def test_aggregate_does_no_ring_multiplies(monkeypatch):
    inside_p = []
    outside = []
    real_p = tower.p_poly
    real_mul = CycloElem.__mul__

    def counting_p(*args, **kwargs):
        inside_p.append(1)
        try:
            return real_p(*args, **kwargs)
        finally:
            inside_p.pop()

    def counting_mul(a, b):
        if not inside_p:
            outside.append(b)
        return real_mul(a, b)

    monkeypatch.setattr(tower, "p_poly", counting_p)
    monkeypatch.setattr(CycloElem, "__mul__", counting_mul)
    monkeypatch.setattr(CycloElem, "__rmul__", counting_mul)
    poly, meta = r_poly(GEN, 4)
    assert meta["degree"] == 216
    assert outside == []


def test_aggregate_memory_guard_names_level_degree_and_estimate(monkeypatch):
    pieces = {}
    want, _ = r_poly(GEN, 3, pieces=pieces)
    need = 3 * 73 * 27 * 8  # three int64 arrays of (72 + 1) x 3^3
    monkeypatch.setattr(tower, "MAX_PRODUCT_BYTES", need)
    assert r_poly(GEN, 3, pieces=pieces)[0] == want
    monkeypatch.setattr(tower, "MAX_PRODUCT_BYTES", need - 1)
    with pytest.raises(GuardExceeded) as err:
        r_poly(GEN, 3, pieces=pieces)
    msg = str(err.value)
    assert "level 3" in msg and "degree 72" in msg and str(need) in msg


def _write_gen(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "ell": 3, "b": 2, "r": 1, "Q": [[4, 0], [3, 4]],
        "F": [{"exponents": [0, 0], "matrix": [[1]]},
              {"exponents": [3, 1], "matrix": [[1]]}],
        "n_max": 2,
    }))
    return str(cfg)


def test_converge_exits_4_when_the_aggregate_would_not_fit(
        monkeypatch, tmp_path, capsys):
    # level 1 needs 3 * 9 * 3 * 8 = 648 bytes, level 2 3 * 25 * 9 * 8 =
    # 5400; every twisted product needs at most 3 * 9 * 8 = 216
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    monkeypatch.setattr(tower, "MAX_PRODUCT_BYTES", 1000)
    assert main(["converge", "--config", _write_gen(tmp_path),
                 "--mode", "general"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "aggregate r_2 at level 2 has degree 24" in err


def test_size_check_names_level_rep_and_size(monkeypatch):
    reps = [((1, 0), 3), ((0, 1), 9), ((1, 1), 4)]
    monkeypatch.setattr(tower, "primitive_orbit_reps", lambda spec, n: reps)
    with pytest.raises(CheckFailed) as err:
        r_poly(GEN, 2)
    assert err.value.context == {"level": 2, "rep": (1, 1), "size": 4}


def _skew_one_rep(monkeypatch, level):
    """p_poly returning zeta * p for the first rep at `level`."""
    target = primitive_orbit_reps(GEN, level)[0][0]
    real = tower.p_poly

    def skewed(spec, n, v, ring=None):
        p = real(spec, n, v, ring)
        if n == level and tuple(v) == target:
            z = p[0].ring.zeta()
            p = tuple(z * c for c in p)
        return p

    monkeypatch.setattr(tower, "p_poly", skewed)


def test_stability_check_names_level_and_coefficient(monkeypatch):
    _skew_one_rep(monkeypatch, 2)
    assert r_poly(GEN, 1)[1]["degree"] == 8
    with pytest.raises(CheckFailed) as err:
        r_poly(GEN, 2)
    assert err.value.context == {"level": 2, "coefficient": 0}
    assert "Galois stability violated" in str(err.value)


def test_converge_exits_2_on_an_unstable_aggregate(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    _skew_one_rep(monkeypatch, 2)
    assert main(["converge", "--config", _write_gen(tmp_path),
                 "--mode", "general"]) == 2
    out, err = capsys.readouterr()
    assert "pass" not in out
    assert "r_2 coefficient 0 is not in the base ring" in err
