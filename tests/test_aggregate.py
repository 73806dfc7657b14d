"""r_n as the product of its class norms against the serial ring-element
oracle, each norm's descent against the serial group-ring norm, the norms'
working-set guard, the context their checks carry, and that r_poly does no
ring multiplies of its own; the Galois-transported p_{n,v} it multiplies
against p_poly at every rep, and the class checks."""

from __future__ import annotations

import json
import sys

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
    level_pieces,
    make_tower_spec,
    p_poly,
    primitive_orbit_reps,
    r_poly,
)

from oracles import poly_mul, serial_class_norm

PROPS = settings(derandomize=True, database=None, max_examples=100,
                 deadline=None)

GEN_F = [((0, 0), [[1]]), ((3, 1), [[1]])]
GEN = make_tower_spec(3, 2, 1, [[4, 0], [3, 4]], GEN_F, 4)
# GEN at precision 20, where the serial norms' arrays hold Python ints
GEN_P20 = make_tower_spec(3, 2, 1, [[4, 0], [3, 4]], GEN_F, 4, 20)
# l = 5, r = 2: classes of 4 and 20 orbits, c = 4 * 5^a with a = 0 and 1
L5OBJ = make_tower_spec(5, 2, 2, [[6, 5], [0, 6]], [
    ((0, 0), [[1, 0], [0, 1]]), ((1, 2), [[0, 1], [1, 1]]),
    ((2, 0), [[2, -1], [0, 1]])], 3)


def oracle_r_poly(spec, n):
    """r_n multiplied out serially: one ring multiply per pair of terms."""
    reps = primitive_orbit_reps(spec, n)
    ring = build_ring(spec, n)
    k_n = min(s for _, s in reps)
    poly = [ring.one()]
    for v, size in reps:
        p = p_poly(spec, n, v)
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
    poly, meta = r_poly(spec, n, {})
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


def assert_norms_match_serial(spec, n):
    """Each class norm by descent from its rep equals the serial product
    of all its members' charpolys; returns the class sizes."""
    level = level_pieces(spec, n)
    for members in level.classes:
        v = members[0]
        stages = tower._descent_stages(spec.ell, len(members))
        polys = {u: level.charpoly(u) for u in members}
        assert (tower._class_norm(spec, n, v, level.polys[v], stages)
                == serial_class_norm(spec, n, polys, members))
    return {len(c) for c in level.classes}


@pytest.mark.parametrize("spec, n, sizes", [
    (GEN, 1, {2}), (GEN, 2, {2, 6}), (GEN, 3, {2, 18}),
    (GEN, 4, {2, 6, 54}), (GEN_P20, 4, {2, 6, 54}),
    (L5OBJ, 1, {4}), (L5OBJ, 2, {4, 20}),
], ids=["gen-1", "gen-2", "gen-3", "gen-4", "gen-p20-4", "l5obj-1",
        "l5obj-2"])
def test_descent_matches_the_serial_class_norm(spec, n, sizes):
    assert assert_norms_match_serial(spec, n) == sizes


@PROPS
@given(towers())
def test_descent_matches_the_serial_class_norm_on_random_towers(case):
    spec, n = case
    for m in range(1, n + 1):
        assert_norms_match_serial(spec, m)


@PROPS
@given(towers())
def test_transported_memo_matches_p_poly_at_every_rep(case):
    spec, n = case
    pieces = {}
    for m in range(1, n + 1):
        reps = primitive_orbit_reps(spec, m)
        r_poly(spec, m, pieces)
        assert ({v: pieces[m].charpoly(v) for v, _ in reps}
                == {v: p_poly(spec, m, v) for v, _ in reps})


def test_one_direct_charpoly_per_class_and_one_per_check(monkeypatch):
    calls = []
    real = tower.p_polys

    def counting(spec, n, reps, vs):
        calls.extend([n] * len(vs))
        return real(spec, n, reps, vs)

    monkeypatch.setattr(tower, "p_polys", counting)
    pieces = {}
    for n in (1, 2, 3, 4):
        r_poly(GEN, n, pieces)
    # every class of GEN has two or more orbits, so each gets its check
    assert [pieces[n].work() for n in (1, 2, 3, 4)] == [
        {"reps": r, "classes": c, "direct_charpolys": 2 * c,
         "product_steps": k}
        for r, c, k in ((8, 4, 1), (24, 6, 3), (72, 12, 9), (216, 18, 27))]
    assert [calls.count(n) for n in (1, 2, 3, 4)] == [8, 12, 24, 36]


@pytest.mark.parametrize("q", [[[1, 3], [0, 1]], [[4, 3], [0, 1]]])
@pytest.mark.parametrize("r", [1, 2])
# `side`: the dtype the serial group-ring norms take at that precision
@pytest.mark.parametrize("prec, side", [(None, "int64"), (40, "object")])
def test_aggregate_matches_oracle_with_mixed_orbit_sizes(q, r, prec, side):
    mats = [[[(i + 2 * j + t) % 5 - 2 for j in range(r)] for i in range(r)]
            for t in range(3)]
    spec = make_tower_spec(3, 2, r, q, list(zip(
        [(0, 0), (1, 2), (3, 1)], mats)), 2, prec)
    assert assert_matches_oracle(spec, 2)["orbit_sizes"] == [1, 3]


def test_aggregate_dtype_at_the_int64_bound():
    # the serial group-ring norms' int64/object boundary:
    # (r+1) * phi * (3^19 - 1)^2 is about 5.4e18 < 2^63 at phi = 2 and
    # about 1.6e19 > 2^63 at phi = 6
    spec = make_tower_spec(3, 1, 1, [[4]], [((0,), [[2]]), ((1,), [[-1]])],
                           2, 19)
    for n in (1, 2):
        assert_matches_oracle(spec, n)
        assert_norms_match_serial(spec, n)


ZERO_F = {"ell": 5, "b": 1, "r": 1, "Q": [[6]],
          "F": [{"exponents": [1], "matrix": [[0]]}], "n_max": 2}


@pytest.mark.parametrize("prec, dtype", [(27, np.int64), (28, object)])
def test_zero_f_keeps_the_modulus_in_range(prec, dtype, tmp_path, capsys,
                                           monkeypatch):
    # all-zero F: the column-sum weight is 0, yet `%= 5^28` needs Python
    # ints because 5^28 > 2^63
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    spec = make_tower_spec(5, 1, 1, [[6]], [((1,), [[0]])], 2, prec)
    for n in (1, 2):
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
    real_p = tower.p_polys
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

    monkeypatch.setattr(tower, "p_polys", counting_p)
    monkeypatch.setattr(CycloElem, "__mul__", counting_mul)
    monkeypatch.setattr(CycloElem, "__rmul__", counting_mul)
    poly, meta = r_poly(GEN, 4, {})
    assert meta["degree"] == 216
    assert outside == []


def convolve_bytes(m1, m2, q):
    """The guard's estimate of one convolve of m1 and m2 entries below q,
    written out: per output slot, three w-byte packed slots, a list
    pointer and one Python int."""
    bound = (q - 1) ** 2 * min(m1, m2)
    w = (bound.bit_length() + 8) // 8
    return (m1 + m2 - 1) * (3 * w + 8 + sys.getsizeof(bound))


def test_aggregate_memory_guard_names_level_degree_and_estimate(monkeypatch):
    pieces = {}
    want, _ = r_poly(GEN, 3, pieces)
    # the largest class at level 3, of (1, 0), has 18 = 2 * 3^2 orbits: p
    # lies in K_3 (phi 18, rows padded to stride 35), and the last product
    # of its stage multiplies two conjugates (degree 2, 3 rows) by a third
    # (2 rows); the stages below, in K_2 and K_1, are smaller
    assert max(map(len, pieces[3].classes)) == 18
    need = convolve_bytes(3 * 35, 2 * 35, 3**14)
    monkeypatch.setattr(tower, "MAX_PRODUCT_BYTES", need)
    assert r_poly(GEN, 3, pieces)[0] == want
    monkeypatch.setattr(tower, "MAX_PRODUCT_BYTES", need - 1)
    with pytest.raises(GuardExceeded) as err:
        r_poly(GEN, 3, pieces)
    assert err.value.context == {"level": 3, "rep": (1, 0), "degree": 18,
                                 "need": need, "limit": need - 1}
    msg = str(err.value)
    assert "level 3" in msg and "degree 18" in msg and str(need) in msg


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
    # precision 10: level 1's and level 2's two-orbit class norms multiply
    # two conjugates in K_1 (2 rows at stride 3 each); level 2's six-orbit
    # class of (1, 0) two conjugates by a third in K_2 (3 and 2 rows at
    # stride 11); every twisted product needs at most 3 * 9 * 8 = 216
    assert convolve_bytes(6, 6, 3**10) < 1000 < convolve_bytes(33, 22, 3**10)
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    monkeypatch.setattr(tower, "MAX_PRODUCT_BYTES", 1000)
    assert main(["converge", "--config", _write_gen(tmp_path),
                 "--mode", "general"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "class norm of rep (1, 0) at level 2 has degree 6" in err


def test_size_check_names_level_rep_and_size(monkeypatch):
    reps = [((1, 0), 3), ((0, 1), 9), ((1, 1), 4)]
    monkeypatch.setattr(tower, "primitive_orbit_reps", lambda spec, n: reps)
    with pytest.raises(CheckFailed) as err:
        r_poly(GEN, 2, {})
    assert err.value.context == {"level": 2, "rep": (1, 1), "size": 4}


def _skewed(p):
    """zeta * p, coefficient by coefficient: off the base ring already in
    the constant coefficient 1."""
    z = p[0].ring.zeta()
    return tuple(z * c for c in p)


def _skew_one_rep(monkeypatch, level, target):
    """p_polys returning zeta * p at rep `target` of `level`."""
    real = tower.p_polys

    def skewed(spec, n, reps, vs):
        polys, steps = real(spec, n, reps, vs)
        if n == level and target in polys:
            polys[target] = _skewed(polys[target])
        return polys, steps

    monkeypatch.setattr(tower, "p_polys", skewed)


def _skew_the_memo(monkeypatch, level):
    """level_pieces filling the memo with zeta * p at the first rep of
    `level`, after its class checks passed: what reaches r_poly's own
    base-ring check of that rep's class norm."""
    real = tower.level_pieces

    def skewed(spec, n):
        pieces = real(spec, n)
        if n == level:
            v = pieces.reps[0][0]
            pieces.polys[v] = _skewed(pieces.polys[v])
        return pieces

    monkeypatch.setattr(tower, "level_pieces", skewed)


def _first_class(level):
    """GEN's first rep v at `level`, the rep u of 2 v (2 is the least
    primitive root mod 3^n) and h = 2^c, c the orbits in the class, found
    by brute force: lex-least members of walked orbits."""
    mod = 3**level

    def rep_of(w):
        return min(tower._q_orbit(GEN, level, w))

    v = primitive_orbit_reps(GEN, level)[0][0]
    c, h = 1, 2
    while rep_of(tuple(h * x for x in v)) != v:
        c, h = c + 1, h * 2 % mod
    return v, rep_of(tuple(2 * x for x in v)), h


def test_stability_check_names_level_and_coefficient():
    # a level already in the memo is read, not recomputed, so a skewed
    # entry there reaches the base-ring check past the class checks
    pieces = {}
    for n in (1, 2):
        r_poly(GEN, n, pieces)
    v = primitive_orbit_reps(GEN, 2)[0][0]
    pieces[2].polys[v] = _skewed(pieces[2].polys[v])
    assert r_poly(GEN, 1, pieces)[1]["degree"] == 8
    with pytest.raises(CheckFailed) as err:
        r_poly(GEN, 2, pieces)
    assert err.value.context == {"level": 2, "rep": v, "coefficient": 0}
    assert "Galois stability violated" in str(err.value)


def test_stabiliser_check_names_level_rep_member_unit_and_coefficient(
        monkeypatch):
    v, _, h = _first_class(2)
    assert h != 1  # sigma_h is not the identity: the check has force
    _skew_one_rep(monkeypatch, 2, v)
    with pytest.raises(CheckFailed) as err:
        r_poly(GEN, 2, {})
    assert err.value.context == {"level": 2, "rep": v, "member": v,
                                 "unit": h, "coefficient": 0}
    assert "stabiliser check" in str(err.value)


def test_direct_check_names_level_rep_member_unit_and_coefficient(
        monkeypatch):
    v, u, _ = _first_class(2)
    assert u != v
    _skew_one_rep(monkeypatch, 2, u)
    with pytest.raises(CheckFailed) as err:
        r_poly(GEN, 2, {})
    assert err.value.context == {"level": 2, "rep": v, "member": u,
                                 "unit": 2, "coefficient": 0}
    assert "direct check" in str(err.value)


def test_converge_exits_2_on_an_unstable_aggregate(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    cfg = _write_gen(tmp_path)
    with monkeypatch.context() as mp:
        _skew_the_memo(mp, 2)
        assert main(["converge", "--config", cfg, "--mode", "general"]) == 2
    out, err = capsys.readouterr()
    assert "pass" not in out
    v = primitive_orbit_reps(GEN, 2)[0][0]
    assert (f"class norm of rep {v} at level 2: coefficient 0 is not in the "
            "base ring") in err
    # skewed where it is computed, the class checks trip first
    v, _, h = _first_class(2)
    _skew_one_rep(monkeypatch, 2, v)
    assert main(["converge", "--config", cfg, "--mode", "general"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert (f"stabiliser check at level 2, rep {v}, member {v}, unit {h}: "
            "coefficient 0 differs") in err
