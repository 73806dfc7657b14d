"""Tests for the tower engine: specs, orbits, products, and congruence rows."""

from __future__ import annotations

import random

import pytest

from towerlim import matrices, tower
from towerlim.cyclo import CycloRing
from towerlim.errors import CheckFailed, InputError
from towerlim.tower import (
    OrbitParams,
    general_congruence_rows,
    make_tower_spec,
    orbit_order,
    orbit_params,
    p_poly,
    primitive_orbit_reps,
    qsum_rows,
    r_poly,
    scalar_congruence_rows,
)

F_LINEAR = [((0,), [[1]]), ((1,), [[1]])]
F_TWO_VAR = [((0, 0), [[1]]), ((3, 1), [[1]])]


def _spec34(n_max=3):
    return make_tower_spec(3, 1, 1, [[4]], F_LINEAR, n_max)


def _spec56(n_max=4):
    return make_tower_spec(5, 1, 1, [[6]], F_LINEAR, n_max)


def _spec_general(n_max=3):
    return make_tower_spec(3, 2, 1, [[4, 0], [3, 4]], F_TWO_VAR, n_max)


def _spec_scalar10(n_max=3):
    return make_tower_spec(3, 2, 1, [[10, 0], [0, 10]], F_TWO_VAR, n_max)


def test_spec_validation():
    with pytest.raises(InputError):
        make_tower_spec(3, 1, 1, [[5]], F_LINEAR, 2)  # Q != I mod l
    with pytest.raises(InputError):
        make_tower_spec(3, 1, 1, [[1]], F_LINEAR, 2)  # Q is the identity
    with pytest.raises(InputError):
        make_tower_spec(3, 1, 1, [[4]], [((0,), [[1]]), ((0,), [[1]])], 2)
    with pytest.raises(InputError):
        make_tower_spec(3, 1, 1, [[4]], F_LINEAR, 0)
    with pytest.raises(InputError):
        make_tower_spec(3, 2, 1, [[4, 0], [3, 4]], F_LINEAR, 2)  # exponent arity
    with pytest.raises(InputError):
        make_tower_spec(3, 1, 2, [[4]], F_LINEAR, 2)  # coefficient shape vs r


def test_spec_rejects_precision_below_scalar_bound():
    # scalar Q, b = 2, n_max = 4: the n = 3 general row requires depth 6
    with pytest.raises(InputError) as err:
        make_tower_spec(3, 2, 1, [[10, 0], [0, 10]], F_TWO_VAR, 4, prec=5)
    assert "precision 5" in str(err.value)
    assert make_tower_spec(3, 2, 1, [[10, 0], [0, 10]], F_TWO_VAR, 4,
                           prec=6).prec == 6
    # a non-scalar twist only requires depth n
    assert make_tower_spec(3, 2, 1, [[4, 0], [3, 4]], F_TWO_VAR, 4,
                           prec=5).prec == 5


def test_spec_digest_tracks_content():
    a, b = _spec34(), _spec34()
    assert a.digest() == b.digest()
    assert a.digest() != _spec34(n_max=4).digest()
    assert a.digest() != _spec56().digest()
    assert a.is_scalar_q() and _spec_scalar10().is_scalar_q()
    assert not _spec_general().is_scalar_q()


def test_orbit_order_grows_by_ell_after_threshold():
    spec = _spec34()
    assert [orbit_order(spec, n, (1,)) for n in (1, 2, 3)] == [1, 3, 9]
    spec5 = _spec56()
    assert [orbit_order(spec5, n, (1,)) for n in (1, 2, 3, 4)] == [1, 5, 25, 125]
    s10 = _spec_scalar10()
    assert [orbit_order(s10, n, (1, 1)) for n in (1, 2, 3)] == [1, 1, 3]


def test_orbit_order_ratio_property():
    # k_{n+1}/k_n is always 1 or l, and equals l from the threshold level on.
    rng = random.Random(601)
    specs = [_spec34(4), _spec56(4), _spec_general(), _spec_scalar10()]
    for spec in specs:
        n0 = orbit_params(spec).n0
        for _ in range(10):
            v = tuple(rng.randrange(3 if spec.ell == 3 else 5) for _ in range(spec.b))
            if all(x % spec.ell == 0 for x in v):
                continue
            orders = [orbit_order(spec, n, v) for n in range(1, spec.n_max + 1)]
            for n in range(1, len(orders)):
                ratio = orders[n] // orders[n - 1]
                assert orders[n] % orders[n - 1] == 0
                assert ratio in (1, spec.ell)
                if n + 1 > n0:
                    assert ratio == spec.ell


def test_primitive_orbit_reps_partition():
    spec = _spec34()
    for n in (1, 2, 3):
        reps = primitive_orbit_reps(spec, n)
        mod = 3**n
        covered = set()
        for rep, size in reps:
            assert size == orbit_order(spec, n, rep)
            w = rep
            orbit = set()
            for _ in range(size):
                orbit.add(w)
                w = tuple(4 * x % mod for x in w)
            assert w == rep
            assert len(orbit) == size
            assert min(orbit) == rep  # lexicographically least representative
            covered |= orbit
        primitive = {(x,) for x in range(mod) if x % 3}
        assert covered == primitive


def test_orbit_params_frozen_cases():
    assert orbit_params(_spec34()) == OrbitParams(1, 0, 1, 1)
    assert orbit_params(_spec56()) == OrbitParams(1, 0, 1, 1)
    assert orbit_params(_spec_general()) == OrbitParams(1, 0, 1, 1)
    assert orbit_params(_spec_scalar10()) == OrbitParams(2, 0, 2, 2)


def test_orbit_failures_name_level_and_representative(monkeypatch):
    spec = _spec34()
    with monkeypatch.context() as mp:
        mp.setattr(matrices, "mat_vec_mod", lambda *args: None)
        with pytest.raises(CheckFailed) as exc:
            orbit_order(spec, 2, (13,))
    assert exc.value.context == {"level": 2, "rep": (4,)}
    # a walk whose size is not a power of l breaks the matrix Fermat theorem
    with monkeypatch.context() as mp:
        mp.setattr(tower, "orbit", lambda step, v, mod, **ctx: [(4,), (7,)])
        with pytest.raises(CheckFailed) as exc:
            orbit_order(spec, 2, (13,))
    assert exc.value.context == {"level": 2, "rep": (4,), "size": 2}
    real_reps = tower.primitive_orbit_reps
    monkeypatch.setattr(tower, "primitive_orbit_reps", lambda spec, n: [
        (v, 3 * size) for v, size in real_reps(spec, n)])
    with pytest.raises(CheckFailed) as exc:
        orbit_params(spec)
    assert exc.value.context == {"level": 1, "n0": 1, "min_size": 3}


def test_p_poly_shape_and_galois_symmetry():
    spec = _spec_general()
    for n in (1, 2):
        mod = 3**n
        for v in [(1, 1), (1, 2), (2, 1)]:
            poly = p_poly(spec, n, v)
            assert poly[0] == poly[0].ring.one()
            # det(I - y * A_n(v)) of an r x r product has degree r.
            assert len(poly) - 1 == spec.r
            # Advancing v along its own orbit leaves the polynomial fixed:
            # the product defining it is conjugated cyclically.
            qv = tuple(
                (spec.q_matrix[i][0] * v[0] + spec.q_matrix[i][1] * v[1]) % mod
                for i in range(2)
            )
            assert p_poly(spec, n, qv) == poly


def test_r_poly_base_case():
    poly, meta = r_poly(_spec34(), 1)
    assert poly == (1, 3**9 - 1, 1)  # 1 - y + y^2 mod 3^9
    assert meta == {
        "level": 1,
        "k_n": 1,
        "num_orbits": 2,
        "orbit_sizes": [1],
        "degree": 2,
    }


def test_r_poly_degree_counts_orbits():
    spec = _spec34()
    for n in (1, 2, 3):
        poly, meta = r_poly(spec, n)
        # One degree-r factor per orbit; orbit count * orbit size covers the
        # (l-1) l^(n-1) primitive residues.
        assert meta["degree"] == spec.r * meta["num_orbits"]
        assert meta["num_orbits"] * meta["k_n"] == 2 * 3 ** (n - 1)
        assert poly[0] == 1
        assert all(isinstance(c, int) for c in poly)
    gen_poly, gen_meta = r_poly(_spec_general(), 2)
    assert gen_meta["degree"] == 24
    assert gen_meta["num_orbits"] == 24
    assert gen_meta["orbit_sizes"] == [3]
    assert all(isinstance(c, int) for c in gen_poly)


def test_r_poly_palindromic_normalization():
    # Aggregates of this family satisfy c_d = c_0 = 1 at the base level.
    poly, _ = r_poly(_spec56(), 1)
    assert poly[0] == 1 and poly[-1] == 1


def test_scalar_rows_saturate_for_stable_family():
    rows = scalar_congruence_rows(_spec34())
    assert [
        (r.n, r.rep, r.k_lo, r.k_hi, r.required, r.status) for r in rows
    ] == [
        (1, (1,), 1, 3, 1, "pass"),
        (1, (2,), 1, 3, 1, "pass"),
        (2, (1,), 3, 9, 2, "pass"),
        (2, (2,), 3, 9, 2, "pass"),
    ]
    assert all(r.saturated and r.measured == 9 for r in rows)


def test_scalar_rows_reject_nonscalar_spec():
    with pytest.raises(InputError):
        scalar_congruence_rows(_spec_general())


def test_general_rows_measured_valuations():
    rows = general_congruence_rows(_spec_general())
    assert [(r.n, r.required, r.measured, r.status) for r in rows] == [
        (1, 1, 3, "pass"),
        (2, 2, 6, "pass"),
    ]
    assert all(r.mode == "general" and r.rep is None for r in rows)


def test_general_rows_below_threshold_band():
    # With a scalar matrix congruent to I mod l^2 the guarantee only starts
    # at level 2; the level-1 row reports its sub-threshold measurement.
    rows = general_congruence_rows(_spec_scalar10())
    assert [(r.n, r.required, r.measured, r.status) for r in rows] == [
        (1, 2, 0, "below-threshold"),
        (2, 4, 6, "pass"),
    ]
    rec = rows[0].as_record()
    assert rec["status"] == "below-threshold"
    assert rec["mode"] == "general"


def test_rows_honor_parameter_override():
    # Raising the threshold turns would-be failures into below-threshold rows.
    override = OrbitParams(alpha=2, beta0=0, n0=99, verified_level=None)
    rows = general_congruence_rows(_spec_scalar10(), params=override)
    assert all(r.status != "fail" for r in rows)


def test_rows_range_selection():
    # Rows span every level n = 1..n_max-1; row n compares levels n, n+1.
    rows = general_congruence_rows(_spec_general())
    assert [r.n for r in rows] == [1, 2]
    row = rows[1]
    assert (row.k_lo, row.k_hi, row.required, row.status) == (3, 9, 2, "pass")


def test_general_rows_accept_prebuilt_polynomials():
    spec = _spec_general()
    polys = {n: r_poly(spec, n) for n in range(1, 4)}
    rows = general_congruence_rows(spec, r_cache=polys)
    assert [(r.n, r.measured) for r in rows] == [(1, 3), (2, 6)]


def test_qsum_rows_coset_sums_vanish():
    rec = qsum_rows(_spec56(), [4], [1], 1, 3)
    assert [row["sum_is_zero"] for row in rec["rows"]] == [False, True, True]
    assert [row["k_n"] for row in rec["rows"]] == [1, 5, 25]
    assert all(row["status"] == "measured-only" for row in rec["rows"])


def test_qsum_products_stabilize_exactly():
    # For a two-term F the twisted products collapse along cosets, so each
    # level equals the embedded previous level on the nose.
    rec = qsum_rows(_spec56(), [4], [1], 1, 3, emit_products=True)
    prods = rec["products"]
    assert [p["n"] for p in prods] == [1, 2, 3]
    nonzero = [(i, c) for i, c in enumerate(prods[0]["coeffs"]) if c != "0"]
    assert nonzero == [(0, "1"), (1, "1")]  # 1 + zeta at the base level
    for p in prods[1:]:
        assert p["diff_from_previous"] == {"exactly_zero": True}


def test_qsum_input_checks():
    with pytest.raises(InputError):
        qsum_rows(_spec56(), [4], [1, 1], 1, 2)
    with pytest.raises(InputError):
        qsum_rows(_spec56(), [4], [1], 2, 1)
    two = make_tower_spec(3, 1, 2, [[4]], [((0,), [[1, 0], [0, 1]]), ((1,), [[1, 1], [0, 1]])], 2)
    with pytest.raises(InputError):
        qsum_rows(two, [1], [1], 1, 2, emit_products=True)


def test_p_poly_accepts_explicit_ring():
    spec = _spec34()
    ring = CycloRing(3, 2, prec=spec.prec)
    poly = p_poly(spec, 2, (1,), ring=ring)
    assert poly == p_poly(spec, 2, (1,))
