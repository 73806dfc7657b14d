"""Tests for the tower engine: specs, orbits, products, and congruence rows."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim import matrices, tower
from towerlim.errors import CheckFailed, GuardExceeded, InputError
from towerlim.tower import (
    OrbitParams,
    check_orbit_threshold,
    general_congruence_rows,
    level_pieces,
    make_tower_spec,
    orbit_params,
    p_poly,
    primitive_orbit_reps,
    qsum_rows,
    r_poly,
    scalar_congruence_rows,
)

from oracles import aggregates, enumerated_orbit_params

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


def orbit_order(spec, n, v):
    """Size of the orbit of v mod l^n under Q, walked by `matrices.orbit`."""
    return len(tower._q_orbit(spec, n, v))


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


@pytest.mark.parametrize("exps, bad", [
    ([(0.7,), (True,)], "F[0].exponents[0]"),  # once read as F = 1 + t
    ([(0,), (True,)], "F[1].exponents[0]"),
    ([(0,), ("1",)], "F[1].exponents[0]"),
])
def test_spec_refuses_exponents_that_are_not_integers(exps, bad):
    with pytest.raises(InputError) as err:
        make_tower_spec(3, 1, 1, [[4]], [(e, [[1]]) for e in exps], 2)
    assert f"{bad} must be an integer" in str(err.value)


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


@pytest.mark.parametrize("field, value", [
    ("b", 1.0), ("r", True), ("n_max", 2.0), ("n_max", True),
    ("prec", 9.5), ("prec", "9"),
])
def test_spec_sizes_must_be_integers(field, value):
    sizes = {"b": 1, "r": 1, "n_max": 2, "prec": None, field: value}
    with pytest.raises(InputError) as exc:
        make_tower_spec(3, sizes["b"], sizes["r"], [[4]], F_LINEAR,
                        sizes["n_max"], sizes["prec"])
    key = "precision" if field == "prec" else field  # the config key
    assert exc.value.context == {"field": key}
    assert f"{key} must be an integer" in str(exc.value)


SPEC_ARGS = {"ell": 3, "b": 1, "r": 1, "q_matrix": [[4]],
             "f_terms": F_LINEAR, "n_max": 2, "prec": None}


@pytest.mark.parametrize("args, field", [
    ({"ell": 4}, "ell"),
    ({"q_matrix": [[5]]}, "Q"),                       # Q != I mod l
    ({"q_matrix": [[1]]}, "Q"),                       # Q = I
    ({"q_matrix": [[4, 0]]}, "Q"),                    # row length
    ({"q_matrix": [[4], [1]]}, "Q"),                  # row count
    ({"q_matrix": [[4.0]]}, "Q"),
    ({"f_terms": []}, "F"),
    ({"f_terms": [((0,), [[1]]), ((1, 0), [[1]])]}, "F[1].exponents"),
    ({"f_terms": [((0,), [[1]]), ((-1,), [[1]])]}, "F[1].exponents"),
    ({"f_terms": [((0,), [[1]]), ((0,), [[1]])]}, "F[1].exponents"),
    ({"f_terms": [((0,), [[1]]), ((1.5,), [[1]])]}, "F[1].exponents"),
    ({"f_terms": [((0,), [[1, 0]])]}, "F[0].matrix"),
    ({"f_terms": [((0,), [[True]])]}, "F[0].matrix"),
    ({"prec": 2}, "precision"),                       # below n_max + 1
    ({"b": 2, "q_matrix": [[10, 0], [0, 10]], "f_terms": F_TWO_VAR,
      "n_max": 4, "prec": 5}, "precision"),          # below b*(n_max - 1)
    # orbit_params: log Q vanishes mod 3^(prec + 6), and a singular X
    ({"q_matrix": [[1 + 3**10]], "prec": 3}, "precision"),
    ({"b": 2, "q_matrix": [[4, -3], [-9, 10]], "f_terms": F_TWO_VAR},
     "Q"),
])
def test_tower_refusals_name_their_field(args, field):
    with pytest.raises(InputError) as exc:
        orbit_params(make_tower_spec(**{**SPEC_ARGS, **args}))
    assert exc.value.context == {"field": field}


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
    assert orbit_params(_spec34()) == OrbitParams(1, 0, 1)
    assert orbit_params(_spec56()) == OrbitParams(1, 0, 1)
    assert orbit_params(_spec_general()) == OrbitParams(1, 0, 1)
    assert orbit_params(_spec_scalar10()) == OrbitParams(2, 0, 2)


@pytest.mark.parametrize("q, want", [
    ([[4, 0], [0, 10]], OrbitParams(1, 1, 2)),
    ([[4, 3], [0, 82]], OrbitParams(1, 3, 4)),
])
def test_orbit_params_with_positive_beta0(q, want):
    # X = log Q / 3 has elementary divisors 1 and 3^beta0, so k_n stays 1
    # up to n0 and grows by l from there
    spec = make_tower_spec(3, 2, 1, q, F_TWO_VAR, want.n0 + 1)
    assert orbit_params(spec) == want
    sizes = [min(s for _, s in primitive_orbit_reps(spec, n))
             for n in range(1, spec.n_max + 1)]
    assert sizes == [1] * want.n0 + [3]
    polys = {n: ((), {"k_n": k}) for n, k in enumerate(sizes, start=1)}
    assert check_orbit_threshold(spec, want, polys) == want.n0
    # a run that stops below n0 verifies no level
    short = make_tower_spec(3, 2, 1, q, F_TWO_VAR, want.n0 - 1)
    assert check_orbit_threshold(short, want, {1: ((), {"k_n": 1})}) is None


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 3), st.data())
def test_orbit_params_matches_the_enumeration(ell, b, data):
    # wherever the enumeration certifies beta0 below 10^4 residue vectors
    steps = data.draw(st.lists(st.integers(-3, 3), min_size=b * b,
                               max_size=b * b))
    depth = data.draw(st.integers(1, 2))
    q = [[int(i == j) + ell**depth * steps[i * b + j] for j in range(b)]
         for i in range(b)]
    if not any(steps):
        return  # Q = I is refused as input
    spec = make_tower_spec(ell, b, 1, q,
                           [((0,) * b, [[1]]), ((1,) * b, [[1]])], 2)
    try:
        want = enumerated_orbit_params(spec, 10**4)
    except (GuardExceeded, InputError):
        return
    assert orbit_params(spec) == want


def test_orbit_failures_name_level_and_representative(monkeypatch):
    spec = _spec34()
    # the twisted product's walk of 13 = 4 mod 9 never returns
    with monkeypatch.context() as mp:
        mp.setattr(matrices, "mat_vec_mod", lambda *args: None)
        with pytest.raises(CheckFailed) as exc:
            p_poly(spec, 2, (13,))
    assert exc.value.context == {"level": 2, "rep": (4,)}
    # a scanned size that is not a power of l breaks the matrix Fermat
    # theorem: the level scan refuses it before any charpoly
    real_orbit = matrices.orbit
    with monkeypatch.context() as mp:
        mp.setattr(matrices, "orbit",
                   lambda step, v, mod, **ctx: real_orbit(step, v, mod)[:2])
        mp.setattr(tower, "p_poly", None)
        with pytest.raises(CheckFailed) as exc:
            level_pieces(spec, 2)
    assert exc.value.context == {"level": 2, "rep": (1,), "size": 2}
    # tripled sizes are still powers of l, so the level builds; its k_n
    # then breaks the threshold law
    real_reps = tower.primitive_orbit_reps

    def tripled(spec, n):
        reps = real_reps(spec, n)
        reps[:] = [(v, 3 * size) for v, size in reps]
        return reps

    monkeypatch.setattr(tower, "primitive_orbit_reps", tripled)
    polys = {1: r_poly(spec, 1, {})}
    with pytest.raises(CheckFailed) as exc:
        check_orbit_threshold(spec, orbit_params(spec), polys)
    assert exc.value.context == {"level": 1, "n0": 1, "k_n": 3}


def test_the_scan_steps_by_table_reads_not_matrix_steps(monkeypatch):
    # building gen level 4's record: the scan walks its successor table,
    # while the class walks and twisted products still step by
    # mat_vec_mod
    calls = {"scan": 0, "rest": 0}
    where = ["rest"]
    real_step, real_scan = matrices.mat_vec_mod, tower.primitive_orbit_reps

    def counting(*args):
        calls[where[-1]] += 1
        return real_step(*args)

    def scanning(spec, n):
        where.append("scan")
        try:
            return real_scan(spec, n)
        finally:
            where.pop()

    monkeypatch.setattr(matrices, "mat_vec_mod", counting)
    monkeypatch.setattr(tower, "primitive_orbit_reps", scanning)
    level = level_pieces(_spec_general(4), 4)
    assert len(level.reps) == 216
    assert calls["scan"] == 0 and calls["rest"] > 0


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
    poly, meta = r_poly(_spec34(), 1, {})
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
        poly, meta = r_poly(spec, n, {})
        # One degree-r factor per orbit; orbit count * orbit size covers the
        # (l-1) l^(n-1) primitive residues.
        assert meta["degree"] == spec.r * meta["num_orbits"]
        assert meta["num_orbits"] * meta["k_n"] == 2 * 3 ** (n - 1)
        assert poly[0] == 1
        assert all(isinstance(c, int) for c in poly)
    gen_poly, gen_meta = r_poly(_spec_general(), 2, {})
    assert gen_meta["degree"] == 24
    assert gen_meta["num_orbits"] == 24
    assert gen_meta["orbit_sizes"] == [3]
    assert all(isinstance(c, int) for c in gen_poly)


def test_r_poly_palindromic_normalization():
    # Aggregates of this family satisfy c_d = c_0 = 1 at the base level.
    poly, _ = r_poly(_spec56(), 1, {})
    assert poly[0] == 1 and poly[-1] == 1


def test_scalar_rows_saturate_for_stable_family():
    spec = _spec34()
    rows = scalar_congruence_rows(spec, orbit_params(spec), {})
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
        spec = _spec_general()
        scalar_congruence_rows(spec, orbit_params(spec), {})


def test_general_rows_measured_valuations():
    spec = _spec_general()
    rows = general_congruence_rows(spec, orbit_params(spec), aggregates(spec))
    assert [(r.n, r.required, r.measured, r.status) for r in rows] == [
        (1, 1, 3, "pass"),
        (2, 2, 6, "pass"),
    ]
    assert all(r.mode == "general" and r.rep is None for r in rows)


def test_general_rows_below_threshold_band():
    # With a scalar matrix congruent to I mod l^2 the guarantee only starts
    # at level 2; the level-1 row reports its sub-threshold measurement.
    spec = _spec_scalar10()
    rows = general_congruence_rows(spec, orbit_params(spec), aggregates(spec))
    assert [(r.n, r.required, r.measured, r.status) for r in rows] == [
        (1, 2, 0, "below-threshold"),
        (2, 4, 6, "pass"),
    ]
    rec = rows[0].as_record()
    assert rec["status"] == "below-threshold"
    assert rec["mode"] == "general"


def test_rows_honor_parameter_override():
    # Raising the threshold turns would-be failures into below-threshold rows.
    override = OrbitParams(alpha=2, beta0=0, n0=99)
    spec = _spec_scalar10()
    rows = general_congruence_rows(spec, override, aggregates(spec))
    assert all(r.status != "fail" for r in rows)


def test_rows_range_selection():
    # Rows span every level n = 1..n_max-1; row n compares levels n, n+1.
    spec = _spec_general()
    rows = general_congruence_rows(spec, orbit_params(spec), aggregates(spec))
    assert [r.n for r in rows] == [1, 2]
    row = rows[1]
    assert (row.k_lo, row.k_hi, row.required, row.status) == (3, 9, 2, "pass")


def test_general_rows_accept_prebuilt_polynomials():
    spec = _spec_general()
    polys = {n: r_poly(spec, n, {}) for n in range(1, 4)}
    rows = general_congruence_rows(spec, orbit_params(spec), polys)
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

