"""End-to-end acceptance gate.

Eight criteria, each printed as a single PASS/FAIL line (run pytest with -s
to see them).  Every assertion is exact; the only tolerances are the per-
criterion wall-clock budgets, which are asserted as hard bounds.
"""

from __future__ import annotations

import random
import time

from towerlim import tower
from towerlim.charsums import (
    artin_schreier_enum_count,
    coleman_gauss_check,
    coleman_jacobi_check,
    fermat_enum_count,
    h_poly_tower,
    motivating_zeta_check,
    mult_order,
    predicted_counts,
    primitive_char_sum,
    s_rho_n,
    zeta_from_counts,
)
from towerlim.errors import InputError
from towerlim.matfermat import arnold_zarelua_check
from towerlim.padic import int_val
from towerlim.tower import (
    general_congruence_rows,
    make_tower_spec,
    matrix_log,
    orbit_params,
    p_poly,
    r_poly,
    scalar_congruence_rows,
)

from oracles import (
    aggregates,
    artin_schreier_count,
    fermat_count,
    mat_pow_mod,
    pipeline_count,
)

F_LINEAR = [((0,), [[1]]), ((1,), [[1]])]
F_TWO_VAR = [((0, 0), [[1]]), ((3, 1), [[1]])]

CUBIC_AS_COUNTS = [8, 50, 386, 2402, 16808, 121472]


def _criterion(number, name, budget, body):
    start = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - start
        assert budget is None or elapsed < budget, (
            f"criterion {number} took {elapsed:.1f}s (budget {budget}s)"
        )
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def _conv(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_criterion_1_hyperelliptic_family():
    def body():
        rec = motivating_zeta_check(3)
        expected = _conv(_conv([1, -2, 5], [1, 0, 5]), [1, 0, 5])
        assert expected == [1, -2, 15, -20, 75, -50, 125]
        assert rec["coeffs"] == expected
        assert rec["reference"] == expected
        assert rec["passed"] is True
        assert len(rec["counts"]) == 6  # point counts over F_{5^m}, m = 1..6

    _criterion(1, "degree-8 hyperelliptic zeta recovery", 10, body)


def test_criterion_2_trace_congruence_sweep():
    def body():
        rng = random.Random(20260823)
        for _ in range(500):
            size = rng.randint(1, 4)
            mat = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            ell = rng.choice([3, 5, 7])
            n = rng.randint(0, 2)
            rep = arnold_zarelua_check(mat, ell, n)
            assert rep.passed is True
            assert rep.required == n + 1
            if not rep.trace_saturated:
                assert rep.trace_val >= n + 1
            if not rep.charpoly_saturated:
                assert rep.charpoly_val >= n + 1

    _criterion(2, "trace/charpoly congruence sweep (500 matrices)", 30, body)


def _draw_quadratic_coeff_family(rng, ell, r):
    """Random degree-2 matrix polynomial with unit determinant at t = 1."""
    while True:
        terms = [
            ((e,), [[rng.randint(-4, 4) for _ in range(r)] for _ in range(r)])
            for e in range(3)
        ]
        at_one = [
            [sum(t[1][i][j] for t in terms) for j in range(r)] for i in range(r)
        ]
        det = at_one[0][0] * at_one[1][1] - at_one[0][1] * at_one[1][0]
        if det % ell:
            return terms


def test_criterion_3_scalar_congruence():
    def body():
        spec = make_tower_spec(5, 1, 1, [[6]], F_LINEAR, 4)
        rows = [
            r for r in scalar_congruence_rows(spec, orbit_params(spec), {})
            if r.rep == (1,)
        ]
        assert [r.n for r in rows] == [1, 2, 3]
        for row in rows:
            assert row.required == row.n  # v_5(k_{n+1}) = n for this tower
            assert row.status == "pass"
            assert row.saturated or row.measured >= row.n
        rng = random.Random(52026)
        for _ in range(10):
            terms = _draw_quadratic_coeff_family(rng, 5, 2)
            spec2 = make_tower_spec(5, 1, 2, [[6]], terms, 4)
            rows2 = [
                r for r in scalar_congruence_rows(
                    spec2, orbit_params(spec2), {})
                if r.rep == (1,)
            ]
            assert [r.n for r in rows2] == [1, 2, 3]
            for row in rows2:
                assert row.required == row.n
                assert row.status == "pass"
                assert row.saturated or row.measured >= row.n

    _criterion(3, "scalar tower congruence (v = 1, levels 1-3)", 60, body)


def test_criterion_4_general_congruence():
    def body():
        gen = make_tower_spec(3, 2, 1, [[4, 0], [3, 4]], F_TWO_VAR, 3)
        rows = general_congruence_rows(gen, orbit_params(gen), aggregates(gen))
        assert [(r.n, r.required, r.measured, r.status) for r in rows] == [
            (1, 1, 3, "pass"),
            (2, 2, 6, "pass"),
        ]
        scalar10 = make_tower_spec(3, 2, 1, [[10, 0], [0, 10]], F_TWO_VAR, 3)
        assert orbit_params(scalar10).n0 == 2
        rows10 = general_congruence_rows(
            scalar10, orbit_params(scalar10), aggregates(scalar10))
        # The 2n bound only binds from the threshold level n_0 = 2 on; the
        # level-1 row records its sub-threshold measurement without failing.
        assert [(r.n, r.required, r.measured, r.status) for r in rows10] == [
            (1, 2, 0, "below-threshold"),
            (2, 4, 6, "pass"),
        ]

    _criterion(4, "general tower congruence (plus scalar strengthening)", 120, body)


def test_criterion_5_root_of_unity_lemmas():
    def body():
        rng = random.Random(88001)
        done = 0
        while done < 200:
            ell = rng.choice([3, 5, 7])
            n = rng.randint(1, 3)
            q = rng.randrange(2, 500)
            if q % ell == 0:
                continue
            k = mult_order(q, ell**n)
            rho = k * rng.randint(1, 3)
            w = rng.randrange(ell**n)
            rec = s_rho_n(ell, n, q, w, rho)
            assert rec["passed"] is True
            assert rec["required"] == int_val(ell, rho)
            if not rec["exactly_zero"]:
                assert rec["valuation"] >= rec["required"]
            done += 1
        done = 0
        while done < 100:
            ell = rng.choice([3, 5, 7])
            n = rng.randint(1, 2 if ell == 7 else 3)
            b = rng.randint(1, 3)
            shape = [rng.randint(1, n) for _ in range(b)]
            shape[rng.randrange(b)] = n
            if sum(shape) > 5:
                continue
            lam = [rng.randrange(ell ** shape[i]) for i in range(b)]
            rec = primitive_char_sum(ell, n, shape, lam)
            free = all(d == n for d in shape)
            assert rec["free"] is free
            assert rec["required"] == ((n - 1) * b if free else n - 1)
            assert rec["passed"] is True
            if not rec["exactly_zero"]:
                assert rec["valuation"] >= rec["required"]
            done += 1

    _criterion(5, "root-of-unity sum bounds (200 + 100 instances)", 10, body)


def test_criterion_6_descent_identities():
    def body():
        # Valid pairs mod 3: both indices and their sum must stay nonzero.
        valid = [
            (v1, v2)
            for v1 in range(1, 3)
            for v2 in range(1, 3)
            if (v1 + v2) % 3
        ]
        assert valid == [(1, 1), (2, 2)]
        for v1, v2 in valid:
            rec = coleman_jacobi_check(3, 7, v1, v2)
            assert rec["passed"] is True
            assert rec["scale"] == 7  # J over F_343 equals 7 * J over F_7
        for v1, v2 in [(1, 2), (2, 1)]:
            try:
                coleman_jacobi_check(3, 7, v1, v2)
            except InputError:
                continue
            raise AssertionError("degenerate pair must be rejected")
        gauss = coleman_gauss_check(3, 7)
        assert gauss["status"] == "pass"
        assert gauss["sign"] == 1
        for row in gauss["rows"]:
            assert row["sign_plus"] and not row["sign_minus"]

    _criterion(6, "Jacobi/Gauss descent to the cubic extension", 20, body)


def test_criterion_7_cross_pipeline_consistency():
    def body():
        fermat = h_poly_tower("fermat", 3, 7, 1)
        from_counts = zeta_from_counts(7, 1, [9, 63])
        assert fermat["f"] == from_counts["coeffs"] == [1, 1, 7]
        assert fermat_enum_count(7, 3)["count"] == 9
        assert fermat_enum_count(49, 3)["count"] == 63
        addfam = h_poly_tower("artin-schreier", 3, 7, 1)
        predictions = predicted_counts(addfam["f"], 7, 6)
        measured = [
            artin_schreier_enum_count(7, m, 3)["count"] for m in range(1, 7)
        ]
        assert measured == predictions == CUBIC_AS_COUNTS

    _criterion(7, "character sums vs enumeration cross-check", 20, body)


def test_criterion_8_property_suites():
    def body():
        rng = random.Random(314159)

        # Twisting the base point along its own orbit fixes the polynomial.
        gen = make_tower_spec(3, 2, 1, [[4, 0], [3, 4]], F_TWO_VAR, 3)
        for n in (1, 2):
            mod = 3**n
            for _ in range(6):
                v = (rng.randrange(mod), rng.randrange(mod))
                if v[0] % 3 == 0 and v[1] % 3 == 0:
                    continue
                qv = (
                    (4 * v[0]) % mod,
                    (3 * v[0] + 4 * v[1]) % mod,
                )
                assert p_poly(gen, n, qv) == p_poly(gen, n, v)

        # Aggregates land in the base ring.
        spec34 = make_tower_spec(3, 1, 1, [[4]], F_LINEAR, 3)
        for spec, levels in [(spec34, (1, 2, 3)), (gen, (1, 2))]:
            for n in levels:
                poly, _ = r_poly(spec, n, {})
                assert all(isinstance(c, int) for c in poly)

        # Orbit orders step by exactly l once past the threshold.
        for spec in (spec34, gen):
            n0 = orbit_params(spec).n0
            for _ in range(8):
                v = tuple(rng.randrange(9) for _ in range(spec.b))
                if all(x % 3 == 0 for x in v):
                    continue
                orders = [
                    len(tower._q_orbit(spec, n, v))
                    for n in range(1, spec.n_max + 1)
                ]
                for n in range(1, len(orders)):
                    ratio = orders[n] // orders[n - 1]
                    assert ratio in (1, 3)
                    if n + 1 > n0:
                        assert ratio == 3

        # The l-adic log of the twist turns powers into multiples:
        # log(Q^k) = k log Q for Q = I mod l.
        for _ in range(40):
            ell = rng.choice([3, 5, 7])
            b = rng.choice([1, 2, 3])
            work = rng.randint(3, 9)
            mod = ell**work
            q = [[(i == j) + ell * rng.randrange(ell ** (work - 1))
                  for j in range(b)] for i in range(b)]
            k = rng.randint(2, 60)
            log_q = matrix_log(q, ell, work)
            assert matrix_log(mat_pow_mod(q, k, mod), ell, work) == [
                [k * x % mod for x in row] for row in log_q
            ]

        # Each point count three ways: the zeta pipeline (one character sum
        # per Galois orbit), brute-force enumeration, and the sum over
        # every character.
        for ell, level, q in [(3, 1, 7), (3, 1, 13), (5, 1, 11), (3, 1, 4)]:
            want = fermat_enum_count(q, ell**level)["count"]
            assert pipeline_count("fermat", ell, level, q, 1) == want
            assert fermat_count(ell, level, q) == want
        for q, m in [(7, 1), (7, 2), (4, 1)]:
            want = artin_schreier_enum_count(q, m, 3)["count"]
            assert pipeline_count("artin-schreier", 3, 1, q, m) == want
            assert artin_schreier_count(3, 1, q, m) == want

    _criterion(8, "structural property suites", None, body)
