"""Tests for character sums, point counts, and the curve pipelines."""

from __future__ import annotations

import operator
import random

import pytest

from towerlim import charsums
from towerlim.charsums import (
    artin_schreier_enum_count,
    coleman_gauss_check,
    coleman_jacobi_check,
    fermat_enum_count,
    gauss_sum,
    h_poly_tower,
    jacobi_sum,
    motivating_curve_counts,
    motivating_reference_poly,
    motivating_zeta_check,
    mult_order,
    predicted_counts,
    prime_power_split,
    primitive_char_sum,
    s_rho_n,
    zeta_from_counts,
)
from towerlim.cyclo import BiCycloRing, convolve
from towerlim.errors import CheckFailed, InputError
from towerlim.fields import _poly_mul_mod, field_build
from towerlim.matrices import mat_mul, power

from oracles import (
    artin_schreier_count,
    complex_value,
    conjugate,
    fermat_count,
    pipeline_count,
)

# Small (ell, level, q) combinations with ell^level | q - 1.
CHAR_GRID = [(3, 1, 7), (3, 1, 13), (3, 2, 19), (5, 1, 11), (7, 1, 29), (3, 1, 4)]

CUBIC_AS_COUNTS = [8, 50, 386, 2402, 16808, 121472]
DEGREE_EIGHT_COUNTS = [4, 52, 148, 540, 3044, 15892]


def gauss_norm_check(field, ell, level, v):
    """g(psi, chi_v) * g(psi_-1, chi_-v) = chi_v(-1) * q, the exact form of
    |g|^2 = q (the second factor is the complex conjugate of the first)."""
    g = charsums.gauss_sum(field, ell, level, v)
    chi_m1 = v * field.dlog(field.neg(1)) % ell**level
    ring = BiCycloRing(field.p, ell, level)
    if g * conjugate(g) != ring.from_exponent_counts({(0, chi_m1): field.q}):
        raise CheckFailed("Gauss sum norm identity failed",
                          q=field.q, level=level, v=v)


def jacobi_gauss_bridge_check(field, ell, level, v1, v2):
    """J(chi1, chi2) * g(psi, chi1 chi2) = g(psi, chi1) g(psi, chi2), for
    chi1, chi2 and chi1 chi2 all nontrivial."""
    gauss = charsums.gauss_sum
    j = charsums.jacobi_sum(field, ell, level, v1, v2)
    lhs = gauss(field, ell, level, v1 + v2) * j
    rhs = gauss(field, ell, level, v1) * gauss(field, ell, level, v2)
    if lhs != rhs:
        raise CheckFailed("Jacobi/Gauss bridge identity failed",
                          q=field.q, level=level, v1=v1, v2=v2)


def test_prime_power_split():
    assert prime_power_split(7) == (7, 1)
    assert prime_power_split(8) == (2, 3)
    assert prime_power_split(49) == (7, 2)
    assert prime_power_split(343) == (7, 3)
    for bad in (1, 0, 12, 100):
        with pytest.raises(InputError):
            prime_power_split(bad)


def test_mult_order():
    assert mult_order(7, 9) == 3
    assert mult_order(7, 3) == 1
    assert mult_order(2, 9) == 6
    assert mult_order(10, 27) == 3
    with pytest.raises(InputError):
        mult_order(6, 9)


def test_gauss_sum_has_norm_q():
    for ell, level, q in CHAR_GRID:
        p, f = prime_power_split(q)
        field = field_build(p, f)
        gauss_norm_check(field, ell, level, 1)


def test_power_matches_the_sequential_product():
    # every product `matrices.power` serves: integers, integer matrices
    # (matrix Fermat), integer polynomials (h_m, the general rows), F_7[x]
    # mod the modulus of F_{7^3} (the field builds), a Jacobi sum in
    # Z[zeta_9] and a Gauss sum in Z[zeta_19, zeta_9] (`_generator_norm`)
    field, big = field_build(19, 1), field_build(7, 3)
    modulus = list(big.modulus)
    cases = [
        (-3, operator.mul),
        ([[2, 1], [1, -1]], mat_mul),
        ([2, -1, 0, 3], convolve),
        ([3, 5, 1], lambda a, b: _poly_mul_mod(a, b, modulus, 7)),
        (jacobi_sum(field, 3, 2, 1, 2), operator.mul),
        (gauss_sum(field, 3, 2, 1), operator.mul),
    ]
    for x, mul in cases:
        seq = x
        for e in range(1, 21):
            assert power(x, e, mul) == seq, (x, e)
            seq = mul(seq, x)


def test_jacobi_gauss_bridge():
    # g(v1) g(v2) = J(v1, v2) g(v1 + v2) whenever all three are nondegenerate.
    for ell, level, q in CHAR_GRID:
        p, f = prime_power_split(q)
        field = field_build(p, f)
        d = ell**level
        jacobi_gauss_bridge_check(field, ell, level, 1, 1)
        if d > 3:
            jacobi_gauss_bridge_check(field, ell, level, 1, 2)


def test_broken_gauss_sums_name_field_level_and_characters(monkeypatch):
    real = charsums.gauss_sum

    def off_by_one(*args, **kwargs):
        return real(*args, **kwargs) + 1

    monkeypatch.setattr(charsums, "gauss_sum", off_by_one)
    field = field_build(19, 1)
    with pytest.raises(CheckFailed) as exc:
        gauss_norm_check(field, 3, 2, 4)
    assert exc.value.context == {"q": 19, "level": 2, "v": 4}
    with pytest.raises(CheckFailed) as exc:
        jacobi_gauss_bridge_check(field, 3, 2, 1, 2)
    assert exc.value.context == {"q": 19, "level": 2, "v1": 1, "v2": 2}


def test_jacobi_cubic_values_over_f7():
    field = field_build(7, 1)
    j11 = jacobi_sum(field, 3, 1, 1, 1)
    j22 = jacobi_sum(field, 3, 1, 2, 2)
    ring = j11.ring
    assert j11.coeffs == (-1, -3)
    assert j11 + j22 == ring.from_int(1)
    assert j11 * j22 == ring.from_int(7)


def test_jacobi_symmetry_and_galois_equivariance():
    field = field_build(19, 1)
    rng = random.Random(401)
    for _ in range(10):
        v1, v2 = rng.randrange(1, 9), rng.randrange(1, 9)
        if (v1 + v2) % 9 == 0:
            continue
        j = jacobi_sum(field, 3, 2, v1, v2)
        assert jacobi_sum(field, 3, 2, v2, v1) == j
        for u in (2, 4, 5):
            assert j.galois_act(u) == jacobi_sum(field, 3, 2, u * v1 % 9, u * v2 % 9)


def test_jacobi_frobenius_invariance():
    # Over F_{p^f} the substitution x -> x^p permutes the summation domain,
    # so multiplying both character indices by p fixes the sum.
    field = field_build(7, 3)
    for v1, v2 in [(1, 1), (1, 3), (2, 5), (4, 4)]:
        if (v1 + v2) % 9 == 0:
            continue
        j = jacobi_sum(field, 3, 2, v1, v2)
        assert jacobi_sum(field, 3, 2, 7 * v1 % 9, 7 * v2 % 9) == j


def test_gauss_sum_complex_modulus():
    field = field_build(13, 1)
    g = gauss_sum(field, 3, 1, 1)
    assert abs(abs(complex_value(g)) ** 2 - 13) < 1e-6


@pytest.mark.parametrize("p, f", [(7, 3), (13, 2), (7, 1)])
def test_prime_subfield_sums_match_integer_arithmetic_mod_p(p, f):
    # Over the prime field of E = F_(p^f), against g' = G^((|E| - 1)/(p - 1)):
    # psi(x) = zeta_p^x and the logs taken mod p, with no table of E beyond
    # g' (the subfield trace is [E : F_p]^-1 Tr_E)
    big = field_build(p, f)
    g1 = int(big.exp_table[(big.q - 1) // (p - 1)])
    log = {pow(g1, t, p): t for t in range(p - 1)}
    ring = BiCycloRing(p, 3, 1)
    for v in (1, 2):
        want = ring.from_exponent_counts(
            {(x, v * log[x] % 3): 1 for x in range(1, p)})
        assert gauss_sum(big, 3, 1, v, sub_q=p) == want
        for w in (1, 2):
            terms = [(v * log[x] + w * log[1 - x + p]) % 3
                     for x in range(2, p)]
            assert jacobi_sum(big, 3, 1, v, w, sub_q=p) \
                == ring.cyclo.from_exponent_counts(
                    (e, terms.count(e)) for e in range(3))


def test_char_level_requires_divisibility():
    field = field_build(13, 1)
    with pytest.raises(InputError):
        jacobi_sum(field, 3, 2, 1, 1)  # 9 does not divide 12
    with pytest.raises(InputError):
        gauss_sum(field, 5, 2, 1)


def test_orbit_sum_known_cases():
    rec = s_rho_n(3, 2, 7, 1, 3)
    assert rec["k_n"] == 3
    assert rec["exactly_zero"] is True
    assert rec["passed"] is True
    rec = s_rho_n(3, 2, 7, 3, 3)
    assert rec["exactly_zero"] is False
    assert rec["valuation"] == 1
    assert rec["required"] == 1
    assert rec["passed"] is True


def test_orbit_sum_random_sweep():
    rng = random.Random(907)
    checked = 0
    while checked < 80:
        ell = rng.choice([3, 5, 7])
        n = rng.randint(1, 3)
        q = rng.randrange(2, 200)
        if q % ell == 0:
            continue
        k = mult_order(q, ell**n)
        rho = k * rng.randint(1, 3)
        w = rng.randrange(0, ell**n)
        rec = s_rho_n(ell, n, q, w, rho)
        assert rec["passed"] is True
        if not rec["exactly_zero"]:
            assert rec["valuation"] >= rec["required"]
        checked += 1


def test_orbit_sum_rejects_non_multiples():
    with pytest.raises(InputError):
        s_rho_n(3, 2, 7, 1, 2)


def test_primitive_char_sum_shapes():
    free = primitive_char_sum(3, 2, [2], [1])
    assert free["free"] is True
    assert free["num_primitive"] == 6
    assert free["passed"] is True
    mixed = primitive_char_sum(3, 2, [2, 1], [1, 2])
    assert mixed["free"] is False
    assert mixed["num_primitive"] == 18
    assert mixed["passed"] is True


def test_primitive_char_sum_input_checks():
    with pytest.raises(InputError):
        primitive_char_sum(3, 2, [1, 1], [1, 2])  # max depth below n
    with pytest.raises(InputError):
        primitive_char_sum(3, 2, [2], [1, 2])  # length mismatch


def test_fermat_counts_cubic_levels():
    assert fermat_count(3, 1, 7) == 9
    assert pipeline_count("fermat", 3, 1, 7, 1) == 9
    rec = fermat_enum_count(7, 3)
    assert rec["affine"] + rec["at_infinity"] == rec["count"] == 9
    # The same cubic over the quadratic extension F_49.
    assert fermat_count(3, 1, 49) == 63
    assert pipeline_count("fermat", 3, 1, 49, 1) == 63


def test_fermat_counts_more_fields():
    for ell, level, q in [(5, 1, 11), (3, 1, 13), (3, 1, 4), (7, 1, 29)]:
        want = fermat_enum_count(q, ell**level)["count"]
        assert fermat_count(ell, level, q) == want
        assert pipeline_count("fermat", ell, level, q, 1) == want


def test_fermat_requires_char_level():
    with pytest.raises(InputError):
        fermat_count(3, 1, 8)  # 3 does not divide 7
    with pytest.raises(InputError):
        pipeline_count("fermat", 3, 1, 8, 1)
    with pytest.raises(InputError):
        fermat_count(3, 2, 7)  # 9 does not divide 6


def test_artin_schreier_counts_cubic():
    for m, expected in zip(range(1, 4), CUBIC_AS_COUNTS):
        assert artin_schreier_count(3, 1, 7, m) == expected
        assert pipeline_count("artin-schreier", 3, 1, 7, m) == expected
    # The remaining levels are enumeration-only (the fields get large).
    for m in (4, 5, 6):
        rec = artin_schreier_enum_count(7, m, 3)
        assert rec["count"] == CUBIC_AS_COUNTS[m - 1]


def test_artin_schreier_even_characteristic():
    for m, expected in [(1, 5), (2, 17)]:
        assert artin_schreier_count(3, 1, 4, m) == expected
        assert pipeline_count("artin-schreier", 3, 1, 4, m) == expected


def test_enumeration_counts_standalone():
    assert fermat_enum_count(7, 3) == {
        "q": 7,
        "d": 3,
        "count": 9,
        "affine": 6,
        "at_infinity": 3,
    }
    assert artin_schreier_enum_count(7, 1, 3)["count"] == 8


def test_zeta_from_counts_elliptic():
    rec = zeta_from_counts(7, 1, [9, 63])
    assert rec["coeffs"] == [1, 1, 7]
    assert rec["traces"] == [-1, -13]


def test_zeta_from_counts_rejects_bad_data():
    with pytest.raises(CheckFailed):
        zeta_from_counts(7, 1, [100, 63])  # violates the point-count bound
    with pytest.raises(CheckFailed):
        zeta_from_counts(7, 1, [9, 64])  # no consistent functional equation


def test_zeta_genus_zero():
    assert zeta_from_counts(7, 0, [])["coeffs"] == [1]


def test_predicted_counts_inverts_zeta():
    rec = zeta_from_counts(7, 1, [9, 63])
    assert predicted_counts(rec["coeffs"], 7, 4) == [9, 63, 324, 2331]
    assert predicted_counts([1], 5, 3) == [6, 26, 126]


def test_tower_poly_base_level():
    rec = h_poly_tower("fermat", 3, 7, 1)
    assert rec["f"] == [1, 1, 7]
    assert rec["degree"] == 2
    assert rec["n1"] == 1
    assert rec["stabilization"] == []
    assert rec["stabilization_passed"] is None
    assert rec["levels"] == [{"m": 1, "k": 1, "field_q": 7, "h": [1, 1, 7]}]


def test_tower_poly_second_level():
    rec = h_poly_tower("fermat", 3, 7, 2)
    assert rec["degree"] == 56
    assert rec["stabilization_passed"] is True
    assert [(lvl["m"], lvl["k"], lvl["field_q"]) for lvl in rec["levels"]] == [
        (1, 1, 7),
        (2, 3, 343),
    ]
    block = rec["stabilization"][0]
    assert block["m"] == 1
    assert block["extension_q"] == 343
    assert block["passed"] is True
    checked = [row for row in block["rows"] if row["passed"] is not None]
    assert checked and all(row["passed"] for row in checked)


def test_tower_poly_additive_family():
    rec = h_poly_tower("artin-schreier", 3, 7, 1)
    assert rec["f"] == [1, 0, 0, 14, 0, 0, 735, 0, 0, 4802, 0, 0, 117649]
    rec2 = h_poly_tower("artin-schreier", 3, 7, 2)
    assert rec2["degree"] == 48
    assert rec2["stabilization_passed"] is True
    rows = rec2["stabilization"][0]["rows"]
    assert all(row["sign_plus"] and not row["sign_minus"] for row in rows)


def test_tower_poly_predicts_extension_counts():
    rec = h_poly_tower("fermat", 3, 7, 2)
    predicted = predicted_counts(rec["f"], 7, 3)
    for m in range(1, 4):
        assert predicted[m - 1] == fermat_enum_count(7**m, 9)["count"]
    rec = h_poly_tower("artin-schreier", 3, 7, 2)
    predicted = predicted_counts(rec["f"], 7, 3)
    for m in range(1, 4):
        assert predicted[m - 1] == artin_schreier_enum_count(7, m, 9)["count"]


def test_tower_poly_input_checks():
    with pytest.raises(InputError):
        h_poly_tower("unknown", 3, 7, 1)
    with pytest.raises(InputError):
        h_poly_tower("fermat", 3, 7, 0)


def test_descent_jacobi_identity():
    for v1, v2 in [(1, 1), (2, 2)]:
        rec = coleman_jacobi_check(3, 7, v1, v2)
        assert rec["passed"] is True
        assert rec["extension_q"] == 343
        assert rec["scale"] == 7
    rec = coleman_jacobi_check(3, 19, 1, 1)
    assert rec["passed"] is True
    assert rec["extension_q"] == 19**3


def test_descent_jacobi_rejects_degenerate_pairs():
    with pytest.raises(InputError):
        coleman_jacobi_check(3, 7, 1, 2)  # v1 + v2 degenerate
    with pytest.raises(InputError):
        coleman_jacobi_check(3, 7, 3, 1)  # v1 degenerate


def test_descent_gauss_identity():
    rec = coleman_gauss_check(3, 7)
    assert rec["status"] == "pass"
    assert rec["sign"] == 1
    assert len(rec["rows"]) > 1
    single = coleman_gauss_check(3, 7, v=1)
    assert single["status"] == "pass"
    with pytest.raises(InputError):
        coleman_gauss_check(3, 7, v=3)


def test_descent_gauss_identity_deeper_base():
    rec = coleman_gauss_check(3, 19)
    assert rec["status"] == "pass"
    assert rec["sign"] == 1


def test_hyperelliptic_family_counts():
    rec = motivating_curve_counts(3)
    assert rec["counts"] == DEGREE_EIGHT_COUNTS
    rec = motivating_curve_counts(2)
    assert rec["counts"] == [4, 32]


def test_hyperelliptic_reference_polys():
    assert motivating_reference_poly(2) == [1, -2, 5]
    assert motivating_reference_poly(3) == [1, -2, 15, -20, 75, -50, 125]


def test_hyperelliptic_zeta_check():
    rec = motivating_zeta_check(2)
    assert rec["passed"] is True
    assert rec["genus"] == 1
    assert rec["coeffs"] == [1, -2, 5]
    assert rec["coeffs"] == rec["reference"]


def test_hyperelliptic_input_checks():
    with pytest.raises(InputError):
        motivating_zeta_check(1)


# -- failures name where they broke ------------------------------------------


def test_orbit_and_primitive_sum_failures_name_level_and_valuation(
        monkeypatch):
    monkeypatch.setattr(charsums, "min_val", lambda ell, xs: 0)
    want = {"level": 2, "valuation": 0, "required": 2}
    with pytest.raises(CheckFailed) as exc:
        s_rho_n(3, 2, 4, 1, 9)
    assert exc.value.context == want
    with pytest.raises(CheckFailed) as exc:
        primitive_char_sum(3, 2, (2, 2), (1, 1))
    assert exc.value.context == want


def test_zeta_from_counts_failures_name_the_index_and_values():
    with pytest.raises(CheckFailed) as exc:
        zeta_from_counts(5, 1, [100, 100])  # a_1 = -94, |a_1| > 2 sqrt 5
    assert exc.value.context == {"m": 1, "trace": -94, "genus": 1, "q": 5}
    with pytest.raises(CheckFailed) as exc:
        zeta_from_counts(5, 1, [6, 26])  # a_1 = a_2 = 0 gives c_2 = 0 != 5
    assert exc.value.context == {"k": 0, "high": 0, "low": 1, "genus": 1,
                                 "q": 5}


def test_coleman_cores_name_level_and_subfield():
    # F_7 is not a subfield of F_19: the index-3 subgroup stands in for it
    big = field_build(19, 1)
    with pytest.raises(CheckFailed) as exc:
        charsums._coleman_jacobi_core(big, 7, 3, 1, 1, 1)
    assert exc.value.context == {"level": 1, "sub_q": 7}
    with pytest.raises(CheckFailed) as exc:
        charsums._coleman_gauss_core(big, 7, 3, 1, 1)
    assert exc.value.context == {"level": 1, "sub_q": 7}
