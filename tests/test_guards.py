"""Every resource guard names its limit, the measured size and where it
tripped, on real inputs above the constants."""

from __future__ import annotations

import json
import math
import time

import pytest

from towerlim import tower
from towerlim.charsums import (
    ENUM_CAP,
    TRACE_WORK_CAP,
    h_poly_tower,
    motivating_curve_counts,
    prime_power_split,
    primitive_char_sum,
)
from towerlim.cli import main
from towerlim.errors import GuardExceeded
from towerlim.fields import FIELD_CAP, FqField, field_build
from towerlim.matfermat import (
    MAX_POWER_DIGITS,
    MAX_TRACE_DIGITS,
    arnold_zarelua_check,
)
from towerlim.tower import (
    MAX_PRODUCT_BYTES,
    ORBIT_CAP,
    frobenius_product,
    make_tower_spec,
    orbit_params,
    primitive_orbit_reps,
    qsum_rows,
    r_poly,
)

GEN = make_tower_spec(3, 2, 1, [[4, 0], [3, 4]],
                      [((0, 0), [[1]]), ((3, 1), [[1]])], 4)
# Q = diag(4, 1, ..., 1): (log Q / 3) v = 0 for v = e_2, so no modulus
# certifies beta0 before 3^(8c) passes the orbit cap at c = 2
FLAT = make_tower_spec(
    3, 8, 1, [[4 if i == j == 0 else int(i == j) for j in range(8)]
              for i in range(8)],
    [((0,) * 8, [[1]]), ((1,) + (0,) * 7, [[1]])], 1)
EYE4 = [[int(i == j) for j in range(4)] for i in range(4)]
WIDE = make_tower_spec(3, 1, 4, [[4]], [((0,), EYE4), ((1,), EYE4)], 14)


def _aggregate_at_1000_bytes(monkeypatch):
    monkeypatch.setattr(tower, "MAX_PRODUCT_BYTES", 1000)
    r_poly(GEN, 2, {})


CASES = {
    "field_build": (lambda mp: field_build(7, 9),
                    {"p": 7, "f": 9, "limit": FIELD_CAP}),
    "FqField": (lambda mp: FqField(13, 7),
                {"p": 13, "f": 7, "limit": FIELD_CAP}),
    "motivating": (lambda mp: motivating_curve_counts(4),
                   {"p": 5, "f": 14, "limit": FIELD_CAP}),
    "motivating_level_24": (lambda mp: motivating_curve_counts(24),
                            {"p": 5, "f": 2**24 - 2, "limit": FIELD_CAP}),
    "orbit_scan": (lambda mp: primitive_orbit_reps(GEN, 8),
                   {"level": 8, "need": 3**16, "limit": ORBIT_CAP}),
    "beta0": (lambda mp: orbit_params(FLAT),
              {"level": 2, "need": 3**16, "limit": ORBIT_CAP}),
    "module": (lambda mp: primitive_char_sum(3, 15, [15], [1]),
               {"shape": (15,), "need": 3**15, "limit": ENUM_CAP}),
    "twisted_product": (lambda mp: frobenius_product(
                            WIDE, 14, (1,), tower.build_ring(WIDE, 14)),
                        {"level": 14, "rep": (1,),
                         "need": 3 * 16 * 3**14 * 8,
                         "limit": MAX_PRODUCT_BYTES}),
    # level 3 over F_487: 33 unit-orbit Jacobi sums in Z[zeta_27] (phi 18),
    # k_3 = 1, degree 594, 9-bit q
    "trace_powers": (lambda mp: h_poly_tower("fermat", 3, 487, 3),
                     {"family": "fermat", "level": 3,
                      "need": 33 * 18 * 1 * 9 * 594 * 595 // 4,
                      "limit": TRACE_WORK_CAP}),
    # the class of (1, 0) at level 2 has six orbits: its norm has degree 6
    "aggregate": (_aggregate_at_1000_bytes,
                  {"level": 2, "rep": (1, 0), "degree": 6,
                   "need": 3 * 7 * 9 * 8, "limit": 1000}),
}


@pytest.mark.parametrize("site", sorted(CASES))
def test_guard_context_names_limit_size_and_site(monkeypatch, site):
    call, want = CASES[site]
    with pytest.raises(GuardExceeded) as err:
        call(monkeypatch)
    assert err.value.context == want
    if "p" in want:  # p^f can take seconds to form: compare logarithms
        assert want["f"] * math.log(want["p"]) > math.log(want["limit"])
    else:
        assert want["need"] > want["limit"]


def test_field_guard_trips_at_once_however_large_the_degree():
    # y^2 = x^(2^24) + 1 needs F_(5^(2^24 - 2)); the guard must not form
    # that power (5^(2^22) alone takes seconds) before refusing it.
    start = time.perf_counter()
    assert main(["zeta", "motivating", "--level", "24"]) == 4
    assert time.perf_counter() - start < 1.0


def test_trace_power_guard_trips_before_the_first_power(capsys):
    # level 3's powers would run for seconds; level 2 passes the guard
    start = time.perf_counter()
    assert main(["zeta", "fermat", "--ell", "3", "--q", "487", "--n", "3"]) == 4
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "fermat level 3" in err
    assert main(["zeta", "fermat", "--ell", "3", "--q", "487", "--n", "2",
                 "--m-max", "1"]) == 0


# a prime, so trial division would run up to sqrt(q), about 3.2e8 steps
BIG_Q = 10**17 + 3


@pytest.mark.parametrize("argv", [
    ["zeta", "fermat", "--ell", "3", "--n", "1", "--q", str(BIG_Q)],
    ["coleman", "jacobi", "--ell", "3", "--q", str(BIG_Q),
     "--v1", "1", "--v2", "1"],
])
def test_q_past_the_field_guard_is_refused_before_factoring(argv, capsys):
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"q = {BIG_Q}" in err
    with pytest.raises(GuardExceeded) as exc:
        prime_power_split(BIG_Q)
    assert exc.value.context == {"q": BIG_Q, "limit": FIELD_CAP}


@pytest.mark.parametrize("n_range, level", [
    ("1..30", 11),          # 5^11 > ORBIT_CAP >= 5^10
    ("1..1000000000", 11),  # 5^(10^9) is never formed
    ("20..25", 20),         # the first level in the range is named
])
def test_qsum_refuses_a_range_past_the_orbit_cap_before_any_level(
        tmp_path, capsys, n_range, level):
    # Each qsum level buffers and walks up to l^n exponents.
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "ell": 5, "b": 1, "r": 1, "Q": [6], "n_max": 3,
        "F": [{"exponents": [0], "matrix": [1]},
              {"exponents": [1], "matrix": [1]}],
    }))
    start = time.perf_counter()
    assert main(["qsum", "--config", str(cfg), "--lambda", "4", "--v", "1",
                 "--n-range", n_range]) == 4
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"level {level}" in err
    spec = make_tower_spec(5, 1, 1, [[6]], [((0,), [[1]]), ((1,), [[1]])], 3)
    lo, hi = (int(x) for x in n_range.split(".."))
    with pytest.raises(GuardExceeded) as exc:
        qsum_rows(spec, [4], [1], lo, hi)
    assert exc.value.context == {"level": level, "limit": ORBIT_CAP}


@pytest.mark.parametrize("n, step, limit", [
    (10, 11, MAX_POWER_DIGITS),  # 2^(3^11) would pass 10^50000
    (8, 9, MAX_TRACE_DIGITS),    # tr 2^(3^9) has 5,926 digits
])
def test_arnold_guards_name_n_step_and_digits(n, step, limit):
    with pytest.raises(GuardExceeded) as err:
        arnold_zarelua_check([[2]], 3, n)
    ctx = err.value.context
    assert (ctx["n"], ctx["step"], ctx["limit"]) == (n, step, limit)
    assert ctx["digits"] > limit
