"""Every resource guard names its limit, the measured size and where it
tripped, on real inputs above the constants."""

from __future__ import annotations

import ast
import importlib
import itertools
import json
import math
import re
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import towerlim
from towerlim import charsums, tower
from towerlim.charsums import (
    ENUM_CAP,
    NORM_WORK_CAP,
    h_poly_tower,
    motivating_curve_counts,
    prime_power_split,
    primitive_char_sum,
)
from towerlim.cli import build_parser, main
from towerlim.errors import GuardExceeded, InputError
from towerlim.fields import FIELD_CAP, FqField, field_build
from towerlim.matrices import SLAB, successor_table
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
# Q = diag(4, 1, ..., 1): (log Q / 3) v = 0 for v = e_2, a singular X that
# no modulus certifies beta0 for
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
    "module": (lambda mp: primitive_char_sum(3, 15, [15], [1]),
               {"shape": (15,), "need": 3**15, "limit": ENUM_CAP}),
    "twisted_product": (lambda mp: frobenius_product(
                            WIDE, 14, (1,), tower.build_ring(WIDE, 14)),
                        {"level": 14, "rep": (1,),
                         "need": 3 * 16 * 3**14 * 8,
                         "limit": MAX_PRODUCT_BYTES}),
    # level 2 over F_197 (l = 7): 53 unit-orbit Jacobi sums in Z[zeta_49]
    # (phi 42), k_2 = 1, so c = 42 conjugates each; 8-bit q; f_2 of degree
    # 48 * 47
    "norm_products": (lambda mp: h_poly_tower("fermat", 7, 197, 2),
                      {"family": "fermat", "level": 2,
                       "need": 53 * (42 * 43 // 2) * 42 * 42 * (8 // 2 + 1)
                       + 2256 * 2256 * (8 // 2 + 1),
                       "limit": NORM_WORK_CAP}),
    # level 2 over F_487: one Gauss sum, e = 9, c = 6; f_2 of degree 486 * 8
    "norm_products_as": (lambda mp: h_poly_tower("artin-schreier", 3, 487, 2),
                         {"family": "artin-schreier", "level": 2,
                          "need": 1 * (6 * 7 // 2) * 6 * 6 * (9 * 9 // 2 + 1)
                          + 3888 * 3888 * (9 // 2 + 1),
                          "limit": NORM_WORK_CAP}),
    # the class of (1, 0) at level 2 has six orbits: its norm has degree 6,
    # and its largest convolve multiplies two conjugates in K_2 (3 rows at
    # stride 11) by a third (2 rows), entries below 3^14: 54 output slots
    # of 7 bytes, since (3^14 - 1)^2 * 22 < 2^49 leaves a sign bit in 56,
    # each counted with an 8-byte word, a list pointer and one int
    "aggregate": (_aggregate_at_1000_bytes,
                  {"level": 2, "rep": (1, 0), "degree": 6,
                   "need": (33 + 22 - 1) * (
                       4 * 7 + 16 + sys.getsizeof((3**14 - 1) ** 2 * 22)),
                   "limit": 1000}),
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


def _traced_peak(call):
    """Peak bytes traced while `call` runs, numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_orbit_cap_refuses_before_the_scan_allocates(monkeypatch):
    # gen level 4 scans 81^2 points, 8 bytes each (successor table and
    # labels); one point over the cap is refused before either exists
    monkeypatch.setattr(tower, "ORBIT_CAP", 3**8 - 1)
    monkeypatch.setattr(tower, "orbit_reps", None)  # never reached

    def scan():
        with pytest.raises(GuardExceeded) as err:
            primitive_orbit_reps(GEN, 4)
        assert err.value.context == {"level": 4, "need": 3**8,
                                     "limit": 3**8 - 1}

    assert _traced_peak(scan) < 3**8  # under a byte a point


@pytest.mark.parametrize("q, mod", [([[4]], 3**12), ([[4, 0], [3, 4]], 3**6),
                                    ([[4, 3, 0], [0, 4, 3], [3, 0, 1]], 3**4)])
def test_successor_table_build_holds_the_table_and_one_slab(q, mod):
    # 4 bytes a point for the table, and one slab's int64 coordinates and
    # sums (2b + 3 arrays of SLAB entries), so nothing of b * mod^b: at
    # 3^12 points, 32 slabs, under 7 bytes a point, where one int64
    # coordinate of every point would take 8
    b, total = len(q), mod ** len(q)
    assert total == 3**12
    peak = _traced_peak(lambda: successor_table(q, mod, b))
    assert peak < 4 * total + 8 * (2 * b + 4) * SLAB < 7 * total


def test_singular_log_q_is_refused_before_any_orbit_is_walked(tmp_path,
                                                              capsys):
    # Q = [[4, -3], [-9, 10]] fixes (1, 1): once a 14 s enumeration of
    # 3^16 residue vectors that ended at the orbit cap
    with pytest.raises(InputError) as exc:
        orbit_params(FLAT)
    assert exc.value.context == {"field": "Q"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "ell": 3, "b": 2, "r": 1, "Q": [[4, -3], [-9, 10]], "n_max": 4,
        "F": [{"exponents": [0, 0], "matrix": [1]},
              {"exponents": [3, 1], "matrix": [1]}],
    }))
    start = time.perf_counter()
    assert main(["converge", "--config", str(cfg), "--mode", "general"]) == 3
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "orbit depth did not stabilize" in err


def test_m_max_refusal_names_its_field():
    args = build_parser().parse_args(
        ["zeta", "as", "--ell", "3", "--q", "7", "--n", "1", "--m-max", "0"])
    with pytest.raises(InputError) as exc:
        args.func(args)
    assert exc.value.context == {"field": "m_max"}


@pytest.mark.parametrize("call, message, field", [
    (lambda: prime_power_split(12), "12 is not a prime power", "q"),
    (lambda: prime_power_split(1), "1 is not a prime power", "q"),
    (lambda: h_poly_tower("klein", 3, 7, 1),
     "family must be 'fermat' or 'artin-schreier'", "family"),
    (lambda: h_poly_tower("fermat", 3, 5, 1), "need 3 | q - 1 (q = 5)", "q"),
    (lambda: h_poly_tower("fermat", 3, 7, 0),
     "tower depth n must be >= 1", "n"),
    (lambda: charsums.artin_schreier_enum_count(7, 1, 0),
     "need d >= 1 and m >= 1", "d"),
    (lambda: charsums.artin_schreier_enum_count(7, 0, 3),
     "need d >= 1 and m >= 1", "m"),
    (lambda: charsums.fermat_enum_count(7, 0), "exponent d must be >= 1",
     "d"),
    (lambda: charsums.predicted_counts([1], 7, 65),
     "prediction range is capped at 64", "m_max"),
])
def test_curve_pipeline_refusals_name_their_field(call, message, field):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message
    assert exc.value.context == {"field": field}


def test_field_guard_trips_at_once_however_large_the_degree():
    # y^2 = x^(2^24) + 1 needs F_(5^(2^24 - 2)); the guard must not form
    # that power (5^(2^22) alone takes seconds) before refusing it.
    start = time.perf_counter()
    assert main(["zeta", "motivating", "--level", "24"]) == 4
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("family, ell, q", [("fermat", 7, 197),
                                             ("as", 3, 487)])
def test_norm_guard_trips_before_the_first_product(monkeypatch, capsys,
                                                   family, ell, q):
    # level 2's norms and f_2 would run for seconds; level 1 passes the guard
    levels = []
    real = charsums._generator_norm

    def recording(family, m, *args):
        levels.append(m)
        return real(family, m, *args)

    monkeypatch.setattr(charsums, "_generator_norm", recording)
    start = time.perf_counter()
    assert main(["zeta", family, "--ell", str(ell), "--q", str(q),
                 "--n", "2"]) == 4
    assert time.perf_counter() - start < 1.0
    assert set(levels) == {1}
    out, err = capsys.readouterr()
    assert out == "" and "level 2" in err


@pytest.mark.parametrize("ell, q", [(46337, 648719), (46349, 92699)])
def test_norm_guard_trips_before_the_jacobi_pair_scan(monkeypatch, capsys,
                                                      ell, q):
    # level 1 would scan ell^2 > 2^31 pairs: about 17 GB of table and
    # labels, or past the scan's int32 indices; the closed-form counts
    # refuse it first
    monkeypatch.setattr(charsums, "_fresh_orbits", None)  # never reached
    assert main(["zeta", "fermat", "--ell", str(ell), "--q", str(q),
                 "--n", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "Traceback" not in err
    assert f"fermat level 1: {ell - 2} norms over {ell - 1} conjugates" in err


def test_fermat_487_runs_to_level_3():
    # 33 norms over 18 conjugates and f_3 of degree 650 (h_3 reaches
    # 2,653-bit coefficients) fit the budget: about 0.5 s
    assert main(["zeta", "fermat", "--ell", "3", "--q", "487", "--n", "3",
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


SRC = Path(towerlim.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def _guard_limits() -> set[str]:
    """`module.NAME` of every NAME passed as limit= to a GuardExceeded in
    the package, NAME resolved to the module whose top level binds it."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    home = {t.id: module for module, tree in trees.items()
            for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)}
    return {f"{home[kw.value.id]}.{kw.value.id}"
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "GuardExceeded"
            for kw in node.keywords
            if kw.arg == "limit" and isinstance(kw.value, ast.Name)}


def _readme_guard_constants() -> set[str]:
    """The `module.NAME` entries of the README guard table's constant
    column."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("  | guard | constant | limit |")
    rows = itertools.takewhile(lambda s: s.startswith("  |"), lines[start:])
    return {name for row in rows
            for name in re.findall(r"`(\w+\.\w+)`",
                                   re.split(r"(?<!\\)\|", row)[2])}


def test_readme_guard_table_and_guard_limits_agree():
    # every guard limit has a row, and every row names a real constant
    table = _readme_guard_constants()
    assert _guard_limits() - table == set()
    for name in sorted(table):
        module, const = name.split(".")
        assert hasattr(importlib.import_module(f"towerlim.{module}"),
                       const), name
