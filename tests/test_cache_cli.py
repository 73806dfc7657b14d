"""Tests for the result cache and the command-line driver."""

from __future__ import annotations

import json
import os
from collections import Counter

import pytest

from towerlim import charsums, tower
from towerlim.cache import (
    CACHE_VERSION,
    cache_get,
    cache_put,
    cached_r_poly,
    resolve_cache_dir,
)
from towerlim.cli import main
from towerlim.config import load_config
from towerlim.tower import json_digest, make_tower_spec, r_poly

SCALAR_CONFIG = {
    "name": "scalar-demo",
    "ell": 5,
    "b": 1,
    "r": 1,
    "Q": [6],
    "F": [
        {"exponents": [0], "matrix": [1]},
        {"exponents": [1], "matrix": [1]},
    ],
    "n_max": 3,
}

GENERAL_CONFIG = {
    "name": "general-demo",
    "ell": 3,
    "b": 2,
    "r": 1,
    "Q": [[4, 0], [3, 4]],
    "F": [
        {"exponents": [0, 0], "matrix": [1]},
        {"exponents": [3, 1], "matrix": [1]},
    ],
    "n_max": 3,
}


def _write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def _spec():
    return make_tower_spec(3, 1, 1, [[4]], [((0,), [[1]]), ((1,), [[1]])], 3)


# ---------------------------------------------------------------- cache layer


def test_cache_roundtrip(tmp_path):
    payload = {"coeffs": ["1", "2"], "k_n": 3}
    cache_put(str(tmp_path), "digest-a", 2, payload)
    assert cache_get(str(tmp_path), "digest-a", 2) == payload
    assert cache_get(str(tmp_path), "digest-a", 3) is None
    assert cache_get(str(tmp_path), "digest-b", 2) is None


def test_cache_none_dir_is_disabled(tmp_path):
    cache_put(None, "d", 1, {"x": 1})
    assert cache_get(None, "d", 1) is None


def test_cache_entry_files_are_keyed_by_digest_and_level(tmp_path):
    cache_put(str(tmp_path), "abc123", 4, {"x": 1})
    assert (tmp_path / "abc123-n4.json").exists()


def test_cache_ignores_corrupt_entries(tmp_path):
    cache_put(str(tmp_path), "d", 1, {"x": 1})
    entry = tmp_path / "d-n1.json"
    entry.write_text("{ not json")
    assert cache_get(str(tmp_path), "d", 1) is None


def test_cache_ignores_version_and_key_mismatches(tmp_path):
    cache_put(str(tmp_path), "d", 1, {"x": 1})
    entry = tmp_path / "d-n1.json"
    data = json.loads(entry.read_text())
    data["version"] = CACHE_VERSION + 1
    entry.write_text(json.dumps(data))
    assert cache_get(str(tmp_path), "d", 1) is None
    data["version"] = CACHE_VERSION
    data["digest"] = "other"
    entry.write_text(json.dumps(data))
    assert cache_get(str(tmp_path), "d", 1) is None


def test_resolve_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    configured = str(tmp_path / "configured")
    assert resolve_cache_dir(None) is None
    assert resolve_cache_dir(configured) == configured
    assert os.path.isdir(configured)  # created once, when resolved
    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "env"))
    assert resolve_cache_dir(configured) == str(tmp_path / "env")
    assert resolve_cache_dir(None) == str(tmp_path / "env")


def test_converge_refuses_an_unusable_cache_dir(tmp_path, capsys,
                                                monkeypatch):
    # A read-only directory would be refused the same way; a test running
    # as root cannot make one, since root may write anywhere.
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("")
    monkeypatch.setenv("TOWERLIM_CACHE", str(blocker))
    computed = []
    monkeypatch.setattr("towerlim.cli.orbit_params",
                        lambda spec: computed.append(spec))
    cfg = _write_config(tmp_path, GENERAL_CONFIG)
    assert main(["converge", "--config", cfg, "--mode", "general"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and computed == []
    assert err.count("\n") == 1 and str(blocker) in err


def test_cached_r_poly_matches_direct_computation(tmp_path):
    spec = _spec()
    direct_poly, direct_meta = r_poly(spec, 2, {})
    cold_poly, cold_meta = cached_r_poly(spec, 2, str(tmp_path), {})
    warm_poly, warm_meta = cached_r_poly(spec, 2, str(tmp_path), {})
    assert cold_poly == direct_poly
    assert warm_poly == direct_poly
    assert cold_meta == direct_meta == warm_meta
    assert (tmp_path / f"{spec.level_digest()}-n2.json").exists()


def test_cached_r_poly_recomputes_after_corruption(tmp_path):
    spec = _spec()
    poly, _ = cached_r_poly(spec, 1, str(tmp_path), {})
    entry = tmp_path / f"{spec.level_digest()}-n1.json"
    assert entry.exists()
    entry.write_text("garbage")
    again, _ = cached_r_poly(spec, 1, str(tmp_path), {})
    assert again == poly


def test_converge_recomputes_tampered_cache_entry(tmp_path, capsys,
                                                  monkeypatch):
    # A payload edited after writing no longer matches its stored hash.
    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "cache"))
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    argv = ["converge", "--config", cfg, "--mode", "scalar"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    [entry] = (tmp_path / "cache").glob("*-n2.json")
    data = json.loads(entry.read_text())
    good = data["payload"]["coeffs"][1]
    data["payload"]["coeffs"][1] = str(int(good) + 1)
    entry.write_text(json.dumps(data))
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    cold.pop("timings")
    warm.pop("timings")
    assert warm == cold
    assert json.loads(entry.read_text())["payload"]["coeffs"][1] == good


@pytest.mark.parametrize("tamper", [
    lambda meta: meta.pop("degree"),
    lambda meta: meta.update(degree=meta["degree"] + 1),
    lambda meta: meta.update(num_orbits=str(meta["num_orbits"])),
    lambda meta: meta.update(k_n=True),
], ids=["no_degree", "degree_off", "num_orbits_text", "k_n_bool"])
def test_converge_recomputes_an_entry_the_report_cannot_read(
        tmp_path, capsys, monkeypatch, tamper):
    # The entry's hash is recomputed after the edit, so it checks out: only
    # reading the metadata the report prints can tell it is unusable.
    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "cache"))
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    argv = ["converge", "--config", cfg, "--mode", "scalar"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    [entry] = (tmp_path / "cache").glob("*-n2.json")
    original = entry.read_bytes()
    data = json.loads(original)
    tamper(data["payload"]["meta"])
    data["sha256"] = json_digest(data["payload"])
    entry.write_text(json.dumps(data))
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    cold.pop("timings")
    warm.pop("timings")
    assert warm == cold
    assert entry.read_bytes() == original  # recomputed and rewritten


def test_warm_run_checks_cached_k_n_against_the_threshold(
        tmp_path, capsys, monkeypatch):
    # A re-signed entry passes every cache check; its k_n must still be
    # l^max(0, n - n0), or the run stops before any row
    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "cache"))
    argv = ["converge", "--config", _write_config(tmp_path, GENERAL_CONFIG),
            "--mode", "general"]
    assert main(argv) == 0
    capsys.readouterr()
    [entry] = (tmp_path / "cache").glob("*-n2.json")
    data = json.loads(entry.read_text())
    data["payload"]["meta"]["k_n"] *= 3
    data["sha256"] = json_digest(data["payload"])
    entry.write_text(json.dumps(data))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "level 2 has k_n = 9, but n0 = 1" in err


def test_converge_reuses_cached_levels_across_n_max(tmp_path, capsys,
                                                    monkeypatch):
    import towerlim.cache as cache

    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "cache"))
    cfg = _write_config(tmp_path, {**SCALAR_CONFIG, "precision": 20})
    argv = ["converge", "--config", cfg, "--mode", "scalar"]
    assert main(argv) == 0
    capsys.readouterr()
    computed = []
    real = cache.r_poly

    def counting(spec, n, pieces):
        computed.append(n)
        return real(spec, n, pieces)

    monkeypatch.setattr(cache, "r_poly", counting)
    assert main(argv + ["--n-max", "4"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [lvl["n"] for lvl in rep["levels"]] == [1, 2, 3, 4]
    assert computed == [4]


# ------------------------------------------------------------------ converge


def test_converge_scalar_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    assert main(["converge", "--config", cfg, "--mode", "scalar"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["tool"] == "towerlim"
    assert rep["command"] == "converge"
    assert rep["mode"] == "scalar"
    assert rep["config_digest"]
    assert rep["orbit"]["n0"] == 1
    assert {row["status"] for row in rep["rows"]} == {"pass"}
    assert [lvl["n"] for lvl in rep["levels"]] == [1, 2, 3]
    assert "timings" in rep


def test_converge_general_report(tmp_path, capsys):
    cfg = _write_config(tmp_path, GENERAL_CONFIG)
    out_file = tmp_path / "report.json"
    code = main(["converge", "--config", cfg, "--mode", "general",
                 "--out", str(out_file)])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert json.loads(out_file.read_text()) == rep
    assert [(row["n"], row["measured"], row["status"]) for row in rep["rows"]] == [
        (1, 3, "pass"),
        (2, 6, "pass"),
    ]


def test_converge_below_threshold_still_succeeds(tmp_path, capsys):
    cfg_data = dict(GENERAL_CONFIG)
    cfg_data["Q"] = [[10, 0], [0, 10]]
    cfg = _write_config(tmp_path, cfg_data)
    assert main(["converge", "--config", cfg, "--mode", "general"]) == 0
    rep = json.loads(capsys.readouterr().out)
    statuses = [row["status"] for row in rep["rows"]]
    assert statuses == ["below-threshold", "pass"]


def test_converge_n_max_override(tmp_path, capsys):
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    assert main(["converge", "--config", cfg, "--mode", "scalar",
                 "--n-max", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [lvl["n"] for lvl in rep["levels"]] == [1, 2]
    # without a configured precision the default follows the new n_max
    assert rep["precision"] == 1 * 2 + 6


def test_converge_n_max_keeps_configured_precision(tmp_path, capsys):
    cfg = _write_config(tmp_path, {**SCALAR_CONFIG, "precision": 20})
    argv = ["converge", "--config", cfg, "--mode", "scalar"]
    assert main(argv) == 0
    plain = json.loads(capsys.readouterr().out)
    assert main(argv + ["--n-max", "3"]) == 0
    same = json.loads(capsys.readouterr().out)
    assert same["precision"] == plain["precision"] == 20
    assert same["config_digest"] == plain["config_digest"]
    assert main(argv + ["--n-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["precision"] == 20


def test_converge_warm_cache_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "cache"))
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    argv = ["converge", "--config", cfg, "--mode", "scalar"]
    assert main(argv) == 0
    cold = json.loads(capsys.readouterr().out)
    assert (tmp_path / "cache").is_dir()
    assert main(argv) == 0
    warm = json.loads(capsys.readouterr().out)
    cold.pop("timings")
    warm.pop("timings")
    assert cold == warm


# (reps, classes, direct charpolys, product steps) a level; each level's
# products share one orbit size k_n and fit one batch, so they take k_n
# steps together
@pytest.mark.parametrize("mode, config, work, warm_work", [
    ("general", GENERAL_CONFIG,
     [(8, 4, 8, 1), (24, 6, 12, 3), (72, 12, 24, 9)], [(0, 0, 0, 0)] * 3),
    # the scalar rows need every p_{n,v}, which the cache does not hold
    ("scalar", SCALAR_CONFIG, [(4, 1, 2, k) for k in (1, 5, 25)],
     [(4, 1, 2, k) for k in (1, 5, 25)]),
])
def test_converge_timings_count_each_levels_work(
        tmp_path, capsys, monkeypatch, mode, config, work, warm_work):
    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "cache"))
    argv = ["converge", "--config", _write_config(tmp_path, config),
            "--mode", mode]
    for want in (work, warm_work):
        assert main(argv) == 0
        levels = json.loads(capsys.readouterr().out)["timings"]["levels"]
        assert levels == [
            {"n": n, "reps": r, "classes": c, "direct_charpolys": d,
             "product_steps": k}
            for n, (r, c, d, k) in enumerate(want, start=1)]


# the benchmark's scalar-l7-wide config at seed 0
SCALAR_L7_CONFIG = {
    "name": "scalar-l7-wide",
    "ell": 7, "b": 1, "r": 2, "Q": [8],
    "F": [{"exponents": [0], "matrix": [[2, 2], [-4, 0]]},
          {"exponents": [1], "matrix": [[4, 3], [2, 0]]},
          {"exponents": [2], "matrix": [[3, 1], [-1, 4]]}],
    "n_max": 3,
}


def test_one_orbit_scan_per_level_per_run(tmp_path, capsys, monkeypatch):
    scans = []
    real = tower.primitive_orbit_reps
    monkeypatch.setattr(tower, "primitive_orbit_reps",
                        lambda spec, n: scans.append(n) or real(spec, n))
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    # cold scalar run: each level's record; orbit_params, the threshold
    # check, the rows and r_poly scan nothing of their own
    assert main(["converge", "--config",
                 _write_config(tmp_path, SCALAR_L7_CONFIG, "l7.json"),
                 "--mode", "scalar"]) == 0
    assert Counter(scans) == {1: 1, 2: 1, 3: 1}
    # warm general run: every level read from the cache, so no scan at all
    monkeypatch.setenv("TOWERLIM_CACHE", str(tmp_path / "cache"))
    argv = ["converge", "--config", _write_config(tmp_path, GENERAL_CONFIG),
            "--mode", "general"]
    assert main(argv) == 0
    scans.clear()
    assert main(argv) == 0
    assert scans == []
    capsys.readouterr()


def test_converge_fail_rows_exit_nonzero(tmp_path, capsys, monkeypatch):
    # Force a failing row through the summary path to pin the exit-code
    # contract; real rows only fail if a verified congruence breaks.
    import towerlim.cli as cli
    from towerlim.tower import CongruenceRow

    def fake_rows(spec, params, pieces):
        return [CongruenceRow("scalar", 1, (1,), 1, 1, 2, 0, False, "fail")]

    monkeypatch.setattr(cli, "scalar_congruence_rows", fake_rows)
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    assert main(["converge", "--config", cfg, "--mode", "scalar"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["rows"][0]["status"] == "fail"


def test_converge_input_errors(tmp_path, capsys):
    assert main(["converge", "--config", str(tmp_path / "no.json"),
                 "--mode", "scalar"]) == 3
    cfg = _write_config(tmp_path, GENERAL_CONFIG)
    # scalar mode on a non-scalar twist matrix is an input error
    assert main(["converge", "--config", cfg, "--mode", "scalar"]) == 3
    # a scalar twist whose precision cannot show depth b*(n_max - 1)
    cfg = _write_config(tmp_path, {
        **GENERAL_CONFIG, "Q": [[10, 0], [0, 10]], "n_max": 4,
        "precision": 5,
    }, "low.json")
    assert main(["converge", "--config", cfg, "--mode", "general"]) == 3
    capsys.readouterr()


def test_converge_refuses_scalar_mode_before_computing(tmp_path, capsys,
                                                       monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setenv("TOWERLIM_CACHE", str(cache))
    cfg = _write_config(tmp_path, GENERAL_CONFIG)
    assert main(["converge", "--config", cfg, "--mode", "scalar"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("towerlim: input error: scalar congruence mode requires "
                   "a scalar twist Q\n")
    assert not cache.exists() or list(cache.iterdir()) == []


@pytest.mark.parametrize("mode, config", [
    ("scalar", SCALAR_CONFIG), ("general", GENERAL_CONFIG)])
def test_rows_only_compare_the_levels_converge_passes(
        tmp_path, capsys, monkeypatch, mode, config):
    monkeypatch.delenv("TOWERLIM_CACHE", raising=False)
    cfg = _write_config(tmp_path, config)
    assert main(["converge", "--config", cfg, "--mode", mode]) == 0
    want = json.loads(capsys.readouterr().out)["rows"]
    spec = load_config(cfg).spec
    params = tower.orbit_params(spec)
    pieces = {}
    polys = {n: r_poly(spec, n, pieces) for n in range(1, spec.n_max + 1)}

    def refuse(*args):
        raise AssertionError("a row function computed level data")

    for name in ("r_poly", "p_poly", "p_polys", "orbit_params"):
        monkeypatch.setattr(tower, name, refuse)
    if mode == "scalar":
        rows = tower.scalar_congruence_rows(spec, params, pieces)
    else:
        rows = tower.general_congruence_rows(spec, params, polys)
    assert [r.as_record() for r in rows] == want


# ------------------------------------------------------------------- arnold


def test_arnold_command(capsys):
    assert main(["arnold", "--matrix", "2,1;0,3", "--ell", "3", "--n", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "pass"
    assert rep["required"] == 2


def test_arnold_even_prime_is_measured(capsys):
    assert main(["arnold", "--matrix", "1,1;1,0", "--ell", "2", "--n", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "measured"


def test_arnold_guard_refuses_traces_and_powers_past_its_caps(capsys):
    # tr 2^(3^9) has 5,926 digits, more than a report can print
    assert main(["arnold", "--matrix", "2", "--ell", "3", "--n", "8"]) == 4
    assert "n = 8" in capsys.readouterr().err
    assert main(["arnold", "--matrix", "2,1;1,1", "--ell", "3",
                 "--n", "8"]) == 4
    # A^2 = -27 I keeps every trace 0 while the entries grow: at n = 8 they
    # have about 14,000 digits and still report; the step to A^(3^11)
    # would pass 10^50000 and is refused before it is taken
    assert main(["arnold", "--matrix", "3,-6;6,-3", "--ell", "3",
                 "--n", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["trace_high"] == "0"
    assert main(["arnold", "--matrix", "3,-6;6,-3", "--ell", "3",
                 "--n", "10"]) == 4
    assert "n = 10" in capsys.readouterr().err
    # one level down the first two still report
    assert main(["arnold", "--matrix", "2", "--ell", "3", "--n", "7"]) == 0
    assert main(["arnold", "--matrix", "2,1;1,1", "--ell", "3",
                 "--n", "7"]) == 0
    capsys.readouterr()


def test_arnold_saturated_difference_passes_past_the_valuation_cap(capsys):
    # n + 1 = 65 exceeds VAL_CAP, but both differences are exactly zero
    assert main(["arnold", "--matrix", "0,-1;1,0", "--ell", "3",
                 "--n", "64"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["trace_saturated"] and rep["charpoly_saturated"]
    assert (rep["trace_valuation"], rep["charpoly_valuation"]) == (64, 64)
    assert (rep["required"], rep["status"]) == (65, "pass")


def test_arnold_rejects_malformed_matrix(capsys):
    assert main(["arnold", "--matrix", "1,2;3", "--ell", "3", "--n", "1"]) == 3
    assert main(["arnold", "--matrix", "a,b;c,d", "--ell", "3", "--n", "1"]) == 3
    capsys.readouterr()


# --------------------------------------------------------------------- zeta


def test_zeta_fermat_command(tmp_path, capsys):
    assert main(["zeta", "fermat", "--ell", "3", "--q", "7", "--n", "1",
                 "--m-max", "3"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["f"] == ["1", "1", "7"]
    assert [row["status"] for row in rep["counts"]] == ["pass"] * 3
    assert rep["counts"][0]["measured"] == "9"


def test_zeta_artin_schreier_command(capsys):
    assert main(["zeta", "as", "--ell", "3", "--q", "7", "--n", "1",
                 "--m-max", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["family"] == "artin-schreier"
    assert rep["degree"] == 12
    assert [row["measured"] for row in rep["counts"]] == ["8", "50"]


def test_zeta_motivating_command(capsys):
    assert main(["zeta", "motivating", "--level", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "pass"
    assert rep["coeffs"] == ["1", "-2", "5"]
    assert rep["counts"] == ["4", "32"]


def test_zeta_guard_exit(monkeypatch, capsys):
    # 7^9 > FIELD_CAP: refused before any field table is built
    builds = []
    monkeypatch.setattr(charsums, "field_build",
                        lambda *args: builds.append(args))
    assert main(["zeta", "fermat", "--ell", "3", "--q", "7", "--n", "1",
                 "--m-max", "9"]) == 4
    assert builds == []
    assert "7^9" in capsys.readouterr().err


# ------------------------------------------------------------------ coleman


def test_coleman_commands(capsys):
    assert main(["coleman", "jacobi", "--ell", "3", "--q", "7",
                 "--v1", "1", "--v2", "1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert main(["coleman", "gauss", "--ell", "3", "--q", "7"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["status"] == "pass"
    assert rep["sign"] == 1


def test_coleman_degenerate_pair_is_input_error(capsys):
    assert main(["coleman", "jacobi", "--ell", "3", "--q", "7",
                 "--v1", "1", "--v2", "2"]) == 3
    capsys.readouterr()


# --------------------------------------------------------------------- qsum


def test_qsum_command(tmp_path, capsys):
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    assert main(["qsum", "--config", cfg, "--lambda", "4", "--v", "1",
                 "--n-range", "1..3", "--emit-products"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [row["sum_is_zero"] for row in rep["rows"]] == [False, True, True]
    assert rep["products"][1]["diff_from_previous"] == {"exactly_zero": True}


def test_qsum_range_syntax(tmp_path, capsys):
    cfg = _write_config(tmp_path, SCALAR_CONFIG)
    assert main(["qsum", "--config", cfg, "--lambda", "4", "--v", "1",
                 "--n-range", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rep["rows"]] == [2]
    assert main(["qsum", "--config", cfg, "--lambda", "4", "--v", "1",
                 "--n-range", "5..2"]) == 3
    capsys.readouterr()


# ------------------------------------------------------------------- parser


def test_unknown_subcommand_is_input_error(capsys):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    capsys.readouterr()
