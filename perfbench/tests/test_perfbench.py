"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import signal
import sys
import time

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import pace  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from towerlim import cyclo, fields  # noqa: E402

SMALL_GENERAL = {
    "name": "small", "ell": 3, "b": 2, "r": 1, "Q": [[4, 0], [3, 4]],
    "F": [{"exponents": [0, 0], "matrix": [[1]]},
          {"exponents": [3, 1], "matrix": [[2]]}],
    "n_max": 2,
}


def _towerlim_bindings():
    """Every module global and patchable class attribute in the package."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "towerlim" or name.startswith("towerlim."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in (cyclo.CycloElem, cyclo.BiCycloElem, fields.FqField):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_restore_puts_back_every_patched_attribute():
    import towerlim.cli  # noqa: F401 -- bring every layer module in

    before = _towerlim_bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _towerlim_bindings()
        changed = {k for k in before if during[k] is not before[k]}
        for key in [("towerlim.tower", "p_poly"), ("towerlim.cache", "r_poly"),
                    ("towerlim.cli", "cached_r_poly"),
                    ("towerlim.charsums", "field_build"),
                    ("CycloElem", "__mul__"), ("CycloElem", "__rmul__"),
                    ("FqField", "add_batch")]:
            assert key in changed
    finally:
        t.restore()
    after = _towerlim_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("argv, cached", [
    (["converge", "--config", "{cfg}", "--mode", "general"], True),
    (["zeta", "as", "--ell", "3", "--q", "7", "--n", "1", "--m-max", "2"],
     False),
])
def test_traced_and_untraced_reports_match(tmp_path, argv, cached):
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps(SMALL_GENERAL))
    argv = [a.replace("{cfg}", str(cfg)) for a in argv]
    cache = str(tmp_path / "cache") if cached else None
    plain = run.run_child(argv, cache)
    traced = run.run_child(argv, cache, trace=True)
    assert run.command_failures(plain, None) == []
    assert plain["pace_s"] > 0 and traced["pace_s"] > 0
    digest = run.report_digest(json.loads(plain["report"]))
    assert run.command_failures(traced, digest) == []
    layers = tracer.finish(traced["layers"], run.PER_LAYER)
    if cached:  # the traced run reads what the plain run wrote
        assert layers["cache.hit_frac"] == 1.0
        assert layers["tower.aggregate.calls"] == 0
    else:
        assert layers["fields.codec.calls"] > 0
        assert layers["cyclo.bimul.calls"] > 0


def test_pacer_slices_around_and_during_a_command():
    before = signal.getsignal(signal.SIGALRM)
    pacer = pace.Pacer()
    pacer.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 3.5 * pace.INTERVAL_S:
        sum(range(1000))
    pacer.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(pacer.slices) >= 5  # one before, three during, one after
    assert pacer.inside_s == pytest.approx(sum(pacer.slices[1:-1]))
    assert pacer.pace_s() == pytest.approx(
        sum(pacer.slices) / len(pacer.slices))


@pytest.mark.parametrize("phi, modulus, want", [
    (100, None, "exact"),
    (15, 3**5, "small"), (16, 3**5, "window"),
    (100, 1 << 25, "window"), (100, (1 << 25) + 1, "wide"),
    (4096, 3**5, "window"), (4097, 3**5, "wide"),  # 2 phi - 1 = 8191, 8193
])
def test_mul_class_thresholds(phi, modulus, want):
    assert tracer.mul_class(phi, modulus) == want


def test_traced_multiplies_are_classified_by_ring():
    rings = {
        "window": cyclo.CycloRing(7, 3, 8),   # 7^8 < 2^25, phi = 294
        "wide": cyclo.CycloRing(7, 3, 9),     # 7^9 > 2^25
        "small": cyclo.CycloRing(3, 2, 9),    # phi = 6
        "exact": cyclo.CycloRing(3, 2, None),
    }
    t = tracer.Tracer()
    t.install()
    try:
        for ring in rings.values():
            x = ring.zeta(1) + 1
            assert (x * x) * 3 == 3 * (x * x)
    finally:
        t.restore()
    for cls in rings:
        assert t.counts[f"cyclo.mul.{cls}.calls"] == 2


def _report(rows):
    return {"tool": "towerlim", "rows": rows, "timings": {"x": 1.0}}


def test_gate_counts_fail_rows_and_wrong_digests():
    good = _report([{"status": "pass"}, {"status": "below-threshold"}])
    digest = run.report_digest(good)
    ok = {"exit": 0, "report": json.dumps(good), "wall_s": 1.0}
    assert run.command_failures(ok, digest) == []
    assert run.command_failures(ok, "0" * 64) != []
    retimed = dict(good, timings={"x": 2.0})
    assert run.report_digest(retimed) == digest

    bad = _report([{"status": "pass"}, {"status": "fail"}])
    assert run.command_failures(
        {"exit": 0, "report": json.dumps(bad)}, None) != []
    stab = dict(good, stabilization=[{"rows": [{"passed": False}]}])
    assert run.command_failures(
        {"exit": 0, "report": json.dumps(stab)}, None) != []
    assert run.command_failures(
        {"exit": 2, "report": json.dumps(good)}, digest) != []
    assert run.command_failures({"error": "Traceback\nValueError: x"},
                                None) != []


def test_seeded_inputs():
    default = workloads.general_config(workloads.DEFAULT_SEED)
    assert [(t["exponents"], t["matrix"]) for t in default["F"]] == [
        ([0, 0], [[1]]), ([3, 1], [[1]])]
    for seed in range(1, 20):
        cfg = workloads.general_config(seed)
        assert cfg == workloads.general_config(seed)
        coeffs = [t["matrix"][0][0] for t in cfg["F"]]
        assert all(c != 0 and -4 <= c <= 4 for c in coeffs)
        scalar = workloads.scalar_config(seed)
        assert scalar == workloads.scalar_config(seed)
        at_one = [[sum(t["matrix"][i][j] for t in scalar["F"])
                   for j in range(2)] for i in range(2)]
        det = at_one[0][0] * at_one[1][1] - at_one[0][1] * at_one[1][0]
        assert det % 7
    assert workloads.scalar_config(1) != workloads.scalar_config(2)


def test_every_workload_has_a_reference():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.NAMES
    with open(run.REFERENCE, encoding="utf-8") as fh:
        assert set(json.load(fh)) == set(workloads.NAMES)
    for name in workloads.NAMES:
        assert run.reference_digest(name, workloads.DEFAULT_SEED) is not None
    fixed = run.reference_digest(workloads.ENUM, workloads.DEFAULT_SEED)
    assert run.reference_digest(workloads.ENUM, 12345) == fixed
    assert run.reference_digest(workloads.GENERAL, 12345) is None
