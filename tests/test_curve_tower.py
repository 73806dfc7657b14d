"""The curve-tower numerators h_m from traces, against the serial product.

`serial_h` is the direct route: multiply out prod (1 + S y) over the
Frobenius orbits of fresh characters, one linear factor at a time in the
cyclotomic (Fermat) or bicyclotomic (Artin-Schreier) ring, and demote the
coefficients to integers.  `h_poly_tower` must give the same h_m while
forming only the powers of one generator per Galois orbit.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import towerlim
from towerlim import charsums
from towerlim.charsums import (
    _h_from_traces,
    gauss_sum,
    h_poly_tower,
    jacobi_sum,
    motivating_curve_counts,
    mult_order,
    prime_power_split,
)
from towerlim.cli import main
from towerlim.cyclo import BiCycloElem, CycloRing
from towerlim.errors import CheckFailed, GuardExceeded
from towerlim.fields import field_build

from oracles import poly_mul

CASES = [(3, 4, 2), (3, 7, 1), (3, 7, 2), (3, 19, 2), (3, 25, 1), (5, 11, 1)]


def frobenius_reps(family, ell, m, q):
    """One fresh character per orbit of v -> q v at level m, by plain sets."""
    d = ell**m
    if family == "fermat":
        chars = [(v1, v2) for v1 in range(d) for v2 in range(d)
                 if (v1 % ell or v2 % ell) and 0 not in (v1, v2, (v1 + v2) % d)]
    else:
        chars = [(v,) for v in range(d) if v % ell]
    reps, seen = [], set()
    for v in chars:
        if v in seen:
            continue
        reps.append(v)
        w = v
        while w not in seen:
            seen.add(w)
            w = tuple(q * x % d for x in w)
    return reps


def serial_h(family, ell, q, n):
    """h_1..h_n by the serial product of linear factors."""
    p, f = prime_power_split(q)
    out = []
    for m in range(1, n + 1):
        k_m = mult_order(q, ell**m)
        big = field_build(p, f * k_m)
        reps = frobenius_reps(family, ell, m, q)
        if family == "fermat":
            ring = CycloRing(ell, m, None)
            h = [ring.one()]
            for v1, v2 in reps:
                h = poly_mul(h, [1, jacobi_sum(big, ell, m, v1, v2)],
                             ring.zero())
            assert all(not any(c.coeffs[1:]) for c in h)
            out.append([c.coeffs[0] for c in h])
        else:
            step = (big.q - 1) // (q - 1)
            zero = gauss_sum(big, ell, m, 1).ring.zero()
            h = [zero + 1]
            for t in range(q - 1):
                a = int(big.exp_table[t * step])
                for (v,) in reps:
                    h = poly_mul(h, [1, gauss_sum(big, ell, m, v, a=a)], zero)
            out.append([charsums._elem_int([x for row in c.mat for x in row],
                                           "h coefficient") for c in h])
    return out


@pytest.mark.parametrize("family", ["fermat", "artin-schreier"])
@pytest.mark.parametrize("ell,q,n", CASES)
def test_h_matches_serial_product(family, ell, q, n):
    rec = h_poly_tower(family, ell, q, n)
    assert [lv["h"] for lv in rec["levels"]] == serial_h(family, ell, q, n)


def test_artin_schreier_work_counts(monkeypatch):
    counts = {"bimul": 0, "gauss": 0}
    bimul = BiCycloElem.__mul__
    gauss = charsums.gauss_sum

    def counting_mul(self, other):
        if not isinstance(other, int):
            counts["bimul"] += 1
        return bimul(self, other)

    def counting_gauss(*args, **kwargs):
        counts["gauss"] += 1
        return gauss(*args, **kwargs)

    monkeypatch.setattr(BiCycloElem, "__mul__", counting_mul)
    monkeypatch.setattr(charsums, "gauss_sum", counting_gauss)
    rec = h_poly_tower("artin-schreier", 3, 19, 2)
    assert [len(lv["h"]) - 1 for lv in rec["levels"]] == [36, 108]
    assert counts["bimul"] <= 142
    assert counts["gauss"] == 2


def test_trace_route_failures_name_where_they_broke():
    ring = CycloRing(3, 2, None)
    with pytest.raises(CheckFailed) as exc:
        _h_from_traces("fermat", 2, 2, [ring.zeta(1)], 3)
    assert exc.value.context == {"family": "fermat", "level": 2, "power": 3}
    assert "power 3" in str(exc.value)
    # Power sums 0, 0, -1 after dividing by 3: c_3 = -1/3.
    with pytest.raises(CheckFailed) as exc:
        _h_from_traces("fermat", 2, 3, [ring.zeta(1)], 3)
    assert exc.value.context == {"family": "fermat", "level": 2,
                                 "coefficient": 3}
    assert "fermat level-2" in str(exc.value)


def test_perturbed_gauss_sum_fails_the_zeta_command(monkeypatch, capsys):
    gauss = charsums.gauss_sum

    def perturbed(*args, **kwargs):
        g = gauss(*args, **kwargs)
        return g + g.ring.from_exponent_counts({(1, 1): 1})

    monkeypatch.setattr(charsums, "gauss_sum", perturbed)
    with pytest.raises(CheckFailed) as exc:
        h_poly_tower("artin-schreier", 3, 7, 2)
    assert exc.value.context["family"] == "artin-schreier"
    assert exc.value.context["level"] == 2
    assert "coefficient" in exc.value.context
    assert main(["zeta", "as", "--ell", "3", "--q", "7", "--n", "2"]) != 0
    out, err = capsys.readouterr()
    assert "pass" not in out
    assert "artin-schreier level-2 h: coefficient" in err


def test_motivating_field_guard_builds_nothing(monkeypatch, capsys):
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return field_build(*args, **kwargs)

    monkeypatch.setattr(charsums, "field_build", counting_build)
    with pytest.raises(GuardExceeded) as exc:
        motivating_curve_counts(4)
    assert "5^14" in str(exc.value)
    assert builds == []
    assert main(["zeta", "motivating", "--level", "4"]) == 4
    assert builds == []
    assert "5^14" in capsys.readouterr().err
    # 5^8190 has more digits than Python prints: the message names p^f
    assert main(["zeta", "motivating", "--level", "13"]) == 4
    assert "5^8190" in capsys.readouterr().err
    assert motivating_curve_counts(3, m_max=2)["counts"]
    assert len(builds) == 2


@pytest.mark.parametrize("family", ["fermat", "as"])
@pytest.mark.parametrize("bad", [["--q", "1"], ["--q", "0"], ["--q", "-1"],
                                 ["--q", "7", "--m-max", "0"],
                                 ["--q", "7", "--m-max", "-3"]],
                         ids=["q1", "q0", "q-1", "m_max0", "m_max-3"])
def test_zeta_rejects_q_below_2_and_m_max_below_1(family, bad):
    # In a child process with a timeout: a q below 2 once looped forever
    # while picking the default m_max, and m_max < 1 printed a "pass" that
    # checked no count.
    src = str(Path(towerlim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "towerlim.cli", "zeta", family, "--ell", "3",
         "--n", "1", *bad], capture_output=True, text=True, timeout=30,
        env=env)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "input error" in proc.stderr


def _lie_about(monkeypatch, name, lie):
    """Replace charsums.<name> by lie(real, *args)."""
    real = getattr(charsums, name)
    monkeypatch.setattr(charsums, name, lambda *args: lie(real, *args))


def _bookkeeping_failure(family, q, n):
    with pytest.raises(CheckFailed) as exc:
        h_poly_tower(family, 3, q, n)
    return exc.value.context


def test_bookkeeping_failures_name_family_level_and_values(monkeypatch):
    with monkeypatch.context() as mp:  # one Frobenius orbit lost
        _lie_about(mp, "_fresh_orbits", lambda real, *a: real(*a)[:-1])
        assert _bookkeeping_failure("fermat", 7, 1) == {
            "family": "fermat", "level": 1, "expected": 2, "measured": 1}
    with monkeypatch.context() as mp:  # Frobenius order over F_7 doubled
        _lie_about(mp, "mult_order",
                   lambda real, g, d: real(g, d) * (2 if g == 7 else 1))
        assert _bookkeeping_failure("fermat", 7, 1) == {
            "family": "fermat", "level": 1, "expected": 2, "measured": [1]}
    with monkeypatch.context() as mp:  # 1 taken for a primitive root
        _lie_about(mp, "_primitive_root", lambda real, *a: 1)
        assert _bookkeeping_failure("artin-schreier", 7, 1) == {
            "family": "artin-schreier", "level": 1, "expected": 2,
            "measured": [1]}
    with monkeypatch.context() as mp:  # h_m one degree too high
        _lie_about(mp, "_h_from_traces", lambda real, *a: real(*a) + [0])
        assert _bookkeeping_failure("fermat", 7, 1) == {
            "family": "fermat", "level": 1, "expected": 2, "measured": 3}
    with monkeypatch.context() as mp:  # f_n one degree too high per level
        _lie_about(mp, "convolve", lambda real, *a: real(*a) + [0])
        assert _bookkeeping_failure("fermat", 7, 2) == {
            "family": "fermat", "level": 2, "expected": 56, "measured": 58}
    asked = set()

    def order_wrong_when_asked_again(real, g, d):
        k = real(g, d)
        if (g, d) in asked:
            return k + 1
        asked.add((g, d))
        return k

    with monkeypatch.context() as mp:  # orders change between the loops
        _lie_about(mp, "mult_order", order_wrong_when_asked_again)
        assert _bookkeeping_failure("fermat", 7, 2) == {
            "family": "fermat", "level": 2, "expected": 6, "measured": 4}
