"""The curve-tower numerators h_m from generator norms, against the serial
product.

`serial_h` is the direct route: multiply out prod (1 + S y) over the
Frobenius orbits of fresh characters, one linear factor at a time in the
cyclotomic (Fermat) or bicyclotomic (Artin-Schreier) ring, and demote the
coefficients to integers.  `h_poly_tower` must give the same h_m while
forming, per orbit of the units, only the norm of one generator over its
Galois conjugates in Z[zeta_(l^m)].
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import towerlim
from towerlim import charsums, cli
from towerlim.charsums import (
    _generator_norm,
    gauss_sum,
    h_poly_tower,
    jacobi_sum,
    motivating_curve_counts,
    mult_order,
    prime_power_split,
)
from towerlim.cli import build_parser, main
from towerlim.cyclo import BiCycloElem, BiCycloRing, CycloElem, CycloRing
from towerlim.errors import CheckFailed, GuardExceeded, InputError
from towerlim.fields import field_build
from towerlim.matrices import Orbits, orbit_reps
from towerlim.padic import primitive_root
from towerlim.report import Timer

from oracles import poly_mul, rational_int, twisted_gauss_sum

CASES = [(3, 4, 2), (3, 7, 1), (3, 7, 2), (3, 19, 2), (3, 25, 1), (5, 11, 1),
         (5, 16, 1), (3, 16, 2)]


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
            zero = BiCycloRing(p, ell, m).zero()
            h = [zero + 1]
            for t in range(q - 1):
                a = int(big.exp_table[t * step])
                for (v,) in reps:
                    s = twisted_gauss_sum(big, ell, m, v, a=a)
                    h = poly_mul(h, [1, s], zero)
            out.append([rational_int(c) for c in h])
    return out


@pytest.mark.parametrize("family", ["fermat", "artin-schreier"])
@pytest.mark.parametrize("ell,q,n", CASES)
def test_h_matches_serial_product(family, ell, q, n):
    rec = h_poly_tower(family, ell, q, n)
    assert [lv["h"] for lv in rec["levels"]] == serial_h(family, ell, q, n)


def test_artin_schreier_work_counts(monkeypatch):
    counts = {"mul": 0, "bimul": 0, "poly_mul": 0, "gauss": 0}
    mul, bimul = CycloElem.__mul__, BiCycloElem.__mul__
    ring_poly_mul, gauss = CycloRing.poly_mul, charsums.gauss_sum

    def counting(name, real):
        def counted(self, other):
            if not isinstance(other, int):
                counts[name] += 1
            return real(self, other)
        return counted

    def counting_poly_mul(ring, a, b):
        counts["poly_mul"] += 1
        return ring_poly_mul(ring, a, b)

    def counting_gauss(*args, **kwargs):
        counts["gauss"] += 1
        return gauss(*args, **kwargs)

    monkeypatch.setattr(CycloElem, "__mul__", counting("mul", mul))
    monkeypatch.setattr(BiCycloElem, "__mul__", counting("bimul", bimul))
    monkeypatch.setattr(CycloRing, "poly_mul", counting_poly_mul)
    monkeypatch.setattr(charsums, "gauss_sum", counting_gauss)
    rec = h_poly_tower("artin-schreier", 3, 19, 2)
    assert [len(lv["h"]) - 1 for lv in rec["levels"]] == [36, 108]
    # one generator per level, S^e with e = 3, 9 by square-and-multiply:
    # 2 + 4 bicyclotomic multiplies (S^2 S; S^2, S^4, S^8, S^8 S); its norm
    # over c = 2 conjugates is one product in K_1, over c = 6 = 2 * 3 two
    # in K_2 and one in K_1, and no ring element is multiplied alone
    assert counts == {"mul": 0, "bimul": 6, "poly_mul": 4, "gauss": 2}


def test_artin_schreier_takes_one_gauss_sum_per_unit_orbit(monkeypatch):
    # F_16^* holds 15 twists a, but g(psi_a, chi) = chi(a)^-1 g(psi, chi):
    # one sum per level (3 generates the units mod 3 and mod 9), over F_16
    # and F_16^3; then the m = 1 descent rows (n1 = v_3(15) = 1) sum twice
    # for each of the two Frobenius orbits {1, 7, 4}, {2, 5, 8} of level 2
    calls = []
    real = charsums.gauss_sum

    def counting(field, ell, level, v, sub_q=None):
        calls.append((field.q, level, sub_q))
        return real(field, ell, level, v, sub_q=sub_q)

    monkeypatch.setattr(charsums, "gauss_sum", counting)
    rec = h_poly_tower("artin-schreier", 3, 16, 2)
    assert rec["stabilization_passed"]
    assert calls == [(16, 1, None), (4096, 2, None)] \
        + [(4096, 2, None), (4096, 1, 16)] * 2


def test_one_frobenius_scan_per_level(monkeypatch):
    # the stabilization rows (m = 2 here, n1 = v_3(18)) read the level
    # loop's Frobenius orbits of level m + 1 instead of scanning again
    calls = []
    real = charsums._fresh_orbits

    def counting(family, ell, m, mult):
        calls.append((m, mult))
        return real(family, ell, m, mult)

    monkeypatch.setattr(charsums, "_fresh_orbits", counting)
    out = h_poly_tower("fermat", 3, 19, 3)
    assert [s["m"] for s in out["stabilization"]] == [2]
    assert sorted(m for m, mult in calls if mult == 19) == [1, 2, 3]


@pytest.mark.parametrize("family, ell, q, n", [("fermat", 3, 19, 3),
                                               ("artin-schreier", 3, 19, 2),
                                               ("fermat", 5, 11, 2)])
def test_one_orbit_scan_per_level(monkeypatch, family, ell, q, n):
    # the unit classes are the Frobenius scan's `Orbits.classes`: no
    # second scan under a primitive root
    sizes = []
    real = charsums.orbit_reps

    def counting(step, mod, b, keep):
        sizes.append(mod)
        return real(step, mod, b, keep)

    monkeypatch.setattr(charsums, "orbit_reps", counting)
    h_poly_tower(family, ell, q, n)
    assert sizes == [ell**m for m in range(1, n + 1)]


@pytest.mark.parametrize("family", ["fermat", "artin-schreier"])
@pytest.mark.parametrize("ell, m", [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
                                    (7, 1), (7, 2)])
def test_unit_classes_are_the_orbits_of_a_primitive_root(family, ell, m):
    # q ranges over the least unit of each order k_m: each class of the
    # Frobenius orbits is one whole orbit of the direct scan under g, its
    # first rep that scan's rep, in the same order
    d = ell**m
    g = primitive_root(ell, m)
    units = charsums._fresh_orbits(family, ell, m, g)
    least = {}
    for q in range(d - 1, 0, -1):
        if q % ell:
            least[mult_order(q, d)] = q
    for k, q in sorted(least.items()):
        scan = charsums._fresh_orbits(family, ell, m, q)
        classes = scan.classes(g, family=family, level=m)
        assert [(c[0], set(c)) for c in classes] == [
            (v, {w for w, _ in scan if units.orbit_of(w) == i})
            for i, (v, _) in enumerate(units)], (q, k)
        assert {len(c) * k for c in classes} == {size for _, size in units}


def test_a_class_walk_that_does_not_close_names_where():
    # 3 is no unit mod 9: it sends the orbit of (1,) off the scan
    scan = orbit_reps([[1]], 9, 1, lambda v: v[0] % 3)
    with pytest.raises(CheckFailed) as exc:
        scan.classes(3, level=2)
    assert exc.value.context == {"rep": 0, "point": (1,), "level": 2}


def test_norm_route_failures_name_where_they_broke():
    ring = CycloRing(3, 2, None)
    # over all six conjugates of zeta_9: prod (1 + eta y) = 1 - y^3 + y^6
    assert _generator_norm("fermat", 2, (1, 2), ring.zeta(1), 1, 6) \
        == [1, 0, 0, -1, 0, 0, 1]
    # over two of them, as if sigma_4 fixed zeta_9: zeta_9 is off the
    # subfield Q(zeta_3) the descent starts from
    with pytest.raises(CheckFailed) as exc:
        _generator_norm("fermat", 2, (1, 2), ring.zeta(1), 1, 2)
    assert exc.value.context == {"family": "fermat", "level": 2,
                                 "generator": (1, 2), "coefficient": 1}
    assert str(exc.value).startswith("fermat level-2 h: coefficient 1 ")
    # zeta_7^3 is no element of Z[zeta_3]: S^e fails before any norm
    zeta_7 = BiCycloRing(7, 3, 1).from_exponent_counts({(1, 0): 1})
    with pytest.raises(CheckFailed) as exc:
        _generator_norm("artin-schreier", 1, (1, 1), zeta_7, 3, 2)
    assert exc.value.context == {"family": "artin-schreier", "level": 1,
                                 "generator": (1, 1), "coefficient": 0}


@pytest.mark.parametrize("q, level", [(19, 1), (19, 2), (25, 1), (16, 1)])
def test_prime_field_twists_scale_a_gauss_sum_by_a_character_value(q, level):
    # g(psi_(ca), chi_v) = chi_v-bar(c) g(psi_a, chi_v) for every c in F_q^*,
    # the identity on which h_poly_tower takes one Gauss sum per unit orbit;
    # c in F_p^* puts S^e in Z[zeta_(l^m)] (over F_25 and F_16, chi_v is
    # trivial on F_p^*)
    field = field_build(*prime_power_split(q))
    ring = CycloRing(3, level, None)
    for v in (1, 2, 3**level - 1):
        for a in (1, int(field.exp_table[5])):
            g = twisted_gauss_sum(field, 3, level, v, a=a)
            assert g == gauss_sum(field, 3, level, v) \
                * ring.zeta(-v * field.dlog(a))
            for kc in range(q - 1):
                ca = int(field.exp_table[(kc + field.dlog(a)) % (q - 1)])
                assert twisted_gauss_sum(field, 3, level, v, a=ca) \
                    == g * ring.zeta(-v * kc)


def test_perturbed_gauss_sum_fails_the_zeta_command(monkeypatch, capsys):
    gauss = charsums.gauss_sum

    def perturbed(*args, **kwargs):
        g = gauss(*args, **kwargs)
        return g + g.ring.from_exponent_counts({(1, 1): 1})

    monkeypatch.setattr(charsums, "gauss_sum", perturbed)
    with pytest.raises(CheckFailed) as exc:
        h_poly_tower("artin-schreier", 3, 7, 2)
    assert exc.value.context["family"] == "artin-schreier"
    assert exc.value.context["level"] == 1
    assert "coefficient" in exc.value.context
    assert main(["zeta", "as", "--ell", "3", "--q", "7", "--n", "2"]) != 0
    out, err = capsys.readouterr()
    assert "pass" not in out
    assert "artin-schreier level-1 h: coefficient" in err


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
    assert motivating_curve_counts(3)["counts"]
    assert len(builds) == 6  # F_5^m for m = 1..2g = 6


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


@pytest.mark.parametrize("name, family",
                         [("fermat", "fermat"), ("as", "artin-schreier")])
def test_m_max_above_64_is_refused_before_any_character_sum(
        monkeypatch, capsys, name, family):
    def forbidden(*args):
        raise AssertionError("the character sums ran")

    monkeypatch.setattr(cli, "h_poly_tower", forbidden)
    command = ["zeta", name, "--ell", "3", "--q", "487", "--n", "3",
               "--m-max", "65"]
    assert main(command) == 3
    assert "prediction range is capped at 64" in capsys.readouterr().err
    with pytest.raises(InputError) as exc:
        cli._tower_zeta_body(family, build_parser().parse_args(command),
                             Timer())
    assert exc.value.context == {"field": "m_max"}


def _lie_about(monkeypatch, name, lie):
    """Replace charsums.<name> by lie(real, *args)."""
    real = getattr(charsums, name)
    monkeypatch.setattr(charsums, name, lambda *args: lie(real, *args))


def _without_last(orbits):
    """The scan `orbits` less its last orbit, still an `Orbits`."""
    return Orbits(orbits[:-1], orbits._labels, orbits._mod,
                  orbits._successor)


def _bookkeeping_failure(family, q, n):
    with pytest.raises(CheckFailed) as exc:
        h_poly_tower(family, 3, q, n)
    return exc.value.context


def test_bookkeeping_failures_name_family_level_and_values(monkeypatch):
    with monkeypatch.context() as mp:  # one Frobenius orbit lost
        _lie_about(mp, "_fresh_orbits",
                   lambda real, *a: _without_last(real(*a)))
        assert _bookkeeping_failure("fermat", 7, 1) == {
            "family": "fermat", "level": 1, "expected": 2, "measured": 1}
    with monkeypatch.context() as mp:  # Frobenius order over F_7 doubled
        _lie_about(mp, "mult_order",
                   lambda real, g, d: real(g, d) * (2 if g == 7 else 1))
        assert _bookkeeping_failure("fermat", 7, 1) == {
            "family": "fermat", "level": 1, "expected": 2, "measured": [1]}
    real_classes = Orbits.classes

    def one_class_short(orbits, g, **context):
        return real_classes(orbits, g, **context)[:-1]

    with monkeypatch.context() as mp:  # the unit classes lose their one
        mp.setattr(Orbits, "classes", one_class_short)
        assert _bookkeeping_failure("fermat", 7, 1) == {
            "family": "fermat", "level": 1, "expected": 1, "measured": 0}
    with monkeypatch.context() as mp:  # 1 taken for a primitive root
        _lie_about(mp, "primitive_root", lambda real, *a: 1)
        assert _bookkeeping_failure("artin-schreier", 7, 1) == {
            "family": "artin-schreier", "level": 1, "expected": 2,
            "measured": [1]}
    with monkeypatch.context() as mp:  # h_m one degree too high
        _lie_about(mp, "_generator_norm", lambda real, *a: real(*a) + [0])
        assert _bookkeeping_failure("fermat", 7, 1) == {
            "family": "fermat", "level": 1, "expected": 2, "measured": 3}
    with monkeypatch.context() as mp:  # every product one degree too high
        _lie_about(mp, "convolve", lambda real, *a: real(*a) + [0])
        # h_1 takes one, the norms' product; its power (p - 1)/e = 1 is
        # the product itself, with no convolve
        assert _bookkeeping_failure("fermat", 7, 2) == {
            "family": "fermat", "level": 1, "expected": 2, "measured": 3}
    with monkeypatch.context() as mp:  # h_2(y^3) one degree too high in f_2
        _lie_about(mp, "stretch",
                   lambda real, poly, s: real(poly, s) + [0] * (s > 1))
        assert _bookkeeping_failure("fermat", 7, 2) == {
            "family": "fermat", "level": 2, "expected": 56, "measured": 57}
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
