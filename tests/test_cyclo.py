"""Tests for cyclotomic ring arithmetic (single and double flavours)."""

from __future__ import annotations

import random

import pytest

from towerlim.charsums import _elem_int
from towerlim.cyclo import BiCycloRing, CycloRing
from towerlim.errors import CheckFailed, InputError
from towerlim.padic import min_val

from oracles import complex_value, conjugate

RINGS = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]


def _rand_elem(rng, ring):
    bound = ring.qmod if ring.qmod is not None else 10**6
    return ring.elem([rng.randrange(-bound, bound) for _ in range(ring.phi)])


def test_zeta_satisfies_cyclotomic_relation():
    # ζ is a primitive l^n-th root: Φ_{l^n}(ζ) = sum_i ζ^(i * l^(n-1)) = 0.
    for ell, level in RINGS:
        ring = CycloRing(ell, level, prec=6)
        step = ell ** (level - 1)
        total = ring.zero()
        for i in range(ell):
            total = total + ring.zeta(i * step)
        assert total == ring.zero()
        assert ring.zeta(ell**level) == ring.one()


def test_zeta_power_addition():
    rng = random.Random(11)
    for ell, level in RINGS:
        ring = CycloRing(ell, level, prec=5)
        order = ell**level
        for _ in range(20):
            a, b = rng.randrange(order), rng.randrange(order)
            assert ring.zeta(a) * ring.zeta(b) == ring.zeta(a + b)


def test_ring_axioms_random_sweep():
    rng = random.Random(12)
    for ell, level in RINGS:
        for prec in (None, 4):
            ring = CycloRing(ell, level, prec=prec)
            for _ in range(8):
                x = _rand_elem(rng, ring)
                y = _rand_elem(rng, ring)
                z = _rand_elem(rng, ring)
                assert x * y == y * x
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z
                assert x * ring.one() == x
                assert x + ring.zero() == x
                assert x - x == ring.zero()


def test_truncated_ring_matches_exact_ring():
    # Reducing an exact product must equal the product computed mod l^prec,
    # regardless of which multiplication backend either ring selected.
    rng = random.Random(13)
    for ell, level, prec in [(3, 3, 5), (3, 4, 3), (5, 2, 6), (7, 2, 4)]:
        exact = CycloRing(ell, level, prec=None)
        trunc = CycloRing(ell, level, prec=prec)
        mod = ell**prec
        for _ in range(10):
            coeffs_a = [rng.randrange(-(10**9), 10**9) for _ in range(exact.phi)]
            coeffs_b = [rng.randrange(-(10**9), 10**9) for _ in range(exact.phi)]
            got = trunc.elem(coeffs_a) * trunc.elem(coeffs_b)
            want = exact.elem(coeffs_a) * exact.elem(coeffs_b)
            assert [c % mod for c in got.coeffs] == [c % mod for c in want.coeffs]


def test_wide_and_narrow_backends_agree():
    # A narrow and a wide modulus each reduce the same exact product; both
    # reductions must coincide on the overlap.
    rng = random.Random(14)
    narrow = CycloRing(3, 3, prec=5)
    wide = CycloRing(3, 3, prec=40)
    for _ in range(12):
        coeffs_a = [rng.randrange(3**40) for _ in range(narrow.phi)]
        coeffs_b = [rng.randrange(3**40) for _ in range(narrow.phi)]
        got_n = narrow.elem(coeffs_a) * narrow.elem(coeffs_b)
        got_w = wide.elem(coeffs_a) * wide.elem(coeffs_b)
        assert [c % 3**5 for c in got_w.coeffs] == list(got_n.coeffs)


def test_embed_up_is_a_ring_map():
    rng = random.Random(16)
    for ell, level in [(3, 1), (3, 2), (5, 1)]:
        ring = CycloRing(ell, level, prec=5)
        up = ring.embed_target()
        assert up.level == level + 1
        assert ring.zeta(1).embed_up() == up.zeta(ell)
        for _ in range(10):
            x = _rand_elem(rng, ring)
            y = _rand_elem(rng, ring)
            assert (x * y).embed_up() == x.embed_up() * y.embed_up()
            assert (x + y).embed_up() == x.embed_up() + y.embed_up()


def test_galois_action():
    rng = random.Random(17)
    for ell, level in [(3, 2), (5, 2), (7, 1)]:
        ring = CycloRing(ell, level, prec=5)
        order = ell**level
        units = [u for u in range(1, order) if u % ell]
        for _ in range(15):
            u = rng.choice(units)
            assert ring.zeta(1).galois_act(u) == ring.zeta(u)
            x = _rand_elem(rng, ring)
            y = _rand_elem(rng, ring)
            assert (x * y).galois_act(u) == x.galois_act(u) * y.galois_act(u)
            assert (x + y).galois_act(u) == x.galois_act(u) + y.galois_act(u)


def test_conjugate_is_inversion_of_roots():
    ring = CycloRing(3, 2, prec=6)
    for k in range(9):
        assert conjugate(ring.zeta(k)) == ring.zeta(-k)
    rng = random.Random(18)
    for _ in range(10):
        x = _rand_elem(rng, ring)
        assert conjugate(conjugate(x)) == x


def test_complex_embedding():
    ring = CycloRing(5, 2, prec=None)
    z = complex_value(ring.zeta(1))
    assert abs(abs(z) - 1.0) < 1e-9
    assert abs(z**25 - 1.0) < 1e-9
    # The minimal polynomial vanishes numerically as well.
    total = sum(complex_value(ring.zeta(5 * i)) for i in range(5))
    assert abs(total) < 1e-9


def test_ell_divisibility_counts_full_powers():
    ring = CycloRing(3, 2, None)
    assert min_val(3, (ring.from_int(3) * ring.zeta(1)).coeffs) == 1
    assert min_val(3, ring.from_int(27).coeffs) == 3
    assert min_val(3, (ring.zeta(1) - ring.one()).coeffs) == 0
    assert min_val(3, ring.zero().coeffs) is None


def test_cross_ring_comparison_is_false():
    a = CycloRing(3, 2, prec=5).from_int(1)
    b = CycloRing(3, 2, prec=6).from_int(1)
    c = CycloRing(5, 2, prec=5).from_int(1)
    assert a != b and a != c


def test_from_exponent_counts_matches_sum():
    rng = random.Random(20)
    ring = CycloRing(3, 2, prec=6)
    counts = [rng.randrange(50) for _ in range(9)]
    total = ring.zero()
    for e, c in enumerate(counts):
        total = total + ring.from_int(c) * ring.zeta(e)
    assert ring.from_exponent_counts(list(enumerate(counts))) == total


def test_bicyclo_additive_root_relation():
    # sum of all p-th roots of unity vanishes.
    ring = BiCycloRing(7, 3, 1)
    x = ring.from_exponent_counts({(i, 0): 1 for i in range(7)})
    assert x == ring.zero()


def _as_int(x):
    return _elem_int([c for row in x.mat for c in row], "element")


def test_bicyclo_ring_ops_and_int_lift():
    rng = random.Random(21)
    ring = BiCycloRing(7, 3, 1)
    for _ in range(10):
        k1, k2 = rng.randrange(-50, 50), rng.randrange(-50, 50)
        x, y = ring.from_int(k1), ring.from_int(k2)
        assert _as_int(x * y) == k1 * k2
        assert _as_int(x + y) == k1 + k2
    mixed = ring.from_exponent_counts({(1, 1): 1})
    with pytest.raises(CheckFailed):
        _as_int(mixed)


def test_bicyclo_complex_embedding_is_multiplicative():
    rng = random.Random(22)
    ring = BiCycloRing(5, 3, 1)
    for _ in range(8):
        x = ring.from_exponent_counts(
            {(rng.randrange(5), rng.randrange(3)): rng.randrange(1, 4) for _ in range(3)}
        )
        y = ring.from_exponent_counts(
            {(rng.randrange(5), rng.randrange(3)): rng.randrange(1, 4) for _ in range(3)}
        )
        lhs = complex_value(x * y)
        rhs = complex_value(x) * complex_value(y)
        assert abs(lhs - rhs) < 1e-6


def test_bicyclo_embed_up_is_multiplicative():
    rng = random.Random(23)
    ring = BiCycloRing(7, 3, 1)
    for _ in range(6):
        x = ring.from_exponent_counts(
            {(rng.randrange(7), rng.randrange(3)): 1 for _ in range(2)}
        )
        y = ring.from_exponent_counts(
            {(rng.randrange(7), rng.randrange(3)): 1 for _ in range(2)}
        )
        assert (x * y).embed_up() == x.embed_up() * y.embed_up()


def test_bicyclo_conjugate_fixes_norms():
    ring = BiCycloRing(7, 3, 1)
    x = ring.from_exponent_counts({(1, 0): 1, (2, 1): 1})
    norm = x * conjugate(x)
    val = complex_value(norm)
    assert abs(val.imag) < 1e-9
    assert val.real > 0


def test_level_zero_ring_is_plain_integers():
    ring = CycloRing(3, 0, prec=None)
    assert ring.phi == 1
    assert ring.from_int(6) * ring.from_int(7) == ring.from_int(42)


def test_invalid_ring_parameters():
    with pytest.raises(InputError):
        CycloRing(4, 1)
    with pytest.raises(InputError):
        CycloRing(3, -1)
    with pytest.raises(InputError):
        CycloRing(3, 1, prec=0)
