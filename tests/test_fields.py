"""Tests for finite-field tables, traces, and the batch codec."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from towerlim import fields
from towerlim.errors import CheckFailed, GuardExceeded, InputError
from towerlim.fields import (
    FIELD_CAP,
    FqField,
    _find_modulus,
    _float_mod,
    _is_irreducible,
    field_build,
)
from towerlim.padic import is_prime

from oracles import (
    every_prime_generator,
    fq_add,
    fq_inv,
    fq_mul,
    fq_mul_poly,
    fq_pow,
    fq_sub,
    fq_tr_abs,
    int64_field_tables,
    packed_pow,
    rabin_irreducible,
    unsieved_modulus,
)

SMALL_FIELDS = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3), (13, 1), (2, 4)]


def test_exp_dlog_are_inverse_bijections():
    for p, f in SMALL_FIELDS:
        field = field_build(p, f)
        q = p**f
        assert field.q == q
        assert len(field.exp_table) == q - 1
        assert sorted(field.exp_table) == sorted(set(field.exp_table))
        for t in range(q - 1):
            assert field.dlog(field.exp_table[t]) == t
        with pytest.raises(InputError):
            field.dlog(0)


def test_generator_has_full_order():
    for p, f in SMALL_FIELDS:
        field = field_build(p, f)
        q = p**f
        seen = {1}
        x = 1
        for _ in range(q - 2):
            x = fq_mul(field, x, field.gen)
            seen.add(x)
        assert len(seen) == q - 1
        assert fq_mul(field, x, field.gen) == 1


def test_field_axioms_random():
    rng = random.Random(301)
    for p, f in [(5, 2), (7, 3), (3, 4)]:
        field = field_build(p, f)
        q = p**f
        for _ in range(30):
            x, y, z = (rng.randrange(q) for _ in range(3))
            assert fq_mul(field, x, fq_add(field, y, z)) == fq_add(
                field, fq_mul(field, x, y), fq_mul(field, x, z))
            assert fq_add(field, x, field.neg(x)) == 0
            assert fq_sub(field, x, y) == fq_add(field, x, field.neg(y))
            if x:
                assert fq_mul(field, x, fq_inv(field, x)) == 1
        for x in range(1, q):
            assert fq_pow(field, x, q - 1) == 1


def test_frobenius_is_additive():
    rng = random.Random(303)
    field = field_build(7, 3)
    for _ in range(40):
        x, y = rng.randrange(343), rng.randrange(343)
        lhs = fq_pow(field, fq_add(field, x, y), 7)
        rhs = fq_add(field, fq_pow(field, x, 7), fq_pow(field, y, 7))
        assert lhs == rhs


def test_cubic_extension_tables_are_reproducible():
    field = field_build(7, 3)
    assert field.modulus == (2, 0, 0, 1)
    assert field.gen == 22
    assert field.dlog(field.gen) == 1


def test_absolute_trace_properties():
    rng = random.Random(307)
    for p, f in [(5, 2), (7, 3), (3, 4)]:
        field = field_build(p, f)
        q = p**f
        counts = {}
        for x in range(q):
            t = fq_tr_abs(field, x)
            counts[t] = counts.get(t, 0) + 1
            assert fq_tr_abs(field, fq_pow(field, x, p)) == t
        # The trace is a surjective F_p-linear map: fibres all have size q/p.
        assert counts == {t: q // p for t in range(p)}
        for _ in range(30):
            x, y = rng.randrange(q), rng.randrange(q)
            s = fq_tr_abs(field, fq_add(field, x, y))
            assert s == (fq_tr_abs(field, x) + fq_tr_abs(field, y)) % p


def test_batch_ops_match_scalar_ops():
    rng = random.Random(311)
    field = field_build(7, 2)
    xs = np.array([rng.randrange(49) for _ in range(200)], dtype=np.int64)
    ys = np.array([rng.randrange(49) for _ in range(200)], dtype=np.int64)
    added = field.add_batch(xs, ys)
    negated = field.neg_batch(xs)
    one_minus = field.one_minus_batch(xs)
    traces = field.tr_abs_batch(xs)
    for i in range(len(xs)):
        assert added[i] == fq_add(field, int(xs[i]), int(ys[i]))
        assert negated[i] == field.neg(int(xs[i]))
        assert one_minus[i] == fq_sub(field, 1, int(xs[i]))
        assert traces[i] == fq_tr_abs(field, int(xs[i]))


def test_digits_split_packed_encodings():
    field = field_build(5, 3)
    xs = np.arange(field.q, dtype=np.int64)
    digits = field.digits(xs)
    assert digits.shape == (field.q, 3)
    assert all(digits[x].tolist() == field.decode(x) for x in range(field.q))


# The first block of 4096 exp columns fills by doubling: fields whose
# q - 1 is below one block (a power of two or not; F_2, generated by 1),
# and fields spanning one to several blocks, prime and extension.
TABLE_FIELDS = [(2, 1), (3, 2), (17, 1), (257, 1), (7, 1), (7, 2), (7, 3), (7, 4),
                (7, 5), (2, 10), (2, 13), (3, 9), (5, 6), (19, 3), (13, 3),
                (11, 4), (9973, 1)]


@pytest.mark.parametrize("p, f", TABLE_FIELDS)
def test_exp_table_matches_a_per_element_chain(p, f):
    field = field_build(p, f)
    want = np.empty(field.q - 1, dtype=np.int64)
    x = 1
    for i in range(field.q - 1):
        want[i] = x
        x = fq_mul_poly(field, x, field.gen)
    assert x == 1
    assert np.array_equal(field.exp_table, want)
    assert np.array_equal(field.dlog_table[want], np.arange(field.q - 1))
    assert field.dlog_table[0] == -1


# q - 1 below one block of 4096, one short of two (2^13 - 1 = 8191), and
# spanning several; F_65537 steps 1 x 1 matrices with products near 2^32.
ORACLE_FIELDS = [(2, 1), (7, 3), (2, 13), (3, 8), (5, 6), (7, 5), (7, 7),
                 (65537, 1)]


@pytest.mark.parametrize("p, f", ORACLE_FIELDS)
def test_tables_match_the_int64_builder(p, f):
    field = field_build(p, f)
    modulus, gen, exp, dlog = int64_field_tables(p, f)
    assert field.modulus == modulus
    assert field.gen == gen
    assert np.array_equal(field.exp_table, exp)
    assert np.array_equal(field.dlog_table, dlog)


def test_modulus_and_generator_match_the_every_prime_search():
    cases = [(p, f) for p in range(2, 200) if is_prime(p)
             for f in range(1, 17) if p**f <= 10**5]
    for p, f in cases:
        field = field_build(p, f)
        assert (field.modulus, field.gen) == every_prime_generator(p, f), \
            (p, f)


NORM_FIELDS = [(2, 1), (2, 5), (3, 4), (5, 3), (7, 1), (7, 3), (13, 2),
               (19, 4), (65537, 1)]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.sampled_from(NORM_FIELDS).flatmap(
    lambda pf: st.tuples(st.just(pf), st.integers(0, pf[0] ** pf[1] - 1))))
@example(((7, 3), 0))
@example(((7, 3), 3))
@example(((2, 1), 1))
@example(((2, 5), 1))
@example(((65537, 1), 12345))
def test_norm_is_the_power_it_replaces(field_and_element):
    (p, f), a = field_and_element
    field = field_build(p, f)
    norm = packed_pow(a, (field.q - 1) // (p - 1), field.modulus, p)
    assert field._norm(a) == norm
    if a < p:  # a in F_p: N(a) = a^f
        assert norm == pow(a, f, p)


# _poly_pow_mod calls per build: the modulus search's Ben-Or steps, each a
# p-th power (3, 20 and 0; the Rabin tests before them made 2, 20 and 0,
# powers up to p^f), then the primes of q - 1 the norm cannot decide (29
# and 4733 at 7^7, 5 and 181 at 19^4, none at 65537) for each candidate
# that passes the norm, and once more in the re-test.  The search that
# exponentiated for every prime, with the trace basis built in __init__,
# made 42, 54 and 5.
@pytest.mark.parametrize("p, f, most", [(7, 7, 9), (19, 4, 24),
                                        (65537, 1, 0)])
def test_a_build_exponentiates_only_where_the_norm_cannot_decide(
        monkeypatch, p, f, most):
    real, calls = fields._poly_pow_mod, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fields, "_poly_pow_mod", counted)
    FqField(p, f)
    assert len(calls) <= most


def test_root_sieve_keeps_the_first_irreducible():
    # the sieved Ben-Or search against the unsieved Rabin one
    cases = [(p, f) for p in (2, 3, 5, 7, 19) for f in range(1, 9)] + [
        (p, f) for p in (11, 13) for f in range(2, 9) if p**f <= 10**6] + [
        (2, 20), (997, 2), (3137, 2), (211, 3)]
    for p, f in cases:
        assert _find_modulus(p, f) == unsieved_modulus(p, f), (p, f)


@pytest.mark.parametrize("p, f", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                  (3, 3), (3, 4), (5, 3)])
def test_ben_or_agrees_with_rabin_on_every_monic(p, f):
    # every monic of degree f, roots and repeated factors included
    for code in range(p**f):
        poly = [code // p**i % p for i in range(f)] + [1]
        assert _is_irreducible(poly, p) == rabin_irreducible(poly, p), poly


def test_float_steps_are_exact_for_every_field_under_the_cap():
    # every f with a field under the cap, each with its largest prime p: a
    # block step sums f products of residues below p, and a packed code is
    # below q; both must stay below 2^53 for float64 to hold them exactly
    f = 1
    while 2**f <= FIELD_CAP:
        p = round(FIELD_CAP ** (1 / f))
        while p**f > FIELD_CAP:
            p -= 1
        while (p + 1) ** f <= FIELD_CAP:
            p += 1
        while not is_prime(p):
            p -= 1
        assert f * (p - 1) ** 2 < 2**53, (p, f)
        assert p**f < 2**53, (p, f)
        f += 1


@pytest.mark.parametrize("p", [2, 3, 7, 65537, 9999991])
def test_float_mod_matches_integer_mod(p):
    rng = np.random.default_rng(p)
    ks = np.concatenate([np.arange(1000), rng.integers(0, 10**14 // p, 5000),
                         [10**14 // p, (2**53 - 1) // p]])
    xs = (ks[:, None] * p + np.array([-1, 0, 1])).ravel()
    xs = xs[(xs >= 0) & (xs < 2**53)]
    got = _float_mod(xs.astype(float), p, np.empty(len(xs)))
    assert np.array_equal(got.astype(np.int64), xs % p)


@pytest.mark.parametrize("first_read", ["dlog", "dlog_table"])
def test_dlog_table_is_built_on_first_read(first_read):
    field = field_build(7, 5)
    assert "dlog_table" not in vars(field)
    a = int(field.exp_table[1234])
    if first_read == "dlog":
        assert field.dlog(a) == 1234
    else:
        assert field.dlog_table[a] == 1234
    assert "dlog_table" in vars(field)


@pytest.mark.parametrize("first_read", ["exp_table", "dlog_table"])
def test_exp_table_is_built_on_first_read(first_read):
    field = field_build(7, 5)
    assert "exp_table" not in vars(field)
    a = fq_mul_poly(field, field.gen, field.gen)
    if first_read == "exp_table":
        assert field.exp_table[2] == a
    else:
        assert field.dlog_table[a] == 2
    assert "exp_table" in vars(field)


# (p, f, block): a block longer than f, and one shorter (the doubling's
# matrix squarings then outgrow the block)
@pytest.mark.parametrize("p, f, block", [(7, 3, 8), (2, 6, 4)])
@pytest.mark.parametrize("which", ["gen", "gen^3", "non-generator"])
def test_power_blocks_match_a_per_element_chain(monkeypatch, p, f, block,
                                                which):
    monkeypatch.setattr(fields, "_BLOCK", block)
    field = field_build(p, f)
    h = {"gen": field.gen,
         "gen^3": fq_pow(field, field.gen, 3),
         "non-generator": next(a for a in range(2, field.q)
                               if not field._is_generator(a))}[which]
    for count in [1, block - 1, block, block + 1, 3 * block + 2]:
        got = np.concatenate([b.copy() for b in field.power_blocks(h, count)],
                             axis=1)
        want, x = [], 1
        for _ in range(count):
            want.append(field.decode(x))
            x = fq_mul_poly(field, x, h)
        assert np.array_equal(got, np.array(want).T), count


def test_a_non_generator_is_refused_in_init(monkeypatch):
    square = int(field_build(7, 5).exp_table[2])  # g^2: order (q - 1) / 2
    monkeypatch.setattr(FqField, "_find_generator", lambda self: square)
    with pytest.raises(CheckFailed) as exc:
        FqField(7, 5)
    assert exc.value.context == {"p": 7, "f": 5, "gen": square}


def test_a_skewed_power_fails_the_first_absolute_trace(monkeypatch):
    field = field_build(7, 3)
    assert "_trace_basis" not in vars(field)
    real = fields._poly_pow_mod

    def skewed(a, e, mod_poly, p):
        out = real(a, e, mod_poly, p)
        out[-1] = (out[-1] + 1) % p
        return out

    monkeypatch.setattr(fields, "_poly_pow_mod", skewed)
    with pytest.raises(CheckFailed) as exc:
        field.tr_abs_batch(np.arange(field.q))
    assert exc.value.context == {"q": 7, "m": 3, "field_q": 343}


def test_no_generator_is_a_check_failure(monkeypatch):
    # with q - 1 itself as the only "prime divisor", every element fails
    monkeypatch.setattr(fields, "prime_factors", lambda m: [1])
    with pytest.raises(CheckFailed) as exc:
        FqField(7, 1)
    assert exc.value.context == {"p": 7, "f": 1, "gen": None}


def test_no_irreducible_is_refused_naming_the_degree(monkeypatch):
    monkeypatch.setattr(fields, "_is_irreducible", lambda poly, p: False)
    with pytest.raises(InputError) as exc:
        _find_modulus(7, 2)
    assert exc.value.context == {"field": "f"}


def test_subfield_elements_are_frobenius_fixed():
    big = field_build(3, 4)
    step = (3**4 - 1) // (3**2 - 1)
    for k in range(3**2 - 1):
        elt = big.exp_table[k * step]
        assert fq_pow(big, elt, 9) == elt


def test_enumeration_guard():
    with pytest.raises(GuardExceeded):
        field_build(7, 9)
    with pytest.raises(GuardExceeded):
        FqField(13, 7)


def test_invalid_parameters():
    with pytest.raises(InputError) as exc:
        field_build(4, 1)
    assert exc.value.context == {"field": "p"}
    with pytest.raises(InputError) as exc:
        field_build(7, 0)
    assert exc.value.context == {"field": "f"}
