"""Artin-Schreier enumeration by one F_p-linear trace map.

`artin_schreier_enum_count` tests every d-th power against the matrix of
Tr_{K/F_q} on K's power basis.  The oracle here is the route it replaced:
d-th powers through the tables, then the trace as a chain of m - 1
Frobenius lookups and `add_batch` calls over every element of K.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from towerlim import charsums, fields
from towerlim.charsums import (
    artin_schreier_enum_count,
    artin_schreier_point_count,
    fermat_enum_count,
    fermat_point_count,
    prime_power_split,
)
from towerlim.errors import CheckFailed, InputError
from towerlim.fields import field_build

from oracles import fq_add, fq_pow


def _frob_batch(field, encs, e):
    out = np.zeros_like(encs)
    nz = encs != 0
    out[nz] = field.exp_table[field.dlog_table[encs[nz]] * e % (field.q - 1)]
    return out


def oracle_count(q, m, d):
    p, f = prime_power_split(q)
    big = field_build(p, f * m)
    nq = big.q - 1
    pows = np.zeros(big.q, dtype=np.int64)
    pows[big.exp_table] = big.exp_table[np.arange(nq) * d % nq]
    acc = pows.copy()
    cur = pows
    for _ in range(m - 1):
        cur = _frob_batch(big, cur, q)
        acc = big.add_batch(acc, cur)
    return q * int((acc == 0).sum()) + 1


# (q, m, d): prime and prime-power q, F_2 included; g = gcd(d, q^m - 1)
# both 1 and > 1; d = 5 divides neither 7 - 1 nor 19 - 1; fields up to
# 4^8 = 65536 and 19^4 = 130321 elements.
CASES = [
    (7, 1, 3), (7, 3, 3), (7, 5, 3), (7, 1, 5), (7, 2, 5), (7, 4, 5),
    (2, 1, 3), (2, 6, 3), (4, 1, 3), (4, 3, 3), (4, 8, 3), (4, 3, 5),
    (9, 1, 4), (9, 3, 2), (9, 5, 5),
    (19, 1, 9), (19, 3, 9), (19, 4, 9), (19, 2, 5),
    (25, 1, 3), (25, 3, 3), (25, 2, 7),
]


@pytest.mark.parametrize("q, m, d", CASES)
def test_trace_map_count_matches_frobenius_chain(q, m, d):
    rec = artin_schreier_enum_count(q, m, d)
    assert rec["count"] == oracle_count(q, m, d)
    assert rec["affine"] == rec["count"] - 1
    assert (rec["q"], rec["m"], rec["d"]) == (q, m, d)


def test_cases_cover_both_gcds_and_a_non_divisor():
    gs = {math.gcd(d, q**m - 1) for q, m, d in CASES}
    assert 1 in gs and max(gs) > 1
    assert any((q - 1) % d for q, _, d in CASES)
    assert max(q**m for q, m, _ in CASES) > 10**5


@pytest.mark.parametrize("q, m", [(7, 3), (4, 3), (9, 2), (5, 1)])
def test_trace_matrix_matches_the_scalar_trace(q, m):
    p, f = prime_power_split(q)
    big = field_build(p, f * m)
    trace = big.trace_matrix(q, m)
    xs = np.arange(0, big.q, max(1, big.q // 97), dtype=np.int64)
    images = big.digits(xs) @ trace.T % p @ big._weights
    for x, y in zip(xs, images):
        want, cur = int(x), int(x)
        for _ in range(m - 1):
            cur = fq_pow(big, cur, q)
            want = fq_add(big, want, cur)
        assert int(y) == want
        assert fq_pow(big, want, q) == want  # the trace lies in F_q


def test_enumeration_uses_no_character_sums(monkeypatch):
    def forbidden(*_args, **_kwargs):
        raise AssertionError("character sum inside the enumeration")

    monkeypatch.setattr(charsums, "gauss_sum", forbidden)
    monkeypatch.setattr(charsums, "jacobi_sum", forbidden)
    assert artin_schreier_enum_count(7, 3, 3)["count"] == oracle_count(7, 3, 3)
    assert fermat_enum_count(49, 3)["count"] == 63
    assert fermat_enum_count(2, 1)["count"] == 3  # the line x + y + z = 0


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunk_size_does_not_change_counts(monkeypatch, chunk):
    cases = [(7, 3, 3), (4, 3, 5), (9, 2, 2), (19, 2, 9)]
    want = [artin_schreier_enum_count(*c)["count"] for c in cases]
    monkeypatch.setattr(charsums, "AS_CHUNK", chunk)
    assert [artin_schreier_enum_count(*c)["count"] for c in cases] == want


def test_memory_stays_bounded_at_7_to_the_7():
    tracemalloc.start()
    try:
        rec = artin_schreier_enum_count(7, 7, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec["count"] == 823544
    assert peak < 48 * 2**20


def fermat_oracle(q, d):
    """The Fermat count with -(x^d + 1) computed over all of F_q at once."""
    field = field_build(*prime_power_split(q))
    nq = field.q - 1
    pows = np.zeros(field.q, dtype=np.int64)
    pows[field.exp_table] = field.exp_table[np.arange(nq) * d % nq]
    roots_count = np.bincount(pows, minlength=field.q)
    targets = field.neg_batch(
        field.add_batch(pows, np.ones(field.q, dtype=np.int64)))
    return int(roots_count[targets].sum()) + int(roots_count[field.neg(1)])


FERMAT_CASES = [(7, 3), (49, 3), (4, 3), (8, 7), (9, 4), (25, 3), (343, 9),
                (2, 1), (19, 5)]


@pytest.mark.parametrize("chunk", [1, 7])
def test_fermat_chunks_match_the_whole_field_count(monkeypatch, chunk):
    monkeypatch.setattr(charsums, "AS_CHUNK", chunk)
    assert ([fermat_enum_count(q, d)["count"] for q, d in FERMAT_CASES]
            == [fermat_oracle(q, d) for q, d in FERMAT_CASES])


def test_fermat_memory_stays_bounded_at_7_to_the_7():
    field = field_build(7, 7)
    tracemalloc.start()
    try:
        rec = fermat_enum_count(7**7, 3, field=field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec["count"] == 821781
    assert peak < 48 * 2**20


def test_each_point_count_builds_its_field_once(monkeypatch):
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return field_build(*args, **kwargs)

    monkeypatch.setattr(charsums, "field_build", counting_build)
    assert artin_schreier_point_count(3, 1, 7, 2)["routes_agree"] is True
    assert builds == [(7, 2)]
    builds.clear()
    assert fermat_point_count(3, 1, 7)["routes_agree"] is True
    assert builds == [(7, 1)]


def test_a_field_of_the_wrong_size_is_refused():
    with pytest.raises(InputError):
        artin_schreier_enum_count(7, 2, 3, field=field_build(7, 3))
    with pytest.raises(InputError):
        fermat_enum_count(7, 3, field=field_build(7, 2))


def test_disagreeing_counts_name_family_sizes_and_both_counts(monkeypatch):
    real_as = charsums.artin_schreier_enum_count
    real_fermat = charsums.fermat_enum_count

    def off_by_q(*args, **kwargs):
        rec = dict(real_as(*args, **kwargs))
        rec["count"] += 7
        return rec

    def off_by_one(*args, **kwargs):
        rec = dict(real_fermat(*args, **kwargs))
        rec["count"] += 1
        return rec

    monkeypatch.setattr(charsums, "artin_schreier_enum_count", off_by_q)
    monkeypatch.setattr(charsums, "fermat_enum_count", off_by_one)
    with pytest.raises(CheckFailed) as exc:
        artin_schreier_point_count(3, 1, 7, 2)
    good = real_as(7, 2, 3)["count"]
    assert exc.value.context == {
        "family": "artin-schreier", "q": 7, "m": 2, "d": 3,
        "enumeration": good + 7, "character_sums": good,
    }
    with pytest.raises(CheckFailed) as exc:
        fermat_point_count(3, 1, 7)
    assert exc.value.context == {
        "family": "fermat", "q": 7, "m": 1, "d": 3,
        "enumeration": 10, "character_sums": 9,
    }


def test_a_broken_trace_matrix_is_a_check_failure(monkeypatch):
    big = field_build(7, 3)
    real = fields._poly_pow_mod

    def skewed(a, e, mod_poly, p):
        out = real(a, e, mod_poly, p)
        out[-1] = (out[-1] + 1) % p
        return out

    monkeypatch.setattr(fields, "_poly_pow_mod", skewed)
    with pytest.raises(CheckFailed) as exc:
        artin_schreier_enum_count(7, 3, 3, field=big)
    assert exc.value.context == {"q": 7, "m": 3, "field_q": 343}
