"""The one ring-multiply kernel, `cyclo.convolve`, against the loops it
replaced, and the ring axioms for `CycloElem` and `BiCycloElem`.

Every product in Z[zeta_{l^n}] (exact and fixed-precision alike)
and in Z[zeta_p, zeta_{l^n}] goes through Kronecker substitution.  The
oracles are the schoolbook coefficient loop that `CycloRing._mul_coeffs`
ran outside the old numpy window, and the quadruple loop of
`BiCycloElem.__mul__`.  Operands cover signed coefficients of up to 300
bits, all-zero operands and operands filled with q - 1.  `convolve` packs
and unpacks its slots in one of two layouts, numpy words or per-slot
bytes; a spy on the unpacking names the layout each input took, on both
sides of the length crossover, of the 8-byte slot and of int64.
"""

from __future__ import annotations

from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim import cyclo
from towerlim.cyclo import BiCycloElem, BiCycloRing, CycloRing, convolve

PROPS = settings(derandomize=True, database=None, max_examples=80,
                 deadline=None)


def schoolbook(a, b):
    buf = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            buf[i + j] += ai * bj
    return buf


def cyclo_oracle(ring, a, b):
    """The schoolbook `_mul_coeffs`: O(phi^2) products, exponents mod l^n,
    then the fold to the power basis."""
    buf = [0] * (2 * ring.phi - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    buf[i + j] += ai * bj
    full = [0] * ring.order
    for e, c in enumerate(buf):
        if c:
            full[e % ring.order] += c
    return ring._fold_top(full)


def bicyclo_oracle(ring, mat1, mat2):
    """The quadruple loop of `BiCycloElem.__mul__`, then the row merge by
    zeta_p^(p-1) = -(1 + ... + zeta_p^(p-2)) and the fold of each row."""
    p, cy = ring.p, ring.cyclo
    buf = [[0] * cy.order for _ in range(p)]
    for a1, row1 in enumerate(mat1):
        for j1, c1 in enumerate(row1):
            if not c1:
                continue
            for a2, row2 in enumerate(mat2):
                tgt = buf[(a1 + a2) % p]
                for j2, c2 in enumerate(row2):
                    if c2:
                        tgt[(j1 + j2) % cy.order] += c1 * c2
    last = buf[p - 1]
    return tuple(
        tuple(cy._fold_top([x - y for x, y in zip(buf[a], last)]))
        for a in range(p - 1))


BITS = 300


@st.composite
def coefficients(draw, length, top):
    """`length` integers: signed up to 300 bits, all zero, or all `top`."""
    fill = draw(st.sampled_from(["signed", "zero", "top"]))
    if fill == "zero":
        return [0] * length
    if fill == "top":
        return [top] * length
    bits = draw(st.integers(1, BITS))
    return draw(st.lists(st.integers(-(1 << bits), 1 << bits),
                         min_size=length, max_size=length))


# ring kinds: (l, precision or None for exact, deepest level drawn from 1).
CYCLO_RINGS = {
    "exact": (5, None, 3),   # phi up to 100
    "window": (3, 14, 5),    # 3^14 <= 2^25: the old numpy window, phi <= 162
    "wide": (7, 9, 3),       # 7^9 > 2^25: the old Python path, phi <= 294
}


@st.composite
def cyclo_operands(draw):
    kind = draw(st.sampled_from(sorted(CYCLO_RINGS)))
    ell, prec, deepest = CYCLO_RINGS[kind]
    ring = CycloRing(ell, draw(st.integers(1, deepest)), prec)
    top = (1 << BITS) - 1 if ring.qmod is None else ring.qmod - 1
    return ring, [ring.elem(draw(coefficients(ring.phi, top)))
                  for _ in range(3)]


# (p, l): p = 2 gives one zeta_p row, p = 19 eighteen rows.
BI_RINGS = [(2, 3), (3, 5), (5, 3), (7, 3), (19, 3), (2, 7), (3, 7), (19, 5)]


@st.composite
def bicyclo_operands(draw):
    p, ell = draw(st.sampled_from(BI_RINGS))
    ring = BiCycloRing(p, ell, draw(st.integers(1, 2 if ell == 3 else 1)))
    return ring, [
        BiCycloElem(ring, tuple(
            tuple(draw(coefficients(ring.cols, (1 << BITS) - 1)))
            for _ in range(ring.rows)))
        for _ in range(3)]


@PROPS
@given(st.integers(1, 40), st.integers(1, 40), st.data())
def test_convolve_matches_schoolbook(len_a, len_b, data):
    a = data.draw(coefficients(len_a, -((1 << BITS) - 1)))
    b = data.draw(coefficients(len_b, (1 << BITS) - 1))
    assert convolve(a, b) == schoolbook(a, b)


def test_convolve_slot_edges():
    # |c_k| reaches max|a| max|b| min(len a, len b) exactly, on both signs
    # and at byte boundaries of the slot width.
    for bits in (0, 1, 6, 7, 8, 15, 16, 63, 64, 299):
        top = (1 << bits) - 1 if bits else 1
        for a, b in [([top] * 5, [top] * 5), ([-top] * 5, [top] * 3),
                     ([top, -top] * 4, [-top] * 7), ([top], [-top])]:
            assert convolve(a, b) == schoolbook(a, b)
    assert convolve([0, 0], [5, -7, 1 << 80]) == [0, 0, 0, 0]
    assert convolve([3], [-4]) == [-12]


@PROPS
@given(st.integers(1, 60), st.integers(1, 60), st.integers(1, 28),
       st.data())
def test_convolve_matches_schoolbook_in_words(len_a, len_b, bits, data):
    # coefficients below 2^28 keep every slot within one 8-byte word
    a = data.draw(coefficients(len_a, -((1 << bits) - 1)))
    b = data.draw(coefficients(len_b, (1 << bits) - 1))
    assert convolve(a, b) == schoolbook(a, b)


@pytest.fixture
def layouts(monkeypatch):
    """The (layout, slot width) of each `convolve` call, in order."""
    seen = []
    for layout in ("words", "bytes"):
        real = getattr(cyclo, f"_unpack_{layout}")

        def spy(x, n, width, real=real, layout=layout):
            seen.append((layout, width))
            return real(x, n, width)

        monkeypatch.setattr(cyclo, f"_unpack_{layout}", spy)
    return seen


def layout_of(layouts, a, b):
    """The layout and slot width `convolve(a, b)` took, once its product
    has matched the schoolbook one."""
    layouts.clear()
    assert convolve(a, b) == schoolbook(a, b)
    (taken,) = layouts
    return taken


@pytest.mark.parametrize("len_a, len_b, layout", [
    (1, 1, "bytes"), (8, 8, "bytes"), (11, 12, "bytes"), (1, 22, "bytes"),
    (12, 12, "words"), (1, 23, "words"), (23, 1, "words"),
    (40, 40, "words"),
])
def test_layout_follows_the_length_crossover(layouts, len_a, len_b, layout):
    a = [(-1) ** i * (i + 1) for i in range(len_a)]
    b = [3 - i for i in range(len_b)]
    assert layout_of(layouts, a, b)[0] == layout


@pytest.mark.parametrize("width", range(1, 13))
def test_layout_follows_the_slot_width(layouts, width):
    # 12 x 12 slots with max|a| max|b| 12 just below 2^(8 width - 1): the
    # middle slot of a constant product sits at +-(2^(8 width - 1) - e),
    # e < 24, one step inside the sign bit of its width
    edge = (1 << 8 * width - 1) - 1
    t = isqrt(edge // 12)
    s = edge // (12 * t)
    assert (12 * t * s).bit_length() == 8 * width - 1
    layout = "words" if width <= 8 else "bytes"
    for a, b in [([t] * 12, [s] * 12), ([-t] * 12, [s] * 12),
                 ([t, -t] * 6, [-s, s] * 6), ([t] * 12, [-s] + [0] * 11)]:
        assert layout_of(layouts, a, b) == (layout, width)


def test_layout_follows_int64(layouts):
    top = (1 << 63) - 1
    pad = [0] * 22
    # operands at the ends of int64 still fit 8-byte slots
    assert layout_of(layouts, [top, -top] + pad[1:], [1]) == ("words", 8)
    assert layout_of(layouts, [-top] + pad, [-1]) == ("words", 8)
    # one past either end does not
    assert layout_of(layouts, [top + 1] + pad, [1]) == ("bytes", 9)
    assert layout_of(layouts, [-top - 1] + pad, [-1]) == ("bytes", 9)
    assert layout_of(layouts, [top] + pad, [1, 1]) == ("bytes", 9)


@PROPS
@given(cyclo_operands())
def test_cyclo_product_matches_schoolbook_oracle(operands):
    ring, (x, y, _) = operands
    assert list((x * y).coeffs) == cyclo_oracle(ring, x.coeffs, y.coeffs)


@PROPS
@given(bicyclo_operands())
def test_bicyclo_product_matches_quadruple_loop(operands):
    ring, (x, y, _) = operands
    assert (x * y).mat == bicyclo_oracle(ring, x.mat, y.mat)


@PROPS
@given(cyclo_operands(), st.integers(-(1 << 70), 1 << 70))
def test_cyclo_ring_axioms(operands, k):
    ring, (x, y, z) = operands
    one, zero = ring.one(), ring.zero()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * one == x and one * x == x
    assert x * zero == zero
    assert x + (-x) == zero
    assert x * k == x * ring.from_int(k)


@PROPS
@given(bicyclo_operands(), st.integers(-(1 << 70), 1 << 70))
def test_bicyclo_ring_axioms(operands, k):
    ring, (x, y, z) = operands
    one, zero = ring.from_int(1), ring.zero()
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * one == x and one * x == x
    assert x * zero == zero
    assert x + (-x) == zero
    assert x * k == x * ring.from_int(k)
