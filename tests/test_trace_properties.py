"""Property tests for the exact traces of cyclotomic and bicyclotomic
elements, against the trace of the multiplication-by-x matrix and, for
Z[zeta], the sum of the Galois conjugates."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from towerlim.cyclo import BiCycloRing, CycloRing

PROPS = settings(derandomize=True, database=None, max_examples=60,
                 deadline=None)

coeff = st.integers(-30, 30)
cyclo_rings = st.sampled_from([(3, 0), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
bi_rings = st.sampled_from([(2, 3, 1), (2, 3, 2), (5, 3, 1), (7, 3, 2),
                            (3, 5, 1), (11, 5, 1)])


def mult_matrix_trace(x, basis, coords) -> int:
    """Sum of the diagonal of y -> x*y in the given basis."""
    return sum(coords(x * e)[i] for i, e in enumerate(basis))


@PROPS
@given(cyclo_rings, st.data())
def test_cyclo_trace_is_the_multiplication_trace(params, data):
    ring = CycloRing(*params)
    x = ring.elem(data.draw(st.lists(coeff, min_size=ring.phi,
                                     max_size=ring.phi)))
    basis = [ring.elem([0] * j + [1]) for j in range(ring.phi)]
    assert x.trace() == mult_matrix_trace(x, basis, lambda y: y.coeffs)


@PROPS
@given(cyclo_rings, st.data())
def test_cyclo_trace_is_the_sum_of_conjugates(params, data):
    ring = CycloRing(*params)
    x = ring.elem(data.draw(st.lists(coeff, min_size=ring.phi,
                                     max_size=ring.phi)))
    units = [a for a in range(1, max(ring.order, 2)) if a % ring.ell]
    total = ring.zero()
    for a in units:
        total = total + x.galois_act(a)
    assert not any(total.coeffs[1:])
    assert x.trace() == total.coeffs[0]


@PROPS
@given(bi_rings, st.data())
def test_bicyclo_trace_is_the_multiplication_trace(params, data):
    ring = BiCycloRing(*params)
    x = ring.elem(data.draw(st.lists(
        st.lists(coeff, min_size=ring.cols, max_size=ring.cols),
        min_size=ring.rows, max_size=ring.rows)))
    basis = [ring.from_exponent_counts({(a, j): 1})
             for a in range(ring.rows) for j in range(ring.cols)]
    assert x.trace() == mult_matrix_trace(
        x, basis, lambda y: [c for row in y.mat for c in row])


def test_trace_of_fixed_precision_elements_is_reduced():
    ring = CycloRing(3, 2, 2)  # coefficients mod 9
    x = ring.elem([5, 0, 0, 4])
    assert x.trace() == (6 * 5 - 3 * 4) % 9
    assert CycloRing(3, 2, None).elem([5, 0, 0, 4]).trace() == 18
