"""Witt-vector laws on rational vectors, as hypothesis properties.

The denominators mix small primes, a prime just above 1000 and the
Mersenne prime 2^61 - 1, so the examples reach every way the kernels
clear denominators: fully, partly, and not at all.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from bcwitt.witt import (  # noqa: E402
    GhostVector,
    WittVector,
    frobenius,
    ghost,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
    witt_scale,
)

LAWS = settings(max_examples=60, deadline=None, database=None)

coeffs = st.builds(Fraction, st.integers(-9, 9),
                   st.sampled_from((1, 1, 2, 3, 4, 9, 7, 1009, 2**61 - 1)))


def vectors(n):
    return st.lists(coeffs, min_size=n, max_size=n).map(WittVector.from_coeffs)


pairs = st.integers(1, 12).flatmap(lambda n: st.tuples(vectors(n), vectors(n)))


@LAWS
@given(pairs)
def test_ghost_of_sum_and_product(ab):
    a, b = ab
    assert ghost(witt_add(a, b)) == ghost(a) + ghost(b)
    assert ghost(witt_mul(a, b)) == ghost(a) * ghost(b)


@LAWS
@given(st.integers(1, 12).flatmap(vectors), st.integers(-4, 6))
def test_ghost_of_scale(w, n):
    assert ghost(witt_scale(n, w)) == ghost(w).scale(n)


@LAWS
@given(st.integers(1, 12).flatmap(vectors))
def test_unghost_inverts_ghost(w):
    assert unghost(ghost(w)) == w


@LAWS
@given(st.integers(1, 12).flatmap(vectors), st.integers(1, 4))
def test_frobenius_after_verschiebung_is_n(w, n):
    assume(w.trunc >= n)
    fv = frobenius(n, verschiebung(n, w))
    assert ghost(fv) == GhostVector.of([n * v for v in ghost(w).values[:fv.trunc]])
