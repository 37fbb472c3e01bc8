"""Laws of the group ring Z[Q/Z], as hypothesis properties.

The Bost-Connes relations sigma_n o rho_n = n id and rho_n o sigma_n =
product with n pi_n, and the canonical form: every map on an element built
directly from its pairs (repeated points, points outside [0, 1), int
points, zero coefficients) equals the map on ``from_terms`` of the same
pairs, and so do its queries ``is_zero`` and ``coeff``.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bcwitt.qz import (  # noqa: E402
    QZElement,
    SplitQZElement,
    pi_n_times_n,
    rho,
    sigma,
    split,
    unsplit,
)

LAWS = settings(max_examples=80, deadline=None, database=None)

points = st.one_of(
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from((1, 2, 3, 4, 6, 8, 9, 10, 12, 35))),
    st.integers(-3, 3))
pairs = st.lists(st.tuples(points, st.integers(-4, 4)), max_size=7).map(
    lambda ps: ps + ps[:2])  # repeat some points
ns = st.integers(1, 9)
primes = st.sampled_from(({2}, {3}, {2, 3}, {5, 7}))
REPEATED = ((Fraction(1, 2), 1), (Fraction(1, 2), 1))


def raw(ps) -> QZElement:
    """The element stored as the pairs themselves, canonical or not."""
    return QZElement(tuple(ps))


@LAWS
@given(pairs, ns)
def test_sigma_after_rho_is_n(ps, n):
    a = QZElement.from_terms(ps)
    assert sigma(n, rho(n, a)) == n * a


@LAWS
@given(pairs, ns)
def test_rho_after_sigma_is_the_product_with_n_pi_n(ps, n):
    a = QZElement.from_terms(ps)
    assert rho(n, sigma(n, a)) == a * pi_n_times_n(n)


@LAWS
@given(pairs, pairs, ns, st.integers(-3, 3), primes)
@example(list(REPEATED), [], 2, 1, {2})
@example([(Fraction(1, 2), 0), (Fraction(3, 2), 1), (Fraction(1, 2), -1)], [], 2, 1, {2})
def test_maps_read_any_element_as_its_canonical_form(ps, qs, n, k, fset):
    a, b = raw(ps), raw(qs)
    ca, cb = QZElement.from_terms(ps), QZElement.from_terms(qs)
    assert QZElement.from_terms(a.terms) == ca
    assert a.is_zero() == ca.is_zero()
    for r, _ in ps:
        assert a.coeff(Fraction(r)) == ca.coeff(Fraction(r))
    assert a + b == ca + cb
    assert -a == -ca
    assert a - b == ca - cb
    assert a * b == ca * cb
    assert a * k == k * a == ca * k
    assert sigma(n, a) == sigma(n, ca)
    assert rho(n, a) == rho(n, ca)
    assert split(fset, a) == split(fset, ca)
    assert unsplit(split(fset, a)) == ca


@LAWS
@given(st.lists(st.tuples(st.tuples(points, points), st.integers(-4, 4)), max_size=7), primes)
def test_unsplit_reads_any_split_element_as_its_canonical_form(terms, fset):
    s = SplitQZElement(frozenset(fset), tuple(terms + terms[:2]))
    assert unsplit(s) == QZElement.from_terms(
        [(rf + rc, c) for (rf, rc), c in terms + terms[:2]])
