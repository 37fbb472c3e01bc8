"""Witt-vector laws on rational vectors, as hypothesis properties.

The denominators mix small primes, a prime just above 1000 and the
Mersenne prime 2^61 - 1, so the examples reach every way the kernels
clear denominators: fully, partly, and not at all.
"""

import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from bcwitt.arith import Polynomial, _clear, _unclear  # noqa: E402
from bcwitt.witt import (  # noqa: E402
    GhostVector,
    WittVector,
    _rescale,
    frobenius,
    ghost,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
    witt_scale,
)

from builders import norm, typed  # noqa: E402

LAWS = settings(max_examples=60, deadline=None, database=None)

coeffs = st.builds(Fraction, st.integers(-9, 9),
                   st.sampled_from((1, 1, 2, 3, 4, 9, 7, 1009, 2**61 - 1)))


def vectors(n):
    return st.lists(coeffs, min_size=n, max_size=n).map(WittVector.from_coeffs)


pairs = st.integers(1, 12).flatmap(lambda n: st.tuples(vectors(n), vectors(n)))


def int_vectors(n):
    return st.lists(st.integers(-9, 9), min_size=n, max_size=n).map(WittVector.from_coeffs)


# Vectors and pairs of either kind: rational with coeffs, or all-integer.
any_vectors = st.integers(1, 12).flatmap(lambda n: vectors(n) | int_vectors(n))
any_pairs = pairs | st.integers(1, 12).flatmap(lambda n: st.tuples(int_vectors(n), int_vectors(n)))


@LAWS
@given(pairs)
def test_ghost_of_sum_and_product(ab):
    a, b = ab
    assert ghost(witt_add(a, b)) == ghost(a) + ghost(b)
    assert ghost(witt_mul(a, b)) == ghost(a) * ghost(b)


@LAWS
@given(st.integers(1, 12).flatmap(vectors), st.integers(-4, 9))
def test_ghost_of_scale(w, n):
    """witt_scale is the series w^n: the vector the ghost round trip gives,
    coefficient types included."""
    scaled, via_ghosts = witt_scale(n, w), unghost(ghost(w).scale(n))
    assert scaled == via_ghosts
    assert list(map(type, scaled.coeffs)) == list(map(type, via_ghosts.coeffs))
    assert ghost(scaled) == ghost(w).scale(n)


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


@LAWS
@given(st.integers(1, 12).flatmap(lambda n: st.lists(coeffs, min_size=n, max_size=n)))
def test_ghost_inverts_unghost_on_any_rational_ghosts(values):
    g = GhostVector.of(values)
    assert ghost(unghost(g)) == g


@LAWS
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12))
def test_unghost_of_integral_ghosts_has_denominators_dividing_m_factorial(values):
    # Exponential formula: c_m = sum over cycle types of prod N_j^k_j / (j^k_j k_j!),
    # and m! / prod (j^k_j k_j!) counts the permutations of that type.
    for m, c in enumerate(unghost(GhostVector.of(values)).coeffs, 1):
        assert (math.factorial(m) * c).denominator == 1


# Mostly integral entries, and a denominator (2^61 - 1)^2 of 122 bits, so
# series_mul meets both sides of its rule: sides over their common
# denominator, and (past _CLEAR_MAX_BITS bits per Fraction entry) Fraction.
sparse = st.one_of(st.integers(-9, 9), coeffs, st.builds(
    Fraction, st.integers(-9, 9), st.just((2**61 - 1) ** 2)))
sparse_pairs = st.integers(1, 12).flatmap(lambda n: st.tuples(
    *[st.lists(sparse, min_size=n, max_size=n).map(WittVector.from_coeffs)] * 2))


@LAWS
@given(sparse_pairs)
@example((WittVector.from_coeffs([Fraction(1, 2**61 - 1), 2]),
          WittVector.from_coeffs([3, Fraction(-1, 2**61 - 1)])))
@example((WittVector.from_coeffs([Fraction(1, (2**61 - 1) ** 2), 2]),
          WittVector.from_coeffs([3, 1])))
def test_witt_add_commutes(ab):
    a, b = ab
    s, t = witt_add(a, b), witt_add(b, a)
    assert [(type(c), c) for c in s.coeffs] == [(type(c), c) for c in t.coeffs]
    assert ghost(s) == ghost(a) + ghost(b)


@LAWS
@given(any_pairs)
@example((WittVector.from_coeffs([Fraction(1, 2**61 - 1), Fraction(1, 1009)]),
          WittVector.from_coeffs([Fraction(3, 4), Fraction(-1, 9)])))
def test_witt_mul_is_the_ghost_product(ab):
    """The scaled ghosts of both sides meet without a Fraction round trip,
    and give what unghosting the product of the ghost vectors gives."""
    a, b = ab
    assert typed(witt_mul(a, b).coeffs) == typed(unghost(ghost(a) * ghost(b)).coeffs)


@LAWS
@given(any_vectors, st.integers(1, 5))
def test_frobenius_takes_every_nth_ghost(w, n):
    assume(w.trunc >= n)
    want = unghost(GhostVector.of(ghost(w).values[n - 1::n][:w.trunc // n]))
    assert typed(frobenius(n, w).coeffs) == typed(want.coeffs)


# Denominators that F = 6 or 2^70 * 3 covers from some index on, so that the
# scaled values are often all integers and _rescale's gcd path runs; a first
# denominator 2^70 puts the cover past _CLEAR_MAX_BITS.
covered = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 4, 8, 3, 27, 2**70)))


@LAWS
@given(st.lists(coeffs | covered, min_size=1, max_size=12),
       st.sampled_from((1, 2, 6, 6, 1009 * 6, (2**61 - 1) * 6, 2**70 * 3, 2**70 * 3)))
@example([Fraction(1, 2), Fraction(1, 4), Fraction(-5, 8), 7], 6)
@example([3, -1, 0, 7], 1)
@example([Fraction(1, 3), Fraction(1, 2), Fraction(1, 27)], 2**70 * 3)
@example([Fraction(1, 2**70), Fraction(1, 3)], 2**70 * 3)
@example([Fraction(1, 1009 * 2), Fraction(1, 4)], 1009 * 6)
def test_rescale_is_clear_of_the_unscaled_values(values, F):
    """From values scaled by F^m, _rescale picks the E and the scaled values
    that _clear picks for the values themselves, past the 64-bit cap too."""
    Fm = 1
    xs = []
    for x in values:
        Fm *= F
        xs.append(norm(x * Fm))
    want_E, want = _clear(_unclear(xs, F))
    got_E, got = _rescale(F, xs)
    assert got_E == want_E and typed(got) == typed(want)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(coeffs | st.integers(-9, 9), max_size=6), st.integers(1, 5))
@example([], 1)
@example([], 3)
@example([0, 0], 2)
@example([Fraction(1, 2), 0, 3], 1)
def test_substitute_power_is_the_padded_polynomial(cs, n):
    p = Polynomial(cs)
    padded = [0] * (len(p.coeffs) * n)
    padded[::n] = p.coeffs
    got, want = p.substitute_power(n), Polynomial(padded)
    assert typed(got.coeffs) == typed(want.coeffs)
    assert type(got.coeffs) is tuple


@pytest.mark.parametrize("cs", [[], [1, 2]])
@pytest.mark.parametrize("n", [0, -2])
def test_substitute_power_checks_the_index_first(cs, n):
    with pytest.raises(ValueError, match="index"):
        Polynomial(cs).substitute_power(n)
