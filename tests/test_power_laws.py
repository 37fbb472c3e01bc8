"""Powers from the one kernel, ``arith._power_series``, as hypothesis
properties.

Polynomials mix int and Fraction coefficients, mostly-zero (sparse)
supports, leading runs of zeros (P = t^v P0) and constant terms other
than +-1, so the examples reach every branch of ``Polynomial.__pow__`` and
both the exact int division and the Fraction division of the kernel.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from bcwitt.arith import Polynomial, _power_series  # noqa: E402

LAWS = settings(max_examples=80, deadline=None, database=None)

nonzero = st.one_of(st.integers(-9, 9).filter(bool),
                    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12)))
scalars = st.one_of(st.just(0), nonzero)
polys = st.builds(lambda v, cs: Polynomial([0] * v + cs),
                  st.integers(0, 3), st.lists(scalars, max_size=6))
series = st.builds(lambda p0, rest: (p0, *rest), nonzero, st.lists(scalars, max_size=5))
exponents = st.integers(0, 12)


def repeated_product(p: Polynomial, k: int) -> Polynomial:
    out = Polynomial([1])
    for _ in range(k):
        out = out * p
    return out


@LAWS
@given(polys, exponents, exponents)
@example(Polynomial(), 0, 0)
@example(Polynomial([2, 3]), 5, 4)
def test_power_of_a_sum_is_the_product_of_powers(p, a, b):
    assert p ** (a + b) == p**a * p**b


@LAWS
@given(polys, exponents)
@example(Polynomial(), 0)
@example(Polynomial(), 3)
@example(Polynomial([0, 0, 2, 3]), 7)
@example(Polynomial([Fraction(1, 2), 0, 0, Fraction(-2, 3)]), 9)
def test_power_is_the_repeated_product(p, k):
    assert p**k == repeated_product(p, k)


def canonical(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@LAWS
@given(series, st.integers(-6, 6), st.integers(0, 15))
@example((2, -2), -2, 6)  # q_3 = 1 is an int and q_4 = 5/4 is not
@example((1, 1), -1, 8)
def test_kernel_series_powers(p, k, n):
    """P^k truncated after t^n, for negative k too: P^k P^-k = 1, each
    coefficient an int exactly when it is integral."""
    q, r = _power_series(p, k, n), _power_series(p, -k, n)
    assert len(q) == n + 1 and all(map(canonical, q))
    assert [sum(q[i] * r[m - i] for i in range(m + 1)) for m in range(n + 1)] == [1] + [0] * n
    if k >= 0:
        assert q == list(repeated_product(Polynomial(p), k)[m] for m in range(n + 1))
