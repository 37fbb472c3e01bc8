import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from bcwitt import zeta
from bcwitt.arith import Polynomial
from bcwitt.errors import LimitExceeded
from bcwitt.torified import TorifiedClass
from bcwitt.witt import GhostVector, RationalWitt, ghost, series_div
from bcwitt.zeta import (
    f1_zeta,
    hw_quotient_check,
    hw_zeta,
    polylog_rational,
    q_to_1_limit,
    z0,
    z1,
)


def random_class(rng, degree=5, bound=6):
    return TorifiedClass.of([rng.randint(0, bound) for _ in range(rng.randint(1, degree + 1))])


def test_f1_zeta_examples():
    point = f1_zeta(TorifiedClass.point(), 5)
    assert point.ghost.values == (1, 1, 1, 1, 1)
    assert point.witt.coeffs == (1, 1, 1, 1, 1)

    gm = f1_zeta(TorifiedClass.of([0, 1]), 4)
    assert gm.ghost.values == (1, 2, 3, 4)
    assert gm.witt.coeffs[:2] == (1, Fraction(3, 2))

    p1 = f1_zeta(TorifiedClass.of([2, 1]), 5)
    assert p1.ghost.values == (3, 4, 5, 6, 7)


def test_polylog_rational_small():
    assert polylog_rational(1) == (Polynomial([0, 1]), Polynomial([1, -1]))
    assert polylog_rational(2) == (Polynomial([0, 1]), Polynomial([1, -1]) ** 2)
    assert polylog_rational(3) == (Polynomial([0, 1, 1]), Polynomial([1, -1]) ** 3)


def stirling2(k, r):
    """Stirling number of the second kind S(k, r), from the alternating
    binomial sum r! S(k, r) = sum_{j=0..r} (-1)^(r-j) C(r, j) j^k, 0^0 = 1."""
    if r > k:
        return 0
    total = sum((-1) ** (r - j) * math.comb(r, j) * j**k for j in range(r + 1))
    q, rem = divmod(total, math.factorial(r))
    assert rem == 0
    return q


def count_partitions(k, r):
    """Brute-force count of set partitions of {0..k-1} into exactly r blocks."""
    def rec(elems):
        if not elems:
            yield []
            return
        first, rest = elems[0], elems[1:]
        for size in range(len(rest) + 1):
            for others in combinations(rest, size):
                block = (first,) + others
                remaining = [e for e in rest if e not in others]
                for tail in rec(remaining):
                    yield [block] + tail
    return sum(1 for p in rec(list(range(k))) if len(p) == r)


def test_stirling2_against_enumeration():
    assert stirling2(2, 2) == 1
    assert stirling2(2, 1) == 1
    assert stirling2(4, 2) == count_partitions(4, 2) == 7
    assert stirling2(0, 0) == 1
    assert stirling2(3, 5) == 0


def test_stirling2_recurrence():
    for k in range(1, 21):
        for r in range(1, 21):
            assert stirling2(k, r) == r * stirling2(k - 1, r) + stirling2(k - 1, r - 1)


def stirling_polylog(k):
    """num = sum_{l<k} l! S(k, l+1) t^(l+1) (1-t)^(k-l-1), the assembly
    from powers of t/(1-t), and den = (1-t)^k."""
    t, one_minus_t = Polynomial([0, 1]), Polynomial([1, -1])
    num, fact = Polynomial(), 1
    for ell in range(k):
        if ell:
            fact *= ell
        num = num + fact * stirling2(k, ell + 1) * t ** (ell + 1) * one_minus_t ** (k - ell - 1)
    return num, one_minus_t**k


def test_polylog_rational_matches_stirling_assembly():
    for k in range(1, 60):
        assert polylog_rational(k) == stirling_polylog(k)


def test_polylog_series_is_power_sums():
    for k in range(1, 9):
        num, den = polylog_rational(k)
        n = 30
        assert num[0] == 0 and den[0] == 1
        # Coefficients 1..n of (den + num)/den = 1 + num/den.
        series = series_div((den + num).coeffs[1:], den.coeffs[1:], n)
        assert series == [m ** (k - 1) for m in range(1, n + 1)]


def test_hw_zeta_examples():
    t_q3 = hw_zeta(TorifiedClass.of([0, 1]), 3, trunc=6)
    assert t_q3.rational == RationalWitt.of([1, -1], [1, -3])
    assert t_q3.ghost.values == tuple(3**m - 1 for m in range(1, 7))

    p1_q2 = hw_zeta(TorifiedClass.of([2, 1]), 2, trunc=6)
    assert p1_q2.rational == RationalWitt.of([1], Polynomial([1, -1]) * Polynomial([1, -2]))
    assert p1_q2.ghost.values == tuple(1 + 2**m for m in range(1, 7))

    pt = hw_zeta(TorifiedClass.point(), 7, trunc=4)
    assert pt.rational == RationalWitt.of([1], [1, -1])


def test_hw_ghosts_match_rational_series():
    rng = random.Random(73)
    for q in (2, 3, 5):
        for _ in range(8):
            c = random_class(rng)
            hw = hw_zeta(c, q, trunc=15)
            assert ghost(hw.rational.expand(15)) == hw.ghost


def test_hw_rational_is_reduced():
    # hw_zeta builds num/den without a gcd; reducing them changes nothing.
    rng = random.Random(79)
    for q in (2, 3, 4):
        for _ in range(10):
            z = hw_zeta(random_class(rng, degree=4, bound=3), q, trunc=4).rational
            assert z == RationalWitt.of(z.num, z.den)


def test_hw_rational_degree_bound():
    """The rational form has degree sum |e_j|: at 2^15 it is built, past it
    LimitExceeded is raised before any factor, even when each factor is
    under the bound (T^30 at q = 3 has degree 2^30)."""
    at = hw_zeta(TorifiedClass.of([2**15]), 2, trunc=2)
    assert at.rational.den.degree == 2**15
    for c, degree in [([2**15 + 1, 2**14], 2**15 + 1),  # sum |e_j| = 2^14 + 1 + 2^14
                      ([0] * 30 + [1], 2**30)]:
        start = time.perf_counter()
        with pytest.raises(LimitExceeded) as exc:
            hw_zeta(TorifiedClass.of(c), 3, trunc=3)
        assert time.perf_counter() - start < 1
        assert (exc.value.limit, exc.value.value) == (2**15, degree)
    assert hw_zeta(TorifiedClass.of([0] * 30 + [1]), "q", trunc=2).rational is None


def test_hw_symbolic():
    hw = hw_zeta(TorifiedClass.of([2, 1]), "q", trunc=3)
    qpoly = Polynomial([0, 1])
    assert hw.ghost.values[0] == 2 + (qpoly - 1)
    assert hw.ghost.values[1] == 2 + (qpoly.substitute_power(2) - 1)
    assert hw.rational is None


def test_hw_ghosts_match_t_basis_formula():
    # Oracle: the T-basis ghosts sum a_k (q^m - 1)^k, expanded directly.
    rng = random.Random(101)
    classes = [random_class(rng, degree=6, bound=9) for _ in range(12)]
    classes += [TorifiedClass.zero(), TorifiedClass.point()]
    trunc = 7
    for c in classes:
        for q in (2, 3, 7):
            want = [sum(a * (q**m - 1) ** k for k, a in enumerate(c.a))
                    for m in range(1, trunc + 1)]
            got = hw_zeta(c, q, trunc).ghost.values
            assert got == tuple(want) and all(type(v) is int for v in got)
        sym = hw_zeta(c, "q", trunc).ghost
        want = []
        for m in range(1, trunc + 1):
            qm_minus_1 = Polynomial([-1] + [0] * (m - 1) + [1])
            want.append(sum((a * qm_minus_1**k for k, a in enumerate(c.a)), Polynomial()))
        assert sym.values == tuple(want)
        assert all(isinstance(v, Polynomial) for v in sym.values)
        for q in (2, 3, 7):
            assert GhostVector.of([v(q) for v in sym.values]) == hw_zeta(c, q, trunc).ghost


def test_z0_z1():
    assert z0(1, 3, trunc=4).values == (2, 2, 2, 2)
    assert z0(0, 5, trunc=3).values == (1, 1, 1)
    assert z0(2, "q", trunc=2).values == ((Polynomial([0, 1]) - 1) ** 2,) * 2
    sym = z1(2, "q", trunc=3)
    assert sym.values[1] == Polynomial([1, 1]) ** 2  # (1+q)^2
    assert z1(1, 3, trunc=4).values == (1, 4, 13, 40)


def test_quotient_check():
    assert hw_quotient_check(1, 3, trunc=3).values == (1, 4, 13)
    assert hw_quotient_check(0, 2, trunc=4).values == (1, 1, 1, 1)
    assert hw_quotient_check(2, 2, trunc=3).values[1] == 9
    for q in (2, 3, 5):
        for k in range(5):
            assert hw_quotient_check(k, q, trunc=12) == z1(k, q, trunc=12)
    for k in range(5):
        sym = hw_quotient_check(k, "q", trunc=6)
        assert sym == z1(k, "q", trunc=6)
    # Large q or k: no dense (1 - t)^((q-1)^k) is built.
    assert hw_quotient_check(2, 100, trunc=3).values == (1, 10201, 102030201)
    assert hw_quotient_check(100, 3, trunc=3) == z1(100, 3, trunc=3)


def test_quotient_check_mismatch_raises(monkeypatch):
    monkeypatch.setattr(zeta, "z1", lambda k, q, trunc=12: GhostVector.of([0] * trunc))
    with pytest.raises(ArithmeticError):
        hw_quotient_check(1, 3, trunc=3)


def test_q_to_1_limit():
    lim = q_to_1_limit(z1(1, "q", trunc=5))
    assert lim.values == (1, 2, 3, 4, 5)
    const = GhostVector.of([3, 4])
    assert q_to_1_limit(const) == const


def test_q_to_1_of_assembled_sum_matches_f1():
    rng = random.Random(79)
    trunc = 10
    for _ in range(15):
        c = random_class(rng)
        # Witt sum over k of z1(k, q)^{a_k}: ghosts add with multiplicity.
        values = [Polynomial() for _ in range(trunc)]
        for k, a in enumerate(c.a):
            if a == 0:
                continue
            g = z1(k, "q", trunc)
            values = [v + a * w for v, w in zip(values, g.values)]
        assembled = GhostVector.of(values)
        assert q_to_1_limit(assembled) == f1_zeta(c, trunc).ghost


def test_exponentiability_on_ghosts():
    rng = random.Random(83)
    trunc = 20
    for _ in range(20):
        a, b = random_class(rng), random_class(rng)
        za, zb = f1_zeta(a, trunc).ghost, f1_zeta(b, trunc).ghost
        assert f1_zeta(a + b, trunc).ghost == za + zb
        assert f1_zeta(a * b, trunc).ghost == za * zb


def test_f1_witt_form_matches_ghosts():
    rng = random.Random(89)
    for _ in range(10):
        c = random_class(rng)
        z = f1_zeta(c, 12)
        assert ghost(z.witt) == z.ghost


def test_hw_exponentiability():
    rng = random.Random(97)
    for q in (2, 3):
        for _ in range(8):
            a, b = random_class(rng, 4), random_class(rng, 4)
            za = hw_zeta(a, q, 10)
            zb = hw_zeta(b, q, 10)
            assert hw_zeta(a + b, q, 10).ghost == za.ghost + zb.ghost
            assert hw_zeta(a * b, q, 10).ghost == za.ghost * zb.ghost
    # Rational forms agree too (small classes): sum is the series product.
    for q in (2, 3):
        for _ in range(5):
            a, b = random_class(rng, 2, bound=2), random_class(rng, 2, bound=2)
            lhs = hw_zeta(a + b, q, 8).rational
            rhs = hw_zeta(a, q, 8).rational.witt_add(hw_zeta(b, q, 8).rational)
            assert lhs == rhs


def test_bad_q():
    with pytest.raises(ValueError):
        hw_zeta(TorifiedClass.point(), 1)
    with pytest.raises(ValueError):
        hw_zeta(TorifiedClass.point(), "x")
