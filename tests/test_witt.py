import math
import random
from fractions import Fraction

import pytest

from bcwitt.arith import Polynomial
from bcwitt.errors import NotDivisible, TruncationTooSmall
from bcwitt.witt import (
    GhostVector,
    RationalWitt,
    WittVector,
    frobenius,
    ghost,
    ghost_divide,
    rational_div,
    series_div,
    teichmuller,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_scale,
    witt_sub,
)


def random_witt(rng, trunc, integral=True):
    if integral:
        return WittVector.from_coeffs([rng.randint(-4, 4) for _ in range(trunc)])
    return WittVector.from_coeffs(
        [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(trunc)])


def test_ghost_teichmuller():
    assert ghost(teichmuller(2, 3)).values == (2, 4, 8)
    assert teichmuller(0, 3).coeffs == (0, 0, 0)
    assert teichmuller(1, 4).coeffs == (1, 1, 1, 1)
    assert teichmuller(-2, 4).coeffs == (-2, 4, -8, 16)


def test_ghost_of_squared_geometric():
    # 1/((1-t)(1-t)) by direct series product; log-differentiation gives 2,2,2.
    sq = witt_add(teichmuller(1, 3), teichmuller(1, 3))
    assert ghost(sq).values == (2, 2, 2)


def test_unghost_all_ones():
    w = unghost(GhostVector.of([1, 1, 1]))
    assert w.coeffs == (1, 1, 1)  # 1/(1-t) truncated


def test_ghost_unghost_inverse():
    rng = random.Random(23)
    for _ in range(30):
        w = random_witt(rng, 24, integral=False)
        assert unghost(ghost(w)) == w
    for _ in range(10):
        g = GhostVector.of([rng.randint(-9, 9) for _ in range(12)])
        assert ghost(unghost(g)) == g
    # A padded polynomial: ghost's sum stops at the last nonzero coefficient.
    padded = WittVector.from_coeffs([3, 0, -1], 40)
    assert unghost(ghost(padded)) == padded


def test_witt_add():
    a, b = teichmuller(2, 3), teichmuller(3, 3)
    s = witt_add(a, b)
    # 1/((1-2t)(1-3t)) expanded: 1 + 5t + 19t^2 + 65t^3
    assert s.coeffs == (5, 19, 65)
    assert ghost(s).values == (5, 13, 35)
    assert witt_add(a, WittVector.one(3)) == a


def test_witt_mul():
    assert witt_mul(teichmuller(2, 3), teichmuller(3, 3)) == teichmuller(6, 3)
    a = WittVector.from_coeffs([1, 2, 3, 4])
    assert witt_mul(a, teichmuller(1, 4)) == a  # [1] is the unit
    g = ghost(witt_mul(teichmuller(2, 3), teichmuller(3, 3)))
    assert g.values == (6, 36, 216)


def test_witt_mul_teichmuller_sums_oracle():
    # Independent characterization: sums of Teichmuller lifts multiply by
    # pairwise products, prod (1 - a_i b_j t)^-1, computed purely by series.
    rng = random.Random(29)
    for _ in range(15):
        aa = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        bb = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
        n = 10
        lhs = witt_mul(
            _teich_sum(aa, n),
            _teich_sum(bb, n))
        rhs = _teich_sum([a * b for a in aa for b in bb], n)
        assert lhs == rhs


def _teich_sum(values, trunc):
    acc = WittVector.one(trunc)
    for v in values:
        acc = witt_add(acc, teichmuller(v, trunc))
    return acc


def test_ghost_is_ring_hom_random():
    rng = random.Random(31)
    for _ in range(25):
        a, b = random_witt(rng, 12), random_witt(rng, 12)
        assert ghost(witt_add(a, b)) == ghost(a) + ghost(b)
        assert ghost(witt_mul(a, b)) == ghost(a) * ghost(b)


def test_witt_integrality_closure():
    rng = random.Random(37)
    for _ in range(25):
        a, b = random_witt(rng, 10), random_witt(rng, 10)
        assert witt_mul(a, b).is_integral()


def test_frobenius():
    f = frobenius(2, teichmuller(3, 6))
    assert f == teichmuller(9, 3)
    a = WittVector.from_coeffs([2, -1, 5, 0, 3, 1])
    assert frobenius(1, a) == a
    # F_2 of 1/((1-t)(1-2t)) has ghosts 1 + 4^m.
    s = witt_add(teichmuller(1, 6), teichmuller(2, 6))
    assert ghost(frobenius(2, s)).values == (5, 17, 65)
    assert frobenius(2, s) == witt_add(teichmuller(1, 3), teichmuller(4, 3))
    with pytest.raises(TruncationTooSmall):
        frobenius(4, teichmuller(2, 3))


def test_verschiebung():
    v = verschiebung(2, teichmuller(1, 4))
    assert v.coeffs == (0, 1, 0, 1)  # 1/(1-t^2) truncated
    assert ghost(v).values == (0, 2, 0, 2)
    a = WittVector.from_coeffs([3, 1, 4, 1])
    assert verschiebung(1, a) == a


def test_witt_relations():
    rng = random.Random(41)
    N = 36
    for n in range(1, 7):
        for m in range(1, 7):
            w = random_witt(rng, N)
            if N // (n * m) >= 1:
                assert frobenius(n, frobenius(m, w)) == frobenius(n * m, w)
            assert verschiebung(n, verschiebung(m, w)) == verschiebung(n * m, w)
            fv = frobenius(n, verschiebung(n, w))
            assert fv == witt_scale(n, w).truncate(fv.trunc)
            if math.gcd(n, m) == 1 and N // n >= 1:
                assert frobenius(n, verschiebung(m, w)) == verschiebung(m, frobenius(n, w))


def test_witt_scale_is_iterated_add():
    rng = random.Random(43)
    for _ in range(8):
        w = random_witt(rng, 10)
        n = rng.randint(1, 5)
        acc = WittVector.one(10)
        for _ in range(n):
            acc = witt_add(acc, w)
        assert witt_scale(n, w) == acc


def test_rational_expand():
    r = RationalWitt.of([1, -1], [1, -2])
    assert r.expand(3).coeffs == (1, 2, 4)
    assert r.ghosts(4).values == (1, 3, 7, 15)  # 2^m - 1


def test_rational_div():
    # ((1-t)/(1-3t)) / (1-t)^-2 = (1-t)^3/(1-3t); ghosts 3^m - 3.
    p = RationalWitt.of([1, -1], [1, -3])
    q = RationalWitt.of([1], Polynomial([1, -1]) ** 2)
    s = rational_div(p, q)
    assert s.num == Polynomial([1, -1]) ** 3
    assert s.den == Polynomial([1, -3])
    assert s.ghosts(4).values == (0, 6, 24, 78)
    assert rational_div(p, p) == RationalWitt.one()


def test_rational_witt_reduction():
    r = RationalWitt.of(Polynomial([1, -1]) * Polynomial([1, -2]), Polynomial([1, -1]))
    assert r.num == Polynomial([1, -2]) and r.den == Polynomial([1])
    with pytest.raises(NotDivisible):
        RationalWitt.of([0, 1], [1])


def test_witt_sub_neg():
    a, b = teichmuller(2, 5), teichmuller(3, 5)
    assert witt_add(witt_sub(a, b), b) == a
    assert witt_add(witt_neg(a), a) == WittVector.one(5)


def test_ghost_divide():
    p = GhostVector.of([2, 8, 26])
    q = GhostVector.of([2, 2, 2])
    assert ghost_divide(p, q).values == (1, 4, 13)
    with pytest.raises(NotDivisible):
        ghost_divide(GhostVector.of([1]), GhostVector.of([2]))
    with pytest.raises(NotDivisible):
        ghost_divide(GhostVector.of([Polynomial([0, 1])]), GhostVector.of([Polynomial([1, 1])]))


def test_json_roundtrip():
    w = WittVector.from_coeffs([1, Fraction(-3, 2), 0])
    assert w.to_json() == {"trunc": 3, "coeffs": ["1", "-3/2", "0"]}
    assert WittVector.from_json(w.to_json()) == w
    r = RationalWitt.of([1, -3], [1, -2])
    assert r.to_json() == {"num": [1, -3], "den": [1, -2]}
    assert RationalWitt.from_json(r.to_json()) == r


def test_newton_kernel_against_sympy():
    """ghost = t d/dt log, unghost = exp of sum g_m t^m / m, series_div = series
    division, checked in sympy's truncated power-series ring over QQ."""
    pytest.importorskip("sympy")
    from sympy import QQ
    from sympy.polys.ring_series import rs_exp, rs_log, rs_mul, rs_series_inversion
    from sympy.polys.rings import ring

    _, t = ring("t", QQ)
    rng = random.Random(223)

    def mixed(n, integral):
        dens = (1,) if integral else (1, 1, 2, 3)
        return [Fraction(rng.randint(-5, 5), rng.choice(dens)) for _ in range(n)]

    def series(cs):
        return 1 + sum((QQ(c.numerator, c.denominator) * t**m for m, c in enumerate(cs, 1)),
                       0 * t)

    def coeffs(p, n):
        got = dict(p)
        return [Fraction(int(c.numerator), int(c.denominator))
                for c in (got.get((m,), QQ(0)) for m in range(1, n + 1))]

    for case in range(40):
        integral, n = case % 2 == 0, rng.randint(1, 10)
        w = WittVector.from_coeffs(mixed(n, integral))
        log = coeffs(rs_log(series(w.coeffs), t, n + 1), n)
        assert list(ghost(w).values) == [m * c for m, c in enumerate(log, 1)]
        g = GhostVector.of(mixed(n, integral))
        exponent = sum((QQ(v.numerator, v.denominator * m) * t**m
                        for m, v in enumerate(g.values, 1)), 0 * t)
        assert list(unghost(g).coeffs) == coeffs(rs_exp(exponent, t, n + 1), n)
        a, b = mixed(rng.randint(0, n), integral), mixed(rng.randint(0, n), integral)
        ratio = rs_mul(series(a), rs_series_inversion(series(b), t, n + 1), t, n + 1)
        assert series_div(a, b, n) == coeffs(ratio, n)
