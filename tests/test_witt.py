import math
import random
from fractions import Fraction

import pytest

from bcwitt.arith import _CLEAR_MAX_BITS, Polynomial, _clear, _cover, _unclear
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
    series_mul,
    teichmuller,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_scale,
    witt_sub,
)

from builders import norm, typed


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
    assert w.truncate(2).coeffs == (1, 1)
    with pytest.raises(TruncationTooSmall, match="cannot extend truncation 3 to 4"):
        w.truncate(4)
    with pytest.raises(ValueError, match="cannot expand a symbolic ghost vector"):
        unghost(GhostVector.of([1, Polynomial([0, 1])]))


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

    def by_index(n, w):  # the definition: c_m becomes the coefficient of t^(m n)
        cs = [0] * w.trunc
        for m in range(1, w.trunc // n + 1):
            cs[m * n - 1] = w.coeffs[m - 1]
        return cs

    r = WittVector.from_coeffs([Fraction(1, 2), Fraction(-3, 7), 5, 0, Fraction(2, 1009), -1])
    for w in (a, r):
        for n in range(1, w.trunc + 3):  # up to n = trunc and past it
            got = verschiebung(n, w)
            assert got.trunc == w.trunc and typed(got.coeffs) == typed(by_index(n, w))
        assert verschiebung(w.trunc + 1, w).coeffs == (0,) * w.trunc
    with pytest.raises(ValueError):
        verschiebung(0, a)


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


def test_rational_ghosts_are_ghost_of_the_expansion():
    """ghosts(N) takes ghost(num) - ghost(den) on the sides cut or padded
    to N; it must equal the ghosts of the expanded series, value and type."""
    rng = random.Random(419)
    for _ in range(60):
        sides = [[1] + [rng.choice((rng.randint(-5, 5), Fraction(rng.randint(-5, 5),
                                                                 rng.randint(1, 6))))
                        for _ in range(rng.randint(0, 6))] for _ in range(2)]
        r = RationalWitt.of(*sides)
        for trunc in (1, 2, 5, 9):
            got, want = r.ghosts(trunc), ghost(r.expand(trunc))
            assert got == want
            assert list(map(type, got.values)) == list(map(type, want.values))


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
    neg = r.witt_neg()
    assert (neg.num, neg.den) == (Polynomial([1]), Polynomial([1, -2]))
    assert neg.witt_add(r) == RationalWitt.one()
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
    with pytest.raises(NotDivisible, match="ghost division by zero component"):
        ghost_divide(GhostVector.of([1, 2]), GhostVector.of([1, 0]))
    with pytest.raises(NotDivisible):
        ghost_divide(GhostVector.of([Polynomial([0, 1])]), GhostVector.of([Polynomial([1, 1])]))


def test_ghost_divide_polynomials_match_divmod():
    """Polynomial ghosts that carry factors (q - 1)^j divide as divmod does:
    the same quotient when the remainder is zero, else NotDivisible naming
    the original polynomials."""
    rng = random.Random(37)
    q_minus_1 = Polynomial([-1, 1])

    def poly():
        cs = [rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 5))))
              for _ in range(rng.randint(1, 5))]
        return Polynomial(cs) * q_minus_1 ** rng.randint(0, 6)

    seen = set()
    for _ in range(400):
        b = poly()
        if b.is_zero():
            continue
        a = rng.choice((poly(), poly() * b, rng.randint(-3, 3)))
        pa = a if isinstance(a, Polynomial) else Polynomial([a])
        quot, rem = divmod(pa, b)
        if rem.is_zero():
            seen.add("divisible")
            assert ghost_divide(GhostVector.of([a]), GhostVector.of([b])).values == (quot,)
        else:
            seen.add("not divisible")
            with pytest.raises(NotDivisible) as exc:
                ghost_divide(GhostVector.of([a]), GhostVector.of([b]))
            assert str(exc.value) == f"polynomial ghost {pa!r} not divisible by {b!r}"
    assert seen == {"divisible", "not divisible"}
    with pytest.raises(ZeroDivisionError):
        ghost_divide(GhostVector.of([q_minus_1]), GhostVector.of([Polynomial()]))


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


# ------------------------------------------- Fraction-path kernels (oracles)
# Reference Newton and convolution loops in plain int/Fraction arithmetic,
# normalized per step, with no homothety t -> E t.

def _ghost_oracle(c):
    ns = []
    for m in range(1, len(c) + 1):
        s = m * c[m - 1]
        for i in range(1, m):
            s -= c[i - 1] * ns[m - i - 1]
        ns.append(norm(s))
    return ns


def _unghost_oracle(v):
    cs = []
    for m in range(1, len(v) + 1):
        s = v[m - 1]
        for j in range(1, m):
            s += v[j - 1] * cs[m - j - 1]
        cs.append(s // m if isinstance(s, int) and not s % m else norm(Fraction(s, m)))
    return cs


def _series_mul_oracle(a, b, n):
    a, b = (1, *a), (1, *b)
    out = []
    for m in range(1, n + 1):
        lo, hi = max(0, m - len(b) + 1), min(m, len(a) - 1)
        out.append(norm(sum(a[i] * b[m - i] for i in range(lo, hi + 1))))
    return out


def _series_div_oracle(a, b, n):
    out = [1]
    for m in range(1, n + 1):
        s = a[m - 1] if m <= len(a) else 0
        for j in range(1, min(m, len(b)) + 1):
            s -= b[j - 1] * out[m - j]
        out.append(norm(s))
    return out[1:]


def _next_prime(n):
    n += 1
    while any(n % q == 0 for q in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


def _adversarial(n, rng):
    """Denominator patterns that stress the choice of E, at length n."""
    def ones_with(k, x):
        cs = [1] * n
        cs[k - 1] = x
        return cs

    rough, smooth, p, q = [], [], 1000, 1
    for _ in range(n):
        p = _next_prime(p)
        q = _next_prime(q) if q < 997 else 2
        rough.append(Fraction(rng.randint(-9, 9) or 1, p))
        smooth.append(Fraction(rng.randint(1, 9), q))
    dense = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    half = max(n // 2, 1)
    return {
        "one 1/2^n at n": ones_with(n, Fraction(1, 2**n)),
        "one 1/3^(n/2) at n/2": ones_with(half, Fraction(1, 3**half)),
        "one 1/997^(n/2) at n/2": ones_with(half, Fraction(1, 997**half)),
        "one 1/(p^(n/2-1) q^(n/2)), p, q > 1000": ones_with(
            half, Fraction(1, 1009 ** (half - 1) * 1013**half)),
        "1/9^m": [Fraction(1, 9**m) for m in range(1, n + 1)],
        "first entry 1/(2^61 - 1)": ones_with(1, Fraction(1, 2**61 - 1)),
        "rough: k/p_m, p_m > 1000": rough,
        "one 1/997 at n": ones_with(n, Fraction(1, 997)),
        "k/p_m, p_m < 1000": smooth,
        "1/m": [Fraction(1, m) for m in range(1, n + 1)],
        "k/m!": [Fraction(rng.randint(1, 9), math.factorial(m)) for m in range(1, n + 1)],
        "a/b, b <= 9": dense,
        "a/b, b <= 9, one 1/1000003": dense[:half] + [Fraction(1, 1000003)] + dense[half + 1:],
    }


def _check_kernels(a, b):
    """Each kernel, and the Witt product, against its Fraction-path oracle."""
    n = len(a)
    wa, wb = WittVector.from_coeffs(a), WittVector.from_coeffs(b)
    ga, gb = ghost(wa), ghost(wb)
    assert typed(ga.values) == typed(_ghost_oracle(wa.coeffs))
    assert typed(unghost(ga).coeffs) == typed(_unghost_oracle(ga.values))
    prod = ga * gb
    assert typed(unghost(prod).coeffs) == typed(_unghost_oracle(prod.values))
    assert typed(series_mul(wa.coeffs, wb.coeffs, n)) == typed(
        _series_mul_oracle(wa.coeffs, wb.coeffs, n))
    assert typed(series_div(wa.coeffs, wb.coeffs, n)) == typed(
        _series_div_oracle(wa.coeffs, wb.coeffs, n))
    assert typed(series_div((), wb.coeffs, n)) == typed(_series_div_oracle((), wb.coeffs, n))


def test_kernels_match_fraction_path_random():
    rng = random.Random(311)

    def vec(n, kind):
        if kind == "int":
            return [rng.randint(-9, 9) for _ in range(n)]
        if kind == "rational":
            return [Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(n)]
        return [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 5, 7, 1009)))
                for _ in range(n)]

    for n in (1, 2, 3, 7, 12, 36, 120):
        for kind in ("int", "rational", "mixed"):
            _check_kernels(vec(n, kind), vec(n, kind))
    # Short polynomial sides, as RationalWitt.expand passes them.
    for _ in range(10):
        a, b = vec(rng.randint(0, 4), "rational"), vec(rng.randint(0, 4), "mixed")
        assert typed(series_div(a, b, 40)) == typed(_series_div_oracle(a, b, 40))
    padded = WittVector.from_coeffs([Fraction(1, 6), 0, Fraction(-2, 9)], 40)
    assert typed(ghost(padded).values) == typed(_ghost_oracle(padded.coeffs))


def test_kernels_match_fraction_path_adversarial():
    rng = random.Random(313)
    families = list(_adversarial(40, rng).values())
    for cs in families:
        _check_kernels(cs, cs[1:] + cs[:1])
    # Mixed pairs: one side's E may cover the other, or stop at the cap.
    for a, b in zip(families, families[1:] + families[:1]):
        _check_kernels(a, b)
        _check_kernels(b, a)


def test_kernels_match_fraction_path_edge_cases():
    rng = random.Random(317)
    # Ghost vectors that come from no integral Witt vector: division by m is
    # inexact, so unghost grows its common denominator S, which the result
    # must not show; a Fraction left by _clear rides through the same loop.
    for n in (1, 2, 5, 24):
        for dens in ((1,), (1, 2, 3, 7), (1, 1000003)):
            g = GhostVector.of([Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(n)])
            assert typed(unghost(g).coeffs) == typed(_unghost_oracle(g.values))
    for n in (7, 60, 120):
        witt_ghosts = list(ghost(random_witt(rng, n)).values)
        for values in ([rng.randint(-9, 9) for _ in range(n)],
                       [m**3 for m in range(1, n + 1)],
                       [v + (m == 2) for m, v in enumerate(witt_ghosts, 1)],
                       [v + (m == min(n, 60)) for m, v in enumerate(witt_ghosts, 1)],
                       [v + (Fraction(1, 7) if m == (n + 1) // 2 else 0)
                        for m, v in enumerate(witt_ghosts, 1)],
                       [Fraction(1, 1009)] + witt_ghosts[1:]):
            g = GhostVector.of(values)
            got = unghost(g)
            assert typed(got.coeffs) == typed(_unghost_oracle(g.values))
            assert ghost(got) == g
    for n in (1, 4):
        zero = WittVector.one(n)
        assert ghost(zero).values == (0,) * n
        assert typed(unghost(GhostVector.of([0] * n)).coeffs) == typed([0] * n)
        _check_kernels([0] * n, [0] * n)
    for x in (5, Fraction(1, 3), Fraction(-7, 2**61 - 1)):
        _check_kernels([x], [Fraction(2, 9)])


def test_newest_first_buffers_at_the_edges():
    """The kernels' newest-first buffers at N = 1, on degree-0 and all-zero
    sides, and on sides shorter or longer than the output."""
    rng = random.Random(331)
    sides = [(), (0,), [0] * 5, (Fraction(1, 3),), (5,),
             [rng.randint(-9, 9) for _ in range(3)],
             [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(7)]]
    for n in (1, 2, 6):
        for a in sides:
            for b in sides:
                assert typed(series_mul(a, b, n)) == typed(_series_mul_oracle(a, b, n))
                assert typed(series_div(a, b, n)) == typed(_series_div_oracle(a, b, n))
            w = WittVector.from_coeffs(a, n)
            assert typed(ghost(w).values) == typed(_ghost_oracle(w.coeffs))
            assert typed(unghost(GhostVector.of(w.coeffs)).coeffs) == typed(
                _unghost_oracle(w.coeffs))


_PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % q for q in range(2, p))]


def _least_cover_oracle(xs):
    """lcm of den(x_1) and, for each prime p < 1000, p^max_m ceil(v_p(den x_m) / m)."""
    dens = [Fraction(x).denominator for x in xs]
    cover = dens[0] if dens else 1
    for p in _PRIMES_BELOW_1000:
        e = 0
        for m, d in enumerate(dens, 1):
            v = 0
            while d % p == 0:
                d //= p
                v += 1
            e = max(e, -(-v // m))
        cover = math.lcm(cover, p**e)
    return cover


def _check_clear(xs, start=1):
    E, scaled = _clear(xs, start)
    assert E % start == 0
    assert _cover([Fraction(x).denominator for x in xs], start) == E
    cover = math.lcm(start, _least_cover_oracle(xs))
    assert E == (cover if cover.bit_length() <= _CLEAR_MAX_BITS else start)
    primorial = math.prod(_PRIMES_BELOW_1000)
    for m, (x, y) in enumerate(zip(xs, scaled), 1):
        assert y == x * E**m
        if E == cover:
            # Covered: the first denominator entirely, later ones up to
            # their primes above 1000.
            assert Fraction(y).denominator == 1 if m == 1 else math.gcd(
                Fraction(y).denominator, primorial) == 1
    if E == 1:
        assert scaled is xs and _unclear(scaled, E) is xs
    else:
        assert typed(_unclear(scaled, E)) == typed([norm(x) for x in xs])
    return E


def test_clear_picks_the_least_cover():
    rng = random.Random(331)
    for n in (1, 36, 120):
        for name, cs in _adversarial(n, rng).items():
            E = _check_clear(cs)
            if name == "1/m" and n == 120:
                assert E == 1  # the primorial of 113 is past the cap
        for _ in range(20):
            cs = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4, 8, 3, 9, 25, 7, 1009)))
                  for _ in range(n)]
            _check_clear(cs)
            _check_clear(cs, 10)
    # Exactly the least cover, not the residual: E is 6, not 2^59 * 3^60.
    cs = [1] * 119 + [0]
    cs[59] = Fraction(1, 2**59 * 3**60)
    assert _check_clear(cs) == 6
    assert _check_clear([Fraction(1, 2**120) if m == 120 else 1 for m in range(1, 121)]) == 2
    assert _check_clear([Fraction(1, 1009 * 2**7)] + [Fraction(1, 1009)] * 5) == 1009 * 2**7
    # Integral input: E stays, and the very same values come back.
    ints = (3, -1, 0, 7)
    assert _clear(ints) == (1, ints)
    assert _unclear(ints, 1) is ints


def _series_mul_boundary(n, rng):
    """(a, b, cleared) pairs just inside and just past the rule that puts each
    side of series_mul over its common denominator: cleared iff
    bits(D_a D_b) <= _CLEAR_MAX_BITS * (Fraction entries on both sides)."""
    ints = [rng.randint(-9, 9) for _ in range(n)]
    dense = [Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)) for _ in range(n)]
    d_dense = math.lcm(*(x.denominator for x in dense))

    def ones_with(k, x):
        cs = [1] * n
        cs[k - 1] = x
        return cs

    bits = _CLEAR_MAX_BITS
    cases = []
    for above in (False, True):
        one = ones_with(n // 3 or 1, Fraction(-3, 2 ** (bits - 1 + above)))
        cases += [(one, ints, not above), (ints, one, not above)]
        # One entry on each side: 2^(2 bits - 1) is exactly at the limit.
        a = ones_with(1, Fraction(1, 2 ** (bits - 1)))
        b = ones_with(n, Fraction(5, 2 ** (bits + above)))
        cases += [(a, b, not above), (b, a, not above)]
        # A dense rational side against one very wide entry on the other.
        k = bits * (n + 1) - d_dense.bit_length() + above
        wide = ones_with(n // 2 or 1, Fraction(7, 2**k))
        cases += [(dense, wide, not above), (wide, dense, not above)]
    return cases


def test_series_mul_shared_denominator_rule(monkeypatch):
    import bcwitt.witt as witt_module

    seen = []

    def spy(bs, E, S=1):
        seen.append(S)
        return _unclear(bs, E, S)

    monkeypatch.setattr(witt_module, "_unclear", spy)
    rng = random.Random(347)
    for n in (3, 40):
        for a, b, cleared in _series_mul_boundary(n, rng):
            seen.clear()
            got = series_mul(a, b, n)
            assert typed(got) == typed(_series_mul_oracle(a, b, n))
            lcm = [math.lcm(*(Fraction(x).denominator for x in side)) for side in (a, b)]
            assert seen == [lcm[0] * lcm[1] if cleared else 1], (n, cleared)
    # Integral sides, and the Witt zero, keep D = 1.
    for a, b in (([1, 2, 3], [4, 5]), ((), (7,)), ((), ())):
        seen.clear()
        assert typed(series_mul(a, b, 4)) == typed(_series_mul_oracle(a, b, 4))
        assert seen == [1]


def test_vectors_are_frozen_records():
    w = WittVector(2, (1, Fraction(1, 2)))
    assert w == WittVector(coeffs=(1, Fraction(1, 2)), trunc=2)
    assert w != GhostVector(2, (1, Fraction(1, 2)))          # same fields, other class
    assert hash(w) == hash((2, (1, Fraction(1, 2))))
    assert repr(w) == "WittVector(trunc=2, coeffs=(1, Fraction(1, 2)))"
    assert repr(RationalWitt.of([1], [1, -2])) == (                  # its own __repr__
        "RationalWitt(Polynomial(1) / Polynomial(1 - 2*t))")
    with pytest.raises(AttributeError):
        w.trunc = 3
    with pytest.raises(ValueError):                          # __post_init__ still runs
        WittVector(3, (1,))
    with pytest.raises(TypeError):
        WittVector(2)
