import math
import random
from fractions import Fraction

import pytest

from bcwitt.arith import (
    Polynomial,
    _divisor_table,
    _factor_trials,
    cyclotomic,
    cyclotomic_factor,
    divisors,
    factorize,
    moebius,
    poly_gcd,
    totient,
)
from bcwitt.errors import LimitExceeded, NotQuasiUnipotent

from builders import typed


def test_moebius_values():
    assert moebius(1) == 1
    assert moebius(6) == 1  # two distinct primes, (-1)^2
    assert moebius(12) == 0  # divisible by 4
    assert moebius(30) == -1
    with pytest.raises(ValueError):
        moebius(0)


def test_totient_values():
    assert totient(1) == 1
    assert totient(4) == len([a for a in range(1, 4) if math.gcd(a, 4) == 1]) == 2
    assert totient(12) == len([a for a in range(1, 12) if math.gcd(a, 12) == 1]) == 4


def test_cyclotomic_small():
    assert cyclotomic(1) == Polynomial([-1, 1])
    # Oracle: divide t^4 - 1 by (t - 1)(t + 1).
    t4m1 = Polynomial([-1, 0, 0, 0, 1])
    assert cyclotomic(4) == t4m1.exact_div(Polynomial([-1, 1]) * Polynomial([1, 1]))
    assert cyclotomic(4) == Polynomial([1, 0, 1])
    # Oracle: divide t^6 - 1 by Phi_1 Phi_2 Phi_3.
    t6m1 = Polynomial([-1, 0, 0, 0, 0, 0, 1])
    assert cyclotomic(6) == t6m1.exact_div(cyclotomic(1) * cyclotomic(2) * cyclotomic(3))
    assert cyclotomic(6) == Polynomial([1, -1, 1])


def test_cyclotomic_degree_is_totient():
    for m in range(1, 65):
        assert cyclotomic(m).degree == totient(m)


def test_cyclotomic_product_is_tn_minus_1():
    for n in range(1, 257):
        prod = Polynomial([1])
        for d in divisors(n):
            prod = prod * cyclotomic(d)
        assert prod == Polynomial([-1] + [0] * (n - 1) + [1])


def test_cyclotomic_at_one():
    for m in range(1, 65):
        value = cyclotomic(m)(1)
        fac = factorize(m)
        if m == 1:
            assert value == 0
        elif len(fac) == 1:
            assert value == next(iter(fac))
        else:
            assert value == 1


def test_cyclotomic_factor_examples():
    assert cyclotomic_factor(Polynomial([1, 0, 1])) == [4]
    assert cyclotomic_factor(Polynomial([-1, 1]) ** 2) == [1, 1]
    with pytest.raises(NotQuasiUnipotent):
        cyclotomic_factor(Polynomial([-2, 0, 1]))


def test_cyclotomic_factor_sign():
    assert cyclotomic_factor(-(Polynomial([-1, 1]))) == [1]


def test_cyclotomic_factor_roundtrip_random():
    rng = random.Random(20240817)
    for _ in range(40):
        ms = []
        total = 0
        while True:
            m = rng.randint(1, 30)
            if total + totient(m) > 40:
                break
            ms.append(m)
            total += totient(m)
            if rng.random() < 0.3:
                break
        prod = Polynomial([1])
        for m in ms:
            prod = prod * cyclotomic(m)
        assert cyclotomic_factor(prod) == sorted(ms)


def _cyclotomic_factor_oracle(p):
    """The trial loop on Polynomial divmod, with no Phi_d(2) screen, as it ran
    before the (d, phi(d)) pairs were cached."""
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.coeffs[-1] == -1:
        p = -p
    if p.coeffs[-1] != 1:
        raise ValueError("cyclotomic_factor expects a polynomial monic up to sign")
    out = []
    for d in range(1, 2 * p.degree * p.degree + 2):
        if p.degree == 0:
            break
        if totient(d) > p.degree:
            continue
        while True:
            q, r = divmod(p, cyclotomic(d))
            if not r.is_zero():
                break
            out.append(d)
            p = q
    if p.degree > 0 or p.coeffs[0] != 1:
        raise NotQuasiUnipotent(f"non-cyclotomic factor of degree {p.degree} remains")
    return out


def test_cyclotomic_factor_matches_trial_loop():
    """Index list, NotQuasiUnipotent detail and ValueError text all equal the
    divmod loop's, on products of cyclotomics with multiplicity, either sign,
    times a non-cyclotomic, Fraction, t^n or non-monic factor."""
    rng = random.Random(20261018)

    def outcome(f, p):
        try:
            return f(p)
        except (NotQuasiUnipotent, ValueError) as exc:
            return type(exc), str(exc)

    polys = [Polynomial(), Polynomial([1]), Polynomial([-1]), Polynomial([2, 1]),
             Polynomial([-1, 1]), Polynomial([0, 0, 1]), Polynomial([1, 2])]
    for trial in range(300):
        p = Polynomial([rng.choice((-1, 1))])
        for _ in range(rng.randint(0, 6)):
            p = p * cyclotomic(rng.choice((1, 1, 2, 3, 4, 5, 6, 7, 9, 12, 15, 16, 30, 60)))
        other = (Polynomial([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))] + [1]),
                 Polynomial([Fraction(rng.randint(-3, 3), rng.randint(1, 4)), 1]),
                 Polynomial([0] * rng.randint(1, 3) + [1]),
                 Polynomial([rng.randint(-2, 2), rng.choice((2, 3))]),
                 Polynomial([1]))[trial % 5]
        polys.append(p * other)
    for p in polys:
        assert outcome(cyclotomic_factor, p) == outcome(_cyclotomic_factor_oracle, p)


def test_cyclotomic_factor_builds_no_polynomial_per_trial(monkeypatch):
    """Trial division runs on coefficient lists: with the cyclotomics cached,
    at most one Polynomial (the negation) is built however many trials run."""
    products = [Polynomial([-1]) * cyclotomic(1) ** 6 * cyclotomic(2) ** 4 * cyclotomic(12) ** 3,
                cyclotomic(3) * cyclotomic(5) ** 2 * Polynomial([2, 0, 0, 1]),
                cyclotomic(30) * cyclotomic(60) * cyclotomic(16) ** 2]

    def factor(p):
        try:
            return cyclotomic_factor(p)
        except NotQuasiUnipotent as exc:
            return str(exc)

    expected = [factor(p) for p in products]  # fills the caches
    assert expected[0] == [1] * 6 + [2] * 4 + [12] * 3
    built = []
    init, normal = Polynomial.__init__, Polynomial._normal.__func__
    monkeypatch.setattr(Polynomial, "__init__", lambda self, cs=(): built.append(1) or init(self, cs))
    monkeypatch.setattr(Polynomial, "_normal",
                        classmethod(lambda cls, cs: built.append(1) or normal(cls, cs)))
    for p, want in zip(products, expected):
        del built[:]
        assert factor(p) == want
        assert len(built) <= 1


def test_divisor_table_against_brute_force():
    """Divisors by a scan, phi by a gcd count, mu by a squarefree count of
    primes and Phi_r(1) as the value of the cyclotomic polynomial."""
    top = 2000
    phi = [0] + [sum(math.gcd(a, r) == 1 for a in range(1, r + 1)) for r in range(1, top + 1)]

    def mu(r):
        primes = [p for p in range(2, r + 1) if r % p == 0 and all(p % q for q in range(2, p))]
        return 0 if any(r % (p * p) == 0 for p in primes) else (-1) ** len(primes)

    rows = {r: (phi[r], mu(r), cyclotomic(r)(1)) for r in range(1, top + 1)}
    for n in range(1, top + 1):
        table = _divisor_table(n)
        assert list(table) == [r for r in range(1, n + 1) if n % r == 0]
        assert table == {r: rows[r] for r in table}


def test_divisors_moebius_totient_edges():
    for n in range(-3, 2001):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    for f in (moebius, totient, cyclotomic):
        for n in (0, -1, -12):
            with pytest.raises(ValueError):
                f(n)


def _factor_trials_oracle(deg, phis):
    """The trial list as it was built before the phi sieve: a totient per d
    (from phis), and Phi_d(2) as the Moebius product of the 2^e - 1."""
    out = []
    for d in range(1, 2 * deg * deg + 2):
        if phis[d] > deg:
            continue
        num = den = 1
        for e in divisors(d):
            if moebius(d // e) == 1:
                num *= (1 << e) - 1
            elif moebius(d // e) == -1:
                den *= (1 << e) - 1
        out.append((d, phis[d], num // den))
    return tuple(out)


def test_factor_trials_match_the_totient_scan():
    phis = {d: totient(d) for d in range(1, 2 * 60 * 60 + 2)}
    for deg in range(61):
        assert _factor_trials(deg) == _factor_trials_oracle(deg, phis)


def test_polynomial_arithmetic():
    p = Polynomial([1, 2, 3])
    q = Polynomial([0, 1])
    assert p * q == Polynomial([0, 1, 2, 3])
    assert (p - p).is_zero()
    assert p(2) == 1 + 4 + 12
    assert divmod(p * q + Polynomial([5]), p) == (q, Polynomial([5]))
    assert p.substitute_power(2) == Polynomial([1, 0, 2, 0, 3])
    assert Polynomial([2, 0, 1]).reversed() == Polynomial([1, 0, 2])


def test_reversal_edges():
    """The zero polynomial, padding past the degree, and the trailing zeros
    a factor t^v leaves, in value and in coefficient type."""
    half = Fraction(1, 2)
    assert Polynomial().reversed().coeffs == Polynomial().reversed(3).coeffs == ()
    assert Polynomial([half, 3]).reversed(3).coeffs == (0, 0, 3, half)
    assert Polynomial([0, 0, 1, half]).reversed().coeffs == (half, 1)
    assert Polynomial([0, 5]).reversed(4).coeffs == (0, 0, 0, 5)
    assert Polynomial([7]).reversed(0).coeffs == (7,)
    with pytest.raises(ValueError, match="reversal degree below actual degree"):
        Polynomial([1, 2, 3]).reversed(1)
    rng = random.Random(20261021)
    for _ in range(200):
        p = Polynomial([rng.choice((0, 0, 1, -2, half)) for _ in range(rng.randint(0, 7))])
        d = p.degree + rng.randint(0, 3)
        r = p.reversed(max(d, -1))
        assert r == Polynomial([p[d - k] for k in range(d + 1)])
        assert r.coeffs == Polynomial(r.coeffs).coeffs  # canonical: no trailing zero
        assert [type(c) for c in r.coeffs] == [type(c) for c in Polynomial(r.coeffs).coeffs]


def test_polynomial_powers_match_repeated_products():
    polys = [Polynomial(), Polynomial([-3]), Polynomial([1, 0, 0, 0, -2]),
             Polynomial([2, -1, 3, 5]), Polynomial([Fraction(1, 2), 0, Fraction(-2, 3)])]
    for p in polys:
        expected = Polynomial([1])
        for e in range(10):
            assert p**e == expected
            expected = expected * p
        with pytest.raises(ValueError):
            p ** -1


def test_power_degree_bound():
    """A power of degree past 2^15 raises LimitExceeded before any work; a
    monomial keeps the power at the bound cheap."""
    t = Polynomial([0, 1])
    assert t ** 2**15 == Polynomial([0] * 2**15 + [1])
    with pytest.raises(LimitExceeded) as exc:
        t ** (2**15 + 1)
    assert (exc.value.limit, exc.value.value) == (2**15, 2**15 + 1)
    assert str(exc.value) == "degree of a polynomial power: 32769 exceeds the limit 32768"
    with pytest.raises(LimitExceeded):
        Polynomial([1, 0, 1]) ** 99999999999
    assert Polynomial([3]) ** 40000 == Polynomial([3**40000])  # degree 0 at any power


def test_poly_gcd():
    a = Polynomial([-1, 1]) * Polynomial([1, 0, 1])
    b = Polynomial([-1, 1]) * Polynomial([1, 1])
    assert poly_gcd(a, b) == Polynomial([-1, 1])
    assert poly_gcd(a, Polynomial()).exact_div(Polynomial([-1, 1]) * Polynomial([1, 0, 1])).degree == 0
    assert poly_gcd(b, a * b) == poly_gcd(b, b)


def test_poly_gcd_matches_sympy():
    """The monic gcd over Q, in value and coefficient type (int where
    integral), with zero operands on either side or both, negative leads and
    Fraction coefficients."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(307)

    def rand_poly(max_degree):
        return Polynomial([Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 7)))
                           for _ in range(rng.randint(0, max_degree + 1))])

    def sympy_gcd(a, b):
        def to_sympy(p):
            return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(p.coeffs)] or [0], x, domain="QQ")
        g = to_sympy(a).gcd(to_sympy(b))
        if g.is_zero:
            return []
        return [int(c) if c.q == 1 else Fraction(int(c.p), int(c.q))
                for c in reversed(g.monic().all_coeffs())]

    cases = [(Polynomial(), Polynomial()), (Polynomial(), Polynomial([Fraction(1, 2), -3])),
             (Polynomial([4, 0, -2]), Polynomial())]
    for _ in range(300):
        a, b, common = rand_poly(4), rand_poly(4), rand_poly(3)
        if common and rng.random() < 0.7:
            a, b = a * common, b * common
        if rng.random() < 0.1:
            a = Polynomial()
        elif rng.random() < 0.1:
            b = Polynomial()
        cases.append((a, b))
    leads = set()
    for a, b in cases:
        leads.update(p.coeffs[-1] < 0 for p in (a, b) if p)
        assert typed(poly_gcd(a, b).coeffs) == typed(sympy_gcd(a, b))
    assert leads == {False, True}


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for m in range(1, 400):
        expected = sympy.cyclotomic_poly(m, x, polys=True).all_coeffs()[::-1]
        assert cyclotomic(m).coeffs == tuple(int(c) for c in expected)


def test_divmod_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(607)

    def coeff(rational):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5)) if rational else rng.randint(-9, 9)

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)] or [0], x, domain="QQ")

    for trial in range(200):
        rational, monic = trial % 2 == 1, trial % 4 < 2
        a = Polynomial([coeff(rational) for _ in range(rng.randint(0, 12))])
        b = Polynomial([coeff(rational) for _ in range(rng.randint(0, 5))] + [1])
        if not monic:
            b = b * rng.choice([2, -3, Fraction(5, 7)])
        q, r = divmod(a, b)
        sq, sr = sympy.div(to_sympy(a), to_sympy(b))
        assert to_sympy(q) == sq and to_sympy(r) == sr
        assert q * b + r == a
        if monic and a.is_integral() and b.is_integral():
            assert q.is_integral() and r.is_integral()


def test_powers_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(1901)

    def to_sympy(p):
        return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(p.coeffs)] or [0], x, domain="QQ")

    for trial in range(60):
        shift = [0] * rng.randint(0, 2)
        if trial % 2:
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                  for _ in range(rng.randint(1, 5))]
        else:
            cs = [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 8))]
        p, k = Polynomial(shift + cs), rng.randint(0, 40)
        assert to_sympy(p**k) == to_sympy(p) ** k
    assert to_sympy(Polynomial([1, 1]) ** 500) == sympy.Poly((x + 1) ** 500, x, domain="QQ")
