import math
import random
from fractions import Fraction

import pytest

from bcwitt.qz import QZElement, pi_n_times_n, qz, rho, sigma, split, unsplit

e = QZElement.e


def random_element(rng, max_den=24, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        den = rng.randint(1, max_den)
        num = rng.randint(0, den - 1)
        terms[qz(num, den)] = terms.get(qz(num, den), 0) + rng.randint(-5, 5)
    return QZElement.from_terms(terms)


def test_group_ring_products():
    assert e(Fraction(1, 3)) * e(Fraction(1, 3)) == e(Fraction(2, 3))
    assert e(Fraction(1, 2)) * e(Fraction(1, 2)) == e(0)
    a = e(0) + e(Fraction(1, 2))
    b = e(0) - e(Fraction(1, 2))
    assert (a * b).is_zero()  # expands to e(0) - e(0) + e(1/2) - e(1/2)


def test_sigma_examples():
    assert sigma(2, e(Fraction(1, 3))) == e(Fraction(2, 3))
    assert sigma(3, e(Fraction(1, 3))) == e(0)
    assert sigma(2, e(Fraction(1, 6)) + e(Fraction(2, 3))) == e(Fraction(1, 3), 2)


def test_rho_examples():
    # Preimages of 1/3 under doubling: r' in {1/6, 2/3}.
    assert rho(2, e(Fraction(1, 3))) == e(Fraction(1, 6)) + e(Fraction(2, 3))
    assert rho(2, e(0)) == e(0) + e(Fraction(1, 2))
    assert rho(3, e(0)) == e(0) + e(Fraction(1, 3)) + e(Fraction(2, 3))


def test_pi_n_times_n():
    assert pi_n_times_n(1) == e(0)
    assert pi_n_times_n(2) == e(0) + e(Fraction(1, 2))
    assert pi_n_times_n(4) == sum(
        (e(Fraction(j, 4)) for j in range(1, 4)), e(0))


def test_pi_idempotent_integrally():
    for n in range(1, 9):
        p = pi_n_times_n(n)
        assert p * p == n * p


def test_sigma_rho_relations_random():
    rng = random.Random(7)
    for _ in range(60):
        a = random_element(rng)
        n = rng.randint(1, 12)
        assert sigma(n, rho(n, a)) == n * a
        assert rho(n, sigma(n, a)) == a * pi_n_times_n(n)


def test_maps_sum_repeated_points():
    """An element built directly with a repeated point maps as its canonical
    form: rho lists each preimage once, with the summed coefficient."""
    got = rho(2, QZElement(((Fraction(1, 2), 1), (Fraction(1, 2), 1))))
    assert got == 2 * e(Fraction(1, 4)) + 2 * e(Fraction(3, 4))
    assert got.terms == ((Fraction(1, 4), 2), (Fraction(3, 4), 2))
    odd = QZElement(((Fraction(5, 2), 1), (0, 0), (Fraction(-1, 3), 2), (Fraction(1, 2), 3)))
    canon = QZElement.from_terms(odd.terms)
    assert canon.terms == ((Fraction(1, 2), 4), (Fraction(2, 3), 2))
    for n in (1, 2, 3, 6):
        assert sigma(n, odd) == sigma(n, canon)
        assert rho(n, odd) == rho(n, canon)
    assert split({2}, odd) == split({2}, canon)
    assert odd + QZElement.zero() == odd * 1 == canon


def test_semigroup_laws():
    rng = random.Random(11)
    for _ in range(20):
        a = random_element(rng, max_den=12)
        n, m = rng.randint(1, 8), rng.randint(1, 8)
        assert sigma(n, sigma(m, a)) == sigma(n * m, a)
        assert rho(n, rho(m, a)) == rho(n * m, a)


def test_sigma_is_ring_hom():
    rng = random.Random(13)
    for _ in range(20):
        a, b = random_element(rng, 12), random_element(rng, 12)
        n = rng.randint(1, 9)
        assert sigma(n, a * b) == sigma(n, a) * sigma(n, b)
        assert sigma(n, a + b) == sigma(n, a) + sigma(n, b)


def test_rho_additive_and_projection_formula():
    rng = random.Random(17)
    for _ in range(20):
        a, b = random_element(rng, 12), random_element(rng, 12)
        n = rng.randint(1, 9)
        assert rho(n, a + b) == rho(n, a) + rho(n, b)
        # a * rho_n(b) = rho_n(sigma_n(a) * b)
        assert a * rho(n, b) == rho(n, sigma(n, a) * b)


def test_split_examples():
    s = split({2}, e(Fraction(5, 12)))
    assert s.terms == (((Fraction(3, 4), Fraction(2, 3)), 1),)
    s = split({2}, e(Fraction(1, 3)))
    assert s.terms == (((Fraction(0), Fraction(1, 3)), 1),)
    s = split({2, 3}, e(Fraction(5, 12)))
    assert s.terms == (((Fraction(5, 12), Fraction(0)), 1),)


def test_split_unsplit_roundtrip():
    rng = random.Random(19)
    for fset in ({2}, {3}, {2, 3}, {2, 5}):
        for _ in range(25):
            a = random_element(rng)
            assert unsplit(split(fset, a)) == a


def test_split_needs_primes():
    with pytest.raises(ValueError):
        split(set(), e(0))


def test_json_roundtrip():
    a = e(Fraction(1, 3), 2) - e(Fraction(5, 7), 3) + e(0)
    assert QZElement.from_json(a.to_json()) == a
    assert a.to_json()["terms"][0]["r"] == "0"


# ------------------------------------------------ Fraction-keyed oracles
# The group-ring maps on Fraction keys: every point built by qz() and summed
# in a dict keyed by Fraction, then sorted by (denominator, numerator).

def _canon_oracle(acc):
    items = [(r, c) for r, c in acc.items() if c != 0]
    items.sort(key=lambda rc: (rc[0].denominator, rc[0].numerator))
    return tuple(items)


def _from_terms_oracle(items):
    acc = {}
    for r, c in items:
        r = qz(r.numerator, r.denominator)
        acc[r] = acc.get(r, 0) + c
    return _canon_oracle(acc)


def _sigma_oracle(n, terms):
    return _from_terms_oracle([(qz(n * r.numerator, r.denominator), c) for r, c in terms])


def _rho_oracle(n, terms):
    acc = {}
    for r, c in terms:
        for j in range(n):
            key = qz(r.numerator + j * r.denominator, n * r.denominator)
            acc[key] = acc.get(key, 0) + c
    return _canon_oracle(acc)


def _add_oracle(a, b):
    acc = dict(a)
    for r, c in b:
        acc[r] = acc.get(r, 0) + c
    return _canon_oracle(acc)


def _mul_oracle(a, b):
    acc = {}
    for r, x in a:
        for s, y in b:
            key = qz((r + s).numerator, (r + s).denominator)
            acc[key] = acc.get(key, 0) + x * y
    return _canon_oracle(acc)


def _unsplit_oracle(terms):
    acc = {}
    for (rf, rc), c in terms:
        r = qz((rf + rc).numerator, (rf + rc).denominator)
        acc[r] = acc.get(r, 0) + c
    return _canon_oracle(acc)


def _split_oracle(fset, terms):
    """Fraction-keyed split: each leg a Fraction, sorted on (den, num) of
    the smooth leg, then of the coprime leg."""
    acc = {}
    for r, c in terms:
        smooth, cop = 1, r.denominator
        for p in fset:
            while cop % p == 0:
                smooth, cop = smooth * p, cop // p
        if smooth == 1:
            key = (Fraction(0), r)
        elif cop == 1:
            key = (r, Fraction(0))
        else:
            key = (Fraction(r.numerator * pow(cop, -1, smooth) % smooth, smooth),
                   Fraction(r.numerator * pow(smooth, -1, cop) % cop, cop))
        acc[key] = acc.get(key, 0) + c
    items = [(k, c) for k, c in acc.items() if c]
    items.sort(key=lambda kc: (kc[0][0].denominator, kc[0][0].numerator,
                               kc[0][1].denominator, kc[0][1].numerator))
    return tuple(items)


def _euler_char_oracle(action):
    acc = {}
    for orbit in action.orbits():
        d = len(orbit)
        for j in range(d):
            r = Fraction(j, d)
            acc[r] = acc.get(r, 0) + 1
    return _from_terms_oracle(acc.items())


def _typed(terms):
    return [(type(r), r, type(c), c) for r, c in terms]


def _raw_terms(rng, max_den=10**6):
    """Unreduced points, negative or >= 1, some of them equal mod 1 with
    coefficients that cancel."""
    items = []
    for _ in range(rng.randint(0, 8)):
        den = rng.choice((rng.randint(1, 12), rng.randint(1, max_den)))
        num = rng.randint(-5 * den, 5 * den)
        c = rng.randint(-3, 3)
        items.append((Fraction(num, den), c))
        if rng.random() < 0.3:
            items.append((Fraction(num + rng.randint(-3, 3) * den, den), -c))
    return items


def test_from_terms_matches_fraction_keyed_oracle():
    rng = random.Random(23)
    for _ in range(300):
        items = _raw_terms(rng)
        assert _typed(QZElement.from_terms(items).terms) == _typed(_from_terms_oracle(items))
        as_map = dict(items)
        assert _typed(QZElement.from_terms(as_map).terms) == _typed(
            _from_terms_oracle(as_map.items()))
    assert QZElement.from_terms([(Fraction(5, 2), 1), (Fraction(-1, 2), -1)]).is_zero()


def test_ring_maps_match_fraction_keyed_oracle():
    rng = random.Random(29)
    for _ in range(200):
        a = QZElement.from_terms(_raw_terms(rng))
        b = QZElement.from_terms(_raw_terms(rng))
        n = rng.randint(1, 12)
        assert _typed(sigma(n, a).terms) == _typed(_sigma_oracle(n, a.terms))
        assert _typed(rho(n, a).terms) == _typed(_rho_oracle(n, a.terms))
        assert _typed((a + b).terms) == _typed(_add_oracle(a.terms, b.terms))
        assert _typed((a - b).terms) == _typed(
            _add_oracle(a.terms, tuple((r, -c) for r, c in b.terms)))
        assert _typed((a * b).terms) == _typed(_mul_oracle(a.terms, b.terms))
        k = rng.randint(-3, 3)
        assert _typed((a * k).terms) == _typed(_canon_oracle({r: c * k for r, c in a.terms}))
        assert (a - a).is_zero() and (a * 0).is_zero()
        for fset in ({2}, {3}, {2, 3}, {5, 7}):
            s = split(fset, a)
            assert _typed(unsplit(s).terms) == _typed(_unsplit_oracle(s.terms))
    # Products whose terms cancel: (e(0) + e(1/2)) (e(0) - e(1/2)) = 0.
    half = e(Fraction(1, 2))
    assert ((e(0) + half) * (e(0) - half)).terms == _mul_oracle(
        (e(0) + half).terms, (e(0) - half).terms) == ()


def test_split_matches_fraction_keyed_oracle():
    rng = random.Random(31)
    smooth = (1, 2, 3, 4, 6, 9, 12, 5, 7, 35, 11, 2**10, 3**6)
    for _ in range(200):
        items = _raw_terms(rng)
        for _ in range(rng.randint(0, 4)):
            den = rng.choice(smooth)
            den *= rng.randint(1, 10**6 // den)
            items.append((Fraction(rng.randint(0, den - 1), den), rng.randint(-3, 3)))
        a = QZElement.from_terms(items)
        for fset in ({2}, {3}, {2, 3}, {5, 7}, {2, 3, 5, 7, 11}):
            got = split(fset, a).terms
            assert [(type(rf), rf, type(rc), rc, type(c), c) for (rf, rc), c in got] == [
                (type(rf), rf, type(rc), rc, type(c), c)
                for (rf, rc), c in _split_oracle(fset, a.terms)]


def test_euler_char_matches_fraction_keyed_oracle():
    from bcwitt.equivariant import CyclicAction, euler_char, verschiebung_action

    rng = random.Random(31)
    for _ in range(60):
        sizes = [rng.randint(1, 60) for _ in range(rng.randint(1, 5))]
        points = list(range(sum(sizes)))
        rng.shuffle(points)
        perm, off = [0] * len(points), 0
        for s in sizes:
            cycle = points[off:off + s]
            for i, x in enumerate(cycle):
                perm[x] = cycle[(i + 1) % s]
            off += s
        a = CyclicAction.of(math.lcm(*sizes), perm)
        for action in (a, verschiebung_action(rng.randint(2, 5), a)):
            assert _typed(euler_char(action).terms) == _typed(_euler_char_oracle(action))
    assert euler_char(CyclicAction.trivial(1, 0)).is_zero()
