import math
import random
from fractions import Fraction

import pytest

from bcwitt.arith import Polynomial, cyclotomic, totient
from bcwitt.dynamical import (
    LefschetzZeta,
    ToralMap,
    artin_mazur_series,
    lefschetz_numbers,
    lefschetz_zeta_closed,
    lefschetz_zeta_series,
    spectral_euler,
    torified_dynamical_zeta,
    verschiebung_block,
)
from bcwitt.errors import DegenerateIterate, NotQuasiUnipotent
from bcwitt import linalg
from bcwitt.qz import QZElement, rho, sigma
from bcwitt.witt import WittVector, ghost

ROT = ToralMap.of([[0, -1], [1, 0]])


def companion(p: Polynomial):
    """Companion matrix of a monic integer polynomial."""
    d = p.degree
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return ToralMap.of(rows)


def cyclotomic_companion(*indices):
    prod = Polynomial([1])
    for m in indices:
        prod = prod * cyclotomic(m)
    return companion(prod)


def test_lefschetz_numbers():
    assert lefschetz_numbers(ROT, 4) == [2, 4, 2, 0]
    assert lefschetz_numbers(ToralMap.of([[1]]), 5) == [0] * 5
    assert lefschetz_numbers(ToralMap.of([[-1]]), 4) == [2, 0, 2, 0]
    # The 0-torus: det of the empty matrix is 1 for every iterate.
    empty = ToralMap.of([])
    assert lefschetz_numbers(empty, 5) == [1] * 5
    assert lefschetz_zeta_series(empty, 4).coeffs == (1, 1, 1, 1)
    assert artin_mazur_series(empty, 4).coeffs == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        lefschetz_numbers(ROT, 0)
    # Degenerate iterates: the first n with det(I - M^n) = 0.
    for f, n in ((ROT, 4), (ToralMap.of([[1]]), 1), (cyclotomic_companion(3, 5), 3)):
        with pytest.raises(DegenerateIterate) as err:
            artin_mazur_series(f, 12)
        assert err.value.n == n


def test_lefschetz_numbers_match_power_determinants():
    rng = random.Random(211)
    for _ in range(20):
        d = rng.randint(1, 6)
        f = ToralMap.of([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        expected = []
        for n in range(1, 25):
            power = linalg.mat_pow(f.matrix, n)
            expected.append(linalg.det(tuple(tuple(int(i == j) - x for j, x in enumerate(row))
                                             for i, row in enumerate(power))))
        assert lefschetz_numbers(f, 24) == expected


def test_lefschetz_numbers_exterior_trace_oracle():
    rng = random.Random(101)
    for _ in range(15):
        d = rng.randint(1, 4)
        f = ToralMap.of([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        nums = lefschetz_numbers(f, 8)
        for n in range(1, 9):
            power = linalg.mat_pow(f.matrix, n)
            alt = sum((-1) ** k * linalg.exterior_trace(power, k) for k in range(d + 1))
            assert nums[n - 1] == alt


def test_lefschetz_zeta_series():
    assert lefschetz_zeta_series(ToralMap.of([[1]]), 6) == WittVector.one(6)
    # M = (-1): matches (1-t)^-2 (1-t^2) expanded.
    closed = LefschetzZeta.of({1: 2, 2: -1})
    assert lefschetz_zeta_series(ToralMap.of([[-1]]), 12) == closed.expand(12)
    assert ghost(lefschetz_zeta_series(ROT, 8)).values == (2, 4, 2, 0, 2, 4, 2, 0)


def test_lefschetz_zeta_closed_examples():
    z = lefschetz_zeta_closed(ROT)
    assert dict(z.exponents) == {1: 2, 2: 1, 4: -1}
    z = lefschetz_zeta_closed(ToralMap.of([[-1]]))
    assert dict(z.exponents) == {1: 2, 2: -1}
    z = lefschetz_zeta_closed(ToralMap.of([[1]]))
    assert z.exponents == ()


def test_lefschetz_closed_vs_series_companions():
    rng = random.Random(103)
    seen = 0
    for indices in _cyclotomic_multisets(max_index=12, max_degree=6):
        f = cyclotomic_companion(*indices)
        closed = lefschetz_zeta_closed(f)
        assert closed.expand(24) == lefschetz_zeta_series(f, 24)
        seen += 1
    assert seen > 100
    # A few random conjugates keep the check basis-independent.
    for _ in range(10):
        indices = rng.choice([(1, 2), (4,), (3, 1), (6, 2), (12,)])
        f = cyclotomic_companion(*indices)
        u = _random_unimodular(rng, f.dim)
        conj = linalg.mat_mul(linalg.mat_mul(u, f.matrix), _unimodular_inverse(u))
        g = ToralMap.of(conj)
        assert lefschetz_zeta_closed(g).expand(20) == lefschetz_zeta_series(g, 20)


def _cyclotomic_multisets(max_index, max_degree):
    """All multisets of cyclotomic indices with total degree <= max_degree."""
    def rec(start, budget):
        yield ()
        for m in range(start, max_index + 1):
            d = totient(m)
            if d <= budget:
                for rest in rec(m, budget - d):
                    yield (m,) + rest
    for ms in rec(1, max_degree):
        if ms:
            yield ms


def _random_unimodular(rng, d):
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            c = rng.choice([-1, 1])
            for k in range(d):
                u[i][k] += c * u[j][k]
    return linalg.as_matrix(u)


def _unimodular_inverse(u):
    d = len(u)
    aug = [[Fraction(u[i][j]) for j in range(d)] + [Fraction(int(i == j)) for j in range(d)]
           for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return linalg.as_matrix([[int(aug[i][d + j]) for j in range(d)] for i in range(d)])


def test_artin_mazur():
    doubling = ToralMap.of([[2]])
    assert ghost(artin_mazur_series(doubling, 5)).values == (1, 3, 7, 15, 31)
    with pytest.raises(DegenerateIterate) as err:
        artin_mazur_series(ToralMap.of([[-1]]), 4)
    assert err.value.n == 2
    collapse = ToralMap.of([[0]])
    assert artin_mazur_series(collapse, 5).coeffs == (1, 1, 1, 1, 1)


def test_torified_dynamical_zeta():
    single = torified_dynamical_zeta([ROT], 8)
    assert single == lefschetz_zeta_series(ROT, 8)
    pair = torified_dynamical_zeta([ToralMap.of([[-1]]), ToralMap.of([[-1]])], 8)
    assert ghost(pair).values == (4, 0, 4, 0, 4, 0, 4, 0)
    with pytest.raises(ValueError):
        torified_dynamical_zeta([ROT], 8, kind="other")


def test_dynamical_exponentiability():
    rng = random.Random(107)
    for _ in range(12):
        f1 = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6]))
        f2 = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6]))
        n = 20
        # Disjoint union: ghosts add.
        union = torified_dynamical_zeta([f1, f2], n)
        g1 = ghost(lefschetz_zeta_series(f1, n))
        g2 = ghost(lefschetz_zeta_series(f2, n))
        assert ghost(union) == g1 + g2
        # Cartesian product: block sum on homology, ghosts multiply.
        product = ToralMap.of(linalg.block_diag(f1.matrix, f2.matrix))
        assert ghost(lefschetz_zeta_series(product, n)) == g1 * g2


def test_spectral_euler():
    assert spectral_euler(ROT) == QZElement.e(Fraction(1, 4)) + QZElement.e(Fraction(3, 4))
    assert spectral_euler(ToralMap.of([[1, 0], [0, 1]])) == QZElement.e(0, 2)
    sq = linalg.mat_pow(ROT.matrix, 2)
    assert spectral_euler(sq) == sigma(2, spectral_euler(ROT))
    assert spectral_euler(sq) == QZElement.e(Fraction(1, 2), 2)
    with pytest.raises(NotQuasiUnipotent):
        spectral_euler(ToralMap.of([[2]]))


def test_spectral_euler_frobenius_compat():
    for m in range(1, 13):
        f = cyclotomic_companion(m)
        base = spectral_euler(f)
        for n in range(1, 7):
            assert spectral_euler(linalg.mat_pow(f.matrix, n)) == sigma(n, base)


def test_spectral_euler_verschiebung_compat():
    for m in (1, 2, 3, 4, 6, 8, 12):
        f = cyclotomic_companion(m)
        base = spectral_euler(f)
        for n in range(1, 5):
            block = verschiebung_block(n, f)
            assert spectral_euler(block) == rho(n, base)


def test_verschiebung_block_power():
    f = cyclotomic_companion(4)
    block = verschiebung_block(3, f)
    cube = linalg.mat_pow(block, 3)
    assert cube == linalg.block_diag(f.matrix, linalg.block_diag(f.matrix, f.matrix))
