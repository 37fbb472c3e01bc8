"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every check is exact (integer/Fraction equality); the stated runtime
budgets are asserted as well.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from bcwitt.arith import Polynomial
from bcwitt.dynamical import (
    ToralMap,
    lefschetz_zeta_closed,
    lefschetz_zeta_series,
    spectral_euler,
    torified_dynamical_zeta,
    verschiebung_block,
)
from bcwitt.endo import EndoObject, direct_sum, endo_frobenius, endo_verschiebung, l_map, tensor
from bcwitt.equivariant import (
    CyclicAction,
    euler_char,
    periodic_points,
    sigma_action,
    verschiebung_action,
)
from bcwitt import linalg
from bcwitt.qz import QZElement, pi_n_times_n, qz, rho, sigma
from bcwitt.torified import LClass, TorifiedClass, euler_characteristic, f1m_points, l_to_t, t_to_l
from bcwitt.witt import (
    GhostVector,
    frobenius,
    ghost,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
    witt_scale,
    WittVector,
)
from bcwitt.zeta import f1_zeta, hw_quotient_check, q_to_1_limit, z1

from builders import (action_from_cycle_sizes, cyclotomic_companion, cyclotomic_multisets,
                      multisets_up_to)


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number} PASS ({elapsed:.2f}s): {description}")
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s"


M41_L = [1, 2, 6, 10, 14, 15, 16, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1]
M41_T = [192, 1632, 7468, 23370, 54320, 97643, 139008, 159082, 147653,
         111606, 68678, 34230, 13665, 4284, 1020, 174, 19, 1]


def test_criterion_1_moduli_space_golden():
    with criterion(1, "moduli-space class conversion and point counts", 1.0):
        cls = l_to_t(LClass.from_integer_coeffs(M41_L))
        assert list(cls.a) == M41_T
        assert f1m_points(cls, 1) == 864045
        assert f1m_points(cls, 2) == 383699680
        assert f1m_points(cls, 3) == 36177267945
        assert euler_characteristic(cls) == 192
        assert t_to_l(cls) == LClass.from_integer_coeffs(M41_L)


def _random_qz(rng, max_den=24, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        den = rng.randint(1, max_den)
        num = rng.randint(0, den - 1)
        key = qz(num, den)
        terms[key] = terms.get(key, 0) + rng.randint(-5, 5)
    return QZElement.from_terms(terms)


def test_criterion_2_bost_connes_relations():
    with criterion(2, "sigma/rho relations on 200 random group-ring elements", 5.0):
        rng = random.Random(2024)
        for _ in range(200):
            a = _random_qz(rng)
            for n in range(1, 13):
                assert sigma(n, rho(n, a)) == n * a
                assert rho(n, sigma(n, a)) == a * pi_n_times_n(n)


def test_criterion_3_witt_relations():
    with criterion(3, "Frobenius/Verschiebung laws at truncation 36 and ghost hom", 10.0):
        rng = random.Random(2025)
        N = 36
        for n in range(1, 7):
            for m in range(1, 7):
                w = WittVector.from_coeffs([rng.randint(-3, 3) for _ in range(N)])
                if N // (n * m) >= 1:
                    assert frobenius(n, frobenius(m, w)) == frobenius(n * m, w)
                assert verschiebung(n, verschiebung(m, w)) == verschiebung(n * m, w)
                fv = frobenius(n, verschiebung(n, w))
                assert fv == witt_scale(n, w).truncate(fv.trunc)
                if math.gcd(n, m) == 1:
                    assert frobenius(n, verschiebung(m, w)) == verschiebung(m, frobenius(n, w))
        for _ in range(100):
            a = WittVector.from_coeffs([rng.randint(-3, 3) for _ in range(N)])
            b = WittVector.from_coeffs([rng.randint(-3, 3) for _ in range(N)])
            assert ghost(witt_add(a, b)) == ghost(a) + ghost(b)
            assert ghost(witt_mul(a, b)) == ghost(a) * ghost(b)
            assert unghost(ghost(a)) == a  # injectivity via the exact inverse


def test_criterion_4_endomorphism_witt_bridge():
    with criterion(4, "l_map converts sum/tensor and commutes with F_n/V_n", 30.0):
        rng = random.Random(2026)
        N = 10
        for _ in range(100):
            da, db = rng.randint(1, 3), rng.randint(1, 3)
            a = EndoObject.of([[rng.randint(-3, 3) for _ in range(da)] for _ in range(da)])
            b = EndoObject.of([[rng.randint(-3, 3) for _ in range(db)] for _ in range(db)])
            ga = l_map(a).ghosts(N)
            gb = l_map(b).ghosts(N)
            assert l_map(direct_sum(a, b)).ghosts(N) == ga + gb
            assert l_map(tensor(a, b)).ghosts(N) == ga * gb
            n = rng.randint(1, 4)
            assert l_map(endo_frobenius(n, a)).ghosts(N // n) == \
                ghost(frobenius(n, l_map(a).expand(N)))
            assert l_map(endo_verschiebung(n, a)).ghosts(N) == \
                ghost(verschiebung(n, l_map(a).expand(N)))


def test_criterion_5_lefschetz_closed_form():
    with criterion(5, "closed form equals exp-series to t^24 on all companions", 30.0):
        count = 0
        for indices in cyclotomic_multisets(12, 6):
            f = cyclotomic_companion(*indices)
            assert lefschetz_zeta_closed(f).expand(24) == lefschetz_zeta_series(f, 24)
            count += 1
        assert count >= 100


def test_criterion_6_f1_hasse_weil_relation():
    with criterion(6, "Witt-quotient ghosts and the symbolic q->1 limit", 30.0):
        for q in (2, 3, 5):
            for k in range(5):
                quotient = hw_quotient_check(k, q, trunc=12)
                expected = tuple(((q**m - 1) // (q - 1)) ** k for m in range(1, 13))
                assert quotient.values == expected
        rng = random.Random(2027)
        trunc = 12
        for _ in range(50):
            c = TorifiedClass.of([rng.randint(0, 6) for _ in range(rng.randint(1, 6))])
            values = [Polynomial() for _ in range(trunc)]
            for k, a in enumerate(c.a):
                if a:
                    g = z1(k, "q", trunc)
                    values = [v + a * w for v, w in zip(values, g.values)]
            assembled = GhostVector.of(values)
            assert q_to_1_limit(assembled) == f1_zeta(c, trunc).ghost


def test_criterion_7_exponentiability():
    with criterion(7, "ghost additivity/multiplicativity for both zeta families", 30.0):
        rng = random.Random(2028)
        trunc = 20
        for _ in range(30):
            a = TorifiedClass.of([rng.randint(0, 6) for _ in range(rng.randint(1, 6))])
            b = TorifiedClass.of([rng.randint(0, 6) for _ in range(rng.randint(1, 6))])
            ga, gb = f1_zeta(a, trunc).ghost, f1_zeta(b, trunc).ghost
            assert f1_zeta(a + b, trunc).ghost == ga + gb
            assert f1_zeta(a * b, trunc).ghost == ga * gb
        for _ in range(20):
            f1 = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6]))
            f2 = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6]))
            g1 = ghost(lefschetz_zeta_series(f1, trunc))
            g2 = ghost(lefschetz_zeta_series(f2, trunc))
            union = torified_dynamical_zeta([f1, f2], trunc)
            assert ghost(union) == g1 + g2
            product = ToralMap.of(linalg.block_diag(f1.matrix, f2.matrix))
            assert ghost(lefschetz_zeta_series(product, trunc)) == g1 * g2


def _random_action(rng, max_level=8, max_size=10):
    level = rng.randint(1, max_level)
    choices = [d for d in range(1, level + 1) if level % d == 0]
    sizes = []
    while sum(sizes) < max_size and rng.random() < 0.8:
        d = rng.choice(choices)
        if sum(sizes) + d > max_size:
            break
        sizes.append(d)
    points = list(range(sum(sizes)))
    rng.shuffle(points)
    perm = [0] * len(points)
    idx = 0
    for d in sizes:
        cycle = points[idx:idx + d]
        for i, p in enumerate(cycle):
            perm[p] = cycle[(i + 1) % d]
        idx += d
    return CyclicAction.of(level, perm)


def test_criterion_8_equivariant_model():
    with criterion(8, "periodic-point identities exhaustively and Euler intertwining", 60.0):
        for level in range(1, 9):
            lengths = [d for d in range(1, level + 1) if level % d == 0]
            for sizes in multisets_up_to(lengths, 12):
                action = action_from_cycle_sizes(level, sizes)
                for n in range(1, 5):
                    shifted = sigma_action(n, action)
                    spread = verschiebung_action(n, action)
                    for k in range(1, 33):
                        assert periodic_points(shifted, k) == periodic_points(action, n * k)
                        pp = periodic_points(spread, k)
                        if k % n:
                            assert pp == frozenset()
                        else:
                            base = periodic_points(action, k // n)
                            assert pp == frozenset(
                                j * action.size + s for j in range(n) for s in base)
        rng = random.Random(2029)
        for _ in range(200):
            a = _random_action(rng)
            n = rng.randint(1, 6)
            assert euler_char(sigma_action(n, a)) == sigma(n, euler_char(a))
            assert euler_char(verschiebung_action(n, a)) == rho(n, euler_char(a))


def test_criterion_9_spectral_euler():
    with criterion(9, "spectral Euler characteristic intertwines powers and blocks", 30.0):
        for m in range(1, 13):
            f = cyclotomic_companion(m)
            base = spectral_euler(f)
            for n in range(1, 7):
                assert spectral_euler(linalg.mat_pow(f.matrix, n)) == sigma(n, base)
                assert spectral_euler(verschiebung_block(n, f)) == rho(n, base)
