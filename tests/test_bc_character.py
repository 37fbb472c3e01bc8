"""The Bost-Connes character psi, a test-only oracle for the Q/Z maps.

A Galois-invariant element of Z[Q/Z] is x = sum_d a_d P_d, where P_d is the
sum of the points of exact order d.  Its character psi(x) is the ghost
vector psi(x)_m = sum_r x_r exp(2 pi i m r) = sum_d a_d c_d(m), where
c_d(m) = mu(d/g) phi(d)/phi(d/g), g = gcd(d, m), is Ramanujan's sum.  So
psi is computed here from the orders of the points alone, with its own
mu and phi, and none of the library's Q/Z code.

psi is a ring map to ghost vectors; it takes sigma_n to the Frobenius F_n
and rho_n to the Verschiebung V_n, the Euler characteristic of a cyclic
action to its periodic-point counts, and the eigenvalue class of a matrix
to the ghosts of det(1 - tM)^(-1).
"""

import math
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from bcwitt import linalg  # noqa: E402
from bcwitt.arith import cyclotomic  # noqa: E402
from bcwitt.dynamical import spectral_euler  # noqa: E402
from bcwitt.endo import EndoObject, l_map  # noqa: E402
from bcwitt.equivariant import CyclicAction, euler_char, periodic_points  # noqa: E402
from bcwitt.qz import QZElement, rho, sigma  # noqa: E402

from builders import companion_rows  # noqa: E402

N = 24
LAWS = settings(max_examples=40, deadline=None, database=None)


def _factor(n: int) -> Counter:
    out, p = Counter(), 2
    while p * p <= n:
        while n % p == 0:
            out[p] += 1
            n //= p
        p += 1
    if n > 1:
        out[n] += 1
    return out


def _phi(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in _factor(n).items())


def _mu(n: int) -> int:
    f = _factor(n)
    return 0 if any(e > 1 for e in f.values()) else (-1) ** len(f)


def ramanujan(d: int, m: int) -> int:
    g = math.gcd(d, m)
    return _mu(d // g) * _phi(d) // _phi(d // g)


def psi(x: QZElement, trunc: int = N) -> list[int]:
    """Ghosts psi(x)_1 .. psi(x)_trunc of a Galois-invariant x."""
    a: dict[int, int] = {}
    count: Counter = Counter()
    for r, c in x.terms:
        d = r.denominator
        if a.setdefault(d, c) != c:
            raise ValueError(f"{x} is not Galois-invariant at order {d}")
        count[d] += 1
    if any(count[d] != _phi(d) for d in a):
        raise ValueError(f"{x} misses a point of some order")
    return [sum(ad * ramanujan(d, m) for d, ad in a.items()) for m in range(1, trunc + 1)]


def frobenius_ghosts(n: int, x: QZElement) -> list[int]:
    """F_n on ghosts: (F_n g)_m = g_(nm)."""
    g = psi(x, n * N)
    return [g[n * m - 1] for m in range(1, N + 1)]


def verschiebung_ghosts(n: int, x: QZElement) -> list[int]:
    """V_n on ghosts: (V_n g)_m = n g_(m/n) if n | m, else 0."""
    g = psi(x)
    return [n * g[m // n - 1] if m % n == 0 else 0 for m in range(1, N + 1)]


def galois_invariant(orders: dict[int, int]) -> QZElement:
    """sum_d orders[d] P_d, built point by point."""
    return QZElement.from_terms([(Fraction(j, d), a) for d, a in orders.items()
                                 for j in range(d) if math.gcd(j, d) == 1])


elements = st.dictionaries(st.integers(1, 30), st.integers(-3, 3), max_size=5).map(
    galois_invariant)
scales = st.integers(1, 6)


def _action(sizes: list[int], order: list[int], extra: int) -> CyclicAction:
    """Cycles of the given sizes on the points listed in order."""
    perm = [0] * len(order)
    start = 0
    for d in sizes:
        cycle = order[start:start + d]
        for i, s in enumerate(cycle):
            perm[s] = cycle[(i + 1) % d]
        start += d
    return CyclicAction.of(math.lcm(1, *sizes) * extra, perm)


actions = st.lists(st.integers(1, 12), max_size=6).flatmap(
    lambda sizes: st.builds(_action, st.just(sizes), st.permutations(range(sum(sizes))),
                            st.integers(1, 3)))


def _block_sum(indices: list[int]):
    mat = ()
    for m in indices:
        mat = linalg.block_diag(mat, linalg.as_matrix(companion_rows(cyclotomic(m))))
    return mat


block_sums = st.lists(st.integers(1, 30), min_size=1, max_size=4).filter(
    lambda ms: sum(map(_phi, ms)) <= 16).map(_block_sum)


def test_psi_reads_the_characters():
    # P_1 = e(0) has every character 1; P_2 = e(1/2) alternates; P_4 =
    # e(1/4) + e(3/4) is i^m + (-i)^m.
    assert psi(QZElement.e(0), 4) == [1, 1, 1, 1]
    assert psi(QZElement.e(Fraction(1, 2)), 4) == [-1, 1, -1, 1]
    assert psi(galois_invariant({4: 1}), 4) == [0, -2, 0, 2]
    with pytest.raises(ValueError):
        psi(QZElement.e(Fraction(1, 3)))


@LAWS
@given(elements, elements)
def test_psi_is_additive(x, y):
    assert psi(x + y) == [a + b for a, b in zip(psi(x), psi(y))]


@LAWS
@given(elements, elements)
def test_psi_is_multiplicative(x, y):
    assert psi(x * y) == [a * b for a, b in zip(psi(x), psi(y))]


@LAWS
@given(elements, scales)
def test_psi_takes_sigma_to_frobenius(x, n):
    assert psi(sigma(n, x)) == frobenius_ghosts(n, x)


@LAWS
@given(elements, scales)
def test_psi_takes_rho_to_verschiebung(x, n):
    assert psi(rho(n, x)) == verschiebung_ghosts(n, x)


@LAWS
@given(actions)
def test_psi_of_euler_char_counts_periodic_points(a):
    assert psi(euler_char(a)) == [len(periodic_points(a, m)) for m in range(1, N + 1)]


@LAWS
@given(block_sums)
def test_psi_of_spectral_euler_is_the_ghosts_of_l_map(mat):
    assert psi(spectral_euler(mat)) == list(l_map(EndoObject(mat)).ghosts(N).values)
