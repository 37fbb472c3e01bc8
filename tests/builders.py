"""Builders and oracles that several test files share.

pytest collects only ``test_*.py`` files, so this module holds no tests;
the test files import it from their own directory.
"""

from fractions import Fraction

from bcwitt import linalg
from bcwitt.arith import Polynomial, cyclotomic, totient
from bcwitt.dynamical import ToralMap
from bcwitt.equivariant import CyclicAction
from bcwitt.witt import GhostVector, WittVector, ghost, unghost


def companion_rows(p: Polynomial) -> list[list[int]]:
    """The rows of the companion matrix of a monic integer polynomial."""
    d = p.degree
    return [[int(i == j + 1) if j < d - 1 else -p.coeffs[i] for j in range(d)] for i in range(d)]


def cyclotomic_companion(*indices: int) -> ToralMap:
    """The companion map of prod Phi_m over the indices."""
    p = Polynomial([1])
    for m in indices:
        p = p * cyclotomic(m)
    return ToralMap.of(companion_rows(p))


def cyclotomic_multisets(max_index, max_degree):
    """All nonempty multisets of cyclotomic indices up to max_index with total
    degree <= max_degree, each as an ascending tuple."""
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


def multisets_up_to(lengths, max_total):
    """All multisets of the lengths with sum <= max_total, the empty one
    included, each as a tuple in the order of ``lengths``."""
    def rec(start, budget):
        yield ()
        for i in range(start, len(lengths)):
            d = lengths[i]
            if d <= budget:
                for rest in rec(i, budget - d):
                    yield (d,) + rest
    yield from rec(0, max_total)


def action_from_cycle_sizes(level, sizes):
    """The action of the given level whose cycles run over consecutive points,
    one cycle per size."""
    perm = []
    base = 0
    for d in sizes:
        perm.extend(base + (i + 1) % d for i in range(d))
        base += d
    return CyclicAction.of(level, perm)


def lefschetz_numbers_oracle(f, trunc):
    """det(I - M^n) as the n-th Witt Frobenius of det(1 - t M) at t = 1, from
    one ghost expansion of the characteristic series, for any map."""
    d = f.dim
    if d == 0:
        return [1] * trunc
    g = ghost(WittVector.from_coeffs(linalg.char_series(f.matrix).coeffs[1:], trunc * d)).values
    return [1 + sum(unghost(GhostVector.of(g[n - 1::n][:d])).coeffs)
            for n in range(1, trunc + 1)]


def typed(xs):
    """Each value with its type, so an int and an integral Fraction differ."""
    return [(type(x), x) for x in xs]


def norm(c):
    """An integral Fraction as an int; any other value unchanged."""
    return int(c) if isinstance(c, Fraction) and c.denominator == 1 else c
