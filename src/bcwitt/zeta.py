"""Zeta functions of torified classes and their Witt-ring relations.

For a class sum a_k T^k the one-element-field zeta function has ghost
components sum a_k m^k; its series form is the exponential of the
generating series, which generally has non-integral rational coefficients
even though every ghost is an integer, so the ghost vector is the primary
representation and every ring-homomorphism property is checked there.

The finite-field zeta of the same class has ghosts sum a_k (q^m - 1)^k and
is genuinely rational: collecting binomials turns it into a product of
factors (1 - q^j t) with integer exponents.  The parameter q may also be
kept symbolic, in which case ghosts are polynomials in q and the q -> 1
limit is literal evaluation at 1, landing back on the former ghosts.

The bridge elements are Z0 = (1 - t)^(-(q-1)^k), whose ghosts divide the
finite-field ghosts componentwise, with quotient ghosts
((q^m - 1)/(q - 1))^k — the point-counts of projective spaces — computed
here by exact ghost division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .arith import Polynomial, stirling2
from .torified import TorifiedClass, f1m_points
from .witt import GhostVector, RationalWitt, WittVector, ghost_divide, unghost

QParam = Union[int, str]
_Q = Polynomial([0, 1])


def _require_symbolic(q: QParam) -> bool:
    if isinstance(q, int):
        if q < 2:
            raise ValueError("finite-field cardinality must be >= 2")
        return False
    if q in ("q", "sym", "symbolic"):
        return True
    raise ValueError(f"q must be an integer >= 2 or symbolic, not {q!r}")


@dataclass(frozen=True)
class F1Zeta:
    source: TorifiedClass
    ghost: GhostVector
    witt: WittVector


@dataclass(frozen=True)
class HWZeta:
    source: TorifiedClass
    q: QParam
    ghost: GhostVector
    rational: RationalWitt | None  # None when q is symbolic


def f1_zeta(c: TorifiedClass, trunc: int) -> F1Zeta:
    """Ghosts sum a_k m^k for m = 1..trunc, and the matching series."""
    if trunc < 1:
        raise ValueError("truncation must be >= 1")
    g = GhostVector.of([f1m_points(c, m) for m in range(1, trunc + 1)])
    return F1Zeta(c, g, unghost(g))


def polylog_rational(k: int) -> tuple[Polynomial, Polynomial]:
    """The rational function with series sum_m m^(k-1) t^m, for k >= 1.

    Assembled from powers of u = t/(1-t) with Stirling-number weights:
    sum_{l=0}^{k-1} l! S(k, l+1) u^(l+1), returned as (num, den) with
    den = (1-t)^k.
    """
    if k < 1:
        raise ValueError("polylog_rational needs k >= 1")
    t = Polynomial([0, 1])
    one_minus_t = Polynomial([1, -1])
    num = Polynomial()
    fact = 1
    for ell in range(k):
        if ell:
            fact *= ell
        # l! S(k, l+1) t^(l+1) (1-t)^(k-l-1)
        num = num + fact * stirling2(k, ell + 1) * t ** (ell + 1) * one_minus_t ** (k - ell - 1)
    return num, one_minus_t**k


def _hw_exponents(c: TorifiedClass) -> dict[int, int]:
    """Exponent of (1 - q^j t)^(-1) in the finite-field zeta of the class."""
    out: dict[int, int] = {}
    for k, a in enumerate(c.a):
        if a == 0:
            continue
        for j in range(k + 1):
            out[j] = out.get(j, 0) + a * (-1) ** (k - j) * math.comb(k, j)
    return {j: e for j, e in out.items() if e != 0}


def hw_zeta(c: TorifiedClass, q: QParam, trunc: int = 12,
            with_rational: bool = True) -> HWZeta:
    """Finite-field zeta: ghosts sum a_k (q^m - 1)^k; rational for integer q.

    The rational form's factor multiplicities grow combinatorially with the
    class degree, so callers that only need ghosts (e.g. for product
    classes) can pass with_rational=False.
    """
    symbolic = _require_symbolic(q)
    if symbolic:
        values = []
        for m in range(1, trunc + 1):
            qm_minus_1 = Polynomial([-1] + [0] * (m - 1) + [1])
            values.append(sum((a * qm_minus_1**k for k, a in enumerate(c.a)
                               if a != 0), Polynomial()))
        return HWZeta(c, "q", GhostVector.of(values), None)
    rational = None
    if with_rational:
        num = Polynomial([1])
        den = Polynomial([1])
        for j, e in sorted(_hw_exponents(c).items()):
            factor = Polynomial([1, -(q**j)]) ** abs(e)
            if e > 0:
                den = den * factor
            else:
                num = num * factor
        # The two sides collect disjoint sets of linear factors.
        rational = RationalWitt.of(num, den, reduce=False)
    g = GhostVector.of([sum(a * (q**m - 1) ** k for k, a in enumerate(c.a))
                        for m in range(1, trunc + 1)])
    return HWZeta(c, q, g, rational)


def z0(k: int, q: QParam, trunc: int = 12) -> tuple[RationalWitt | None, GhostVector]:
    """(1 - t)^(-(q-1)^k): constant ghosts (q-1)^k; rational for integer q."""
    if k < 0:
        raise ValueError("z0 needs k >= 0")
    if _require_symbolic(q):
        value = (_Q - 1) ** k
        return None, GhostVector.of([value] * trunc)
    e = (q - 1) ** k
    rational = RationalWitt.of([1], Polynomial([1, -1]) ** e)
    return rational, GhostVector.of([e] * trunc)


def z1(k: int, q: QParam, trunc: int = 12) -> GhostVector:
    """Ghosts (1 + q + ... + q^(m-1))^k, the projective point-counts to the k."""
    if k < 0:
        raise ValueError("z1 needs k >= 0")
    if _require_symbolic(q):
        return GhostVector.of([Polynomial([1] * m) ** k for m in range(1, trunc + 1)])
    return GhostVector.of([sum(q**j for j in range(m)) ** k for m in range(1, trunc + 1)])


def hw_quotient_check(k: int, q: QParam, trunc: int = 12) -> GhostVector:
    """Divide the torus zeta by z0 on ghosts and check the quotient is z1.

    This is the multiplicative Witt quotient (componentwise ghost
    division), not Witt subtraction.
    """
    torus = TorifiedClass.of([0] * k + [1])
    hw = hw_zeta(torus, q, trunc)
    _, z0_ghost = z0(k, q, trunc)
    quotient = ghost_divide(hw.ghost, z0_ghost)
    expected = z1(k, q, trunc)
    if quotient != expected:
        raise ArithmeticError("Witt quotient of the torus zeta does not match z1")
    return quotient


def q_to_1_limit(g: GhostVector) -> GhostVector:
    """Evaluate polynomial-in-q ghosts at q = 1 (exact, no numerics)."""
    return GhostVector.of([
        v(1) if isinstance(v, Polynomial) else v for v in g.values])
