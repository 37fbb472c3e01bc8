"""Zeta functions of torified classes and their Witt-ring relations.

For a class sum a_k T^k the one-element-field zeta function has ghost
components sum a_k m^k; its series form is the exponential of the
generating series, which generally has non-integral rational coefficients
even though every ghost is an integer, so the ghost vector is the primary
representation and every ring-homomorphism property is checked there.

The finite-field zeta is read off the L-basis.  Writing the class as
sum e_j L^j (the substitution T = L - 1 of ``torified.t_to_l``), counting
points over F_q sends L to the Teichmueller class of q, so the ghosts are
sum e_j q^(jm) and the zeta is prod (1 - q^j t)^(-e_j), rational with
integer exponents.  The parameter q may also be kept symbolic, in which
case each ghost is the L-polynomial with L -> q^m, and the q -> 1 limit is
literal evaluation at 1.

The bridge element Z0 = (1 - t)^(-(q-1)^k) is used through its ghosts
only, the constant (q-1)^k.  They divide the torus ghosts (q^m - 1)^k
componentwise, with quotient ghosts ((q^m - 1)/(q - 1))^k — the
point-counts of projective spaces — computed here by exact ghost division.
"""

from __future__ import annotations

from typing import Union

from .arith import Polynomial
from .errors import _size
from .torified import TorifiedClass, _l_poly, f1m_points
from .witt import GhostVector, RationalWitt, WittVector, ghost_divide, unghost
from .record import Record

QParam = Union[int, str]
_Q = Polynomial([0, 1])


def _require_symbolic(q: QParam) -> bool:
    if isinstance(q, int):
        _size("q", q)
        return False
    if q == "q":
        return True
    raise ValueError(f"q must be an integer >= 2 or 'q', not {q!r}")


def _q_value(q: QParam) -> int | Polynomial:
    """The integer q, or the polynomial q for symbolic q."""
    return _Q if _require_symbolic(q) else q


class F1Zeta(Record):
    ghost: GhostVector
    witt: WittVector


class HWZeta(Record):
    ghost: GhostVector
    rational: RationalWitt | None  # None when q is symbolic


def f1_zeta(c: TorifiedClass, trunc: int) -> F1Zeta:
    """Ghosts sum a_k m^k for m = 1..trunc, and the matching series."""
    _size("truncation", trunc)
    g = GhostVector.of([f1m_points(c, m) for m in range(1, trunc + 1)])
    return F1Zeta(g, unghost(g))


def polylog_rational(k: int) -> tuple[Polynomial, Polynomial]:
    """The rational function with series sum_m m^(k-1) t^m, for k >= 1.

    Returned as (num, den) with den = (1-t)^k: num has degree at most k, so
    it is den times the series sum_{m=1..k} m^(k-1) t^m cut after t^k.
    """
    den = Polynomial([1, -1]) ** _size("index", k)
    num = den * Polynomial([0, *(m ** (k - 1) for m in range(1, k + 1))])
    return Polynomial(num.coeffs[:k + 1]), den


def hw_zeta(c: TorifiedClass, q: QParam, trunc: int = 12) -> HWZeta:
    """Finite-field zeta from the L-basis c = sum e_j L^j.

    Ghosts are sum e_j q^(jm); for integer q the rational form is
    prod (1 - q^j t)^(-e_j).
    """
    symbolic = _require_symbolic(q)
    _size("truncation", trunc)
    e = _l_poly(c)
    g = GhostVector.of([e.substitute_power(m) if symbolic else e(q**m)
                        for m in range(1, trunc + 1)])
    if symbolic:
        return HWZeta(g, None)
    # The rational form has degree sum |e_j|, though each factor may be under the bound.
    _size("degree of a polynomial power", sum(map(abs, e.coeffs)))
    num = den = Polynomial([1])
    for j, ej in enumerate(e.coeffs):
        factor = Polynomial([1, -(q**j)]) ** abs(ej)
        if ej > 0:
            den = den * factor
        elif ej < 0:
            num = num * factor
    # Coprime already: the sides collect disjoint linear factors (q >= 2).
    return HWZeta(g, RationalWitt(num, den))


def z0(k: int, q: QParam, trunc: int = 12) -> GhostVector:
    """Ghosts of (1 - t)^(-(q-1)^k): the constant (q-1)^k, of degree k in q."""
    _size("degree of a polynomial power", _size("exponent", k))
    return GhostVector.of([(_q_value(q) - 1) ** k] * trunc)


def z1(k: int, q: QParam, trunc: int = 12) -> GhostVector:
    """Ghosts (1 + q + ... + q^(m-1))^k, the projective point-counts to the k."""
    _size("exponent", k)
    qv = _q_value(q)
    values, points = [], 0
    for _ in range(trunc):
        points = points * qv + 1
        values.append(points**k)
    return GhostVector.of(values)


def hw_quotient_check(k: int, q: QParam, trunc: int = 12) -> GhostVector:
    """Divide the torus zeta by z0 on ghosts and check the quotient is z1.

    This is the multiplicative Witt quotient (componentwise ghost
    division), not Witt subtraction.
    """
    qv = _q_value(q)
    divisor = z0(k, q, _size("truncation", trunc))
    # The torus ghosts (q^m - 1)^k of the class T^k have degree k m in q, integer q or not.
    _size("degree of a polynomial power", k * trunc)
    torus = GhostVector.of([(qv**m - 1) ** k for m in range(1, trunc + 1)])
    quotient = ghost_divide(torus, divisor)
    if quotient != z1(k, q, trunc):
        raise ArithmeticError("Witt quotient of the torus zeta does not match z1")
    return quotient


def q_to_1_limit(g: GhostVector) -> GhostVector:
    """Evaluate polynomial-in-q ghosts at q = 1 (exact, no numerics)."""
    return GhostVector.of([
        v(1) if isinstance(v, Polynomial) else v for v in g.values])
