"""The group ring Z[Q/Z] and its Bost-Connes maps.

An element of the group ring is a finite map from points of Q/Z to nonzero
integer coefficients.  The ring product convolves exponents:
e(r) * e(s) = e(r + s mod 1).

Inside this module a point num/den of Q/Z is the int key (den, num) in
lowest terms with 0 <= num < den, reduced by one gcd, and sorting the keys
gives the canonical (denominator, numerator) order.  Fractions appear only
in ``QZElement.terms``: one Fraction(num, den) per distinct point of a
result, built from the canonical keys.

Every map reads its input's points through ``_point`` (``split``: its CRT
key) and hands its (key, coefficient) pairs to ``record._canonical``, so an
element built directly with repeated, unreduced or out-of-range points or
zero coefficients maps as its canonical form does.

The semigroup maps implemented here are

* ``sigma(n, .)``   the ring endomorphism e(r) -> e(n r),
* ``rho(n, .)``     the additive map e(r) -> sum of the n preimages of r
  under multiplication by n, namely e((r + j)/n) for j = 0..n-1,
* ``pi_n_times_n``  the integral representative n*pi_n = sum_{n r = 0} e(r).

They satisfy sigma_n o rho_n = n*id and rho_n o sigma_n = product with
n*pi_n.  Coefficients stay integers throughout: the only place the
rational idempotent pi_n would appear is through its integral multiple.

``split``/``unsplit`` realize, for a finite set F of primes, the tensor
decomposition of the group ring along Q/Z = (Q/Z)_F x (Q/Z)^F (denominator
F-smooth times denominator coprime to F), by CRT on denominators.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import _integer, _number, _numstr, _size
from .record import Record, _canonical


def qz(num: int, den: int = 1) -> Fraction:
    """A point of Q/Z: the reduced fraction num/den mod 1, in [0, 1)."""
    f = Fraction(num, den)
    return f - math.floor(f)


def _point(num: int, den: int) -> tuple[int, int]:
    """The key (den, num) of num/den mod 1 in lowest terms; den > 0."""
    g = math.gcd(num, den)
    den //= g
    return den, num // g % den


def _element(pairs: Iterable[tuple[tuple[int, int], int]]) -> "QZElement":
    """The canonical element of (key, coefficient) pairs."""
    return QZElement(tuple((Fraction(num, den), c) for (den, num), c in _canonical(pairs)))


def _primitive_points(orders: Mapping[int, int]) -> "QZElement":
    """Sum over d of orders[d] times the points of exact order d, j/d with
    gcd(j, d) = 1; the canonical order is that of d, then j."""
    return QZElement(tuple((Fraction(j, d), c) for d, c in _canonical(orders.items())
                           for j in range(d) if math.gcd(j, d) == 1))


class QZElement(Record):
    """Finite Z-linear combination of points of Q/Z, canonically ordered.

    The maps, ``coeff`` and ``is_zero`` read an element built directly from
    its pairs as its canonical form; ``==`` and ``hash`` compare the stored
    term tuples, which are equal for equal sums only in canonical form."""

    terms: tuple[tuple[Fraction, int], ...]

    @staticmethod
    def from_terms(terms: Mapping[Fraction, int] | Iterable[tuple[Fraction, int]]) -> "QZElement":
        items = terms.items() if isinstance(terms, Mapping) else terms
        return _element((_point(r.numerator, r.denominator), c) for r, c in items)

    @staticmethod
    def zero() -> "QZElement":
        return QZElement(())

    @staticmethod
    def e(r: Fraction | int, coeff: int = 1) -> "QZElement":
        """The basis element coeff * e(r)."""
        return QZElement.from_terms([(Fraction(r), coeff)])

    def coeff(self, r: Fraction) -> int:
        key = _point(r.numerator, r.denominator)
        return sum(c for s, c in self.terms if _point(s.numerator, s.denominator) == key)

    def is_zero(self) -> bool:
        return not _canonical((_point(r.numerator, r.denominator), c) for r, c in self.terms)

    def __add__(self, other: "QZElement") -> "QZElement":
        return QZElement.from_terms(self.terms + other.terms)

    def __neg__(self) -> "QZElement":
        return self * -1

    def __sub__(self, other: "QZElement") -> "QZElement":
        return self + (-other)

    def __mul__(self, other: "QZElement | int") -> "QZElement":
        if isinstance(other, int):
            return QZElement.from_terms((r, c * other) for r, c in self.terms)
        left = [(r.numerator, r.denominator, a) for r, a in self.terms]
        right = [(s.numerator, s.denominator, b) for s, b in other.terms]
        return _element((_point(rn * sd + sn * rd, rd * sd), a * b)
                        for rn, rd, a in left for sn, sd, b in right)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        if not self.terms:
            return "QZElement(0)"
        return "QZElement(" + " + ".join(f"{c}*e({r})" for r, c in self.terms) + ")"

    def to_json(self) -> dict:
        return {"terms": [{"r": _numstr(r), "c": c} for r, c in self.terms]}

    @staticmethod
    def from_json(data: dict) -> "QZElement":
        return QZElement.from_terms([(_number(t["r"]), _integer(t["c"])) for t in data["terms"]])


def sigma(n: int, a: QZElement) -> QZElement:
    """Ring endomorphism e(r) -> e(n r mod 1)."""
    _size("index", n)
    return _element((_point(n * r.numerator, r.denominator), c) for r, c in a.terms)


def rho(n: int, a: QZElement) -> QZElement:
    """Additive map e(r) -> sum over the n solutions of n r' = r."""
    _size("terms of a Q/Z element", _size("index", n) * len(a.terms))
    return _element((_point(r.numerator + j * r.denominator, n * r.denominator), c)
                    for r, c in a.terms for j in range(n))


def pi_n_times_n(n: int) -> QZElement:
    """The integral idempotent representative n*pi_n = sum_{n r = 0} e(r)."""
    return QZElement.from_terms({Fraction(j, n): 1 for j in range(_size("index", n))})


def _split_key(r: Fraction, primes: frozenset[int]) -> tuple[int, int, int, int]:
    """The key (den_F, num_F, den_cop, num_cop) of r = num_F/den_F +
    num_cop/den_cop (mod 1) by CRT; keys sort in the canonical order.  A
    trivial leg gets den 1 and num 0, since pow(b, -1, 1) == 0."""
    smooth, rest = 1, r.denominator
    for p in primes:
        while rest % p == 0:
            smooth *= p
            rest //= p
    return (smooth, r.numerator * pow(rest, -1, smooth) % smooth,
            rest, r.numerator * pow(smooth, -1, rest) % rest)


class SplitQZElement(Record):
    """Element of Z[(Q/Z)_F] (x) Z[(Q/Z)^F]: keys are (F-smooth, F-coprime) pairs."""

    primes: frozenset[int]
    terms: tuple[tuple[tuple[Fraction, Fraction], int], ...]

    def to_json(self) -> dict:
        return {
            "F": sorted(self.primes),
            "terms": [
                {"r_smooth": _numstr(rf), "r_coprime": _numstr(rc), "c": c}
                for (rf, rc), c in self.terms
            ],
        }


def split(primes: Iterable[int], a: QZElement) -> SplitQZElement:
    """Decompose each e(r) as e(r_F) (x) e(r^F) by CRT on the denominator."""
    from .arith import factorize

    fset = frozenset(primes)
    if not fset:
        raise ValueError("split needs a nonempty set of primes")
    if not all(factorize(_size("prime of a split", p)) == {p: 1} for p in fset):
        raise ValueError("split needs a set of primes")
    terms = _canonical((_split_key(r, fset), c) for r, c in a.terms)
    return SplitQZElement(fset, tuple(((Fraction(x, b_smooth), Fraction(y, b_cop)), c)
                                      for (b_smooth, x, b_cop, y), c in terms))


def unsplit(s: SplitQZElement) -> QZElement:
    """Inverse of split: multiply the two tensor legs back together."""
    return _element((_point(rf.numerator * rc.denominator + rc.numerator * rf.denominator,
                            rf.denominator * rc.denominator), c) for (rf, rc), c in s.terms)
