"""Grothendieck classes of torified varieties.

A torified class is a polynomial in the torus class T = L - 1 with
nonnegative integer coefficients; the same class can be written in the
L-basis (Laurent polynomial in the Lefschetz class L), and conversion is
the exact substitution T = L - 1 / L = T + 1, a sum of powers of the
other basis element, each from ``arith._power_series``.  L-basis exponents
may be half-integers after a virtual-motive twist, so exponents are stored
doubled; plain classes have all-even internal keys.

The number of points over the degree-m extension of the one-element field
of sum a_k T^k is sum a_k m^k, with m = 1 counting the tori and the
constant coefficient a_0 the Euler characteristic.

Leveled classes pair a class with the level N of the cyclic quotient
through which a profinite action factors.  At this class level the
Bost-Connes sigma fixes a leveled class, so it needs no function here;
rho multiplies the class by n (the class of the n-point cycle) and the
level by n.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .arith import Polynomial
from .errors import (HalfTwistPresent, NotEffectivelyTorified, _integer, _json_list, _number,
                     _numstr, _size)
from .record import Record, _canonical


class TorifiedClass(Record):
    """sum a_k T^k with a_k nonnegative integers, ascending tuple."""

    a: tuple[int, ...]

    @staticmethod
    def of(coeffs: Sequence[int]) -> "TorifiedClass":
        cs = [int(c) for c in coeffs]
        if any(c < 0 for c in cs):
            raise ValueError("torified coefficients must be nonnegative")
        while cs and cs[-1] == 0:
            cs.pop()
        return TorifiedClass(tuple(cs))

    @staticmethod
    def zero() -> "TorifiedClass":
        return TorifiedClass(())

    @staticmethod
    def point() -> "TorifiedClass":
        return TorifiedClass((1,))

    @staticmethod
    def torus(dim: int = 1) -> "TorifiedClass":
        return TorifiedClass.of([0] * dim + [1])

    @property
    def degree(self) -> int:
        return len(self.a) - 1

    def coeff(self, k: int) -> int:
        return self.a[k] if 0 <= k < len(self.a) else 0

    def __add__(self, other: "TorifiedClass") -> "TorifiedClass":
        return TorifiedClass.of((Polynomial(self.a) + Polynomial(other.a)).coeffs)

    def __mul__(self, other: "TorifiedClass | int") -> "TorifiedClass":
        rhs = other if isinstance(other, int) else Polynomial(other.a)
        return TorifiedClass.of((Polynomial(self.a) * rhs).coeffs)

    __rmul__ = __mul__

    def to_json(self) -> dict:
        return {"T": list(self.a)}

    @staticmethod
    def from_json(data: dict) -> "TorifiedClass":
        return TorifiedClass.of([_integer(c) for c in _json_list(data["T"], "T")])


class LClass(Record):
    """Laurent polynomial in L with half-integer exponents allowed.

    Keys of ``c2`` are doubled exponents (so L^(1/2) is key 1), values are
    nonzero integers.
    """

    c2: tuple[tuple[int, int], ...]

    @staticmethod
    def from_doubled(items: Mapping[int, int] | Iterable[tuple[int, int]]) -> "LClass":
        return LClass(_canonical(items.items() if isinstance(items, Mapping) else items))

    @staticmethod
    def from_integer_coeffs(coeffs: Sequence[int]) -> "LClass":
        """Ascending integer-exponent coefficients c_0 + c_1 L + ..."""
        return LClass.from_doubled({2 * k: int(c) for k, c in enumerate(coeffs)})

    def has_half_twist(self) -> bool:
        return any(k % 2 for k, _ in self.c2)

    def shift(self, half_steps: int) -> "LClass":
        """Multiply by L^(half_steps/2)."""
        return LClass(tuple((k + half_steps, c) for k, c in self.c2))

    def __add__(self, other: "LClass") -> "LClass":
        return LClass.from_doubled(self.c2 + other.c2)

    def to_json(self) -> dict:
        return {"L": {_numstr(Fraction(k2, 2)): c for k2, c in self.c2}}

    @staticmethod
    def from_json(data: dict) -> "LClass":
        pairs = []
        for key, c in data["L"].items():
            f = _number(key) * 2
            if f.denominator != 1:
                raise ValueError(f"exponent {key} is not a half-integer")
            pairs.append((int(f), _integer(c)))
        return LClass.from_doubled(pairs)


def _expand(terms: Iterable[tuple[int, int | Polynomial]], base: Polynomial) -> Polynomial:
    """sum c base^j over the (j, c) pairs."""
    return sum((c * base**j for j, c in terms), Polynomial())


def _l_poly(c: TorifiedClass) -> Polynomial:
    """The L-basis coefficients e_j of c, as the polynomial sum e_j L^j."""
    return _expand(((k, a) for k, a in enumerate(c.a) if a), Polynomial([-1, 1]))  # T = L - 1


def t_to_l(c: TorifiedClass) -> LClass:
    """Substitute T = L - 1 exactly."""
    return LClass.from_integer_coeffs(_l_poly(c).coeffs)


def l_to_t(c: LClass) -> TorifiedClass:
    """Substitute L = T + 1; fails if the result leaves the effective cone."""
    if c.has_half_twist():
        raise HalfTwistPresent("cannot torify a class with half-integer twists")
    if any(k < 0 for k, _ in c.c2):
        raise NotEffectivelyTorified("negative powers of the Lefschetz class do not torify")
    out = list(_expand(((k2 // 2, coeff) for k2, coeff in c.c2), Polynomial([1, 1])).coeffs)
    if any(x < 0 for x in out):
        raise NotEffectivelyTorified(f"T-coefficients {out} have a negative entry")
    return TorifiedClass.of(out)


def f1m_points(c: TorifiedClass, m: int) -> int:
    """Point count over the m-th extension: sum a_k m^k."""
    _size("extension degree", m)
    return sum(a * m**k for k, a in enumerate(c.a))


def euler_characteristic(c: TorifiedClass) -> int:
    return c.coeff(0)


def bb_assemble(pieces: Iterable[tuple[TorifiedClass, int]]) -> TorifiedClass:
    """Assemble sum [Z_i] L^(d_i) in the T-basis: sum [Z_i] (T + 1)^(d_i)."""
    terms = [(_size("cell dimension", d), Polynomial(z.a)) for z, d in pieces]
    return TorifiedClass.of(_expand(terms, Polynomial([1, 1])).coeffs)  # L = T + 1


def virtual_motive(c: LClass, dim: int) -> LClass:
    """Twist by L^(-dim/2); the result may carry half-integer exponents."""
    if c.has_half_twist():
        raise HalfTwistPresent("virtual motive input must have integer exponents")
    return c.shift(-dim)


class LeveledClass(Record):
    cls: TorifiedClass
    level: int

    def __post_init__(self):
        _size("level", self.level)

    def to_json(self) -> dict:
        return {"class": self.cls.to_json(), "level": self.level}

    @staticmethod
    def from_json(data: dict) -> "LeveledClass":
        return LeveledClass(TorifiedClass.from_json(data["class"]), _integer(data["level"]))


def bc_rho(n: int, x: LeveledClass) -> LeveledClass:
    """Product with the n-point cycle: class times n, level times n."""
    return LeveledClass(x.cls * _size("index", n), x.level * n)
