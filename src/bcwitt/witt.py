"""Big Witt vectors over Q with exact arithmetic.

A (truncated) Witt vector is the power series 1 + c_1 t + ... + c_N t^N,
stored as the list c_1..c_N of exact rationals.  Its ghost components N_m
are read off from t d/dt log Z(t) = sum N_m t^m, which gives the Newton
recursion

    m * c_m = N_m + sum_{j=1}^{m-1} N_j c_{m-j},

used in both directions (ghost <-> coefficients) in plain int/Fraction
arithmetic.  Rational input is first scaled by the homothety t -> E t
(Witt multiplication by the Teichmueller [E]; Hazewinkel, *Witt vectors,
Part 1*, arXiv:0804.3888, section 9), which multiplies c_m and N_m alike
by E^m: ``arith._clear`` picks the least E that makes the scaled values
integral, the loops run on them in Z, and ``arith._unclear`` divides by
E^m once per entry at the end.  The kernel pair owns that scale: ``_ghosts``
returns (E, [N_m E^m]), and ``_unghosts(F, v)`` takes ghosts v_m = N_m F^m
at any scale F (1 in ``unghost``, E_a E_b in ``witt_mul``, E^n in
``frobenius``) and first moves them by ``_rescale`` to the least scale, so no
Fraction is built between the two loops.  ``_unghosts`` keeps S c_m for a
common denominator S of its divisions by m, grown by the least factor that
makes an inexact one exact, and divides S out with E^m.  ``series_div`` runs
on the same homothety; ``series_mul`` does not, as a product has no powers of
its entries: it puts each side over the lcm of its denominators
(``arith._numerators``) and reduces each output once.  So a Fraction appears
mid-loop only for the part of a denominator that ``_clear`` leaves alone
(primes above 1000 after the first entry, or a cover past its bit cap), and
in ``series_mul`` on sides whose denominators are wider than
``arith._CLEAR_MAX_BITS`` bits per Fraction entry.  ``_ghosts`` stops the sum
at the last nonzero coefficient, so a polynomial padded to truncation N costs
O(N * degree).  The pair, the two series loops and ``arith._power_series`` are
the package's only Newton and series loops (the matrix layers reach them through
det(1 - t M)), beside those of ``arith.Polynomial``.  Each keeps its past
outputs newest first, so every inner sum is one ``sum(map(mul, coeffs, rev))``.

Operations follow the Witt dictionary: addition is the series product,
multiplication is pointwise on ghosts, the Teichmueller lift of a is the
geometric series 1/(1 - a t), Frobenius reindexes ghosts by n (shrinking
the truncation to floor(N/n)) and Verschiebung substitutes t -> t^n.

Rational Witt vectors are ratios num/den of polynomials with constant
term 1, the dense subring where zeta functions of interest live; they
expand exactly to truncated vectors, and their quotient (Witt subtraction)
stays rational.  Ghost vectors may also carry polynomial values (used for
a symbolic parameter q), in which case evaluation at q = 1 is literal
polynomial evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Sequence, Union

from .arith import (_CLEAR_MAX_BITS, Polynomial, _clear, _cover, _denominator, _norm_coeff,
                    _numerators, _power_series, _unclear, poly_gcd)
from .errors import (NotDivisible, TruncationTooSmall, _integer, _json_list, _number, _numstr,
                     _size)
from .record import Record

Scalar = Union[int, Fraction]
GhostValue = Union[int, Fraction, Polynomial]


class WittVector(Record):
    """1 + c_1 t + ... + c_N t^N with exact rational c_m."""

    trunc: int
    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.coeffs) != _size("truncation", self.trunc, ceiling=False):
            raise ValueError("coefficient list must have exactly trunc entries")

    @staticmethod
    def from_coeffs(coeffs: Sequence[Scalar], trunc: int | None = None) -> "WittVector":
        cs = [_norm_coeff(c if isinstance(c, (int, Fraction)) else Fraction(c)) for c in coeffs]
        n = len(cs) if trunc is None else trunc
        cs = (cs + [0] * n)[:n]
        return WittVector(n, tuple(cs))

    @staticmethod
    def one(trunc: int) -> "WittVector":
        """The Witt zero element: the constant series 1."""
        return WittVector(trunc, (0,) * trunc)

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def truncate(self, n: int) -> "WittVector":
        if n > self.trunc:
            raise TruncationTooSmall(f"cannot extend truncation {self.trunc} to {n}")
        return WittVector(n, self.coeffs[:n])

    def to_json(self) -> dict:
        return {"trunc": self.trunc, "coeffs": [_numstr(c) for c in self.coeffs]}

    @staticmethod
    def from_json(data: dict) -> "WittVector":
        trunc = _size("truncation", _integer(data["trunc"]))
        coeffs = _json_list(data["coeffs"], "coeffs")
        return WittVector.from_coeffs([_number(c) for c in coeffs], trunc)


class GhostVector(Record):
    """Ghost components N_1..N_N; values may be polynomials in a symbol q."""

    trunc: int
    values: tuple[GhostValue, ...]

    def __post_init__(self):
        if len(self.values) != self.trunc:
            raise ValueError("ghost list must have exactly trunc entries")

    @staticmethod
    def of(values: Sequence[GhostValue]) -> "GhostVector":
        return GhostVector(len(values), tuple(
            v if isinstance(v, Polynomial) else _norm_coeff(v) for v in values))

    def is_symbolic(self) -> bool:
        return any(isinstance(v, Polynomial) for v in self.values)

    def __add__(self, other: "GhostVector") -> "GhostVector":
        _match(self, other)
        return GhostVector.of([a + b for a, b in zip(self.values, other.values)])

    def __mul__(self, other: "GhostVector") -> "GhostVector":
        _match(self, other)
        return GhostVector.of([a * b for a, b in zip(self.values, other.values)])

    def scale(self, n: int) -> "GhostVector":
        return GhostVector.of([n * v for v in self.values])


def _match(a, b):
    if a.trunc != b.trunc:
        raise ValueError("truncations differ")


# ---------------------------------------------------------------- series ops

def _common_denominator(xs: Sequence[Scalar]) -> tuple[int, int]:
    """The lcm of the Fraction denominators in xs, and how many there are."""
    D, k = 1, 0
    for x in xs:
        if type(x) is Fraction:
            D = math.lcm(D, x.denominator)
            k += 1
    return D, k


def series_mul(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> list[Scalar]:
    """Product of 1 + sum a_m t^m and 1 + sum b_m t^m, coefficients 1..n.

    Each side goes over the lcm of its denominators, D_a and D_b, so the
    convolution runs on integer numerators and each output is reduced once
    by D_a D_b.  A denominator much wider than the entries that carry it
    (one 1/2^120, or a single huge prime power) would inflate every product
    of its side, so past _CLEAR_MAX_BITS bits per Fraction entry both sides
    stay in Fraction instead.
    """
    (da, ka), (db, kb) = _common_denominator(a), _common_denominator(b)
    if (da * db).bit_length() > _CLEAR_MAX_BITS * (ka + kb):
        da = db = 1
    a, b = (da, *_numerators(a, da)), (db, *_numerators(b, db))
    # rev is b_m, ..., b_0 at step m (0 past the end of b), pairing with a_0, a_1, ...
    rev = [db]
    out: list[Scalar] = []
    for m in range(1, n + 1):
        rev.insert(0, b[m] if m < len(b) else 0)
        out.append(_norm_coeff(sum(map(mul, a, rev))))
    return _unclear(out, 1, da * db)


def series_div(a: Sequence[Scalar], b: Sequence[Scalar], n: int) -> list[Scalar]:
    """Coefficients 1..n of (1 + sum a_m t^m) / (1 + sum b_m t^m)."""
    # b's cover starts at a's, so the second pass over a only scales.
    E, b = _clear(b, _cover(map(_denominator, a)))
    E, a = _clear(a, E)
    # rev holds the outputs newest first, down to the constant term 1.
    rev: list[Scalar] = [1]
    for m in range(1, n + 1):
        s = a[m - 1] if m <= len(a) else 0
        rev.insert(0, _norm_coeff(s - sum(map(mul, b, rev))))
    return _unclear(rev[-2::-1], E)


# ------------------------------------------------------------- ghost bridge

def _ghosts(c: Sequence[Scalar], trunc: int) -> tuple[int, list[Scalar]]:
    """(E, [N_m E^m]) for m = 1..trunc: the Newton recursion on c scaled by _clear."""
    deg = len(c)
    while deg and not c[deg - 1]:
        deg -= 1
    if not deg:  # the Witt zero, whose ghosts are all 0
        return 1, [0] * trunc
    E, c = _clear(c[:deg])
    rev: list[Scalar] = []          # N_{m-1}, ..., N_1
    for m in range(1, trunc + 1):
        s = m * c[m - 1] if m <= deg else 0
        rev.insert(0, _norm_coeff(s - sum(map(mul, c, rev))))
    return E, rev[::-1]


def _rescale(F: int, xs: Sequence[Scalar]) -> tuple[int, Sequence[Scalar]]:
    """_clear(_unclear(xs, F)) without the reduced values: one gcd per entry
    gives den(x_m / F^m), which divides F^m, so their cover E divides F."""
    if F == 1 or any(type(x) is Fraction for x in xs):
        return _clear(_unclear(xs, F))
    dens, Fm = [], 1
    for x in xs:
        Fm *= F
        dens.append(Fm // math.gcd(x, Fm))
    E = _cover(dens)
    return E, _unclear(xs, F // E)


def _unghosts(F: int, v: Sequence[Scalar]) -> Sequence[Scalar]:
    """The coefficients c_m whose ghosts N_m are v_m / F^m, for any scale F."""
    E, v = _rescale(F, v)
    # rev holds S c_{m-1}, ..., S c_1 (scaled by E^m); S grows by the least
    # factor that makes each inexact division by m exact.
    S = 1
    rev: list[Scalar] = []
    for m, x in enumerate(v, 1):
        s = S * x + sum(map(mul, v, rev))
        if type(s) is int:
            r = s % m
            if r:
                f = m // math.gcd(r, m)
                S *= f
                s *= f
                rev = [y * f for y in rev]
            rev.insert(0, s // m)
        else:
            rev.insert(0, _norm_coeff(Fraction(s, m)))
    return _unclear(rev[::-1], E, S)


def ghost(w: WittVector) -> GhostVector:
    """Ghost components via the Newton recursion; exact."""
    E, v = _ghosts(w.coeffs, w.trunc)
    return GhostVector(w.trunc, tuple(_unclear(v, E)))


def unghost(g: GhostVector) -> WittVector:
    """Series with the given ghost components (exp of the generating series)."""
    if g.is_symbolic():
        raise ValueError("cannot expand a symbolic ghost vector; take q -> value first")
    return WittVector(g.trunc, tuple(_unghosts(1, g.values)))


# ------------------------------------------------------------ ring structure

def witt_add(a: WittVector, b: WittVector) -> WittVector:
    """Witt sum = product of the underlying series."""
    _match(a, b)
    return WittVector(a.trunc, tuple(series_mul(a.coeffs, b.coeffs, a.trunc)))


def witt_neg(a: WittVector) -> WittVector:
    return WittVector(a.trunc, tuple(series_div((), a.coeffs, a.trunc)))


def witt_sub(a: WittVector, b: WittVector) -> WittVector:
    _match(a, b)
    return WittVector(a.trunc, tuple(series_div(a.coeffs, b.coeffs, a.trunc)))


def witt_mul(a: WittVector, b: WittVector) -> WittVector:
    """Witt product: pointwise on ghosts, then back."""
    _match(a, b)
    (Ea, ga), (Eb, gb) = _ghosts(a.coeffs, a.trunc), _ghosts(b.coeffs, b.trunc)
    return WittVector(a.trunc, tuple(_unghosts(Ea * Eb, list(map(mul, ga, gb)))))


def witt_scale(n: int, a: WittVector) -> WittVector:
    """n-fold Witt sum of a with itself: the series a^n (ghosts scale by n)."""
    E, c = _clear(a.coeffs)
    return WittVector(a.trunc, tuple(_unclear(_power_series((1, *c), n, a.trunc)[1:], E)))


def teichmuller(a: Scalar, trunc: int) -> WittVector:
    """[a] = 1/(1 - a t): coefficients a^m."""
    return WittVector.from_coeffs([Fraction(a) ** m for m in range(1, trunc + 1)])


def frobenius(n: int, w: WittVector) -> WittVector:
    """ghost(F_n w)_m = ghost(w)_{n m}; truncation shrinks to floor(N/n)."""
    m = w.trunc // _size("index", n)
    if m == 0:
        raise TruncationTooSmall(f"truncation {w.trunc} too small for Frobenius F_{n}")
    E, g = _ghosts(w.coeffs[:m * n], m * n)
    return WittVector(m, tuple(_unghosts(E**n, g[n - 1::n])))


def verschiebung(n: int, w: WittVector) -> WittVector:
    """V_n: P(t) -> P(t^n), keeping the stored truncation."""
    cs = [0] * w.trunc  # c_m becomes the coefficient of t^(m n)
    cs[n - 1::n] = w.coeffs[:w.trunc // _size("index", n)]
    return WittVector(w.trunc, tuple(cs))


# --------------------------------------------------------- rational vectors

class RationalWitt(Record):
    """num(t)/den(t) with constant terms 1 and gcd(num, den) = 1."""

    num: Polynomial
    den: Polynomial

    @staticmethod
    def of(num: Polynomial | Sequence[Scalar],
           den: Polynomial | Sequence[Scalar] = (1,)) -> "RationalWitt":
        """Build num/den, cancelling the gcd."""
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if num.is_zero() or den.is_zero() or num[0] != 1 or den[0] != 1:
            raise NotDivisible("rational Witt vectors need constant terms exactly 1")
        if num.degree > 0 and den.degree > 0:
            g = poly_gcd(num, den)
            if g.degree > 0:
                g = g * Fraction(1, Fraction(g[0]))  # normalize g(0) = 1
                num = num.exact_div(g)
                den = den.exact_div(g)
        return RationalWitt(num, den)

    @staticmethod
    def one() -> "RationalWitt":
        return RationalWitt.of([1])

    def expand(self, trunc: int) -> WittVector:
        """Exact series expansion mod t^(trunc+1)."""
        return WittVector(trunc, tuple(
            series_div(self.num.coeffs[1:], self.den.coeffs[1:], trunc)))

    def ghosts(self, trunc: int) -> GhostVector:
        """ghost(num) - ghost(den), since ghost sends products to sums."""
        num, den = (ghost(WittVector.from_coeffs(p.coeffs[1:], trunc)).values
                    for p in (self.num, self.den))
        return GhostVector.of([a - b for a, b in zip(num, den)])

    def witt_add(self, other: "RationalWitt") -> "RationalWitt":
        return RationalWitt.of(self.num * other.num, self.den * other.den)

    def witt_neg(self) -> "RationalWitt":
        return RationalWitt.of(self.den, self.num)

    def __repr__(self) -> str:
        return f"RationalWitt({self.num!r} / {self.den!r})"

    def to_json(self) -> dict:
        def side(p: Polynomial):
            return [c if isinstance(c, int) else _numstr(c) for c in p.coeffs]
        return {"num": side(self.num), "den": side(self.den)}

    @staticmethod
    def from_json(data: dict) -> "RationalWitt":
        def side(cs):
            return Polynomial([_number(c) for c in _json_list(cs, "num and den")])
        return RationalWitt.of(side(data["num"]), side(data.get("den", [1])))


def rational_div(p: RationalWitt, q: RationalWitt) -> RationalWitt:
    """Witt subtraction p -_W q, i.e. the series ratio p/q reduced.

    The unique S with S +_W q = p.  On ghosts this subtracts componentwise;
    the multiplicative Witt quotient (componentwise ghost division) is a
    different operation, provided by ghost_divide below.
    """
    return RationalWitt.of(p.num * q.den, p.den * q.num)


def ghost_divide(p: GhostVector, q: GhostVector) -> GhostVector:
    """Componentwise exact division of ghost vectors (Witt product quotient).

    Integer/rational entries must divide exactly in Z (or produce the exact
    rational); polynomial entries must divide without remainder.  While
    q - 1 divides both polynomials (both coefficient sums are 0), it is
    divided out of both by prefix sums, the series quotient by 1 - q, whose
    sign flips cancel; only what is left goes to the long division.
    """
    _match(p, q)
    out: list[GhostValue] = []
    for a, b in zip(p.values, q.values):
        if isinstance(a, Polynomial) or isinstance(b, Polynomial):
            pa = a if isinstance(a, Polynomial) else Polynomial([a])
            pb = b if isinstance(b, Polynomial) else Polynomial([b])
            xs, ys = pa.coeffs, pb.coeffs
            while xs and ys:  # the last prefix sum is the coefficient sum
                sx, sy = list(accumulate(xs)), list(accumulate(ys))
                if sx[-1] or sy[-1]:
                    break
                xs, ys = sx[:-1], sy[:-1]
            quot, rem = divmod(Polynomial(xs), Polynomial(ys))
            if not rem.is_zero():
                raise NotDivisible(f"polynomial ghost {pa!r} not divisible by {pb!r}")
            out.append(quot)
        else:
            if b == 0:
                raise NotDivisible("ghost division by zero component")
            quot = Fraction(a) / Fraction(b)
            if isinstance(a, int) and isinstance(b, int) and quot.denominator != 1:
                raise NotDivisible(f"ghost component {a} not divisible by {b}")
            out.append(_norm_coeff(quot))
    return GhostVector.of(out)
