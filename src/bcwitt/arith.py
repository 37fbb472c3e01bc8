"""Exact number-theoretic and polynomial primitives.

Conventions used throughout the package:

* Rationals are ``fractions.Fraction`` values (always reduced, positive
  denominator), so canonical equality is free.
* A polynomial is a dense ascending coefficient list, constant term first,
  wrapped in :class:`Polynomial`.  Coefficients are ints or Fractions; a
  Fraction that reduces to an integer is stored as an int, so polynomials
  that happen to be integral compare equal to integer polynomials and
  serialize as plain integer lists.
* The zero polynomial has an empty coefficient tuple and degree -1.

``_divisor_table`` alone decides phi, mu and Phi_r(1).  Cyclotomic factoring
is by repeated trial division, smallest index first, on coefficient lists in
``_divide``, the one long-division loop (``Polynomial``'s divmod wraps it);
its trial list sieves phi in one pass.
``_power_series`` is the one power kernel: polynomial powers, ``witt_scale``
and the T/L basis substitutions of ``torified`` all run through it.
``_numerators`` is the one common-denominator step (x * D as ints):
``_primitive_int`` and ``witt.series_mul`` use it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from operator import attrgetter, mul
from typing import Iterable, Sequence, Union

from .errors import NotQuasiUnipotent, _size

Coeff = Union[int, Fraction]


def _norm_coeff(c: Coeff) -> Coeff:
    # Fraction's isinstance check goes through ABCMeta; the exact type
    # test is several times cheaper and runs on every coefficient built.
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


# Many primes each needed to a low power late in a vector (1/m, 1/m!) make
# the least cover their primorial, and x_m E^m then outgrows the
# denominators the Fraction path carries: 1/m at N = 120 needs E ~ 2^155
# and ran 6x slower.  No such E is taken.
_CLEAR_MAX_BITS = 64


@lru_cache(maxsize=None)
def _small_primes() -> tuple[tuple[int, ...], int]:
    """The primes below 1000 and their product (built on first use, not at
    import, which every CLI call pays)."""
    ps = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))
    return ps, math.prod(ps)


def _least_cover(r: int, m: int) -> int:
    """Least f with p^v | f^m for every p^v || r with p < 1000."""
    primes, primorial = _small_primes()
    g = math.gcd(r, primorial)
    f = 1
    for p in primes:
        if g == 1:
            break
        if not g % p:
            g //= p
            v = 0
            while not r % p:
                r //= p
                v += 1
            f *= p ** -(-v // m)
    return f


_denominator = attrgetter("denominator")  # 1 for an int


def _cover(dens: Iterable[int], E: int = 1) -> int:
    """The least E from the given start with d_m | E^m for 1000-smooth d_m.

    When d_m does not divide E^m, E grows by the least f that makes the
    p-part of the residual divide (E f)^m for every prime p < 1000, and by
    the whole residual at m = 1.  Past _CLEAR_MAX_BITS bits, the start
    comes back instead."""
    E0, Em = E, 1
    for m, d in enumerate(dens, 1):
        Em *= E
        if d > 1:
            r = d // math.gcd(d, Em)
            if r > 1:
                f = r if m == 1 else _least_cover(r, m)
                if f > 1:
                    E *= f
                    if E.bit_length() > _CLEAR_MAX_BITS:
                        return E0
                    Em = E**m
    return E


def _clear(xs: Sequence[Coeff], E: int = 1) -> tuple[int, Sequence[Coeff]]:
    """Scale x_1, x_2, ... to x_m * E^m, the homothety t -> E t.

    On power series 1 + sum x_m t^m this is Witt multiplication by the
    Teichmueller [E]: it multiplies ghosts N_m by E^m as well, commutes with
    the series quotient, and maps ghost to ghost and unghost to unghost.
    E is :func:`_cover` of the denominators from the given start; the rest of
    a denominator stays in the scaled Fraction.  With E = 1, xs comes back."""
    E = _cover(map(_denominator, xs), E)
    if E == 1:
        return 1, xs
    out = []
    Em = 1
    for x in xs:
        Em *= E
        if type(x) is Fraction:
            q, rem = divmod(Em, x.denominator)
            out.append(x * Em if rem else x.numerator * q)
        else:
            out.append(x * Em)
    return E, out


def _numerators(xs: Sequence[Coeff], D: int) -> Sequence[Coeff]:
    """x * D for each x, as ints when D is a common denominator of xs."""
    if D == 1:
        return xs
    return [x.numerator * (D // x.denominator) if type(x) is Fraction else x * D for x in xs]


def _unclear(bs: Sequence[Coeff], E: int, S: int = 1) -> Sequence[Coeff]:
    """Undo :func:`_clear` and a common denominator S: b_m / (S E^m),
    reduced once per entry (bs itself when E = S = 1)."""
    if E == 1 and S == 1:
        return bs
    out = []
    d = S
    for b in bs:
        d *= E
        q, r = divmod(b, d)
        out.append(Fraction(b, d) if r else q)
    return out


def _power_series(p: Sequence[Coeff], k: int, n: int) -> list[Coeff]:
    """Coefficients 0..n of P^k, for p_0 != 0 and any integer k, by J. C. P.
    Miller's recurrence m p_0 q_m = sum_{j>=1} ((k+1) j - m) p_j q_{m-j} (Knuth,
    TAOCP vol. 2, 4.7), one weighted sum per step (``count`` allows the zero step
    of the weights at k = -1); with p_0 = 1 it is ghost(P^k) = k ghost(P)."""
    a = p[1:n + 1]
    rev = [_norm_coeff(p[0] ** k if k >= 0 else Fraction(p[0]) ** k)]  # q_{m-1}, ..., q_0
    for m in range(1, n + 1):
        s = sum(map(mul, map(mul, a, count(k + 1 - m, k + 1)), rev))
        q, r = divmod(s, m * p[0])  # q is an int; exact when r = 0
        rev.insert(0, Fraction(s, m * p[0]) if r else q)
    return rev[::-1]


def _divide(rem: list[Coeff], div: Sequence[Coeff]) -> list[Coeff]:
    """Long division by div (last entry nonzero) on ascending coefficient lists:
    the quotient, with the remainder left in rem[:len(div) - 1]."""
    d = len(div) - 1
    lead = div[-1]
    terms = [(j, b) for j, b in enumerate(div[:d]) if b]  # cyclotomics are sparse
    q = [0] * max(len(rem) - d, 0)
    for k in range(len(q) - 1, -1, -1):
        # A monic divisor keeps the quotient in the dividend's ring.
        c = rem[k + d] if lead == 1 else _norm_coeff(Fraction(rem[k + d]) / lead)
        if c:
            q[k] = c
            for j, b in terms:
                rem[k + j] -= c * b
    return q


class Polynomial:
    """Dense univariate polynomial over Z or Q, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Coeff] = ()):
        cs = [_norm_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __getitem__(self, k: int) -> Coeff:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Polynomial([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Polynomial | Coeff") -> "Polynomial":
        other = other if isinstance(other, Polynomial) else Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other: "Polynomial | Coeff") -> "Polynomial":
        other = other if isinstance(other, Polynomial) else Polynomial([other])
        return self + (-other)

    def __rsub__(self, other: Coeff) -> "Polynomial":
        return Polynomial([other]) - self

    def __mul__(self, other: "Polynomial | Coeff") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        _size("degree of a polynomial power", self.degree * _size("exponent", n))
        if not self.coeffs:  # 0^0 = 1
            return self if n else Polynomial([1])
        v = next(i for i, c in enumerate(self.coeffs) if c)  # P = t^v P0, P0(0) != 0
        return Polynomial([0] * (v * n) + _power_series(self.coeffs[v:], n, (self.degree - v) * n))

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        return Polynomial(_divide(rem, other.coeffs)), Polynomial(rem[:other.degree])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def exact_div(self, other: "Polynomial") -> "Polynomial":
        """Divide, requiring zero remainder."""
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return q

    def __call__(self, x: Coeff) -> Coeff:
        acc: Coeff = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return _norm_coeff(acc)

    def substitute_power(self, n: int) -> "Polynomial":
        """Return p(t^n)."""
        out = [0] * ((len(self.coeffs) - 1) * _size("index", n) + 1)
        out[::n] = self.coeffs
        return Polynomial._normal(tuple(out))

    @classmethod
    def _normal(cls, coeffs: tuple[Coeff, ...]) -> "Polynomial":
        """Wrap a tuple already normal: canonical entries, no trailing zero."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def reversed(self, degree: int | None = None) -> "Polynomial":
        """Coefficient reversal t^d * p(1/t), padding up to ``degree`` if given."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below actual degree")
        cs = (0,) * (d - self.degree) + self.coeffs[::-1]
        return Polynomial._normal(cs) if self[0] else Polynomial(cs)  # Polynomial trims zeros

    def __repr__(self) -> str:
        if self.is_zero():
            return "Polynomial(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            term = "1" if k == 0 else ("t" if k == 1 else f"t^{k}")
            if k == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(term)
            elif c == -1:
                parts.append(f"-{term}")
            else:
                parts.append(f"{c}*{term}")
        return "Polynomial(" + " + ".join(parts).replace("+ -", "- ") + ")"


def _primitive_int(p: Polynomial) -> Polynomial:
    """Scale to an integer polynomial with content 1 and positive lead."""
    ints = _numerators(p.coeffs, math.lcm(*map(_denominator, p.coeffs)))
    content = math.gcd(*ints)
    if content == 0:
        return Polynomial()
    if ints[-1] < 0:
        content = -content
    return Polynomial([c // content for c in ints])


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over Q, by a primitive pseudo-remainder sequence over Z.

    Reducing to content-1 integer polynomials after every pseudo-division
    keeps coefficient growth tame where plain fraction Euclid blows up.
    """
    big, small = _primitive_int(a), _primitive_int(b)
    if big.degree < small.degree:  # a zero operand (degree -1) becomes small
        big, small = small, big
    while not small.is_zero():
        # lead(small)^(gap+1) * big is exactly divisible step by step.
        gap = big.degree - small.degree
        scaled = big * (small.coeffs[-1] ** (gap + 1))
        big, small = small, _primitive_int(scaled % small)
    # The lead is read per entry, so a zero big (both operands zero) reads none.
    return Polynomial([Fraction(c, big.coeffs[-1]) for c in big.coeffs])


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division; enough for desk-scale indices."""
    _size("index", n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _divisor_table(n: int) -> dict[int, tuple[int, int, int]]:
    """Every divisor r of n, ascending, mapped to (phi(r), mu(r), Phi_r(1))
    from one factorization of n: Phi_r(1) is p for r = p^a, 0 for r = 1,
    else 1."""
    table = {1: (1, 1, 0)}
    for p, e in factorize(n).items():
        for r, (phi, mu, _) in list(table.items()):
            q = r
            for a in range(1, e + 1):
                q *= p
                table[q] = (phi * (p - 1) * p ** (a - 1), -mu if a == 1 else 0, p if r == 1 else 1)
    return dict(sorted(table.items()))


def divisors(n: int) -> list[int]:
    """Ascending list of positive divisors; empty for n <= 0."""
    return list(_divisor_table(n)) if n > 0 else []


def moebius(n: int) -> int:
    """Moebius function: 0 on non-squarefree n, else (-1)^(number of primes)."""
    return _divisor_table(n)[n][1]


def totient(n: int) -> int:
    """Euler totient; also the degree of cyclotomic(n)."""
    return _divisor_table(n)[n][0]


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> Polynomial:
    """The m-th cyclotomic polynomial, monic with integer coefficients.

    Phi_m = prod_{d | m} (1 - t^d)^mu(m/d), negated for m = 1, as power
    series truncated at degree phi(m): multiplying by 1 - t^d and dividing
    by it are in-place integer updates (Arnold-Monagan, Math. Comp. 2011).
    """
    table = _divisor_table(m)
    n = table[m][0]
    a = [1] + [0] * n
    for d in table:
        mu = table[m // d][1]
        if mu == 1:
            for i in range(n, d - 1, -1):
                a[i] -= a[i - d]
        elif mu == -1:
            for i in range(d, n + 1):
                a[i] += a[i - d]
    num = Polynomial([-c for c in a] if m == 1 else a)
    if num.degree != n or num.coeffs[-1] != 1:
        raise ArithmeticError(f"cyclotomic({m}) came out as {num!r}")
    return num


@lru_cache(maxsize=None)
def _factor_trials(deg: int) -> tuple[tuple[int, int, int], ...]:
    """The triples (d, phi(d), Phi_d(2)) with phi(d) <= deg, ascending in d."""
    # phi(d) >= sqrt(d) for d > 6, so indices beyond max(6, deg^2) cannot qualify.
    top = max(6, deg * deg)
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # untouched by a smaller prime, so p is prime
            for k in range(p, top + 1, p):
                phi[k] -= phi[k] // p

    def at_two(d: int) -> int:  # Phi_d(2) = prod_{e | d} (2^e - 1)^mu(d/e), built from no Phi_d
        t = _divisor_table(d)
        num, den = (math.prod((1 << e) - 1 for e in t if t[d // e][1] == mu) for mu in (1, -1))
        return num // den
    return tuple((d, phi[d], at_two(d)) for d in range(1, top + 1) if phi[d] <= deg)


def cyclotomic_factor(p: Polynomial) -> list[int]:
    """Factor +-p into cyclotomics, returning the sorted index multiset.

    Tries each Phi_d with deg Phi_d <= remaining degree, smallest d first,
    dividing out repeatedly on coefficient lists.  Raises NotQuasiUnipotent
    when a nontrivial factor survives, i.e. some root of p is not a root of unity.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.coeffs[-1] == -1:
        p = -p
    if p.coeffs[-1] != 1:
        raise ValueError("cyclotomic_factor expects a polynomial monic up to sign")
    out: list[int] = []
    # Phi_d | p in Z[t] forces Phi_d(2) | p(2), so a Phi_d failing that test
    # needs no trial division; p2 = 0 (p(2) = 0, or p not integral) passes all.
    p2 = p(2) if p.is_integral() else 0
    cs, deg = list(p.coeffs), p.degree  # the monic cofactor left, and its degree
    for d, phi, phi2 in _factor_trials(deg):
        if deg == 0:
            break
        while phi <= deg and p2 % phi2 == 0:
            rem = cs.copy()
            q = _divide(rem, cyclotomic(d).coeffs)
            if any(rem[:phi]):
                break
            out.append(d)
            cs, deg, p2 = q, deg - phi, p2 // phi2
    if deg:
        raise NotQuasiUnipotent(f"non-cyclotomic factor of degree {deg} remains")
    return out
