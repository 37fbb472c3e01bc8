"""Lefschetz and Artin-Mazur zeta functions of quasi-unipotent toral maps.

A toral map is an integer d x d matrix M acting on the d-torus; its model
of homology is the exterior algebra of the rank-d lattice, which makes the
Lefschetz number of the m-th iterate det(I - M^m).  The Lefschetz zeta
function is the exponential of the generating series of those numbers; the
Artin-Mazur variant counts fixed points, |det(I - M^m)|, and is defined
only while every iterate has isolated fixed points.

A zeta is its ghosts: ``zeta_ghosts`` alone decides them, and each series
is their ``unghost``.  A disjoint union of tori is a Witt sum, so the
torified zeta's ghosts are the sums of its parts' ghosts.

A zero eigenvalue adds a factor 1 - 0^n = 1 to det(I - M^n), so only the
nonzero ones count: the roots of the reversal of det(1 - t M).  When that
reversal is a product of cyclotomic polynomials Phi_{m_i}, they are roots of
unity, and the Lefschetz numbers are periodic with period m = lcm(m_i):
det(I - M^n) = F_{(n, m)}, where for k | m

    F_k = prod_i Phi_{m_i/(k, m_i)}(1) ^ (phi(m_i)/phi(m_i/(k, m_i))),

Phi_r(1) is p for a prime power r = p^a, 0 for r = 1 (so F_k = 0 when some
m_i divides k) and 1 otherwise, as ``arith._divisor_table`` gives them with
phi and mu (m = 1 and F_1 = 1 when M is nilpotent).  The closed form is then

    zeta(t) = prod_{d | m} (1 - t^d)^(-s_d),  s_d = (1/d) sum_{k | d} F_k mu(d/k).

Any other map takes the general path, which the tests check the period
against: det(1 - t M^n) is the n-th Witt Frobenius of det(1 - t M), so its
ghosts are those of det(1 - t M) at n, 2n, ..., en, with e the degree of
det(1 - t M), and det(I - M^n) is that degree-e polynomial at t = 1.

The spectral Euler characteristic of a quasi-unipotent matrix collects its
eigenvalues (all roots of unity) into the group ring of Q/Z: each factor
Phi_d contributes the sum of the primitive points of denominator d.  It
turns matrix powers into the ring endomorphisms of the group ring, and
companion Verschiebung blocks into the division-point maps.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Literal, Sequence

from .arith import _divisor_table, cyclotomic_factor
from .errors import DegenerateIterate, NotQuasiUnipotent, _json_list, _number, _numstr, _size
from . import linalg
from .linalg import Matrix
from .witt import GhostVector, WittVector, _unghosts, ghost, unghost
from .record import Record, _canonical

if TYPE_CHECKING:
    from .qz import QZElement


class ToralMap(Record):
    """An integer matrix acting on the torus of its dimension."""

    matrix: Matrix

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @staticmethod
    def of(rows: Sequence[Sequence[int]]) -> "ToralMap":
        m = linalg.as_matrix(rows)
        if any(not isinstance(x, int) for row in m for x in row):
            raise ValueError("toral maps need integer matrices")
        return ToralMap(m)

    def to_json(self) -> dict:
        return {"rows": [list(row) for row in self.matrix]}

    @staticmethod
    def from_json(data: dict) -> "ToralMap":
        rows = _json_list(data["rows"], "rows")
        return ToralMap.of([[_number(x) for x in _json_list(row, "each row")] for row in rows])


def _cyclotomic_indices(m: Matrix) -> list[int]:  # raises NotQuasiUnipotent
    return cyclotomic_factor(linalg.char_series(m).reversed(len(m)))


def _period(indices: Sequence[int]) -> tuple[dict[int, tuple[int, int, int]], dict[int, int]]:
    """The divisor table of m = lcm(m_i) and F_k = det(I - M^k) for k | m."""
    table = _divisor_table(math.lcm(*indices))
    f_k = {}
    for k in table:
        acc = 1
        for mi in indices:
            phi_r, _, at_one = table[mi // math.gcd(k, mi)]
            acc *= at_one ** (table[mi][0] // phi_r)
        f_k[k] = acc
    return table, f_k


def lefschetz_numbers(f: ToralMap, trunc: int) -> list[int]:
    """det(I - M^n) for n = 1..trunc: F_{(n, m)} if every nonzero eigenvalue
    of M is a root of unity, else by ghosts."""
    _size("truncation", trunc)
    series = linalg.char_series(f.matrix)
    try:
        table, f_k = _period(cyclotomic_factor(series.reversed()))
    except NotQuasiUnipotent:
        e = series.degree
        g = ghost(WittVector.from_coeffs(series.coeffs[1:], trunc * e)).values
        return [1 + sum(_unghosts(1, g[n - 1::n][:e])) for n in range(1, trunc + 1)]
    period = max(table)
    return [f_k[math.gcd(n, period)] for n in range(1, trunc + 1)]


ZetaKind = Literal["lefschetz", "artin_mazur"]


def zeta_ghosts(f: ToralMap, trunc: int, kind: ZetaKind = "lefschetz") -> GhostVector:
    """The ghosts of f's zeta: det(I - M^n) for n = 1..trunc, or for the
    Artin-Mazur zeta the fixed-point counts |det(I - M^n)|, none zero."""
    if kind not in ("lefschetz", "artin_mazur"):
        raise ValueError(f"unknown zeta kind {kind!r}")
    numbers = lefschetz_numbers(f, trunc)
    if kind == "artin_mazur" and 0 in numbers:
        raise DegenerateIterate(numbers.index(0) + 1)
    return GhostVector.of(numbers if kind == "lefschetz" else [abs(a) for a in numbers])


def lefschetz_zeta_series(f: ToralMap, trunc: int) -> WittVector:
    """exp of the Lefschetz-number generating series, truncated."""
    return unghost(zeta_ghosts(f, trunc))


class LefschetzZeta(Record):
    """prod_{d} (1 - t^d)^(-s_d), stored as the exponent map d -> s_d."""

    exponents: tuple[tuple[int, int], ...]

    @staticmethod
    def of(exponents: dict[int, int]) -> "LefschetzZeta":
        return LefschetzZeta(_canonical(exponents.items()))

    def expand(self, trunc: int) -> WittVector:
        """Ghosts of (1 - t^d)^(-s) are s*d at multiples of d, else 0."""
        values = [0] * trunc
        for d, s in self.exponents:
            for m in range(d, trunc + 1, d):
                values[m - 1] += s * d
        return unghost(GhostVector.of(values))

    def to_json(self) -> dict:
        return {"exponents": {_numstr(d): s for d, s in self.exponents}}


def lefschetz_zeta_closed(f: ToralMap) -> LefschetzZeta:
    """Exact closed form for a quasi-unipotent toral map."""
    table, f_k = _period(_cyclotomic_indices(f.matrix))
    # s_d d = sum over e | d of mu(e) F_{d/e}, and mu(e) = 0 unless e is squarefree.
    squarefree = [(e, mu) for e, (_, mu, _) in table.items() if mu]
    exponents = {}
    for d in table:
        total = sum(mu * f_k[d // e] for e, mu in squarefree if d % e == 0)
        if total % d:
            raise ArithmeticError(f"closed-form exponent {total}/{d} is not an integer")
        exponents[d] = total // d
    return LefschetzZeta.of(exponents)


def artin_mazur_series(f: ToralMap, trunc: int) -> WittVector:
    """exp(sum |det(I - M^n)|/n t^n); fails on a degenerate iterate."""
    return unghost(zeta_ghosts(f, trunc, "artin_mazur"))


def torified_dynamical_zeta(parts: Sequence[ToralMap], trunc: int,
                            kind: ZetaKind = "lefschetz") -> WittVector:
    """Product over the tori of the per-torus zeta (the Witt sum): the ghosts add."""
    if kind not in ("lefschetz", "artin_mazur"):
        raise ValueError(f"unknown zeta kind {kind!r}")
    zero = GhostVector.of([0] * _size("truncation", trunc))
    return unghost(sum((zeta_ghosts(part, trunc, kind) for part in parts), zero))


def spectral_euler(m: Matrix | ToralMap) -> QZElement:
    """Eigenvalues as division points: Phi_d contributes the primitive
    points of denominator d, with the factor's multiplicity."""
    from .qz import _primitive_points

    mat = m.matrix if isinstance(m, ToralMap) else linalg.as_matrix(m)
    return _primitive_points(Counter(_cyclotomic_indices(mat)))


def verschiebung_block(n: int, m: Matrix | ToralMap) -> Matrix:
    """The nd x nd companion block whose n-th power is block-diagonal m."""
    from .endo import EndoObject, endo_verschiebung

    mat = m.matrix if isinstance(m, ToralMap) else linalg.as_matrix(m)
    return endo_verschiebung(n, EndoObject(mat)).matrix
