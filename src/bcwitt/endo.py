"""K0-level model of the endomorphism category.

An object is a square exact-rational matrix standing for a free module
with an endomorphism; the class of (E, f) in the rational Witt ring is
det(1 - t M(f))^(-1), with ghost components trace(M^m).  Direct sum and
tensor product become block-diagonal sum and Kronecker product, matching
Witt addition and multiplication under that map.

Frobenius raises the endomorphism to a power; Verschiebung replaces it by
the n x n companion block with the endomorphism in the corner, so that
det(1 - t V_n(f)) = det(1 - t^n f).

The graded (plus/minus) variant carries formal differences: its class is
det(1 - t M_minus)/det(1 - t M_plus).  The inverse assignment ``phi_mu``
reads a rational Witt vector whose numerator and denominator split into
linear factors over Q back into a pair of diagonal matrices; a factor
that is irreducible of degree > 1 raises NotSplit.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import Polynomial, _norm_coeff, _primitive_int, divisors
from .errors import NotSplit, _json_list, _number, _numstr, _size
from . import linalg
from .linalg import Matrix
from .witt import RationalWitt
from .record import Record

_EMPTY: Matrix = ()


class EndoObject(Record):
    """A free module of rank dim with an endomorphism, as a matrix."""

    matrix: Matrix

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @staticmethod
    def of(rows) -> "EndoObject":
        return EndoObject(linalg.as_matrix(rows))

    @staticmethod
    def zero() -> "EndoObject":
        return EndoObject(_EMPTY)

    @staticmethod
    def scalar(a) -> "EndoObject":
        return EndoObject.of([[a]])

    @staticmethod
    def diag(values) -> "EndoObject":
        vals = [_norm_coeff(v) for v in values]
        return EndoObject(tuple(
            tuple(vals[i] if i == j else 0 for j in range(len(vals)))
            for i in range(len(vals))))

    def to_json(self) -> dict:
        return {"matrix": [_numstr(x) for row in self.matrix for x in row]}

    @staticmethod
    def from_json(data: dict) -> "EndoObject":
        flat = [_number(x) for x in _json_list(data["matrix"], "matrix")]
        n = math.isqrt(len(flat))
        if n * n != len(flat):
            raise ValueError("matrix entries must form a square")
        return EndoObject.of([flat[i * n:(i + 1) * n] for i in range(n)])


class GradedEndoObject(Record):
    plus: EndoObject
    minus: EndoObject


def direct_sum(a: EndoObject, b: EndoObject) -> EndoObject:
    return EndoObject(linalg.block_diag(a.matrix, b.matrix))


def tensor(a: EndoObject, b: EndoObject) -> EndoObject:
    return EndoObject(linalg.kron(a.matrix, b.matrix))


def l_map(e: EndoObject) -> RationalWitt:
    """The class det(1 - t M)^(-1) as a rational Witt vector."""
    return RationalWitt.of(Polynomial([1]), linalg.char_series(e.matrix))


def endo_frobenius(n: int, e: EndoObject) -> EndoObject:
    return EndoObject(linalg.mat_pow(e.matrix, _size("index", n)))


def endo_verschiebung(n: int, e: EndoObject) -> EndoObject:
    """The n x n block companion with e's matrix in the upper-right corner."""
    if _size("index", n) == 1:
        return e
    d = e.dim
    nd = _size("matrix dimension", n * d)
    # Block row 0 ends in e's matrix; row d + i has its 1 in column i.
    return EndoObject(tuple((0,) * (nd - d) + tuple(row) for row in e.matrix)
                      + tuple((0,) * i + (1,) + (0,) * (nd - 1 - i) for i in range(nd - d)))


def delta(g: GradedEndoObject) -> RationalWitt:
    """[plus] - [minus] in the Witt ring: det(1 - t M_minus)/det(1 - t M_plus)."""
    return RationalWitt.of(linalg.char_series(g.minus.matrix),
                           linalg.char_series(g.plus.matrix))


def _linear_roots(p: Polynomial) -> list[Fraction]:
    """Write p (constant term 1) as prod (1 - a_i t) and return the a_i.

    The reversed polynomial is monic with the a_i as roots; they are found
    by rational root search with synthetic division.  Raises NotSplit when
    a factor of degree > 1 remains.
    """
    if p.degree == 0:
        return []
    work = _primitive_int(p.reversed())
    roots: list[Fraction] = []
    while work.degree > 0:
        root = _find_rational_root(work)
        if root is None:
            raise NotSplit(f"factor of degree {work.degree} has no rational root")
        roots.append(root)
        work = work.exact_div(Polynomial([-root, 1]))
    return sorted(roots)


def _find_rational_root(p: Polynomial):
    lead = p.coeffs[-1]
    const = p.coeffs[0]
    for u in divisors(abs(int(const))):
        for v in divisors(abs(int(lead))):
            for cand in (Fraction(u, v), Fraction(-u, v)):
                if p(cand) == 0:
                    return cand
    return None


def phi_mu(z: RationalWitt) -> GradedEndoObject:
    """Split the numerator and denominator into linear factors and read off
    the graded object with delta(phi_mu(z)) = z."""
    alphas = _linear_roots(z.num)
    betas = _linear_roots(z.den)
    return GradedEndoObject(plus=EndoObject.diag(betas), minus=EndoObject.diag(alphas))
