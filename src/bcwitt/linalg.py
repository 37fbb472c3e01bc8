"""Small exact matrix helpers over Z and Q.

Matrices are tuples of row tuples with int/Fraction entries.  Everything
here is sized for characteristic polynomials of desk-scale matrices, so
plain Gaussian elimination over Fraction is exact and fast enough.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

from .arith import Polynomial
from .witt import GhostVector, unghost

Entry = Union[int, Fraction]
Matrix = tuple[tuple[Entry, ...], ...]


def as_matrix(rows: Sequence[Sequence[Entry]]) -> Matrix:
    mat = tuple(tuple(Fraction(x) if not isinstance(x, (int, Fraction)) else x for x in row)
                for row in rows)
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square")
    return mat


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n))


def mat_pow(a: Matrix, e: int) -> Matrix:
    if e < 0:
        raise ValueError("negative matrix power")
    result = identity(len(a))
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        e >>= 1
    return result


def trace(a: Matrix) -> Entry:
    return sum(a[i][i] for i in range(len(a)))


def det(a: Matrix) -> Entry:
    """Determinant by fraction elimination; exact."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    sign = 1
    acc = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        acc *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    value = sign * acc
    return int(value) if value.denominator == 1 else value


def char_series(m: Matrix) -> Polynomial:
    """det(1 - t M) as a polynomial, via power traces.

    det(1 - t M) is the Witt vector with ghost components -trace(M^k)
    (Newton's identities), and it terminates at degree dim, so the traces
    of M..M^dim determine it: dim - 1 matrix products and one ``unghost``.
    """
    n = len(m)
    if n == 0:
        return Polynomial([1])
    power, traces = m, [-trace(m)]
    for _ in range(n - 1):
        power = mat_mul(power, m)
        traces.append(-trace(power))
    return Polynomial([1, *unghost(GhostVector.of(traces)).coeffs])


def charpoly(m: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(t - M)."""
    return char_series(m).reversed(len(m))


def exterior_trace(m: Matrix, k: int) -> Entry:
    """Trace of the k-th exterior power: sum of principal k x k minors."""
    n = len(m)
    if k == 0:
        return 1
    total: Entry = 0
    for rows in combinations(range(n), k):
        sub = tuple(tuple(m[i][j] for j in rows) for i in rows)
        total += det(sub)
    return total


def block_diag(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    top = tuple(row + (0,) * nb for row in a)
    bottom = tuple((0,) * na + row for row in b)
    return top + bottom


def kron(a: Matrix, b: Matrix) -> Matrix:
    na, nb = len(a), len(b)
    return tuple(
        tuple(a[i // nb][j // nb] * b[i % nb][j % nb] for j in range(na * nb))
        for i in range(na * nb))
