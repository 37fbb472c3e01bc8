"""Small exact matrix helpers over Z and Q.

Matrices are tuples of row tuples with int/Fraction entries.  The one
spectral kernel is ``char_series``, det(1 - t M), computed in modular
integer arithmetic and lifted back exactly; the rest are the products,
powers and block constructions the other modules and tests build matrices
with.  ``det`` is plain Gaussian elimination over Fraction; only the tests
call it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from .arith import Polynomial, _unclear

Entry = Union[int, Fraction]
Matrix = tuple[tuple[Entry, ...], ...]

# Exponents e of the known Mersenne primes 2^e - 1 (OEIS A000043).  Only the
# primality of the listed numbers matters, not whether the list is complete.
_MERSENNE_EXPONENTS = (
    2, 3, 5, 7, 13, 17, 19, 31, 61, 89, 107, 127, 521, 607, 1279, 2203, 2281,
    3217, 4253, 4423, 9689, 9941, 11213, 19937, 21701, 23209, 44497, 86243,
    110503, 132049, 216091, 756839, 859433, 1257787, 1398269, 2976221, 3021377,
    6972593, 13466917, 20996011, 24036583, 25964951, 30402457, 32582657,
    37156667, 42643801, 43112609, 57885161, 74207281, 77232917, 82589933,
    136279841)


def as_matrix(rows: Sequence[Sequence[Entry]]) -> Matrix:
    mat = tuple(tuple(Fraction(x) if not isinstance(x, (int, Fraction)) else x for x in row)
                for row in rows)
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square")
    return mat


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    cols = list(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


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


def _mersenne_prime_above(square: int) -> int:
    """Smallest tabled Mersenne prime p with p^2 > square."""
    # (2^e - 1)^2 < 2^(2e), so exponents below half the bit length cannot do.
    start = bisect_left(_MERSENNE_EXPONENTS, square.bit_length() // 2)
    for e in _MERSENNE_EXPONENTS[start:]:
        p = (1 << e) - 1
        if p * p > square:
            return p
    raise ValueError("characteristic series bound exceeds the largest tabled Mersenne prime")


def char_series(m: Matrix) -> Polynomial:
    """det(1 - t M) as a polynomial, by Hessenberg reduction mod one prime.

    With D the lcm of the entry denominators, A = D M is an integer matrix
    and c_k(M) = c_k(A) / D^k.  Up to sign, c_k(A) is the sum of the
    C(n, k) principal k x k minors of the n x n matrix A, each at most R^k
    by Hadamard's inequality (R the largest Euclidean row norm of A).  So
    the smallest tabled Mersenne prime p = 2^e - 1 with
    p > 2 max_k C(n, k) R^k (compared in squares, in ints) determines
    every c_k(A) from its residue by the symmetric lift; a bound past the
    table raises ValueError.  A is reduced to upper Hessenberg form H by
    similarity mod p (Cohen, Alg. 2.2.9), and det(1 - t H) follows from the
    recurrence along its subdiagonal.
    """
    n = len(m)
    den = math.lcm(*(x.denominator for row in m for x in row))
    a = [[int(x * den) for x in row] for row in m]
    r2 = max((sum(x * x for x in row) for row in a), default=0)
    p = _mersenne_prime_above(max(4 * math.comb(n, k) ** 2 * r2**k for k in range(n + 1)))
    h = [[x % p for x in row] for row in a]
    for k in range(1, n - 1):
        # Clear column k - 1 below the subdiagonal with pivot row k.
        piv = next((i for i in range(k, n) if h[i][k - 1]), None)
        if piv is None:
            continue
        if piv != k:
            h[k], h[piv] = h[piv], h[k]
            for row in h:
                row[k], row[piv] = row[piv], row[k]
        pivot_row = h[k]
        inv = pow(pivot_row[k - 1], -1, p)
        # The eliminations commute: all row operations use the same pivot
        # row, and their inverses add to column k together.
        mults = []
        for i in range(k + 1, n):
            u = h[i][k - 1] * inv % p
            if u:
                row = h[i]
                row[k - 1:] = [0] + [(x - u * y) % p for x, y in zip(row[k:], pivot_row[k:])]
                mults.append((i, u))
        if mults:
            for row in h:
                row[k] = (row[k] + sum(u * row[i] for i, u in mults)) % p
    # q_j = det(1 - t H_j) for the leading j x j blocks:
    # q_{j+1} = (1 - h_jj t) q_j - sum_i h_ij (h_{i+1,i} ... h_{j,j-1}) t^(j-i+1) q_i.
    qs = [[1]]
    for j in range(n):
        prev, hjj = qs[j], h[j][j]
        new = [x - hjj * y for x, y in zip(prev + [0], [0] + prev)]
        chain = 1
        for i in range(j - 1, -1, -1):
            chain = chain * h[i + 1][i] % p
            if not chain:
                break
            c = h[i][j] * chain % p
            if c:
                shift = j - i + 1
                for s, x in enumerate(qs[i]):
                    new[s + shift] -= c * x
        qs.append([x % p for x in new])
    half = p >> 1
    lifted = [c - p if c > half else c for c in qs[n]]
    return Polynomial(lifted[:1] + _unclear(lifted[1:], den))


def charpoly(m: Matrix) -> Polynomial:
    """Monic characteristic polynomial det(t - M)."""
    return char_series(m).reversed(len(m))


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
