"""Small exact matrix helpers over Z and Q.

Matrices are tuples of row tuples with int/Fraction entries.  The one
spectral kernel is ``char_series``, det(1 - t M) from a Hessenberg form
(its reversal to degree n is the characteristic polynomial det(t - M)),
with the indices in chain order, which leaves det(1 - t M) unchanged.  A
permuted companion or block companion is then upper Hessenberg already, and
its recurrence runs over Z: it only multiplies and adds, so it is exact.
Any other matrix is reduced modulo one prime from a table sized to
CPython's 30-bit int digits and lifted back exactly.  The rest are the
products, powers and block constructions the other modules and tests build
matrices with.  ``det`` is plain Gaussian elimination over Fraction; only
the tests call it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import chain, compress, repeat
from operator import add, attrgetter, itemgetter, mul
from typing import Sequence, Union

from .arith import Polynomial, _norm_coeff, _unclear
from .errors import _size

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

# Proth primes p = k 2^e + 1 (k odd, k < 2^e) as (k, e, a): the largest below
# 2^15 and, with k < 2^16, below each 2^(30 j), j = 1..18.  Proth's theorem:
# a^((p - 1)/2) = -1 mod p proves p prime.
_PROTH = ((63, 9, 5), (32765, 15, 3), (65487, 44, 5), (32765, 75, 3), (32763, 105, 5),
          (16381, 136, 3), (65523, 164, 7), (32747, 195, 3), (16339, 226, 3), (16381, 256, 3),
          (65503, 284, 3), (4095, 318, 11), (65467, 344, 3), (65499, 374, 5), (65391, 404, 5),
          (32711, 435, 3), (65527, 464, 3), (65505, 494, 13), (65515, 524, 3))
# Ascending: 2^e - 1 for the exponents e <= 13, then the Proth primes.
_PRIMES = (*((1 << e) - 1 for e in _MERSENNE_EXPONENTS[:5]), *((k << e) + 1 for k, e, _ in _PROTH))
_SQUARES = tuple(p * p for p in _PRIMES)


def as_matrix(rows: Sequence[Sequence[Entry]]) -> Matrix:
    _size("matrix dimension", len(rows))
    mat = tuple(tuple(x if type(x) is int else _norm_coeff(Fraction(x)) for x in row)
                for row in rows)
    if any(len(row) != len(mat) for row in mat):
        raise ValueError("matrix must be square")
    return mat


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b.  When at most a quarter of a's entries are nonzero, each row of
    the product is the sum of the rows of b that the row's nonzeros pick
    (an entry nothing picks is then the int 0, even beside Fractions)."""
    size = len(a) * len(b)
    if 4 * (size - sum(row.count(0) for row in a)) > size:
        cols = list(zip(*b))
        return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)
    zero = (0,) * len(b[0]) if b else ()
    out = []
    for row in a:
        acc = zero
        for x, brow in zip(row, b):
            if x:
                acc = tuple(map(add, acc, map(mul, repeat(x), brow)))
        out.append(acc)
    return tuple(out)


def _entry_bits(m: Matrix) -> int:
    """The largest bit length of a numerator or denominator of m's entries."""
    entries = list(chain.from_iterable(m))
    return max(max(map(abs, map(attrgetter("numerator"), entries)), default=0),
               max(map(attrgetter("denominator"), entries), default=1)).bit_length()


def mat_pow(a: Matrix, e: int) -> Matrix:
    """a^e, high bit first, with a the left factor (where mat_mul can skip
    its zeros) of each product by a.  Integral entries come out as ints.
    Before each squaring but the first, an entry's numerator or denominator
    past its bit ceiling in ``errors._SIZES`` is LimitExceeded."""
    if not _size("exponent", e):
        return identity(len(a))
    result = a
    for i, bit in enumerate(bin(e)[3:]):
        if i:  # the first squaring squares a, which its payload's digit limit bounds
            _size("bits of a matrix power entry", _entry_bits(result))
        result = mat_mul(result, result)
        if bit == "1":
            result = mat_mul(a, result)
    if set(map(type, chain.from_iterable(result))) <= {int}:
        return result
    return tuple(tuple(map(_norm_coeff, row)) for row in result)


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


def _prime_above(square: int) -> int:
    """Smallest tabled prime p with p^2 > square."""
    i = bisect_right(_SQUARES, square)
    if i < len(_PRIMES):
        return _PRIMES[i]
    # (2^e - 1)^2 < 2^(2e), so exponents below half the bit length cannot do.
    start = bisect_left(_MERSENNE_EXPONENTS, square.bit_length() // 2)
    for e in _MERSENNE_EXPONENTS[start:]:
        p = (1 << e) - 1
        if p * p > square:
            return p
    raise ValueError("characteristic series bound exceeds the largest tabled prime")


def _square_bound(n: int, r2: int) -> int:
    """4 max_k C(n, k)^2 r2^k: the terms rise while r2 (n - k)^2 > (k + 1)^2, then fall."""
    k = next(k for k in range(n + 1) if r2 * (n - k) ** 2 <= (k + 1) ** 2)
    return 4 * math.comb(n, k) ** 2 * r2**k


def _chain_order(a: Sequence[Sequence[int]]) -> list[int] | None:
    """An order of a's indices that runs each chain of sparse columns down
    the subdiagonal, or None if a has no such column.  A column whose one
    off-diagonal nonzero is in row i leads to i; a chain starts where no
    column leads (then, for cycles, at the first index left) and follows
    the leads until it meets a placed index."""
    n, lead = len(a), {}
    for j, col in enumerate(zip(*a)):
        if col.count(0) == n - 1 - (col[j] != 0):
            (lead[j],) = set(compress(range(n), col)) - {j}
    if not lead:
        return None
    led, order = set(lead.values()), {}
    for i in chain((i for i in range(n) if i not in led), range(n)):
        while i not in order:
            order[i] = None
            i = lead.get(i, i)
    return list(order)


def char_series(m: Matrix) -> Polynomial:
    """det(1 - t M) as a polynomial, from an upper Hessenberg form H.

    With D the lcm of the entry denominators, A = D M is an integer matrix
    and c_k(M) = c_k(A) / D^k.  A's indices are first taken in
    ``_chain_order``, a permutation similarity that keeps det(1 - t A) and
    the row norms: a permuted companion or block companion is then upper
    Hessenberg already, where index order fills in (where the chain order
    leaves an entry below the subdiagonal, the index order is tried next).
    det(1 - t H) follows from the recurrence along H's subdiagonal (Cohen,
    Alg. 2.2.9), through q_j = det(1 - t H_j) of the leading blocks; a column
    j with nothing on or above the diagonal carries q_j over.  It never
    divides, so on such an A it runs over Z with no prime, each q_j within
    the bound below.  Any other A is reduced to H mod one prime p.  Up to sign,
    c_k(A) is the sum of the C(n, k) principal k x k minors of the n x n
    matrix A, each at most R^k by Hadamard's inequality (R the largest
    Euclidean row norm of A).  So the smallest prime p of ``_PRIMES``
    (past 2^540, Mersenne prime) with p > 2 max_k C(n, k) R^k (compared in
    squares, in ints) determines every c_k(A) from its residue by the
    symmetric lift; on this path a bound past the table raises ValueError.
    CPython stores ints in 30-bit digits, so the table has a prime just
    below each 2^(30 j) (and 2^15, whose products fit one digit): residues
    take no digit more than the bound needs.  Any prime above the bound
    gives the same result, so correctness does not rest on
    ``sys.int_info.bits_per_digit``.
    """
    n = len(m)
    integral = set(map(type, chain.from_iterable(m))) <= {int}
    den = 1 if integral else math.lcm(*(x.denominator for row in m for x in row))
    a = m if integral else [[int(x * den) for x in row] for row in m]
    forms = [a]  # the index order, tried after the chain order
    order = _chain_order(a)
    if order:
        get = itemgetter(*order)
        forms.insert(0, list(map(get, get(a))))
    # The first with nothing below the subdiagonal (a dense form stops at row 2).
    h = next((f for f in forms if not any(chain.from_iterable(
        row[:i] for i, row in enumerate(f[2:], 1)))), None)
    p = 0  # the recurrence runs over Z, unless no form is upper Hessenberg
    if h is None:
        p = _prime_above(_square_bound(n, max(sum(map(mul, row, row)) for row in forms[0])))
        h = [list(map(p.__rmod__, row)) for row in forms[0]]
        for k in range(1, n - 1):
            # Clear column k - 1 below the subdiagonal with pivot row k.
            piv = next((i for i in range(k, n) if h[i][k - 1]), None)
            if piv is None:
                continue
            if piv != k:
                h[k], h[piv] = h[piv], h[k]
                for row in h:
                    row[k], row[piv] = row[piv], row[k]
            tail = h[k][k:]
            inv = pow(h[k][k - 1], -1, p)
            # The eliminations commute: all row operations use the same pivot
            # row, and their inverses add sum_i u_i col_i to column k together
            # (col_k itself leads, with weight 1, so get(row) is a tuple).
            rows, us = [k], [1]
            for i in range(k + 1, n):
                row = h[i]
                if row[k - 1]:
                    u = row[k - 1] * inv % p
                    row[k - 1:] = [0] + [(x - u * y) % p for x, y in zip(row[k:], tail)]
                    rows.append(i)
                    us.append(u)
            if len(us) > 1:
                get = itemgetter(*rows)
                for row in h:
                    row[k] = sum(map(mul, us, get(row))) % p
    # q_j = det(1 - t H_j) for the leading j x j blocks (mod p unless p = 0):
    # q_{j+1} = (1 - h_jj t) q_j - sum_i h_ij (h_{i+1,i} ... h_{j,j-1}) t^(j-i+1) q_i.
    qs = [[1]]
    for j in range(n):
        prev, hjj = qs[j], h[j][j]
        if not (hjj or any(map(itemgetter(j), h[:j]))):  # nothing on or above the diagonal
            qs.append(prev + [0])
            continue
        new = [x - hjj * y for x, y in zip(prev + [0], [0] + prev)]
        subdiag = 1
        for i in range(j - 1, -1, -1):
            subdiag = subdiag * h[i + 1][i] % p if p else subdiag * h[i + 1][i]
            if not subdiag:
                break
            c = h[i][j] * subdiag % p if p else h[i][j] * subdiag
            if c:
                shift = j - i + 1
                new[shift:] = [y - c * x for y, x in zip(new[shift:], qs[i])]
        qs.append([x % p for x in new] if p else new)
    half = p >> 1
    lifted = [c - p if c > half else c for c in qs[n]] if p else qs[n]
    return Polynomial(lifted[:1] + _unclear(lifted[1:], den))


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
