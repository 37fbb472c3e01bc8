import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from bcwitt.arith import Polynomial, cyclotomic, cyclotomic_factor, divisors, moebius, totient
from bcwitt.dynamical import (
    LefschetzZeta,
    ToralMap,
    artin_mazur_series,
    lefschetz_numbers,
    lefschetz_zeta_closed,
    lefschetz_zeta_series,
    spectral_euler,
    torified_dynamical_zeta,
    verschiebung_block,
)
from bcwitt.errors import DegenerateIterate, NotQuasiUnipotent
from bcwitt import linalg
from bcwitt.qz import QZElement, rho, sigma
from bcwitt.witt import GhostVector, WittVector, ghost, unghost

ROT = ToralMap.of([[0, -1], [1, 0]])


def companion(p: Polynomial):
    """Companion matrix of a monic integer polynomial."""
    d = p.degree
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return ToralMap.of(rows)


def cyclotomic_companion(*indices):
    prod = Polynomial([1])
    for m in indices:
        prod = prod * cyclotomic(m)
    return companion(prod)


def test_lefschetz_numbers():
    assert lefschetz_numbers(ROT, 4) == [2, 4, 2, 0]
    assert lefschetz_numbers(ToralMap.of([[1]]), 5) == [0] * 5
    assert lefschetz_numbers(ToralMap.of([[-1]]), 4) == [2, 0, 2, 0]
    # The 0-torus: det of the empty matrix is 1 for every iterate.
    empty = ToralMap.of([])
    assert lefschetz_numbers(empty, 5) == [1] * 5
    assert lefschetz_zeta_series(empty, 4).coeffs == (1, 1, 1, 1)
    assert artin_mazur_series(empty, 4).coeffs == (1, 1, 1, 1)
    assert lefschetz_zeta_closed(empty).exponents == ((1, 1),)
    assert lefschetz_zeta_closed(empty).expand(4) == lefschetz_zeta_series(empty, 4)
    with pytest.raises(ValueError):
        lefschetz_numbers(ROT, 0)
    # Degenerate iterates: the first n with det(I - M^n) = 0.
    for f, n in ((ROT, 4), (ToralMap.of([[1]]), 1), (cyclotomic_companion(3, 5), 3)):
        with pytest.raises(DegenerateIterate) as err:
            artin_mazur_series(f, 12)
        assert err.value.n == n


def test_toral_map_takes_integral_fractions():
    for f in (ToralMap.of([[Fraction(6, 2)]]), ToralMap.from_json({"rows": [["6/2"]]})):
        assert f.matrix == ((3,),) and type(f.matrix[0][0]) is int
    with pytest.raises(ValueError, match="integer matrices"):
        ToralMap.of([[Fraction(1, 2)]])


def test_lefschetz_numbers_match_power_determinants():
    rng = random.Random(211)
    for _ in range(20):
        d = rng.randint(1, 6)
        f = ToralMap.of([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        expected = []
        for n in range(1, 25):
            power = linalg.mat_pow(f.matrix, n)
            expected.append(linalg.det(tuple(tuple(int(i == j) - x for j, x in enumerate(row))
                                             for i, row in enumerate(power))))
        assert lefschetz_numbers(f, 24) == expected


def _lefschetz_numbers_oracle(f, trunc):
    """One GhostVector and one unghost per iterate, as the vectors' own path."""
    d = f.dim
    g = ghost(WittVector.from_coeffs(linalg.char_series(f.matrix).coeffs[1:], trunc * d)).values
    return [1 + sum(unghost(GhostVector.of(g[n - 1::n][:d])).coeffs)
            for n in range(1, trunc + 1)]


def _permuted(rows, rng):
    p = list(range(len(rows)))
    rng.shuffle(p)
    return [[rows[p[i]][p[j]] for j in p] for i in p]


def _quasi_unipotent(rng, d, max_index=60):
    """A companion of a product of cyclotomics, or a block sum of their
    companions, with totients summing to d, in a permuted basis."""
    indices, left = [], d
    while left:
        m = rng.choice([m for m in range(1, max_index + 1) if totient(m) <= left])
        indices.append(m)
        left -= totient(m)
    if rng.random() < 0.5:
        rows = cyclotomic_companion(*indices).matrix
    else:
        rows = ()
        for m in indices:
            rows = linalg.block_diag(rows, cyclotomic_companion(m).matrix)
    return ToralMap.of(_permuted(rows, rng)), indices


def test_lefschetz_numbers_match_the_vector_path():
    rng = random.Random(223)
    for _ in range(30):
        f, _ = _quasi_unipotent(rng, rng.randint(1, 12))
        got = lefschetz_numbers(f, 48)
        assert [type(x) for x in got] == [int] * 48
        assert got == _lefschetz_numbers_oracle(f, 48)
    for _ in range(10):
        d = rng.randint(1, 12)
        f = ToralMap.of([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        got = lefschetz_numbers(f, 48)
        assert [type(x) for x in got] == [int] * 48
        assert got == _lefschetz_numbers_oracle(f, 48)


def test_spectral_euler_matches_fraction_keyed_sum():
    rng = random.Random(227)
    for _ in range(30):
        f, indices = _quasi_unipotent(rng, rng.randint(1, 24))
        acc = {}
        for d in indices:
            for num in range(d):
                if math.gcd(num, d) == 1:
                    acc[Fraction(num, d)] = acc.get(Fraction(num, d), 0) + 1
        expected = sorted(acc.items(), key=lambda rc: (rc[0].denominator, rc[0].numerator))
        assert [(type(r), r, type(c), c) for r, c in spectral_euler(f).terms] == [
            (type(r), r, type(c), c) for r, c in expected]


def exterior_trace(m, k):
    """Trace of the k-th exterior power: sum of principal k x k minors."""
    if k == 0:
        return 1
    return sum(linalg.det(tuple(tuple(m[i][j] for j in rows) for i in rows))
               for rows in combinations(range(len(m)), k))


def test_lefschetz_numbers_exterior_trace_oracle():
    rng = random.Random(101)
    for _ in range(15):
        d = rng.randint(1, 4)
        f = ToralMap.of([[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)])
        nums = lefschetz_numbers(f, 8)
        for n in range(1, 9):
            power = linalg.mat_pow(f.matrix, n)
            alt = sum((-1) ** k * exterior_trace(power, k) for k in range(d + 1))
            assert nums[n - 1] == alt


def test_lefschetz_zeta_series():
    assert lefschetz_zeta_series(ToralMap.of([[1]]), 6) == WittVector.one(6)
    # M = (-1): matches (1-t)^-2 (1-t^2) expanded.
    closed = LefschetzZeta.of({1: 2, 2: -1})
    assert LefschetzZeta.of({4: 0, 2: -1, 1: 2}) == closed
    assert closed.exponents == ((1, 2), (2, -1))
    assert lefschetz_zeta_series(ToralMap.of([[-1]]), 12) == closed.expand(12)
    assert ghost(lefschetz_zeta_series(ROT, 8)).values == (2, 4, 2, 0, 2, 4, 2, 0)


def _closed_exponents_oracle(indices):
    """s_d of the closed form term by term, with Phi_r(1) evaluated directly."""
    m = math.lcm(*indices)
    f_k = {}
    for k in divisors(m):
        reduced = [mi // math.gcd(k, mi) for mi in indices]
        f_k[k] = math.prod(cyclotomic(r)(1) ** (totient(mi) // totient(r))
                           for mi, r in zip(indices, reduced))
    out = {}
    for d in divisors(m):
        total = sum(f_k[k] * moebius(d // k) for k in divisors(d))
        assert total % d == 0
        if total:
            out[d] = total // d
    return out


def test_lefschetz_closed_large_indices():
    """Indices up to 60 and degree up to 24, the toral-spectral shapes: every
    exponent against the term-by-term oracle, and the expansion against the
    exponential series."""
    rng = random.Random(60)
    for _ in range(40):
        f, indices = _quasi_unipotent(rng, rng.randint(1, 24))
        closed = lefschetz_zeta_closed(f)
        assert dict(closed.exponents) == _closed_exponents_oracle(indices)
        assert closed.expand(60) == lefschetz_zeta_series(f, 60)


def test_lefschetz_zeta_closed_examples():
    z = lefschetz_zeta_closed(ROT)
    assert dict(z.exponents) == {1: 2, 2: 1, 4: -1}
    z = lefschetz_zeta_closed(ToralMap.of([[-1]]))
    assert dict(z.exponents) == {1: 2, 2: -1}
    z = lefschetz_zeta_closed(ToralMap.of([[1]]))
    assert z.exponents == ()


def test_lefschetz_closed_vs_series_companions():
    rng = random.Random(103)
    seen = 0
    for indices in _cyclotomic_multisets(max_index=12, max_degree=6):
        f = cyclotomic_companion(*indices)
        closed = lefschetz_zeta_closed(f)
        assert closed.expand(24) == lefschetz_zeta_series(f, 24)
        seen += 1
    assert seen > 100
    # A few random conjugates keep the check basis-independent.
    for _ in range(10):
        indices = rng.choice([(1, 2), (4,), (3, 1), (6, 2), (12,)])
        f = cyclotomic_companion(*indices)
        u = _random_unimodular(rng, f.dim)
        conj = linalg.mat_mul(linalg.mat_mul(u, f.matrix), _unimodular_inverse(u))
        g = ToralMap.of(conj)
        assert lefschetz_zeta_closed(g).expand(20) == lefschetz_zeta_series(g, 20)


def _cyclotomic_multisets(max_index, max_degree):
    """All multisets of cyclotomic indices with total degree <= max_degree."""
    def rec(start, budget):
        yield ()
        for m in range(start, max_index + 1):
            d = totient(m)
            if d <= budget:
                for rest in rec(m, budget - d):
                    yield (m,) + rest
    for ms in rec(1, max_degree):
        if ms:
            yield ms


def _random_unimodular(rng, d):
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
    for _ in range(2 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            c = rng.choice([-1, 1])
            for k in range(d):
                u[i][k] += c * u[j][k]
    return linalg.as_matrix(u)


def _unimodular_inverse(u):
    d = len(u)
    aug = [[Fraction(u[i][j]) for j in range(d)] + [Fraction(int(i == j)) for j in range(d)]
           for i in range(d)]
    for col in range(d):
        piv = next(r for r in range(col, d) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return linalg.as_matrix([[int(aug[i][d + j]) for j in range(d)] for i in range(d)])


def test_artin_mazur():
    doubling = ToralMap.of([[2]])
    assert ghost(artin_mazur_series(doubling, 5)).values == (1, 3, 7, 15, 31)
    with pytest.raises(DegenerateIterate) as err:
        artin_mazur_series(ToralMap.of([[-1]]), 4)
    assert err.value.n == 2
    collapse = ToralMap.of([[0]])
    assert artin_mazur_series(collapse, 5).coeffs == (1, 1, 1, 1, 1)


def test_torified_dynamical_zeta():
    single = torified_dynamical_zeta([ROT], 8)
    assert single == lefschetz_zeta_series(ROT, 8)
    pair = torified_dynamical_zeta([ToralMap.of([[-1]]), ToralMap.of([[-1]])], 8)
    assert ghost(pair).values == (4, 0, 4, 0, 4, 0, 4, 0)
    with pytest.raises(ValueError):
        torified_dynamical_zeta([ROT], 8, kind="other")


def test_dynamical_exponentiability():
    rng = random.Random(107)
    for _ in range(12):
        f1 = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6]))
        f2 = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6]))
        n = 20
        # Disjoint union: ghosts add.
        union = torified_dynamical_zeta([f1, f2], n)
        g1 = ghost(lefschetz_zeta_series(f1, n))
        g2 = ghost(lefschetz_zeta_series(f2, n))
        assert ghost(union) == g1 + g2
        # Cartesian product: block sum on homology, ghosts multiply.
        product = ToralMap.of(linalg.block_diag(f1.matrix, f2.matrix))
        assert ghost(lefschetz_zeta_series(product, n)) == g1 * g2


def test_spectral_euler():
    assert spectral_euler(ROT) == QZElement.e(Fraction(1, 4)) + QZElement.e(Fraction(3, 4))
    assert spectral_euler(ToralMap.of([[1, 0], [0, 1]])) == QZElement.e(0, 2)
    sq = linalg.mat_pow(ROT.matrix, 2)
    assert spectral_euler(sq) == sigma(2, spectral_euler(ROT))
    assert spectral_euler(sq) == QZElement.e(Fraction(1, 2), 2)
    with pytest.raises(NotQuasiUnipotent):
        spectral_euler(ToralMap.of([[2]]))


def test_spectral_euler_frobenius_compat():
    for m in range(1, 13):
        f = cyclotomic_companion(m)
        base = spectral_euler(f)
        for n in range(1, 7):
            assert spectral_euler(linalg.mat_pow(f.matrix, n)) == sigma(n, base)


def test_spectral_euler_verschiebung_compat():
    for m in (1, 2, 3, 4, 6, 8, 12):
        f = cyclotomic_companion(m)
        base = spectral_euler(f)
        for n in range(1, 5):
            block = verschiebung_block(n, f)
            assert spectral_euler(block) == rho(n, base)


def test_verschiebung_block_power():
    f = cyclotomic_companion(4)
    block = verschiebung_block(3, f)
    cube = linalg.mat_pow(block, 3)
    assert cube == linalg.block_diag(f.matrix, linalg.block_diag(f.matrix, f.matrix))


def power_trace_char_series(m):
    """det(1 - t M) from power traces: its ghosts are -trace(M^k) (Newton's
    identities), and it stops at degree dim."""
    n = len(m)
    if n == 0:
        return Polynomial([1])
    power, traces = m, [-sum(m[i][i] for i in range(n))]
    for _ in range(n - 1):
        power = linalg.mat_mul(power, m)
        traces.append(-sum(power[i][i] for i in range(n)))
    return Polynomial([1, *unghost(GhostVector.of(traces)).coeffs])


def _random_matrices(seed, count, max_dim):
    """Cycles through integer entries in [-3, 3], in [-10^6, 10^6], and rationals."""
    rng = random.Random(seed)
    entries = (lambda: rng.randint(-3, 3), lambda: rng.randint(-10**6, 10**6),
               lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    for trial in range(count):
        d = rng.randint(1, max_dim)
        entry = entries[trial % 3]
        yield linalg.as_matrix([[entry() for _ in range(d)] for _ in range(d)])


def _same(p, q):
    return p == q and [type(c) for c in p.coeffs] == [type(c) for c in q.coeffs]


def test_char_series_matches_power_traces():
    for m in _random_matrices(601, 60, 14):
        assert _same(linalg.char_series(m), power_trace_char_series(m))
    # At d <= 32 the oracle's Fraction products are slow; sympy checks rationals there.
    for m in _random_matrices(602, 9, 32):
        if all(isinstance(x, int) for row in m for x in row):
            assert _same(linalg.char_series(m), power_trace_char_series(m))


def test_char_series_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _random_matrices(603, 30, 32):
        # det(x - M), lead first, is det(1 - t M) in ascending order.
        expected = sympy.Matrix(m).charpoly().all_coeffs()
        expected = Polynomial([Fraction(int(c.p), int(c.q)) for c in expected])
        assert linalg.char_series(m) == expected


def _prime_spy(monkeypatch):
    """The squares that ``linalg._prime_above`` is asked for, in order."""
    squares, real = [], linalg._prime_above
    monkeypatch.setattr(linalg, "_prime_above", lambda square: squares.append(square) or real(square))
    return squares


def test_char_series_picks_large_primes(monkeypatch):
    # Entries up to 10^6 at d = 32 need a prime past the table (2^540).
    rng = random.Random(604)
    m = linalg.as_matrix([[rng.randint(-10**6, 10**6) for _ in range(32)] for _ in range(32)])
    assert linalg._prime_above(_bound_square(m)) > linalg._PRIMES[-1] > 2**127 - 1
    squares = _prime_spy(monkeypatch)
    assert _same(linalg.char_series(m), power_trace_char_series(m))
    assert squares == [_bound_square(m)]


def test_char_series_edge_cases():
    assert linalg.char_series(()) == Polynomial([1])
    assert linalg.char_series(((5,),)) == Polynomial([1, -5])
    assert linalg.char_series(((Fraction(3, 4),),)).coeffs == (1, Fraction(-3, 4))
    for d in (1, 2, 5, 9):
        zero = linalg.as_matrix([[0] * d for _ in range(d)])
        assert linalg.char_series(zero) == Polynomial([1])
    rng = random.Random(605)
    for d in (2, 3, 6, 11):
        # Strictly triangular: nilpotent, with no pivot in any column.
        upper = linalg.as_matrix([[rng.randint(-4, 4) if j > i else 0 for j in range(d)]
                                  for i in range(d)])
        lower = linalg.as_matrix([[upper[j][i] for j in range(d)] for i in range(d)])
        assert linalg.char_series(upper) == Polynomial([1])
        assert linalg.char_series(lower) == Polynomial([1])
        # With a diagonal added: prod (1 - a_i t).
        diag = [rng.randint(-3, 3) for _ in range(d)]
        tri = linalg.as_matrix([[upper[i][j] + (diag[i] if i == j else 0) for j in range(d)]
                                for i in range(d)])
        expected = Polynomial([1])
        for a in diag:
            expected = expected * Polynomial([1, -a])
        assert linalg.char_series(tri) == expected
    # Companion blocks in a permuted basis: zero columns and row swaps.
    for _ in range(20):
        block = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6])).matrix
        for _ in range(rng.randint(1, 3)):
            other = cyclotomic_companion(rng.choice([1, 2, 3, 4, 6]))
            block = linalg.block_diag(block, other.matrix)
        perm = list(range(len(block)))
        rng.shuffle(perm)
        m = linalg.as_matrix([[block[i][j] for j in perm] for i in perm])
        assert _same(linalg.char_series(m), power_trace_char_series(m))


def _monic_companion_blocks(rng, d):
    """Companions of random monic polynomials with coefficients in [-4, 4]
    (zero constants included), block-summed to dimension d."""
    rows = ()
    while len(rows) < d:
        k = rng.randint(1, d - len(rows))
        p = Polynomial([rng.randint(-4, 4) for _ in range(k)] + [1])
        rows = linalg.block_diag(rows, companion(p).matrix)
    return rows


def _hessenberg_in_chain_order(m):
    """Whether m has no nonzero below its subdiagonal in ``_chain_order``."""
    d = len(m)
    order = linalg._chain_order(m) or range(d)
    assert sorted(order) == list(range(d))
    return all(not m[order[i]][order[j]] for j in range(d) for i in range(j + 2, d))


def test_chain_order_makes_permuted_companions_hessenberg():
    """Permuted companions and block companions, of cyclotomic products and
    of random monic polynomials, are upper Hessenberg in the chain order."""
    rng = random.Random(608)
    for trial in range(300):
        d = rng.randint(1, 24)
        if trial % 2:
            rows = _permuted(_monic_companion_blocks(rng, d), rng)
        else:
            rows = _quasi_unipotent(rng, d)[0].matrix
        assert _hessenberg_in_chain_order(rows)


def _exact_path_matrices(seed, count):
    """In turn: permuted companions and block companions, whose subdiagonal
    is zero between blocks; upper Hessenberg matrices with entries in
    [-10^6, 10^6], and with rational entries, some subdiagonal entries
    zero and stray entries above them; and matrices of dimension 0-2.  In
    a column with no nonzero below the diagonal, a lone nonzero above it
    is cleared: such a column leads up in the chain order, which can then
    leave the index order."""
    rng = random.Random(seed)
    entries = (lambda: rng.randint(-10**6, 10**6),
               lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    for trial in range(count):
        d, kind = rng.randint(3, 12), trial % 4
        if kind == 0:
            rows = (_permuted(_monic_companion_blocks(rng, d), rng) if trial % 8
                    else _quasi_unipotent(rng, d)[0].matrix)
        elif kind < 3:
            entry = entries[kind - 1]
            rows = [[entry() if i <= j + 1 and rng.random() < 0.7 else 0 for j in range(d)]
                    for i in range(d)]
            for j, col in enumerate(zip(*rows)):
                above = [i for i in range(j) if col[i]]
                if len(above) == 1 and not any(col[j + 1:]):
                    rows[above[0]][j] = 0
        else:
            d = trial // 4 % 3
            rows = [[rng.randint(-10**6, 10**6) for _ in range(d)] for _ in range(d)]
        yield linalg.as_matrix(rows)


def test_char_series_over_z_takes_no_prime(monkeypatch):
    """A matrix upper Hessenberg in the chain order runs the recurrence over
    Z, with no prime, and matches the power traces in value and coefficient
    type; a dense matrix takes one prime, the one its bound picks."""
    squares = _prime_spy(monkeypatch)
    for m in _exact_path_matrices(612, 120):
        assert _hessenberg_in_chain_order(m)
        assert _same(linalg.char_series(m), power_trace_char_series(m))
    assert squares == []
    rng = random.Random(613)
    dense = linalg.as_matrix([[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(8)]
                              for _ in range(8)])
    assert _same(linalg.char_series(dense), power_trace_char_series(dense))
    assert squares == [_bound_square(dense)]


def test_char_series_over_z_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _exact_path_matrices(614, 60):
        if len(m) <= 8:
            expected = sympy.Matrix(len(m), len(m), [x for row in m for x in row]).charpoly()
            expected = [Fraction(int(c.p), int(c.q)) for c in expected.all_coeffs()]
            assert _same(linalg.char_series(m), Polynomial(expected))


def _permutation_test_matrices(seed, count):
    """Sparse, dense, rational and derogatory matrices of dimension 0-16, in
    turn; the sparse ones have columns with one off-diagonal nonzero, which
    form chains, cycles and several leads to one row."""
    rng = random.Random(seed)
    small = lambda: rng.choice((-3, -2, -1, 1, 2, 3))
    for trial in range(count):
        d = trial % 17
        kind = trial % 4
        if kind == 0:
            cols = []
            for j in range(d):
                col = [0] * d
                if rng.random() < 0.6:
                    col[rng.randrange(d)] = small()
                    col[j] = rng.choice((0, 0, small()))
                else:
                    col = [small() if rng.random() < 0.3 else 0 for _ in range(d)]
                cols.append(col)
            rows = [list(row) for row in zip(*cols)]
        elif kind == 1:
            bound = rng.choice((3, 10**6))
            rows = [[rng.randint(-bound, bound) for _ in range(d)] for _ in range(d)]
        elif kind == 2:
            rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.4 else 0
                     for _ in range(d)] for _ in range(d)]
        else:
            half = _monic_companion_blocks(rng, d // 2) if d // 2 else ()
            rows = linalg.block_diag(half, half)
            if d % 2:
                rows = linalg.block_diag(rows, ((rng.randint(-3, 3),),))
            c = rng.randint(-2, 2)
            rows = [[x + c * (i == j) for j, x in enumerate(row)] for i, row in enumerate(rows)]
        yield linalg.as_matrix(rows)


def test_char_series_is_invariant_under_permutation():
    """det(1 - t P M P^T) = det(1 - t M) in value and coefficient type: the
    chain order is a permutation similarity, so it moves no output."""
    rng = random.Random(609)
    for m in _permutation_test_matrices(610, 400):
        expected = linalg.char_series(m)
        for _ in range(3):
            assert _same(linalg.char_series(linalg.as_matrix(_permuted(m, rng))), expected)


def test_char_series_in_chain_order_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _permutation_test_matrices(611, 200):
        if len(m) <= 6:
            expected = sympy.Matrix(len(m), len(m), [x for row in m for x in row]).charpoly()
            expected = [Fraction(int(c.p), int(c.q)) for c in expected.all_coeffs()]
            assert linalg.char_series(m) == Polynomial(expected)


def _lucas_lehmer(e):
    """Whether 2^e - 1 is prime, for prime e."""
    if e == 2:
        return True
    p, s = (1 << e) - 1, 4
    for _ in range(e - 2):
        s = (s * s - 2) % p
    return s == 0


def test_mersenne_table_is_prime():
    small = [e for e in linalg._MERSENNE_EXPONENTS if e <= 4423]
    assert len(small) == 20
    assert all(_lucas_lehmer(e) for e in small)
    assert not _lucas_lehmer(11) and not _lucas_lehmer(23)


def test_prime_table_is_proven():
    """Each Proth entry (k, e, a) proves p = k 2^e + 1 prime by Proth's
    theorem, and p lies just below its digit boundary 2^15 or 2^(30 j)."""
    boundaries = [15] + [30 * j for j in range(1, 19)]
    assert len(linalg._PROTH) == len(boundaries)
    for (k, e, a), b in zip(linalg._PROTH, boundaries):
        p = (k << e) + 1
        assert k % 2 == 1 and k < 1 << e
        assert pow(a, (p - 1) // 2, p) == p - 1
        assert 1 << (b - 1) <= p < 1 << b
    primes = linalg._PRIMES
    assert primes[:5] == (3, 7, 31, 127, 8191)
    assert primes[5:] == tuple((k << e) + 1 for k, e, _ in linalg._PROTH)
    assert list(primes) == sorted(set(primes))


def test_prime_table_matches_sympy():
    sympy = pytest.importorskip("sympy")
    assert all(sympy.isprime(p) for p in linalg._PRIMES)


def test_prime_choice():
    """The smallest tabled p with p^2 > square; past 2^540 the Mersenne primes."""
    primes = linalg._PRIMES
    assert linalg._prime_above(0) == 3
    for p, after in zip(primes, primes[1:] + (2**607 - 1,)):
        assert linalg._prime_above(p * p - 1) == p
        assert linalg._prime_above(p * p) == after
    assert linalg._prime_above((2**607 - 1) ** 2) == 2**1279 - 1
    # Past the table; no matrix this large is ever built.
    with pytest.raises(ValueError):
        linalg._prime_above(1 << (2 * linalg._MERSENNE_EXPONENTS[-1] + 1))


def _bound_square(m):
    """char_series's squared bound 4 max_k C(n, k)^2 R^(2k) for an integer matrix."""
    n, r2 = len(m), max((sum(x * x for x in row) for row in m), default=0)
    return max(4 * math.comb(n, k) ** 2 * r2**k for k in range(n + 1))


def test_square_bound_is_the_peak_term():
    """``_square_bound`` evaluates one term, where the rising terms turn; it
    equals the full maximum on dimensions 0-64 and on squared row norms
    that are zero, small (where two terms can tie) or sums of four squares."""
    rng = random.Random(615)
    for trial in range(400):
        n = trial % 65
        rows = [[0] * n for _ in range(n)]
        if n and trial % 5:
            top = rng.choice((1, 3, 10**3, 10**6)) if trial % 5 > 1 else 1
            rows[rng.randrange(n)][:4] = [rng.randint(-top, top) for _ in range(min(n, 4))]
        r2 = max((sum(x * x for x in row) for row in rows), default=0)
        assert linalg._square_bound(n, r2) == _bound_square(rows)


def _straddling(rng, d, p):
    """Two d x d integer matrices, equal but for entry (0, 0), whose bounds
    straddle p^2: the first picks the prime p, the second the next one.
    Their other entries are nonzero."""
    rest = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(d)] for _ in range(d)]

    def with_corner(x):
        rows = [row[:] for row in rest]
        rows[0][0] = x
        return linalg.as_matrix(rows)

    lo, hi = 0, p
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _bound_square(with_corner(mid)) < p * p:
            lo = mid
        else:
            hi = mid
    return with_corner(lo), with_corner(hi)


def test_char_series_at_prime_boundaries(monkeypatch):
    """Bounds just below and just above the tabled primes near 2^15, 2^30,
    2^60 and 2^90, on integer matrices and on the same matrices over 7.
    From d = 3 on, no column has a single off-diagonal nonzero, so the
    chain order is the index order, entry (d - 1, 0) is below the
    subdiagonal and the lift runs mod the prime the bound picks; every
    2 x 2 matrix is upper Hessenberg and runs over Z."""
    rng = random.Random(607)
    primes = linalg._PRIMES
    squares = _prime_spy(monkeypatch)
    for b in (15, 30, 60, 90):
        i = next(i for i, p in enumerate(primes) if p.bit_length() == b)
        for d in (2, 3, 4, 5):
            below, above = _straddling(rng, d, primes[i])
            assert linalg._prime_above(_bound_square(below)) == primes[i]
            assert linalg._prime_above(_bound_square(above)) == primes[i + 1]
            for m in (below, above):
                cases = [m]
                if math.lcm(*(Fraction(x, 7).denominator for row in m for x in row)) == 7:
                    cases.append(linalg.as_matrix([[Fraction(x, 7) for x in row] for row in m]))
                for case in cases:
                    squares.clear()
                    assert _same(linalg.char_series(case), power_trace_char_series(case))
                    assert squares == ([] if d == 2 else [_bound_square(m)])


def _dense_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def _integral_entries_are_ints(m):
    return all(type(x) is int or x.denominator != 1 for row in m for x in row)


def test_mat_pow_matches_repeated_products():
    """mat_pow and mat_mul against the dense product: equal values; on integer
    matrices every entry stays an int, and mat_pow gives integral entries
    as ints also on Fraction input."""
    rng = random.Random(608)

    def sparse(d):
        rows = [[0] * d for _ in range(d)]
        for _ in range(d * d // 4):
            rows[rng.randrange(d)][rng.randrange(d)] = rng.randint(-3, 3)
        return rows

    dense = [[[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)] for d in (3, 6)]
    half = [[[Fraction(rng.randint(-4, 4), 2) for _ in range(4)] for _ in range(4)]]
    mixed = [[[Fraction(1, 3) if (i + j) % 3 == 0 else rng.randint(-2, 2) for j in range(5)]
              for i in range(5)]]
    sparse_rational = [[[Fraction(x, 3) for x in row] for row in sparse(6)]]
    cases = dense + [sparse(d) for d in (4, 8, 12)] + half + mixed + sparse_rational
    cases += [[[-2]], [[Fraction(2, 3)]], [[0]], []]
    for rows in cases:
        m = linalg.as_matrix(rows)
        integral = all(type(x) is int for row in m for x in row)
        expected = linalg.identity(len(m))
        for e in range(10):
            power = linalg.mat_pow(m, e)
            assert power == expected
            assert _integral_entries_are_ints(power)
            if integral:
                assert all(type(x) is int for row in power for x in row)
                product = linalg.mat_mul(m, expected)
                assert product == _dense_mul(m, expected)
                assert all(type(x) is int for row in product for x in row)
            expected = _dense_mul(expected, m)
    with pytest.raises(ValueError):
        linalg.mat_pow(((1,),), -1)


def test_not_quasi_unipotent_degree():
    """NotQuasiUnipotent names the degree of the non-cyclotomic part."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(606)
    partly_cyclotomic = 0
    for _ in range(150):
        d = rng.randint(2, 6)
        m = linalg.as_matrix([[rng.randint(-1, 1) for _ in range(d)] for _ in range(d)])
        cp = linalg.charpoly(m)
        leftover = sum(factor.degree() * mult for factor, mult in
                       sympy.Poly(list(reversed(cp.coeffs)), x).factor_list()[1]
                       if not factor.is_cyclotomic)
        if leftover == 0:
            assert sum(totient(i) for i in cyclotomic_factor(cp)) == d
            continue
        partly_cyclotomic += leftover < d
        with pytest.raises(NotQuasiUnipotent) as err:
            cyclotomic_factor(cp)
        assert err.value.detail == f"non-cyclotomic factor of degree {leftover} remains"
    assert partly_cyclotomic > 10
