import random
from fractions import Fraction

import pytest

from bcwitt.arith import Polynomial
from bcwitt.endo import (
    EndoObject,
    GradedEndoObject,
    delta,
    direct_sum,
    endo_frobenius,
    endo_verschiebung,
    l_map,
    phi_mu,
    tensor,
)
from bcwitt.errors import NotSplit
from bcwitt.witt import RationalWitt, frobenius, ghost, verschiebung, witt_add, witt_mul


def random_endo(rng, dim):
    return EndoObject.of([[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])


def test_sum_and_tensor():
    a, b = EndoObject.scalar(2), EndoObject.scalar(3)
    assert direct_sum(a, b).matrix == ((2, 0), (0, 3))
    assert tensor(a, b).matrix == ((6,),)
    assert direct_sum(a, b).dim == a.dim + b.dim
    c = random_endo(random.Random(1), 2)
    assert tensor(c, direct_sum(a, b)).dim == c.dim * 2


def test_tensor_stores_integral_products_as_ints():
    """kron stores a product as as_matrix would: an integral one as an int,
    also when its factors are Fractions."""
    assert type(tensor(EndoObject.of([[Fraction(1, 2)]]), EndoObject.scalar(2)).matrix[0][0]) is int
    rng = random.Random(418)
    for _ in range(60):
        a, b = (EndoObject.of([[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                                for _ in range(d)] for _ in range(d)])
                for d in (rng.randint(0, 4), rng.randint(0, 4)))
        nb = b.dim
        want = EndoObject.of([[a.matrix[i // nb][j // nb] * b.matrix[i % nb][j % nb]
                               for j in range(a.dim * nb)] for i in range(a.dim * nb)]).matrix
        got = tensor(a, b).matrix
        assert got == want
        assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in want]


def test_l_map():
    assert l_map(EndoObject.scalar(5)) == RationalWitt.of([1], [1, -5])
    swap = EndoObject.of([[0, 1], [1, 0]])
    lm = l_map(swap)
    assert lm == RationalWitt.of([1], [1, 0, -1])
    assert lm.ghosts(4).values == (0, 2, 0, 2)
    assert l_map(EndoObject.zero()) == RationalWitt.one()


def test_l_map_takes_sum_to_witt_add():
    rng = random.Random(43)
    N = 10
    for _ in range(20):
        a, b = random_endo(rng, rng.randint(1, 3)), random_endo(rng, rng.randint(1, 3))
        lhs = l_map(direct_sum(a, b)).ghosts(N)
        rhs = ghost(witt_add(l_map(a).expand(N), l_map(b).expand(N)))
        assert lhs == rhs
        lhs = l_map(tensor(a, b)).ghosts(N)
        rhs = ghost(witt_mul(l_map(a).expand(N), l_map(b).expand(N)))
        assert lhs == rhs


def test_endo_frobenius_verschiebung_shapes():
    a = EndoObject.scalar(Fraction(3))
    v2 = endo_verschiebung(2, a)
    assert v2.matrix == ((0, 3), (1, 0))
    assert l_map(v2) == RationalWitt.of([1], [1, 0, -3])
    assert endo_frobenius(2, EndoObject.scalar(3)).matrix == ((9,),)
    fv = endo_frobenius(2, endo_verschiebung(2, EndoObject.scalar(5)))
    assert fv.matrix == ((5, 0), (0, 5))


def test_endo_verschiebung_matches_its_entries():
    """Block (0, n - 1) is e's matrix, blocks (b + 1, b) are identities and
    the rest is zero, entry by entry, in value and type (ints stay ints)."""
    rng = random.Random(48)
    for n in range(1, 5):
        for d in range(6):
            e = EndoObject.of([[rng.choice((0, 2, -1, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
                                for _ in range(d)] for _ in range(d)])

            def entry(i, j):
                if i < d and j >= (n - 1) * d:
                    return e.matrix[i][j - (n - 1) * d]
                return 1 if i // d == j // d + 1 and i % d == j % d else 0

            expected = tuple(tuple(entry(i, j) for j in range(n * d)) for i in range(n * d))
            got = endo_verschiebung(n, e).matrix
            assert got == expected
            assert [list(map(type, row)) for row in got] == [list(map(type, row)) for row in expected]


def test_bridge_diagrams():
    rng = random.Random(47)
    N = 12
    for _ in range(15):
        e = random_endo(rng, rng.randint(1, 3))
        for n in (1, 2, 3, 4):
            lhs = l_map(endo_frobenius(n, e)).ghosts(N // n or 1)
            rhs = ghost(frobenius(n, l_map(e).expand(N)))
            assert lhs == rhs
            lhs = l_map(endo_verschiebung(n, e)).ghosts(N)
            rhs = ghost(verschiebung(n, l_map(e).expand(N)))
            assert lhs == rhs


def test_fnvn_is_scaling_on_ghosts():
    rng = random.Random(53)
    for _ in range(10):
        e = random_endo(rng, 2)
        n = rng.randint(1, 4)
        fv = endo_frobenius(n, endo_verschiebung(n, e))
        assert l_map(fv).ghosts(8) == l_map(e).ghosts(8).scale(n)


def test_delta():
    g = GradedEndoObject(plus=EndoObject.scalar(2), minus=EndoObject.scalar(3))
    assert delta(g) == RationalWitt.of([1, -3], [1, -2])
    same = GradedEndoObject(plus=EndoObject.scalar(7), minus=EndoObject.scalar(7))
    assert delta(same) == RationalWitt.one()
    g2 = GradedEndoObject(plus=EndoObject.diag([2, 3]), minus=EndoObject.scalar(3))
    assert delta(g2) == RationalWitt.of([1], [1, -2])


def test_phi_mu():
    z = RationalWitt.of([1, -1], [1, -3])
    g = phi_mu(z)
    assert g.plus.matrix == ((3,),)
    assert g.minus.matrix == ((1,),)
    assert type(g.plus.matrix[0][0]) is int and type(g.minus.matrix[0][0]) is int
    g0 = phi_mu(RationalWitt.one())
    assert g0.plus.dim == 0 and g0.minus.dim == 0
    # 1 - t^2 = (1 - t)(1 + t) splits.
    g1 = phi_mu(RationalWitt.of([1], [1, 0, -1]))
    assert sorted(x[i] for i, x in enumerate(g1.plus.matrix)) == [-1, 1]
    with pytest.raises(NotSplit):
        phi_mu(RationalWitt.of([1], [1, 1, 1]))


def test_delta_phi_mu_identity():
    rng = random.Random(59)
    for _ in range(25):
        alphas = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 4))]
        betas = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 4))]
        num = Polynomial([1])
        for a in alphas:
            num = num * Polynomial([1, -a])
        den = Polynomial([1])
        for b in betas:
            den = den * Polynomial([1, -b])
        z = RationalWitt.of(num, den)
        assert delta(phi_mu(z)) == z


def test_json_roundtrip():
    e = EndoObject.of([[0, Fraction(1, 2)], [1, 0]])
    assert EndoObject.from_json(e.to_json()) == e
    assert e.to_json() == {"matrix": ["0", "1/2", "1", "0"]}
    assert EndoObject.from_json({"matrix": []}) == EndoObject.of([])
    # An integral Fraction is stored as an int, as from_json stores "6/2".
    for e in (EndoObject.of([[Fraction(3)]]), EndoObject.from_json({"matrix": ["6/2"]})):
        assert e.matrix == ((3,),) and type(e.matrix[0][0]) is int
    for size in (2, 8, 24, 26, 99):
        with pytest.raises(ValueError):
            EndoObject.from_json({"matrix": ["1"] * size})
