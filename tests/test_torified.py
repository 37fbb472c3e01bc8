import random

import pytest

from bcwitt.errors import HalfTwistPresent, NotEffectivelyTorified
from bcwitt.torified import (
    LClass,
    LeveledClass,
    TorifiedClass,
    bb_assemble,
    bc_rho,
    euler_characteristic,
    f1m_points,
    l_to_t,
    t_to_l,
    virtual_motive,
)

# Moduli-space example: L-basis 1 + 2L + ... + L^17 and its torified form.
M41_L = [1, 2, 6, 10, 14, 15, 16, 16, 16, 16, 16, 16, 15, 14, 10, 6, 2, 1]
M41_T = [192, 1632, 7468, 23370, 54320, 97643, 139008, 159082, 147653,
         111606, 68678, 34230, 13665, 4284, 1020, 174, 19, 1]


def random_class(rng, degree=6, bound=9):
    return TorifiedClass.of([rng.randint(0, bound) for _ in range(rng.randint(1, degree + 1))])


def test_ring_ops():
    p1 = TorifiedClass.of([2, 1])
    assert p1 + p1 == TorifiedClass.of([4, 2])
    assert p1 * p1 == TorifiedClass.of([4, 4, 1])
    x = TorifiedClass.of([3, 0, 2])
    assert TorifiedClass.point() * x == x


def test_t_to_l():
    assert t_to_l(TorifiedClass.of([0, 0, 1])) == LClass.from_integer_coeffs([1, -2, 1])
    assert t_to_l(TorifiedClass.of([2, 1])) == LClass.from_integer_coeffs([1, 1])


def test_l_to_t():
    assert l_to_t(LClass.from_integer_coeffs([1, 1])) == TorifiedClass.of([2, 1])
    # The detail prints the T-coefficients as a list.
    with pytest.raises(NotEffectivelyTorified, match=r"^T-coefficients \[-1, 1\] have a negative"):
        l_to_t(LClass.from_integer_coeffs([-2, 1]))
    with pytest.raises(NotEffectivelyTorified, match=r"^T-coefficients \[-4, 3, 3, 1\] have"):
        l_to_t(LClass.from_doubled({0: -5, 6: 1}))
    with pytest.raises(NotEffectivelyTorified):
        l_to_t(LClass.from_doubled({-2: 1}))
    with pytest.raises(HalfTwistPresent):
        l_to_t(LClass.from_doubled({1: 1}))


def test_l_t_roundtrip():
    rng = random.Random(61)
    for _ in range(40):
        c = random_class(rng, degree=20)
        assert l_to_t(t_to_l(c)) == c


def test_f1m_points_small():
    assert f1m_points(TorifiedClass.of([2, 1]), 5) == 7
    assert f1m_points(TorifiedClass.point(), 99) == 1
    assert euler_characteristic(TorifiedClass.of([5, 3, 1])) == 5


def test_f1m_ring_hom():
    rng = random.Random(67)
    for _ in range(25):
        a, b = random_class(rng), random_class(rng)
        m = rng.randint(1, 20)
        assert f1m_points(a + b, m) == f1m_points(a, m) + f1m_points(b, m)
        assert f1m_points(a * b, m) == f1m_points(a, m) * f1m_points(b, m)


def test_moduli_space_golden():
    cls = l_to_t(LClass.from_integer_coeffs(M41_L))
    assert list(cls.a) == M41_T
    assert euler_characteristic(cls) == 192
    assert f1m_points(cls, 1) == 864045
    assert f1m_points(cls, 2) == 383699680
    assert f1m_points(cls, 3) == 36177267945
    assert t_to_l(cls) == LClass.from_integer_coeffs(M41_L)


def test_bb_assemble():
    # A single affine line: one point cell of dimension 1.
    assert bb_assemble([(TorifiedClass.point(), 1)]) == TorifiedClass.of([1, 1])
    # Cell decomposition of the projective line.
    assert bb_assemble([(TorifiedClass.point(), 0), (TorifiedClass.point(), 1)]) \
        == TorifiedClass.of([2, 1])
    p1 = TorifiedClass.of([2, 1])
    assert bb_assemble([(p1, 1)]) == p1 * TorifiedClass.of([1, 1])
    # All d_i = 0 reduces to the plain sum.
    rng = random.Random(71)
    pieces = [(random_class(rng), 0) for _ in range(4)]
    total = TorifiedClass.zero()
    for z, _ in pieces:
        total = total + z
    assert bb_assemble(pieces) == total


def test_virtual_motive():
    assert virtual_motive(LClass.from_integer_coeffs([0, 1]), 2) == \
        LClass.from_integer_coeffs([1])
    v = virtual_motive(LClass.from_integer_coeffs([1, 1]), 1)
    assert v == LClass.from_doubled({-1: 1, 1: 1})
    assert virtual_motive(LClass.from_integer_coeffs([0, 0, 1]), 3) == \
        LClass.from_doubled({1: 1})
    with pytest.raises(HalfTwistPresent):
        virtual_motive(LClass.from_doubled({1: 1}), 1)


def test_l_class_canonical_form():
    """Equal keys sum, zero sums drop out and keys ascend, from a map or from
    pairs, so equal classes are equal records."""
    a = LClass.from_doubled([(4, 1), (-1, 2), (4, -1), (0, 3), (-1, 1)])
    assert a.c2 == ((-1, 3), (0, 3))
    assert a == LClass.from_doubled({0: 3, -1: 3, 7: 0})
    assert a + LClass.from_doubled({0: -3}) == LClass.from_doubled({-1: 3})
    assert (a + LClass.from_doubled({-1: -3, 0: -3})).c2 == ()


def test_leveled_bc_maps():
    x = LeveledClass(TorifiedClass.of([2, 1]), 2)
    assert bc_rho(3, x) == LeveledClass(TorifiedClass.of([6, 3]), 6)
    assert bc_rho(2, x).cls == 2 * x.cls


def test_json():
    c = TorifiedClass.of([2, 1])
    assert TorifiedClass.from_json(c.to_json()) == c
    lc = t_to_l(c)
    assert LClass.from_json(lc.to_json()) == lc
    half = LClass.from_doubled({-1: 2, 4: 1})
    assert half.to_json() == {"L": {"-1/2": 2, "2": 1}}
    assert LClass.from_json(half.to_json()) == half
    # Keys naming the same exponent sum, as any repeated key does.
    assert LClass.from_json({"L": {"1": 2, "2/2": 3, "-1/2": 1, "-2/4": -1}}) == \
        LClass.from_doubled([(2, 5)])
    lv = LeveledClass(c, 3)
    assert LeveledClass.from_json(lv.to_json()) == lv
