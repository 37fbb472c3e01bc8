import json
import math
import random
import time
from fractions import Fraction

import pytest

from bcwitt.cli import main
from bcwitt.equivariant import (
    CyclicAction,
    RelativeObject,
    bc_rho,
    bc_sigma,
    euler_char,
    periodic_points,
    sigma_action,
    verschiebung_action,
)
from bcwitt.qz import QZElement, rho, sigma


# ----------------------------------------------- constructions (tests only)

def disjoint_union(a: CyclicAction, b: CyclicAction) -> CyclicAction:
    """Union at the common level (lcm), b's points shifted past a's."""
    level = math.lcm(a.level, b.level)
    perm = list(a.perm) + [a.size + t for t in b.perm]
    return CyclicAction(level, tuple(perm))


def product(a: CyclicAction, b: CyclicAction) -> CyclicAction:
    """Diagonal action on the product set, at level lcm(a.level, b.level)."""
    level = math.lcm(a.level, b.level)
    perm = [0] * (a.size * b.size)
    for s in range(a.size):
        for t in range(b.size):
            perm[s * b.size + t] = a.perm[s] * b.size + b.perm[t]
    return CyclicAction(level, tuple(perm))


def relative_product(x: RelativeObject, y: RelativeObject) -> RelativeObject:
    """Componentwise product with diagonal actions."""
    total = product(x.total, y.total)
    base = product(x.base, y.base)
    fib = [0] * total.size
    for s in range(x.total.size):
        for t in range(y.total.size):
            fib[s * y.total.size + t] = x.fibration[s] * y.base.size + y.fibration[t]
    return RelativeObject.of(total, base, fib)


def relative_disjoint_union(x: RelativeObject, y: RelativeObject) -> RelativeObject:
    total = disjoint_union(x.total, y.total)
    base = disjoint_union(x.base, y.base)
    fib = list(x.fibration) + [x.base.size + b for b in y.fibration]
    return RelativeObject.of(total, base, fib)


def random_action(rng, max_level=8, max_size=10):
    """A random action: shuffle cycles whose lengths divide the level."""
    level = rng.randint(1, max_level)
    sizes = []
    room = rng.randint(0, max_size)
    choices = [d for d in range(1, level + 1) if level % d == 0]
    while sum(sizes) < room:
        d = rng.choice(choices)
        if sum(sizes) + d > max_size:
            break
        sizes.append(d)
    points = list(range(sum(sizes)))
    rng.shuffle(points)
    perm = [0] * len(points)
    idx = 0
    for d in sizes:
        cycle = points[idx:idx + d]
        for i, p in enumerate(cycle):
            perm[p] = cycle[(i + 1) % d]
        idx += d
    return CyclicAction.of(level, perm)


def test_action_validation():
    with pytest.raises(ValueError, match=r"^generator must have order dividing the level 2$"):
        CyclicAction.of(2, [1, 2, 0])  # 3-cycle has order 3, not dividing 2
    with pytest.raises(ValueError, match=r"^perm must be a permutation of 0\.\.size-1$"):
        CyclicAction.of(3, [0, 0, 1])
    # Rejected before its orbits are walked: from 0 the walk never returns.
    with pytest.raises(ValueError, match=r"^perm must be a permutation"):
        CyclicAction.of(3, [1, 1, 0])
    CyclicAction.of(6, [1, 2, 0])


def binary_power(a: CyclicAction, k: int) -> tuple[int, ...]:
    """perm^k by binary powering of the permutation: the reference for the
    orbit rotation of CyclicAction.power."""
    out = list(range(a.size))
    base = list(a.perm)
    while k:
        if k & 1:
            out = [base[i] for i in out]
        base = [base[i] for i in base]
        k >>= 1
    return tuple(out)


def test_power_and_periodic_points_match_binary_powering():
    rng = random.Random(137)
    for _ in range(60):
        a = random_action(rng, 12, 16)
        huge = [10**40 + rng.randrange(2 * a.level) for _ in range(4)]
        for k in [*range(3 * a.level + 1), *huge]:
            want = binary_power(a, k)
            assert a.power(k) == want
            if k:
                assert periodic_points(a, k) == frozenset(
                    s for s in range(a.size) if want[s] == s)


def test_periodic_points_at_a_huge_level_stay_fast(capsys):
    # A 20000-point involution at a level of 4001 digits: the orbit model
    # reads k mod 2 per orbit, where binary powering took 13000 squarings.
    level = 10**4000
    action = json.dumps({"level": level, "perm": [s ^ 1 for s in range(20000)]})
    start = time.perf_counter()
    code = main(["equivariant", "periodic", "--k", str(level + 1), "--action", action])
    elapsed = time.perf_counter() - start
    assert (code, capsys.readouterr().out) == (0, '{"points":[]}\n')
    assert elapsed < 2.0


def test_sigma_action():
    six = CyclicAction.cycle(6)
    squared = sigma_action(2, six)
    assert squared.orbit_type() == (3, 3)
    assert sigma_action(1, six) == six
    assert sigma_action(6, six).orbit_type() == (1,) * 6


def test_verschiebung_action():
    fixed = CyclicAction.trivial(2, 1)
    v3 = verschiebung_action(3, fixed)
    assert v3.level == 6
    assert v3.orbit_type() == (3,)
    two = CyclicAction.cycle(2)
    v2 = verschiebung_action(2, two)
    assert v2.level == 4
    assert v2.orbit_type() == (4,)
    # The n-th power of the spread generator is the original times identity.
    any_action = CyclicAction.of(4, [1, 2, 3, 0, 4])
    spread = verschiebung_action(2, any_action)
    square = spread.power(2)
    for j in range(2):
        for s in range(any_action.size):
            assert square[j * any_action.size + s] == j * any_action.size + any_action.perm[s]


def test_periodic_points_basic():
    six = CyclicAction.cycle(6)
    assert periodic_points(six, 6) == frozenset(range(6))
    assert periodic_points(six, 4) == frozenset()
    trivial = CyclicAction.trivial(4, 5)
    assert periodic_points(trivial, 3) == frozenset(range(5))


def test_euler_char_examples():
    assert euler_char(CyclicAction.trivial(3, 1)) == QZElement.e(0)
    three = CyclicAction.cycle(3)
    third_points = QZElement.e(0) + QZElement.e(Fraction(1, 3)) + QZElement.e(Fraction(2, 3))
    assert euler_char(three) == third_points
    both = disjoint_union(three, CyclicAction.trivial(3, 1))
    assert euler_char(both) == QZElement.e(0, 2) + QZElement.e(Fraction(1, 3)) + QZElement.e(Fraction(2, 3))


def test_euler_intertwining_random():
    rng = random.Random(109)
    for _ in range(60):
        a = random_action(rng)
        n = rng.randint(1, 6)
        assert euler_char(sigma_action(n, a)) == sigma(n, euler_char(a))
        assert euler_char(verschiebung_action(n, a)) == rho(n, euler_char(a))


def test_sigma_coprime_is_isomorphic():
    rng = random.Random(113)
    for _ in range(40):
        a = random_action(rng)
        coprime = [n for n in range(1, 12) if math.gcd(n, a.level) == 1]
        n = rng.choice(coprime)
        assert sigma_action(n, a).orbit_type() == a.orbit_type()


def test_euler_additive_multiplicative():
    rng = random.Random(127)
    for _ in range(30):
        a, b = random_action(rng, 6, 8), random_action(rng, 6, 8)
        assert euler_char(disjoint_union(a, b)) == euler_char(a) + euler_char(b)
        assert euler_char(product(a, b)) == euler_char(a) * euler_char(b)


def _point_over_point(level=1):
    pt = CyclicAction.trivial(level, 1)
    return RelativeObject.of(pt, pt, [0])


def test_relative_validation():
    three = CyclicAction.cycle(3, level=3)
    pt = CyclicAction.trivial(3, 1)
    RelativeObject.of(three, pt, [0, 0, 0])
    with pytest.raises(ValueError):
        RelativeObject.of(three, CyclicAction.cycle(3), [0, 0, 2])  # not equivariant
    with pytest.raises(ValueError):
        RelativeObject.of(three, CyclicAction.trivial(6, 1), [0, 0, 0])  # level mismatch


def test_bc_rho_point():
    x = _point_over_point()
    rx = bc_rho(2, x)
    assert rx.total.orbit_type() == (2,)
    assert rx.base.orbit_type() == (2,)
    assert rx.total.level == 2


def test_composition_orbit_types():
    # sigma_n . rho_n is the n-fold self-sum; rho_n . sigma_n the product
    # with the n-cycle over itself.
    three_over_pt = RelativeObject.of(CyclicAction.cycle(3), CyclicAction.trivial(3, 1), [0, 0, 0])
    x = three_over_pt
    n = 2
    sr = bc_sigma(n, bc_rho(n, x))
    self_sum = relative_disjoint_union(x, x)
    assert sr.orbit_type() == self_sum.orbit_type()

    rs = bc_rho(n, bc_sigma(n, x))
    ncycle = CyclicAction.cycle(n)
    zn = RelativeObject.of(ncycle, ncycle, list(range(n)))
    assert rs.orbit_type() == relative_product(x, zn).orbit_type()


def test_composition_orbit_types_random():
    rng = random.Random(131)
    for _ in range(25):
        total = random_action(rng, 6, 8)
        # Base: quotient to a point keeps equivariance trivially.
        base = CyclicAction.trivial(total.level, 1)
        x = RelativeObject.of(total, base, [0] * total.size)
        n = rng.randint(1, 4)
        sr = bc_sigma(n, bc_rho(n, x))
        acc = x
        for _ in range(n - 1):
            acc = relative_disjoint_union(acc, x)
        assert sr.orbit_type() == acc.orbit_type()
        rs = bc_rho(n, bc_sigma(n, x))
        ncycle = CyclicAction.cycle(n)
        zn = RelativeObject.of(ncycle, ncycle, list(range(n)))
        assert rs.orbit_type() == relative_product(x, zn).orbit_type()


def test_json_roundtrip():
    a = CyclicAction.of(4, [1, 2, 3, 0])
    assert CyclicAction.from_json(a.to_json()) == a
    x = RelativeObject.of(a, CyclicAction.of(4, [1, 0, 2]), [0, 1, 0, 1])
    assert RelativeObject.from_json(x.to_json()) == x
