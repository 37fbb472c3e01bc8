"""Finite combinatorial model of cyclic actions over a base.

A cyclic action is a finite set {0..size-1} with a chosen generator
permutation whose N-th power is the identity, N being the stored level (a
profinite action factoring through Z/NZ).  A relative object adds an
equivariant map to a base action at the same level.

The model of an action is its list of orbits (the cycles of the
generator), each of length dividing the level; the k-th power of the
generator rotates each orbit by k mod its length.

The two Bost-Connes operations act as follows:

* sigma: replace the generator by its n-th power (precompose the action),
  keeping the level;
* geometric Verschiebung: spread the set over n copies, cycling the copies
  and applying the original generator once per full cycle, at level N*n,
  so the n-th power of the new generator is the old one times identity.

Periodic points of period k are the fixed points of the k-th power of the
generator, that is the union of the orbits whose length divides k.  They
satisfy the reindexing identities tested exhaustively in the suite:
precomposition turns k-periodicity into nk-periodicity, and the
Verschiebung has k-periodic points only for n | k, namely n stacked copies
of the (k/n)-periodic points.

The Euler characteristic with values in the group ring of Q/Z sends an
orbit of size d to the full set of division points of order dividing d
(the regular character sum); it intertwines sigma with the group-ring
endomorphisms and the Verschiebung with the division-point maps.

Isomorphism of actions is decided by orbit sizes (the cycle type), which
classifies effectively finite actions; for relative objects the invariant
is, per base orbit, the multiset of total-orbit sizes lying over it.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

from .errors import _integer, _json_list, _size
from .qz import QZElement, _primitive_points, rho, sigma
from .record import Record


class CyclicAction(Record):
    """Permutation action of Z/level on {0..size-1}; perm is the generator."""

    level: int
    perm: tuple[int, ...]

    def __post_init__(self):
        _size("level", self.level)
        if list(range(_size("points of an action", len(self.perm)))) != sorted(self.perm):
            raise ValueError("perm must be a permutation of 0..size-1")
        # Checked second: orbits() only ends on a permutation.
        if any(self.level % len(orbit) for orbit in self.orbits()):
            raise ValueError(f"generator must have order dividing the level {self.level}")

    @property
    def size(self) -> int:
        return len(self.perm)

    @staticmethod
    def of(level: int, perm: Sequence[int]) -> "CyclicAction":
        return CyclicAction(level, tuple(perm))

    @staticmethod
    def trivial(level: int, size: int) -> "CyclicAction":
        return CyclicAction(level, tuple(range(size)))

    @staticmethod
    def cycle(n: int, level: int | None = None) -> "CyclicAction":
        """A single n-cycle, at level n unless specified."""
        return CyclicAction(level or n, tuple((i + 1) % n for i in range(n)))

    def power(self, k: int) -> tuple[int, ...]:
        """The permutation perm^k: each orbit rotated by k mod its length."""
        _size("exponent", k)
        out = [0] * self.size
        for orbit in self.orbits():
            r = k % len(orbit)
            for s, t in zip(orbit, orbit[r:] + orbit[:r]):
                out[s] = t
        return tuple(out)

    def orbits(self) -> list[tuple[int, ...]]:
        seen = [False] * self.size
        out = []
        for start in range(self.size):
            if seen[start]:
                continue
            orbit = [start]
            seen[start] = True
            current = self.perm[start]
            while current != start:
                orbit.append(current)
                seen[current] = True
                current = self.perm[current]
            out.append(tuple(orbit))
        return out

    def orbit_type(self) -> tuple[int, ...]:
        """Sorted orbit sizes; a complete isomorphism invariant of the action."""
        return tuple(sorted(len(o) for o in self.orbits()))

    def to_json(self) -> dict:
        return {"level": self.level, "perm": list(self.perm)}

    @staticmethod
    def from_json(data: dict) -> "CyclicAction":
        perm = _json_list(data["perm"], "perm")
        return CyclicAction.of(_integer(data["level"]), [_integer(x) for x in perm])


class RelativeObject(Record):
    """An equivariant map between actions at the same level."""

    total: CyclicAction
    base: CyclicAction
    fibration: tuple[int, ...]

    def __post_init__(self):
        if self.total.level != self.base.level:
            raise ValueError("total and base must share a level")
        if len(self.fibration) != self.total.size:
            raise ValueError("the map must be defined on every point of the total set")
        if any(not 0 <= b < self.base.size for b in self.fibration):
            raise ValueError("the map must land in the base set")
        for s in range(self.total.size):
            if self.fibration[self.total.perm[s]] != self.base.perm[self.fibration[s]]:
                raise ValueError("the map must be equivariant")

    @staticmethod
    def of(total: CyclicAction, base: CyclicAction, fibration: Sequence[int]) -> "RelativeObject":
        return RelativeObject(total, base, tuple(fibration))

    def orbit_type(self):
        """Per base orbit, the sorted multiset of total-orbit sizes over it."""
        base_orbits = self.base.orbits()
        which = {}
        for idx, orbit in enumerate(base_orbits):
            for b in orbit:
                which[b] = idx
        over: dict[int, list[int]] = {i: [] for i in range(len(base_orbits))}
        for orbit in self.total.orbits():
            over[which[self.fibration[orbit[0]]]].append(len(orbit))
        return tuple(sorted(
            (len(base_orbits[i]), tuple(sorted(sizes))) for i, sizes in over.items()))

    def to_json(self) -> dict:
        return {"total": self.total.to_json(), "base": self.base.to_json(),
                "map": list(self.fibration)}

    @staticmethod
    def from_json(data: dict) -> "RelativeObject":
        return RelativeObject.of(CyclicAction.from_json(data["total"]),
                                 CyclicAction.from_json(data["base"]),
                                 [_integer(x) for x in _json_list(data["map"], "map")])


# ------------------------------------------------------------- operations

def sigma_action(n: int, a: CyclicAction) -> CyclicAction:
    """Precompose: the generator becomes perm^n, level unchanged."""
    return CyclicAction(a.level, a.power(_size("index", n)))


def verschiebung_action(n: int, a: CyclicAction) -> CyclicAction:
    """Spread over n copies at level n*level; copy j of point s has index
    j*size + s.  The generator advances the copy index (index + size) and
    sends the last copy through the old generator, so its n-th power is
    perm x id."""
    _size("points of an action", _size("index", n) * a.size)
    return CyclicAction(a.level * n, tuple(range(a.size, n * a.size)) + a.perm)


def periodic_points(a: CyclicAction, k: int) -> frozenset[int]:
    """Fixed points of the k-th power of the generator: the union of the
    orbits whose length divides k."""
    _size("period", k)
    return frozenset(s for orbit in a.orbits() if not k % len(orbit) for s in orbit)


def bc_sigma(n: int, x: RelativeObject) -> RelativeObject:
    return RelativeObject.of(sigma_action(n, x.total), sigma_action(n, x.base), x.fibration)


def bc_rho(n: int, x: RelativeObject) -> RelativeObject:
    return RelativeObject.of(verschiebung_action(n, x.total), verschiebung_action(n, x.base),
                             [j * x.base.size + b for j in range(n) for b in x.fibration])


def euler_char(a: CyclicAction) -> QZElement:
    """Each orbit of size d contributes the division points of order
    dividing d: sum over r with d*r = 0 of e(r), so each divisor e of d
    adds the points of exact order e."""
    orders: dict[int, int] = {}
    for d, k in Counter(map(len, a.orbits())).items():
        for e in range(1, d + 1):
            if not d % e:
                orders[e] = orders.get(e, 0) + k
    return _primitive_points(orders)


def check_relations(n: int, a: CyclicAction, kmax: int) -> dict:
    """The reindexing identities of sigma_action and verschiebung_action on
    the periodic points at k = 1..kmax, then their Euler characteristics'
    intertwining with sigma and rho, as the JSON object of ``equivariant
    check``: {"ok": true, "n", "kmax"}, or {"ok": false, "failed"} naming
    the first identity that fails.  kmax is a period: at least 1."""
    _size("period", kmax)
    shifted = sigma_action(n, a)
    spread = verschiebung_action(n, a)
    # Periodic points depend on which orbit sizes divide k: period n*lcm.
    last = min(kmax, n * math.lcm(*a.orbit_type()))
    _size("point visits of an equivariant check", last * spread.size)
    for k in range(1, last + 1):
        if periodic_points(shifted, k) != periodic_points(a, n * k):
            return {"ok": False, "failed": f"sigma periodic points at k={k}"}
        pp = periodic_points(spread, k)
        if k % n:
            expected = frozenset()
        else:
            base = periodic_points(a, k // n)
            expected = frozenset(j * a.size + s for j in range(n) for s in base)
        if pp != expected:
            return {"ok": False, "failed": f"verschiebung periodic points at k={k}"}
    base_euler = euler_char(a)
    if euler_char(shifted) != sigma(n, base_euler):
        return {"ok": False, "failed": "sigma euler intertwining"}
    if euler_char(spread) != rho(n, base_euler):
        return {"ok": False, "failed": "verschiebung euler intertwining"}
    return {"ok": True, "n": n, "kmax": kmax}
