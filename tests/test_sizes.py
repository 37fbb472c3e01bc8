"""Every entry of the size table ``errors._SIZES``, at its bounds.

Each entry is tested through a public function where a caller's size
enters, on an input that is cheap at the bound: the least value passes and
one less is a ValueError; the largest value passes and one more is
LimitExceeded, raised before any work.  No unbounded value is ever run.
"""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from bcwitt import linalg
from bcwitt.arith import Polynomial, factorize
from bcwitt.cli import main
from bcwitt.dynamical import ToralMap, lefschetz_numbers, torified_dynamical_zeta
from bcwitt.endo import EndoObject, endo_frobenius, endo_verschiebung
from bcwitt.equivariant import (CyclicAction, check_relations, periodic_points, sigma_action,
                                verschiebung_action)
from bcwitt.errors import LimitExceeded, _SIZES, _size
from bcwitt.qz import QZElement, pi_n_times_n, rho, sigma, split
from bcwitt.torified import LeveledClass, TorifiedClass, bb_assemble, bc_rho, f1m_points
from bcwitt.witt import WittVector, frobenius, verschiebung
from bcwitt.zeta import f1_zeta, hw_quotient_check, hw_zeta, polylog_rational, z0, z1

POINT = TorifiedClass.point()
ONE = CyclicAction.trivial(1, 1)
THIRD = QZElement.e(Fraction(1, 3))


def _check(argv) -> tuple[int, dict]:
    """``equivariant check`` on one point: its exit code and JSON."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["equivariant", "check", *argv, "--action", '{"level":1,"perm":[0]}'])
    return code, json.loads(out.getvalue())


# Where a caller's truncation enters.
TRUNCATED = [lambda t: WittVector.from_json({"trunc": t, "coeffs": ["1/3"]}),
             lambda t: f1_zeta(POINT, t), lambda t: hw_zeta(POINT, 2, t),
             lambda t: hw_zeta(POINT, "q", t), lambda t: lefschetz_numbers(ToralMap.of([[0]]), t),
             lambda t: torified_dynamical_zeta([], t),
             lambda t: hw_quotient_check(1, 2, t)]

# entry -> calls that read a size of that entry, each a function of the size:
# at the least value, and at the largest.
LEAST = {
    "index": [lambda n: sigma(n, THIRD), lambda n: rho(n, THIRD), pi_n_times_n,
              lambda n: frobenius(n, WittVector.one(2)),
              lambda n: verschiebung(n, WittVector.one(2)),
              lambda n: endo_frobenius(n, EndoObject.scalar(2)),
              lambda n: endo_verschiebung(n, EndoObject.scalar(2)),
              lambda n: sigma_action(n, ONE), lambda n: verschiebung_action(n, ONE),
              lambda n: bc_rho(n, LeveledClass(POINT, 1)), factorize, polylog_rational,
              lambda n: Polynomial([1, 1]).substitute_power(n)],
    "exponent": [lambda k: Polynomial([1, 1]) ** k, lambda k: linalg.mat_pow(((2,),), k),
                 ONE.power, lambda k: z0(k, 3), lambda k: z1(k, 3)],
    "truncation": [*TRUNCATED, lambda t: WittVector(t, (0,) * t)],
    "level": [lambda n: CyclicAction(n, ()), lambda n: LeveledClass(POINT, n)],
    "period": [lambda k: periodic_points(ONE, k), lambda k: check_relations(1, ONE, k)],
    "extension degree": [lambda m: f1m_points(POINT, m)],
    "cell dimension": [lambda d: bb_assemble([(POINT, d)])],
    "q": [lambda q: hw_zeta(POINT, q, 2)],
    "prime of a split": [lambda p: split([p], THIRD)],
}
LARGEST = {
    "truncation": TRUNCATED,
    "degree of a polynomial power": [lambda k: Polynomial([0, 1]) ** k],
    "points of an action": [lambda s: CyclicAction.trivial(1, s),
                            lambda s: verschiebung_action(s, ONE)],
    "matrix dimension": [lambda d: linalg.as_matrix(linalg.identity(d)),
                         lambda d: endo_verschiebung(d, EndoObject.scalar(2))],
    "terms of a Q/Z element": [lambda k: rho(k, QZElement.e(0))],
    # The first squaring of (0 x; 1 0) is diag(x, x), checked before the next.
    "bits of a matrix power entry": [
        lambda b: linalg.mat_pow(((0, 1 << (b - 1)), (1, 0)), 4),
        lambda b: endo_frobenius(4, EndoObject.of([[0, Fraction(1, 1 << (b - 1))], [1, 0]]))],
    "prime of a split": LEAST["prime of a split"],
}
# The largest value of these calls' argument that is in range.
IN_RANGE = {"prime of a split": 2**40 - 87}  # the largest prime below 2^40


def test_every_entry_is_tested():
    """Entries that count what a call holds or builds (a length or a
    product of sizes) cannot go below 0 there, so only the helper meets it."""
    # The CLI's check counts min(kmax, n lcm) n size point visits, tested
    # below at 2^20 = 1024 * 1024 and at 1024 * 1025.
    visits = "point visits of an equivariant check"
    assert set(LEAST) | set(LARGEST) | {visits} == set(_SIZES)
    assert set(LARGEST) | {visits} == {w for w, (_, largest) in _SIZES.items() if largest}
    for what in set(_SIZES) - set(LEAST):
        least = _SIZES[what][0]
        assert least in (0, None)
        if least == 0:
            assert _size(what, 0) == 0
            with pytest.raises(ValueError, match=f"^{what} must be >= 0, not -1$"):
                _size(what, -1)


@pytest.mark.parametrize("what", sorted(LEAST))
def test_least_value(what):
    least = _SIZES[what][0]
    for call in LEAST[what]:
        call(least)
        with pytest.raises(ValueError, match=f"^{what} must be >= {least}, not {least - 1}$"):
            call(least - 1)


@pytest.mark.parametrize("what", sorted(LARGEST))
def test_largest_value(what):
    largest = _SIZES[what][1]
    for call in LARGEST[what]:
        call(IN_RANGE.get(what, largest))
        with pytest.raises(LimitExceeded) as exc:
            call(largest + 1)
        assert (exc.value.limit, exc.value.value) == (largest, largest + 1)
        assert exc.value.detail == f"{what}: {largest + 1} exceeds the limit {largest}"


def test_products_of_sizes_meet_the_ceiling():
    """A ceiling on what a call builds counts its product of sizes."""
    two_terms = QZElement.e(0) + QZElement.e(Fraction(1, 2))
    assert len(rho(2**15, two_terms).terms) == 2**16
    pair = EndoObject.diag([1, 2])
    assert endo_verschiebung(32, pair).dim == 64
    for call in (lambda: rho(2**15 + 1, two_terms), lambda: endo_verschiebung(33, pair),
                 lambda: verschiebung_action(2**15 + 1, CyclicAction.trivial(1, 2))):
        with pytest.raises(LimitExceeded):
            call()
    assert _check(["--n", "1024", "--kmax", "1024"]) == (0, {"ok": True, "n": 1024, "kmax": 1024})
    assert _check(["--n", "1025", "--kmax", "1024"]) == (1, {"error": {
        "kind": "LimitExceeded",
        "detail": "point visits of an equivariant check: 1049600 exceeds the limit 1048576"}})
    # The torus ghosts (q^m - 1)^k of the quotient check have degree k m,
    # and hw_zeta's rational form the sum of |e_j| over c = sum e_j L^j.
    hw_quotient_check(2**14, 2, 2)
    for call, degree in ((lambda: hw_quotient_check(2**14 + 1, 2, 2), 2**15 + 2),
                         (lambda: hw_zeta(TorifiedClass.of([2**15 + 1]), 2, 1), 2**15 + 1)):
        with pytest.raises(LimitExceeded) as exc:
            call()
        assert exc.value.value == degree


def test_unbounded_below_and_internal_sizes():
    """The zero polynomial's powers have degree -1 times k; a Witt vector's
    invariant checks no ceiling on its truncation, as internal vectors pass it."""
    assert Polynomial() ** 10**8 == Polynomial()
    assert WittVector.one(2**9 + 1).trunc == 2**9 + 1
    with pytest.raises(ValueError):
        WittVector.one(0)
    assert _size("q", 10**100) == 10**100
