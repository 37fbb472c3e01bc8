"""Domain errors, the range of every size, and exact numbers at the JSON edge.

Every error that a computation can raise by design (as opposed to a misuse
of the API) derives from DomainError, so callers such as the CLI can map
them uniformly to ``{"error": {"kind": ..., "detail": ...}}`` payloads.
The ``kind`` is the class name.  Exact numbers cross JSON here alone:
payload readers parse them with ``_number`` (``_integer`` for an integer
field) and writers print them with ``_numstr``, which raises
LimitExceeded past the digit limit in force.

``_SIZES`` alone decides the range of every size-like argument, named by
what it counts, and ``_size`` checks a value before any work: ValueError
below the range (exit 2 at the CLI), LimitExceeded above it (exit 1).
A ceiling applies where a caller's size enters, and in a record's invariant
only if no internal result passes it: an action's points, not a truncation.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def _json_list(x, what: str):
    """x itself if it is a JSON list.  Payload readers call this where they
    iterate, since a string or object there would be read one character or
    key at a time; the TypeError is a malformed payload, not a DomainError."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{what} must be a JSON list")
    return x


def _number(x) -> int | Fraction:
    """A payload number: a JSON integer or an ASCII string -?digits(/digits)?,
    as an int when integral and a reduced Fraction otherwise.  No exponent is
    expanded: decimals, exponents, spaces, "+" and "_" are malformed."""
    if type(x) is int:
        return x
    if type(x) is not str:
        raise TypeError(f"a number must be a JSON integer or string, not {x!r}")
    num, _, den = x.partition("/")
    if not (x.isascii() and num.removeprefix("-").isdigit() and (den.isdigit() or num == x)):
        raise ValueError(f"{x!r} is not an integer or a fraction p/q")
    f = Fraction(int(num), int(den or 1))
    return f.numerator if f.denominator == 1 else f


def _integer(x) -> int:
    """A payload integer: ``_number`` of x, which must be integral."""
    if type(n := _number(x)) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return n


def _digits(n: int) -> int:
    """The decimal digits of |n|, counted without printing n."""
    n = abs(n)
    d = max(1, int(n.bit_length() * 0.30103))
    while d > 1 and 10 ** (d - 1) > n:
        d -= 1
    while 10**d <= n:
        d += 1
    return d


# The decimal digits of one int that a CLI call reads or prints.
_MAX_STR_DIGITS = 4300


def _too_long(numbers) -> LimitExceeded:
    """The error for output ints past the int -> str digit limit in force."""
    return LimitExceeded("decimal digits of an output number",
                         sys.get_int_max_str_digits(), _digits(max(numbers, key=abs)))


def _numstr(x) -> str:
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:
        raise _too_long((x.numerator, x.denominator)) from None


class DomainError(Exception):
    """Base class for in-domain failures with a stable machine-readable kind."""

    @property
    def kind(self) -> str:
        return type(self).__name__

    @property
    def detail(self) -> str:
        return str(self)


class NotQuasiUnipotent(DomainError):
    """A polynomial has a root that is not a root of unity."""


class NotDivisible(DomainError):
    """Componentwise ghost division failed to be exact."""


class NotSplit(DomainError):
    """A polynomial does not factor into linear factors over Q."""


class NotEffectivelyTorified(DomainError):
    """A class in the L-basis has no expansion with nonnegative T-coefficients."""


class HalfTwistPresent(DomainError):
    """An operation requiring integer Tate twists met a half-integer exponent."""


class TruncationTooSmall(DomainError):
    """The requested operation needs more series coefficients than are stored."""


class DegenerateIterate(DomainError):
    """An iterate of a toral map has non-isolated fixed points."""

    def __init__(self, n: int):
        super().__init__(f"iterate {n} has det(I - M^{n}) = 0; fixed points are not isolated")
        self.n = n


class OutOfMemory(DomainError):
    """A computation ran out of memory: a size that no ceiling bounds yet."""


class LimitExceeded(DomainError):
    """A value passes a fixed limit: a ceiling of ``_SIZES``, or the decimal
    digits of an output int (``_MAX_STR_DIGITS`` under ``cli.main``)."""

    def __init__(self, what: str, limit: int, value: int):
        super().__init__(f"{what}: {value} exceeds the limit {limit}")
        self.limit = limit
        self.value = value


# What a size-like argument counts -> its least and largest value (None: no bound).
_SIZES = {
    "index": (1, None),  # n of sigma, rho, F, V and pi; t -> t^n; factorize
    "exponent": (0, None),  # powers of a polynomial, matrix or generator
    "truncation": (1, 2**9),
    "level": (1, None),
    "period": (1, None),
    "extension degree": (1, None),
    "cell dimension": (0, None),
    "q": (2, None),
    "degree of a polynomial power": (None, 2**15),  # the zero polynomial's is -1
    "points of an action": (0, 2**16),
    "matrix dimension": (0, 64),
    "bits of a matrix power entry": (0, 2**16),  # a numerator or denominator, as mat_pow squares
    "terms of a Q/Z element": (0, 2**16),
    "prime of a split": (2, 2**40),  # factorize trial-divides to its root
    "point visits of an equivariant check": (0, 2**20),
}


def _size(what: str, value: int, ceiling: bool = True) -> int:
    """value, if it lies in the range of ``_SIZES[what]``; with ceiling false,
    only the least value is checked."""
    least, largest = _SIZES[what]
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, not {value}")
    if ceiling and largest is not None and value > largest:
        raise LimitExceeded(what, largest, value)
    return value
