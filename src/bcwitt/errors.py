"""Domain errors shared across the package.

Every error that a computation can raise by design (as opposed to a misuse
of the API) derives from DomainError, so callers such as the CLI can map
them uniformly to ``{"error": {"kind": ..., "detail": ...}}`` payloads.
The ``kind`` is the class name.
"""

from __future__ import annotations


def _json_list(x, what: str):
    """x itself if it is a JSON list.  Payload readers call this where they
    iterate, since a string or object there would be read one character or
    key at a time; the TypeError is a malformed payload, not a DomainError."""
    if not isinstance(x, (list, tuple)):
        raise TypeError(f"{what} must be a JSON list")
    return x


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


class LimitExceeded(DomainError):
    """A value passes a fixed limit, such as the decimal digits Python will
    print of an int (``sys.get_int_max_str_digits()``)."""

    def __init__(self, what: str, limit: int, value: int):
        super().__init__(f"{what}: {value} exceeds the limit {limit}")
        self.limit = limit
        self.value = value
