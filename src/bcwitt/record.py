"""Frozen records: the package's immutable value classes.

A subclass lists its fields as class annotations, in order.  Instances take
the fields positionally (or by name), run ``__post_init__`` to validate
them, compare equal only to instances of the same class with equal fields,
hash as the tuple of their fields, print as ``Name(field=value, ...)``
unless the class defines its own ``__repr__``, and refuse assignment with
an AttributeError.

A record holding a finite formal sum (a Q/Z element, an L-class, Lefschetz
exponents) stores the term tuple of ``_canonical``, so equal sums are equal
records.
"""

from __future__ import annotations

from typing import Iterable


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs:
            args += tuple(kwargs.pop(name) for name in names[len(args):] if name in kwargs)
        if len(args) != len(names) or kwargs:
            raise TypeError(f"{type(self).__name__} takes the fields ({', '.join(names)})")
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    # An instance's __dict__ holds exactly its fields, in order: __init__
    # alone writes it.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _canonical(pairs: Iterable[tuple]) -> tuple:
    """The canonical term tuple of (key, coefficient) pairs: the coefficients
    of equal keys summed, zero sums dropped, ascending key order."""
    acc = {}
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return tuple((key, c) for key, c in sorted(acc.items()) if c)
