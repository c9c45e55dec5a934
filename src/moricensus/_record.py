"""Immutable records over ``__slots__``.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``, which stores each field with ``_set`` and then runs the
class's checks.  :class:`Record` derives equality, hashing, a
``Cls(field=value, ...)`` repr and pickling from the slot names, and
refuses assignment after construction.  Records compare equal only to
records of the same class, and hash like the tuple of their fields.
"""

from __future__ import annotations

__all__ = ["Record"]

# Stores a field past Record.__setattr__; only __init__ uses it.
_set = object.__setattr__


class Record:
    """Base of the package's value records; fields are ``__slots__``."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # every __init__ takes the fields positionally, in slot order
        return type(self), self._values()
