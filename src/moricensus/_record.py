"""Immutable records over ``__slots__``.

A record class declares its fields once, in ``__slots__``.
:class:`Record` derives everything else from the slot names:

- the constructor, written at class creation: one positional-or-keyword
  parameter per slot, in slot order, with no defaults, storing each
  field through its slot's descriptor, past ``__setattr__``.  When
  the class defines ``__post_init__``, the constructor calls it last,
  looking it up on the instance at call time, so a patched
  ``__post_init__`` is seen by records built afterwards;
- equality, hashing, a ``Cls(field=value, ...)`` repr and pickling.

Assignment after construction is refused.  Records compare equal only
to records of the same class, and hash like the tuple of their fields.
"""

from __future__ import annotations

__all__ = ["Record"]


def _make_init(cls):
    # each field is stored through its slot's descriptor, bound once here
    namespace = {"__name__": __name__}
    body = []
    for name in cls.__slots__:
        namespace[f"_set_{name}"] = getattr(cls, name).__set__
        body.append(f"    _set_{name}(self, {name})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    source = f"def __init__(self, {', '.join(cls.__slots__)}):\n" + "\n".join(body)
    # __name__ makes this module the generated function's __module__
    exec(source, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    """Base of the package's value records; fields are ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls)

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
