"""Light immutable records: the base of every result type in the package.

A record class lists its fields in `__slots__`, in the order of its
`__init__` parameters, and its `__init__` stores each one with `set_field`
and then runs the record's construction checks.  After that, assigning or
deleting an attribute raises AttributeError.  Two records are equal when
they are of the same class with equal fields, equal records hash alike,
`repr` lists the fields, and pickling and copying rebuild a record through
its `__init__`, so the checks run again.

This is what a frozen dataclass gives, minus the code generation: creating
a record class compiles nothing, which keeps `import polya.cli` short (the
CLI runs one command per process, so that import is paid on every call).
A record is not a tuple: it does not iterate, index or compare equal to a
tuple of its fields.
"""

from __future__ import annotations

# The setter every record's __init__ uses, past the record's own __setattr__.
set_field = object.__setattr__


class Record:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()

    def _values(self) -> tuple[object, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple[type, tuple[object, ...]]:
        return type(self), self._values()
