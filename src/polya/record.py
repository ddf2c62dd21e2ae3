"""Light immutable records: the base of every result type in the package.

A record class lists its fields in `__slots__` and writes no `__init__`:
`Record.__init__` binds its positional and keyword arguments to those
fields in order, as a written signature would (a missing, repeated or
unknown field raises TypeError), stores each with `set_field`, and then
calls the class's `_check`, which raises ValueError on a bad value and does
nothing on `Record`.  `inspect.signature` of a record class lists its
fields; a call that passes anything but every field by position binds
through it, so only such a call loads inspect.  After construction,
assigning or deleting an attribute raises AttributeError.  Two records are
equal when they are of the same class with equal fields, equal records hash
alike, `repr` lists the fields, and pickling and copying rebuild a record
through `__init__`, so the checks run again.

This is what a frozen dataclass gives, minus the code generation: creating
a record class compiles nothing, which keeps `import polya.cli` short (the
CLI runs one command per process, so that import is paid on every call).
A record is not a tuple: it does not iterate, index or compare equal to a
tuple of its fields.
"""

from __future__ import annotations

# The setter that stores a field, past the record's own __setattr__.
set_field = object.__setattr__


class _FieldSignature:
    """`inspect.signature` of a record class: one parameter per field, built
    when asked for, so that importing the package does not load inspect."""

    def __get__(self, record: object, cls: type) -> object:
        from inspect import Parameter, Signature
        return Signature([Parameter(name, Parameter.POSITIONAL_OR_KEYWORD)
                          for name in cls.__slots__])


class Record:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()
    __signature__ = _FieldSignature()

    def __init__(self, /, *args: object, **kwargs: object) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            # all fields by position is the fast path; anything else binds
            # through the signature, which raises a written one's TypeError
            args = self.__signature__.bind(*args, **kwargs).args
        for name, value in zip(names, args):
            set_field(self, name, value)
        self._check()

    def _check(self) -> None:
        """Raise ValueError if the fields break the record's invariants."""

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
