"""Square classes: the group Q*/(Q*)^2 in concrete form.

A class is a sign together with a positive squarefree kernel; multiplication
cancels the shared part of the kernels.  `span` returns the order of the
subgroup generated by finitely many classes by closing {1} under them, with
that same product on signed values, so nothing is factored.
"""

from __future__ import annotations

import math

from .arith import factor, squarefree_part
from .record import Record, set_field


def _times(x: int, y: int) -> int:
    """The squarefree product of squarefree x and y: their shared part is a
    square, so it cancels."""
    c = math.gcd(x, y)
    return x // c * (y // c)


class SquareClass(Record):
    """An element of Q*/(Q*)^2, stored as sign and positive squarefree kernel;
    the constructor factors the kernel to check it."""

    __slots__ = ("sign", "kernel")

    def _check(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.kernel < 1:
            raise ValueError("kernel must be a positive integer")
        for p, e in factor(self.kernel).factors:
            if e > 1:
                raise ValueError(f"kernel {self.kernel} is divisible by {p}^2")

    @classmethod
    def _known(cls, sign: int, kernel: int) -> "SquareClass":
        """The class of sign * kernel, squarefree by construction: no factoring."""
        c = object.__new__(cls)
        set_field(c, "sign", sign)
        set_field(c, "kernel", kernel)
        return c

    @property
    def value(self) -> int:
        return self.sign * self.kernel

    def __str__(self) -> str:
        return f"[{self.value}]"

    def __mul__(self, other: "SquareClass") -> "SquareClass":
        if not isinstance(other, SquareClass):
            return NotImplemented
        return SquareClass._known(self.sign * other.sign, _times(self.kernel, other.kernel))


IDENTITY = SquareClass._known(1, 1)


def class_of(n: int) -> SquareClass:
    """The square class of a nonzero integer."""
    if n == 0:
        raise ValueError("0 has no square class")
    s = squarefree_part(n)
    return SquareClass._known(1 if s > 0 else -1, abs(s))


def span(generators: list[SquareClass] | tuple[SquareClass, ...]) -> int:
    """Order of the subgroup generated by the given classes, by its definition:
    {1} closed under multiplication by each generator.  The set holds 2^rank
    signed values, and each new generator costs one gcd per value.  Every
    caller passes a field's six classes, whose rank is at most 5 since
    [delta_3] = [delta_1][delta_2], so the set holds at most 32 values."""
    group = {1}
    for g in generators:
        if (v := g.value) not in group:
            group |= {_times(v, h) for h in group}
    return len(group)
