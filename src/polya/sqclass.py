"""Square classes: the group Q*/(Q*)^2 in concrete form.

A class is a sign together with a positive squarefree kernel; multiplication
cancels the shared part of the kernels.  `span` returns the order of the
subgroup generated by finitely many classes: 2 to the GF(2) rank of their
coordinates over {-1} and a coprime base of the kernels involved, so the
order is an exact power of two and nothing is factored.
"""

from __future__ import annotations

import math

from .arith import factor, squarefree_part
from .record import Record, set_field


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
        g = math.gcd(self.kernel, other.kernel)
        return SquareClass._known(self.sign * other.sign, self.kernel // g * (other.kernel // g))


IDENTITY = SquareClass._known(1, 1)


def class_of(n: int) -> SquareClass:
    """The square class of a nonzero integer."""
    if n == 0:
        raise ValueError("0 has no square class")
    s = squarefree_part(n)
    return SquareClass._known(1 if s > 0 else -1, abs(s))


def _coprime_base(kernels: list[int]) -> tuple[int, ...]:
    """Pairwise coprime integers > 1, ascending, such that each of the given
    squarefree kernels is the product of the base elements dividing it.

    The base elements have disjoint prime sets and every kernel's primes are a
    union of them, so the coordinates over the base determine the primes and
    the GF(2) rank over the base equals the rank over the primes.
    """
    base: list[int] = []
    for k in kernels:
        refined = []
        for b in base:
            g = math.gcd(k, b)
            if g == 1:
                refined.append(b)
                continue
            # squarefree: b // g, g and k // g are pairwise coprime
            refined.extend(x for x in (g, b // g) if x > 1)
            k //= g
        if k > 1:
            refined.append(k)
        base = refined
    return tuple(sorted(base))


def _encode(c: SquareClass, base: tuple[int, ...]) -> int:
    """GF(2) coordinate mask of c; ArithmeticError if c is no product of base
    elements."""
    mask = 1 if c.sign < 0 else 0
    rest = c.kernel
    for i, b in enumerate(base):
        g = math.gcd(rest, b)
        if g == b:
            mask |= 1 << (i + 1)
            rest //= b
        elif g != 1:
            break
    if rest != 1:
        raise ArithmeticError(f"{c} is no product of the coprime base {base}")
    return mask


def _reduce(mask: int, echelon: list[int]) -> int:
    for row in echelon:
        lead = 1 << (row.bit_length() - 1)
        if mask & lead:
            mask ^= row
    return mask


def span(generators: list[SquareClass] | tuple[SquareClass, ...]) -> int:
    """Order of the subgroup generated by the given classes: 2 to the GF(2)
    rank of their coordinate masks."""
    base = _coprime_base([g.kernel for g in generators])
    echelon: list[int] = []
    for g in generators:
        residue = _reduce(_encode(g, base), echelon)
        if residue:
            echelon.append(residue)
            echelon.sort(key=int.bit_length, reverse=True)
    return 1 << len(echelon)
