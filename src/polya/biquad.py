"""Bi-quadratic fields Q(sqrt(m), sqrt(n)): ramification, unit cohomology,
and the Polya group.

For a totally real field the order of H^1(G, O*) is computed from six square
classes: the three subfield kernels and the three a-values [N(u + 1)] of their
fundamental units u.  H^1 equals that span H unless 2 is totally ramified and
every subfield contains an element of norm 2 or -2, in which case the index
doubles.  The Polya group order is then prod(e_l) / |H^1| by the exact
sequence 1 -> H^1 -> sum Z/e_l -> Po -> 1.  Every per-kernel fact (a-value,
+-2 norm, unit norm) comes from `period_invariants`: by genus theory from
the kernel's primes when the 4-rank of its narrow class group is 0, and
otherwise from the middle of the continued-fraction period of sqrt(delta)
on small integers; no fundamental unit is built.  The field validated its
kernels when it was built, so they go to the unchecked `_kernel_invariants`
with their primes, picked out of the field's, and nothing is factored.  A
Polya report reads each kernel's invariants once.
A field is m, n and the primes of mn; its kernels are m, n and the third
kernel (m/g)*(n/g) with g = gcd(m, n).  `biquadratic_field` finds the
primes by factoring the coprime pieces g, m/g and n/g once each, never m, n
or mn whole, so a shared factor is factored once and each piece is smaller
than the radicand it divides; a caller that already knows the primes (a
theorem instance or a contrast instance knows its triple) builds the field
from them directly, with no factoring.  The ramified primes are those
primes, and the span of the six classes is {1} closed under multiplication
by each, with no factoring either.

leriche_classify is the independent route: it never touches H^1 and decides
composita of two quadratic Polya fields by the classical composite rules,
settling norms +-2 with norm_equation and the fundamental unit.  It reads
each kernel's primes from the field (`_kernels`), as a Polya report does.
"""

from __future__ import annotations

import math

from .arith import is_prime
from .quadratic import (
    NOT_POLYA,
    POLYA,
    PeriodInvariants,
    _kernel_invariants,
    _norm_equation,
    _radicand_primes,
    _zantema,
)
from .record import Record
from .sqclass import SquareClass, _times, span

OUTSIDE_PROPOSITION = "OutsideProposition"


def _third_kernel(m: int, n: int) -> int:
    """squarefree_part(mn) for squarefree m and n."""
    third = _times(m, n)
    if third == 1:
        raise ValueError("m and n must generate distinct quadratic fields")
    return third


class BiquadraticField(Record):
    """Q(sqrt(m), sqrt(n)) with the primes dividing mn, ascending."""

    __slots__ = ("m", "n", "primes")

    def _check(self) -> None:
        m, n, primes = self.m, self.n, self.primes
        # m and n are squarefree with exactly these primes iff each is the
        # product of the listed primes dividing it and every prime divides one.
        if m in (0, 1) or n in (0, 1):
            raise ValueError("kernels must be squarefree integers other than 0 and 1")
        if list(primes) != sorted(set(primes)) or not all(map(is_prime, primes)):
            raise ValueError("primes must be distinct primes, ascending")
        if (math.prod(p for p in primes if m % p == 0) != abs(m)
                or math.prod(p for p in primes if n % p == 0) != abs(n)
                or any(m % p and n % p for p in primes)):
            raise ValueError("primes do not match m and n")
        _third_kernel(m, n)  # m and n must generate distinct fields

    @property
    def deltas(self) -> tuple[int, int, int]:
        """The three subfield kernels, ascending."""
        return tuple(sorted((self.m, self.n, _third_kernel(self.m, self.n))))

    @property
    def totally_real(self) -> bool:
        return self.m > 0 and self.n > 0


def biquadratic_field(m: int, n: int) -> BiquadraticField:
    """Q(sqrt(m), sqrt(n)), with the primes of mn found from the coprime pieces
    g = gcd(m, n), m/g and n/g, the only numbers factored.

    m is squarefree iff g and m/g are and they share no prime, and n likewise;
    m is checked before n, and each keeps the errors of `_radicand_primes`
    under its own name.  With g = 1 the pieces are m and n themselves.
    """
    g = math.gcd(m, n)
    primes: set[int] = set()
    for d in (m, n):
        if d in (0, 1):
            _radicand_primes(d)  # raises the radicand error
        try:
            primes.update(p for piece in (g, d // g) if abs(piece) > 1
                          for p in _radicand_primes(piece))
        except ValueError:
            raise ValueError(f"{d} is not squarefree") from None
        if math.gcd(g, d // g) > 1:
            raise ValueError(f"{d} is not squarefree")
    return BiquadraticField(m, n, tuple(sorted(primes)))


def ramification(field: BiquadraticField) -> tuple[tuple[int, int], ...]:
    """The ramified primes of the degree-4 field with their indices, as
    (prime, e) pairs, ascending.

    Every odd prime dividing a kernel ramifies with e = 2.  The prime 2
    ramifies iff some kernel is 2 or 3 mod 4, totally (e = 4) iff no kernel
    is 1 mod 4: one 2-unramified quadratic subfield caps the inertia at 2.
    """
    deltas = field.deltas
    entries: list[tuple[int, int]] = []
    if any(d % 4 != 1 for d in deltas):
        entries.append((2, 4 if all(d % 4 != 1 for d in deltas) else 2))
    entries.extend((p, 2) for p in field.primes if p != 2)
    return tuple(entries)


def _kernels(field: BiquadraticField) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The three kernels, ascending, each with its primes, read off the field's."""
    return tuple((d, tuple(p for p in field.primes if d % p == 0)) for d in field.deltas)


def _field_invariants(field: BiquadraticField) -> tuple[PeriodInvariants, ...]:
    """The period invariants of the three kernels, ascending, each read once."""
    return tuple(_kernel_invariants(d, primes) for d, primes in _kernels(field))


def _generators(kernels: tuple[PeriodInvariants, ...]) -> tuple[SquareClass, ...]:
    return tuple([SquareClass._known(1, k.d) for k in kernels]
                 + [k.a_class for k in kernels])


def h_generators(field: BiquadraticField) -> tuple[SquareClass, ...]:
    """The six generators of H: [delta_i] and [a_i] for the three kernels."""
    if not field.totally_real:
        raise ValueError("H generators require a totally real field")
    return _generators(_field_invariants(field))


def _has_norm_pm2(d: int, primes: tuple[int, ...]) -> bool:
    return any(_norm_equation(d, c, primes) is not None for c in (2, -2))


class PolyaReport(Record):
    """Every quantity of the Polya group computation, with exactness enforced."""

    __slots__ = ("field", "ramification", "h_generators", "h_order", "index_factor",
                 "h1_order", "po_order", "po_structure", "unit_norms")

    def _check(self) -> None:
        if self.h1_order != self.h_order * self.index_factor:
            raise ValueError("index bookkeeping violated")
        if self.po_order * self.h1_order != self.product_e:
            raise ValueError("exact sequence arithmetic violated")

    @property
    def product_e(self) -> int:
        """The product of the ramification indices, |sum Z/e_l|."""
        return math.prod(e for _, e in self.ramification)

    @property
    def polya(self) -> bool:
        return self.po_order == 1


def polya_report(field: BiquadraticField) -> PolyaReport:
    """Full Polya computation for a totally real bi-quadratic field.

    The quotient of sum Z/e_l by H^1 has exponent 2 whenever e_2 <= 2, so the
    structure is elementary abelian of rank log2(po_order); when 2 is totally
    ramified the order does not determine the structure and only the order is
    reported.
    """
    if not field.totally_real:
        raise ValueError("Polya reports cover totally real fields only")
    entries = ramification(field)
    e2 = dict(entries).get(2, 1)
    kernels = _field_invariants(field)
    gens = _generators(kernels)
    h = span(gens)
    # the index factor is 2 exactly when 2 is totally ramified and each of
    # the three subfields contains an element of norm 2 or -2
    index = 1
    if e2 == 4 and all(k.two_is_norm for k in kernels):
        index = 2
    h1 = h * index
    po = math.prod(e for _, e in entries) // h1
    if e2 <= 2:
        rank = po.bit_length() - 1
        structure = "trivial" if po == 1 else ("Z/2" if po == 2 else f"(Z/2)^{rank}")
    else:
        structure = "order-only"
    norms = tuple(k.norm for k in kernels)
    return PolyaReport(field, entries, gens, h, index, h1, po, structure, norms)


def h1_order(field: BiquadraticField) -> tuple[int, int, int]:
    """(|H|, index factor, |H^1|) of the field's Polya report."""
    report = polya_report(field)
    return report.h_order, report.index_factor, report.h1_order


class LericheVerdict(Record):
    """Composite classification of Q(sqrt(m), sqrt(n)) with the rule that fired."""

    __slots__ = ("m", "n", "verdict", "rule")


def leriche_classify(m: int, n: int) -> LericheVerdict:
    """Classify the compositum of two quadratic Polya fields, without H^1 spans.

    Composite rules: such a compositum is Polya except for the imaginary
    families Q(sqrt(-2), sqrt(p)) with p = 3 mod 4 prime and Q(sqrt(-1),
    sqrt(2q)) with q an odd prime, and except when 2 is totally ramified and
    some subfield lacks an element of norm 2 or -2 (principality of the prime
    over 2 fails somewhere, so it fails in the compositum).  The classical
    congruences on Q(sqrt(p), sqrt(2q)) (p = 7 mod 8 with q = +-1 mod 8, or
    p = 3 mod 8 with q = 1 or 3 mod 8) follow from the +-2 rule: where they
    fail, norm_equation's local obstruction at p or q leaves 2pq with no
    element of norm +-2.  Fields where fewer than two of the three
    kernels are Polya are outside the rules' scope.
    """
    field = biquadratic_field(m, n)
    deltas = field.deltas
    kernels = _kernels(field)
    if sum(_zantema(d, primes).polya for d, primes in kernels) < 2:
        return LericheVerdict(m, n, OUTSIDE_PROPOSITION,
                              "fewer than two Polya quadratic subfields")
    if -2 in deltas:
        p = next((d for d in deltas if d > 0 and d % 4 == 3 and is_prime(d)), None)
        if p is not None:
            return LericheVerdict(m, n, NOT_POLYA, f"exception 1: Q(sqrt(-2), sqrt({p}))")
    if -1 in deltas:
        for d in deltas:
            if d > 0 and d % 2 == 0 and d // 2 > 1 and is_prime(d // 2):
                return LericheVerdict(m, n, NOT_POLYA,
                                      f"exception 2: Q(sqrt(-1), sqrt(2*{d // 2}))")
    if field.totally_real and all(d % 4 != 1 for d in deltas):
        for d, primes in kernels:
            if not _has_norm_pm2(d, primes):
                return LericheVerdict(m, n, NOT_POLYA,
                                      f"no element of norm +-2 in Q(sqrt({d}))")
        return LericheVerdict(m, n, POLYA, "composite rule: ramified 2 stays principal")
    return LericheVerdict(m, n, POLYA, "composite rule: no exception applies")
