"""Quadratic fields Q(sqrt(d)): continued fractions, fundamental units,
norm equations, and the Polya property.

Conventions.  d is a squarefree integer, d not in {0, 1}.  The ring of
integers is Z[(1+sqrt(d))/2] when d = 1 mod 4 and Z[sqrt(d)] otherwise, so
elements are (x + y*sqrt(d))/denom with denom in {1, 2}, and denom = 2 forces
x = y (mod 2) and d = 1 (mod 4).  `_radicand_primes` checks d by factoring
|d| and returns its primes; it is the only place this module factors, and
the functions that need the primes of d (`ramified_primes`, `norm_equation`,
`zantema_classify`, and the CLI's own check) read them from it; their
private bodies (`_ramified`, `_norm_equation`, `_zantema`) and the unit
cache `_unit` skip the check for a kernel whose field holds its primes.
The memo is keyed by d and the factoring budget, so a command factors |d|
once however many steps ask; the budget is in the key because a smaller
budget must be able to run out on a d that a larger one factored.

The bi-quadratic pipeline needs three facts per kernel from
`period_invariants`: the unit norm, the square class [N(u + 1)] (`a_value`)
and whether 2 or -2 is a norm.  No unit is built.  `_kernel_invariants`
asks genus theory (`genus`), given the ramified primes (`_ramified`), and
when the 4-rank is positive the walk to the middle of the period of sqrt(d)
(`forms`); each route is the other's test oracle.  `_half_period` walks the
forms' recurrence but keeps the partial quotients, which `cf_expand`
mirrors into the full period, and it walks (1 + sqrt(d))/2 for `_ring_walk`.

The fundamental unit itself serves classify-quadratic and the norm equation
deciders.  `_ring_walk` is the one owner of the generator of the ring of
integers, (1 + sqrt(d))/2 when d = 1 (mod 4) and sqrt(d) otherwise: it
picks that start and walks `_half_period` from it, and `_fold`
runs the big-integer convergent recurrence over a list of partial quotients.
`fundamental_unit` folds the whole period, mirrored from the half walk; the
unit, half-integral or not, is read off the last convergent.
When that unit is half-integral, Z[sqrt(d)] holds only its cube, so the
period of sqrt(d) would be about three times as long and its unit would need
a cube root.

For a fundamental unit u = (z + t*sqrt(d))/denom of norm +1, the integers
z - denom and z + denom split, up to their gcd g, as eta * square and
epsilon * square with epsilon * eta = d.  The theorem witnesses print that
split, and `epsilon_decomposition` folds the same half walk without its
last quotient and reads it off the convergent at h - 1, at half the unit's
bits, and builds no unit.  The deciders of N(alpha) = +-l at ramified
primes l ask whether 2*denom*l*(z +- denom), which is 2*denom*g*l*epsilon
(or eta) times a square, is a square, so no large integer is ever factored.

A quadratic field is Polya iff every ramified prime is principal (Zantema,
1982), so for real d `norm_equation` decides only what the Polya tests ask:
c = +-1 and c = +-l for a prime l that ramifies or is inert.  It raises
ValueError for composite |c| and split primes, before any unit is built.
For d < 0 a finite scan decides every c.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import arith, forms, genus
from .arith import factor, is_prime, is_square, jacobi
from .record import Record
from .sqclass import IDENTITY, SquareClass

# Entries kept by each per-kernel cache: one theorem-scan pass (scan T1, T2 and
# T3 and the table) asks `_kernel_invariants` for 5,141 distinct kernels and
# `epsilon_decomposition` for 4,236, and `fundamental_unit` for none; the
# classify-quadratic command asks `fundamental_unit` for one.  The radicand memo
# `_primes_under_budget` has the same bound; its key holds the factoring budget
# as well as d.
_KERNEL_CACHE_SIZE = 8192


def _radicand_primes(d: int) -> tuple[int, ...]:
    """The primes of |d|, ascending, for a squarefree d other than 0 and 1.

    The one check of a radicand, and the only place this module factors.
    It is memoised by (d, factoring budget) in `_primes_under_budget`, so a
    command that checks d at each step factors |d| once.  `biquadratic_field`
    checks m and n through their coprime pieces gcd(m, n), m/gcd and n/gcd,
    so it passes the pieces here, not m and n.  `factor` is
    deterministic in (n, budget) and a raised error is never cached, so the
    memo changes no result; with the budget in the key, a later call under a
    smaller budget factors again and can still run out.
    """
    return _primes_under_budget(d, arith.DEFAULT_FACTOR_BUDGET)


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _primes_under_budget(d: int, budget: int) -> tuple[int, ...]:
    if d in (0, 1):
        raise ValueError("radicands must be squarefree integers other than 0 and 1")
    f = factor(abs(d), budget=budget)
    if any(e > 1 for _, e in f.factors):
        raise ValueError(f"{d} is not squarefree")
    return f.primes()


def ramified_primes(d: int) -> tuple[int, ...]:
    """Primes dividing the field discriminant of Q(sqrt(d)), ascending."""
    return _ramified(d, _radicand_primes(d))


def _ramified(d: int, primes: tuple[int, ...]) -> tuple[int, ...]:
    """`ramified_primes` given the primes of d: its odd primes, and 2 when
    d != 1 (mod 4)."""
    return tuple(([2] if d % 4 != 1 else []) + [p for p in primes if p != 2])


class ContinuedFraction(Record):
    """Continued fraction of sqrt(d): preperiod (a0,) then the periodic part,
    whose last partial quotient is always 2*a0."""

    __slots__ = ("d", "preperiod", "period")

    @property
    def period_length(self) -> int:
        return len(self.period)


def _half_period(d: int, p0: int = 0, q0: int = 1) -> tuple[list[int], bool]:
    """First half of the period of (p0 + sqrt(d))/q0, nonsquare d > 1:
    (head, odd).  The start is (0, 1), sqrt(d), or (1, 2), (1 + sqrt(d))/2
    for d = 1 (mod 4); either way the period closes with a_l = 2*a_0 - p0.

    With complete quotients (m_k + sqrt(d))/Q_k and partial quotients a_k, the
    period l is symmetric: a_k = a_{l-k}, Q_k = Q_{l-k} and m_k = m_{l+1-k}.
    Within a period Q_k = Q_{k+1} happens only at k = (l - 1)/2 for odd l, and
    m_k = m_{k+1} only at k = l/2 for even l, so the walk stops there.  head
    is a_1..a_k at that k; odd says which case ended it.

    m_{k+1} = a_k*Q_k - m_k, and Q_{k+1} = (d - m_{k+1}^2)/Q_k is stepped as
    Q_{k+1} = Q_{k-1} + a_k*(m_k - m_{k+1}) from Q_{-1} = (d - p0^2)/q0.  Past
    the first step every operand is below 2*sqrt(d): nothing squares or
    divides d.
    """
    root = math.isqrt(d)
    m, q_prev, q = p0, (d - p0 * p0) // q0, q0
    a = (p0 + root) // q0
    head: list[int] = []
    while True:
        m_next = a * q - m
        q_next = q_prev + a * (m - m_next)
        if q_next == q:
            return head, True
        if m_next == m:
            return head, False
        m, q_prev, q = m_next, q, q_next
        a = (root + m) // q
        head.append(a)


def _mirror(head: list[int], odd: bool) -> list[int]:
    """a_1..a_{l-1}, the period without its closing quotient, from
    `_half_period`'s (head, odd): a_k = a_{l-k} reflects head about the
    middle, which is between two quotients for odd l and is head's last
    quotient for even l."""
    return head + (head[::-1] if odd else head[-2::-1])


def cf_expand(d: int) -> ContinuedFraction:
    """Continued fraction expansion of sqrt(d) for any nonsquare d > 1.

    The period is the half walked by `_half_period` and its mirror
    (`_mirror`), closed by a_l = 2*a0.
    """
    if d < 2 or is_square(d):
        raise ValueError("cf_expand needs a nonsquare integer d > 1")
    a0 = math.isqrt(d)
    return ContinuedFraction(d, (a0,), tuple(_mirror(*_half_period(d)) + [2 * a0]))


class FundamentalUnit(Record):
    """The fundamental unit (z + t*sqrt(d))/denom > 1 of the real field Q(sqrt(d))."""

    __slots__ = ("d", "z", "t", "denom", "norm")

    def _check(self) -> None:
        d, z, t, denom, norm = self.d, self.z, self.t, self.denom, self.norm
        if z < 1 or t < 1 or denom not in (1, 2) or norm not in (-1, 1):
            raise ValueError("malformed unit")
        if z * z - d * t * t != norm * denom * denom:
            raise ValueError("unit fails its norm equation")
        if denom == 2 and (d % 4 != 1 or z % 2 != t % 2):
            raise ValueError("half-integral unit outside the ring of integers")


def _real_primes(d: int, what: str) -> tuple[int, ...]:
    """The primes of a squarefree d > 1; what names the caller's result."""
    primes = _radicand_primes(d)
    if d < 2:
        raise ValueError(f"{what} require a real field, d > 1")
    return primes


def _ring_walk(d: int) -> tuple[int, int, list[int], bool]:
    """(p0, q0, head, odd) for the generator w = (p0 + sqrt(d))/q0 of the ring
    of integers of the real field Q(sqrt(d)), d squarefree > 1: (1 +
    sqrt(d))/2 when d = 1 (mod 4) and sqrt(d) otherwise, with
    `_half_period`'s walk of its period."""
    p0, q0 = (1, 2) if d % 4 == 1 else (0, 1)
    return p0, q0, *_half_period(d, p0, q0)


def _fold(d: int, p0: int, q0: int, quotients: list[int]) -> tuple[int, int]:
    """(X, Y) with (X + Y*sqrt(d))/q0 = A - B*w' for the convergent A/B of
    a_0 = floor(w) and quotients, w' = (p0 - sqrt(d))/q0 the conjugate of w =
    (p0 + sqrt(d))/q0."""
    p_prev, p = 1, (p0 + math.isqrt(d)) // q0
    q_prev, q = 0, 1
    for a in quotients:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return q0 * p - p0 * q, q


def fundamental_unit(d: int) -> FundamentalUnit:
    """Fundamental unit of Q(sqrt(d)), d squarefree > 1: `_unit`, once d is checked."""
    _real_primes(d, "fundamental units")
    return _unit(d)


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _unit(d: int) -> FundamentalUnit:
    """`fundamental_unit` of a d checked already, or of a checked field's kernel.

    The least unit > 1 of the ring of integers, from the continued fraction
    of its generator w (`_ring_walk`): with A/B the convergent of a_0 and the
    whole period without its last partial quotient, mirrored from the half
    walk (`_mirror`), the unit is A - B*w' (`_fold`), and its norm is
    (-1)^l.  For d = 1 (mod 4) the unit comes as (x + y*sqrt(d))/2 with x = y
    (mod 2); when both are even it is integral and is halved.  (For d = 1
    mod 8 they always are: odd x and y give x^2 - d*y^2 = 0 mod 8, never
    +-4.)
    """
    p0, denom, head, odd = _ring_walk(d)
    x, y = _fold(d, p0, denom, _mirror(head, odd))
    if denom == 2 and x % 2 == 0 and y % 2 == 0:
        x, y, denom = x // 2, y // 2, 1
    return FundamentalUnit(d, x, y, denom, -1 if odd else 1)


# one cache serves both entries, and it is read and cleared by its public name
fundamental_unit.cache_info = _unit.cache_info
fundamental_unit.cache_clear = _unit.cache_clear
fundamental_unit.cache_parameters = _unit.cache_parameters


class UnitSplit(Record):
    """Split of the norm +1 fundamental unit u = (z + t*sqrt(d))/denom:

        z + denom = g * m^2 * epsilon,   z - denom = g * n^2 * eta,

    with g = gcd(z - denom, z + denom), epsilon * eta = d, gcd(m, n) = 1 and
    t = g * m * n.  The unit is not kept: g * (m^2 * epsilon - n^2 * eta) =
    2 * denom holds exactly when z = g * m^2 * epsilon - denom and t = g * m * n
    make (z + t*sqrt(d))/denom a unit of norm +1.
    """

    __slots__ = ("d", "denom", "g", "m", "n", "epsilon", "eta")

    def _check(self) -> None:
        denom, g, m, n, epsilon, eta = (self.denom, self.g, self.m, self.n,
                                        self.epsilon, self.eta)
        if denom not in (1, 2):
            raise ValueError("unit split denom must be 1 or 2")
        if epsilon * eta != self.d:
            raise ValueError("epsilon * eta must equal d")
        if g * (m * m * epsilon - n * n * eta) != 2 * denom:
            raise ValueError("split fails g*(m^2*epsilon - n^2*eta) = 2*denom")
        if math.gcd(m, n) != 1:
            raise ValueError("m and n must be coprime")


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def epsilon_decomposition(d: int) -> UnitSplit:
    """Split the norm +1 fundamental unit of Q(sqrt(d)) as documented on
    UnitSplit, d squarefree > 1, from half its period; no unit is built.

    The walk is `fundamental_unit`'s (`_ring_walk`), from w = (p0 +
    sqrt(d))/q0 = (1 + sqrt(d))/2 when d = 1 (mod 4) and sqrt(d) otherwise.
    For an even period l = 2h the unit is alpha^2/|N(alpha)| with alpha = (X +
    Y*sqrt(d))/q0 = A - B*w', folded by `_fold` from the convergent A/B of
    a_0..a_{h-1}, the head without its last quotient, so with the small K =
    |X^2 - d*Y^2| = q0^2*|N(alpha)|:

        u = (X^2 + d*Y^2 + 2*X*Y*sqrt(d))/K,

    and denom is 1 exactly when K divides X^2 + d*Y^2, or 2*d*Y^2, as K
    divides X^2 - d*Y^2: then K^2 divides (X^2 + d*Y^2)^2 - K^2 =
    d*(2*X*Y)^2, and K divides 2*X*Y as d is squarefree.  Then z +-
    denom are 2*denom*X^2/K and 2*denom*d*Y^2/K, the first being z + denom
    when N(alpha) > 0.  With c = gcd(X, Y), e = gcd(X/c, d) and g =
    2*denom*c^2*e/K, they are g*e*(X/(c*e))^2 and g*(d/e)*(Y/c)^2.  Every
    gcd and division is on at most half the unit's bits, and nothing is
    factored.

    Raises ValueError when the fundamental unit has norm -1 (an odd period;
    no split exists).  Cached per kernel: a theorem scan asks for the split
    of one witness kernel in several triples.
    """
    _real_primes(d, "epsilon splits")
    p0, q0, head, odd = _ring_walk(d)
    if odd:
        raise ValueError(f"fundamental unit of Q(sqrt({d})) has norm -1; no epsilon split")
    x, y = _fold(d, p0, q0, head[:-1])
    norm = x * x - d * y * y  # q0^2 * N(alpha)
    k = abs(norm)
    denom = 1 if 2 * d * (y % k) ** 2 % k == 0 else 2
    c = math.gcd(x, y)
    e = math.gcd(x // c, d)
    g = 2 * denom * c * c * e // k
    if norm > 0:
        epsilon, m, n = e, x // (c * e), y // c
    else:
        epsilon, m, n = d // e, y // c, x // (c * e)
    return UnitSplit(d, denom, g, m, n, epsilon, d // epsilon)


class PeriodInvariants(Record):
    """The facts H^1 needs of Q(sqrt(d)), by genus theory when the 4-rank of
    its narrow class group is 0, else read off the continued fraction of
    sqrt(d).

    norm is N(u) for the fundamental unit u, a_class is [N(u + 1)], and
    two_is_norm says whether 2 or -2 is the norm of an element of Z[sqrt(d)];
    it is exact only when d != 1 (mod 4), where 2 ramifies.
    """

    __slots__ = ("d", "norm", "a_class", "two_is_norm")


def period_invariants(d: int) -> PeriodInvariants:
    """Unit norm, [N(u + 1)] and the +-2 norm fact of Q(sqrt(d)), d squarefree > 1.

    Two routes give the same three facts.  When the 4-rank of the narrow
    class group is 0, genus theory reads them off local norm symbols at the
    ramified primes of d, with no walk (`genus`).  Every other kernel takes
    the walk to the middle of the period (`forms`), read as below.

    With period length l, convergents p_k/q_k and complete-quotient
    denominators Q_k, p_{k-1}^2 - d*q_{k-1}^2 = (-1)^k Q_k.  The walk to the
    middle of the period gives the parity of l, Q_h for h = floor(l/2) and,
    when l is even, the parity of h, where the exact recurrence's symmetry
    stops it.

    norm: N(u) = (-1)^l.

    a_class: [1] when N(u) = -1.  For l = 2h, alpha = p_{h-1} + q_{h-1}*sqrt(d)
    has N(alpha) = (-1)^h Q_h, and the least solution of x^2 - d*y^2 = 1 is
    u = alpha^2/|N(alpha)|.  So u + 1 = alpha*(alpha +- alpha')/|N(alpha)|,
    and N(u + 1) is Tr(alpha)^2/N(alpha) when N(alpha) > 0 and
    -4*d*q_{h-1}^2/N(alpha) when N(alpha) < 0: [N(u + 1)] = [N(alpha)] =
    [Q_h] for h even and [-d*N(alpha)] = [d*Q_h] for h odd.  When d = 5
    (mod 8) the fundamental unit e may be half-integral with u = e^3; then
    e^3 + 1 = (e + 1)*e*(Tr(e) - 1) and N(e^3 + 1) = N(e + 1)*(Tr(e) - 1)^2,
    so the class is the same.  Q_h divides 2d; that is checked here, in
    place of the norm check FundamentalUnit makes.

    Nothing is factored: d is squarefree and Q_h divides 2d, so Q_h is
    squarefree unless 4 divides it, and 4 never does.  If it did, 4 | 2d
    would make d = 2 (mod 4), while m_h^2 + Q_h*Q_{h-1} = d would make
    d = m_h^2 = 0 or 1 (mod 4).  So [Q_h] is read off Q_h itself.

    two_is_norm: for |c| < sqrt(d), c = x^2 - d*y^2 with gcd(x, y) = 1 iff
    c = (-1)^k Q_k for some k.  When 2 ramifies every solution of norm +-2 is
    primitive (gcd(x, y)^2 divides 2), so +-2 is a norm iff 2 is a Q_k when
    d > 4; d = 3 has Q_1 = 2, and sqrt(2) itself has norm -2.  The reduced
    ideal [Q_k, m_k + sqrt(d)] has the conjugate [Q_{l-k}, m_{l-k} +
    sqrt(d)], and the ramified prime of norm 2 is its own conjugate, so it
    can only be the one at k = l/2: 2 is a Q_k iff l is even and Q_h = 2.
    (When d = 1 mod 4 no Q_k is 2, as that form would have content 2.)
    """
    return _kernel_invariants(d, _real_primes(d, "period invariants"))


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel_invariants(d: int, primes: tuple[int, ...]) -> PeriodInvariants:
    """`period_invariants` without the check that d is squarefree and > 1,
    given the primes of d, ascending.

    The kernels of a BiquadraticField were validated when it was built, and
    checking them again cost a Pollard rho on m*n for coprime m and n; the
    field already holds every kernel's primes.  The primes are a function of
    d, so the cache holds one entry per kernel.
    """
    found = genus._genus_invariants(d, _ramified(d, primes))
    return _walk_invariants(d) if found is None else PeriodInvariants(d, *found)

def _walk_invariants(d: int) -> PeriodInvariants:
    """`period_invariants` read off the middle of the period of sqrt(d), by
    `forms._search_midpoint`; the route for every kernel of positive 4-rank."""
    h_odd, q_h, odd = forms._search_midpoint(d)
    if odd:
        return PeriodInvariants(d, -1, IDENTITY, d == 2)
    if (2 * d) % q_h:
        raise ArithmeticError(
            f"half-period denominator {q_h} of sqrt({d}) does not divide {2 * d}")
    # Q_h divides 2d and is never a multiple of 4, so it is squarefree
    a_class = SquareClass._known(1, q_h)
    if h_odd:
        a_class = SquareClass._known(1, d) * a_class
    return PeriodInvariants(d, 1, a_class, q_h == 2)


def a_value(d: int) -> SquareClass:
    """Square class of N(u + 1) for the fundamental unit u of Q(sqrt(d)).

    [1] when N(u) = -1.  Otherwise [Q_h] for h = l/2 even and [d*Q_h] for h
    odd, with Q_h the complete-quotient denominator at half the period l of
    sqrt(d): u = alpha^2/|N(alpha)| for the half-period convergent alpha, so
    [N(u + 1)] = [N(alpha)] or [-d*N(alpha)] (see period_invariants).
    """
    return period_invariants(d).a_class


class NormEquationSolution(Record):
    """alpha = (x + y*sqrt(d))/denom in O_K with N(alpha) = c."""

    __slots__ = ("d", "c", "x", "y", "denom")

    def _check(self) -> None:
        d, x, y, denom = self.d, self.x, self.y, self.denom
        if denom not in (1, 2):
            raise ValueError("denom must be 1 or 2")
        if x * x - d * y * y != self.c * denom * denom:
            raise ValueError("claimed solution fails the norm equation")
        if denom == 2 and (d % 4 != 1 or x % 2 != y % 2):
            raise ValueError("half-integral solution outside the ring of integers")


def _ramified_decider(d: int, c: int) -> NormEquationSolution | None:
    """Decide N(alpha) = c for real d and prime |c| dividing disc(Q(sqrt(d))).

    Complete: always returns a verified solution or a definitive None.
    """
    if c == -d:
        return NormEquationSolution(d, c, 0, 1, 1)
    ell = abs(c)
    tau = 1 if c > 0 else -1
    u = _unit(d)
    if ell == d:
        return NormEquationSolution(d, c, d * u.t, u.z, u.denom) if u.norm == -1 else None
    if u.norm == -1:
        return None
    delta = u.denom
    # z + tau*delta is g*m^2*epsilon or g*n^2*eta (see UnitSplit), so this is
    # 2*delta*g*ell*(epsilon or eta) times a square
    s = 2 * delta * ell * (u.z + tau * delta)
    root = math.isqrt(s)
    if root * root != s:
        return None
    # x^2 - d*y^2 = c: with denom 1, x^2 = ell*(z + tau*delta)/(2*delta), and
    # with denom 2, x^2 = 2*ell*(z + tau*delta)/delta
    if root % (2 * delta) == 0:
        x = root // (2 * delta)
        return NormEquationSolution(d, c, x, ell * u.t // (2 * delta * x), 1)
    x = root // delta
    return NormEquationSolution(d, c, x, 2 * ell * u.t // (delta * x), 2)


def _scan_imaginary(d: int, c: int) -> NormEquationSolution | None:
    if c < 0:
        return None
    denoms = (1, 2) if d % 4 == 1 else (1,)
    for denom in denoms:
        target = c * denom * denom
        y = 0
        while -d * y * y <= target:
            rest = target + d * y * y
            if is_square(rest):
                x = math.isqrt(rest)
                if denom == 1 or x % 2 == y % 2:
                    return NormEquationSolution(d, c, x, y, denom)
            y += 1
    return None


def norm_equation(d: int, c: int) -> NormEquationSolution | None:
    """An integral element of Q(sqrt(d)) of norm c, or None if none exists.

    For d < 0 a finite scan decides every c.  For d > 1 only the norms the
    Polya tests ask for are decided, each exactly: c = +-1 from the
    fundamental unit, and c = +-l for a prime l that ramifies
    (`_ramified_decider`) or is inert (never a norm).  Composite |c| and
    split primes raise ValueError.  The unit is asked for last: c = 1, a
    composite |c|, a split or inert l and a local obstruction at an odd
    ramified prime are all settled before any unit is built.
    """
    return _norm_equation(d, c, _radicand_primes(d))


def _norm_equation(d: int, c: int, primes: tuple[int, ...]) -> NormEquationSolution | None:
    """`norm_equation` without the check of d, given its primes, ascending."""
    if c == 0:
        raise ValueError("c must be nonzero")
    if d < 0:
        return _scan_imaginary(d, c)
    if c == 1:
        return NormEquationSolution(d, c, 1, 0, 1)
    if c == -1:
        u = _unit(d)
        return NormEquationSolution(d, c, u.z, u.t, u.denom) if u.norm == -1 else None
    ell = abs(c)
    if not is_prime(ell):
        raise ValueError(f"norm_equation decides only c = +-1 and c = +-l, l prime, "
                         f"for real d; |c| = {ell} is composite")
    ramified = ell in _ramified(d, primes)
    if not ramified and (d % 8 == 1 if ell == 2 else jacobi(d, ell) == 1):
        raise ValueError(f"norm_equation decides only ramified and inert primes "
                         f"for real d; {ell} splits in Q(sqrt({d}))")
    # Local obstructions at odd ramified primes not dividing c.
    for p in primes:
        if p != 2 and c % p != 0 and jacobi(c, p) == -1:
            return None
    return _ramified_decider(d, c) if ramified else None  # an inert l is no norm


POLYA = "Polya"
NOT_POLYA = "NotPolya"


class ZantemaVerdict(Record):
    """Outcome of Zantema's five-case classification of quadratic Polya fields."""

    __slots__ = ("d", "polya", "case")

    @property
    def verdict(self) -> str:
        return POLYA if self.polya else NOT_POLYA


def zantema_classify(d: int) -> ZantemaVerdict:
    """Classify Q(sqrt(d)) as Polya or not by Zantema's five cases:

    (1) d = -1, -2, 2; (2) d = -p with p = 3 mod 4 prime; (3) d = p an odd
    prime; (4) d = 2p with p = 3 mod 4, or p = 1 mod 4 and unit norm +1;
    (5) d = pq, odd primes, p = q = 3 mod 4, or p = q = 1 mod 4 and unit
    norm +1.  Everything else is not Polya.
    """
    return _zantema(d, _radicand_primes(d))


def _zantema(d: int, primes: tuple[int, ...]) -> ZantemaVerdict:
    """`zantema_classify` without the check of d, given its primes, ascending."""
    if d in (-1, -2, 2):
        return ZantemaVerdict(d, True, "case 1")
    if d < 0:
        if primes == (-d,) and (-d) % 4 == 3:
            return ZantemaVerdict(d, True, "case 2")
        return ZantemaVerdict(d, False, None)
    if primes == (d,):
        return ZantemaVerdict(d, True, "case 3")
    if len(primes) == 2:
        if primes[0] == 2:
            p = primes[1]
            if p % 4 == 3 or _unit(d).norm == 1:
                return ZantemaVerdict(d, True, "case 4")
            return ZantemaVerdict(d, False, None)
        p, q = primes
        if p % 4 == 3 and q % 4 == 3:
            return ZantemaVerdict(d, True, "case 5")
        if p % 4 == 1 and q % 4 == 1 and _unit(d).norm == 1:
            return ZantemaVerdict(d, True, "case 5")
    return ZantemaVerdict(d, False, None)


def quadratic_polya_oracle(d: int) -> str:
    """Polya test via principality of every ramified prime of Q(sqrt(d)).

    A quadratic field is Polya iff each ramified prime ideal is principal,
    i.e. norm_equation(d, l) or norm_equation(d, -l) has a solution for every
    ramified l.  Independent of zantema_classify.  Ramified targets go to
    complete deciders, so the verdict is always definitive.
    """
    for ell in ramified_primes(d):
        if norm_equation(d, ell) is None and norm_equation(d, -ell) is None:
            return NOT_POLYA
    return POLYA

