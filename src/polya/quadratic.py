"""Quadratic fields Q(sqrt(d)): continued fractions, fundamental units,
norm equations, and the Polya property.

Conventions.  d is a squarefree integer, d not in {0, 1}.  The ring of
integers is Z[(1+sqrt(d))/2] when d = 1 mod 4 and Z[sqrt(d)] otherwise, so
elements are (x + y*sqrt(d))/denom with denom in {1, 2}, and denom = 2 forces
x = y (mod 2) and d = 1 (mod 4).  `_radicand_primes` checks d by factoring
|d| and returns its primes; it is the only place this module factors, and
the functions that need the primes of d (`ramified_primes`, `norm_equation`,
`zantema_classify`, and the CLI's own check) read them from it.  It keeps
them in a memo keyed by d and the factoring budget, so a command factors
|d| once however many steps ask; the budget is in the key because a smaller
budget must be able to run out on a d that a larger one factored.

The bi-quadratic pipeline needs three facts per kernel from
`period_invariants`: the unit norm, the square class [N(u + 1)] (`a_value`)
and whether 2 or -2 is a norm.  No unit is built.  When the 4-rank of the
narrow class group is 0, `_genus_invariants` reads all three off the local
norm symbols of -1 and the ramified primes, Legendre symbols at the odd
primes of d: then, and only then, every ambiguous ideal in the principal
genus is principal in the narrow sense (Redei and Reichardt; Stevenhagen;
see there).  Every other kernel, and every test of that route, reads them
off the middle of the period of the continued fraction of sqrt(d).  Two
walks step through the period by the same recurrence: `_midpoint` keeps
nothing but the current denominators and returns the parity of its length,
the last denominator and how it ended, in constant memory; `_half_period`
keeps the partial quotients, which `cf_expand` mirrors into the full
period.  (It also walks the period of (1 + sqrt(d))/2 for `_ring_walk`.)
Past the first step both work on integers below 2*sqrt(d), each a one-digit
Python int (below 2^30) for every d below 2^58.

`_midpoint` walks a half period of up to `_PLAIN_STEPS` steps from its
start.  Past that, `_search_midpoint` finds a start near the middle by
Shanks' baby-step giant-step search in the infrastructure of the reduced
binary quadratic forms of discriminant 4d (D. Shanks, "The infrastructure of
a real quadratic field and its applications", 1972): every 16th form of the
walk keys a table, giant steps of one composition move the square of a form
along the cycle, the walk doubles whenever a phase of them has cost more
than it, and a hit's exact offset puts a rebuilt form a few steps from the
middle.  A half period of h steps then costs O(sqrt(h)) steps and
compositions, and `_midpoint` walks on to the recurrence's own stop.  The
answer is that stop, so it is exact and equal to the linear walk's.  The
search is one loop of phases, each a walk, its keys and its giant steps.
A hit always lands: the walk from it runs in rounds that double until it
stops, so the first hit ends the search.  Each walk of a phase goes on
from where the last one ended, so the walk alone reaches the middle of a
search that no probe hits.

The fundamental unit itself serves classify-quadratic and the norm equation
deciders.  `_ring_walk` is the one owner of the generator of the ring of
integers, (1 + sqrt(d))/2 when d = 1 (mod 4) and sqrt(d) otherwise: it
checks d, picks that start and walks `_half_period` from it, and `_fold`
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
from itertools import count, repeat

from . import arith
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
    odd = [p for p in _radicand_primes(d) if p != 2]
    return tuple(([2] if d % 4 != 1 else []) + odd)


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


def _midpoint(d: int, m: int = 0, q_prev: int | None = None, q: int = 1,
              steps: int | None = None,
              marks: list[int] | None = None) -> tuple[bool, int, bool] | None:
    """Where `_half_period` stops, without its list: (h_odd, q_h, odd).

    h is the length of the half period, q_h = Q_h the last denominator
    (Q_0 = 1 when h = 0) and odd says which symmetry ended the walk, as in
    `_half_period`.  Each loop pass takes two steps, from an even k and from
    the odd k + 1, so the variables holding Q_{k-1} and Q_k swap roles with no
    rotation and the half that returns gives the parity of h.

    By default the walk starts at k = 0 and runs to the stop.  Given the state
    (m, q_prev, q) = (m_k, Q_{k-1}, Q_k) of some k >= 1 it starts there, and
    h_odd is then the parity of the number of steps it took.  It walks on
    through m_k = m_{k+1} where k is a multiple of l, the one stop with
    Q_k = 1, so from any k it stops at the next index = h (mod l).
    The walk goes in stretches of r = `_MARK_EVERY` steps.  Given steps, a
    multiple of r, it returns None once it has taken that many without
    stopping.  Given also marks, a list, it appends the key Q_k << bits | m_k
    of the form after every stretch to marks, bits = bit length of isqrt(d);
    the last one is that of the step where it ran out.  m_k < 2^bits, and
    Q_{k-1} = (d - m_k^2)/Q_k, so a key names the whole state.
    """
    a0 = math.isqrt(d)
    if q_prev is None:
        q_prev = d
    a = (a0 + m) // q
    bits, passes = a0.bit_length(), range(_MARK_EVERY // 2)
    for _ in repeat(None) if steps is None else repeat(None, steps // _MARK_EVERY):
        for _ in passes:
            # k even: q = Q_k, q_prev = Q_{k-1}, m = m_k; q_prev becomes Q_{k+1}
            m_next = a * q - m
            if m_next == m and q != 1:
                return False, q, False
            q_prev += a * (m - m_next)
            if q_prev == q:
                return False, q, True
            a = (a0 + m_next) // q_prev
            # k + 1 odd: q_prev = Q_{k+1}, q = Q_k, m_next = m_{k+1}; q becomes Q_{k+2}
            m = a * q_prev - m_next
            if m == m_next and q_prev != 1:
                return True, q_prev, False
            q += a * (m_next - m)
            if q == q_prev:
                return True, q_prev, True
            a = (a0 + m) // q
        if marks is not None:
            marks.append(q << bits | m)
    return None


# The midpoint search.  Each size below was measured on the 216 kernels of
# large-fields seeds 401, 2718, 5003, 7919, 31337 and 777 and the 5,141 of
# theorem-scan (Python 3.11, 2 vCPUs), all walked, where a composition costs
# about as much as 35 walk steps and a probed form about 2.5.  Since genus
# theory answers the kernels of 4-rank 0, 62 of those large-fields kernels
# and 273 of theorem-scan's walk.  _MARK_EVERY must be even and divide
# _PLAIN_STEPS.
#
# Steps walked from k = 0 before the first giant step.  42 of the 62
# large-fields kernels that walk have h > 1024 (9 of seed 401's 12, the
# largest h = 29,759); all 273 of theorem-scan's stop within 1024 steps.
# Over all 216 large-fields kernels, starting at 2048 walked 386,222 steps,
# not 206,044; starting at 512 walked 164,536 but composed 5,783 times,
# not 3,729.
_PLAIN_STEPS = 1024
# The walk keys every r-th form, and a probe walks r forms from each square.
# With r = 16 the first walk of all 5,141 theorem-scan kernels took 1.05x
# as long as with r = 32, and 1.09x as long as a walk that keys nothing; on
# the 273 that walk now, all within that first walk, keying costs 1.02-1.04x.
# With r = 32 the large-fields kernels probe twice as many forms, and
# searched about 1.2x as long.
_MARK_EVERY = 16
# A phase is walked/_PHASE_DIVISOR giant steps, then the walk goes on to
# twice its length.  A giant step (one composition and a probe of r forms)
# costs about 75 walk steps, so a phase costs about 2.3 times the walk so
# far, and the first phase reaches every large-fields midpoint (h < 31,000).
# With walked/64 those kernels walk 290,012 steps, not 206,044.
_PHASE_DIVISOR = 32


def _compose(f1: tuple[int, int, int], f2: tuple[int, int, int], disc: int,
             root: int) -> tuple[int, int, int]:
    """The reduced form of the composite f1*f2 of two primitive forms (a, b, c)
    of nonsquare discriminant disc > 0, with root = isqrt(disc).

    Composition is H. Cohen, A Course in Computational Algebraic Number
    Theory (GTM 138), Algorithm 5.4.7, with the extended gcds taken as
    modular inverses; it holds for indefinite forms and signed a.  Reduction
    is Cohen's rho (section 5.6.1): (a, b, c) -> (c, r, (r^2 - disc)/(4c))
    with r = -b (mod 2c), taken in (-|c|, |c|] while |c| > sqrt(disc) and
    in (sqrt(disc) - 2|c|, sqrt(disc)) after, until |sqrt(disc) - 2|a|| < b
    < sqrt(disc).  sqrt(disc) is irrational, so each bound is exact on root.
    """
    a1, b1, _ = f1
    a2, b2, c2 = f2
    s = (b1 + b2) // 2
    g1 = math.gcd(a1, a2)
    y1 = pow(a2 // g1, -1, a1 // g1)
    g2 = math.gcd(s, g1)
    x2 = pow(s // g2, -1, g1 // g2)
    y2 = (x2 * s - g2) // g1
    v1, v2 = a1 // g2, a2 // g2
    r = (y1 * y2 * (b2 - s) - x2 * c2) % v1
    b = b2 + 2 * v2 * r
    a = v1 * v2
    c = (b * b - disc) // (4 * a)
    while not (root - 2 * abs(a) < b <= root and 2 * abs(a) - b <= root):
        span = 2 * abs(c)
        if abs(c) > root:
            r = -b % span
            if 2 * r > span:
                r -= span
        else:
            r = root - (root + b) % span
        a, b, c = c, r, (r * r - disc) // (4 * c)
    return a, b, c


def _search_midpoint(d: int) -> tuple[bool | None, int, bool]:
    """(h_odd, q_h, odd) as `_midpoint(d)` gives them, by baby-step giant-step
    on the reduced forms of discriminant 4d; h_odd is None for odd periods.

    Step k of the walk is the reduced form f_k = ((-1)^k Q_k, 2m_k,
    (-1)^(k+1) Q_{k-1}), and f_1, f_2, ... run through the principal cycle.
    A composite of two of them reduces to some f_j of the cycle: (Q_j, m_j)
    names j mod l and the sign of the first coefficient gives the parity of
    j.  The mirror (c, b, a) of f_k is +-f_{l+1-k}, the inverse class, with
    key (Q_{k-1}, m_k).

    Each pass of the search's loop is a phase.  `_midpoint` walks on from
    k = 0 for `_PLAIN_STEPS` steps, then from its last mark to twice its
    length, and the keys of f_l and of every r-th form f_r, ..., f_w walked
    (r = `_MARK_EVERY`, w the steps walked) make up a table in that order.
    Then come w/32 giant steps.  Each multiplies S by G^2, G = f_{w-2r}, so
    S = J*J for J = G^n.  A probe walks r forms from S; when one of them or
    of their mirrors is keyed, S lies within w forms of the period's end,
    and the key's place gives S's exact offset e.  J, rebuilt by
    square-and-multiply, then lies about e/2 forms past the middle, and J
    times the keyed form nearest |e|/2 forms, or its mirror when e > 0, a
    few forms from it.  `_land` walks on from there, and from the mirror of
    its successor, in rounds that double until one walk stops, so the first
    hit ends the search.  The stride of S, 2(w - 2r), leaves a margin of
    about 4r forms below the window of 2w + r forms, so a composite that
    lands a few forms long cannot carry S over it.

    A phase's giant steps cost a few times as much as the walk so far, and
    the next walk doubles the table and the stride; J is then a product of
    each phase's G to the number of its steps, and the last S of a phase is
    probed against the longer table.  A half period of h steps costs
    O(sqrt(h)) steps and compositions and O(sqrt(h)/r) keys.  The walk ends
    every search that no probe hits: it keeps the exact recurrence's stops,
    and each walk goes on from the last mark, so after about log2(h/w)
    phases the walks alone have reached the middle.

    Every answer is the stop of `_midpoint`'s exact recurrence; the search
    only chooses where that walk starts.  With an odd period the form cycle
    has length 2l, and a walk that starts one lap further round flips the
    parity of h, so h_odd is None there.
    """
    a0 = math.isqrt(d)
    bits = a0.bit_length()
    disc = 4 * d
    root = math.isqrt(disc)
    # f_l = (1, 2a0, a0^2 - d) closes the window at the period's end
    keys = [1 << bits | a0]
    table = {keys[0]: 0}  # each key's place in keys
    powers: list[tuple[tuple[int, int, int], int]] = []  # (G, n) of each phase
    state, steps, walked = (0, None, 1), _PLAIN_STEPS, 0  # `_midpoint`'s k = 0
    s = None
    while True:
        # a later walk goes on from a mark, at an even k, so the parity of h
        # is the parity of the steps taken from there
        marks: list[int] = []
        found = _midpoint(d, *state, steps=steps, marks=marks)
        if found is not None:
            break
        table.update(zip(marks, count(len(keys))))
        keys += marks
        walked += steps
        # every mark is at an even k, so f_k = (Q_k, 2m_k, -Q_{k-1})
        m, q_prev, q = _state(d, marks[max(len(marks) - 3, 0)], bits)
        giant = (q, 2 * m, -q_prev)
        square = _compose(giant, giant, disc, root)
        n = 0
        if s is None:
            s, n = square, 1
        # the last S of a phase is probed in the next, against its longer table
        for _ in range(max(walked // _PHASE_DIVISOR, 1)):
            e = _probe(s, table, a0, bits)
            if e is not None:
                found = _land(d, (*powers, (giant, n)), e, keys)
                break
            s = _compose(s, square, disc, root)
            n += 1
        if found is not None:
            break
        powers.append((giant, n))
        state, steps = _state(d, marks[-1], bits), walked
    h_odd, q_h, odd = found
    return (None if odd else h_odd), q_h, odd


def _probe(s: tuple[int, int, int], table: dict[int, int], a0: int,
           bits: int) -> int | None:
    """The offset s - l (mod l) of S = f_s from the period's end, read off the
    first r forms f_{s+t} from S (r = `_MARK_EVERY`): k - t when f_{s+t} is
    the keyed f_k, 1 - k - t when its mirror f_{l+1-s-t} is, None when
    neither is.  table maps the keys of f_l, f_r, f_2r, ... to their places
    0, 1, 2, ..., so the key at place p is that of f_pr."""
    every = _MARK_EVERY
    s_a, s_b, s_c = s
    m, q_prev, q = s_b >> 1, abs(s_c), abs(s_a)
    for t in range(every):
        place = table.get(q << bits | m)
        if place is not None:
            return place * every - t
        place = table.get(q_prev << bits | m)
        if place is not None:
            return 1 - place * every - t
        a = (a0 + m) // q
        m_next = a * q - m
        m, q_prev, q = m_next, q, q_prev + a * (m - m_next)
    return None


def _state(d: int, key: int, bits: int) -> tuple[int, int, int]:
    """The state (m_k, Q_{k-1}, Q_k) that `_midpoint` marked with this key."""
    q, m = key >> bits, key & ((1 << bits) - 1)
    return m, (d - m * m) // q, q


def _land(d: int, powers: tuple[tuple[tuple[int, int, int], int], ...], e: int,
          keys: list[int]) -> tuple[bool, int, bool]:
    """`_midpoint`'s stop, walked to from near J = prod G^n over `powers`,
    whose square lies e forms from the period's end, so that J lies about e/2
    forms past the middle: from J times the keyed form nearest |e|/2 forms,
    then from the mirror of its successor, in rounds of 2r, 4r, 8r, ... steps
    until one walk stops (r = `_MARK_EVERY`).  keys holds the table's keys,
    each at its place."""
    every = _MARK_EVERY
    a0 = math.isqrt(d)
    disc = 4 * d
    root = math.isqrt(disc)
    j = None
    for g, n in powers:  # square-and-multiply
        while n:
            if n & 1:
                j = g if j is None else _compose(j, g, disc, root)
            n >>= 1
            if n:
                g = _compose(g, g, disc, root)
    # J times f_nr, the key nearest |e|/2 forms (f_l for n = 0), or times its
    # mirror, the inverse, lies about e/2 -+ nr forms past the middle
    n = (abs(e) + every) // (2 * every)
    m, q_prev, q = _state(d, keys[n], a0.bit_length())
    f_a, f_b, f_c = _compose(j, (q, 2 * m, -q_prev) if e < 0 else (-q_prev, 2 * m, q),
                             disc, root)
    m, q_prev, q = f_b >> 1, abs(f_c), abs(f_a)
    a = (a0 + m) // q
    m_next = a * q - m
    # the composite f_j and f_{l-j}, which has the state of f_{j+1} mirrored;
    # for an even period both have the parity of j.  One of them lies t steps
    # before the middle, and `_midpoint` from any state stops at the next
    # index = h (mod l), so the first round of at least t steps ends the loop.
    # Each round doubles the last, so the rounds walk fewer than 7t steps in
    # all, or at most 2r + t when the first one ends it
    for steps in (2 * every << i for i in count()):
        for start in ((m, q_prev, q), (m_next, q_prev + a * (m - m_next), q)):
            found = _midpoint(d, *start, steps=steps)
            if found is not None:
                h_odd, q_h, odd = found
                return h_odd != (f_a < 0), q_h, odd


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


def _ring_walk(d: int, what: str) -> tuple[int, int, list[int], bool]:
    """(p0, q0, head, odd) for the generator w = (p0 + sqrt(d))/q0 of the ring
    of integers of the real field Q(sqrt(d)): (1 + sqrt(d))/2 when d = 1
    (mod 4) and sqrt(d) otherwise, with `_half_period`'s walk of its period.
    Checks d first; what names the caller's result in its error."""
    _radicand_primes(d)
    if d < 2:
        raise ValueError(f"{what} require a real field, d > 1")
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


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def fundamental_unit(d: int) -> FundamentalUnit:
    """Fundamental unit of Q(sqrt(d)), d squarefree > 1.

    The least unit > 1 of the ring of integers, from the continued fraction
    of its generator w (`_ring_walk`): with A/B the convergent of a_0 and the
    whole period without its last partial quotient, mirrored from the half
    walk (`_mirror`), the unit is A - B*w' (`_fold`), and its norm is
    (-1)^l.  For d = 1 (mod 4) the unit comes as (x + y*sqrt(d))/2 with x = y
    (mod 2); when both are even it is integral and is halved.  (For d = 1
    mod 8 they always are: odd x and y give x^2 - d*y^2 = 0 mod 8, never
    +-4.)
    """
    p0, denom, head, odd = _ring_walk(d, "fundamental units")
    x, y = _fold(d, p0, denom, _mirror(head, odd))
    if denom == 2 and x % 2 == 0 and y % 2 == 0:
        x, y, denom = x // 2, y // 2, 1
    return FundamentalUnit(d, x, y, denom, -1 if odd else 1)


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
    p0, q0, head, odd = _ring_walk(d, "epsilon splits")
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
    class group is 0, `_genus_invariants` reads them off local norm symbols
    at the ramified primes of d, with no walk (see there).  Every other
    kernel takes the walk to the middle of the period, below.

    With period length l, convergents p_k/q_k and complete-quotient
    denominators Q_k, p_{k-1}^2 - d*q_{k-1}^2 = (-1)^k Q_k.  The walk to the
    middle of the period gives the parity of l, Q_h for h = floor(l/2) and,
    when l is even, the parity of h.  A half period of up to `_PLAIN_STEPS`
    steps is walked from its start.  A longer one is found by
    `_search_midpoint`'s baby-step giant-step search on reduced forms, whose
    walk and strides double with the period, in O(sqrt(h)) steps and
    compositions; its first hit lands a few steps from the middle and walks
    the rest, in rounds that double until the walk stops.
    Either way the three facts are read off the exact recurrence where its
    symmetry stops it, so they are the linear walk's.

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
    primes = _radicand_primes(d)
    if d < 2:
        raise ValueError("period invariants require a real field, d > 1")
    return _kernel_invariants(d, primes)


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel_invariants(d: int, primes: tuple[int, ...]) -> PeriodInvariants:
    """`period_invariants` without the check that d is squarefree and > 1,
    given the primes of d, ascending.

    The kernels of a BiquadraticField were validated when it was built, and
    checking them again cost a Pollard rho on m*n for coprime m and n; the
    field already holds every kernel's primes.  The primes are a function of
    d, so the cache holds one entry per kernel.
    """
    found = _genus_invariants(d, primes)
    return _walk_invariants(d) if found is None else found


def _genus_invariants(d: int, primes: tuple[int, ...]) -> PeriodInvariants | None:
    """The period invariants of Q(sqrt(d)) by genus theory, or None when the
    4-rank r4 of its narrow class group Cl+ is positive.

    The generators are -1 and the t ramified primes: the odd primes of d,
    and 2 when d != 1 (mod 4).  By Hasse's theorem a signed product c of
    them is a norm from Q(sqrt(d)) iff every Hilbert symbol (c, d)_v is 1
    (J.-P. Serre, A Course in Arithmetic, ch. III).  Only a ramified prime
    can give -1: d > 0, and for d = 1 (mod 4) every generator is odd, so
    (c, d)_2 = 1.  The product formula drops one ramified prime, the
    smallest, so no 2-adic symbol is ever taken.  At an odd ramified p,
    (-1, d)_p = (-1|p), (q, d)_p = (q|p) for a generator q != p and
    (p, d)_p = (-(d/p)|p).  The norms among the products are the F2 kernel
    of the generators' symbol vectors.

    They number 2^(2 + r4) (L. Redei and H. Reichardt, J. reine angew. Math.
    170, 1934; P. Stevenhagen, "Redei-matrices and applications", LMS
    Lecture Note Ser. 215, 1995).  Send c > 0 to the ambiguous ideal of norm
    c and c < 0 to that ideal times (sqrt(d)): c is a norm iff the narrow
    class of its ideal lies in the principal genus, which is Cl+^2, and -d
    = N(sqrt(d)) is always a norm, so c and -d*c (up to squares) are sent
    to one ideal.  The 2^t ambiguous ideals fall 2 to 1 onto Cl+[2], which
    meets Cl+^2 in 2^r4 classes; so 2 * 2 * 2^r4 products are norms.  With
    exactly four, r4 = 0, the ideal of a norm c is principal in the narrow
    sense, and c is the norm of its generator:

    - N(u) = -1 iff -1 is a norm: then (sqrt(d)) has a generator of
      positive norm, and sqrt(d) is that generator times a unit of norm -1;
    - otherwise u + 1 is a rational times a generator of an ambiguous ideal
      that is not (1) (or u would be a square), and N(u + 1) > 0, so
      a_class is [e] for the one positive norm e > 1;
    - two_is_norm is d == 2 for N(u) = -1, as on the walk.  Otherwise the
      norms are 1, e, -d and -d*e up to squares, so 2 or -2 is a norm iff
      [e] is [2] or [2d]; for d = 1 (mod 4) 2 is no generator, and neither.

    Each symbol is Euler's criterion, one `pow` to the exponent (p - 1)/2,
    and a set of generators is a bit mask: bit 0 stands for -1, so the mask
    1 is -1 alone and the masks of positive products have bit 0 clear.
    """
    ramified = ([2] if d % 4 != 1 else []) + [p for p in primes if p != 2]
    gens = (-1, *ramified)
    places = ramified[1:]
    pivots: dict[int, tuple[int, int]] = {}  # lowest bit -> (row, generators)
    kernel: list[int] = []
    for i, g in enumerate(gens):
        row = 0
        for bit, p in enumerate(places):
            if pow(-(d // p) if g == p else g, p >> 1, p) != 1:
                row |= 1 << bit
        which = 1 << i
        while row:
            low = row & -row
            if low not in pivots:
                pivots[low] = row, which
                break
            pivot, chosen = pivots[low]
            row ^= pivot
            which ^= chosen
        else:
            kernel.append(which)
    if len(kernel) != 2:
        return None
    k1, k2 = kernel
    norms = (k1, k2, k1 ^ k2)
    if 1 in norms:
        return PeriodInvariants(d, -1, IDENTITY, d == 2)
    # -d is a norm, so exactly one of the three is positive
    positive = next(m for m in norms if not m & 1)
    e = math.prod(g for i, g in enumerate(gens) if positive >> i & 1)
    return PeriodInvariants(d, 1, SquareClass._known(1, e),
                            e in (2, 2 * d if d % 2 else d // 2))


def _walk_invariants(d: int) -> PeriodInvariants:
    """`period_invariants` read off the middle of the period of sqrt(d), by
    `_search_midpoint`; the route for every kernel of positive 4-rank."""
    h_odd, q_h, odd = _search_midpoint(d)
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
    u = fundamental_unit(d)
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
    primes = _radicand_primes(d)
    if c == 0:
        raise ValueError("c must be nonzero")
    if d < 0:
        return _scan_imaginary(d, c)
    if c == 1:
        return NormEquationSolution(d, c, 1, 0, 1)
    if c == -1:
        u = fundamental_unit(d)
        return NormEquationSolution(d, c, u.z, u.t, u.denom) if u.norm == -1 else None
    ell = abs(c)
    if not is_prime(ell):
        raise ValueError(f"norm_equation decides only c = +-1 and c = +-l, l prime, "
                         f"for real d; |c| = {ell} is composite")
    ramified = ell in ramified_primes(d)
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
    primes = _radicand_primes(d)
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
            if p % 4 == 3 or fundamental_unit(d).norm == 1:
                return ZantemaVerdict(d, True, "case 4")
            return ZantemaVerdict(d, False, None)
        p, q = primes
        if p % 4 == 3 and q % 4 == 3:
            return ZantemaVerdict(d, True, "case 5")
        if p % 4 == 1 and q % 4 == 1 and fundamental_unit(d).norm == 1:
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


class DirichletReport(Record):
    """Audit of the norm -1 criterion for Q(sqrt(rs)), r and s distinct primes."""

    __slots__ = ("r", "s", "applies", "norm", "consistent")


def dirichlet_norm_criterion(r: int, s: int) -> DirichletReport:
    """Check the classical criterion: for primes r = s = 1 (mod 4) with
    (r/s) = -1, the fundamental unit of Q(sqrt(rs)) has norm -1.

    The congruence restriction is required: norm -1 forces -1 to be a square
    modulo every odd prime divisor of rs.  The computed norm is reported even
    when the criterion does not apply, so the raw claim can be audited.
    """
    if r == s or not (is_prime(r) and is_prime(s)):
        raise ValueError("r and s must be distinct primes")
    applies = r % 4 == 1 and s % 4 == 1 and jacobi(r, s) == -1
    norm = fundamental_unit(r * s).norm
    consistent = (not applies) or norm == -1
    return DirichletReport(r, s, applies, norm, consistent)
