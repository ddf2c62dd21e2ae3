"""The middle of the period of sqrt(d) by the infrastructure of reduced
binary quadratic forms: the route to a kernel's unit norm, [N(u + 1)] and
+-2 norm fact for every kernel that genus theory (`genus`) cannot answer.

`_midpoint` walks the recurrence of `quadratic._half_period` but keeps only
the current denominators, on integers below 2*sqrt(d) past the first step
(one-digit Python ints for every d below 2^58).  A half period of more than
`_PLAIN_STEPS` steps is reached by `_search_midpoint`, Shanks' baby-step
giant-step search on the reduced forms of discriminant 4d (D. Shanks, "The
infrastructure of a real quadratic field and its applications", 1972), in
O(sqrt(h)) steps and compositions for a half period of h steps.  It is the
module's one entry: the keys Q << bits | m of its table and the mirror of a
form stay here.  The module imports nothing from `quadratic` or `genus`, so
the walk stays an independent oracle for the genus route.
"""

from __future__ import annotations

import math
from itertools import count, repeat


def _midpoint(d: int, m: int = 0, q_prev: int | None = None, q: int = 1,
              steps: int | None = None,
              marks: list[int] | None = None) -> tuple[bool, int, bool] | None:
    """Where `quadratic._half_period` stops, without its list: (h_odd, q_h, odd).

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

