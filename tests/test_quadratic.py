"""Real quadratic machinery: continued fractions, units, splits, norm forms,
and the two independent Polya classification routes."""

from __future__ import annotations

import math
import random
import tracemalloc
from unittest.mock import Mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polya import quadratic
from polya.arith import iroot, is_square, squarefree_part
from polya.biquad import _has_norm_pm2
from polya.quadratic import (NOT_POLYA, POLYA, NormEquationSolution, _genus_invariants,
                             _kernel_invariants, _midpoint, _radicand_primes,
                             _search_midpoint, _walk_invariants, a_value,
                             cf_expand, dirichlet_norm_criterion,
                             epsilon_decomposition, fundamental_unit, norm_equation,
                             period_invariants, quadratic_polya_oracle,
                             ramified_primes, zantema_classify)
from polya.sqclass import IDENTITY, SquareClass, class_of

squarefree_real = st.integers(min_value=2, max_value=3000).map(squarefree_part)

# textbook fundamental units (z, t, denom, norm), minimal > 1
KNOWN_UNITS = {
    2: (1, 1, 1, -1), 3: (2, 1, 1, 1), 5: (1, 1, 2, -1), 6: (5, 2, 1, 1),
    7: (8, 3, 1, 1), 10: (3, 1, 1, -1), 11: (10, 3, 1, 1), 13: (3, 1, 2, -1),
    14: (15, 4, 1, 1), 15: (4, 1, 1, 1), 17: (4, 1, 1, -1), 19: (170, 39, 1, 1),
    21: (5, 1, 2, 1), 22: (197, 42, 1, 1), 23: (24, 5, 1, 1), 26: (5, 1, 1, -1),
    29: (5, 1, 2, -1), 30: (11, 2, 1, 1), 31: (1520, 273, 1, 1), 33: (23, 4, 1, 1),
    34: (35, 6, 1, 1), 35: (6, 1, 1, 1), 37: (6, 1, 1, -1), 38: (37, 6, 1, 1),
    39: (25, 4, 1, 1), 41: (32, 5, 1, -1), 42: (13, 2, 1, 1), 43: (3482, 531, 1, 1),
    85: (9, 1, 2, -1), 105: (41, 4, 1, 1),
}


def test_cf_expand_examples():
    two = cf_expand(2)
    assert (two.preperiod, two.period) == ((1,), (2,))
    seven = cf_expand(7)
    assert (seven.preperiod, seven.period) == ((2,), (1, 1, 1, 4))
    fifteen = cf_expand(15)
    assert (fifteen.preperiod, fifteen.period) == ((3,), (1, 6))


def test_cf_expand_rejects_squares_and_small():
    for d in (0, 1, 4, 9, 16):
        with pytest.raises(ValueError):
            cf_expand(d)


@given(st.integers(min_value=2, max_value=5000))
def test_cf_period_structure(d):
    if math.isqrt(d) ** 2 == d:
        return
    cf = cf_expand(d)
    a0 = math.isqrt(d)
    assert cf.preperiod == (a0,)
    assert cf.period[-1] == 2 * a0
    # the period head is a palindrome
    head = cf.period[:-1]
    assert head == head[::-1]


def division_period(d: int, p0: int = 0, q0: int = 1
                    ) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """(preperiod, period, q_values) of (p0 + sqrt(d))/q0 by the textbook
    full-period walk, Q_{k+1} = (d - m_{k+1}^2)/Q_k until Q = q0: the
    reference for cf_expand and, from (1 + sqrt(d))/2, for the unit walk."""
    root = math.isqrt(d)
    m, q = p0, q0
    a0 = a = (p0 + root) // q0
    period: list[int] = []
    q_values: list[int] = []
    while True:
        m = q * a - m
        q = (d - m * m) // q
        a = (root + m) // q
        period.append(a)
        q_values.append(q)
        if q == q0:
            return (a0,), tuple(period), tuple(q_values)


def test_cf_expand_matches_division_walk():
    for d in range(2, 30000):
        if math.isqrt(d) ** 2 != d:
            cf = cf_expand(d)
            assert (cf.preperiod, cf.period) == division_period(d)[:2], d


@given(st.integers(min_value=2 ** 30, max_value=10 ** 12))
@settings(max_examples=30, deadline=None)
def test_cf_expand_and_period_invariants_beyond_one_digit(d):
    # d has two 30-bit digits, so the walk's recurrence no longer squares or
    # divides a one-digit number
    assume(math.isqrt(d) ** 2 != d)
    preperiod, period, q_values = division_period(d)
    cf = cf_expand(d)
    assert (cf.preperiod, cf.period) == (preperiod, period), d
    if squarefree_part(d) != d:
        return
    inv = period_invariants(d)
    length = len(period)
    assert inv.norm == (-1) ** length, d
    if length % 2 == 0:
        h = length // 2
        q_h = q_values[h - 1]
        assert inv.a_class == class_of(q_h if h % 2 == 0 else d * q_h), d
    else:
        assert inv.a_class == IDENTITY, d
    assert inv.two_is_norm == (2 in q_values), d


def check_midpoint(d: int) -> None:
    """_midpoint against the half period of cf_expand's full period, with
    the denominators Q_k of the textbook walk."""
    q_values = division_period(d)[2]
    h, odd = divmod(cf_expand(d).period_length, 2)
    q_h = q_values[h - 1] if h else 1
    assert _midpoint(d) == (h % 2 == 1, q_h, odd == 1), d
    # the ideal of norm 2 is its own conjugate, so it sits at k = l/2
    assert (2 in q_values) == (not odd and q_h == 2), d


def test_midpoint_matches_cf_expand():
    for d in range(2, 30000):
        if math.isqrt(d) ** 2 != d:
            check_midpoint(d)


@given(st.integers(min_value=2 ** 30, max_value=10 ** 12))
@settings(max_examples=30, deadline=None)
def test_midpoint_matches_cf_expand_beyond_one_digit(d):
    assume(math.isqrt(d) ** 2 != d)
    check_midpoint(d)


def test_period_invariants_walk_a_long_half_period_in_bounded_memory():
    # 10**12 + 39 is a prime whose half period has 266,286 steps; held as
    # lists, as cf_expand holds it, that half period takes about 13 MB.  Its
    # 4-rank is 0, so period_invariants reads it by genus theory; the walk
    # is called directly
    d = 10 ** 12 + 39
    expected = _walk_invariants(d)
    tracemalloc.start()
    try:
        inv = _walk_invariants(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inv == expected
    assert (inv.norm, inv.a_class, inv.two_is_norm) == (1, class_of(2), True)
    assert peak < 64 * 1024


def check_search(d: int) -> None:
    """_search_midpoint against the linear walk; h_odd is None for odd periods."""
    h_odd, q_h, odd = _midpoint(d)
    assert _search_midpoint(d) == (None if odd else h_odd, q_h, odd), d


def set_sizes(monkeypatch, plain: int, every: int) -> None:
    """Run the search with a first walk of `plain` steps keying every
    `every`-th form."""
    monkeypatch.setattr(quadratic, "_PLAIN_STEPS", plain)
    monkeypatch.setattr(quadratic, "_MARK_EVERY", every)


def test_search_midpoint_ends_by_its_walk_when_no_landing_stops(monkeypatch):
    # a hit always lands, so with every probe refused no landing starts, and
    # only the walk that each phase takes on from the last one's end can
    # stop.  The walks from k = 0 cover 1024 * 2^i steps after i phases, so
    # the ninth reaches the middle of the 266,286-step half period of
    # 10**12 + 39; at the smallest sizes they reach the middle of every
    # period below 3000
    probe = Mock(return_value=None)
    walk = Mock(wraps=quadratic._midpoint)
    monkeypatch.setattr(quadratic, "_probe", probe)
    monkeypatch.setattr(quadratic, "_midpoint", walk)
    check_search(10 ** 12 + 39)
    assert probe.call_count > 0
    assert walk.call_count == 1 + 9
    set_sizes(monkeypatch, 2, 2)
    for d in range(2, 3000):
        if math.isqrt(d) ** 2 != d:
            check_search(d)


def test_search_midpoint_reaches_a_long_midpoint_in_few_compositions(monkeypatch):
    # 10**12 + 39 has a half period of 266,286 steps.  The walk from k = 0
    # doubles twice, from 1024 to 4096 steps, and giant steps of about 1,000
    # to 4,000 forms reach the middle in about 120 giant steps of one
    # composition each.  The walks are the first one, the two doublings and
    # one of at most 32 steps from J corrected by the hit's offset.  Genus
    # theory answers this kernel, so the walk route is called directly
    compose = Mock(wraps=quadratic._compose)
    walk = Mock(wraps=quadratic._midpoint)
    monkeypatch.setattr(quadratic, "_compose", compose)
    monkeypatch.setattr(quadratic, "_midpoint", walk)
    inv = _walk_invariants(10 ** 12 + 39)
    assert (inv.norm, inv.a_class, inv.two_is_norm) == (1, class_of(2), True)
    assert compose.call_count <= 500
    assert walk.call_count == 4


def test_search_midpoint_matches_the_linear_walk_on_a_longer_period(monkeypatch):
    # 10**15 + 91 has a half period of about 4.5 million steps
    d = 10 ** 15 + 91
    compose = Mock(wraps=quadratic._compose)
    monkeypatch.setattr(quadratic, "_compose", compose)
    found = _search_midpoint(d)
    assert compose.call_count <= 3_000
    h_odd, q_h, odd = _midpoint(d)
    assert found == (None if odd else h_odd, q_h, odd) == (True, 2, False)


def test_search_midpoint_reaches_a_1e18_midpoint_in_few_compositions(monkeypatch):
    # the third kernel of `analyze 999999937 1000000007`, with a half period
    # of about 1.2e8 steps, too long for the linear walk in a test.  Q_h = 2
    # with h even gives the a-class [2] and unit norm +1 that the pinned
    # output of that command holds
    compose = Mock(wraps=quadratic._compose)
    monkeypatch.setattr(quadratic, "_compose", compose)
    assert _search_midpoint(999999943999999559) == (False, 2, False)
    assert compose.call_count <= 20_000


def test_search_midpoint_lands_once_on_kernels_near_2e17(monkeypatch):
    # two kernels whose first landing misses the middle by more than 2r = 32
    # forms, as form counts drift from distances over long spans.  A search
    # that refused such a landing and took more giant steps ran for minutes
    # on each; its first hit must end it, so a second landing raises
    compose = Mock(wraps=quadratic._compose)
    real_land = quadratic._land
    landings = [0]

    def land(*args):
        landings[0] += 1
        assert landings[0] == 1, "a second landing"
        return real_land(*args)

    monkeypatch.setattr(quadratic, "_compose", compose)
    monkeypatch.setattr(quadratic, "_land", land)
    for d, found, most in ((226166524659073007, (False, 536541034, False), 2_790),
                           (261025488844651519, (False, 2, False), 4_614)):
        compose.reset_mock()
        landings[0] = 0
        assert _search_midpoint(d) == found
        assert landings[0] == 1
        assert compose.call_count <= most


def test_search_midpoint_matches_the_linear_walk_with_small_sizes(monkeypatch):
    # sizes this small put most of these periods past the first walk, so
    # that the walk doubles and reaches the middle itself, squares land on
    # either side of the period's end, J corrected by the hit's offset lands
    # too far from the middle for the first round of 2r steps, after which
    # the rounds double, or J lies near the period's end, after which S runs
    # on round the cycle; every answer must still be the linear walk's, and
    # the first hit must end the search with one landing
    real_walk, real_probe, real_land = quadratic._midpoint, quadratic._probe, quadratic._land
    events: list[tuple[str, bool, int | None]] = []

    def walk(d, m=0, q_prev=None, q=1, steps=None, marks=None):
        found = real_walk(d, m, q_prev, q, steps, marks)
        kind = {(True, True): "first", (False, True): "doubled",
                (False, False): "from a hit"}
        events.append((kind[q_prev is None, marks is not None], found is not None, steps))
        return found

    def probe(*args):
        offset = real_probe(*args)
        if offset is not None:
            events.append(("hit past" if offset > 0 else "hit before", True, None))
        return offset

    def land(*args):
        events.append(("landing", True, None))
        return real_land(*args)

    monkeypatch.setattr(quadratic, "_midpoint", walk)
    monkeypatch.setattr(quadratic, "_probe", probe)
    monkeypatch.setattr(quadratic, "_land", land)
    seen = dict.fromkeys(["hit past", "hit before", "doubled walk stops",
                          "first round stops", "doubled round stops"], 0)
    for plain, every in ((2, 2), (4, 2), (16, 4)):
        set_sizes(monkeypatch, plain, every)
        for d in range(2, 8000):
            if math.isqrt(d) ** 2 != d:
                h_odd, q_h, odd = real_walk(d)
                events.clear()
                assert _search_midpoint(d) == (None if odd else h_odd, q_h, odd), d
                seen["doubled walk stops"] += events[-1][:2] == ("doubled", True)
                assert [kind for kind, *_ in events].count("landing") <= 1, d
                # a hit walks from the two starts of the corrected J in rounds
                # of 2r, 4r, ... steps, each start in turn, until one walk stops
                hits = [i for i, (kind, *_) in enumerate(events) if kind.startswith("hit")]
                for i in hits:
                    seen[events[i][0]] += 1
                    after = [(stopped, steps) for kind, stopped, steps in events[i + 1:]
                             if kind == "from a hit"]
                    stops, rounds = zip(*after)
                    assert stops == (False,) * (len(after) - 1) + (True,), d
                    assert rounds == tuple(2 * every << k // 2 for k in range(len(after))), d
                    seen["first round stops"] += len(after) <= 2
                    seen["doubled round stops"] += len(after) > 2
    assert all(seen.values()), seen


def period_distances(d: int) -> tuple[dict[tuple[int, int], int], list[float]]:
    """k for each state (Q_k, m_k), k = 1..l, of one period of sqrt(d), and
    the distances delta_k = sum of log((m_i + sqrt(d))/Q_{i-1}) over i <= k
    of the reduced forms f_k from f_0, k = 0..l."""
    a0, root = math.isqrt(d), math.sqrt(d)
    m, q, a = 0, 1, a0
    index: dict[tuple[int, int], int] = {}
    distances = [0.0]
    while q != 1 or not index:
        m, q_prev = q * a - m, q
        q = (d - m * m) // q
        a = (a0 + m) // q
        index[q, m] = len(index) + 1
        distances.append(distances[-1] + math.log((m + root) / q_prev))
    return index, distances


def test_giant_steps_stay_shorter_than_the_probe_window(monkeypatch):
    # after a walk of w steps from k = 0 the probe of r forms finds S = J*J
    # within the distance delta_w of the period's end on either side.  A
    # giant step multiplies S by G^2, which moves it about 2*delta_{w-2r} for
    # G = f_{w-2r}, so a composition that lands a little long cannot carry S
    # over that window.  Each step must stay below delta_w + delta_{w-2r},
    # half way to the 2*delta_w that G = f_w would leave with no margin
    real_walk, real_probe = quadratic._midpoint, quadratic._probe
    walked = [0]
    squares: list[tuple[tuple[int, int], int]] = []

    def walk(d, m=0, q_prev=None, q=1, steps=None, marks=None):
        if marks is not None:
            walked[0] += steps
        return real_walk(d, m, q_prev, q, steps, marks)

    def probe(s, *args):
        squares.append(((abs(s[0]), s[1] // 2), walked[0]))
        return real_probe(s, *args)

    monkeypatch.setattr(quadratic, "_midpoint", walk)
    monkeypatch.setattr(quadratic, "_probe", probe)
    steps = 0
    for (plain, r), ds in (((16, 4), range(2, 12000)),
                           ((64, 8), range(10 ** 6, 10 ** 6 + 300))):
        set_sizes(monkeypatch, plain, r)
        for d in ds:
            if math.isqrt(d) ** 2 == d:
                continue
            index, delta = period_distances(d)
            walked[0] = 0
            squares.clear()
            check_search(d)
            # S's place mod l, as keys ignore the sign that odd periods flip
            for (before, w), (after, _) in zip(squares, squares[1:]):
                step = (delta[index[after]] - delta[index[before]]) % delta[-1]
                assert step < delta[w] + delta[w - 2 * r], (d, plain, r)
                steps += 1
    assert steps > 1000


def test_walks_after_a_hit_stay_short(monkeypatch):
    # the 36 kernels of 12 bi-quadratic fields with kernels in 1e9..1e11.
    # J corrected by the hit's offset lies a few forms from the middle, so
    # the walks after the hits take a few hundred steps in all, where walks
    # of up to w steps from J itself take over 11,000
    kernels = (1068715119, 1449386354, 1503827846, 2021416954, 2153845146,
               2359929418, 2822571517, 2924070598, 3369132493, 3719196906,
               5449651410, 5504613353, 6427187338, 6932868742, 7041248518,
               8461910262, 8640293801, 12830289014, 14563389210, 19136314086,
               21755278654, 25697739554, 27459645665, 28097526135, 33414840311,
               43101969502, 45262111151, 45764583962, 46658798722, 53025824986,
               66689013007, 85681964927, 86028834893, 87341564401, 97254242097,
               99312950334)
    real_walk = quadratic._midpoint

    def steps_to_stop(d, start):
        # the least even budget with which the walk from start stops; the
        # walk takes whole stretches of _MARK_EVERY steps, so that is 2 here
        fails, stops = 0, 2
        with monkeypatch.context() as patch:
            patch.setattr(quadratic, "_MARK_EVERY", 2)
            while real_walk(d, *start, steps=stops) is None:
                fails, stops = stops, 2 * stops
            while stops - fails > 2:
                mid = (fails + stops) // 4 * 2
                if real_walk(d, *start, steps=mid) is None:
                    fails = mid
                else:
                    stops = mid
        return stops

    taken = [0]

    def walk(d, m=0, q_prev=None, q=1, steps=None, marks=None):
        found = real_walk(d, m, q_prev, q, steps, marks)
        if q_prev is not None and marks is None:
            taken[0] += steps if found is None else steps_to_stop(d, (m, q_prev, q))
        return found

    monkeypatch.setattr(quadratic, "_midpoint", walk)
    for d in kernels:
        check_search(d)
    assert 0 < taken[0] <= 1_000


def test_probe_names_the_side_of_the_period_end(monkeypatch):
    # the table keys f_l, which closes the window at the period's end, then
    # every 16th form of the walk from k = 0, here f_16 to f_1024.  A probe
    # of 16 forms gives S's offset from the period's end: from f_{t-6} it
    # finds the keyed f_t = f_336 (a form after the end), from the mirror of
    # f_{t+6}, which is f_{l-5-t}, the mirror of f_t (a form before it), and
    # from the mirror of f_6, f_{l-5}, the keyed f_l.  Past f_1024 it finds
    # nothing
    d = 10 ** 12 + 39
    a0 = math.isqrt(d)
    bits = a0.bit_length()
    marks: list[int] = []
    assert _midpoint(d, steps=1024, marks=marks) is None
    table = {key: place for place, key in enumerate([1 << bits | a0, *marks])}
    states: list[int] = []                    # the keys of f_2, f_4, ...
    with monkeypatch.context() as patch:
        patch.setattr(quadratic, "_MARK_EVERY", 2)
        assert _midpoint(d, steps=1056, marks=states) is None
    assert states[7:512:8] == marks

    def form(k: int) -> tuple[int, int, int]:  # f_k for even k
        m, q_prev, q = quadratic._state(d, states[k // 2 - 1], bits)
        return q, 2 * m, -q_prev

    def mirror(k: int) -> tuple[int, int, int]:
        a, b, c = form(k)
        return c, b, a

    t = 336
    assert quadratic._probe(form(t - 6), table, a0, bits) == t - 6
    assert quadratic._probe(mirror(t + 6), table, a0, bits) == -5 - t
    assert quadratic._probe(mirror(6), table, a0, bits) == -5
    assert quadratic._probe(form(1026), table, a0, bits) is None
    assert quadratic._probe(mirror(1042), table, a0, bits) is None


@given(st.integers(min_value=2 ** 30, max_value=10 ** 13))
@settings(max_examples=25, deadline=None)
def test_search_midpoint_matches_the_linear_walk_at_default_sizes(d):
    assume(math.isqrt(d) ** 2 != d)
    check_search(d)


def test_fundamental_unit_known_table():
    for d, expected in KNOWN_UNITS.items():
        u = fundamental_unit(d)
        assert (u.z, u.t, u.denom, u.norm) == expected, d


def brute_min_unit(d: int, t_cap: int) -> tuple[int, int, int] | None:
    """Smallest-t unit coefficients by exhaustive scan, or None past the cap."""
    best = None
    for t in range(1, t_cap + 1):
        for target in (d * t * t - 1, d * t * t + 1):
            z = math.isqrt(target)
            if z * z == target:
                best = (z, t, 1)
                break
        if best:
            break
    if d % 4 == 1:
        cap = best[1] * 2 if best else t_cap
        for t in range(1, min(cap, t_cap) + 1, 2):
            for target in (d * t * t - 4, d * t * t + 4):
                z = math.isqrt(target)
                if z * z == target and z % 2 == 1:
                    half = (z, t, 2)
                    # (z + t sqrt(d))/2 < x + y sqrt(d) iff roughly t < 2y
                    if best is None or t < 2 * best[1] or (t == 2 * best[1] and z < 2 * best[0]):
                        best = half
                    break
            if best and best[2] == 2:
                break
    return best


def test_fundamental_unit_minimal_for_small_units():
    for d in range(2, 400):
        if squarefree_part(d) != d:
            continue
        u = fundamental_unit(d)
        if u.t > 3000:
            continue
        assert brute_min_unit(d, u.t) == (u.z, u.t, u.denom), d


def test_fundamental_unit_norm_law_from_period():
    for d in range(2, 600):
        if squarefree_part(d) != d or d % 4 == 1:
            continue
        u = fundamental_unit(d)
        assert u.norm == (-1) ** cf_expand(d).period_length, d


def half_period_convergents(d: int, p0: int = 0, q0: int = 1
                            ) -> tuple[int, int, int, int, int, int]:
    """(l, p_{h-1}, q_{h-1}, p_h, q_h, Q_h) for the period length l of
    (p0 + sqrt(d))/q0 and h = floor(l/2): the convergents p_k/q_k walked from
    p_{-1}/q_{-1} = 1/0 to the middle of the textbook period, and its
    denominator there (Q_0 = q0).  The period's first h partial quotients
    are the head that `_half_period(d, p0, q0)` walks."""
    preperiod, period, q_values = division_period(d, p0, q0)
    h = len(period) // 2
    p_prev, p, q_prev, q = 1, preperiod[0], 0, 1
    for a in period[:h]:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return len(period), p_prev, q_prev, p, q, q_values[h - 1] if h else q0


def least_unit_of_the_start(d: int, p0: int = 0, q0: int = 1) -> tuple[int, int, int]:
    """Least (x, y, nu) with x, y >= 1, x = p0*y (mod q0) and x^2 - d*y^2 =
    nu*q0^2: the least unit (x + y*sqrt(d))/q0 > 1 of Z[(p0 + sqrt(d))/q0],
    folded by `_fold` over the period `_half_period` walks from that start,
    mirrored and without its last partial quotient; nu = (-1)^l."""
    head, odd = quadratic._half_period(d, p0, q0)
    x, y = quadratic._fold(d, p0, q0, head + (head[::-1] if odd else head[-2::-1]))
    return x, y, -1 if odd else 1


def unit_by_cube_root(d: int) -> tuple[int, int, int, int]:
    """(z, t, denom, norm) of the fundamental unit by the older route: the
    least solution over Z[sqrt(d)] from the period of sqrt(d), and for d = 5
    (mod 8) the half-integral unit whose cube it may be, by an exact cube
    root: (a + b*sqrt(d))/2 cubed is x + y*sqrt(d) iff a^3 - 3*nu*a = 2x."""
    x, y, nu = least_unit_of_the_start(d)
    if d % 8 == 5:
        target = 2 * x
        guess = iroot(target, 3)
        for a in range(max(1, guess - 2), guess + 3):
            if a * a * a - 3 * nu * a == target and a % 2 == 1:
                if 2 * y % (a * a - nu) == 0:
                    b = 2 * y // (a * a - nu)
                    if b >= 1 and b % 2 == 1 and a * a - d * b * b == 4 * nu:
                        return a, b, 2, nu
    return x, y, 1, nu


def test_fundamental_unit_from_the_period_of_the_ring_generator():
    # for d = 1 (mod 4) the walk of (1 + sqrt(d))/2 gives the unit the walk
    # of sqrt(d) and a cube root give, for every squarefree d below 20,000:
    # 4,048 radicands, 1,487 of them with a half-integral unit
    radicands = halves = 0
    for d in range(5, 20000, 4):
        if squarefree_part(d) != d:
            continue
        u = fundamental_unit(d)
        assert (u.z, u.t, u.denom, u.norm) == unit_by_cube_root(d), d
        radicands += 1
        halves += u.denom == 2
    assert (radicands, halves) == (4048, 1487)


def test_half_period_of_the_ring_generator_mirrors_into_its_period():
    # from (1 + sqrt(d))/2 the half walk, its mirror and a_l = 2*a_0 - 1 make
    # up the period, as from sqrt(d) in cf_expand
    for d in range(5, 10000, 4):
        if squarefree_part(d) != d:
            continue
        (a0,), period, _ = division_period(d, 1, 2)
        head, odd = quadratic._half_period(d, 1, 2)
        assert head + (head[::-1] if odd else head[-2::-1]) + [2 * a0 - 1] == list(period), d


def test_half_period_denominator_is_never_a_multiple_of_4():
    # so [Q_h] needs no division by 4 (see period_invariants)
    even = 0
    for d in range(2, 20000):
        if squarefree_part(d) != d:
            continue
        _, q_h, odd = _midpoint(d)
        if not odd:
            assert q_h % 4 != 0, d
            even += 1
    assert even == 9777


def test_least_pell_solution_from_the_half_period():
    # with convergents p_k/q_k of w = (p0 + sqrt(d))/q0 and theta_k = p_k -
    # q_k*w' = (q0*p_k - p0*q_k + q_k*sqrt(d))/q0, alpha = theta_{h-1} and
    # beta = theta_h: N(alpha) = (-1)^h Q_h/q0, and the least unit
    # (x + y*sqrt(d))/q0 > 1 of Z[w] is alpha^2/|N(alpha)| for an even period
    # and alpha*beta/|N(alpha)| for an odd one.  From sqrt(d) for every d,
    # and from (1 + sqrt(d))/2 for d = 1 (mod 4)
    walks = 0
    for d in range(2, 3000):
        if math.isqrt(d) ** 2 == d:
            continue
        for p0, q0 in ((0, 1), (1, 2)) if d % 4 == 1 else ((0, 1),):
            length, p_prev, q_prev, p, q, q_h = half_period_convergents(d, p0, q0)
            # q0*alpha = s + q_prev*sqrt(d) and q0*beta = t + q*sqrt(d)
            s, t = q0 * p_prev - p0 * q_prev, q0 * p - p0 * q
            n = s * s - d * q_prev * q_prev  # q0^2 * N(alpha)
            assert n == (-1) ** (length // 2) * q_h * q0, (d, q0)
            # q0*alpha times q0*alpha or q0*beta, over q0^2*|N(alpha)|, is the
            # unit; times q0 it is read as (x + y*sqrt(d))/q0
            u, v, nu = (s, q_prev, 1) if length % 2 == 0 else (t, q, -1)
            x, y = q0 * (s * u + d * q_prev * v), q0 * (s * v + u * q_prev)
            assert x % n == 0 and y % n == 0, (d, q0)
            assert least_unit_of_the_start(d, p0, q0) == (x // abs(n), y // abs(n), nu), (d, q0)
            walks += 1
    assert walks == 2945 + 723


def test_epsilon_split_from_the_half_period():
    # for an integral unit u = z + t*sqrt(d) = alpha^2/|n| of norm +1, n =
    # N(alpha): z + 1 = 2p^2/n and z - 1 = 2dq^2/n when n > 0, and the two
    # swap when n < 0, with p = p_{h-1} and q = q_{h-1}
    splits = 0
    for d in range(2, 3000):
        if squarefree_part(d) != d:
            continue
        u = fundamental_unit(d)
        if u.denom != 1 or u.norm != 1:
            continue
        _, p, q, _, _, _ = half_period_convergents(d)
        n = p * p - d * q * q
        plus, minus = 2 * p * p, 2 * d * q * q
        if n < 0:
            plus, minus = minus, plus
        assert plus % abs(n) == 0 and minus % abs(n) == 0, d
        s = epsilon_decomposition(d)
        assert s.g * s.m * s.m * s.epsilon == plus // abs(n), d
        assert s.g * s.n * s.n * s.eta == minus // abs(n), d
        splits += 1
    assert splits == 1297


def split_of_the_unit(d: int) -> tuple[int, ...]:
    """(d, denom, g, m, n, epsilon, eta) read off the whole fundamental unit
    (z + t*sqrt(d))/denom by one gcd and two isqrts: g = gcd(z - denom, z +
    denom), and (z + denom)/g = m^2*epsilon and (z - denom)/g = n^2*eta are
    coprime, so epsilon = gcd(d, (z + denom)/g)."""
    u = fundamental_unit(d)
    z, denom = u.z, u.denom
    g = math.gcd(z - denom, z + denom)
    big, small = (z + denom) // g, (z - denom) // g
    epsilon = math.gcd(d, big)
    eta = d // epsilon
    return d, denom, g, math.isqrt(big // epsilon), math.isqrt(small // eta), epsilon, eta


def test_epsilon_decomposition_equals_the_split_of_the_unit():
    # the split read off the convergent at h - 1 equals the one read off the
    # unit, for every squarefree d < 10^4 whose unit has norm +1: both cycles,
    # sqrt(d) and (1 + sqrt(d))/2, and the half-integral units
    splits = halves = 0
    for d in range(2, 10000):
        if squarefree_part(d) != d or fundamental_unit(d).norm != 1:
            continue
        s = epsilon_decomposition(d)
        assert (s.d, s.denom, s.g, s.m, s.n, s.epsilon, s.eta) == split_of_the_unit(d), d
        splits += 1
        halves += s.denom == 2
    assert (splits, halves) == (4838, 430)


def test_fundamental_unit_rejects_bad_radicands():
    for d in (-3, 0, 1, 12):
        with pytest.raises(ValueError):
            fundamental_unit(d)


def test_epsilon_decomposition_examples():
    s = epsilon_decomposition(105)
    assert (s.g, s.m, s.n, s.epsilon, s.eta) == (2, 1, 2, 21, 5)
    s = epsilon_decomposition(15)
    assert (s.g, s.m, s.n, s.epsilon, s.eta) == (1, 1, 1, 5, 3)
    with pytest.raises(ValueError):
        epsilon_decomposition(85)


def test_epsilon_decomposition_is_cached_per_kernel():
    epsilon_decomposition.cache_clear()
    first = epsilon_decomposition(105)
    assert epsilon_decomposition(105) is first
    info = epsilon_decomposition.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@given(squarefree_real)
@settings(max_examples=150)
def test_epsilon_decomposition_identities(d):
    if d < 2:
        return
    u = fundamental_unit(d)
    if u.norm != 1:
        return
    s = epsilon_decomposition(d)
    assert s.epsilon * s.eta == d
    assert s.g * s.m * s.m * s.epsilon == u.z + u.denom
    assert s.g * s.n * s.n * s.eta == u.z - u.denom
    assert s.g * s.m * s.n == u.t
    assert math.gcd(s.m, s.n) == 1


def test_a_value_examples():
    assert a_value(85) == IDENTITY
    assert a_value(3) == class_of(6)
    assert a_value(7) == class_of(2)
    assert a_value(6) == class_of(3)      # u = 5 + 2*sqrt(6), N(u + 1) = 12
    assert a_value(21) == class_of(7)     # half-integral u = (5 + sqrt(21))/2
    # (d, norm, a_class, two_is_norm); sqrt(2) has norm -2 but Q_k is never 2
    for d, norm, a, two in ((2, -1, IDENTITY, True), (3, 1, class_of(6), True),
                            (6, 1, class_of(3), True), (7, 1, class_of(2), True),
                            (10, -1, IDENTITY, False), (15, 1, class_of(10), False)):
        inv = period_invariants(d)
        assert (inv.norm, inv.a_class, inv.two_is_norm) == (norm, a, two), d
    assert division_period(2)[2] == (1,)
    for d in (-5, 0, 1, 12):
        with pytest.raises(ValueError):
            period_invariants(d)


def unit_route(d: int) -> tuple[int, SquareClass]:
    """(N(u), [N(u + 1)]) from the fundamental unit and its epsilon split."""
    u = fundamental_unit(d)
    if u.norm == -1:
        return -1, IDENTITY
    s = epsilon_decomposition(d)
    return 1, class_of(s.g * s.epsilon * (2 if u.denom == 1 else 1))


def check_period_invariants(d: int) -> None:
    inv = period_invariants(d)
    assert (inv.norm, inv.a_class) == unit_route(d), d
    assert a_value(d) == inv.a_class, d
    if d % 4 != 1:
        assert inv.two_is_norm == _has_norm_pm2(d), d


def test_period_invariants_match_unit_route():
    for d in range(2, 20000):
        if squarefree_part(d) == d:
            check_period_invariants(d)


@given(st.integers(min_value=10 ** 5, max_value=10 ** 9))
@settings(max_examples=60, deadline=None)
def test_period_invariants_match_unit_route_large(d):
    assume(squarefree_part(d) == d)
    check_period_invariants(d)


def test_kernel_caches_are_bounded(monkeypatch):
    for cached in (fundamental_unit, epsilon_decomposition, _kernel_invariants):
        assert cached.cache_parameters()["maxsize"] is not None
    # one entry per kernel, whichever route answers it: 7 has 4-rank 0 and
    # 34 takes the walk, and a second call walks nothing
    walk = Mock(wraps=quadratic._walk_invariants)
    monkeypatch.setattr(quadratic, "_walk_invariants", walk)
    _kernel_invariants.cache_clear()
    for _ in range(2):
        for d in (7, 34):
            period_invariants(d)
    assert _kernel_invariants.cache_info().currsize == 2
    assert walk.call_count == 1


def check_genus(d: int, primes: tuple[int, ...]) -> bool:
    """The genus route against the walk where it answers; whether it did."""
    found = _genus_invariants(d, primes)
    if found is not None:
        assert found == _walk_invariants(d), d
    return found is not None


def test_genus_invariants_examples():
    # 3: the norms are 1, -3, -2 and 6, so N(u) = 1, [N(u + 1)] = [6] and -2
    # is a norm; the diagonal symbol (3, 3)_3 is (-1|3), not (1|3)
    assert _genus_invariants(3, (3,)) == quadratic.PeriodInvariants(3, 1, class_of(6), True)
    # 34: -1 is a local norm everywhere, but N(u) = +1; its 4-rank is 1, so
    # all eight signed products of 2 and 17 are norms and the walk decides
    assert _genus_invariants(34, (2, 17)) is None
    assert period_invariants(34) == _walk_invariants(34)
    assert period_invariants(34).norm == 1


def test_genus_invariants_match_the_walk():
    # the kernels of 4-rank 0 take the genus route, the rest the walk
    routes = {True: 0, False: 0}
    for d in range(2, 20000):
        if squarefree_part(d) == d:
            routes[check_genus(d, _radicand_primes(d))] += 1
    assert routes == {True: 10256, False: 1903}


def test_genus_invariants_match_the_walk_on_large_kernels():
    # seeded kernels in 1e9..1e11, the two kernels near 2e17 whose first
    # landing misses the middle, and the 1e24 third kernel of `analyze
    # 999999999989 1000000000039`, whose walk takes a few seconds; every
    # one of those three has 4-rank 0
    draw = random.Random(1009)
    routes = {True: 0, False: 0}
    for _ in range(200):
        d = draw.randrange(10 ** 9, 10 ** 11)
        if squarefree_part(d) == d:
            routes[check_genus(d, _radicand_primes(d))] += 1
    assert routes == {True: 108, False: 38}
    for d in (226166524659073007, 261025488844651519):
        assert check_genus(d, _radicand_primes(d)), d
    assert check_genus(999999999989 * 1000000000039, (999999999989, 1000000000039))


def test_a_value_matches_direct_factoring():
    # independent route: factor N(u+1) = 2(z + denom)/denom outright
    for d in range(2, 400):
        if squarefree_part(d) != d:
            continue
        u = fundamental_unit(d)
        if u.norm == -1:
            assert a_value(d) == IDENTITY, d
        else:
            assert a_value(d) == class_of(2 * (u.z + u.denom) // u.denom), d


def test_norm_equation_examples():
    s = norm_equation(2, 2)
    assert (s.x, s.y, s.denom) == (2, 1, 1)
    s = norm_equation(3, -2)
    assert (s.x, s.y, s.denom) == (1, 1, 1)
    assert norm_equation(5, 2) is None
    assert norm_equation(5, -2) is None
    assert norm_equation(-5, 5).x == 0
    assert norm_equation(-5, 2) is None


def brute_norm_solutions(d: int, c: int, bound: int) -> bool:
    for y in range(bound + 1):
        for denom in (1, 2):
            if denom == 2 and d % 4 != 1:
                continue
            target = c * denom * denom + d * y * y
            if target < 0:
                continue
            x = math.isqrt(target)
            if x * x == target and (denom == 1 or x % 2 == y % 2):
                return True
    return False


def splits(d: int, ell: int) -> bool:
    """Whether the prime ell splits in Q(sqrt(d)): d is a nonzero square mod
    ell, or d = 1 (mod 8) for ell = 2."""
    if ell == 2:
        return d % 8 == 1
    return d % ell != 0 and any((x * x - d) % ell == 0 for x in range(ell))


def test_norm_equation_agrees_with_brute_force_grid():
    # soundness is enforced by the solution type; completeness is checked by
    # demanding a solution wherever the exhaustive search finds one.  For
    # d < 0 the search is exhaustive both ways (y^2 <= 4|c| < 60^2).  For
    # real d only c = +-1 and non-split primes |c| are decided.
    for d in (2, 3, 5, 6, 7, 10, 13, 15, 17, 21, 26, 34, 65, 85, 105,
              -1, -2, -3, -5, -6, -7, -15, -23):
        for c in range(-26, 27):
            if c == 0:
                continue
            ell = abs(c)
            composite = any(ell % k == 0 for k in range(2, ell))
            if d > 0 and ell != 1 and (composite or splits(d, ell)):
                with pytest.raises(ValueError):
                    norm_equation(d, c)
                continue
            found = norm_equation(d, c)
            exists = brute_norm_solutions(d, c, 60)
            if exists or d < 0:
                assert (found is not None) == exists, (d, c)
            if found is not None:
                assert found.c == c and found.d == d


def test_norm_equation_imaginary_is_exhaustive():
    assert norm_equation(-1, 2).denom == 1
    assert norm_equation(-7, 2).denom == 2   # (1 + sqrt(-7))/2 has norm 2
    assert norm_equation(-5, 3) is None      # 3 inert-classless: x^2+5y^2 != 3
    assert norm_equation(-5, -2) is None     # negative c impossible when d < 0


def test_norm_equation_ramified_primes_always_decided():
    # ramified-prime targets route through a complete decider and never raise
    for d in (10, 34, 58, 85, 105, 205, 221, 1021):
        for ell in ramified_primes(d):
            for c in (ell, -ell):
                norm_equation(d, c)


def decide_by_the_split(d: int, c: int) -> NormEquationSolution | None:
    """N(alpha) = c for real d and a prime |c| = l that ramifies, by the
    epsilon split of the unit u = (z + t*sqrt(d))/denom: for l != d a
    solution exists iff 2*denom*g*l*epsilon (c > 0) or 2*denom*g*l*eta (c < 0)
    is a square, and then x^2 = l*(z +- denom)/(2*denom) over denom 1, or
    x^2 = 4*l*(z +- denom)/(2*denom) over denom 2."""
    ell, tau = abs(c), 1 if c > 0 else -1
    u = fundamental_unit(d)
    if ell == d:
        if tau == -1:
            return NormEquationSolution(d, c, 0, 1, 1)
        return NormEquationSolution(d, c, d * u.t, u.z, u.denom) if u.norm == -1 else None
    if u.norm == -1:
        return None
    s = epsilon_decomposition(d)
    if not is_square(2 * s.denom * s.g * (s.epsilon if tau == 1 else s.eta) * ell):
        return None
    num, den = ell * (u.z + tau * s.denom), 2 * s.denom
    if num % den == 0 and is_square(num // den):
        x = math.isqrt(num // den)
        return NormEquationSolution(d, c, x, ell * u.t // (2 * s.denom * x), 1)
    x = math.isqrt(4 * num // den)
    return NormEquationSolution(d, c, x, 2 * ell * u.t // (s.denom * x), 2)


def test_ramified_decider_agrees_with_the_epsilon_split():
    # the decider's square test reads the unit and the reference's reads the
    # split, which comes from the half period: the two tests share no step
    queries = found = 0
    for d in range(2, 3000):
        if squarefree_part(d) != d:
            continue
        for ell in ramified_primes(d):
            for c in (ell, -ell):
                solution = norm_equation(d, c)
                assert solution == decide_by_the_split(d, c), (d, c)
                queries += 1
                found += solution is not None
    assert (queries, found) == (8960, 2335)


def test_norm_equation_refuses_a_split_prime():
    # 1021 = 1 (mod 3), so 3 splits in Q(sqrt(1021))
    with pytest.raises(ValueError, match="splits"):
        norm_equation(1021, 3)


def test_norm_equation_settles_all_it_can_before_building_a_unit():
    # c = 1, a composite |c|, a split or inert prime and a ramified prime
    # refused by a local obstruction at an odd prime of d are all settled
    # before the fundamental unit is asked for, so none of them builds it
    def settle(d: int, c: int):
        fundamental_unit.cache_clear()
        try:
            return norm_equation(d, c)
        finally:
            assert fundamental_unit.cache_info().misses == 0, (d, c)

    counts = {"one": 0, "composite": 0, "split": 0, "inert": 0, "local": 0}
    primes = [ell for ell in range(2, 30) if all(ell % k for k in range(2, ell))]
    for d in range(2, 2000):
        if squarefree_part(d) != d:
            continue
        assert settle(d, 1) == NormEquationSolution(d, 1, 1, 0, 1)
        counts["one"] += 1
        for c in (6, -6, 10, -10):
            with pytest.raises(ValueError, match="composite"):
                settle(d, c)
            counts["composite"] += 1
        odd = [p for p in range(3, d + 1, 2) if d % p == 0 and all(p % k for k in range(3, p, 2))]
        for ell in primes:
            for c in (ell, -ell):
                if splits(d, ell):
                    with pytest.raises(ValueError, match="splits"):
                        settle(d, c)
                    counts["split"] += 1
                elif ell not in ramified_primes(d):
                    assert settle(d, c) is None, (d, c)
                    counts["inert"] += 1
                elif any(p != ell and pow(c, p >> 1, p) == p - 1 for p in odd):
                    assert settle(d, c) is None, (d, c)
                    counts["local"] += 1
    assert counts == {"one": 1214, "composite": 4856, "split": 10230, "inert": 10302,
                      "local": 2521}
    # 2 splits in Q(sqrt(10^30 + 57)), whose period is about 10^15 steps long
    for c, refusal in ((6, "composite"), (2, "splits")):
        with pytest.raises(ValueError, match=refusal):
            settle(10**30 + 57, c)


def test_zantema_examples():
    assert zantema_classify(-5).verdict == NOT_POLYA
    verdict = zantema_classify(13)
    assert verdict.verdict == POLYA and verdict.case == "case 3"
    assert zantema_classify(10).verdict == NOT_POLYA
    for d in (-1, -2, 2):
        v = zantema_classify(d)
        assert v.verdict == POLYA and v.case == "case 1"
    assert zantema_classify(-7).verdict == POLYA
    for d in (0, 1, 12):
        with pytest.raises(ValueError):
            zantema_classify(d)


def test_oracle_examples():
    assert quadratic_polya_oracle(2) == POLYA
    assert quadratic_polya_oracle(10) == NOT_POLYA
    assert quadratic_polya_oracle(-5) == NOT_POLYA


@given(st.integers(min_value=-500, max_value=500))
@settings(max_examples=200)
def test_zantema_agrees_with_oracle(d):
    if d in (0, 1) or squarefree_part(d) != d:
        return
    assert zantema_classify(d).verdict == quadratic_polya_oracle(d), d


def test_dirichlet_examples():
    rep = dirichlet_norm_criterion(5, 17)
    assert (rep.applies, rep.norm, rep.consistent) == (True, -1, True)
    rep = dirichlet_norm_criterion(3, 5)
    assert rep.applies is False and rep.norm == 1
    rep = dirichlet_norm_criterion(13, 17)
    assert rep.applies is False and rep.consistent is True
    with pytest.raises(ValueError):
        dirichlet_norm_criterion(4, 5)
    with pytest.raises(ValueError):
        dirichlet_norm_criterion(5, 5)
