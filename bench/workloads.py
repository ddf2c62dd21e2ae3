"""Seeded inputs for the three benchmark workloads, and the integer helpers
the benchmark needs to make and check them without calling into polya.

Every workload is a list of `polya` argv lists.  The same seed always gives
the same list; nothing here depends on timing.
"""

from __future__ import annotations

import math
import random

THEOREM_SCAN = "theorem-scan"
LARGE_FIELDS = "large-fields"
QUADRATIC_SWEEP = "quadratic-sweep"
WORKLOADS = (THEOREM_SCAN, LARGE_FIELDS, QUADRATIC_SWEEP)

# theorem-scan: the paper's three family sweeps and the published table.  The
# families are fixed by the paper, so the seed does not change them; their
# order is fixed too, because later commands run with a fuller unit cache.
SCAN_COMMANDS = (("scan", "T1", "300"), ("scan", "T2", "300"), ("scan", "T3", "400"),
                 ("table",))
SCAN_FLAGS = ("--format", "json", "--jobs", "2")

# large-fields: kernels log-uniform in [1e9, 1e11].  A field's cost is about
# proportional to the sum of the squared period lengths L_i of its three
# kernels, and that sum is heavy-tailed (of forty fields drawn freely, one
# cost a third of the total).  Each field is therefore drawn until
# sqrt(sum L_i^2) falls in a fixed band, which makes every seed carry the
# same amount of work while the fields themselves differ.  The band puts the
# largest unit near 100k bits.
FIELD_COUNT = 12
FIELD_LOG10_KERNEL = (9.0, 11.0)
FIELD_PERIOD_BAND = (55_000, 61_000)

# quadratic-sweep: squarefree radicands log-uniform in [1e3, 1e9], one per
# equal-width stratum of log10 d so every seed covers the range evenly.  Two
# things vary a lot between free draws of 1000: how many radicands have a
# unit whose z has more than INT_STR_DIGITS digits, so that printing it
# fails (22 to 47 over forty draws, median 35), and the summed squared
# period length, which sets most of the time (9.6e9 to 23.4e9).  A draw is
# therefore repaired one radicand at a time, each redrawn within its own
# stratum, until exactly RADICAND_LONG_UNITS units are that long and the
# summed work lies in RADICAND_WORK_BAND.  Every seed then fails the same
# number of commands and carries about the same work.  Only radicands above
# 10**RADICAND_REPAIR_LOG10 are redrawn: the long units and most of the work
# are there, and the commands below, which set the median latency, keep
# their free distribution.
RADICAND_COUNT = 1000
RADICAND_LOG10 = (3.0, 9.0)
RADICAND_REPAIR_LOG10 = 8.0
RADICAND_LONG_UNITS = 35
RADICAND_WORK_BAND = (14.5e9, 15.5e9)
INT_STR_DIGITS = 4300  # CPython's default limit for int <-> str

_SMALL_PRIMES = tuple(p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1)))


def is_squarefree(n: int) -> bool:
    """Exact for 1 <= n < 1e9: after the primes below 1000 are removed, a
    cofactor below 1e9 has at most two prime factors, so it is squarefree
    unless it is a square."""
    if not 1 <= n < 10**9:
        raise ValueError(f"is_squarefree covers 1 <= n < 1e9, got {n}")
    for p in _SMALL_PRIMES:
        if p * p > n:
            return True
        if n % (p * p) == 0:
            return False
        if n % p == 0:
            n //= p
    r = math.isqrt(n)
    return r * r != n or n == 1


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of a positive n, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def period_length(d: int, limit: int | None = None) -> int | None:
    """Period length of the continued fraction of sqrt(d), d > 1 not a square.

    Walks half the period and reads the length off its symmetry.  Returns
    None as soon as the length is known to exceed `limit`.
    """
    # Complete quotients (a0 + m_i)/q_i satisfy q_i = q_{L-i} and
    # m_i = m_{L+1-i}, so the first repeat of q marks an odd period 2i + 1
    # and the first repeat of m an even period 2i.
    a0 = math.isqrt(d)
    m, q, a = 0, 1, a0
    i = 0
    while True:
        m_next = a * q - m
        q_next = (d - m_next * m_next) // q
        if m_next == m:
            length = 2 * i
            break
        if q_next == q:
            length = 2 * i + 1
            break
        if limit is not None and 2 * i + 1 >= limit:
            return None
        m, q = m_next, q_next
        a = (a0 + m) // q
        i += 1
    return None if limit is not None and length > limit else length


def theorem_scan() -> list[list[str]]:
    return [[*cmd, *SCAN_FLAGS] for cmd in SCAN_COMMANDS]


def _squarefree_from(n: int, avoid: tuple[int, ...]) -> int:
    while not (is_squarefree(n) and all(math.gcd(n, v) == 1 for v in avoid)):
        n += 1
    return n


def draw_field(rng: random.Random) -> tuple[int, int, int]:
    """Pairwise-coprime squarefree (a, b, c) whose kernels ac, bc and ab have
    log10 sizes drawn uniformly from FIELD_LOG10_KERNEL."""
    lo, hi = FIELD_LOG10_KERNEL
    k1, k2, k3 = (rng.uniform(lo, hi) for _ in range(3))
    a = _squarefree_from(int(10 ** ((k1 + k3 - k2) / 2)), ())
    b = _squarefree_from(int(10 ** ((k2 + k3 - k1) / 2)), (a,))
    c = _squarefree_from(int(10 ** ((k1 + k2 - k3) / 2)), (a, b))
    return a, b, c


def field_work(a: int, b: int, c: int, limit: int) -> int | None:
    """sqrt of the summed squared period lengths of the three kernels, or
    None once it is known to exceed `limit`."""
    total = 0
    for kernel in (a * c, b * c, a * b):
        length = period_length(kernel, limit)
        if length is None:
            return None
        total += length * length
        if total > limit * limit:
            return None
    return math.isqrt(total)


def large_fields(rng: random.Random) -> tuple[list[list[str]], list[tuple[int, int, int]]]:
    lo, hi = FIELD_PERIOD_BAND
    triples: list[tuple[int, int, int]] = []
    while len(triples) < FIELD_COUNT:
        a, b, c = draw_field(rng)
        work = field_work(a, b, c, hi)
        if work is not None and work >= lo:
            triples.append((a, b, c))
    commands = [["analyze", str(a * c), str(b * c), "--format", "json"] for a, b, c in triples]
    return commands, triples


def _quotients_log10(d: int, p: int, q: int) -> float:
    """log10 of the product of the complete quotients (p' + sqrt(d))/q' over
    one period of the continued fraction of (p + sqrt(d))/q, q | d - p^2.

    The product over a period is the fundamental unit of the order whose
    discriminant the expansion has: Z[sqrt(d)] from (0, 1), and the full
    ring of integers from (1, 2) when d = 1 (mod 4).
    """
    r, s = math.isqrt(d), math.sqrt(d)
    a = (p + r) // q  # one step makes the quotient reduced, hence periodic
    p = a * q - p
    q = (d - p * p) // q
    start, total = (p, q), 0.0
    while True:
        total += math.log10((p + s) / q)
        a = (p + r) // q
        p = a * q - p
        q = (d - p * p) // q
        if (p, q) == start:
            return total


def unit_z_log10(d: int) -> float:
    """log10 z for the fundamental unit (z + t*sqrt(d))/denom of Q(sqrt(d)),
    d > 1 squarefree; within 1e-6 once z has more than a dozen digits.

    The unit of Z[sqrt(d)] is x + y*sqrt(d) with z = x, about half of it,
    unless d = 5 (mod 8) and it is the cube of a half-integral unit
    (z + t*sqrt(d))/2, in which case z is about that unit.
    """
    whole = _quotients_log10(d, 0, 1)
    if d % 8 == 5:
        half = _quotients_log10(d, 1, 2)
        if abs(whole - 3 * half) < 1e-6 * whole:
            return half
    return whole - math.log10(2)


def long_unit(d: int, length: int) -> bool:
    """Whether the unit of Q(sqrt(d)), whose period length is `length`, has
    a z too long for str() under the default limit."""
    # each complete quotient is below 2*sqrt(d) + 1
    if length * math.log10(2 * math.sqrt(d) + 1) < INT_STR_DIGITS:
        return False
    return unit_z_log10(d) >= INT_STR_DIGITS


def _radicand_in_stratum(rng: random.Random, i: int, taken: set[int]) -> tuple[int, int, bool]:
    lo, hi = RADICAND_LOG10
    width = (hi - lo) / RADICAND_COUNT
    while True:
        d = int(10 ** (lo + width * (i + rng.random())))
        if d not in taken and is_squarefree(d):
            length = period_length(d)
            return d, length, long_unit(d, length)


def draw_radicands(rng: random.Random) -> list[int]:
    drawn = []
    taken: set[int] = set()
    for i in range(RADICAND_COUNT):
        drawn.append(_radicand_in_stratum(rng, i, taken))
        taken.add(drawn[-1][0])
    longs = sum(is_long for _, _, is_long in drawn)
    work = sum(length * length for _, length, _ in drawn)
    lo, hi = RADICAND_WORK_BAND
    middle = (lo + hi) / 2
    first = math.ceil((RADICAND_REPAIR_LOG10 - RADICAND_LOG10[0]) * RADICAND_COUNT
                      / (RADICAND_LOG10[1] - RADICAND_LOG10[0]))
    while longs != RADICAND_LONG_UNITS or not lo <= work <= hi:
        i = rng.randrange(first, RADICAND_COUNT)
        old = drawn[i]
        if longs != RADICAND_LONG_UNITS and old[2] != (longs > RADICAND_LONG_UNITS):
            continue
        new = _radicand_in_stratum(rng, i, taken)
        new_work = work - old[1] ** 2 + new[1] ** 2
        if longs != RADICAND_LONG_UNITS:
            if new[2] == old[2]:
                continue
            longs += 1 if new[2] else -1
        elif new[2] != old[2] or abs(new_work - middle) >= abs(work - middle):
            continue
        drawn[i], work = new, new_work
        taken.discard(old[0])
        taken.add(new[0])
    radicands = [d for d, _, _ in drawn]
    rng.shuffle(radicands)
    return radicands


def quadratic_sweep(rng: random.Random) -> list[list[str]]:
    return [["classify-quadratic", str(d), "--format", "json"] for d in draw_radicands(rng)]


def make(workload: str, seed: int) -> tuple[list[list[str]], dict]:
    """The workload's argv lists for this seed, plus what the checks need."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == THEOREM_SCAN:
        return theorem_scan(), {}
    if workload == LARGE_FIELDS:
        commands, triples = large_fields(rng)
        return commands, {"fields": {(str(a * c), str(b * c)): (a, b, c) for a, b, c in triples}}
    if workload == QUADRATIC_SWEEP:
        return quadratic_sweep(rng), {}
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
