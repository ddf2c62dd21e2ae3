"""Integer arithmetic helpers: primality, factorization, integer roots,
squarefree parts and quadratic residue symbols.

Everything works on arbitrary-precision ints.  Factorization carries an
explicit work budget so callers degrade to an error ("unfactored") instead of
hanging on adversarial inputs.
"""

from __future__ import annotations

import math

from .record import Record

DEFAULT_FACTOR_BUDGET = 500_000

# Miller-Rabin with these bases is a proof of primality below this bound.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1000  # trial division by primes below this before any MR round


class FactorBudgetError(RuntimeError):
    """Raised when factor() exhausts its splitting budget.

    Distinct from "no factorization exists": the input is fine, the work
    allowance was not.
    """

    def __init__(self, n: int, budget: int) -> None:
        super().__init__(f"factoring budget ({budget}) exhausted on {n}")
        self.n = n
        self.budget = budget


class Factorization(Record):
    """A complete prime factorization, primes strictly increasing."""

    __slots__ = ("value", "factors")

    def _check(self) -> None:
        prev = 1
        prod = 1
        for p, e in self.factors:
            if p <= prev or e < 1:
                raise ValueError("factors must have strictly increasing primes and exponents >= 1")
            prev = p
            prod *= p**e
        if prod != self.value:
            raise ValueError(f"factor list does not multiply back to {self.value}")

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)


def sieve_primes(limit: int) -> list[int]:
    """All primes <= limit, ascending."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit + 1) if flags[i]]


_TRIAL_PRIMES = tuple(sieve_primes(_TRIAL_LIMIT))


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def _miller_rabin(n: int, bases: tuple[int, ...]) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        a %= n
        if a in (0, 1, n - 1):
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _strong_lucas_prp(n: int) -> bool:
    # Selfridge parameter choice; n is odd, coprime to small primes.
    if is_square(n):
        return False
    D = 5
    while jacobi(D, n) != -1:
        D = -(abs(D) + 2) if D > 0 else abs(D) + 2
    Q = (1 - D) // 4
    # n + 1 = d * 2^s with d odd
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Lucas sequences U_k, V_k for P = 1, tracked with Q^k.
    U, V, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            U, V = (U + V) % n, (V + D * U) % n
            if U % 2:
                U += n
            if V % 2:
                V += n
            U, V = U // 2 % n, V // 2 % n
            qk = qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * qk) % n
        if V == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test: exact below 2^64 (and well beyond), Baillie-PSW style
    (strong probable-prime plus strong Lucas) for larger inputs."""
    if n < 2:
        return False
    for p in _TRIAL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
        if p * p > n:
            return True
    if not _miller_rabin(n, _MR_BASES):
        return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    return _strong_lucas_prp(n)


def _pollard_brent(n: int, budget: list[int]) -> int:
    """A nontrivial factor of composite odd n, deterministic parameters.

    budget is a single-element mutable cell shared across one factor() call.
    """
    c = 1
    while True:
        y, m = 2, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget[0] -= min(m, r - k)
                if budget[0] <= 0:
                    raise FactorBudgetError(n, budget[1])
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
                budget[0] -= 1
                if budget[0] <= 0:
                    raise FactorBudgetError(n, budget[1])
        if g != n:
            return g
        c += 1  # rare: retry with a different polynomial


def factor(n: int, *, budget: int | None = None) -> Factorization:
    """Complete prime factorization of n >= 1.

    Trial division first, then Pollard rho (Brent variant) with the primality
    test as base case.  Raises FactorBudgetError when the rho budget runs out.
    """
    if n < 1:
        raise ValueError("factor() needs n >= 1")
    if budget is None:
        budget = DEFAULT_FACTOR_BUDGET
    counts: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            counts[p] = counts.get(p, 0) + 1
            m //= p
    if m > 1:
        if m < _TRIAL_LIMIT * _TRIAL_LIMIT:
            counts[m] = counts.get(m, 0) + 1
        else:
            cell = [budget, budget]
            stack = [m]
            while stack:
                x = stack.pop()
                if is_prime(x):
                    counts[x] = counts.get(x, 0) + 1
                    continue
                root, k = _perfect_power(x)
                if k > 1:
                    stack.extend([root] * k)
                    continue
                d = _pollard_brent(x, cell)
                stack.extend([d, x // d])
    return Factorization(n, tuple(sorted(counts.items())))


def iroot(n: int, k: int) -> int:
    """Floor of the real k-th root of n >= 0, by Newton's iteration from above."""
    if n < 0:
        raise ValueError("iroot needs n >= 0")
    if n < 2:
        return n
    x = 1 << (n.bit_length() + k - 1) // k
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    while x**k > n:
        x -= 1
    return x


def _perfect_power(n: int) -> tuple[int, int]:
    """(root, k) with root**k == n and k maximal, or (n, 1)."""
    for k in (2, 3, 5, 7, 11, 13):
        if k > n.bit_length():
            break
        r = iroot(n, k)
        if r > 1 and r**k == n:
            sub, j = _perfect_power(r)
            return sub, j * k
    return n, 1


def squarefree_part(n: int) -> int:
    """The unique squarefree s with n = s * (square), sign preserved."""
    if n == 0:
        raise ValueError("squarefree_part(0) is undefined")
    out = 1
    for p, e in factor(abs(n)).factors:
        if e % 2:
            out *= p
    return out if n > 0 else -out


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n >= 1."""
    if n < 1 or n % 2 == 0:
        raise ValueError("jacobi symbol needs odd n >= 1")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
