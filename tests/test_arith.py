"""Integer utilities, checked against naive in-test reimplementations."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polya.arith import (_MR_DETERMINISTIC_BOUND, FactorBudgetError, factor, iroot,
                         is_prime, is_square, jacobi, sieve_primes, squarefree_part)


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % k for k in range(2, math.isqrt(n) + 1))


def naive_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    k = 2
    while k * k <= n:
        while n % k == 0:
            out[k] = out.get(k, 0) + 1
            n //= k
        k += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def test_sieve_matches_trial_division():
    primes = sieve_primes(500)
    assert primes == [n for n in range(501) if naive_is_prime(n)]
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]


def test_is_prime_small_range():
    for n in range(-10, 2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # classical base-2 strong pseudoprimes and Carmichael numbers
    for n in (341, 561, 2047, 8911, 1373653, 3215031751):
        assert not is_prime(n), n
    for n in (2 ** 61 - 1, 10 ** 18 + 9, 2 ** 89 - 1):
        assert is_prime(n), n


def test_is_prime_above_the_miller_rabin_bound():
    # the bound itself, 1287836182261 * 2575672364521, is a strong
    # pseudoprime to every base 2..37, so only the strong Lucas test rejects
    # it; the primes make the Lucas loop run over the odd part of n + 1
    assert _MR_DETERMINISTIC_BOUND == 1287836182261 * 2575672364521
    assert not is_prime(_MR_DETERMINISTIC_BOUND)
    for n in (10 ** 25 + 13, 10 ** 30 + 57):
        assert n > _MR_DETERMINISTIC_BOUND and is_prime(n), n


@given(st.integers(min_value=1, max_value=10 ** 6))
def test_factor_reconstructs_and_is_prime_complete(n):
    f = factor(n)
    product = 1
    for p, e in f.factors:
        assert e >= 1 and naive_is_prime(p)
        product *= p ** e
    assert product == n
    assert f.primes() == tuple(sorted(f.primes()))


def test_factor_large_semiprime_and_budget():
    p, q = 1_000_003, 1_000_033
    f = factor(p * q)
    assert f.factors == ((p, 1), (q, 1))
    with pytest.raises(FactorBudgetError):
        factor((2 ** 101 - 1) * (2 ** 103 - 1), budget=50)


def test_factor_rejects_nonpositive():
    for n in (0, -4):
        with pytest.raises(ValueError):
            factor(n)


@given(st.integers(min_value=2, max_value=10 ** 6))
def test_squarefree_part_properties(n):
    s = squarefree_part(n)
    assert n % s == 0 and is_square(n // s)
    assert all(e == 1 for _, e in factor(s).factors)


def test_squarefree_part_signs_and_units():
    assert squarefree_part(-18) == -2
    assert squarefree_part(1) == 1
    assert squarefree_part(-1) == -1
    assert squarefree_part(49) == 1


def naive_legendre(a: int, p: int) -> int:
    # Euler's criterion for odd prime p
    v = pow(a % p, (p - 1) // 2, p)
    return v - p if v > 1 else v


def test_jacobi_matches_euler_criterion_for_primes():
    for p in sieve_primes(200):
        if p == 2:
            continue
        for a in range(-30, 60):
            assert jacobi(a, p) == naive_legendre(a, p), (a, p)


@given(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=-10 ** 6, max_value=10 ** 6),
       st.integers(min_value=0, max_value=10 ** 5))
def test_jacobi_is_multiplicative_and_periodic(a, b, k):
    n = 2 * k + 1
    if n < 1:
        return
    assert jacobi(a * b, n) == jacobi(a, n) * jacobi(b, n)
    assert jacobi(a + n, n) == jacobi(a, n)


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)


@given(st.integers(min_value=0, max_value=2 ** 4096),
       st.sampled_from((2, 3, 5, 7, 11, 13)))
def test_is_square_and_iroot(n, k):
    assert is_square(n) == (math.isqrt(n) ** 2 == n)
    r = iroot(n, k)
    assert r ** k <= n < (r + 1) ** k
    # an exact power and the number just below it, where an off-by-one shows
    assert iroot(r ** k, k) == r
    assert r == 0 or iroot(r ** k - 1, k) == r - 1
    with pytest.raises(ValueError):
        iroot(-1 - n, k)


@pytest.mark.parametrize("k", (2, 3, 5))
@pytest.mark.parametrize("p", (1009, 1000003, 2 ** 61 - 1))
def test_factor_splits_a_prime_power_past_trial_division(p, k):
    # p is past the trial-division primes, so p**k reaches the perfect-power
    # step before any rho round
    assert factor(p ** k).factors == ((p, k),)


def test_is_square_negative():
    assert not is_square(-4)


def test_factor_is_deterministic_on_rho_sized_inputs():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(10 ** 9, 10 ** 11)
        assert factor(n).factors == tuple(sorted(naive_factor(n).items()))
