"""Differential tests of is_prime, factor and cf_expand against sympy.

Skipped when sympy is not installed.  sympy's periodic continued fraction is
symbolic and slow (milliseconds per term), so its ranges are kept small.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.ntheory.continued_fraction import continued_fraction_periodic  # noqa: E402

from polya.arith import factor, is_prime  # noqa: E402
from polya.quadratic import cf_expand  # noqa: E402


def test_is_prime_matches_sympy_small_range():
    assert [n for n in range(20000) if is_prime(n)] == \
        [n for n in range(20000) if sympy.isprime(n)]


@given(st.integers(min_value=0, max_value=2 ** 128))
@settings(max_examples=300)
def test_is_prime_matches_sympy(n):
    assert is_prime(n) == sympy.isprime(n), n


def test_factor_matches_sympy_small_range():
    for n in range(1, 5000):
        assert dict(factor(n).factors) == sympy.factorint(n), n


@given(st.integers(min_value=1, max_value=10 ** 15))
@settings(max_examples=150, deadline=None)
def test_factor_matches_sympy(n):
    assert dict(factor(n).factors) == sympy.factorint(n), n


def _sympy_cf(d: int) -> tuple[int, tuple[int, ...]]:
    a0, period = continued_fraction_periodic(0, 1, d)
    return a0, tuple(period)


def test_cf_expand_matches_sympy_small_range():
    for d in range(2, 100):
        if math.isqrt(d) ** 2 == d:
            continue
        cf = cf_expand(d)
        assert (cf.preperiod[0], cf.period) == _sympy_cf(d), d


@given(st.integers(min_value=100, max_value=20000))
@settings(max_examples=10, deadline=None)
def test_cf_expand_matches_sympy(d):
    if math.isqrt(d) ** 2 == d:
        return
    cf = cf_expand(d)
    assert (cf.preperiod[0], cf.period) == _sympy_cf(d), d
