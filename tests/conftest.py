"""Shared fixtures."""

from __future__ import annotations

import pytest

from polya import arith, biquad, quadratic, sqclass, verify


@pytest.fixture()
def factor_calls(monkeypatch) -> list[int]:
    """Every argument passed to `factor` while the test runs, in order,
    whichever module calls it.  The radicand memo starts empty, so what an
    earlier test factored is factored again here."""
    quadratic._primes_under_budget.cache_clear()
    calls: list[int] = []
    real = arith.factor

    def counted(n: int, **kwargs):
        calls.append(n)
        return real(n, **kwargs)

    for module in (arith, sqclass, quadratic, biquad, verify):
        if hasattr(module, "factor"):
            monkeypatch.setattr(module, "factor", counted)
    return calls
