"""Square classes in Q*/(Q*)^2 and their GF(2) subgroup spans."""

from __future__ import annotations

import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polya import sqclass
from polya.arith import factor
from polya.sqclass import IDENTITY, SquareClass, class_of, span, subgroup_order

nonzero = st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(lambda n: n != 0)


def test_class_of_examples():
    assert str(class_of(8)) == "[2]"
    assert str(class_of(12)) == "[3]"
    assert str(class_of(-18)) == "[-2]"
    assert class_of(49) == IDENTITY
    assert class_of(1) == IDENTITY


def test_class_of_rejects_zero():
    with pytest.raises(ValueError):
        class_of(0)


@given(nonzero, nonzero)
def test_multiplication_matches_squarefree_part_of_product(a, b):
    from polya.arith import squarefree_part
    assert (class_of(a) * class_of(b)).value == squarefree_part(a * b)


@given(nonzero)
def test_every_class_is_self_inverse(a):
    c = class_of(a)
    assert c * c == IDENTITY
    assert c * IDENTITY == c


@given(nonzero, nonzero, nonzero)
def test_multiplication_is_associative_and_commutative(a, b, c):
    x, y, z = class_of(a), class_of(b), class_of(c)
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x


def brute_span(generators: list[SquareClass]) -> set[SquareClass]:
    # all subset products, the textbook definition of the generated subgroup
    out = set()
    for r in range(len(generators) + 1):
        for subset in combinations(generators, r):
            acc = IDENTITY
            for g in subset:
                acc = acc * g
            out.add(acc)
    return out


@given(st.lists(nonzero, max_size=6))
def test_span_matches_brute_force_subgroup(values):
    gens = [class_of(v) for v in values]
    expected = brute_span(gens)
    sub = span(gens)
    assert sub.order == len(expected)
    assert all(sub.contains(c) for c in expected)
    order, basis = subgroup_order(gens)
    assert order == len(expected)
    assert 2 ** len(basis) == order


@given(st.lists(nonzero, max_size=6))
def test_basis_is_independent(values):
    _, basis = subgroup_order([class_of(v) for v in values])
    for i in range(len(basis)):
        rest = span([b for j, b in enumerate(basis) if j != i])
        assert not rest.contains(basis[i])


@given(st.lists(st.integers(min_value=-300, max_value=300).filter(bool), max_size=5))
def test_contains_is_membership_over_every_prime_subset(values):
    # span works over a coprime base of the kernels; a class that takes part
    # of a base element (3 against the base element 15 of span([15])) is out
    gens = [class_of(v) for v in values]
    members = brute_span(gens)
    sub = span(gens)
    primes = sorted({p for g in gens for p in factor(g.kernel).primes()})
    for sign in (1, -1):
        for r in range(len(primes) + 1):
            for subset in combinations(primes, r):
                c = SquareClass(sign, math.prod(subset))
                assert sub.contains(c) == (c in members), (values, c)


def test_contains_rejects_part_of_a_kernel():
    sub = span([class_of(15)])
    assert sub.contains(class_of(15)) and not sub.contains(class_of(3))
    assert not sub.contains(class_of(5)) and not sub.contains(class_of(-15))


def test_span_raises_when_a_generator_is_off_its_base(monkeypatch):
    # every generator is a product of the coprime base of the generators'
    # kernels; a base that misses one must raise under python -O too
    monkeypatch.setattr(sqclass, "_coprime_base", lambda kernels: (3,))
    with pytest.raises(ArithmeticError):
        span([class_of(15)])


def test_subgroup_order_examples():
    assert subgroup_order([]) == (1, ())
    order, _ = subgroup_order([class_of(2), class_of(3), class_of(6)])
    assert order == 4
    order, _ = subgroup_order([class_of(2), class_of(3), class_of(51)])
    assert order == 8


def test_sign_is_an_independent_coordinate():
    order, _ = subgroup_order([class_of(-1), class_of(2), class_of(-2)])
    assert order == 4
