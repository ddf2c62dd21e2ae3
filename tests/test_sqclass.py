"""Square classes in Q*/(Q*)^2 and the orders of the subgroups they span."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from polya.sqclass import IDENTITY, SquareClass, class_of, span

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
    assert span(gens) == len(brute_span(gens))


def test_span_examples():
    assert span([]) == 1
    assert span([class_of(2), class_of(3), class_of(6)]) == 4
    assert span([class_of(2), class_of(3), class_of(51)]) == 8
    # [15] = [3][5]
    assert span([class_of(15), class_of(3), class_of(5)]) == 4
    # the six generators of Q(sqrt(11), sqrt(105)), over five ramified primes
    assert span([class_of(v) for v in (11, 105, 1155, 22, 21, 70)]) == 32


def test_sign_is_an_independent_coordinate():
    assert span([class_of(-1), class_of(2), class_of(-2)]) == 4


@pytest.mark.parametrize(("kernel", "square"), [(289, 17), (578, 17), (3 * 1009 ** 2, 1009)])
def test_constructor_rejects_every_kernel_that_is_not_squarefree(kernel, square):
    # a class carries a squarefree kernel: [289] would be the identity, yet
    # span([SquareClass(1, 289)]) would read order 2 where it is 1; squares
    # of primes past trial division are caught too
    with pytest.raises(ValueError, match=rf"^kernel {kernel} is divisible by {square}\^2$"):
        SquareClass(1, kernel)
