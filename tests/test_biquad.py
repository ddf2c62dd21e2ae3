"""Bi-quadratic fields: subfield kernels, ramification, the H^1 pipeline, and
the independent composite classification."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polya import quadratic
from polya.arith import factor, is_prime, squarefree_part
from polya.biquad import (OUTSIDE_PROPOSITION, BiquadraticField, _third_kernel,
                          biquadratic_field, h1_order, h_generators, leriche_classify,
                          polya_report, ramification)
from polya.quadratic import (NOT_POLYA, POLYA, _radicand_primes, fundamental_unit,
                             zantema_classify)
from polya.sqclass import class_of

kernels = (st.integers(min_value=2, max_value=400)
           .map(squarefree_part).filter(lambda d: d > 1))


def test_subfields_examples():
    assert biquadratic_field(2, 85).deltas == (2, 85, 170)
    assert biquadratic_field(3, 51).deltas == (3, 17, 51)
    assert biquadratic_field(6, 10).deltas == (6, 10, 15)


def test_subfields_rejects_degenerate_input():
    with pytest.raises(ValueError):
        biquadratic_field(2, 2)     # same field twice
    with pytest.raises(ValueError):
        biquadratic_field(2, 8)     # 8 is not squarefree
    with pytest.raises(ValueError):
        biquadratic_field(12, 5)    # not squarefree
    with pytest.raises(ValueError):
        biquadratic_field(0, 5)


signed_kernels = (st.integers(min_value=-400, max_value=400).filter(bool)
                  .map(squarefree_part).filter(lambda d: d != 1))


@given(signed_kernels, signed_kernels)
def test_third_kernel_and_primes_need_only_m_and_n(m, n):
    if m == n:
        return
    f = biquadratic_field(m, n)
    assert f.deltas == tuple(sorted((m, n, squarefree_part(m * n))))
    assert f.primes == factor(abs(m * n)).primes()


def _reference_primes(m: int, n: int) -> tuple[int, ...]:
    """The field's primes found by factoring m, then n, whole: the errors
    and their order that `biquadratic_field` keeps."""
    primes = {*_radicand_primes(m), *_radicand_primes(n)}
    _third_kernel(m, n)
    return tuple(sorted(primes))


def _outcome(primes, m: int, n: int):
    try:
        return primes(m, n)
    except ValueError as exc:
        return str(exc)


def _field_primes(m: int, n: int) -> tuple[int, ...]:
    return biquadratic_field(m, n).primes


# pairs whose shared factor hides a square: g and m/g are squarefree but
# share a prime (12 = 6 * 2, 18 = 3 * 6), or m/g is not squarefree
# (8 = 2 * 4); and a zero beside such a pair's non-squarefree radicand
HIDDEN_SQUARES = [(8, 2), (12, 6), (6, 12), (18, 3), (0, 12), (12, 0), (-12, 6),
                  (6, -12), (50, 10), (75, 15), (10, 50), (45, 15), (98, 14)]


def test_coprime_pieces_keep_the_reference_errors_and_their_order():
    pairs = [(m, n) for m in range(-300, 301) for n in range(-300, 301)]
    for m, n in HIDDEN_SQUARES + pairs:
        expected = _outcome(_reference_primes, m, n)
        assert _outcome(_field_primes, m, n) == expected, (m, n)
    assert _outcome(_field_primes, 12, 6) == "12 is not squarefree"
    assert _outcome(_field_primes, 6, 12) == "12 is not squarefree"
    assert _outcome(_field_primes, 8, 2) == "8 is not squarefree"
    assert _outcome(_field_primes, 0, 12) == (
        "radicands must be squarefree integers other than 0 and 1")


def test_field_validation_checks_the_primes():
    assert biquadratic_field(6, 10).primes == (2, 3, 5)
    for primes in ((2, 3), (2, 3, 5, 7), (3, 2, 5), (2, 3, 15)):
        with pytest.raises(ValueError):
            BiquadraticField(6, 10, primes)
    with pytest.raises(ValueError):
        BiquadraticField(12, 5, (2, 3, 5))   # 12 is not squarefree
    with pytest.raises(ValueError):
        BiquadraticField(6, 6, (2, 3))       # the same field twice
    assert BiquadraticField(6, 10, (2, 3, 5)).deltas == (6, 10, 15)


def test_biquadratic_field_sorts_and_flags_real():
    f = biquadratic_field(85, 2)
    assert f.deltas == (2, 85, 170)
    assert f.totally_real
    assert not biquadratic_field(-1, 6).totally_real


def test_ramification_examples():
    # 2 ramifies with e = 2, totally (e = 4), and not at all
    for m, n, entries, product in ((2, 85, ((2, 2), (5, 2), (17, 2)), 8),
                                   (2, 3, ((2, 4), (3, 2)), 8),
                                   (5, 13, ((5, 2), (13, 2)), 4)):
        field = biquadratic_field(m, n)
        assert ramification(field) == entries
        report = polya_report(field)
        assert report.ramification == entries and report.product_e == product


def test_h_generators_examples():
    gens = h_generators(biquadratic_field(2, 85))
    assert [str(c) for c in gens] == ["[2]", "[85]", "[170]", "[1]", "[1]", "[1]"]
    gens = h_generators(biquadratic_field(3, 697))
    assert gens[3] == class_of(6)   # a-class of the kernel 3 subfield
    with pytest.raises(ValueError):
        h_generators(biquadratic_field(-1, 6))


def test_h1_order_examples():
    assert h1_order(biquadratic_field(2, 85)) == (4, 1, 4)
    assert h1_order(biquadratic_field(3, 697)) == (8, 1, 8)
    assert h1_order(biquadratic_field(2, 3)) == (4, 2, 8)


def test_polya_report_examples():
    rep = polya_report(biquadratic_field(2, 85))
    assert (rep.po_order, rep.po_structure, rep.polya) == (2, "Z/2", False)
    assert rep.unit_norms == (-1, -1, -1)
    rep = polya_report(biquadratic_field(2, 5))
    assert (rep.po_order, rep.po_structure, rep.polya) == (1, "trivial", True)
    rep = polya_report(biquadratic_field(3, 91))
    assert rep.po_order == 1
    rep = polya_report(biquadratic_field(2, 3))
    assert rep.po_structure == "order-only"   # 2 totally ramified
    with pytest.raises(ValueError):
        polya_report(biquadratic_field(-2, 7))


@given(kernels, kernels)
@settings(max_examples=120, deadline=None)
def test_pipeline_is_permutation_symmetric_and_exact(m, n):
    if m == n or squarefree_part(m * n) == 1:
        return
    a = polya_report(biquadratic_field(m, n))
    b = polya_report(biquadratic_field(n, m))
    assert (a.po_order, a.h1_order, a.po_structure) == (b.po_order, b.h1_order, b.po_structure)
    assert a.po_order * a.h1_order == a.product_e
    assert a.h_order * a.index_factor == a.h1_order
    # the third kernel yields the same field and the same invariants
    third = a.field.deltas[2]
    if third not in (m, n):
        c = polya_report(biquadratic_field(m, third))
        assert (c.po_order, c.h1_order) == (a.po_order, a.h1_order)


def test_leriche_examples():
    v = leriche_classify(-2, 7)
    assert v.verdict == NOT_POLYA and "exception 1" in v.rule
    v = leriche_classify(-1, 6)
    assert v.verdict == NOT_POLYA and "exception 2" in v.rule
    assert leriche_classify(2, 5).verdict == POLYA


def test_leriche_is_outside_when_subfields_are_not_polya():
    # kernels 2, 85, 170: only Q(sqrt(2)) is Polya
    v = leriche_classify(2, 85)
    assert v.verdict == OUTSIDE_PROPOSITION


def test_leriche_congruence_necessity_holds():
    # A Polya Q(sqrt(p), sqrt(2q)), p = 3 mod 4 and q odd primes, has p = 7
    # mod 8 with q = +-1 mod 8, or p = 3 mod 8 with q = 1 or 3 mod 8.  Where
    # these fail, the local obstruction at p or q leaves 2pq with no element
    # of norm +-2.  Q(sqrt(3), sqrt(14)) (p = 3, q = 7) is one such field.
    v = leriche_classify(3, 14)
    assert (v.verdict, v.rule) == (NOT_POLYA, "no element of norm +-2 in Q(sqrt(42))")
    squarefree = [d for d in range(2, 300) if squarefree_part(d) == d]
    failing = 0
    for i, m in enumerate(squarefree):
        for n in squarefree[i + 1:]:
            deltas = biquadratic_field(m, n).deltas
            odd = [d for d in deltas if d % 2]
            if len(odd) != 1 or odd[0] % 4 != 3 or not is_prime(odd[0]):
                continue
            p, q = odd[0], min(d for d in deltas if d % 2 == 0) // 2
            if not is_prime(q) or max(deltas) != 2 * p * q:
                continue
            if (p % 8 == 7 and q % 8 in (1, 7)) or (p % 8 == 3 and q % 8 in (1, 3)):
                continue
            v = leriche_classify(m, n)
            if v.verdict == OUTSIDE_PROPOSITION:
                continue
            assert (v.verdict, v.rule) == (
                NOT_POLYA, f"no element of norm +-2 in Q(sqrt({2 * p * q}))"), (m, n)
            failing += 1
    assert failing == 312


def test_leriche_builds_no_unit_for_a_locally_refused_kernel():
    # of the kernels 3 (or 7), 14 (or 6) and 42, the first two have an element
    # of norm +-2 that only a unit can decide; the +-2 of Q(sqrt(42)) is
    # refused by the local obstruction at 3 and at 7, so its unit is not built
    for m, n in ((3, 14), (7, 6)):
        fundamental_unit.cache_clear()
        assert leriche_classify(m, n).verdict == NOT_POLYA
        assert fundamental_unit.cache_info().misses == 2, (m, n)


def test_leriche_factors_only_the_pieces(factor_calls):
    # the field's primes come from its coprime pieces g, m/g and n/g, and
    # each kernel's Zantema case, norm equations and unit read their primes
    # from the field, so no kernel is factored again: not 6, 10 and 15 for
    # (6, 15), whose kernel 10 = 2*5 needs its unit for Zantema's case 4, and
    # not 42 for (3, 14), whose +-2 norms are settled from its primes
    for m, n, pieces, units in ((6, 15, [3, 2, 5], 1), (3, 14, [3, 14], 2)):
        quadratic._primes_under_budget.cache_clear()
        fundamental_unit.cache_clear()
        factor_calls.clear()
        leriche_classify(m, n)
        assert factor_calls == pieces, (m, n)
        assert fundamental_unit.cache_info().misses == units, (m, n)


def test_leriche_principality_refinement_fires():
    # Q(sqrt(19), sqrt(34)) satisfies the necessary congruences yet the kernel
    # 646 has no element of norm +-2, so the compositum is not Polya
    v = leriche_classify(19, 34)
    assert v.verdict == NOT_POLYA and "646" in v.rule
    # Q(sqrt(34), sqrt(38)) has composite odd kernel 323 outside the prime
    # pattern; principality of 2 still decides it
    v = leriche_classify(34, 38)
    assert v.verdict == NOT_POLYA and "323" in v.rule
    # Q(sqrt(3), sqrt(34)) meets the congruences, and each subfield has an
    # element of norm +-2
    assert leriche_classify(3, 34).verdict == POLYA


@given(kernels, kernels)
@settings(max_examples=100, deadline=None)
def test_leriche_agrees_with_pipeline(m, n):
    if m == n or squarefree_part(m * n) == 1:
        return
    v = leriche_classify(m, n)
    assert leriche_classify(n, m).verdict == v.verdict
    if v.verdict == OUTSIDE_PROPOSITION:
        return
    rep = polya_report(biquadratic_field(m, n))
    assert (rep.po_order == 1) == (v.verdict == POLYA), (m, n)


def test_leriche_scope_matches_kernel_count():
    # scope rule: at least two of the three quadratic subfields must be Polya
    for m, n in [(2, 5), (2, 85), (3, 34), (15, 35)]:
        deltas = biquadratic_field(m, n).deltas
        polya_kernels = sum(zantema_classify(d).verdict == POLYA for d in deltas)
        v = leriche_classify(m, n)
        assert (v.verdict == OUTSIDE_PROPOSITION) == (polya_kernels < 2), (m, n)
