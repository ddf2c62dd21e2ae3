"""Theorem verification: hypothesis predicates, unit witnesses, exactness of
the reported orders, scans, the published table, and the contrast families."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polya import quadratic, verify
from polya.arith import jacobi, sieve_primes, squarefree_part
from polya.biquad import biquadratic_field, polya_report
from polya.cli import _witness_payload
from polya.quadratic import UnitSplit, epsilon_decomposition, fundamental_unit
from polya.verify import (T1, T2, T3, TABLE_ROWS, THEOREMS, Family, _theorem_field,
                          admissible_triples, check_hypotheses, contrast_rajaei,
                          pollack_search, scan, verify_table, verify_theorem)


def _holds(theorem, triple):
    """Whether the triple satisfies every hypothesis of the theorem."""
    return all(ok for _, ok in check_hypotheses(theorem, triple))


def _failed(theorem, triple):
    """The labels of the hypotheses the triple breaks, in order."""
    return tuple(label for label, ok in check_hypotheses(theorem, triple) if not ok)


def test_hypotheses_t1_examples():
    assert _failed(T1, (3, 17, 41)) == ()
    # 29 = 5 mod 8, while (17/29) = -1 holds
    assert _failed(T1, (3, 17, 29)) == ("r = 1 mod 8",)
    # 89 = 1 mod 8, but (17/89) = (89/17) = (4/17) = +1
    assert _failed(T1, (3, 17, 89)) == ("(q/r) = -1",)
    # a repeated prime, whose symbol (17/17) is 0
    assert _failed(T1, (3, 17, 17)) == ("p, q, r are distinct primes", "(q/r) = -1")


def test_hypotheses_t2_examples():
    assert _failed(T2, (19, 3, 17)) == ()
    assert _failed(T2, (3, 7, 13)) == ("r = 1 mod 8",)    # r = 13 is 5 mod 8
    # r = 2: no symbol mod 2 holds
    assert _failed(T2, (19, 3, 2)) == ("r = 1 mod 8", "(p/r) = 1", "(q/r) = -1")


def test_hypotheses_t3_examples():
    assert _failed(T3, (5, 17)) == ()
    assert _failed(T3, (5, 13)) == ()                     # (5/13) = -1
    assert _failed(T3, (5, 5)) == ("p, q are distinct primes", "(p/q) = -1")
    assert _failed(T3, (2, 5)) == ("p = 1 mod 4",)


def test_hypothesis_reports_carry_labeled_checks():
    labels = ["p, q, r are distinct primes", "p = 3 mod 4", "q = 1 mod 8", "r = 1 mod 8",
              "(q/r) = -1"]
    for triple, failed in (((3, 17, 29), ("r = 1 mod 8",)), ((3, 17, 89), ("(q/r) = -1",))):
        checks = check_hypotheses(T1, triple)
        assert [label for label, _ in checks] == labels
        assert all(ok is True or ok is False for _, ok in checks)
        assert _failed(T1, triple) == failed
        rep = verify_theorem(T1, triple)
        assert rep.hypothesis_checks == checks
        assert rep.hypotheses_ok is False


def test_hypotheses_t1_oracle_against_direct_congruences():
    primes = sieve_primes(60)
    for p in primes:
        for q in primes:
            for r in primes:
                expected = (len({p, q, r}) == 3 and p % 4 == 3
                            and q % 8 == 1 and r % 8 == 1
                            and q != 2 and r != 2 and jacobi(q, r) == -1)
                assert _holds(T1, (p, q, r)) == expected, (p, q, r)


def _euler(a, n):
    # Legendre symbol (a/n) for an odd prime n by Euler's criterion
    value = pow(a, (n - 1) // 2, n)
    return -1 if value == n - 1 else value


# T2's and T3's hypotheses written out literally, apart from the
# declarations that drive check_hypotheses and admissible_triples (T1 has its
# own such test above)
STATEMENTS = {
    "T2": lambda p, q, r: (len({p, q, r}) == 3 and p % 4 == 3 and q % 4 == 3
                           and r % 8 == 1 and _euler(p, r) == 1 and _euler(q, r) == -1),
    "T3": lambda p, q: (p != q and p % 4 == 1 and q % 4 == 1 and _euler(p, q) == -1),
}


@pytest.mark.parametrize("theorem", STATEMENTS)
def test_hypotheses_match_the_literal_statement(theorem):
    statement = STATEMENTS[theorem]
    arity = statement.__code__.co_argcount
    held = 0
    for t in itertools.product(sieve_primes(60), repeat=arity):
        assert _holds(theorem, t) == statement(*t), t
        held += statement(*t)
    assert held > 0


def test_epsilon_witness_examples():
    w = epsilon_decomposition(105)
    assert (w.denom, w.g, w.epsilon, w.eta) == (1, 2, 21, 5)
    assert (w.m, w.n) == (1, 2)
    assert _witness_payload(w)["case_label"] == "gcd = 2"
    w = epsilon_decomposition(15)
    assert (w.denom, w.g, w.epsilon, w.eta) == (1, 1, 5, 3)
    assert _witness_payload(w)["case_label"] == "gcd = 1"
    with pytest.raises(ValueError, match="norm -1"):
        epsilon_decomposition(85)   # norm -1, no positive-unit decomposition


def test_epsilon_witness_identities_and_unit_reconstruction():
    for d in (15, 21, 33, 34, 35, 51, 105, 161, 210, 221):
        if fundamental_unit(d).norm == -1:
            with pytest.raises(ValueError):
                epsilon_decomposition(d)
            continue
        w = epsilon_decomposition(d)
        u = fundamental_unit(d)
        assert w.epsilon * w.eta == d
        assert w.g * w.m**2 * w.epsilon - w.denom == u.z
        assert w.g * w.n**2 * w.eta + w.denom == u.z
        assert w.g * w.m * w.n == u.t
        assert w.denom == u.denom


def test_epsilon_witness_frozen_validation():
    with pytest.raises(ValueError):   # a unit denominator is 1 or 2
        UnitSplit(d=15, denom=3, g=3, m=1, n=1, epsilon=5, eta=3)
    with pytest.raises(ValueError):   # 5*2^2 - 3*1^2 = 17, not 2
        UnitSplit(d=15, denom=1, g=1, m=2, n=1, epsilon=5, eta=3)


def test_verify_theorem_t3_worked_example():
    rep = verify_theorem("T3", (5, 17))
    assert rep.hypotheses_ok is True
    f = rep.field_report
    assert (f.po_order, f.h1_order, f.product_e) == (2, 4, 8)
    assert f.unit_norms == (-1, -1, -1)
    assert rep.epsilon_witness is None
    assert rep.claim_matches is True
    assert rep.anomalies == ()


def test_verify_theorem_t1_example_with_witness():
    rep = verify_theorem("T1", (3, 17, 41))
    assert rep.claim_matches is True
    w = rep.epsilon_witness
    assert w is not None and w.epsilon == 2091
    assert w == epsilon_decomposition(2091)
    assert rep.epsilon_in_allowed_set is True


@pytest.fixture()
def empty_kernel_caches():
    quadratic.fundamental_unit.cache_clear()
    quadratic.epsilon_decomposition.cache_clear()
    quadratic._kernel_invariants.cache_clear()


def test_verify_theorem_reads_norms_without_building_units(empty_kernel_caches):
    rep = verify_theorem("T3", (5, 17))   # kernels 2, 85 and 170 all have norm -1
    assert rep.claim_matches is True and rep.anomalies == ()
    assert rep.epsilon_witness is None
    assert fundamental_unit.cache_info().misses == 0


def test_verify_theorem_builds_no_unit(empty_kernel_caches):
    # the witness split of Q(sqrt(2091)) comes from half its period
    w = verify_theorem("T1", (3, 17, 41)).epsilon_witness
    assert (w.d, w.g, w.m, w.n, w.epsilon) == (2091, 1, 11, 503, 2091)
    assert fundamental_unit.cache_info().misses == 0


def test_verify_theorem_t2_proof_step_anomaly():
    rep = verify_theorem("T2", (19, 3, 17))
    assert rep.claim_matches is True
    assert rep.field_report.po_order == 2
    assert len(rep.anomalies) == 1
    assert "a2 step" in rep.anomalies[0]
    assert "asserted -1, computed 1" in rep.anomalies[0]


def test_verify_theorem_reports_both_asserted_norms_in_order(monkeypatch):
    # the unit norms of Q(sqrt(3)) and Q(sqrt(697)) are 1 and -1; asserting
    # the opposite of each must name each step, m's before n's
    t1 = verify.FAMILIES["T1"]
    monkeypatch.setitem(verify.FAMILIES, "T1",
                        Family(t1.primes, t1.symbols, t1.field, (-1, 1)))
    rep = verify_theorem("T1", (3, 17, 41))
    assert rep.anomalies == (
        "unit norm of Q(sqrt(3)) behind the a1 step: asserted -1, computed 1",
        "unit norm of Q(sqrt(697)) behind the a2 step: asserted 1, computed -1")
    assert rep.claim_matches is True


def test_verify_theorem_reports_an_epsilon_outside_the_allowed_set(monkeypatch):
    monkeypatch.setattr(verify, "epsilon_decomposition",
                        lambda d: SimpleNamespace(epsilon=7))
    rep = verify_theorem("T1", (3, 17, 41))
    assert rep.anomalies == (
        "epsilon 7 of kernel 2091 outside allowed set [1, 3, 697, 2091]",)
    assert rep.epsilon_in_allowed_set is False
    assert rep.claim_matches is True


def test_verify_theorem_skips_field_work_when_hypotheses_fail():
    rep = verify_theorem("T1", (3, 17, 29))
    assert rep.hypotheses_ok is False
    assert rep.field_report is None and rep.claim_matches is None


@pytest.mark.parametrize("theorem", THEOREMS)
def test_theorem_field_from_the_triple_matches_the_factored_field(theorem):
    for triple in admissible_triples(theorem, 100):
        if theorem == "T3":
            m, n = 2, triple[0] * triple[1]
        else:
            m, n = triple[0], triple[1] * triple[2]
        assert _theorem_field(theorem, triple) == biquadratic_field(m, n)


def test_theorem_reports_factor_only_their_witness_kernels(factor_calls):
    # the fields come from their triples; a witness's fundamental unit checks
    # its kernel, unless the unit cache already holds it (the table has no
    # witness, so it factors nothing)
    for run in (verify_table, lambda: scan("T1", 100)):
        factor_calls.clear()
        reports = run()
        witnesses = {r.epsilon_witness.d for r in reports
                     if r.epsilon_witness is not None}
        assert set(factor_calls) <= witnesses


def test_verify_theorem_rejects_wrong_arity():
    with pytest.raises(ValueError):
        verify_theorem("T3", (5, 17, 3))
    with pytest.raises(ValueError):
        verify_theorem("T9", (5, 17))


def test_admissible_triples_examples():
    t3 = admissible_triples("T3", 20)
    # (13, 17) is excluded: 13 is a square mod 17
    assert t3 == ((5, 13), (5, 17), (13, 5), (17, 5))
    assert admissible_triples("T3", 16) == ((5, 13), (13, 5))
    assert admissible_triples("T1", 13) == ()
    assert admissible_triples("T2", 3) == ()
    with pytest.raises(ValueError):
        admissible_triples("T3", 2)


def test_admissible_triples_respects_bound_and_hypotheses():
    for theorem in THEOREMS:
        triples = admissible_triples(theorem, 60)
        assert triples == tuple(sorted(triples))
        for t in triples:
            assert max(t) <= 60
            assert _holds(theorem, t) is True


def _brute_force_admissible(theorem, bound):
    # every prime triple up to the bound, kept when its full hypothesis report holds
    arity = 2 if theorem == "T3" else 3
    return tuple(t for t in itertools.product(sieve_primes(bound), repeat=arity)
                 if _holds(theorem, t))


@pytest.mark.parametrize("theorem", THEOREMS)
def test_admissible_triples_are_complete(theorem):
    oracle = _brute_force_admissible(theorem, 150)
    for bound in range(3, 151):
        expected = tuple(t for t in oracle if max(t) <= bound)
        assert admissible_triples(theorem, bound) == expected, bound


def test_admissible_triple_counts_at_scan_bounds():
    assert len(admissible_triples("T1", 300)) == 2432
    assert len(admissible_triples("T2", 300)) == 2981
    assert len(admissible_triples("T3", 400)) == 694


def test_scan_reports_each_admissible_triple():
    reports = scan("T3", 20)
    assert tuple(r.triple for r in reports) == admissible_triples("T3", 20)
    assert all(r.claim_matches for r in reports)


def test_table_rows_are_fixed_and_verified():
    assert len(TABLE_ROWS) == 20
    assert TABLE_ROWS[0] == (2, 5, 17)
    assert (2, 17, 5) in TABLE_ROWS
    reports = verify_table()
    assert len(reports) == 20
    assert all(r.field_report.po_order == 2 for r in reports)
    # permuted odd primes name the same field
    primed = {tuple(sorted(row)) for row in TABLE_ROWS}
    a = verify_theorem("T3", (5, 17)).field_report
    b = verify_theorem("T3", (17, 5)).field_report
    assert (a.po_order, a.h1_order) == (b.po_order, b.h1_order)
    assert len(primed) == 18   # (2,5,17)/(2,17,5) and (2,17,29)/(2,29,17) collapse


def test_contrast_examples():
    rep = contrast_rajaei(3, 7, 13)
    assert rep.field_report.po_order == 1 and rep.matches
    rep = contrast_rajaei(3, 7, 5)
    assert rep.field_report.po_order == 1 and rep.matches
    with pytest.raises(ValueError):
        contrast_rajaei(3, 7, 17)    # r = 17 is 1 mod 8, not 5
    with pytest.raises(ValueError):
        contrast_rajaei(3, 5, 13)    # q = 5 not 3 mod 4


def test_pollack_examples():
    assert pollack_search(13) == (7, 5)
    assert pollack_search(17) == (3, 5)
    with pytest.raises(ValueError):
        pollack_search(11)
    with pytest.raises(ValueError):
        pollack_search(14)


def sieve_pollack(r: int) -> tuple[int, int]:
    """The sieve route: every prime below r, then the first of each class."""
    primes = sieve_primes(r)
    p = next(v for v in primes if v % 4 == 3 and jacobi(v, r) == -1)
    q = next(v for v in primes if v % 4 == 1 and jacobi(v, r) == -1)
    return p, q


def test_pollack_matches_sieve_route():
    for r in sieve_primes(3000):
        if r >= 13:
            assert pollack_search(r) == sieve_pollack(r), r


def test_pollack_pairs_satisfy_all_side_conditions():
    for r in (13, 17, 29, 37, 41):
        p, q = pollack_search(r)
        assert p % 4 == 3 and q % 4 == 1
        assert p < r and q < r
        assert jacobi(p, r) == jacobi(q, r) == -1
        assert squarefree_part(p * q * r) == p * q * r


triples_t1 = st.sampled_from(admissible_triples("T1", 80))


@given(triples_t1)
@settings(max_examples=15, deadline=None)
def test_t1_reports_are_exact_and_claims_hold(triple):
    rep = verify_theorem("T1", triple)
    f = rep.field_report
    assert f.ramification[0] == (2, 2) and f.product_e == 16
    assert f.po_order * f.h1_order == 16
    assert rep.claim_matches is True
    assert rep.epsilon_in_allowed_set is True
    # independent recomputation through the generic field pipeline
    p, q, r = triple
    again = polya_report(biquadratic_field(p, q * r))
    assert again.po_order == f.po_order
