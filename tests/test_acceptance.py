"""Acceptance gate: eleven pinned end-to-end checks, one announced
PASS/FAIL line each, with per-check wall-clock budgets."""

from __future__ import annotations

import time
from math import isqrt

import pytest

from polya.arith import jacobi, sieve_primes, squarefree_part
from polya.biquad import (OUTSIDE_PROPOSITION, biquadratic_field,
                          leriche_classify, polya_report)
from polya.quadratic import (POLYA, cf_expand, fundamental_unit,
                             quadratic_polya_oracle, zantema_classify)
from polya.verify import (T1, TABLE_ROWS, admissible_triples, check_hypotheses,
                          contrast_rajaei, pollack_search, verify_table, verify_theorem)


@pytest.fixture()
def criterion(capsys):
    """Run one acceptance check under a wall-clock budget and announce the
    outcome on the real terminal even while captured."""

    def run(number: int, label: str, limit_seconds: float, body) -> None:
        def announce(line: str) -> None:
            with capsys.disabled():
                print(line, flush=True)

        start = time.perf_counter()
        try:
            body()
        except BaseException:
            announce(f"[ACCEPTANCE] criterion {number:2d} ({label}): FAIL")
            raise
        elapsed = time.perf_counter() - start
        if elapsed > limit_seconds:
            announce(f"[ACCEPTANCE] criterion {number:2d} ({label}): "
                     f"FAIL (took {elapsed:.2f}s, budget {limit_seconds:.0f}s)")
            raise AssertionError(f"criterion {number} exceeded {limit_seconds:.0f}s")
        announce(f"[ACCEPTANCE] criterion {number:2d} ({label}): "
                 f"PASS ({elapsed:.2f}s, budget {limit_seconds:.0f}s)")

    return run


def test_criterion_01_published_table(criterion):
    def body():
        reports = verify_table()
        assert len(reports) == 20
        assert tuple(r.triple for r in reports) == tuple(row[1:] for row in TABLE_ROWS)
        for rep in reports:
            assert rep.hypotheses_ok is True, rep.triple
            f = rep.field_report
            assert f.po_order == 2 and rep.claim_matches is True, rep.triple
            assert f.po_order * f.h1_order == f.product_e, rep.triple

    criterion(1, "published table, twenty rows", 10.0, body)


def test_criterion_02_worked_example(criterion):
    def body():
        rep = polya_report(biquadratic_field(2, 85))
        assert rep.product_e == 8
        assert rep.h_order == 4
        assert rep.index_factor == 1
        assert rep.h1_order == 4
        assert rep.po_order == 2
        units = [fundamental_unit(d) for d in (2, 85, 170)]
        assert [(u.z, u.t, u.denom, u.norm) for u in units] == [
            (1, 1, 1, -1), (9, 1, 2, -1), (13, 1, 1, -1)]

    criterion(2, "worked example Q(sqrt(2), sqrt(85))", 1.0, body)


def test_criterion_03_first_family_sweep(criterion):
    def body():
        small = [p for p in sieve_primes(49) if p % 4 == 3]
        big = sieve_primes(199)
        count = 0
        for p in small:
            for q in big:
                for r in big:
                    if not all(ok for _, ok in check_hypotheses(T1, (p, q, r))):
                        continue
                    rep = verify_theorem("T1", (p, q, r))
                    assert rep.field_report.po_order == 2, (p, q, r)
                    assert rep.claim_matches is True, (p, q, r)
                    assert rep.epsilon_in_allowed_set is True, (p, q, r)
                    count += 1
        assert count == 272

    criterion(3, "T1 sweep p < 50, q, r < 200", 300.0, body)


def test_criterion_04_third_family_sweep(criterion):
    def body():
        triples = admissible_triples("T3", 199)
        for t in triples:
            rep = verify_theorem("T3", t)
            assert rep.field_report.po_order == 2, t
            assert rep.claim_matches is True, t
            assert rep.epsilon_in_allowed_set in (None, True), t
        assert len(triples) == 224

    criterion(4, "T3 sweep p, q < 200", 300.0, body)


def test_criterion_05_second_family_smallest(criterion):
    def body():
        # the twenty smallest by largest prime, then lexicographically: 40
        # triples have every prime below 64, and any other sorts after them
        admitted = admissible_triples("T2", 64)
        assert len(admitted) == 40
        triples = sorted(admitted, key=lambda t: (max(t), t))[:20]
        assert len(triples) == 20 and triples[0] == (19, 3, 17)
        for t in triples:
            rep = verify_theorem("T2", t)
            f = rep.field_report
            assert f.po_order * f.h1_order == f.product_e, t
            assert rep.claim_matches is not None, t
            # the a2 proof step asserts norm -1, computation gives +1
            assert fundamental_unit(t[1] * t[2]).norm == 1, t
            assert any("a2 step" in a for a in rep.anomalies), t
            w = rep.epsilon_witness
            if w is not None:
                u = fundamental_unit(w.d)
                assert w.g * w.m ** 2 * w.epsilon - w.denom == u.z
                assert w.g * w.n ** 2 * w.eta + w.denom == u.z
                assert w.g * w.m * w.n == u.t

    criterion(5, "twenty smallest T2 triples", 300.0, body)


def test_criterion_06_classification_against_oracle(criterion):
    def body():
        total = 0
        for a in range(2, 301):
            for d in (a, -a):
                if squarefree_part(d) != d:
                    continue
                total += 1
                assert zantema_classify(d).verdict == quadratic_polya_oracle(d), d
        assert total == 364

    criterion(6, "quadratic verdicts vs oracle, |d| <= 300", 120.0, body)


def test_criterion_07_norm_minus_one_criterion(criterion):
    def body():
        primes = [p for p in sieve_primes(200) if p % 4 == 1]
        count = 0
        for i, r in enumerate(primes):
            for s in primes[i + 1:]:
                # r = s = 1 (mod 4) with (r/s) = -1 forces N(u) = -1 in Q(sqrt(rs))
                if jacobi(r, s) == -1:
                    assert fundamental_unit(r * s).norm == -1, (r, s)
                    count += 1
        assert count == 112

    criterion(7, "norm -1 criterion, r < s <= 200", 120.0, body)


def test_criterion_08_contrast_family(criterion):
    def body():
        p3 = [p for p in sieve_primes(60) if p % 4 == 3]
        r5 = [r for r in sieve_primes(60) if r % 8 == 5]
        count = 0
        for p in p3:
            for q in p3:
                if p == q:
                    continue
                for r in r5:
                    rep = contrast_rajaei(p, q, r)
                    assert rep.field_report.po_order == 1, (p, q, r)
                    assert rep.matches, (p, q, r)
                    count += 1
        assert count == 360

    criterion(8, "contrast family is Polya, primes <= 60", 300.0, body)


def test_criterion_09_companion_prime_search(criterion):
    def body():
        from polya.arith import jacobi
        for r in [p for p in sieve_primes(101) if p >= 13]:
            p, q = pollack_search(r)
            assert p <= r - 1 and q <= r - 1, r
            assert p % 4 == 3 and q % 4 == 1, r
            assert jacobi(p, r) == -1 and jacobi(q, r) == -1, r

    criterion(9, "companion primes for 13 <= r <= 101", 1.0, body)


def test_criterion_10_fundamental_units(criterion):
    cap = 1200

    def brute(d: int, bound: int) -> tuple[int, int] | None:
        # smallest t with d*t^2 +- 4 square, in (z + t*sqrt(d))/2 coordinates
        for t in range(1, bound + 1):
            for target in (-4, 4):
                z2 = d * t * t + target
                if z2 <= 0:
                    continue
                z = isqrt(z2)
                if z * z != z2:
                    continue
                if d % 4 == 1 or (z % 2 == 0 and t % 2 == 0):
                    return z, t
        return None

    def body():
        checked = 0
        for d in range(2, 2001):
            if squarefree_part(d) != d:
                continue
            checked += 1
            u = fundamental_unit(d)
            assert u.z > 0 and u.t > 0 and u.denom in (1, 2), d
            assert u.z ** 2 - d * u.t ** 2 == u.norm * u.denom ** 2, d
            z4, t4 = (u.z, u.t) if u.denom == 2 else (2 * u.z, 2 * u.t)
            if t4 <= cap:
                assert brute(d, t4) == (z4, t4), d
            else:
                assert brute(d, cap) is None, d
            if d % 4 != 1:
                assert u.norm == (-1) ** len(cf_expand(d).period), d
        assert checked == 1214

    criterion(10, "units 2 <= d <= 2000, exact and minimal", 60.0, body)


def test_criterion_11_composite_classification(criterion):
    def body():
        sq = [d for d in range(2, 121) if squarefree_part(d) == d]
        count = 0
        for i, m in enumerate(sq):
            for n in sq[i + 1:]:
                if zantema_classify(m).verdict != POLYA:
                    continue
                if zantema_classify(n).verdict != POLYA:
                    continue
                verdict = leriche_classify(m, n).verdict
                if verdict == OUTSIDE_PROPOSITION:
                    continue
                rep = polya_report(biquadratic_field(m, n))
                assert (rep.po_order == 1) == (verdict == POLYA), (m, n)
                count += 1
        assert count == 1035

    criterion(11, "composite rule vs pipeline, kernels <= 120", 300.0, body)
