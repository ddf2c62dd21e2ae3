"""Theorem-level verification harnesses.

Each theorem names a family of totally real bi-quadratic fields and claims a
Polya group of order 2:

    T1: Q(sqrt(p), sqrt(qr)), p = 3 mod 4, q = r = 1 mod 8, (q/r) = -1
    T2: Q(sqrt(p), sqrt(qr)), p = q = 3 mod 4, r = 1 mod 8, (p/r) = 1, (q/r) = -1
    T3: Q(sqrt(2), sqrt(pq)), p = q = 1 mod 4, (p/q) = -1

A report recomputes everything the corresponding proof asserts along the way
(unit norms behind the a-class steps, the epsilon decomposition of a norm +1
unit, membership of epsilon in the allowed set) and records divergences as
anomalies instead of failing, so a wrong intermediate step is visible even
when the headline Polya order still comes out as claimed.  A field is built
only once its hypotheses hold, and then from the primes of its triple, so
nothing about it is factored.  Unit norms are read from the field's Polya
report, which takes them from the continued-fraction period parity, so only
an epsilon witness builds a fundamental unit.
"""

from __future__ import annotations

from .arith import is_prime, jacobi, sieve_primes
from .biquad import BiquadraticField, PolyaReport, biquadratic_field, polya_report
from .quadratic import UnitSplit, epsilon_decomposition
from .record import Record, set_field

T1 = "T1"
T2 = "T2"
T3 = "T3"
THEOREMS = (T1, T2, T3)

# Reproduction targets: the twenty published example rows (2, p, q), each a
# field Q(sqrt(2), sqrt(pq)) asserted to satisfy the T3 hypotheses.
TABLE_ROWS: tuple[tuple[int, int, int], ...] = (
    (2, 5, 17), (2, 5, 37), (2, 5, 97), (2, 5, 173), (2, 5, 193),
    (2, 13, 37), (2, 13, 73), (2, 13, 89), (2, 13, 97), (2, 13, 109),
    (2, 13, 193), (2, 13, 197), (2, 17, 5), (2, 17, 29), (2, 17, 37),
    (2, 17, 61), (2, 17, 197), (2, 29, 17), (2, 29, 61), (2, 29, 89),
)


class HypothesisReport(Record):
    """Per-condition hypothesis check for one theorem instance.

    Truthy exactly when every condition holds; `checks` keeps the individual
    (label, verdict) pairs so a failure names the condition that broke.
    """

    __slots__ = ("theorem", "triple", "checks")

    def __init__(self, theorem: str, triple: tuple[int, ...],
                 checks: tuple[tuple[str, bool], ...]) -> None:
        set_field(self, "theorem", theorem)
        set_field(self, "triple", triple)
        set_field(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(value for _, value in self.checks)

    def __bool__(self) -> bool:
        return self.ok


def _distinct_primes(*values: int) -> bool:
    return len(set(values)) == len(values) and all(is_prime(v) for v in values)


def _symbol_is(a: int, n: int, want: int) -> bool:
    # jacobi needs an odd positive modulus; a failed earlier check must not crash here
    return n > 2 and n % 2 == 1 and jacobi(a, n) == want


def hypotheses_t1(p: int, q: int, r: int) -> HypothesisReport:
    """p = 3 mod 4, q = r = 1 mod 8 distinct primes with (q/r) = -1."""
    checks = (
        ("p, q, r are distinct primes", _distinct_primes(p, q, r)),
        ("p = 3 mod 4", p % 4 == 3),
        ("q = 1 mod 8", q % 8 == 1),
        ("r = 1 mod 8", r % 8 == 1),
        ("(q/r) = -1", _symbol_is(q, r, -1)),
    )
    return HypothesisReport(T1, (p, q, r), checks)


def hypotheses_t2(p: int, q: int, r: int) -> HypothesisReport:
    """p = q = 3 mod 4, r = 1 mod 8 distinct primes, (p/r) = 1, (q/r) = -1."""
    checks = (
        ("p, q, r are distinct primes", _distinct_primes(p, q, r)),
        ("p = 3 mod 4", p % 4 == 3),
        ("q = 3 mod 4", q % 4 == 3),
        ("r = 1 mod 8", r % 8 == 1),
        ("(p/r) = 1", _symbol_is(p, r, 1)),
        ("(q/r) = -1", _symbol_is(q, r, -1)),
    )
    return HypothesisReport(T2, (p, q, r), checks)


def hypotheses_t3(p: int, q: int) -> HypothesisReport:
    """p = q = 1 mod 4 distinct primes with (p/q) = -1."""
    checks = (
        ("p, q are distinct primes", _distinct_primes(p, q)),
        ("p = 1 mod 4", p % 4 == 1),
        ("q = 1 mod 4", q % 4 == 1),
        ("(p/q) = -1", _symbol_is(p, q, -1)),
    )
    return HypothesisReport(T3, (p, q), checks)


def check_hypotheses(theorem: str, triple: tuple[int, ...]) -> HypothesisReport:
    """Dispatch to the theorem's hypothesis checker; validates arity."""
    if theorem == T1:
        p, q, r = triple
        return hypotheses_t1(p, q, r)
    if theorem == T2:
        p, q, r = triple
        return hypotheses_t2(p, q, r)
    if theorem == T3:
        p, q = triple
        return hypotheses_t3(p, q)
    raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")


class TheoremReport(Record):
    """Verification record for one theorem instance.

    `field_report` is None exactly when the hypotheses failed.
    `claim_matches` mirrors po_order == 2 whenever the field was computed.
    `anomalies` lists every proof-asserted intermediate that computed
    differently; the report never raises for those.
    """

    __slots__ = ("theorem", "triple", "hypotheses", "field_report", "epsilon_witness",
                 "epsilon_in_allowed_set", "claim_matches", "anomalies")

    def __init__(self, theorem: str, triple: tuple[int, ...], hypotheses: HypothesisReport,
                 field_report: PolyaReport | None, epsilon_witness: UnitSplit | None,
                 epsilon_in_allowed_set: bool | None, claim_matches: bool | None,
                 anomalies: tuple[str, ...]) -> None:
        set_field(self, "theorem", theorem)
        set_field(self, "triple", triple)
        set_field(self, "hypotheses", hypotheses)
        set_field(self, "field_report", field_report)
        set_field(self, "epsilon_witness", epsilon_witness)
        set_field(self, "epsilon_in_allowed_set", epsilon_in_allowed_set)
        set_field(self, "claim_matches", claim_matches)
        set_field(self, "anomalies", anomalies)
        if field_report is not None:
            if claim_matches != (field_report.po_order == 2):
                raise ValueError("claim_matches must mirror po_order == 2")
        elif claim_matches is not None:
            raise ValueError("claim_matches requires a field report")


def _theorem_field(theorem: str, triple: tuple[int, ...]) -> BiquadraticField:
    """The theorem's field, built from the primes of a triple that satisfies
    its hypotheses, with no factoring."""
    if theorem == T3:
        p, q = triple
        return BiquadraticField(2, p * q, (2, *sorted(triple)))
    p, q, r = triple
    return BiquadraticField(p, q * r, tuple(sorted(triple)))


def _allowed_epsilons(field: BiquadraticField) -> frozenset[int]:
    # the proofs' exhaustive epsilon case lists for the norm +1 unit split:
    # {1, 2, pq, 2pq} for T3 and {1, p, qr, pqr} for T1/T2
    return frozenset((1, field.m, field.n, field.m * field.n))


def _asserted_unit_norms(theorem: str, field: BiquadraticField
                         ) -> tuple[tuple[str, int, int], ...]:
    """(label, asserted norm, kernel) for the proofs' unit-norm steps."""
    return (
        (f"unit norm of Q(sqrt({field.m})) behind the a1 step",
         -1 if theorem == T3 else 1, field.m),
        (f"unit norm of Q(sqrt({field.n})) behind the a2 step", -1, field.n),
    )


def verify_theorem(theorem: str, triple: tuple[int, ...]) -> TheoremReport:
    """Full verification of one theorem instance.

    When the hypotheses fail the report stops there, before any field is
    built.  The epsilon witness is taken from the largest kernel when its
    unit has norm +1; for T3 the odd kernel pq is consulted as a fallback.
    """
    triple = tuple(triple)
    hyp = check_hypotheses(theorem, triple)
    if not hyp.ok:
        return TheoremReport(theorem, triple, hyp, None, None, None, None, ())
    field = _theorem_field(theorem, triple)
    report = polya_report(field)
    norms = dict(zip(field.deltas, report.unit_norms))
    anomalies: list[str] = []
    for label, asserted, kernel in _asserted_unit_norms(theorem, field):
        computed = norms[kernel]
        if computed != asserted:
            anomalies.append(f"{label}: asserted {asserted}, computed {computed}")
    witness = None
    in_set = None
    _, second, third = field.deltas
    kernels = (third, second) if theorem == T3 else (third,)
    for kernel in kernels:
        if norms[kernel] == 1:
            witness = epsilon_decomposition(kernel)
            allowed = _allowed_epsilons(field)
            in_set = witness.epsilon in allowed
            if not in_set:
                anomalies.append(
                    f"epsilon {witness.epsilon} of kernel {kernel} outside "
                    f"allowed set {sorted(allowed)}")
            break
    return TheoremReport(theorem, triple, hyp, report, witness, in_set,
                         report.po_order == 2, tuple(anomalies))


def admissible_triples(theorem: str, bound: int) -> tuple[tuple[int, ...], ...]:
    """All triples satisfying the theorem's hypotheses with max prime <= bound,
    in lexicographic order.  Only primes of the residue classes in the module
    docstring are combined, each class sorted, and the Jacobi conditions
    decide the rest; they force distinct primes, as (a/a) = 0 and T2's
    (p/r) != (q/r).
    """
    if bound < 3:
        raise ValueError("bound must be at least 3")
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}")
    primes = sieve_primes(bound)
    if theorem == T3:
        one_mod_4 = [p for p in primes if p % 4 == 1]
        return tuple((p, q) for p in one_mod_4 for q in one_mod_4 if jacobi(p, q) == -1)
    three_mod_4 = [p for p in primes if p % 4 == 3]
    one_mod_8 = [r for r in primes if r % 8 == 1]
    if theorem == T1:
        return tuple((p, q, r) for p in three_mod_4 for q in one_mod_8 for r in one_mod_8
                     if jacobi(q, r) == -1)
    return tuple((p, q, r) for p in three_mod_4 for q in three_mod_4 for r in one_mod_8
                 if jacobi(p, r) == 1 and jacobi(q, r) == -1)


def scan(theorem: str, bound: int) -> tuple[TheoremReport, ...]:
    """Verify every admissible triple with max prime <= bound, in order."""
    return tuple(verify_theorem(theorem, triple)
                 for triple in admissible_triples(theorem, bound))


def smallest_admissible(theorem: str, count: int) -> tuple[tuple[int, ...], ...]:
    """The `count` smallest admissible triples, ordered by largest prime and
    then lexicographically."""
    if count < 1:
        raise ValueError("count must be positive")
    bound = 64
    while True:
        triples = sorted(admissible_triples(theorem, bound),
                         key=lambda t: (max(t), t))
        if len(triples) >= count:
            return tuple(triples[:count])
        bound *= 2


def verify_table() -> tuple[TheoremReport, ...]:
    """Reproduce the published 20-row table of T3 fields Q(sqrt(2), sqrt(pq))."""
    return tuple(verify_theorem(T3, (p, q)) for _, p, q in TABLE_ROWS)


class ContrastReport(Record):
    """Report for the contrasting family Q(sqrt(p), sqrt(qr)) with p = q = 3
    mod 4 and r = 5 mod 8, expected to be Polya (order 1)."""

    __slots__ = ("triple", "field_report", "matches", "anomalies")

    def __init__(self, triple: tuple[int, int, int], field_report: PolyaReport,
                 matches: bool, anomalies: tuple[str, ...]) -> None:
        set_field(self, "triple", triple)
        set_field(self, "field_report", field_report)
        set_field(self, "matches", matches)
        set_field(self, "anomalies", anomalies)


def contrast_rajaei(p: int, q: int, r: int) -> ContrastReport:
    """Check the contrasting claim: Q(sqrt(p), sqrt(qr)) is Polya when
    p = q = 3 mod 4 and r = 5 mod 8 are distinct primes.

    Raises ValueError when the stated congruences fail; a Polya-order mismatch
    is recorded as an anomaly, not an exception.
    """
    if not _distinct_primes(p, q, r):
        raise ValueError("p, q, r must be distinct primes")
    if p % 4 != 3 or q % 4 != 3 or r % 8 != 5:
        raise ValueError("requires p = q = 3 mod 4 and r = 5 mod 8")
    report = polya_report(biquadratic_field(p, q * r))
    matches = report.po_order == 1
    anomalies = () if matches else (
        f"expected Polya order 1, computed {report.po_order}",)
    return ContrastReport((p, q, r), report, matches, anomalies)


def pollack_search(r: int) -> tuple[int, int]:
    """Smallest primes p = 3 mod 4 and q = 1 mod 4 below r with
    (p/r) = (q/r) = -1.

    Such a pair exists for every prime r >= 13; absence would contradict the
    guarantee and raises RuntimeError for investigation.  Odd candidates are
    tested in increasing order until both classes are found, so the work
    follows the answer, not r.
    """
    if not is_prime(r) or r < 13:
        raise ValueError("requires a prime r >= 13")
    found: dict[int, int] = {}
    for v in range(3, r, 2):
        if v % 4 not in found and jacobi(v, r) == -1 and is_prime(v):
            found[v % 4] = v
            if len(found) == 2:
                return found[3], found[1]
    raise RuntimeError(f"no qualifying pair below r={r}; requires investigation")
