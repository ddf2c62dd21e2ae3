"""Theorem-level verification harnesses.

Each theorem names a family of totally real bi-quadratic fields and claims a
Polya group of order 2.  Each is declared once, in `FAMILIES`, and the checks
below read their hypotheses, triples, fields and proof steps from it:

    T1: Q(sqrt(p), sqrt(qr)), p = 3 mod 4, q = r = 1 mod 8, (q/r) = -1
    T2: Q(sqrt(p), sqrt(qr)), p = q = 3 mod 4, r = 1 mod 8, (p/r) = 1, (q/r) = -1
    T3: Q(sqrt(2), sqrt(pq)), p = q = 1 mod 4, (p/q) = -1

A report recomputes everything the corresponding proof asserts along the way
(unit norms behind the a-class steps, the epsilon decomposition of a norm +1
unit, membership of epsilon in the allowed set) and records divergences as
anomalies instead of failing, so a wrong intermediate step is visible even
when the headline Polya order still comes out as claimed.  A field is built
only once its hypotheses hold, and then from the primes of its triple, so
nothing about it is factored; a contrast field is built the same way.  Unit
norms are read from the field's Polya report, which takes them from the
continued-fraction period parity, and an epsilon witness is read off half
the period of its kernel, so no fundamental unit is built.
"""

from __future__ import annotations

import math
from itertools import product

from .arith import is_prime, jacobi, sieve_primes
from .biquad import BiquadraticField, polya_report
from .quadratic import epsilon_decomposition
from .record import Record

T1 = "T1"
T2 = "T2"
T3 = "T3"

# Reproduction targets: the twenty published example rows (2, p, q), each a
# field Q(sqrt(2), sqrt(pq)) asserted to satisfy the T3 hypotheses.
TABLE_ROWS: tuple[tuple[int, int, int], ...] = (
    (2, 5, 17), (2, 5, 37), (2, 5, 97), (2, 5, 173), (2, 5, 193),
    (2, 13, 37), (2, 13, 73), (2, 13, 89), (2, 13, 97), (2, 13, 109),
    (2, 13, 193), (2, 13, 197), (2, 17, 5), (2, 17, 29), (2, 17, 37),
    (2, 17, 61), (2, 17, 197), (2, 29, 17), (2, 29, 61), (2, 29, 89),
)


class Family(Record):
    """One theorem's statement: distinct `primes`, each (letter, modulus,
    residue), with a Jacobi symbol (a/b) = value for each (a, b, value) in
    `symbols`; its field Q(sqrt(m), sqrt(n)), with `field` the two words that
    spell m and n in the letters and 2, ("p", "qr") for m = p and n = q*r; and
    `norms`, the unit norms its proof asserts for Q(sqrt(m)) and Q(sqrt(n))."""

    __slots__ = ("primes", "symbols", "field", "norms")

    @property
    def conditions(self) -> tuple[str, tuple[tuple[str, int, int], ...],
                                  tuple[tuple[str, int, int, int], ...]]:
        """The labelled conditions, in order: distinct primes, (label, modulus,
        residue) per prime and (label, i, j, value) per symbol (a_i/a_j)."""
        letters = "".join(x for x, _, _ in self.primes)
        return (f"{', '.join(letters)} are distinct primes",
                tuple((f"{x} = {r} mod {m}", m, r) for x, m, r in self.primes),
                tuple((f"({a}/{b}) = {v}", letters.index(a), letters.index(b), v)
                      for a, b, v in self.symbols))


# The statements in the module docstring, one declaration each, as (primes,
# symbols, field, norms).  Every field is positional, so importing loads no
# inspect.
FAMILIES = {
    T1: Family((("p", 4, 3), ("q", 8, 1), ("r", 8, 1)), (("q", "r", -1),), ("p", "qr"),
               (1, -1)),
    T2: Family((("p", 4, 3), ("q", 4, 3), ("r", 8, 1)), (("p", "r", 1), ("q", "r", -1)),
               ("p", "qr"), (1, -1)),
    T3: Family((("p", 4, 1), ("q", 4, 1)), (("p", "q", -1),), ("2", "pq"), (-1, -1)),
}

THEOREMS = tuple(FAMILIES)

# Each family's conditions, derived once from its declaration.
_CONDITIONS = {name: family.conditions for name, family in FAMILIES.items()}


def _conditions(theorem: str) -> tuple[str, tuple[tuple[str, int, int], ...],
                                       tuple[tuple[str, int, int, int], ...]]:
    try:
        return _CONDITIONS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem {theorem!r}; expected one of {THEOREMS}") from None


def _distinct_primes(*values: int) -> bool:
    return len(set(values)) == len(values) and all(is_prime(v) for v in values)


def _symbol_is(a: int, n: int, want: int) -> bool:
    # jacobi needs an odd positive modulus; a failed earlier check must not crash here
    return n > 2 and n % 2 == 1 and jacobi(a, n) == want


def check_hypotheses(theorem: str, triple: tuple[int, ...]) -> tuple[tuple[str, bool], ...]:
    """Check a triple against the theorem's declaration: one (label, verdict)
    pair per condition, in order: distinct primes, each residue class, each
    symbol.  The triple satisfies the hypotheses when every verdict is true;
    the labels name the conditions that broke."""
    distinct, residues, symbols = _conditions(theorem)
    if len(triple) != len(residues):
        raise ValueError(f"{theorem.lower()} takes {len(residues)} primes, got {len(triple)}")
    checks = [(distinct, _distinct_primes(*triple))]
    for v, (label, m, r) in zip(triple, residues):
        checks.append((label, v % m == r))
    for label, i, j, want in symbols:
        checks.append((label, _symbol_is(triple[i], triple[j], want)))
    return tuple(checks)


class TheoremReport(Record):
    """Verification record for one theorem instance.

    `hypothesis_checks` holds the (label, verdict) pairs of
    `check_hypotheses`, and `field_report` is None exactly when one of them
    failed.  `claim_matches` mirrors po_order == 2 whenever the field was
    computed.  `anomalies` lists every proof-asserted intermediate that
    computed differently; the report never raises for those.
    """

    __slots__ = ("theorem", "triple", "hypothesis_checks", "field_report", "epsilon_witness",
                 "epsilon_in_allowed_set", "claim_matches", "anomalies")

    def _check(self) -> None:
        if self.field_report is not None:
            if self.claim_matches != (self.field_report.po_order == 2):
                raise ValueError("claim_matches must mirror po_order == 2")
        elif self.claim_matches is not None:
            raise ValueError("claim_matches requires a field report")
        if (self.field_report is None) == self.hypotheses_ok:
            raise ValueError("field_report must be None exactly when the hypotheses failed")

    @property
    def hypotheses_ok(self) -> bool:
        """Whether every hypothesis check holds."""
        return all(ok for _, ok in self.hypothesis_checks)


def _theorem_field(theorem: str, triple: tuple[int, ...]) -> BiquadraticField:
    """The theorem's field, built from the primes of a triple that satisfies
    its hypotheses, with no factoring: m and n are its words multiplied out."""
    family = FAMILIES[theorem]
    value = dict(zip("2" + "".join(x for x, _, _ in family.primes), (2, *triple)))
    m, n = (math.prod(value[x] for x in word) for word in family.field)
    primes = tuple(sorted(triple))
    return BiquadraticField(m, n, (2, *primes) if (m * n) % 2 == 0 else primes)


def verify_theorem(theorem: str, triple: tuple[int, ...]) -> TheoremReport:
    """Full verification of one theorem instance.

    When the hypotheses fail the report stops there, before any field is
    built.  The epsilon witness is the largest kernel whose unit has norm +1,
    else the middle one; in T1 and T2 it is pqr, as p = 3 mod 4 divides it.
    """
    triple = tuple(triple)
    checks = check_hypotheses(theorem, triple)
    if not all(ok for _, ok in checks):
        return TheoremReport(theorem, triple, checks, None, None, None, None, ())
    field = _theorem_field(theorem, triple)
    report = polya_report(field)
    norms = dict(zip(field.deltas, report.unit_norms))
    anomalies: list[str] = []
    for step, kernel, asserted in zip(("a1", "a2"), (field.m, field.n),
                                      FAMILIES[theorem].norms):
        if norms[kernel] != asserted:
            anomalies.append(f"unit norm of Q(sqrt({kernel})) behind the {step} step: "
                             f"asserted {asserted}, computed {norms[kernel]}")
    witness = in_set = None
    # the proofs' exhaustive epsilon cases: {1, p, qr, pqr} or {1, 2, pq, 2pq}
    allowed = frozenset((1, field.m, field.n, field.m * field.n))
    _, second, third = field.deltas
    for kernel in (third, second):
        if norms[kernel] == 1:
            witness = epsilon_decomposition(kernel)
            in_set = witness.epsilon in allowed
            if not in_set:
                anomalies.append(
                    f"epsilon {witness.epsilon} of kernel {kernel} outside "
                    f"allowed set {sorted(allowed)}")
            break
    return TheoremReport(theorem, triple, checks, report, witness, in_set,
                         report.po_order == 2, tuple(anomalies))


# The largest bound `admissible_triples` accepts.  Its sieve up to 10**6
# peaks at about 4 MB (a 1 MB bytearray and 78,498 primes) and takes under
# 0.1 s; one up to 10**12 would ask for a terabyte and raise MemoryError.
MAX_BOUND = 10 ** 6


def admissible_triples(theorem: str, bound: int) -> tuple[tuple[int, ...], ...]:
    """All triples satisfying the theorem's hypotheses with max prime <= bound,
    in lexicographic order: the product of the sorted residue classes, kept
    where each symbol, computed once per pair of primes, holds and the primes
    are distinct.  Raises ValueError for a bound below 3 or above `MAX_BOUND`.
    """
    if bound < 3:
        raise ValueError("bound must be at least 3")
    if bound > MAX_BOUND:
        raise ValueError(f"bound must be at most {MAX_BOUND}")
    _, residues, symbols = _conditions(theorem)
    primes = sieve_primes(bound)
    classes = [[v for v in primes if v % m == r] for _, m, r in residues]
    found = product(*classes)
    for _, i, j, want in symbols:
        pairs = {(a, b) for a in classes[i] for b in classes[j] if _symbol_is(a, b, want)}
        found = [t for t in found if (t[i], t[j]) in pairs]
    return tuple(t for t in found if len(set(t)) == len(t))


def scan(theorem: str, bound: int) -> tuple[TheoremReport, ...]:
    """Verify every admissible triple with max prime <= bound, in order."""
    return tuple(verify_theorem(theorem, triple)
                 for triple in admissible_triples(theorem, bound))


def verify_table() -> tuple[TheoremReport, ...]:
    """Reproduce the published 20-row table of T3 fields Q(sqrt(2), sqrt(pq))."""
    return tuple(verify_theorem(T3, (p, q)) for _, p, q in TABLE_ROWS)


class ContrastReport(Record):
    """Report for the contrasting family Q(sqrt(p), sqrt(qr)) with p = q = 3
    mod 4 and r = 5 mod 8, expected to be Polya (order 1)."""

    __slots__ = ("triple", "field_report", "matches", "anomalies")


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
    # the triple's primes are known: build the field from them, like
    # `_theorem_field`, and let its check prove them
    report = polya_report(BiquadraticField(p, q * r, tuple(sorted((p, q, r)))))
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
