"""Correctness checks on the `polya` output, each on a route independent of
the one that produced it.

`check(workload, argv, stdout, context)` returns the number of items the
output got right and a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
from functools import lru_cache

from workloads import prime_factors


def _is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def _legendre(a: int, p: int) -> int:
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def hypotheses_hold(theorem: str, triple: tuple[int, ...]) -> bool:
    """The theorem's hypotheses, by trial division and Euler's criterion."""
    if len(set(triple)) != len(triple) or not all(_is_prime(v) for v in triple):
        return False
    if theorem == "T3":
        p, q = triple
        return p % 4 == 1 and q % 4 == 1 and _legendre(p, q) == -1
    p, q, r = triple
    if theorem == "T1":
        return p % 4 == 3 and q % 8 == 1 and r % 8 == 1 and _legendre(q, r) == -1
    return (p % 4 == 3 and q % 4 == 3 and r % 8 == 1
            and _legendre(p, r) == 1 and _legendre(q, r) == -1)


@lru_cache(maxsize=None)
def expected_triples(theorem: str, bound: int) -> tuple[tuple[int, ...], ...]:
    """Every triple with max prime <= bound that satisfies the hypotheses,
    in lexicographic order."""
    primes = [p for p in range(2, bound + 1) if _is_prime(p)]
    if theorem == "T3":
        return tuple((p, q) for p in primes for q in primes if hypotheses_hold("T3", (p, q)))
    return tuple((p, q, r) for p in primes if p % 4 == 3 for q in primes for r in primes
                 if hypotheses_hold(theorem, (p, q, r)))


def _check_theorem(argv: list[str], stdout: str) -> tuple[int, list[str]]:
    rows = [json.loads(line) for line in stdout.splitlines()]
    problems = []
    ok = 0
    for row in rows:
        triple = tuple(row["triple"])
        field = row["field_report"]
        bad = []
        if not (row["hypotheses_ok"] and hypotheses_hold(row["theorem"], triple)):
            bad.append("hypotheses do not hold")
        if field is None:
            bad.append("no field report")
        elif field["po_order"] * field["h1_order"] != field["product_e"]:
            bad.append("po_order * h1_order != product_e")
        elif row["claim_matches"] != (field["po_order"] == 2):
            bad.append("claim_matches disagrees with po_order")
        elif argv[0] == "table" and field["po_order"] != 2:
            bad.append(f"table row has po_order {field['po_order']}")
        if bad:
            problems.append(f"{row['theorem']} {triple}: {'; '.join(bad)}")
        else:
            ok += 1
    if argv[0] == "scan":
        got = tuple(tuple(row["triple"]) for row in rows)
        if got != expected_triples(argv[1].upper(), int(argv[2])):
            problems.append(f"scan {argv[1]} {argv[2]} does not list exactly the admissible triples")
    elif len(rows) != 20:
        problems.append(f"table has {len(rows)} rows, not 20")
    return ok, problems


def _ramification_product(a: int, b: int, c: int) -> int:
    kernels = (a * c, b * c, a * b)
    odd = {p for v in (a, b, c) for p in prime_factors(v)} - {2}
    product = 2 ** len(odd)
    if any(k % 4 != 1 for k in kernels):
        product *= 4 if all(k % 4 != 1 for k in kernels) else 2
    return product


def _check_field(argv: list[str], stdout: str, triple: tuple[int, int, int]
                 ) -> tuple[int, list[str]]:
    from polya.biquad import OUTSIDE_PROPOSITION, leriche_classify
    from polya.quadratic import POLYA
    a, b, c = triple
    m, n = int(argv[1]), int(argv[2])
    row = json.loads(stdout)
    bad = []
    if (row["m"], row["n"]) != (m, n) or sorted(row["deltas"]) != sorted((a * c, b * c, a * b)):
        bad.append("wrong field or kernels")
    if row["product_e"] != _ramification_product(a, b, c):
        bad.append("product of ramification indices is wrong")
    if row["po_order"] * row["h1_order"] != row["product_e"]:
        bad.append("po_order * h1_order != product_e")
    if row["h1_order"] != row["h_order"] * row["index_factor"]:
        bad.append("h1_order != h_order * index_factor")
    if row["polya"] != (row["po_order"] == 1):
        bad.append("polya flag disagrees with po_order")
    verdict = leriche_classify(m, n)
    if verdict.verdict != OUTSIDE_PROPOSITION and (verdict.verdict == POLYA) != row["polya"]:
        bad.append(f"leriche_classify says {verdict.verdict} ({verdict.rule})")
    return (0, [f"analyze {m} {n}: {'; '.join(bad)}"]) if bad else (1, [])


def _check_quadratic(argv: list[str], stdout: str) -> tuple[int, list[str]]:
    d = int(argv[1])
    row = json.loads(stdout)
    unit = row["unit"]
    bad = []
    if row["d"] != d or unit["d"] != d:
        bad.append("wrong radicand")
    if not row["agreement"] or row["zantema"] != row["oracle"]:
        bad.append("classification and oracle disagree")
    z, t = int(unit["z"]), int(unit["t"])
    if z < 1 or t < 1 or unit["denom"] not in (1, 2) or unit["norm"] not in (1, -1):
        bad.append("malformed unit")
    elif z * z - d * t * t != unit["norm"] * unit["denom"] ** 2:
        bad.append("printed unit fails z^2 - d*t^2 = norm*denom^2")
    return (0, [f"classify-quadratic {d}: {'; '.join(bad)}"]) if bad else (1, [])


def check(workload: str, argv: list[str], stdout: str, context: dict
          ) -> tuple[int, list[str]]:
    try:
        if workload == "theorem-scan":
            return _check_theorem(argv, stdout)
        if workload == "large-fields":
            return _check_field(argv, stdout, context["fields"][tuple(argv[1:3])])
        return _check_quadratic(argv, stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return 0, [f"{' '.join(argv)}: unreadable output ({type(exc).__name__}: {exc})"]
