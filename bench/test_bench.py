"""Tests of the benchmark itself: `python3 -m pytest bench`.

They run short prefixes of each workload, so they take about a minute.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from polya.arith import squarefree_part  # noqa: E402
from polya.quadratic import cf_expand, fundamental_unit  # noqa: E402

EXACT_COUNTERS = ("quadratic.cf_steps", "quadratic.unit_bits", "quadratic.unit_cache_hits",
                  "quadratic.unit_cache_misses", "quadratic.unit_cache_size",
                  "verify.admissible_yield", "cli.bytes_out", "trace.spans")


def test_period_length_matches_cf_expand():
    for d in range(2, 3000):
        if int(d ** 0.5) ** 2 == d:
            continue
        length = cf_expand(d).period_length
        assert workloads.period_length(d) == length, d
        assert workloads.period_length(d, length) == length, d
        if length > 1:
            assert workloads.period_length(d, length - 1) is None, d


def test_is_squarefree_matches_polya():
    for n in list(range(1, 5000)) + [999_999_937, 999_950_884, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19]:
        assert workloads.is_squarefree(n) == (squarefree_part(n) == n), n


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload):
    first, second = workloads.make(workload, 7), workloads.make(workload, 7)
    assert first == second
    other = workloads.make(workload, 8)[0]
    assert (other == first[0]) == (workload == workloads.THEOREM_SCAN)


def test_quadratic_sweep_carries_the_banded_work():
    commands, _ = workloads.make(workloads.QUADRATIC_SWEEP, 3)
    radicands = [int(argv[1]) for argv in commands]
    assert len(set(radicands)) == workloads.RADICAND_COUNT
    assert all(10 ** 2.99 <= d < 10 ** 9 and workloads.is_squarefree(d) for d in radicands)
    lengths = [workloads.period_length(d) for d in radicands]
    lo, hi = workloads.RADICAND_WORK_BAND
    assert lo <= sum(length ** 2 for length in lengths) <= hi
    longs = sum(workloads.long_unit(d, length) for d, length in zip(radicands, lengths))
    assert longs == workloads.RADICAND_LONG_UNITS


def test_unit_size_matches_polya():
    rng = random.Random(5)
    sample = [int(10 ** rng.uniform(3, 9)) for _ in range(400)]
    for d in [d for d in sample if workloads.is_squarefree(d)] + [5, 13, 21, 29, 61, 109]:
        z = fundamental_unit(d).z
        if z.bit_length() < 40:
            continue  # the estimate drops the conjugate, which only matters here
        shift = max(0, z.bit_length() - 53)
        exact = math.log10(z >> shift) + shift * math.log10(2)
        assert abs(workloads.unit_z_log10(d) - exact) < 1e-6, d
        length = workloads.period_length(d)
        assert workloads.long_unit(d, length) == (exact >= workloads.INT_STR_DIGITS), d


def test_large_fields_carry_the_banded_work():
    _, context = workloads.make(workloads.LARGE_FIELDS, 3)
    lo, hi = workloads.FIELD_PERIOD_BAND
    for a, b, c in context["fields"].values():
        for kernel in (a * c, b * c, a * b):
            assert 10 ** 9 <= kernel <= 10 ** 11.01
        assert lo <= workloads.field_work(a, b, c, hi) <= hi


def test_checks_reject_wrong_output():
    triple = (5, 17)
    row = {"theorem": "T3", "triple": list(triple), "hypotheses_ok": True,
           "field_report": {"po_order": 2, "h1_order": 4, "product_e": 8},
           "claim_matches": True}
    assert checks.check("theorem-scan", ["table"], json.dumps(row) + "\n", {})[0] == 1
    bad = dict(row, triple=[5, 29])  # (5/29) = +1, so the T3 hypotheses fail
    assert checks.check("theorem-scan", ["table"], json.dumps(bad) + "\n", {})[1]
    bad = dict(row, field_report={"po_order": 1, "h1_order": 8, "product_e": 8})
    assert checks.check("theorem-scan", ["table"], json.dumps(bad) + "\n", {})[1]
    unit = {"d": 7, "z": "8", "t": "3", "denom": 1, "norm": 1}
    good = {"d": 7, "zantema": "Polya", "oracle": "Polya", "agreement": True, "unit": unit}
    argv = ["classify-quadratic", "7"]
    assert checks.check("quadratic-sweep", argv, json.dumps(good), {}) == (1, [])
    wrong = dict(good, unit=dict(unit, z="9"))
    assert checks.check("quadratic-sweep", argv, json.dumps(wrong), {})[1]


def test_scan_check_needs_every_admissible_triple():
    rows = [{"theorem": "T3", "triple": list(t), "hypotheses_ok": True,
             "field_report": {"po_order": 2, "h1_order": 2, "product_e": 4},
             "claim_matches": True} for t in checks.expected_triples("T3", 30)]
    body = "".join(json.dumps(r) + "\n" for r in rows)
    assert checks.check("theorem-scan", ["scan", "T3", "30"], body, {}) == (len(rows), [])
    short = "".join(json.dumps(r) + "\n" for r in rows[1:])
    assert checks.check("theorem-scan", ["scan", "T3", "30"], short, {})[1]


def _prefix(workload: str, seed: int) -> tuple[list[list[str]], dict]:
    commands, context = workloads.make(workload, seed)
    context["seed"] = seed
    if workload == workloads.THEOREM_SCAN:
        return [c for c in commands if c[:2] != ["scan", "T2"]], context
    return commands[:3 if workload == workloads.LARGE_FIELDS else 300], context


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat_on_the_same_seed(workload):
    commands, context = _prefix(workload, 11)
    deadline = time.perf_counter() + run.DEADLINE_S
    first = run.traced_run(workload, commands, context, deadline)
    second = run.traced_run(workload, commands, context, deadline)
    assert first["correct"] and second["correct"], first["problems"] + second["problems"]
    assert set(first["metrics"]) == set(run._declared_units(1))
    for name in EXACT_COUNTERS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["quadratic.cf_steps"] > 0
    assert first["metrics"]["cli.bytes_out"] > 0
    assert all(value > 0 for name, value in first["metrics"].items()
               if name.endswith("_s")), first["metrics"]


def test_quadratic_sweep_counts_the_int_to_str_failures():
    commands, context = workloads.make(workloads.QUADRATIC_SWEEP, 1)
    big = [c for c in commands if int(c[1]) > 10 ** 8][:60]
    longs = sum(workloads.long_unit(int(c[1]), workloads.period_length(int(c[1]))) for c in big)
    result = run.timed_run(workloads.QUADRATIC_SWEEP, big, dict(context, seed=1), 0,
                           time.perf_counter() + run.DEADLINE_S)
    assert result["correct"], result["problems"]
    # counted once per command, however many passes ran
    assert result["notes"][0].startswith(f"{run.MIN_PASSES} passes")
    assert result["attempted"] == len(big)
    assert 0 < result["failed"] == longs < len(big)
    assert any("4300 digits" in note for note in result["notes"])


def test_refuses_to_run_without_the_program():
    bare = BENCH.parent / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "theorem-scan",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
