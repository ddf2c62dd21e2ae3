"""Traced replay of a workload, bottom-up through polya's public functions.

Each item (a theorem-scan row, an analyzed field, a classified radicand) is
replayed layer by layer: arith, then quadratic and sqclass, then biquad,
then verify, then the cli payload, and each command ends with one cli
`_emit`.  Every call is a span.  Because `fundamental_unit` is cached, an
upper call finds the units its children computed, so its span approximates
its own time; calls that the program does not cache (`factor`,
`epsilon_decomposition`) are repeated inside the upper spans.

Spans are kept in memory as [name, start, end, parent, item] and written as
JSON lines to the trace file when the replay ends.

After the workload, a separate replay of PROBE calls every layer once.  A
layer that the workload never calls is timed on the probe instead, so that
no per-layer time reads 0 whatever the workload.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import time
from collections import defaultdict

from polya import arith, biquad, cli, quadratic, sqclass, verify

ANALYZE_COLUMNS = ("m", "n", "deltas", "ramification", "product_e", "h_generators",
                   "h_order", "index_factor", "h1_order", "po_order", "po_structure",
                   "unit_norms", "polya")
CLASSIFY_COLUMNS = ("d", "zantema", "case", "oracle", "agreement", "unit")
# Small commands that between them call every layer the benchmark times.
PROBE = (("theorem-scan", ["scan", "T3", "13", "--format", "json"]),
         ("quadratic-sweep", ["classify-quadratic", "7", "--format", "json"]))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def open(self, name: str, item: str | None = None) -> None:
        parent = self.stack[-1] if self.stack else -1
        if item is None and parent >= 0:
            item = self.spans[parent][4]
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), None, parent, item])

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def call(self, name: str, fn, *args):
        self.open(name)
        try:
            return fn(*args)
        finally:
            self.close()


class Replay:
    def __init__(self) -> None:
        self.t = Tracer()
        self.seen: set[int] = set()
        self.counts = {"cf_steps": 0, "unit_bits": 0, "admitted": 0, "examined": 0}
        self.out = io.StringIO()

    # -- layers shared by the workloads ------------------------------------

    def quadratic(self, d: int, with_a_value: bool = True):
        t = self.t
        if d not in self.seen:
            cf = t.call("quadratic.cf_expand", quadratic.cf_expand, d)
            self.counts["cf_steps"] += cf.period_length
        unit = t.call("quadratic.fundamental_unit", quadratic.fundamental_unit, d)
        if d not in self.seen:
            self.seen.add(d)
            self.counts["unit_bits"] += unit.z.bit_length()
        if unit.norm == 1:
            t.call("quadratic.epsilon_decomposition", quadratic.epsilon_decomposition, d)
        if with_a_value:
            return t.call("quadratic.a_value", quadratic.a_value, d)
        return None

    def field(self, m: int, n: int):
        """arith -> quadratic/sqclass -> biquad for Q(sqrt(m), sqrt(n)), m, n > 0."""
        t = self.t
        t.call("arith.factor", arith.factor, m)
        t.call("arith.factor", arith.factor, n)
        mn = t.call("arith.factor", arith.factor, m * n)
        third = math.prod(p for p, e in mn.factors if e % 2)
        deltas = sorted({m, n, third})
        a_values = [self.quadratic(d) for d in deltas]
        classes = [t.call("sqclass.class_of", sqclass.class_of, d) for d in deltas]
        t.call("sqclass.span", sqclass.span, classes + a_values)
        field = t.call("biquad.field", biquad.biquadratic_field, m, n)
        t.call("biquad.ramification", biquad.ramification, field)
        t.call("biquad.h_generators", biquad.h_generators, field)
        t.call("biquad.h1_order", biquad.h1_order, field)
        return t.call("biquad.polya_report", biquad.polya_report, field), mn

    def emit(self, payloads, columns, lines) -> None:
        real = sys.stdout
        sys.stdout = self.out
        try:
            self.t.call("cli.emit", cli._emit, "json", None, payloads, columns, lines)
        finally:
            sys.stdout = real

    def item(self, name: str, fn, *args):
        self.t.open("item", name)
        try:
            return fn(*args)
        except Exception:  # the same failure ends the command in the CLI
            return None
        finally:
            self.t.close()

    # -- workloads ---------------------------------------------------------

    def theorem_row(self, theorem: str, triple: tuple[int, ...]):
        t = self.t
        for p in triple:
            t.call("arith.is_prime", arith.is_prime, p)
        if theorem == verify.T3:
            m, n = 2, triple[0] * triple[1]
        else:
            m, n = triple[0], triple[1] * triple[2]
        self.field(m, n)
        report = t.call("verify.verify_theorem", verify.verify_theorem, theorem, triple)
        t.open("cli.payload")
        try:
            payload = cli._theorem_payload(report)
            cli._theorem_row(report)
            lines = cli._theorem_text(report)
        finally:
            t.close()
        return payload, lines

    def theorem_command(self, argv: list[str]) -> None:
        if argv[0] == "scan":
            theorem, bound = argv[1].upper(), int(argv[2])
            triples = self.t.call("verify.admissible_triples", verify.admissible_triples,
                                  theorem, bound)
            k = len(arith.sieve_primes(bound))
            self.counts["admitted"] += len(triples)
            self.counts["examined"] += k * (k - 1) * (1 if theorem == verify.T3 else k - 2)
        else:
            theorem, triples = verify.T3, [row[1:] for row in verify.TABLE_ROWS]
        payloads, lines = [], []
        for triple in triples:
            row = self.item(f"{theorem}:{','.join(map(str, triple))}",
                            self.theorem_row, theorem, tuple(triple))
            if row is not None:
                payloads.append(row[0])
                lines.extend(row[1])
        self.emit(payloads, cli._THEOREM_COLUMNS, lines)

    def analyze(self, m: int, n: int) -> None:
        t = self.t
        report, mn = self.field(m, n)
        for p in mn.primes():
            t.call("arith.is_prime", arith.is_prime, p)
        t.open("cli.payload")
        try:
            payload = cli._field_payload(report)
            lines = cli._field_text(report)
        finally:
            t.close()
        self.emit([payload], ANALYZE_COLUMNS, lines)

    def classify(self, d: int) -> None:
        t = self.t
        t.call("arith.factor", arith.factor, d)
        t.call("arith.is_prime", arith.is_prime, d)
        self.quadratic(d, with_a_value=False)
        verdict = t.call("quadratic.zantema", quadratic.zantema_classify, d)
        oracle = t.call("quadratic.oracle", quadratic.quadratic_polya_oracle, d)
        t.open("cli.payload")
        try:
            payload = {"d": d, "zantema": verdict.verdict, "case": verdict.case,
                       "oracle": oracle, "agreement": verdict.verdict == oracle,
                       "unit": cli._unit_payload(d)}
            case = f" ({verdict.case})" if verdict.case is not None else ""
            lines = [f"zantema: {verdict.verdict}{case}", f"oracle: {oracle}",
                     f"unit: {cli._unit_text(d)}"]
        finally:
            t.close()
        self.emit([payload], CLASSIFY_COLUMNS, lines)

    def command(self, workload: str, index: int, argv: list[str]) -> None:
        self.t.open("command", f"cmd{index}")
        try:
            if workload == "theorem-scan":
                self.theorem_command(argv)
            elif workload == "large-fields":
                self.item(f"{argv[1]},{argv[2]}", self.analyze, int(argv[1]), int(argv[2]))
            elif workload == "quadratic-sweep":
                self.item(argv[1], self.classify, int(argv[1]))
            else:
                raise ValueError(f"unknown workload {workload!r}")
        finally:
            self.t.close()


def _totals(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for name, begin, end, _, _ in spans:
        totals[name] += end - begin
    return dict(totals)


def run(workload: str, commands: list[list[str]], trace_path: str) -> dict:
    """Replay every command, then the probe; write the workload's spans to
    `trace_path`; return totals, with the unit-cache counters read before
    the probe."""
    replay = Replay()
    start = time.perf_counter()
    for index, argv in enumerate(commands):
        replay.command(workload, index, argv)
    traced_s = time.perf_counter() - start
    info = quadratic.fundamental_unit.cache_info()
    probe = Replay()
    for index, (name, argv) in enumerate(PROBE):
        probe.command(name, index, argv)
    with open(trace_path, "w", encoding="utf-8") as fh:
        for name, begin, end, parent, item in replay.t.spans:
            fh.write(json.dumps([name, begin - start, end - start, parent, item]) + "\n")
    return {"traced_s": traced_s, "seconds": _totals(replay.t.spans),
            "spans": len(replay.t.spans), "counts": replay.counts,
            "probe_seconds": _totals(probe.t.spans), "probe_counts": probe.counts,
            "cache": {"hits": info.hits, "misses": info.misses, "size": info.currsize},
            "stdout_sha256": hashlib.sha256(replay.out.getvalue().encode()).hexdigest()}
