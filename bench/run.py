"""The polya benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Workloads (see workloads.py and BENCHMARK.json):

  theorem-scan     scan T1 300, scan T2 300, scan T3 400 and table, all
                   with --format json --jobs 2; the same for every seed
  large-fields     analyze m n --format json on seeded fields whose three
                   kernels lie in 1e9..1e11
  quadratic-sweep  classify-quadratic d --format json on seeded squarefree
                   d, log-uniform in 1e3..1e9

With --trace 0 the run starts a fresh interpreter several times to time
set-up, then runs passes until S seconds of passes have elapsed.  A pass is
one fresh worker interpreter (so `fundamental_unit`'s cache starts empty)
that sends every command of the workload, one after the other, through the
`polya` click entry point.  Outputs are checked on an independent route and
must be byte-identical across passes.  The end-to-end metrics are printed.

With --trace 1 the run makes one such pass and then one traced replay of the
same items through the public functions of each module, in a second fresh
worker, and prints the per-layer metrics plus the tracing overhead.

Human-readable lines come first; the last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Per-command records go to
.bench_out/ in the checkout, spans of a traced run too.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import workloads
from worker import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

SETUP_PROBES = 21
MIN_PASSES = 3
CALIBRATION_REF_S = 0.0025  # worker.calibrate() on the quiet reference machine
CALIBRATION_WINDOW_S = 1.0
DEADLINE_S = 170.0  # a run must end within 180 s
# Settings that would change what the program does or where it comes from.
SCRUBBED_ENV = ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS", "POLYA_FACTOR_BUDGET",
                "POLYA_NORMEQ_BUDGET")
LAYER_SPANS = ("cli.payload", "cli.emit", "verify.admissible_triples",
               "verify.verify_theorem", "biquad.field", "biquad.ramification",
               "biquad.h_generators", "biquad.h1_order", "biquad.polya_report",
               "sqclass.class_of", "sqclass.span", "quadratic.cf_expand",
               "quadratic.fundamental_unit", "quadratic.epsilon_decomposition",
               "quadratic.a_value", "quadratic.zantema", "quadratic.oracle",
               "arith.factor", "arith.is_prime")


class BenchError(RuntimeError):
    pass


def _worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn() -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(ROOT)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT, env=_worker_env())


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    for stream in (proc.stdin, proc.stdout, proc.stderr):
        stream.close()


def setup_seconds() -> float:
    """Cold interpreter start up to a ready `polya.cli`, at reference speed:
    scaled like a command (see `_at_reference_speed`), by the calibration
    loop timed just before and just after the start."""
    before = calibrate()
    start = time.perf_counter()
    proc = _spawn()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate("", timeout=30)
    finally:
        _stop(proc)
    if not line.startswith("ready ") or proc.returncode != 0:
        raise BenchError(f"worker did not start: {err.strip()[-500:]}")
    return elapsed * CALIBRATION_REF_S / ((before + calibrate()) / 2)


def run_worker(job: dict, deadline: float) -> tuple[list[dict], dict]:
    """Run one job in a fresh worker; return its per-command records and summary."""
    proc = _spawn()
    try:
        out, err = proc.communicate(json.dumps(job),
                                    timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("a pass did not finish within the run's time limit") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-500:]}")
    lines = out.rstrip("\n").split("\n")
    records = [json.loads(line) for line in lines[1:-1]]
    return records, json.loads(lines[-1])["summary"]


def check_pass(workload: str, commands, records, context) -> tuple[list[int], list[str]]:
    """Items right per command (0 for a failed command) and any problems."""
    items, problems = [], []
    for argv, record in zip(commands, records):
        if record["code"] != 0:
            items.append(0)
            continue
        ok, found = checks.check(workload, argv, record["stdout"], context)
        items.append(ok)
        problems.extend(found)
    return items, problems


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(record["stdout"].encode())
    return h.hexdigest()


def _at_reference_speed(records: list[dict], samples: list[list[float]]) -> list[float]:
    """Each command's seconds scaled to the reference machine's speed.

    The machine is shared, and its speed drifts by a quarter or more over
    tens of seconds.  The worker times a fixed calibration loop between
    commands; a command is scaled by CALIBRATION_REF_S over the mean of the
    samples within CALIBRATION_WINDOW_S of it, always including the last one
    before and the first one after.  This cancels the drift, while a change
    in the program still shows in full.
    """
    times = [t for t, _ in samples]  # ascending
    scaled = []
    for record in records:
        first = min(bisect.bisect_left(times, record["start"] - CALIBRATION_WINDOW_S),
                    bisect.bisect_right(times, record["start"]) - 1)
        last = max(bisect.bisect_right(times, record["end"] + CALIBRATION_WINDOW_S),
                   bisect.bisect_left(times, record["end"]) + 1)
        near = statistics.mean(c for _, c in samples[first:last])
        scaled.append(record["seconds"] * CALIBRATION_REF_S / near)
    return scaled


def _tail(latencies_ms: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest percentile with at least ten
    commands beyond it, or None when that is below the 90th."""
    n = len(latencies_ms)
    rank = n - 10
    if rank < 0.9 * n or rank < 1:
        return None
    return sorted(latencies_ms)[rank - 1], 100.0 * rank / n, n


def timed_run(workload: str, commands, context, seconds: int, deadline: float) -> dict:
    setup = [setup_seconds() for _ in range(SETUP_PROBES)]
    passes: list[tuple[list[dict], dict]] = []
    measured = pass_s = 0.0
    items_per_command: list[int] = []
    problems: list[str] = []
    while len(passes) < MIN_PASSES or measured + pass_s <= seconds:
        if passes and deadline - time.perf_counter() < 1.5 * pass_s:
            break
        start = time.perf_counter()
        records, summary = run_worker({"mode": "cli", "commands": commands}, deadline)
        pass_s = time.perf_counter() - start
        measured += pass_s
        if not passes:
            items_per_command, problems = check_pass(workload, commands, records, context)
        else:
            first = passes[0][0]
            problems.extend(f"pass {len(passes)}: {' '.join(argv)} differs from pass 0"
                            for argv, a, b in zip(commands, first, records)
                            if (a["code"], a["stdout"]) != (b["code"], b["stdout"]))
        passes.append((records, summary))
    # An operation is one command of the workload; every pass repeats it and
    # must end it the same way, so the counts do not depend on the pass count.
    attempted = len(commands)
    failed = sum(r["code"] != 0 for r in passes[0][0])
    # A command's time is its median over passes at reference speed; a
    # command that failed counts as slower than every success.
    scaled = [_at_reference_speed(recs, summary["calibration"]) for recs, summary in passes]
    times = [statistics.median(column) for column in zip(*scaled)]
    latencies = [t * 1e3 if passes[0][0][i]["code"] == 0 else math.inf
                 for i, t in enumerate(times)]
    p50 = statistics.median(latencies)
    if not math.isfinite(p50):
        raise BenchError("more than half of the commands failed")
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(items_per_command) / sum(times),
        "cmd_p50_ms": p50,
        "peak_rss_mb": statistics.median(s["peak_rss_kb"] for _, s in passes) / 1024,
    }
    tail = _tail(latencies)
    causes = Counter(r["cause"] for r in passes[0][0] if r["code"] != 0)
    notes = [
        f"{len(passes)} passes of {len(commands)} commands, {measured:.2f} s",
        f"failed_frac {failed / attempted!r} ({failed} of {attempted} commands, every pass)",
        ("cmd_tail_ms omitted: fewer than 100 commands" if tail is None else
         f"cmd_tail_ms {tail[0]!r} ms (p{tail[1]:.1f} of n={tail[2]})"
         if math.isfinite(tail[0]) else
         f"cmd_tail_ms unbounded: failed commands reach p{tail[1]:.1f} of n={tail[2]}"),
        f"stdout sha256 {_digest(passes[0][0])}",
        *(f"failure x{count}: {cause}" for cause, count in causes.most_common()),
    ]
    _write_log(workload, context["seed"], 0, commands, passes, metrics, notes, problems)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "notes": notes, "problems": problems}


def traced_run(workload: str, commands, context, deadline: float) -> dict:
    records, summary = run_worker({"mode": "cli", "commands": commands}, deadline)
    _, problems = check_pass(workload, commands, records, context)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{context['seed']}.jsonl"
    _, traced = run_worker({"mode": "replay", "workload": workload, "commands": commands,
                            "trace_path": str(trace_path)}, deadline)
    replay = traced["replay"]
    seconds, counts, cache = replay["seconds"], replay["counts"], replay["cache"]
    untraced_s = sum(r["seconds"] for r in records)
    # A layer the workload never calls is measured on the replay's probe.
    metrics = {f"{name}_s": seconds.get(name) or replay["probe_seconds"][name]
               for name in LAYER_SPANS}
    scans = counts if counts["examined"] else replay["probe_counts"]
    metrics.update({
        "cli.import_s": summary["import_s"],
        "cli.bytes_out": sum(len(r["stdout"].encode()) for r in records),
        "verify.admissible_yield": scans["admitted"] / scans["examined"],
        "quadratic.cf_steps": counts["cf_steps"],
        "quadratic.unit_bits": counts["unit_bits"],
        "quadratic.unit_cache_hits": cache["hits"],
        "quadratic.unit_cache_misses": cache["misses"],
        "quadratic.unit_cache_size": cache["size"],
        "trace.traced_s": replay["traced_s"],
        "trace.untraced_s": untraced_s,
        "trace.overhead_frac": replay["traced_s"] / untraced_s - 1.0,
        "trace.spans": replay["spans"],
    })
    failed = sum(r["code"] != 0 for r in records)
    probed = [name for name in LAYER_SPANS if not seconds.get(name)]
    notes = [f"spans written to {trace_path.relative_to(ROOT)}",
             f"admissible triples {scans['admitted']} of {scans['examined']} examined"
             + ("" if scans is counts else " (probe)"),
             f"timed on the probe: {', '.join(probed) if probed else 'none'}"]
    if replay["stdout_sha256"] != _digest(records):
        notes.append("warning: the replay's emitted output differs from the CLI's")
    _write_log(workload, context["seed"], 1, commands, [(records, summary)], metrics, notes,
               problems)
    return {"correct": not problems, "attempted": len(records), "failed": failed,
            "metrics": metrics, "notes": notes, "problems": problems}


def _write_log(workload, seed, trace, commands, passes, metrics, notes, problems) -> None:
    OUT.mkdir(exist_ok=True)
    log = {"workload": workload, "seed": seed, "trace": trace, "metrics": metrics,
           "notes": notes, "problems": problems,
           "commands": [{"argv": argv,
                         "code": [recs[i]["code"] for recs, _ in passes],
                         "seconds": [recs[i]["seconds"] for recs, _ in passes],
                         "cause": passes[0][0][i]["cause"],
                         "stdout_sha256": hashlib.sha256(
                             passes[0][0][i]["stdout"].encode()).hexdigest()}
                        for i, argv in enumerate(commands)]}
    path = OUT / f"run-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(log, indent=1) + "\n", encoding="utf-8")


def _declared_units(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polya" / "cli.py").is_file():
        print(f"no polya sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    commands, context = workloads.make(args.workload, args.seed)
    context["seed"] = args.seed
    sys.path.insert(0, str(ROOT / "src"))  # the checks' leriche_classify
    try:
        if args.trace:
            result = traced_run(args.workload, commands, context, deadline)
        else:
            result = timed_run(args.workload, commands, context, args.seconds, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = _declared_units(args.trace)
    if set(units) != set(result["metrics"]):
        print(f"metrics {sorted(result['metrics'])} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(f"polya bench: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:32s} {result['metrics'][name]!r} {unit}")
    for line in result["notes"] + result["problems"][:20]:
        print(f"  {line}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
