"""One fresh interpreter that hosts polya for the benchmark.

Run as `python3 bench/worker.py ROOT`.  It imports `polya.cli` from
ROOT/src, writes `ready <import seconds>` on stdout and reads one JSON job
from stdin.  An empty stdin ends it (a set-up probe).  A job is either

  {"mode": "cli", "commands": [argv, ...]}
      every argv goes through the `polya` click entry point in turn, as the
      shell would run it, with stdout and stderr captured; one JSON record
      per command is written to stdout as soon as the command ends, or
  {"mode": "replay", "workload": name, "commands": [...], "trace_path": path}
      the traced bottom-up replay in `replay.py`.

The last stdout line is a JSON summary: the import time, the calibration
samples of a cli job or the totals of a replay, and the process's peak RSS.
"""

from __future__ import annotations

import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

CALIBRATE_EVERY_S = 0.1
CALIBRATE_BURST = 8


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python integer work (2.5 ms on the
    reference machine when it is quiet), with the collector off so the
    program's heap cannot slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        p, q = 1, 0
        for a in range(1, 1700):
            p, q = a * p + q, p
        s = 0
        for i in range(24000):
            s += i * i % 7
        return time.perf_counter() - start
    finally:
        gc.enable()


def _run_cli(commands: list[list[str]], out) -> list[list[float]]:
    """Run each argv and stream one record per command.  Between commands,
    at least every CALIBRATE_EVERY_S, time `calibrate()`; return the samples
    as [time, seconds] pairs on the records' clock."""
    import click
    from polya.cli import main
    real_stdout, real_stderr = sys.stdout, sys.stderr
    captured_out, captured_err = io.StringIO(), io.StringIO()
    samples = [[time.perf_counter(), calibrate()] for _ in range(CALIBRATE_BURST)]
    for index, argv in enumerate(commands):
        cause = None
        sys.stdout, sys.stderr = captured_out, captured_err
        start = time.perf_counter()
        try:
            rv = main.main(args=argv, prog_name="polya", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except click.ClickException as exc:
            code = exc.exit_code
        except Exception as exc:  # the shell would print a traceback and exit 1
            code = 1
            cause = f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"
        end = time.perf_counter()
        sys.stdout, sys.stderr = real_stdout, real_stderr
        if code != 0 and cause is None:
            cause = f"exit {code}"
        out.write(json.dumps({"index": index, "code": code, "start": start, "end": end,
                              "seconds": end - start, "cause": cause,
                              "stdout": captured_out.getvalue(),
                              "stderr": captured_err.getvalue()}) + "\n")
        for buf in (captured_out, captured_err):
            buf.seek(0)
            buf.truncate(0)
        since = end - samples[-1][0]
        if since >= CALIBRATE_EVERY_S or index == len(commands) - 1:
            # after a long command, a burst of samples, so that its few
            # neighbouring samples still average out the loop's own noise
            burst = min(CALIBRATE_BURST, 1 + int(since / CALIBRATE_EVERY_S))
            samples.extend([time.perf_counter(), calibrate()] for _ in range(burst))
    out.flush()
    return samples


def main() -> None:
    root = Path(sys.argv[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    start = time.perf_counter()
    import polya.cli  # noqa: F401  (the set-up being timed)
    import_s = time.perf_counter() - start
    loaded = Path(polya.cli.__file__).resolve()
    if root / "src" not in loaded.parents:
        raise SystemExit(f"polya was imported from {loaded}, not from {root / 'src'}")
    out = sys.stdout
    out.write(f"ready {import_s!r}\n")
    out.flush()
    raw = sys.stdin.read()
    if not raw.strip():
        return
    job = json.loads(raw)
    summary: dict = {"import_s": import_s}
    if job["mode"] == "cli":
        summary["calibration"] = _run_cli(job["commands"], out)
    elif job["mode"] == "replay":
        import replay
        summary["replay"] = replay.run(job["workload"], job["commands"], job["trace_path"])
    else:
        raise SystemExit(f"unknown mode {job['mode']!r}")
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out.write(json.dumps({"summary": summary}) + "\n")
    out.flush()


if __name__ == "__main__":
    main()
