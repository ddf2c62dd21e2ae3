"""Command-line front end.

Subcommands: classify-quadratic, analyze, verify {t1|t2|t3}, scan, table,
pollack, contrast.  Every subcommand is registered through `_command`, which
gives it --format, --output and --budget-factor (and, for the batch commands
verify, scan, table and contrast, --strict and --jobs).  Output formats: text
(default), json (one compact object per line), csv (one flat row per report,
nested values JSON-encoded).  Unit coefficients are serialized as decimal
strings since they routinely exceed 64 bits.  Identical inputs and budgets
produce byte-identical output.  Batch commands run serially; --jobs is still
accepted and has no effect.

Exit codes: 0 ok, 2 usage error, 3 disagreement (classifier vs oracle, table
row or strict-mode claim failing), 4 undecided: the factoring budget
(--budget-factor / POLYA_FACTOR_BUDGET) ran out.  The budget applies to the
one command it is given to and is restored when that command ends.  The
primes of a radicand are memoised per (radicand, budget) for the life of the
process, so a command factors each radicand once, and a later command with a
smaller budget factors it again and can still exit 4.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Any, Callable

import click

from . import arith
from .arith import FactorBudgetError
from .biquad import PolyaReport, biquadratic_field, polya_report
from .quadratic import (UnitSplit, _radicand_primes, fundamental_unit,
                        quadratic_polya_oracle, zantema_classify)
from .verify import (FAMILIES, THEOREMS, TheoremReport, contrast_rajaei, pollack_search,
                     scan, verify_table, verify_theorem)


def _unit_payload(d: int) -> dict[str, Any] | None:
    if d < 2:
        return None
    u = fundamental_unit(d)
    return {"d": u.d, "z": str(u.z), "t": str(u.t), "denom": u.denom, "norm": u.norm}


def _unit_text(d: int) -> str:
    u = fundamental_unit(d)
    body = f"{u.z} + {u.t}*sqrt({u.d})"
    if u.denom == 2:
        body = f"({body})/2"
    return f"{body}, norm {u.norm}"


def _witness_payload(w: UnitSplit | None) -> dict[str, Any] | None:
    if w is None:
        return None
    return {"d": w.d, "delta": w.unit.denom, "g": w.g, "m": str(w.m), "n": str(w.n),
            "epsilon": w.epsilon, "eta": w.eta, "case_label": f"gcd = {w.g}"}


def _field_payload(report: PolyaReport) -> dict[str, Any]:
    f = report.field
    return {
        "m": f.m, "n": f.n, "deltas": list(f.deltas),
        "ramification": [list(e) for e in report.profile.entries],
        "product_e": report.profile.product,
        "h_generators": [str(c) for c in report.h_generators],
        "h_order": report.h_order,
        "index_factor": report.index_factor,
        "h1_order": report.h1_order,
        "po_order": report.po_order,
        "po_structure": report.po_structure,
        "unit_norms": list(report.unit_norms),
        "polya": report.polya,
    }


def _field_text(report: PolyaReport) -> list[str]:
    f = report.field
    ram = ", ".join(f"e_{l} = {e}" for l, e in report.profile.entries)
    return [
        f"field: Q(sqrt({f.m}), sqrt({f.n})) with kernels {f.deltas}",
        f"ramification: {ram}; product {report.profile.product}",
        f"h generators: {', '.join(str(c) for c in report.h_generators)}",
        f"h order: {report.h_order}, index factor: {report.index_factor}, "
        f"h1 order: {report.h1_order}",
        f"po order: {report.po_order}, structure: {report.po_structure}",
        f"unit norms: {', '.join(str(v) for v in report.unit_norms)}",
        f"polya: {'yes' if report.polya else 'no'}",
    ]


def _theorem_payload(report: TheoremReport) -> dict[str, Any]:
    field = report.field_report
    return {
        "theorem": report.theorem,
        "triple": list(report.triple),
        "hypotheses_ok": report.hypotheses.ok,
        "hypothesis_checks": [[label, ok] for label, ok in report.hypotheses.checks],
        "field_report": None if field is None else _field_payload(field),
        "epsilon_witness": _witness_payload(report.epsilon_witness),
        "epsilon_in_allowed_set": report.epsilon_in_allowed_set,
        "claim_matches": report.claim_matches,
        "anomalies": list(report.anomalies),
    }


_THEOREM_COLUMNS = ("theorem", "triple", "hypotheses_ok", "po_order", "h1_order",
                    "product_e", "claim_matches", "epsilon", "epsilon_in_allowed_set",
                    "epsilon_witness", "unit_norms", "anomalies")


def _lift(payload: dict[str, Any]) -> dict[str, Any]:
    """A CSV row: `payload` with the headline numbers of its field report
    copied to the top level."""
    field = payload["field_report"]
    return {**payload, **{key: None if field is None else field[key]
                          for key in ("po_order", "h1_order", "product_e", "unit_norms")}}


def _theorem_row(report: TheoremReport) -> dict[str, Any]:
    row = _lift(_theorem_payload(report))
    witness = row["epsilon_witness"]
    row["epsilon"] = None if witness is None else witness["epsilon"]
    return row


def _theorem_text(report: TheoremReport) -> list[str]:
    triple = ", ".join(str(v) for v in report.triple)
    lines = [f"{report.theorem} ({triple}): hypotheses "
             f"{'ok' if report.hypotheses.ok else 'FAIL'}"]
    if not report.hypotheses.ok:
        lines.extend(f"  failed: {label}" for label, ok in report.hypotheses.checks
                     if not ok)
    field = report.field_report
    if field is None:
        lines.append("  field not computed")
        return lines
    lines.append(f"  po order {field.po_order}, h1 order {field.h1_order}, "
                 f"product_e {field.profile.product}, claim matches: "
                 f"{'yes' if report.claim_matches else 'no'}")
    w = report.epsilon_witness
    if w is not None:
        member = "in" if report.epsilon_in_allowed_set else "NOT in"
        lines.append(f"  epsilon witness for kernel {w.d}: epsilon {w.epsilon} "
                     f"(gcd = {w.g}), {member} the allowed set")
    for note in report.anomalies:
        lines.append(f"  anomaly: {note}")
    return lines


def _emit(fmt: str, output: str | None, payloads: list[dict[str, Any]],
          columns: tuple[str, ...] | None, text_lines: list[str]) -> None:
    """Write the report in `fmt`; a CSV header of None is the first
    payload's keys."""
    if fmt == "json":
        body = "\n".join(json.dumps(p) for p in payloads) + "\n"
    elif fmt == "csv":
        if columns is None:
            columns = tuple(payloads[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for p in payloads:
            row = []
            for col in columns:
                v = p.get(col)
                if isinstance(v, (dict, list)):
                    v = json.dumps(v)
                elif v is None:
                    v = ""
                elif isinstance(v, bool):
                    v = str(v).lower()
                row.append(v)
            writer.writerow(row)
        body = buf.getvalue()
    else:
        body = "\n".join(text_lines) + "\n"
    if output is None:
        click.echo(body, nl=False)
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise click.BadParameter(f"cannot write {output}: {exc.strerror}",
                                 param_hint="'--output'")


@click.group()
def main() -> None:
    """Polya groups of real quadratic and totally real bi-quadratic fields."""


def _command(name: str, *, batch: bool = False, **settings: Any
             ) -> Callable[[Callable[..., None]], click.Command]:
    """Register the decorated function as the subcommand `name` of `main`.

    The command gets --format, --output and --budget-factor, and with `batch`
    also --strict and the ignored --jobs.  The function is called with the
    click context and every parameter but the budget.  The factoring budget
    is set for this one call and restored when it ends, however it ends, so
    one command's --budget-factor never reaches the next command run in the
    same process; an exhausted budget anywhere in the body exits 4.
    """
    options = [
        click.Option(["--format", "fmt"], type=click.Choice(("text", "json", "csv")),
                     default="text", show_default=True, help="Report format."),
        click.Option(["--output"], type=click.Path(dir_okay=False, writable=True),
                     default=None, help="Write the report here instead of stdout."),
        click.Option(["--budget-factor"], type=int, default=None,
                     envvar="POLYA_FACTOR_BUDGET",
                     help="Factoring budget (default from env or built-in)."),
    ]
    if batch:
        options[:0] = [
            click.Option(["--strict"], is_flag=True,
                         help="Exit 3 when any computed claim does not match."),
            # accepted so that existing invocations keep parsing; it selects nothing
            click.Option(["--jobs"], type=int, default=1, hidden=True, expose_value=False),
        ]

    def register(fn: Callable[..., None]) -> click.Command:
        def run(budget_factor: int | None, **params: Any) -> None:
            ctx = click.get_current_context()
            saved = arith.DEFAULT_FACTOR_BUDGET
            if budget_factor is not None:
                if budget_factor <= 0:
                    raise click.UsageError("--budget-factor must be positive")
                arith.DEFAULT_FACTOR_BUDGET = budget_factor
            try:
                fn(ctx, **params)
            except FactorBudgetError as exc:
                click.echo(f"undecided: {exc}", err=True)
                ctx.exit(4)
            finally:
                arith.DEFAULT_FACTOR_BUDGET = saved

        run.__doc__ = fn.__doc__
        # click stores decorated parameters last first; the command's arguments
        # go before the shared options, so a missing argument is reported first
        arguments = list(reversed(getattr(fn, "__click_params__", [])))
        return main.command(name, params=arguments + options, **settings)(run)

    return register


@_command("classify-quadratic", context_settings={"ignore_unknown_options": True})
@click.argument("d", type=int)
def cmd_classify_quadratic(ctx: click.Context, d: int, fmt: str,
                           output: str | None) -> None:
    """Classify Q(sqrt(D)) by the unit criterion and by the ideal oracle."""
    try:
        _radicand_primes(d)
    except ValueError:
        raise click.UsageError(f"d must be a squarefree integer other than 0 and 1, got {d}")
    verdict = zantema_classify(d)
    oracle = quadratic_polya_oracle(d)
    if fmt == "text":
        case = f" ({verdict.case})" if verdict.case is not None else ""
        lines = [f"zantema: {verdict.verdict}{case}", f"oracle: {oracle}"]
        if d > 1:
            lines.append(f"unit: {_unit_text(d)}")
        payloads = []
    else:
        payloads = [{
            "d": d,
            "zantema": verdict.verdict,
            "case": verdict.case,
            "oracle": oracle,
            "agreement": verdict.verdict == oracle,
            "unit": _unit_payload(d),
        }]
        lines = []
    _emit(fmt, output, payloads, None, lines)
    if verdict.verdict != oracle:
        ctx.exit(3)


@_command("analyze")
@click.argument("m", type=int)
@click.argument("n", type=int)
def cmd_analyze(ctx: click.Context, m: int, n: int, fmt: str, output: str | None) -> None:
    """Full Polya report for the bi-quadratic field Q(sqrt(M), sqrt(N))."""
    try:
        field = biquadratic_field(m, n)
        report = polya_report(field)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    if fmt == "text":
        payloads, lines = [], _field_text(report)
    else:
        payloads, lines = [_field_payload(report)], []
    _emit(fmt, output, payloads, None, lines)


def _finish_reports(ctx: click.Context, fmt: str, output: str | None,
                    reports: tuple[TheoremReport, ...], strict: bool) -> None:
    if fmt == "json":
        payloads, lines = [_theorem_payload(r) for r in reports], []
    elif fmt == "csv":
        payloads, lines = [_theorem_row(r) for r in reports], []
    else:
        payloads, lines = [], [line for r in reports for line in _theorem_text(r)]
    _emit(fmt, output, payloads, _THEOREM_COLUMNS, lines)
    if strict and any(r.claim_matches is False for r in reports):
        ctx.exit(3)


def _theorem_id(value: str) -> str:
    theorem = value.upper()
    if theorem not in THEOREMS:
        raise click.UsageError(f"theorem must be one of t1, t2, t3, got {value!r}")
    return theorem


@_command("verify", batch=True, context_settings={"ignore_unknown_options": True})
@click.argument("theorem")
@click.argument("primes", type=int, nargs=-1)
def cmd_verify(ctx: click.Context, theorem: str, primes: tuple[int, ...], fmt: str,
               output: str | None, strict: bool) -> None:
    """Verify one theorem instance, e.g. `verify t1 3 17 41` or `verify t3 5 17`."""
    theorem = _theorem_id(theorem)
    arity = len(FAMILIES[theorem].primes)
    if len(primes) != arity:
        raise click.UsageError(f"{theorem.lower()} takes {arity} primes, got {len(primes)}")
    _finish_reports(ctx, fmt, output, (verify_theorem(theorem, primes),), strict)


@_command("scan", batch=True)
@click.argument("theorem")
@click.argument("bound", type=int)
def cmd_scan(ctx: click.Context, theorem: str, bound: int, fmt: str,
             output: str | None, strict: bool) -> None:
    """Verify every admissible triple with max prime <= BOUND."""
    theorem = _theorem_id(theorem)
    try:
        reports = scan(theorem, bound)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _finish_reports(ctx, fmt, output, reports, strict)


@_command("table", batch=True)
def cmd_table(ctx: click.Context, fmt: str, output: str | None, strict: bool) -> None:
    """Reproduce the published 20-row table; exit 0 iff every row has po order 2."""
    _finish_reports(ctx, fmt, output, verify_table(), strict=True)


@_command("pollack")
@click.argument("r", type=int)
def cmd_pollack(ctx: click.Context, r: int, fmt: str, output: str | None) -> None:
    """Smallest primes p = 3 mod 4 and q = 1 mod 4 below R that are both
    non-residues mod R."""
    try:
        p, q = pollack_search(r)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except RuntimeError as exc:
        click.echo(str(exc), err=True)
        ctx.exit(3)
    payload = {"r": r, "p": p, "q": q}
    _emit(fmt, output, [payload], None, [f"r = {r}: p = {p}, q = {q}"])


@_command("contrast", batch=True)
@click.argument("p", type=int)
@click.argument("q", type=int)
@click.argument("r", type=int)
def cmd_contrast(ctx: click.Context, p: int, q: int, r: int, fmt: str,
                 output: str | None, strict: bool) -> None:
    """Check the contrasting family Q(sqrt(P), sqrt(Q*R)) with P = Q = 3 mod 4,
    R = 5 mod 8: expected Polya."""
    try:
        report = contrast_rajaei(p, q, r)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    payload = {
        "triple": list(report.triple),
        "field_report": _field_payload(report.field_report),
        "matches": report.matches,
        "anomalies": list(report.anomalies),
    }
    columns = ("triple", "po_order", "h1_order", "product_e", "matches", "anomalies")
    triple = ", ".join(str(v) for v in report.triple)
    lines = [f"contrast ({triple}): po order {report.field_report.po_order}, "
             f"expected 1, matches: {'yes' if report.matches else 'no'}"]
    lines.extend(f"  anomaly: {note}" for note in report.anomalies)
    _emit(fmt, output, [_lift(payload) if fmt == "csv" else payload], columns, lines)
    if report.anomalies and strict:
        ctx.exit(3)


if __name__ == "__main__":
    main()
