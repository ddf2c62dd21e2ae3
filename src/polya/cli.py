"""Command-line front end: classify-quadratic, analyze, verify {t1|t2|t3},
scan, table, pollack and contrast, each declared once by `_command`.

Output formats: text (default), json (one compact object per line), csv (one
flat row per report, nested values JSON-encoded).  Unit coefficients are
decimal strings since they routinely exceed 64 bits.  Identical inputs and
budgets produce byte-identical output.

The standard library parses the command line, in click's grammar and
wording: options and positionals mix, `--opt=value` is `--opt value`, the
last of a repeated option wins and `--` ends the options.  A usage error
writes `Usage: polya CMD [OPTIONS] ARGS`, `Try 'polya CMD --help' for help.`,
a blank line and `Error: ...` to stderr (only the last when an option lacks
its value or has one it takes none) and exits 2, as bare `polya` does after
writing the help there, whatever click version is installed.

Exit codes: 0 ok, 2 usage error, 3 disagreement (classifier vs oracle, or a
theorem, table or contrast claim failing), 4 undecided: the factoring budget
(--budget-factor / POLYA_FACTOR_BUDGET) ran out.  The primes of a radicand
are memoised per (radicand, budget) for the life of the process, so a later
command with a smaller budget factors it again and can still exit 4.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from typing import Any, Callable

from . import arith
from .arith import FactorBudgetError
from .biquad import PolyaReport, biquadratic_field, polya_report
from .quadratic import (UnitSplit, _radicand_primes, fundamental_unit,
                        quadratic_polya_oracle, zantema_classify)
from .verify import (THEOREMS, TheoremReport, contrast_rajaei, pollack_search, scan,
                     verify_table, verify_theorem)


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
    return {"d": w.d, "delta": w.denom, "g": w.g, "m": str(w.m), "n": str(w.n),
            "epsilon": w.epsilon, "eta": w.eta, "case_label": f"gcd = {w.g}"}


def _field_payload(report: PolyaReport) -> dict[str, Any]:
    f = report.field
    return {"m": f.m, "n": f.n, "deltas": list(f.deltas),
            "ramification": [list(e) for e in report.profile.entries],
            "product_e": report.profile.product,
            "h_generators": [str(c) for c in report.h_generators],
            "h_order": report.h_order, "index_factor": report.index_factor,
            "h1_order": report.h1_order, "po_order": report.po_order,
            "po_structure": report.po_structure, "unit_norms": list(report.unit_norms),
            "polya": report.polya}


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
    return {"theorem": report.theorem, "triple": list(report.triple),
            "hypotheses_ok": report.hypotheses.ok,
            "hypothesis_checks": [[label, ok] for label, ok in report.hypotheses.checks],
            "field_report": None if field is None else _field_payload(field),
            "epsilon_witness": _witness_payload(report.epsilon_witness),
            "epsilon_in_allowed_set": report.epsilon_in_allowed_set,
            "claim_matches": report.claim_matches, "anomalies": list(report.anomalies)}


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
    lines.extend(f"  anomaly: {note}" for note in report.anomalies)
    return lines


def _emit(fmt: str, output: str | None, payloads: list[dict[str, Any]],
          columns: tuple[str, ...] | None, text_lines: list[str]) -> None:
    """Write the report in `fmt`: one line per JSON payload or text line, and
    nothing when there are none; a CSV header of None is the first payload's
    keys."""
    if fmt == "csv":
        if columns is None:
            columns = tuple(payloads[0])
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for p in payloads:
            writer.writerow([json.dumps(v) if isinstance(v, (dict, list)) else
                             "" if v is None else str(v).lower() if isinstance(v, bool) else v
                             for v in map(p.get, columns)])
        body = buf.getvalue()
    else:
        lines = map(json.dumps, payloads) if fmt == "json" else text_lines
        body = "".join(f"{line}\n" for line in lines)
    if output is None:
        sys.stdout.write(body)
        sys.stdout.flush()
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise UsageError(f"Invalid value for '--output': cannot write {output}: "
                         f"{exc.strerror}")


class UsageError(Exception):
    """Exit 2 with this message, after the usage line unless `usage` is false."""

    def __init__(self, message: str, usage: bool = True) -> None:
        super().__init__(message)
        self.usage = usage


# the shared options in click's listing order: metavar ("" for a flag) and
# help (None: hidden); only the batch commands take the first
_OPTIONS: dict[str, tuple[str, str | None]] = {
    "--jobs": ("INTEGER", None),
    "--format": ("[text|json|csv]", "Report format.  [default: text]"),
    "--output": ("FILE", "Write the report here instead of stdout."),
    "--budget-factor": ("INTEGER", "Factoring budget (default from env or built-in)."),
    "--help": ("", "Show this message and exit."),
}
_PLAIN_OPTIONS, _MAIN_OPTIONS = dict(list(_OPTIONS.items())[1:]), {"--help": _OPTIONS["--help"]}
# name -> (body, positional arguments, their usage, batch, negatives)
_COMMANDS: dict[str, tuple[Callable[..., Any], dict[str, Any], str, bool, bool]] = {}


def _command(name: str, *, batch: bool = False, negatives: bool = False,
             **arguments: Any) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Declare the decorated function as the subcommand `name`.

    `arguments` are its positionals in order, each `int`, `str` or `[int]`
    (any number of integers); with `negatives`, a token like `-7` that names
    no option is a positional.  Every command takes --format, --output and
    --budget-factor; a `batch` command also takes --jobs, which must be an
    integer and is ignored (batch commands run serially).  The function gets
    its arguments, `fmt` and `output`, and returns its exit code (None for 0)
    or raises `UsageError`.  The factoring budget is set for this one call
    and restored however it ends, so it never reaches the next command; an
    exhausted budget exits 4.
    """
    usage = "".join(f" [{arg.upper()}]..." if kind == [int] else f" {arg.upper()}"
                    for arg, kind in arguments.items())

    def register(fn: Callable[..., Any]) -> Callable[..., Any]:
        _COMMANDS[name] = (fn, arguments, usage, batch, negatives)
        return fn

    return register


def _suggest(word: str, known: Any) -> str:
    from difflib import get_close_matches
    matches = sorted(get_close_matches(word, known))
    if len(matches) > 1:
        return f" (Did you mean one of: {', '.join(map(repr, matches))}?)"
    return f" Did you mean {matches[0]!r}?" if matches else ""


def _options(tokens: list[str], known: dict[str, tuple[str, str | None]],
             negatives: bool = False, group: bool = False) -> tuple[dict[str, Any], list[str]]:
    """The options in `tokens`, each with its last value, in the order of first
    use, and the positionals; in a `group` the first positional ends options."""
    given: dict[str, Any] = {}
    positionals: list[str] = []
    rest = iter(tokens)
    for token in rest:
        plain = token[:1] != "-" or token == "-"
        if token == "--" or (group and plain):
            positionals += [token] * plain + list(rest)
            break
        option, eq, value = token.partition("=")
        if plain or (option not in known and negatives):
            positionals.append(token)
            continue
        if option not in known:  # click names an unknown short option by one letter
            raise UsageError(f"No such option {option!r}.{_suggest(option, known)}"
                             if token[:2] == "--" else f"No such option {token[:2]!r}.")
        if not known[option][0]:
            if eq:
                raise UsageError(f"Option {option!r} does not take a value.", usage=False)
            value = True
        elif not eq and (value := next(rest, None)) is None:
            raise UsageError(f"Option {option!r} requires an argument.", usage=False)
        given[option] = value
    return given, positionals


def _value(hint: str, token: str, kind: Any = str) -> Any:
    """`token` as the argument or option `hint`, checked as click checked it."""
    problem = None
    if kind is int or hint in ("--jobs", "--budget-factor"):
        try:
            return int(token)
        except ValueError:
            problem = f"{token!r} is not a valid integer."
    elif hint == "--format" and token not in ("text", "json", "csv"):
        problem = f"{token!r} is not one of 'text', 'json', 'csv'."
    elif hint == "--output" and os.path.exists(token):
        problem = (f"File {token!r} is a directory." if os.path.isdir(token) else
                   f"File {token!r} is not readable." if not os.access(token, os.R_OK) else
                   f"File {token!r} is not writable." if not os.access(token, os.W_OK) else
                   None)
    if problem:
        raise UsageError(f"Invalid value for '{hint}': {problem}")
    return token


def _help(usage: str, doc: str, known: dict[str, tuple[str, str | None]]) -> str:
    from textwrap import shorten
    room = 74 - max(map(len, _COMMANDS))  # a command's summary fits in 78 columns
    sections = {"Options": [(f"{name} {metavar}".rstrip(), text)
                            for name, (metavar, text) in known.items() if text is not None],
                "Commands": [(name, shorten(_COMMANDS[name][0].__doc__ or "", room,
                                            placeholder="..."))
                             for name in sorted(_COMMANDS) if known is _MAIN_OPTIONS]}
    lines = [f"Usage: {usage}", "", *(f"  {line.strip()}" for line in doc.strip().splitlines())]
    for title, rows in sections.items():
        if rows:
            width = max(len(term) for term, _ in rows)
            lines += ["", f"{title}:", *(f"  {term:<{width}}  {text}" for term, text in rows)]
    return "\n".join(lines) + "\n"


def _dispatch(prog: str, tokens: list[str]) -> int:
    path, usage = prog, f"{prog} [OPTIONS] COMMAND [ARGS]..."
    try:
        given, rest = _options(tokens, _MAIN_OPTIONS, group=True)
        if not given and rest and rest[0][:1] == "-":
            # click parses a command name that looks like an option once more
            given = _options(rest, _MAIN_OPTIONS, group=True)[0]
        if given or not tokens:  # bare `polya` writes the help to stderr and exits 2
            (sys.stdout if given else sys.stderr).write(
                _help(usage, _Main.__doc__ or "", _MAIN_OPTIONS))
            return 0 if given else 2
        if not rest or rest[0] not in _COMMANDS:
            raise UsageError(f"No such command {rest[0]!r}.{_suggest(rest[0], _COMMANDS)}"
                             if rest else "Missing command.")
        name, *rest = rest
        fn, arguments, arguments_usage, batch, negatives = _COMMANDS[name]
        path, usage = f"{prog} {name}", f"{prog} {name} [OPTIONS]{arguments_usage}"
        known = _OPTIONS if batch else _PLAIN_OPTIONS
        given, positionals = _options(rest, known, negatives)
        if "--help" in given:
            sys.stdout.write(_help(usage, fn.__doc__ or "", known))
            return 0
        # click's order: the options given, the arguments, then the environment
        values = {option: _value(option, value) for option, value in given.items()}
        params: dict[str, Any] = {}
        for arg, kind in arguments.items():
            if kind == [int]:
                params[arg] = tuple(_value(f"[{arg.upper()}]...", token, int)
                                    for token in positionals)
                positionals = []
            elif not positionals:
                raise UsageError(f"Missing argument '{arg.upper()}'.")
            else:
                params[arg] = _value(arg.upper(), positionals.pop(0), kind)
        budget = values.get("--budget-factor")
        if "--budget-factor" not in given and os.environ.get("POLYA_FACTOR_BUDGET"):
            budget = _value("--budget-factor", os.environ["POLYA_FACTOR_BUDGET"])
        if positionals:
            raise UsageError(f"Got unexpected extra argument{'s' if positionals[1:] else ''} "
                             f"({' '.join(positionals)})")
        params.update(fmt=values.get("--format", "text"), output=values.get("--output"))
        saved = arith.DEFAULT_FACTOR_BUDGET
        if budget is not None:
            if budget <= 0:
                raise UsageError("--budget-factor must be positive")
            arith.DEFAULT_FACTOR_BUDGET = budget
        try:
            return fn(**params) or 0
        except FactorBudgetError as exc:
            sys.stderr.write(f"undecided: {exc}\n")
            return 4
        finally:
            arith.DEFAULT_FACTOR_BUDGET = saved
    except UsageError as exc:
        head = f"Usage: {usage}\nTry '{path} --help' for help.\n\n" if exc.usage else ""
        sys.stderr.write(f"{head}Error: {exc}\n")
        return 2


class _Main:
    """Polya groups of real quadratic and totally real bi-quadratic fields."""

    name = "main"

    def main(self, args: list[str] | None = None, prog_name: str | None = None,
             standalone_mode: bool = True) -> int:
        """Return the exit code of a command line, or exit with it in `standalone_mode`."""
        try:
            code = _dispatch(prog_name or os.path.basename(sys.argv[0]),
                             list(sys.argv[1:] if args is None else args))
        except BrokenPipeError:  # the reader left (`polya scan T2 300 | head`): exit 1
            if not standalone_mode:
                raise
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            code = 1
        if standalone_mode:
            sys.exit(code)
        return code

    __call__ = main


main = _Main()


@_command("classify-quadratic", d=int, negatives=True)
def cmd_classify_quadratic(d: int, fmt: str, output: str | None) -> int:
    """Classify Q(sqrt(D)) by the unit criterion and by the ideal oracle."""
    try:
        _radicand_primes(d)
    except ValueError:
        raise UsageError(f"d must be a squarefree integer other than 0 and 1, got {d}")
    verdict = zantema_classify(d)
    oracle = quadratic_polya_oracle(d)
    if fmt == "text":
        case = f" ({verdict.case})" if verdict.case is not None else ""
        payloads, lines = [], [f"zantema: {verdict.verdict}{case}", f"oracle: {oracle}",
                               *([f"unit: {_unit_text(d)}"] if d > 1 else [])]
    else:
        payloads, lines = [{"d": d, "zantema": verdict.verdict, "case": verdict.case,
                            "oracle": oracle, "agreement": verdict.verdict == oracle,
                            "unit": _unit_payload(d)}], []
    _emit(fmt, output, payloads, None, lines)
    return 3 if verdict.verdict != oracle else 0


@_command("analyze", m=int, n=int)
def cmd_analyze(m: int, n: int, fmt: str, output: str | None) -> None:
    """Full Polya report for the bi-quadratic field Q(sqrt(M), sqrt(N))."""
    try:
        report = polya_report(biquadratic_field(m, n))
    except ValueError as exc:
        raise UsageError(str(exc))
    if fmt == "text":
        payloads, lines = [], _field_text(report)
    else:
        payloads, lines = [_field_payload(report)], []
    _emit(fmt, output, payloads, None, lines)


def _finish_reports(fmt: str, output: str | None, reports: tuple[TheoremReport, ...]) -> int:
    if fmt == "json":
        payloads, lines = [_theorem_payload(r) for r in reports], []
    elif fmt == "csv":
        payloads, lines = [_theorem_row(r) for r in reports], []
    else:
        payloads, lines = [], [line for r in reports for line in _theorem_text(r)]
    _emit(fmt, output, payloads, _THEOREM_COLUMNS, lines)
    return 3 if any(r.claim_matches is False for r in reports) else 0


def _theorem_id(value: str) -> str:
    theorem = value.upper()
    if theorem not in THEOREMS:
        raise UsageError(f"theorem must be one of t1, t2, t3, got {value!r}")
    return theorem


@_command("verify", theorem=str, primes=[int], negatives=True)
def cmd_verify(theorem: str, primes: tuple[int, ...], fmt: str, output: str | None) -> int:
    """Verify one theorem instance, e.g. `verify t1 3 17 41` or `verify t3 5 17`."""
    theorem = _theorem_id(theorem)
    try:
        report = verify_theorem(theorem, primes)
    except ValueError as exc:
        raise UsageError(str(exc))
    return _finish_reports(fmt, output, (report,))


@_command("scan", theorem=str, bound=int, batch=True)
def cmd_scan(theorem: str, bound: int, fmt: str, output: str | None) -> int:
    """Verify every admissible triple with max prime <= BOUND."""
    theorem = _theorem_id(theorem)
    try:
        reports = scan(theorem, bound)
    except ValueError as exc:
        raise UsageError(str(exc))
    return _finish_reports(fmt, output, reports)


@_command("table", batch=True)
def cmd_table(fmt: str, output: str | None) -> int:
    """Reproduce the published 20-row table; exit 0 iff every row has po order 2."""
    return _finish_reports(fmt, output, verify_table())


@_command("pollack", r=int)
def cmd_pollack(r: int, fmt: str, output: str | None) -> int | None:
    """Smallest primes p = 3 mod 4 and q = 1 mod 4 below R that are both
    non-residues mod R."""
    try:
        p, q = pollack_search(r)
    except ValueError as exc:
        raise UsageError(str(exc))
    except RuntimeError as exc:
        sys.stderr.write(f"{exc}\n")
        return 3
    _emit(fmt, output, [{"r": r, "p": p, "q": q}], None, [f"r = {r}: p = {p}, q = {q}"])


@_command("contrast", p=int, q=int, r=int)
def cmd_contrast(p: int, q: int, r: int, fmt: str, output: str | None) -> int:
    """Check the contrasting family Q(sqrt(P), sqrt(Q*R)) with P = Q = 3 mod 4,
    R = 5 mod 8: expected Polya."""
    try:
        report = contrast_rajaei(p, q, r)
    except ValueError as exc:
        raise UsageError(str(exc))
    payload = {"triple": list(report.triple),
               "field_report": _field_payload(report.field_report),
               "matches": report.matches, "anomalies": list(report.anomalies)}
    columns = ("triple", "po_order", "h1_order", "product_e", "matches", "anomalies")
    triple = ", ".join(str(v) for v in report.triple)
    lines = [f"contrast ({triple}): po order {report.field_report.po_order}, "
             f"expected 1, matches: {'yes' if report.matches else 'no'}"]
    lines.extend(f"  anomaly: {note}" for note in report.anomalies)
    _emit(fmt, output, [_lift(payload) if fmt == "csv" else payload], columns, lines)
    return 0 if report.matches else 3


if __name__ == "__main__":
    main(prog_name="python -m polya.cli")
