"""Command line interface: subcommands, output formats, exit codes, budgets,
and byte-for-byte determinism."""

from __future__ import annotations

import csv
import io
import json

import pytest
from click.testing import CliRunner

from polya import quadratic
from polya.biquad import biquadratic_field, polya_report
from polya.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def test_classify_quadratic_text(runner):
    result = runner.invoke(main, ["classify-quadratic", "10"])
    assert result.exit_code == 0
    assert "NotPolya" in result.output
    assert "zantema" in result.output and "oracle" in result.output
    assert "sqrt(10)" in result.output


def test_classify_quadratic_negative_argument(runner):
    result = runner.invoke(main, ["classify-quadratic", "--", "-1"])
    assert result.exit_code == 0
    assert "Polya" in result.output and "NotPolya" not in result.output


def test_classify_quadratic_rejects_non_squarefree(runner):
    result = runner.invoke(main, ["classify-quadratic", "12"])
    assert result.exit_code == 2


def test_classify_quadratic_json_payload(runner):
    result = runner.invoke(main, ["classify-quadratic", "10", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["zantema"] == payload["oracle"] == "NotPolya"
    assert payload["agreement"] is True
    assert payload["unit"]["norm"] == -1
    assert payload["unit"]["z"] == "3"   # decimal string, not float


def test_analyze_json_worked_example(runner):
    result = runner.invoke(main, ["analyze", "2", "85", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["po_order"] == 2
    assert payload["h1_order"] == 4
    assert payload["product_e"] == 8
    assert payload["po_structure"] == "Z/2"
    assert payload["deltas"] == [2, 85, 170]
    assert payload["polya"] is False


def test_analyze_polya_field(runner):
    result = runner.invoke(main, ["analyze", "2", "5"])
    assert result.exit_code == 0
    assert "po_order" in result.output or "1" in result.output


def test_analyze_large_kernels_json(runner):
    result = runner.invoke(main, ["analyze", "1000000007", "998244353", "--format", "json"])
    assert result.exit_code == 0
    assert result.output == (
        '{"m": 1000000007, "n": 998244353, "deltas": [998244353, 1000000007, '
        '998244359987710471], "ramification": [[2, 2], [998244353, 2], [1000000007, 2]], '
        '"product_e": 8, "h_generators": ["[998244353]", "[1000000007]", '
        '"[998244359987710471]", "[1]", "[2]", "[2]"], "h_order": 8, "index_factor": 1, '
        '"h1_order": 8, "po_order": 1, "po_structure": "trivial", '
        '"unit_norms": [-1, 1, 1], "polya": true}\n')


def test_analyze_builds_no_fundamental_unit(runner, monkeypatch):
    def refuse(d):
        raise AssertionError(f"fundamental unit of Q(sqrt({d})) was built")

    quadratic.fundamental_unit.cache_clear()
    quadratic.period_invariants.cache_clear()
    monkeypatch.setattr(quadratic, "_pell_min", refuse)
    report = polya_report(biquadratic_field(2, 85))
    assert (report.po_order, report.unit_norms) == (2, (-1, -1, -1))
    result = runner.invoke(main, ["analyze", "2", "85", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["po_order"] == 2


def test_analyze_rejects_equal_kernels(runner):
    result = runner.invoke(main, ["analyze", "2", "2"])
    assert result.exit_code == 2


def test_verify_t3_text_and_exit(runner):
    result = runner.invoke(main, ["verify", "t3", "5", "17"])
    assert result.exit_code == 0
    assert "claim" in result.output.lower()


def test_verify_t1_epsilon_witness_json_and_text(runner):
    result = runner.invoke(main, ["verify", "t1", "3", "17", "41", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["epsilon_witness"] == {
        "d": 2091, "delta": 1, "g": 1, "m": "11", "n": "503",
        "epsilon": 2091, "eta": 1, "case_label": "gcd = 1"}
    result = runner.invoke(main, ["verify", "t1", "3", "17", "41"])
    assert result.exit_code == 0
    assert ("  epsilon witness for kernel 2091: epsilon 2091 (gcd = 1), "
            "in the allowed set\n") in result.output


def test_verify_wrong_arity_is_usage_error(runner):
    result = runner.invoke(main, ["verify", "T3", "5", "17", "3"])
    assert result.exit_code == 2
    result = runner.invoke(main, ["verify", "T9", "5", "17"])
    assert result.exit_code == 2


def test_verify_strict_flags_failed_hypotheses(runner):
    # hypotheses fail, so claim_matches is unset; strict only trips on False
    result = runner.invoke(main, ["verify", "T1", "3", "17", "29", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["hypotheses_ok"] is False
    assert payload["claim_matches"] is None


def test_scan_json_lines(runner):
    result = runner.invoke(main, ["scan", "T3", "20", "--format", "json"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    payloads = [json.loads(line) for line in lines]
    assert [tuple(p["triple"]) for p in payloads] == [(5, 13), (5, 17), (13, 5), (17, 5)]
    assert all(p["claim_matches"] for p in payloads)


def test_scan_csv_shape(runner):
    result = runner.invoke(main, ["scan", "T3", "20", "--format", "csv"])
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    header, body = rows[0], rows[1:]
    assert header[0] == "theorem" and "po_order" in header
    assert len(body) == 4
    assert all(len(row) == len(header) for row in body)
    assert body[0][header.index("claim_matches")] == "true"


def test_table_all_rows_agree(runner):
    result = runner.invoke(main, ["table", "--format", "json"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert len(lines) == 20
    assert all(json.loads(line)["field_report"]["po_order"] == 2 for line in lines)


def test_table_deterministic_across_jobs(runner):
    one = runner.invoke(main, ["table", "--format", "json"])
    four = runner.invoke(main, ["table", "--format", "json", "--jobs", "4"])
    assert one.exit_code == four.exit_code == 0
    assert one.output == four.output


def test_scan_deterministic_repeat_runs(runner):
    a = runner.invoke(main, ["scan", "T1", "60", "--format", "csv"])
    b = runner.invoke(main, ["scan", "T1", "60", "--format", "csv", "--jobs", "3"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_output_flag_writes_file(runner, tmp_path):
    target = tmp_path / "rows.jsonl"
    result = runner.invoke(main, ["analyze", "2", "85", "--format", "json",
                                  "--output", str(target)])
    assert result.exit_code == 0
    assert json.loads(target.read_text())["po_order"] == 2


def test_pollack_examples(runner):
    result = runner.invoke(main, ["pollack", "13", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert (payload["p"], payload["q"]) == (7, 5)
    assert runner.invoke(main, ["pollack", "11"]).exit_code == 2


def test_contrast_examples(runner):
    result = runner.invoke(main, ["contrast", "3", "7", "13", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["field_report"]["po_order"] == 1
    assert runner.invoke(main, ["contrast", "3", "7", "17"]).exit_code == 2


def test_factor_budget_exhaustion_exits_undecided(runner):
    # semiprime with two large factors: validation itself needs factoring
    d = (2 ** 31 - 1) * (2 ** 61 - 1)
    result = runner.invoke(main, ["classify-quadratic", str(d),
                                  "--budget-factor", "5"])
    assert result.exit_code == 4
    assert "undecided" in result.output


def test_budget_factor_is_scoped_to_one_command(runner):
    args = ["analyze", "10007", "10009"]
    assert runner.invoke(main, args).exit_code == 0
    assert runner.invoke(main, args + ["--budget-factor", "1"]).exit_code == 4
    assert runner.invoke(main, args).exit_code == 0


def test_budget_env_variable_is_read(runner):
    result = runner.invoke(main, ["analyze", "2", "85"],
                           env={"POLYA_FACTOR_BUDGET": "100000"})
    assert result.exit_code == 0
    result = runner.invoke(main, ["analyze", "2", "85"],
                           env={"POLYA_FACTOR_BUDGET": "-5"})
    assert result.exit_code == 2
