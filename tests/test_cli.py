"""Command line interface: subcommands, output formats, exit codes, budgets,
and byte-for-byte determinism."""

from __future__ import annotations

import csv
import hashlib
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
    assert result.output == (
        "field: Q(sqrt(2), sqrt(5)) with kernels (2, 5, 10)\n"
        "ramification: e_2 = 2, e_5 = 2; product 4\n"
        "h generators: [2], [5], [10], [1], [1], [1]\n"
        "h order: 4, index factor: 1, h1 order: 4\n"
        "po order: 1, structure: trivial\n"
        "unit norms: -1, -1, -1\n"
        "polya: yes\n")


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


# sha256 of `scan THEOREM 60` stdout in each format; every scan exits 0.
SCAN_60_DIGESTS = {
    ("T1", "json"): "a6597bb4952e9f3f61a3bb4f7e70c4562f16b2909749adbb48731edf0d875460",
    ("T1", "csv"): "42cde5233a9fed19b71c3028aa31355a1b4c65b5b1c6455cb25236ef09007bb0",
    ("T1", "text"): "5e71dbc0971ae2545ccddf668583b17220068c29ef0b84f7bb6717917473dc36",
    ("T2", "json"): "5071f1db9a697a975321dadfc7c66e022ab0a7718c7f20dfcb035999e5f43926",
    ("T2", "csv"): "871204ec4c65deaf71bc65a97ae3b8a5ce357ee6a39bd54bbd9b88d7aaff7fe6",
    ("T2", "text"): "67d710da9d9042822e4e8c5cdf6a8d635cc0b5416439b840065ca5099a4cf2b0",
    ("T3", "json"): "6099bb096ad9e03b40fcadf47336f0e31ca61c1ca01e2c3bba62396df0f3e0be",
    ("T3", "csv"): "bc201af1bdb33e1abcddac877774e353f3bb7514e0b87537946fef45ae60584d",
    ("T3", "text"): "aee33e679964d1fb7e57eda1475ec70c59d8aef8edbf2b68e1f1894d9029d697",
}


@pytest.mark.parametrize(("theorem", "fmt"), list(SCAN_60_DIGESTS))
def test_scan_output_is_pinned_per_format(runner, theorem, fmt):
    result = runner.invoke(main, ["scan", theorem, "60", "--format", fmt])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == SCAN_60_DIGESTS[theorem, fmt]


def test_scan_output_flag_writes_the_stdout_bytes(runner, tmp_path):
    target = tmp_path / "scan.csv"
    result = runner.invoke(main, ["scan", "T2", "60", "--format", "csv",
                                  "--output", str(target)])
    assert result.exit_code == 0 and result.stdout_bytes == b""
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == SCAN_60_DIGESTS["T2", "csv"]


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
