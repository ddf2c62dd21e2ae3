"""Command line interface: subcommands, output formats, exit codes, budgets,
and byte-for-byte determinism."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from polya import arith, cli, quadratic, verify
from polya.biquad import PolyaReport, biquadratic_field, polya_report
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
    assert "d must be a squarefree integer other than 0 and 1, got 12" in result.output


@pytest.mark.parametrize("d", ["-4", "0", "1", "1018081"])
def test_classify_quadratic_rejects_a_bad_radicand(runner, d):
    # the radicand check's ValueError, for 0 and 1, for a non-squarefree
    # negative d and for 1009^2, whose square is found only as a perfect power
    # past trial division, becomes the CLI's usage error; -1 and -7 are accepted
    # (test_classify_quadratic_negative_argument and the factor-count test)
    result = runner.invoke(main, ["classify-quadratic", "--", d])
    assert result.exit_code == 2
    assert f"d must be a squarefree integer other than 0 and 1, got {d}" in result.output


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


def test_analyze_builds_no_fundamental_unit(runner):
    quadratic.fundamental_unit.cache_clear()
    quadratic._kernel_invariants.cache_clear()
    report = polya_report(biquadratic_field(2, 85))
    assert (report.po_order, report.unit_norms) == (2, (-1, -1, -1))
    result = runner.invoke(main, ["analyze", "2", "85", "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output)["po_order"] == 2
    assert quadratic.fundamental_unit.cache_info().misses == 0


def test_analyze_rejects_equal_kernels(runner):
    result = runner.invoke(main, ["analyze", "2", "2"])
    assert result.exit_code == 2


def test_analyze_rejects_a_zero_radicand(runner):
    result = runner.invoke(main, ["analyze", "0", "5"])
    assert result.exit_code == 2
    assert "radicands must be squarefree integers other than 0 and 1" in result.output


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


def test_verify_arity_usage_error_is_pinned(runner):
    result = runner.invoke(main, ["verify", "t1", "3", "17"])
    assert result.exit_code == 2
    assert result.output == ("Usage: main verify [OPTIONS] THEOREM [PRIMES]...\n"
                             "Try 'main verify --help' for help.\n\n"
                             "Error: t1 takes 3 primes, got 2\n")


def test_verify_with_failed_hypotheses_leaves_the_claim_unset(runner):
    # hypotheses fail, so claim_matches is unset, and only a claim that is
    # False exits 3
    result = runner.invoke(main, ["verify", "T1", "3", "17", "29", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["hypotheses_ok"] is False
    assert payload["claim_matches"] is None


def test_scan_rejects_a_bound_past_its_sieve(runner, monkeypatch):
    # the check comes before the sieve: a bound of 10**12 would ask for a
    # terabyte, so the sieve here refuses to run at all
    def refuse(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(verify, "sieve_primes", refuse)
    result = runner.invoke(main, ["scan", "T3", "1000000000000"])
    assert result.exit_code == 2
    assert result.output.splitlines()[-1] == "Error: bound must be at most 1000000"


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


def _order_4(report: PolyaReport) -> PolyaReport:
    """`report` with Polya order 4: consistent, but not the order that T1-T3
    (2) or the contrast family (1) claims."""
    h1 = report.product_e // 4
    return PolyaReport(report.field, report.ramification, report.h_generators, h1, 1, h1, 4,
                       "(Z/2)^2", report.unit_norms)


@pytest.mark.parametrize("argv", [["scan", "T3", "20"], ["verify", "t3", "5", "13"],
                                  ["table"], ["contrast", "3", "7", "13"]],
                         ids=["scan", "verify", "table", "contrast"])
def test_a_failed_claim_exits_3_after_the_whole_report(runner, monkeypatch, argv):
    # the first field's report is forged to order 4, so its claim fails;
    # every row is still written, and the others are unchanged
    argv = [*argv, "--format", "json"]
    honest = runner.invoke(main, argv)
    real, fields = verify.polya_report, []

    def forge(field):
        fields.append(field)
        report = real(field)
        return _order_4(report) if len(fields) == 1 else report

    monkeypatch.setattr(verify, "polya_report", forge)
    result = runner.invoke(main, argv)
    assert (honest.exit_code, result.exit_code) == (0, 3)
    first, *rest = result.stdout.splitlines()
    assert rest == honest.stdout.splitlines()[1:]
    row = json.loads(first)
    assert row["field_report"]["po_order"] == 4
    assert row.get("claim_matches", row.get("matches")) is False


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
@pytest.mark.parametrize(("theorem", "bound"), [("T1", "40"), ("T2", "18"), ("T3", "12")])
def test_a_scan_with_no_triple_writes_no_row(runner, theorem, bound, fmt):
    # no empty line, which no JSON Lines reader accepts; CSV keeps its header
    result = runner.invoke(main, ["scan", theorem, bound, "--format", fmt])
    assert result.exit_code == 0
    assert result.stdout == ("theorem,triple,hypotheses_ok,po_order,h1_order,product_e,"
                             "claim_matches,epsilon,epsilon_in_allowed_set,epsilon_witness,"
                             "unit_norms,anomalies\n" if fmt == "csv" else "")


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


# sha256 of each command's stdout in each format; every command exits 0.
COMMAND_DIGESTS = {
    ("classify-quadratic", "10"): {
        "json": "2dace6c79c7f497ea17b28b5ddb9a74fd0773ddb6dc245a8e374ca12de8ee866",
        "csv": "4077c5caf13bd9b0f6aa1bfa0e51d6884c291b2dd51af35f3d3cb0e6c8605ef1",
        "text": "ad436d39e7f63c7f2fa1a7d5c2ac980c3fea33f8fdca1e627824787fca84519f"},
    ("classify-quadratic", "1021"): {
        "json": "82a3ce0eabfacd8cc902a8dabac00f132cd7d504fbef463a6bb30c5739da08e6",
        "csv": "76a040a30771b15593cd3478f74e12f685b7ec4842ddc25f518877406477ee43",
        "text": "4e431e405d0aa7e26a03cb50ef00da9ba5bf646d77b5d313f99ea0bab3b61ea7"},
    ("classify-quadratic", "123456791"): {
        "json": "9dce4cac23ae2ae89a5e732e60be46b31962ebfc1c1663f61cb95917bd8be44b",
        "csv": "c6760b0eb8db948fa1ce0c14f608aba37c6455c3301b0198e2c7be55b1751c1f",
        "text": "61f4e4a3c44171b6487c173feda5ec7371944ccbbbb848f21374cb9e66cb4e76"},
    ("classify-quadratic", "-1"): {
        "json": "7b7d3b436bc1ef6377eadcb4a7c44ef70c6ccb6f262938f19eb3dbfc8a78b80a",
        "csv": "f55adee306a6ae03209a3085089969cd3a19a7d5fc8cac5e781110c70eb9c876",
        "text": "717909e721b2eaa2cea35b46825f7c5067666fce8c78f9b5ad254b0a6a181a1a"},
    ("analyze", "2", "85"): {
        "json": "d2fe5b7929d7b728a3c41705e58383c9ae7ddc58b109501b55bf5359624e2ca1",
        "csv": "7ccb6f0930c50079a81f31135607b10df02b89378bdff873faf6b7d6171abde5",
        "text": "5d300ec381bfad5b0073c165cbe8dad54187d380b2bc439dedc0f55f2c1bb98e"},
    ("analyze", "1000000007", "998244353"): {
        "json": "80ba2c3fb537f5a904079e8eb52811944e61af32138e40ea9dc43d5875a71e75",
        "csv": "a40b365407f0138ed311f0ac389878f93f5019be480eb6f8a6780b580de7a285",
        "text": "7a22a832856c5cfcc7fc5b2a314772827164fb97f411ecccfe4bd7f9b6817e3e"},
    # index factor 2: 2 totally ramified and +-2 a norm in every subfield
    ("analyze", "2", "3"): {
        "json": "ece86169453d13c43cc6a96f5d59fc2458215a1f12af0ab7628d45e1a415cdda",
        "csv": "2595b77088465c239e00f0227ba057464c31f1a9a162259d7550e015d4862af0",
        "text": "5057a7a058a5b4bbbb0494ee63835a54b80f5e6233957aa8133bde17605a46be"},
    ("analyze", "2", "7"): {
        "json": "893669e5405c28f8cff4f97fd630b431694162686d7f58ccb086b4f823dcf00a",
        "csv": "82a3c692ba993e51db37664f98cf5a9a9884584dd5efb3199c264d03d173fb6b",
        "text": "c1a0ebffb9691540512a79a900a378206585c393a5d4823cb571ba14637079c2"},
    # kernels 6 and 15 have an odd half period h, so their a-class is [d*Q_h]
    ("analyze", "6", "10"): {
        "json": "b49738568c1db44afe4d41f5150bc0977772c677104dcacc645886e1fbd315ed",
        "csv": "f2ed7154cc3eb504679494a44cab25d9003044565b7075019c609e5f29428014",
        "text": "81f687e7536bcd5930d11995ba94ba68d7bb1ee0f246b44f9a900853a85e94d1"},
    # |H| = 32 over five ramified primes, the highest order among the fields
    # with squarefree 1 < m < n <= 300
    ("analyze", "11", "105"): {
        "json": "0909ec64bc68d304789634a7fba5eb06b44f928c6d1bf83ce30a418f6575f8bc",
        "csv": "a93ab82db6952c5441affedcf2b531704020c0f3658f731eef2fc2af761cb7d9",
        "text": "4eeaf6b1c484c3ee12c7c6ce72821f8e6642e9d01713ebf0f8be81a3b3dbbbef"},
    # the longest half periods: third kernels 1000001970000133 (about 2e7
    # steps) and 999999943999999559 (about 1.2e8)
    ("analyze", "10000019", "100000007"): {
        "json": "4540575064f8b72001f27e76afb93c7de6eb0e9dbfc10abca2253834caae5330",
        "csv": "a500f55056056bbe67c39ce5c1b695cc3150b019b2b1f633ea415e26d1a37890",
        "text": "15873cbd6c2d4973af19214fad1a64c13b5c0d40e173463d1c615085249c4318"},
    ("analyze", "999999937", "1000000007"): {
        "json": "aa1541ee0f0ab1e5910a5b855002d38cd59a10e1c245046cde57ad1698d38752",
        "csv": "a870624adbc09440d7ba9656a138dae6d61503614726244669045cc4203034e5",
        "text": "5555d73f2f99e2e861b880194335ffd219e98c8275c71bf613c6804a36c67da4"},
    # the first two large-fields commands of benchmark seed 401
    ("analyze", "46658798722", "5504613353"): {
        "json": "d5de95e05d600e5290c280e8210ef2ebef358f560c6210eb8b1d01f1d3b4125b",
        "csv": "5c73eb524c3164e709b3fb317046d02f1ebb1f3f9d87f7bb310018c32d561b63",
        "text": "3aff2cc9d17ead824b5688711bcc7b12dcedf8afec550aa9d1870adc415c91ab"},
    ("analyze", "53025824986", "66689013007"): {
        "json": "19d173a3fafbf38d1812fe13a385c40fb6669da55372bdca43438bf897db4d29",
        "csv": "8fbffbc070181028ae5d7f07b34801fb59f993504b9bebf8302e47ced8a916a7",
        "text": "fea4aef25fd24bea65279e67ec1054b60318a518bbf176c96abebe1759647067"},
    # the other commands; verify, table and contrast build their CSV rows
    # from their JSON payloads
    ("verify", "t1", "3", "17", "41"): {
        "json": "049b203eb859045af200b4db009fa460151d688cc4b5b453196692e6251dc2a6",
        "csv": "8095af911d115b6e3a7cec9eb7673ceeb718dc73142451fb5e970310a5f52f4a",
        "text": "cf0a3365605a9a9babf7218d14d6d7490f60b768198d247765c1e2da41eb8ead"},
    ("verify", "t3", "5", "17"): {
        "json": "f1a90751fce12aa136f63d4c1bf7961a45d8b8493b4e20822b53b22df8d6840d",
        "csv": "d44e42c2135703f5867573f2b1a341ad374f240c2ed890dc095cd558a5a492d0",
        "text": "7d40ef17817c7acbc88a122be38c12814de97c714feb69e09be7ac968c03bed9"},
    # T2's proof-step anomaly: its hypotheses force norm +1 for Q(sqrt(qr))
    ("verify", "t2", "19", "3", "17"): {
        "json": "dc8d8b58e7c7ef01e1046fedf935abee914d7e7517179a5a54b82f05c19aabef",
        "csv": "9e2484dde9f8699b2ebb475baa87b01cd17f116a644ff8942b029fbd9f5261b0",
        "text": "870cd7c8dd61ab611dcb5fb3a86ef0eebf57efd70e60185c138a08970500c4dd"},
    # failed hypotheses: the labels of the conditions that broke, no field
    ("verify", "t1", "3", "17", "29"): {
        "json": "6eae8ca30ea930c61199e2654432106ec71852e2b593e5effcff38231a645e4a",
        "csv": "4104ce14fc621c42a553e1771b2268a39774260d871898c21f24601073e01b77",
        "text": "a6f1b13719c7edd7b3efacc1a6567e2076079e8aedbff0fd3e9279d7cc466ea1"},
    ("verify", "t2", "3", "7", "13"): {
        "json": "16e1f246bba9c1a24fc758454e80b13592090b64efeaaaa57d32640c96af2a6d",
        "csv": "3abf2791d80bbd60e92e68f38602a682d764327b081cdbbc0fbc6eb215ad580a",
        "text": "fb597588faeac70987465b675dbf7dbaf9bc5b71f66daac3fa7618f9691c4a13"},
    ("verify", "t3", "2", "5"): {
        "json": "35377a7147e2a5c44585ddf382601830e0a30793e686b09d18ab8645395886e4",
        "csv": "9e28a76f592d0649412b115ecc3d023319dd3d297d178d2e1c87dcb6eaf0cf9f",
        "text": "ae6d319bf856c6bf42fb735118e132fd73e0340ec0af0cc6e55b249135f9155c"},
    ("scan", "T3", "40"): {
        "json": "dec586f8d8cb987794dc6e01e6d2dbb7c7baa865e24b823305ddb257d849b100",
        "csv": "053f66ea63ab9a1aaa5ec5ac7a3f68a712ae1e11a45bdbbe0529400d696897fb",
        "text": "73b5eaa45ab427c819179984a4747eff65787a402d6cb314ef4ad9203c7c6283"},
    ("table",): {
        "json": "ea57ca963dd78fb6106f8e19d682d4f8410131fcc6561a498ba5b69b9424355a",
        "csv": "9d5b778aead9bef71fdb9b08c31172cd2bcd1ca7266463c39581ff0466629176",
        "text": "36b3a165c833807964108c74c875a9d573a0d259c021178948fd4bdde76dcacc"},
    ("contrast", "3", "7", "13"): {
        "json": "bb14110b0b25e7f5a7d3a2c9592066e06c388ff1b3f6e8f1aa24641ab280ae6e",
        "csv": "ef676bd309f86af02665ab71be61b3ad3ab427886643e3980660a970a316331f",
        "text": "57eab07dc2ac893ec257bc594806dcac3ee12de40d72880bdb542f9cf320f559"},
    ("pollack", "13"): {
        "json": "4b014021eb4d413cb5a4fe6b7985a819067308ef342283b749ecf48dc34e7e25",
        "csv": "d036ea44c6f2d43a17c63804e79dcb877a018e36cb60c20a313fc604c770a91b",
        "text": "d11f43e13b357da557d89d56bf5e4cfe752965c74590d24bce3eab05b00bccea"},
}


@pytest.mark.parametrize(("command", "fmt"), [
    pytest.param(c, f, id=f"{' '.join(c)}-{f}")
    for c in COMMAND_DIGESTS for f in ("json", "csv", "text")])
def test_command_output_is_pinned_per_format(runner, command, fmt):
    name, *args = command
    result = runner.invoke(main, [name, "--format", fmt, "--", *args])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == COMMAND_DIGESTS[command][fmt]


def test_analyze_factors_only_its_arguments(runner, factor_calls):
    # the coprime pieces g = gcd(m, n), m/g and n/g once each, and nothing
    # else: never m*n (about 2.6e20 for the first pair), no kernel again (the
    # field validated them, and 998244359987710471, the third kernel of the
    # second pair, would need a Pollard rho) and no half-period denominator
    # Q_h, whose square class follows from Q_h dividing 2*delta.  The first
    # pair shares g = 99973, so m and n are never factored whole; the second
    # is coprime, so its pieces are m and n themselves
    for m, n, pieces in ((46658798722, 5504613353, [99973, 466714, 55061]),
                         (1000000007, 998244353, [1000000007, 998244353])):
        quadratic._kernel_invariants.cache_clear()
        factor_calls.clear()
        assert runner.invoke(main, ["analyze", str(m), str(n)]).exit_code == 0
        assert factor_calls == pieces


@pytest.mark.parametrize("d", [-7, -5, 10, 79, 65, 21, 30030])
def test_classify_quadratic_factors_only_its_radicand(runner, factor_calls, d):
    # imaginary fields, d = 5 mod 8 (half-integral units) and the ramified
    # decider, whose square test on 2*delta*g*side*l needs no factoring; the
    # CLI's check, Zantema's cases, the oracle's ramified primes and norm
    # equations and the unit all read the primes of d from one memo, so |d|
    # is factored exactly once
    result = runner.invoke(main, ["classify-quadratic", "--", str(d)])
    assert result.exit_code == 0
    assert factor_calls == [abs(d)]


def test_radicand_memo_follows_the_budget(runner):
    # 1022117 = 1009 * 1013 is past trial division, so factoring it runs
    # Pollard rho, which a budget of 1 cannot finish.  A memo keyed on d
    # alone would hand the second command the primes the first one found and
    # exit 0 there; keyed on (d, budget) the second command factors again
    args = ["classify-quadratic", "1022117"]
    assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, args + ["--budget-factor", "1"])
    assert result.exit_code == 4
    assert "undecided" in result.output
    assert runner.invoke(main, args).exit_code == 0


def test_output_flag_writes_file(runner, tmp_path):
    target = tmp_path / "rows.jsonl"
    result = runner.invoke(main, ["analyze", "2", "85", "--format", "json",
                                  "--output", str(target)])
    assert result.exit_code == 0
    assert json.loads(target.read_text())["po_order"] == 2


def test_output_that_cannot_be_opened_is_a_usage_error(runner, tmp_path):
    target = tmp_path / "missing" / "out.txt"
    result = runner.invoke(main, ["pollack", "13", "--output", str(target)])
    assert result.exit_code == 2
    assert (f"Invalid value for '--output': cannot write {target}: "
            "No such file or directory") in result.output


def test_pollack_examples(runner):
    result = runner.invoke(main, ["pollack", "13", "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert (payload["p"], payload["q"]) == (7, 5)
    assert runner.invoke(main, ["pollack", "11"]).exit_code == 2


def is_prime_by_trial(n: int) -> bool:
    return n > 1 and all(n % k for k in range(2, math.isqrt(n) + 1))


def test_pollack_large_r_stops_at_the_answer(runner):
    r = 1000000007
    result = runner.invoke(main, ["pollack", str(r), "--format", "json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    p, q = payload["p"], payload["q"]
    assert payload["r"] == r and p % 4 == 3 and q % 4 == 1

    def non_residue(v: int) -> bool:   # Euler's criterion, independent of jacobi
        return pow(v, (r - 1) // 2, r) == r - 1

    assert is_prime_by_trial(p) and is_prime_by_trial(q)
    assert non_residue(p) and non_residue(q)
    assert not any(is_prime_by_trial(v) and non_residue(v) for v in range(3, p, 4))
    assert not any(is_prime_by_trial(v) and non_residue(v) for v in range(5, q, 4))


def test_contrast_factors_nothing(runner, factor_calls):
    # the field Q(sqrt(3), sqrt(91)) is built from the triple's primes, and
    # its kernels' invariants read the primes the field holds
    quadratic._kernel_invariants.cache_clear()
    assert runner.invoke(main, ["contrast", "3", "7", "13"]).exit_code == 0
    assert factor_calls == []


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
    # 3 and 100160063 = 10007 * 10009 are coprime, so analyze factors
    # 100160063 whole, which is past trial division and needs Pollard rho
    args = ["analyze", "3", "100160063"]
    assert runner.invoke(main, args).exit_code == 0
    result = runner.invoke(main, args + ["--budget-factor", "1"])
    assert result.exit_code == 4
    assert "exhausted on 100160063" in result.output
    assert runner.invoke(main, args).exit_code == 0
    # 10007 and 100160063 share g = 10007, so analyze factors the pieces
    # 10007 and 10009, which trial division splits: no rho, and a budget of
    # 1 reports the same field as the default budget
    args = ["analyze", "10007", "100160063"]
    default = runner.invoke(main, args)
    tight = runner.invoke(main, args + ["--budget-factor", "1"])
    assert default.exit_code == tight.exit_code == 0
    assert tight.stdout_bytes == default.stdout_bytes


def test_budget_factor_is_restored_after_a_usage_error(runner):
    # 12 is not squarefree, so the command stops with exit 2 after its budget
    # of 1 was set; the next command must run with the default budget again.
    # 3 and 100160063 are coprime, so the next command factors 100160063
    # whole, which needs Pollard rho and exits 4 under a budget of 1
    result = runner.invoke(main, ["analyze", "12", "5", "--budget-factor", "1"])
    assert result.exit_code == 2
    assert runner.invoke(main, ["analyze", "3", "100160063"]).exit_code == 0


@pytest.mark.parametrize("args", [["analyze", "2", "85"], ["scan", "T3", "60"]])
def test_budget_factor_must_be_positive(runner, args):
    result = runner.invoke(main, args + ["--budget-factor", "0"])
    assert result.exit_code == 2
    assert "--budget-factor must be positive" in result.output
    result = runner.invoke(main, args, env={"POLYA_FACTOR_BUDGET": "0"})
    assert result.exit_code == 2
    assert "--budget-factor must be positive" in result.output


def test_budget_env_variable_is_read(runner):
    result = runner.invoke(main, ["analyze", "2", "85"],
                           env={"POLYA_FACTOR_BUDGET": "100000"})
    assert result.exit_code == 0
    result = runner.invoke(main, ["analyze", "2", "85"],
                           env={"POLYA_FACTOR_BUDGET": "-5"})
    assert result.exit_code == 2


# The command-line grammar, as click 8.4 parsed it: each usage error's argv,
# the usage line it prints (None: the error alone) and its message.
USAGE_ERRORS = [
    (["nosuch"], "main [OPTIONS] COMMAND [ARGS]...", "No such command 'nosuch'."),
    (["--", "--bogus"], "main [OPTIONS] COMMAND [ARGS]...", "No such option '--bogus'."),
    (["analyze", "2"], "main analyze [OPTIONS] M N", "Missing argument 'N'."),
    (["analyze", "2", "x"], "main analyze [OPTIONS] M N",
     "Invalid value for 'N': 'x' is not a valid integer."),
    (["analyze", "2", "85", "7"], "main analyze [OPTIONS] M N",
     "Got unexpected extra argument (7)"),
    (["analyze", "--", "2", "85", "--format", "json"], "main analyze [OPTIONS] M N",
     "Got unexpected extra arguments (--format json)"),
    (["analyze", "--format", "xml", "2", "85"], "main analyze [OPTIONS] M N",
     "Invalid value for '--format': 'xml' is not one of 'text', 'json', 'csv'."),
    (["analyze", "--fromat", "json", "2", "85"], "main analyze [OPTIONS] M N",
     "No such option '--fromat'. Did you mean '--format'?"),
    (["analyze", "-5", "85"], "main analyze [OPTIONS] M N", "No such option '-5'."),
    (["analyze", "2", "85", "--jobs", "2"], "main analyze [OPTIONS] M N",
     "No such option '--jobs'."),
    (["analyze", "2", "85", "--strict"], "main analyze [OPTIONS] M N",
     "No such option '--strict'."),
    (["analyze", "2", "85", "--format"], None, "Option '--format' requires an argument."),
    (["table", "--help=1"], None, "Option '--help' does not take a value."),
    (["analyze", "2", "85", "--budget-factor", "x"], "main analyze [OPTIONS] M N",
     "Invalid value for '--budget-factor': 'x' is not a valid integer."),
    (["table", "--jobs", "x"], "main table [OPTIONS]",
     "Invalid value for '--jobs': 'x' is not a valid integer."),
    (["verify", "t1", "x"], "main verify [OPTIONS] THEOREM [PRIMES]...",
     "Invalid value for '[PRIMES]...': 'x' is not a valid integer."),
    # no command takes --strict; the two that take bare negatives read it
    # as a positional integer
    (["classify-quadratic", "--strict", "79"], "main classify-quadratic [OPTIONS] D",
     "Invalid value for 'D': '--strict' is not a valid integer."),
    (["verify", "t3", "5", "17", "--strict"], "main verify [OPTIONS] THEOREM [PRIMES]...",
     "Invalid value for '[PRIMES]...': '--strict' is not a valid integer."),
    (["scan", "T3", "60", "--strict"], "main scan [OPTIONS] THEOREM BOUND",
     "No such option '--strict'."),
    (["table", "--strict"], "main table [OPTIONS]", "No such option '--strict'."),
    (["pollack", "13", "--strict"], "main pollack [OPTIONS] R", "No such option '--strict'."),
    (["contrast", "3", "7", "13", "--strict"], "main contrast [OPTIONS] P Q R",
     "No such option '--strict'."),
    # only scan and table take the ignored --jobs
    (["verify", "t3", "5", "17", "--jobs", "2"], "main verify [OPTIONS] THEOREM [PRIMES]...",
     "Invalid value for '[PRIMES]...': '--jobs' is not a valid integer."),
    (["contrast", "3", "7", "13", "--jobs", "2"], "main contrast [OPTIONS] P Q R",
     "No such option '--jobs'."),
]


@pytest.mark.parametrize(("argv", "usage", "message"), USAGE_ERRORS,
                         ids=[" ".join(case[0]) for case in USAGE_ERRORS])
def test_usage_errors_keep_their_layout_and_wording(runner, argv, usage, message):
    result = runner.invoke(main, argv)
    assert result.exit_code == 2
    assert result.stdout == ""
    if usage is None:
        assert result.stderr == f"Error: {message}\n"
    else:
        path = usage.split(" [OPTIONS]")[0]
        assert result.stderr == (f"Usage: {usage}\nTry '{path} --help' for help.\n\n"
                                 f"Error: {message}\n")


def test_budget_env_variable_is_checked_as_an_integer(runner):
    result = runner.invoke(main, ["analyze", "2", "85"], env={"POLYA_FACTOR_BUDGET": "x"})
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        "Error: Invalid value for '--budget-factor': 'x' is not a valid integer.")


def test_output_directory_is_refused_before_any_work(runner, tmp_path, monkeypatch):
    def refuse():
        raise AssertionError("the table was computed")

    monkeypatch.setattr(cli, "verify_table", refuse)
    result = runner.invoke(main, ["table", "--output", str(tmp_path)])
    assert result.exit_code == 2
    assert result.stderr.splitlines()[-1] == (
        f"Error: Invalid value for '--output': File '{tmp_path}' is a directory.")


def test_bare_command_prints_help_on_stderr(runner):
    result = runner.invoke(main, [])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("Usage: main [OPTIONS] COMMAND [ARGS]...\n")
    for name in ("analyze", "classify-quadratic", "contrast", "pollack", "scan", "table",
                 "verify"):
        assert f"  {name} " in result.stderr


@pytest.mark.parametrize(("argv", "usage", "summary", "options"), [
    (["--help"], "main [OPTIONS] COMMAND [ARGS]...",
     "Polya groups of real quadratic and totally real bi-quadratic fields.", ["--help"]),
    (["analyze", "--help"], "main analyze [OPTIONS] M N",
     "Full Polya report for the bi-quadratic field Q(sqrt(M), sqrt(N)).",
     ["--format [text|json|csv]", "--output FILE", "--budget-factor INTEGER", "--help"]),
    (["scan", "--help"], "main scan [OPTIONS] THEOREM BOUND",
     "Verify every admissible triple with max prime <= BOUND.",
     ["--format [text|json|csv]", "--output FILE", "--budget-factor INTEGER", "--help"]),
    # a command name that looks like an option is parsed once more, as click does
    (["--", "--help"], "main [OPTIONS] COMMAND [ARGS]...",
     "Polya groups of real quadratic and totally real bi-quadratic fields.", ["--help"]),
])
def test_help_shows_usage_summary_and_visible_options(runner, argv, usage, summary, options):
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert result.stdout.startswith(f"Usage: {usage}\n\n")
    assert summary in result.stdout
    for option in options:
        assert f"\n  {option}  " in result.stdout
    assert "--jobs" not in result.output and "--strict" not in result.output


@pytest.mark.parametrize("spellings", [
    [["analyze", "--format=json", "2", "85"], ["analyze", "--format", "json", "2", "85"],
     ["analyze", "2", "85", "--format", "json"]],
    [["classify-quadratic", "-7"], ["classify-quadratic", "--", "-7"]],
    [["scan", "T3", "60", "--jobs", "2"], ["scan", "T3", "60"]],
], ids=["format", "negative", "jobs"])
def test_equivalent_spellings_give_equal_stdout(runner, spellings):
    results = [runner.invoke(main, argv) for argv in spellings]
    assert [r.exit_code for r in results] == [0] * len(spellings)
    assert results[0].stdout_bytes
    assert len({r.stdout_bytes for r in results}) == 1


def test_verify_takes_a_bare_negative_prime(runner):
    result = runner.invoke(main, ["verify", "t1", "3", "-17", "41"])
    assert result.exit_code == 0
    assert result.output.startswith("T1 (3, -17, 41): hypotheses FAIL\n")


def test_runtime_needs_no_click():
    # a fresh interpreter in which `import click` fails runs one command
    code = ("import sys\n"
            "sys.modules['click'] = None\n"
            "from polya.cli import main\n"
            "rv = main.main(['analyze', '2', '85', '--format', 'json'], standalone_mode=False)\n"
            "sys.stdout.flush()\n"
            "print(repr(rv), file=sys.stderr)\n")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("POLYA_FACTOR_BUDGET", None)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=60)
    assert proc.stderr == b"0\n"
    assert proc.stdout == (
        b'{"m": 2, "n": 85, "deltas": [2, 85, 170], "ramification": [[2, 2], [5, 2], '
        b'[17, 2]], "product_e": 8, "h_generators": ["[2]", "[85]", "[170]", "[1]", "[1]", '
        b'"[1]"], "h_order": 4, "index_factor": 1, "h1_order": 4, "po_order": 2, '
        b'"po_structure": "Z/2", "unit_norms": [-1, -1, -1], "polya": false}\n')


EXIT_CODES = {0, 2, 3, 4}
ints = st.integers(min_value=-10 ** 4, max_value=10 ** 4)
scan_bounds = st.integers(min_value=-5, max_value=60)
theorem_names = st.sampled_from(["t1", "t2", "t3", "T1", "T2", "T3", "t4"])


def _argv(name: str, *parts: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda values: [name, *(str(v) for v in values)])


commands = st.one_of(
    _argv("classify-quadratic", ints),
    _argv("analyze", ints, ints),
    st.tuples(theorem_names, st.lists(ints, max_size=4)).map(
        lambda t: ["verify", t[0], *(str(v) for v in t[1])]),
    _argv("scan", theorem_names, scan_bounds),
    st.just(["table"]),
    _argv("pollack", ints),
    _argv("contrast", ints, ints, ints),
)

# --output only under a directory that does not exist, so nothing is written
MISSING_OUTPUT = os.path.join(os.path.dirname(__file__), "no-such-directory", "out.txt")
OPTION_VALUES = {"--format": ["text", "json", "csv", "xml", ""],
                 "--budget-factor": ["-1", "0", "5", "x"],
                 "--jobs": ["1", "2", "x"],
                 "--output": [MISSING_OUTPUT]}
valued_option = st.sampled_from(sorted(OPTION_VALUES)).flatmap(
    lambda name: st.tuples(st.sampled_from(OPTION_VALUES[name]), st.booleans()).map(
        lambda t: [f"{name}={t[0]}"] if t[1] else [name, t[0]]))
option_tokens = st.lists(
    st.one_of(valued_option, st.sampled_from([["--strict"], ["--help"], ["--fo"], ["-x"]])),
    max_size=2).map(lambda groups: [token for group in groups for token in group])
# an option whose value is missing at the end of the line
dangling_option = st.sampled_from([[], [], ["--format"], ["--budget-factor"], ["--jobs"],
                                   ["--output"]])


@st.composite
def cli_argv(draw) -> list[str]:
    """A command line: options before and after the positionals, or options
    and then `--`, so that negative integers reach every command."""
    name, *args = draw(commands)
    before = draw(option_tokens)
    if draw(st.booleans()):
        return [name, *before, "--", *args]
    return [name, *before, *args, *draw(option_tokens), *draw(dangling_option)]


@given(cli_argv())
@settings(max_examples=250, deadline=None)
def test_every_cli_input_ends_with_a_documented_exit_code(argv):
    assert not os.path.exists(os.path.dirname(MISSING_OUTPUT))
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in EXIT_CODES, (argv, result.exception)


# squarefree parts of draws from [-10^8, 10^8]: distinct positive ones other
# than 1 name totally real fields, whose third kernel m*n/gcd(m, n)^2 reaches
# 1e16 with a half period of millions of steps, seconds each for the linear
# walk; the others must exit 2
kernels_to_1e8 = st.integers(min_value=-10 ** 8, max_value=10 ** 8).map(
    lambda v: arith.squarefree_part(v) if v else 0)


@given(kernels_to_1e8, kernels_to_1e8)
@settings(max_examples=30, deadline=None)
def test_analyze_of_long_periods_ends_with_a_documented_exit_code(m, n):
    result = CliRunner().invoke(main, ["analyze", "--", str(m), str(n)])
    assert result.exit_code in EXIT_CODES, (m, n, result.exception)
    if m > 1 and n > 1 and m != n:
        assert result.exit_code == 0, (m, n, result.exception)


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="the unit of Q(sqrt(1000000007)) has more than 4300 digits, "
                          "over Python's int-to-str limit")
@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_classify_quadratic_of_a_long_unit_keeps_the_exit_code_contract(runner, fmt):
    result = runner.invoke(main, ["classify-quadratic", "1000000007", "--format", fmt])
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    assert result.exit_code in EXIT_CODES


@pytest.mark.xfail(raises=ValueError, strict=True,
                   reason="the epsilon split of the witness kernel 643*587*641 has an m "
                          "of more than 4300 digits, over Python's int-to-str limit")
def test_verify_of_a_long_witness_split_keeps_the_exit_code_contract(runner):
    # text prints no split and exits 0; json prints m and n as decimal strings
    result = runner.invoke(main, ["verify", "t2", "643", "587", "641", "--format", "json"])
    if not isinstance(result.exception, (SystemExit, type(None))):
        raise result.exception
    assert result.exit_code in EXIT_CODES
