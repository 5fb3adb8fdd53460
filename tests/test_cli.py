"""Command-line plumbing: outputs, reports, caching, exit codes."""

import hashlib
import json
import os
import platform
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from mpmath import mp

from overrank import bounds, cli, counts
from overrank.cli import main
from overrank.counts import rank_class_table, save_table
from overrank.report import Report, RunConfig
from overrank.verify import verify_subadditivity

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = README.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_pbar(capsys):
    code, out = run_cli(capsys, "count", "--n", "4")
    assert code == 0
    assert "value=14" in out


def test_count_rank_class_row(capsys):
    code, out = run_cli(capsys, "count", "--n", "3", "--c", "3")
    assert code == 0
    assert "a=0 value=4" in out and "a=1 value=2" in out and "a=2 value=2" in out


def test_count_single_class(capsys):
    code, out = run_cli(capsys, "count", "--n", "0", "--c", "5", "--a", "0")
    assert code == 0
    assert "value=1" in out


def test_count_single_class_labels_its_residue(capsys):
    # --a is reduced mod c, and the record names the class it counts
    _, row = run_cli(capsys, "count", "--n", "5", "--c", "3")
    for a, residue in (("-1", 2), ("7", 1), ("2", 2)):
        code, out = run_cli(capsys, "count", "--n", "5", "--c", "3", "--a", a)
        assert code == 0
        line = next(line for line in out.splitlines() if line.startswith("count "))
        assert line in row.splitlines() and f" a={residue} " in line, (a, line)


def test_count_range_guard(capsys):
    code = main(["count", "--n", "50", "--n-max", "10"])
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])  # missing required --n
    assert exc.value.code == 2


def test_unexpected_exception_exit_code(capsys, monkeypatch):
    def boom(*args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_count", boom)
    assert main(["count", "--n", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: RuntimeError(")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("verdicts,expected", [
    (["pass"], 0), ([], 0), (["inconclusive"], 1), (["fail"], 1)])
def test_exit_code_follows_returned_verdicts(capsys, monkeypatch, verdicts, expected):
    # main alone maps a command's verdicts to the exit code, times it and prints its report
    def command(args, report):
        report.add("probe", n=args.n)
        report.timings["probe_s"] = 0.0
        return verdicts

    monkeypatch.setattr(cli, "cmd_count", command)
    code, out = run_cli(capsys, "count", "--n", "4")
    assert code == expected
    lines = out.splitlines()
    assert lines[0] == "report schema=1 command=count" and lines[-1] == "end"
    assert lines.count("end") == 1 and "probe n=4" in lines
    timings = [line for line in lines if line.startswith("timings ")]
    assert len(timings) == 1
    assert [kv.split("=")[0] for kv in timings[0].split()[1:]] == ["probe_s", "total_s"]


def test_readme_command_line_examples_exit_0(capsys):
    # every `overrank` line of the README's "Command line" block runs and passes
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
                if line.startswith("overrank ")]
    assert commands
    for argv in commands:
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out.endswith("\nend\n"), argv


def test_asymptotic_side_by_side(capsys):
    code, out = run_cli(capsys, "asymptotic", "--a", "1", "--c", "3",
                        "--n", "400", "--n-max", "400")
    assert code == 0
    assert "exact=" in out and "estimate=" in out
    assert "envelope_verdict=pass" in out


def test_asymptotic_rejects_n_outside_the_envelope_domain(capsys):
    # the envelope verdict needs n >= 2, as the bounds command does
    for command in (("asymptotic", "--a", "1", "--c", "3"), ("bounds", "--c", "3")):
        code = main([*command, "--n", "1"])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: need n >= 2"


def test_asymptotic_exact_unavailable(capsys):
    code, out = run_cli(capsys, "asymptotic", "--a", "1", "--c", "3",
                        "--n", "500", "--n-max", "100")
    assert code == 0  # nothing to verify, nothing failed
    assert "exact=unavailable" in out


def test_bounds_verdicts(capsys):
    code, out = run_cli(capsys, "bounds", "--c", "3", "--n", "2089")
    assert code == 0
    assert "threshold_verdict lower=pass upper=pass" in out
    assert "aux_inequality" in out
    code, out = run_cli(capsys, "bounds", "--c", "6", "--n", "100")
    assert code == 0
    assert "giant_threshold" in out


@pytest.mark.parametrize("c", range(3, 15))
def test_bounds_prints_giant_threshold_in_full(capsys, c):
    # n_min has 5,941 digits at c = 8 and 54,564 at c = 14, past the default
    # int-to-str limit of 4300 digits; its digits come from its binary form
    # and must equal Decimal's, which takes time quadratic in their number
    code, out = run_cli(capsys, "bounds", "--c", str(c), "--n", "2089",
                        "--format", "json-lines")
    assert code == 0
    rec = [json.loads(line) for line in out.splitlines()
           if '"record": "threshold"' in line][0]
    assert rec["n_min"] == format(Decimal(bounds.sandwich_threshold(c).n_min), "f")


def test_bounds_threshold_verdict_checks_ratio_at_threshold(capsys, monkeypatch):
    # above n_min the row is still checked against R_3(2089) ~ 0.33142, not
    # against the vanishing R_3(n): an upper coefficient of 0.6647 leaves
    # 0.6647 - 1/3 ~ 0.33137 < R_3(2089), so the row fails at either n
    code, out = run_cli(capsys, "bounds", "--c", "3", "--n", "20050")
    assert code == 0
    assert "threshold_verdict lower=pass upper=pass" in out
    lead, tail, _ = bounds.TABULATED[3]
    monkeypatch.setitem(bounds.TABULATED, 3, (lead, tail, ("0.0019", "0.6647", 2089)))
    for n in ("2089", "20050"):
        code, out = run_cli(capsys, "bounds", "--c", "3", "--n", n)
        assert code == 1, n
        assert "threshold_verdict lower=pass upper=fail" in out, n
    # a lower coefficient above 1/c leaves 1/c - lower < 0 < R_3(2089)
    monkeypatch.setitem(bounds.TABULATED, 3, (lead, tail, ("0.8", "0.6648", 2089)))
    code, out = run_cli(capsys, "bounds", "--c", "3", "--n", "20050")
    assert code == 1
    assert "threshold_verdict lower=fail upper=pass" in out


def test_bounds_threshold_verdict_fails_on_a_planted_ratio_coefficient(capsys, monkeypatch):
    # R_3's e^{-pi sqrt n} n^{5/4} coefficient 1% high, 5.3711e57 -> 5.424811e57,
    # lifts R_3(2089) from 0.331417 to 0.334731, above both 1/3 - 0.0019 ~ 0.331433
    # and 0.6648 - 1/3 ~ 0.331467, so the unchanged sandwich row fails both ways
    lead, (k075, _, k1875), sandwich = bounds.TABULATED[3]
    monkeypatch.setitem(bounds.TABULATED, 3, (lead, (k075, "5.424811e57", k1875), sandwich))
    code, out = run_cli(capsys, "bounds", "--c", "3", "--n", "2089")
    assert code == 1
    assert "threshold_verdict lower=fail upper=fail" in out


def bounds_report(capsys, *argv):
    code, out = run_cli(capsys, "bounds", *argv, "--format", "json-lines")
    return code, Report.from_json_lines(out)


def test_bounds_reports_selftest_time(capsys):
    bounds._grid_checks.cache_clear()
    runs = [bounds_report(capsys, "--c", "3", "--n", "2089", *extra)
            for extra in ((), (), ("--precision", "200"))]
    assert [code for code, _ in runs] == [0, 0, 0]
    assert runs[0][1].outputs == runs[1][1].outputs
    for _, report in runs:
        assert 0 <= report.timings["selftest_s"] <= report.timings["total_s"]


def test_bounds_selftest_grids_evaluated_once(capsys, monkeypatch):
    bounds._grid_checks.cache_clear()
    calls = []
    log = mp.log

    def counted_log(*args, **kwargs):
        calls.append(args)
        return log(*args, **kwargs)

    monkeypatch.setattr(mp, "log", counted_log)
    logs = []
    for _ in range(2):
        code, _ = run_cli(capsys, "bounds", "--c", "3", "--n", "2089")
        assert code == 0
        logs.append(len(calls))
        calls.clear()
    # a cold self-test takes two logs, ln 1 for log_power_bound and ln((3-1)/2)
    # for log_factor_linear; a warm one takes none
    assert logs == [2, 0], logs


@pytest.mark.parametrize("prec", ("64", "160"))
def test_bounds_outputs_equal_cold_and_warm(capsys, prec):
    for c in ("3", "5", "7"):
        bounds._grid_checks.cache_clear()
        cold = bounds_report(capsys, "--c", c, "--n", "20050", "--precision", prec)
        warm = bounds_report(capsys, "--c", c, "--n", "20050", "--precision", prec)
        assert (cold[0], cold[1].outputs) == (warm[0], warm[1].outputs), (c, prec)


def test_verify_clean_and_dirty(capsys, tmp_path):
    code, out = run_cli(capsys, "verify", "--c", "3", "--n-lo", "9",
                        "--n-hi", "40", "--n-max", "80")
    assert code == 0
    assert sum(1 for ln in out.splitlines() if ln.startswith("certificate ")) == 3
    code, out = run_cli(capsys, "verify", "--c", "3", "--n-lo", "1",
                        "--n-hi", "8", "--n-max", "16")
    assert code == 1  # below-range violations exist and are reported
    # some pair has rhs = 0 < lhs, so the exact minimal margin is 0: the
    # record must say so, as the certificate text does
    certs = [ln for ln in out.splitlines() if ln.startswith("certificate ")]
    assert len(certs) == 3
    for line in certs:
        assert " min_margin=0/1 " in line and "\\nmin_margin 0/1\\n" in line, line


def test_verify_jobs_flag_byte_identical(capsys):
    # --jobs is accepted and has no effect on what a sweep certifies
    argv = ["verify", "--c", "3", "--n-lo", "9", "--n-hi", "120", "--n-max", "240",
            "--format", "json-lines"]
    records = []
    for jobs in ("1", "2"):
        code, out = run_cli(capsys, *argv, "--jobs", jobs)
        assert code == 0
        records.append([line for line in out.splitlines()
                        if '"record": "certificate"' in line])
    assert len(records[0]) == 3
    assert records[0] == records[1]


def test_verify_reports_stage_timings(capsys):
    code, out = run_cli(capsys, "verify", "--c", "4", "--n-lo", "9", "--n-hi", "30",
                        "--n-max", "60", "--format", "json-lines")
    assert code == 0
    report = Report.from_json_lines(out)
    assert set(report.timings) == {"table_cache", "table_n_max", "table_sha256", "table_s",
                                   "sweep_s", "pairs_compared", "total_s"}
    assert report.timings["table_cache"] == "none"
    # c = 4 has 3 distinct columns, 0, {1, 3} and 2, and only they are swept:
    # each of their 3 x 22 rows compares at least its first pair, and the
    # log-concave tails spare most of the 3 x 253 pairs (411 are compared)
    assert 3 * 22 <= report.timings["pairs_compared"] < 3 * 253
    assert not any("pairs_compared" in rec or "pairs_compared" in rec["text"]
                   for rec in report.outputs)
    assert 0 <= report.timings["table_s"] <= report.timings["total_s"]
    assert 0 <= report.timings["sweep_s"] <= report.timings["total_s"]


def test_verify_counts_only_the_pairs_its_sweeps_compare(capsys):
    # c = 5 has 3 distinct columns, 0, {1, 4} and {2, 3}; their sweeps compare
    # 247 + 237 + 207 pairs, and residues 3 and 4 reuse the sweeps of 2 and 1
    code, out = run_cli(capsys, "verify", "--c", "5", "--n-lo", "9", "--n-hi", "200",
                        "--n-max", "400", "--format", "json-lines")
    assert code == 0
    assert Report.from_json_lines(out).timings["pairs_compared"] == 691


def test_count_reports_table_cache(capsys, tmp_path):
    argv = ["count", "--n", "7", "--c", "3", "--n-max", "20", "--format", "json-lines"]
    cache = ["--cache", str(tmp_path / "t3.tbl")]
    runs = [Report.from_json_lines(run_cli(capsys, *args)[1])
            for args in (argv, argv + cache, argv + cache)]
    assert [r.timings["table_cache"] for r in runs] == ["none", "built", "hit"]
    for report in runs:
        assert 0 <= report.timings["table_s"] <= report.timings["total_s"]
    # where the table came from shows in the timings only
    assert runs[0].outputs == runs[1].outputs == runs[2].outputs


def test_table_depth_and_checksum_in_timings_only(capsys, tmp_path):
    # every command that takes a table names its depth and checksum in the
    # timings, and neither outputs nor certificate bytes change with the source
    table = rank_class_table(60, 3)
    cache = ["--cache", str(tmp_path / "t3.tbl"), "--n-max", "60"]
    for argv, depth in [
            (["count", "--n", "7", "--c", "3"], 7),
            (["asymptotic", "--a", "1", "--c", "3", "--n", "20"], 20),
            (["verify", "--c", "3", "--n-lo", "9", "--n-hi", "30"], 60)]:
        runs = [Report.from_json_lines(run_cli(capsys, *argv, *extra, "--format", "json-lines")[1])
                for extra in (["--n-max", "60"], cache, cache)]
        assert [r.timings["table_cache"] for r in runs] == ["none", "built", "hit"], argv
        assert [r.timings["table_n_max"] for r in runs] == [depth, 60, 60], argv
        assert runs[0].timings["table_sha256"] == rank_class_table(depth, 3).checksum()
        assert runs[1].timings["table_sha256"] == runs[2].timings["table_sha256"] == table.checksum()
        assert runs[0].outputs == runs[1].outputs == runs[2].outputs, argv
        for record in runs[0].outputs:
            assert "table_n_max" not in record and "table_cache" not in record, argv
            # a certificate names its table; nothing else does
            assert ("table_sha256" in record) == (record["record"] == "certificate"), argv
        (tmp_path / "t3.tbl").unlink()
    certs = [r["text"] for r in runs[0].outputs if r["record"] == "certificate"]
    assert certs == [verify_subadditivity(table, a, 9, 30).serialize() for a in range(3)]


# sha256 of the json-lines records of `asymptotic` other than its timings
# record, as they were before the estimate was timed
ASYMPTOTIC_RECORDS_SHA256 = {
    ("--a", "1", "--c", "3", "--n", "400", "--n-max", "400"):
        "a6d27aedc5245853a15ce19c8b5a502fb0561575ce6bce3176fd7a346abeb205",
    ("--a", "2", "--c", "5", "--n", "2000", "--n-max", "400"):
        "bb066af37de44f944264654a1cd3e5e9aedd04fff40e06f809ba4bde5834f870",
}


@pytest.mark.parametrize("argv", sorted(ASYMPTOTIC_RECORDS_SHA256))
def test_asymptotic_times_its_estimate_in_timings_only(capsys, argv):
    # a one-shot run shows the estimate's own time, and the outputs keep
    # every byte they had without it
    code, out = run_cli(capsys, "asymptotic", *argv, "--format", "json-lines")
    assert code == 0
    report = Report.from_json_lines(out)
    assert 0 < report.timings["estimate_s"] <= report.timings["total_s"]
    assert not any("estimate_s" in record for record in report.outputs)
    records = "".join(line for line in out.splitlines(keepends=True)
                      if json.loads(line)["record"] != "timings")
    assert hashlib.sha256(records.encode()).hexdigest() == ASYMPTOTIC_RECORDS_SHA256[argv]


def test_verify_sweeps_through_one_call_per_residue(capsys, monkeypatch):
    # a tracer that wraps verify_subadditivity sums the pairs of every
    # certificate it returns, so each residue must go through its own call,
    # mirrored columns included
    calls = []
    monkeypatch.setattr(cli, "verify_subadditivity",
                        lambda table, a, n_lo, n_hi: calls.append(a)
                        or verify_subadditivity(table, a, n_lo, n_hi))
    code, out = run_cli(capsys, "verify", "--c", "5", "--a-list", "all", "--n-lo", "9",
                        "--n-hi", "40", "--n-max", "80")
    assert code == 0 and calls == [0, 1, 2, 3, 4]
    certs = [line for line in out.splitlines() if line.startswith("certificate ")]
    assert len(certs) == 5 and all(f" pairs={32 * 33 // 2} " in line for line in certs)


def test_verify_a_list(capsys):
    code, out = run_cli(capsys, "verify", "--c", "4", "--n-lo", "9",
                        "--n-hi", "20", "--a-list", "1,3", "--n-max", "40")
    assert code == 0
    assert "a=1" in out and "a=3" in out and "a=0" not in out


def test_json_lines_round_trip(capsys, tmp_path):
    path = tmp_path / "report.jsonl"
    code, out = run_cli(capsys, "count", "--n", "4", "--format", "json-lines",
                        "--report", str(path))
    assert code == 0
    text = path.read_text()
    assert text == out
    report = Report.from_json_lines(text)
    assert report.command == "count"
    assert report.outputs[0]["value"] == "14"
    assert report.to_json_lines() == text  # lossless round trip


def test_report_embeds_config(capsys):
    code, out = run_cli(capsys, "count", "--n", "2", "--precision", "96",
                        "--format", "json-lines")
    rec = [json.loads(line) for line in out.splitlines()
           if '"record": "config"' in line][0]
    assert rec["precision_bits"] == 96
    assert sorted(rec) == ["cache_path", "n_max", "precision_bits", "record"]


def test_main_leaves_caller_precision(capsys):
    before = mp.prec
    assert main(["count", "--n", "5", "--precision", "96"]) == 0
    assert mp.prec == before
    assert main(["bounds", "--c", "2", "--n", "100", "--precision", "200"]) == 2
    assert mp.prec == before


def test_report_rejects_unknown_config_key(capsys):
    code, out = run_cli(capsys, "count", "--n", "2", "--format", "json-lines")
    lines = out.splitlines()
    config = json.loads(lines[1])
    assert config["record"] == "config"
    # reports written while RunConfig still had a margin_policy or a
    # parallelism field
    for key in ("margin_policy", "parallelism", "bogus"):
        lines[1] = json.dumps({**config, key: 1}, sort_keys=True)
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            Report.from_json_lines("\n".join(lines))


def test_report_without_a_config_record_is_refused(capsys):
    _, out = run_cli(capsys, "count", "--n", "2", "--format", "json-lines")
    lines = out.splitlines()
    assert json.loads(lines.pop(1))["record"] == "config"
    with pytest.raises(ValueError) as exc:
        Report.from_json_lines("\n".join(lines))
    assert str(exc.value) == "missing header or config record"


NOT_A_RECORD = "report line is not an object with a 'record' key: "


@pytest.mark.parametrize("line,edit,message", [
    (2, lambda rec: {k: v for k, v in rec.items() if k != "record"},
     NOT_A_RECORD + """'{"kind": "pbar", "n": 2, "value": "4"}'"""),
    (2, lambda rec: [rec["record"], rec["value"]], NOT_A_RECORD + """'["count", "4"]'"""),
    (2, lambda rec: 5, NOT_A_RECORD + "'5'"),
    (0, lambda rec: {k: v for k, v in rec.items() if k != "inputs"},
     "header record lacks 'inputs'"),
    (1, lambda rec: {**rec, "precision_bits": "abc"},
     "precision_bits must be an integer, got 'abc'"),
    (0, lambda rec: {**rec, "schema_version": 99},
     "report schema_version=99 is unsupported (this version reads 1)"),
    (0, lambda rec: {**rec, "schema_version": True},
     "report schema_version=True is unsupported (this version reads 1)"),
], ids=["no-record-key", "array", "scalar", "header-no-inputs", "precision-abc",
        "schema-99", "schema-true"])
def test_report_rejects_malformed_line_with_one_value_error(capsys, line, edit, message):
    _, out = run_cli(capsys, "count", "--n", "2", "--format", "json-lines")
    lines = out.splitlines()
    lines[line] = json.dumps(edit(json.loads(lines[line])), sort_keys=True)
    with pytest.raises(ValueError) as exc:
        Report.from_json_lines("\n".join(lines))
    assert type(exc.value) is ValueError and str(exc.value) == message


def test_cache_round_trip_and_reuse(capsys, tmp_path):
    cache = tmp_path / "t3.tbl"
    code, out1 = run_cli(capsys, "verify", "--c", "3", "--n-lo", "9",
                         "--n-hi", "30", "--n-max", "60", "--cache", str(cache))
    assert code == 0 and cache.exists()
    code, out2 = run_cli(capsys, "verify", "--c", "3", "--n-lo", "9",
                         "--n-hi", "30", "--n-max", "60", "--cache", str(cache))
    assert code == 0

    def cert_lines(s):
        return [line for line in s.splitlines() if line.startswith("certificate")]

    assert cert_lines(out1) == cert_lines(out2)  # byte-identical certificates
    # a cache with the wrong modulus is refused
    code = main(["verify", "--c", "5", "--n-lo", "9", "--n-hi", "30",
                 "--n-max", "60", "--cache", str(cache)])
    assert code == 2


def test_warm_commands_convert_only_the_counts_they_read(capsys, tmp_path, monkeypatch):
    # a load checks every count but converts none: a one-residue sweep
    # converts its column, and a count converts its row
    cache = tmp_path / "c5.tbl"
    table = rank_class_table(1600, 5)
    save_table(table, cache)
    converted = []

    def counting_int(value, *args):
        if isinstance(value, bytes):
            converted.append(value)
        return int(value, *args)

    monkeypatch.setattr(counts, "int", counting_int, raising=False)
    common = ["--n-max", "1600", "--cache", str(cache), "--format", "json-lines"]
    code, out = run_cli(capsys, "verify", "--c", "5", "--a-list", "2", "--n-lo", "9",
                        "--n-hi", "800", *common)
    assert code == 0 and 0 < len(converted) <= table.n_max + 1
    report = Report.from_json_lines(out)
    assert report.timings["table_cache"] == "hit"
    assert [rec["text"] for rec in report.outputs] == [
        verify_subadditivity(table, 2, 9, 800).serialize()]
    converted.clear()
    code, out = run_cli(capsys, "count", "--n", "777", "--c", "5", *common)
    assert code == 0 and 0 < len(converted) <= table.c
    assert [int(rec["value"]) for rec in Report.from_json_lines(out).outputs] == \
        table.counts[777]


# a cache as the per-cell format 1 wrote it: one line per (n, r, count)
V1_CACHE = """\
rank-class-table format_version=1 c=3 n_max=3
0 0 1
0 1 0
0 2 0
1 0 2
1 1 0
1 2 0
2 0 0
2 1 2
2 2 2
3 0 4
3 1 2
3 2 2
checksum sha256:935aae931eee1c2188ebeb2cacecb3be3b00790848321c5661cf3c861afb857a
"""


def test_format_1_cache_is_rejected(capsys, tmp_path):
    cache = tmp_path / "t3.tbl"
    cache.write_text(V1_CACHE)
    argv = ["count", "--n", "3", "--c", "3", "--n-max", "3", "--cache", str(cache)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == ("error: cache format_version=1 is unsupported (this version reads 2); "
                   "delete the file to rebuild it\n")
    assert cache.read_text() == V1_CACHE
    # rebuilt, the table keeps its checksum: the digest does not depend on the format
    cache.unlink()
    assert main(argv) == 0
    assert cache.read_text().splitlines()[-1] == V1_CACHE.splitlines()[-1]


# every OVERRANK_ variable the removed environment layer read, and --jobs's
_OLD_VARIABLES = ("N_MAX", "PRECISION", "CACHE", "REPORT", "FORMAT", "JOBS")


def test_environment_variables_change_no_output(capsys, monkeypatch, tmp_path):
    # settings come from flags alone: no OVERRANK_ value, however malformed,
    # changes a command's output or exit code, or writes a file
    monkeypatch.chdir(tmp_path)
    commands = (["count", "--n", "5", "--c", "3"],
                ["verify", "--c", "3", "--n-lo", "1", "--n-hi", "20"],
                ["bounds", "--c", "3", "--n", "50"])

    def runs():
        results = []
        for argv in commands:
            code, out = run_cli(capsys, *argv)
            results.append((code, [line for line in out.splitlines()
                                   if not line.startswith("timings ")]))
        return results

    clean = runs()
    for value in ("abc", "xml", ""):
        for name in _OLD_VARIABLES:
            monkeypatch.setenv("OVERRANK_" + name, value)
        assert runs() == clean, value
    assert not any(tmp_path.iterdir())


def test_parser_is_built_once(capsys, monkeypatch):
    build, builds = cli.build_parser, []

    def counted():
        builds.append(1)
        return build()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (["count", "--n", "2"], ["count", "--n", "3", "--c", "3"],
                 ["verify", "--c", "3", "--n-lo", "9", "--n-hi", "20"]):
        assert run_cli(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit):
        main(["count"])
    assert len(builds) == 1


def test_command_is_looked_up_per_call(capsys, monkeypatch):
    # a cmd_* replaced after the parser was built still runs
    assert run_cli(capsys, "count", "--n", "2")[0] == 0
    monkeypatch.setattr(cli, "cmd_count", lambda args, report: ["fail"])
    assert run_cli(capsys, "count", "--n", "2")[0] == 1


def test_environment_fingerprint_starts_no_subprocess():
    # a fresh interpreter, so no platform cache holds uname().processor, whose
    # first read runs `uname -p` in a subprocess
    script = ("import subprocess\n"
              "def refuse(*args, **kwargs):\n"
              "    raise RuntimeError('subprocess started')\n"
              "subprocess.Popen = refuse\n"
              "from overrank.report import environment_fingerprint\n"
              "print(environment_fingerprint()['platform'])\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, check=True).stdout
    # where platform.platform() drops the processor field, the strings agree
    if platform.system() == "Linux" and platform.uname().processor in ("", platform.machine()):
        assert out == platform.platform(terse=True) + "\n"


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(precision_bits=32)
    with pytest.raises(ValueError):
        RunConfig(n_max=-1)


def _header_key_renamed(lines):
    lines[0] = lines[0].replace(" c=3 ", " k=3 ")


def _header_key_missing(lines):
    lines[0] = lines[0].replace(" c=3", "")


def _header_key_extra(lines):
    lines[0] += " order=rank"


# cache lines: the header, rows n = 0..10 of three counts "v0,v1,v2,", the checksum
def _row_count_changed(delta):
    def corrupt(lines):
        counts = lines[1 + 7].split(",")
        lines[1 + 7] = ",".join(counts[1:] if delta < 0 else [counts[0]] + counts)
    return corrupt


def _row_missing(lines):
    del lines[1 + 4]


def _row_extra(lines):
    lines.insert(1 + 11, lines[1 + 10])


def _trailing_bytes(lines):
    lines.append("0,0,0,")


def _duplicate_line(lines):
    lines[1 + 1] = lines[1 + 0]  # row 0 twice and row 1 gone: the row count still matches


def _corrupt_cache(corrupt):
    # `count` reads a depth-10 c=3 cache after `corrupt` edits its lines
    def make_argv(tmp_path):
        cache = tmp_path / "t3.tbl"
        save_table(rank_class_table(10, 3), cache)
        lines = cache.read_text().splitlines()
        corrupt(lines)
        cache.write_text("\n".join(lines) + "\n")
        return ["count", "--n", "5", "--c", "3", "--n-max", "10", "--cache", str(cache)]
    return make_argv


def _header_field(key: bytes, value: bytes):
    # `count` reads a depth-10 c=3 cache whose header sets `key` to the raw bytes `value`
    def make_argv(tmp_path):
        cache = tmp_path / "t3.tbl"
        save_table(rank_class_table(10, 3), cache)
        data = cache.read_bytes()
        old = b" %s=%s" % (key, {b"c": b"3", b"n_max": b"10"}[key])
        assert data.count(old) == 1
        cache.write_bytes(data.replace(old, b" %s=%s" % (key, value)))
        return ["count", "--n", "5", "--c", "3", "--n-max", "10", "--cache", str(cache)]
    return make_argv


def _count_negative_n(tmp_path):
    # a valid cache must not answer for n = -1 with its last row
    cache = tmp_path / "t3.tbl"
    save_table(rank_class_table(10, 3), cache)
    return ["count", "--n", "-1", "--c", "3", "--n-max", "10", "--cache", str(cache)]


def _count_class_without_modulus(tmp_path):
    # --a names a rank class, which means nothing without --c
    return ["count", "--n", "5", "--a", "1"]


def _verify_residue_list(a_list):
    def make_argv(tmp_path):
        return ["verify", "--c", "3", "--n-lo", "1", "--n-hi", "2", "--a-list", a_list]
    return make_argv


def _shallow_cache(tmp_path):
    # a depth-20 cache cannot answer for n = 30, whatever --n-max says
    cache = tmp_path / "t3.tbl"
    assert main(["count", "--n", "5", "--c", "3", "--n-max", "20", "--cache", str(cache)]) == 0
    return ["count", "--n", "30", "--c", "3", "--n-max", "40", "--cache", str(cache)]


def _verify_modulus_zero(tmp_path):
    # the residue list is reduced mod c, so c must be checked before it
    return ["verify", "--c", "0", "--n-lo", "1", "--n-hi", "2", "--a-list", "1"]


@pytest.mark.parametrize("make_argv,message", [
    (_corrupt_cache(_header_key_renamed), "cache header"),
    (_corrupt_cache(_header_key_missing), "cache header"),
    (_corrupt_cache(_header_key_extra), "cache header"),
    (_corrupt_cache(_row_extra), "cache row n=11 lies beyond n_max=10"),
    (_corrupt_cache(_row_missing), "cache row n=10 is missing"),
    (_corrupt_cache(_row_count_changed(+1)), "cache row n=7 holds 4 counts, not c=3"),
    (_corrupt_cache(_row_count_changed(-1)), "cache row n=7 holds 2 counts, not c=3"),
    (_corrupt_cache(_trailing_bytes), "cache has data after its checksum line"),
    (_corrupt_cache(_duplicate_line), "cache checksum mismatch"),
    (_header_field(b"c", b"\xff"), "bad cache header: c=\\xff is not a plain decimal integer"),
    (_header_field(b"c", b"x"), "bad cache header: c=x is not a plain decimal integer"),
    (_header_field(b"n_max", b""), "bad cache header: n_max= is not a plain decimal integer"),
    (_header_field(b"c", b"3.0"), "bad cache header: c=3.0 is not a plain decimal integer"),
    # a one-column table is a table, so c = 1 passes the header and the rows refute it
    (_header_field(b"c", b"1"), "cache row n=0 holds 3 counts, not c=1"),
    (_header_field(b"c", b"0"), "bad cache header: c=0 is below 1"),
    # no repetition count of a regular expression can hold these
    (_header_field(b"c", b"1000000000000"), "cache row n=0 holds 3 counts, not c=1000000000000"),
    (_header_field(b"c", b"4294967295"), "cache row n=0 holds 3 counts, not c=4294967295"),
    (_count_negative_n, "--n must be >= 0"),
    (_shallow_cache, "cache reaches n=20, need 30"),
    (_count_class_without_modulus, "--a needs --c"),
    (_verify_modulus_zero, "--c must be >= 2"),
    (_verify_residue_list("1,,2"), "--a-list must be 'all' or comma-separated integers, "
                                   "got '1,,2'"),
    (_verify_residue_list("x"), "--a-list must be 'all' or comma-separated integers, "
                                "got 'x'"),
], ids=["header-key-renamed", "header-key-missing", "header-key-extra",
        "n-above-n-max", "n-missing", "r-above-c", "r-missing", "trailing-bytes",
        "duplicate-line", "header-non-ascii", "header-c-word", "header-n-max-empty",
        "header-c-float", "header-c-one", "header-c-zero", "header-c-huge", "header-c-max-repeat",
        "count-n-negative", "cache-too-shallow", "count-a-without-c", "verify-c-zero",
        "verify-a-list-empty-entry", "verify-a-list-word"])
def test_malformed_cache_exits_2_with_one_line(capsys, tmp_path, make_argv, message):
    # bad input, such as a corrupt cache or a modulus below 2, is one line and exit 2
    code = main(make_argv(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert message in err


@pytest.mark.parametrize("n_lo,n_hi", [(0, 5000), (5, -1), (10, 9)])
def test_verify_bad_range_exits_2_before_any_table(capsys, tmp_path, n_lo, n_hi):
    # the range is checked before a table is built, so no cache is written
    cache = tmp_path / "t3.tbl"
    code = main(["verify", "--c", "3", "--n-lo", str(n_lo), "--n-hi", str(n_hi),
                 "--cache", str(cache)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: need 1 <= n_lo <= n_hi, got n_lo={n_lo} n_hi={n_hi}\n"
    assert not cache.exists()
