"""CLI: parsing, report formats, round-trips, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from zetasum import oracle, primes
from zetasum.cli import main, parse_complex_literal, parse_k_range


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# ----------------------------------------------------------------------
# literal parsing

@pytest.mark.parametrize(
    "text,expected",
    [
        ("2", 2 + 0j),
        ("-1.5", -1.5 + 0j),
        ("2+0i", 2 + 0j),
        ("0.5+14.1i", 0.5 + 14.1j),
        ("-3-4i", -3 - 4j),
        ("3i", 3j),
        ("-0.5i", -0.5j),
        ("1e-3+2i", 0.001 + 2j),
        ("1e+3i", 1000j),
        ("2.5e1i", 25j),
    ],
)
def test_parse_complex_literal(text, expected):
    assert parse_complex_literal(text) == expected


@pytest.mark.parametrize("bad", ["", "i", "2+", "2i+3", "1 + 2i", "abc"])
def test_parse_complex_literal_rejects(bad):
    with pytest.raises(ValueError):
        parse_complex_literal(bad)


def test_parse_k_range():
    assert parse_k_range("-2..2") == range(-2, 3)
    assert parse_k_range("0..0") == range(0, 1)
    with pytest.raises(ValueError):
        parse_k_range("2..-2")
    with pytest.raises(ValueError):
        parse_k_range("1-3")


# ----------------------------------------------------------------------
# eval

def test_eval_csv_report(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "2+0i", "--method", "reformulated", "--tol", "1e-6")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["s_re", "s_im", "method", "value_re", "value_im",
                      "terms_used", "tail_error_bound", "elapsed_ns"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["method"] == "reformulated"
    assert abs(float(row["value_re"]) - 1.644934) <= 2e-6
    assert int(row["terms_used"]) > 0
    assert float(row["tail_error_bound"]) <= 1e-6
    assert row["elapsed_ns"] == "0"


def test_eval_csv_round_trips_bit_exactly(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "2.5+3i", "--tol", "1e-7")
    assert code == 0
    header, rows = parse_csv(out)
    for row in rows:
        for col, text in zip(header, row):
            if col in ("s_re", "s_im", "value_re", "value_im", "tail_error_bound"):
                assert format(float(text), ".17g") == text


def test_eval_grid_preserves_input_order(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "3+0i", "--s", "2+0i", "--tol", "1e-5")
    assert code == 0
    _, rows = parse_csv(out)
    assert [row[0] for row in rows] == ["3", "2"]


def test_eval_nonconvergent_exit_code(capsys):
    code, out, err = run_cli(capsys, "eval", "--s", "1+0i")
    assert code == 1
    assert out == ""
    assert "Re(s) > 1" in err


def test_eval_near_boundary_warns_on_stderr(capsys):
    # this close to the boundary the certified cost explodes: the command
    # warns first, then rejects the request instead of grinding forever
    code, out, err = run_cli(capsys, "eval", "--s", "1.005+0i", "--tol", "1e-3",
                             "--method", "dirichlet")
    assert code == 1
    assert "barely above 1" in err
    assert out == ""


def test_eval_unreachable_product_tolerance_exits_1_before_sieving(capsys, monkeypatch):
    cache = primes.PrimeCache()
    monkeypatch.setattr(primes, "_default_cache", cache)
    code, out, err = run_cli(capsys, "eval", "--s", "1.5", "--tol", "1e-6",
                             "--method", "euler_product")
    assert code == 1
    assert out == ""
    assert err == (
        "error: certifying this tolerance needs roughly the first 67108864 primes "
        "(a sieve past 1.538e+09); relax the tolerance or pick another method\n"
    )
    assert len(cache) == 0


def test_eval_timing_flag_fills_elapsed(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "3+0i", "--tol", "1e-6", "--timing")
    assert code == 0
    header, rows = parse_csv(out)
    assert int(dict(zip(header, rows[0]))["elapsed_ns"]) > 0


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["eval", "--s", "2+0x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["eval", "--s", "2+0i", "--method", "bogus"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["eval", "--s", "2+0i", "--tol", "1e-20"])
    assert info.value.code == 2


def test_missing_s_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval")
    assert code == 2
    assert "--s" in err


def test_eval_tolerance_below_method_floor_is_usage_error(capsys):
    # passes the global floor (1e-14) but not the certified-eval floor (1e-12)
    code, _, err = run_cli(capsys, "eval", "--s", "2+0i", "--tol", "1e-13")
    assert code == 2
    assert "tolerance" in err


# ----------------------------------------------------------------------
# other commands

def test_identity_check_report(capsys):
    code, out, _ = run_cli(capsys, "identity-check", "--i", "20", "--s", "0.5+14.1i")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["residual"]) <= 1e-11
    assert float(row["relative_residual"]) <= 1e-11


def test_identity_check_singular_point_exit_1(capsys):
    code, _, err = run_cli(capsys, "identity-check", "--i", "3", "--s", "0+0i")
    assert code == 1
    assert "undefined" in err


@pytest.mark.filterwarnings("error")
def test_identity_check_overflow_writes_one_error_line(capsys):
    code, out, err = run_cli(capsys, "identity-check", "--s", "2i", "--i", "3000")
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: 14009^(-s) exceeds the double-precision range at s = 2j"]


def test_converge_rows_per_step(capsys):
    code, out, _ = run_cli(capsys, "converge", "--s", "4+0i", "--tol", "1e-10",
                           "--methods", "euler_product,dirichlet")
    assert code == 0
    header, rows = parse_csv(out)
    methods_seen = [row[2] for row in rows]
    assert set(methods_seen) == {"euler_product", "dirichlet"}
    euler_rows = [row for row in rows if row[2] == "euler_product"]
    terms = [int(row[4]) for row in euler_rows]
    assert terms == sorted(terms)
    assert float(euler_rows[-1][7]) <= 1e-10


def test_exclusion_compare_table(capsys):
    code, out, _ = run_cli(capsys, "exclusion", "--i", "3", "--k-range", "-2..2", "--compare")
    assert code == 0
    header, rows = parse_csv(out)
    assert header == ["source", "prime", "k", "s_re", "s_im", "factor_gap", "singular"]
    assert len(rows) == 3 * 5 * 2
    for row in rows:
        record = dict(zip(header, row))
        if record["source"] == "definitional":
            assert float(record["factor_gap"]) < 1e-9
            assert record["singular"] == "true"
        else:
            assert abs(float(record["factor_gap"]) - 2.0) < 1e-12
            assert record["singular"] == "false"


def test_oracle_compare_all_pass(capsys):
    code, out, _ = run_cli(capsys, "oracle-compare", "--s", "3+0i", "--i", "3",
                           "--N", "2000", "--tol", "1e-8")
    assert code == 0
    header, rows = parse_csv(out)
    assert rows, "expected at least one check row"
    statuses = {row[-1] for row in rows}
    assert statuses == {"pass"}
    checks = {row[2] for row in rows}
    assert checks == {"smooth_vs_product", "partition_identity", "coefficient_crosscheck"}


ROUNDING_ONLY = ("oracle-compare", "--s", "5+0i", "--s", "2+50i", "--i", "5",
                 "--N", "30000", "--tol", "1e-6")


def test_oracle_compare_smooth_check_allows_rounding(capsys):
    # At s = 5 the Dirichlet tail past 30000 is 3.1e-19, below the rounding
    # of the smooth sum and the product (abs_error 2.2e-16).
    code, out, _ = run_cli(capsys, *ROUNDING_ONLY)
    assert code == 0
    header, rows = parse_csv(out)
    assert {row[-1] for row in rows} == {"pass"}
    smooth = [dict(zip(header, row)) for row in rows if row[2] == "smooth_vs_product"]
    assert [row["s_re"] for row in smooth] == ["5", "2"]
    assert float(smooth[0]["allowed_error"]) < 1e-13


def test_oracle_compare_smooth_check_still_fails_a_wrong_sum(capsys, monkeypatch):
    exact = oracle.smooth_sum_oracle
    monkeypatch.setattr(oracle, "smooth_sum_oracle", lambda i, s, bound: exact(i, s, bound) + 1e-12)
    code, out, _ = run_cli(capsys, *ROUNDING_ONLY)
    assert code == 0
    header, rows = parse_csv(out)
    status = {row[0]: row[-1] for row in rows if row[2] == "smooth_vs_product"}
    assert status == {"5": "fail", "2": "pass"}


def test_oracle_compare_partition_allows_sequential_rounding(capsys):
    # np.bincount adds the 4e6 even terms of row 2 one after another; the
    # partition total is off by 2.2e-12 here, which its allowance covers.
    code, out, _ = run_cli(capsys, "oracle-compare", "--s", "2.5", "--i", "1", "--N", "8000000")
    assert code == 0
    header, rows = parse_csv(out)
    assert {row[-1] for row in rows} == {"pass"}


def test_oracle_compare_partition_check_still_fails_a_wrong_total(capsys, monkeypatch):
    exact = oracle.PartitionTable.total
    monkeypatch.setattr(oracle.PartitionTable, "total", lambda self: exact(self) + 1e-11)
    code, out, _ = run_cli(capsys, "oracle-compare", "--s", "3", "--N", "10000")
    assert code == 0
    header, rows = parse_csv(out)
    status = {row[2]: row[-1] for row in rows if row[2] != "coefficient_crosscheck"}
    assert status == {"smooth_vs_product": "pass", "partition_identity": "fail"}


# ----------------------------------------------------------------------
# formats, files, config

def test_json_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "3+0i", "--tol", "1e-6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert isinstance(payload, list) and len(payload) == 1
    assert payload[0]["method"] == "reformulated"
    assert abs(payload[0]["value_re"] - 1.2020569) < 1e-5


def test_human_format(capsys):
    code, out, _ = run_cli(capsys, "eval", "--s", "3+0i", "--tol", "1e-6", "--format", "human")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split()[:2] == ["s_re", "s_im"]
    assert len(lines) == 2


def test_output_file_matches_stdout(tmp_path, capsys):
    args = ["eval", "--s", "3+0i", "--tol", "1e-6"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    target = tmp_path / "report.csv"
    code = main(args + ["--output", str(target)])
    capsys.readouterr()
    assert code == 0
    assert target.read_text() == out


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# grid\ns=3+0i\nmethod=euler_product\ntol=1e-7\n")
    code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2] == "euler_product"

    code, out, _ = run_cli(capsys, "eval", "--config", str(cfg), "--method", "reformulated")
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0][2] == "reformulated"


def test_config_file_comma_separated_grid(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("s=3+0i,4+0i\ntol=1e-6\n")
    code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 0
    _, rows = parse_csv(out)
    assert [row[0] for row in rows] == ["3", "4"]


def test_config_file_bad_line_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("tol\n")
    code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
    assert code == 2
    assert "key=value" in err


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--s", "2+0i", "--config", "/nonexistent.cfg")
    assert code == 2


# ----------------------------------------------------------------------
# determinism

def run_subprocess(*argv):
    return subprocess.run(
        [sys.executable, "-m", "zetasum", *argv],
        capture_output=True,
        check=False,
    )


def test_repeated_runs_are_byte_identical():
    argv = ("eval", "--s", "2.5+1i", "--method", "euler_product", "--tol", "1e-6")
    first = run_subprocess(*argv)
    second = run_subprocess(*argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout

