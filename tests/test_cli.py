import io
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from mergeinsertion import bounds, exact_analysis
from mergeinsertion.cli import BOUND_N_MAX, EXACT_N_MAX, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sort_from_file(tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text("5\n3\n9\n1\n7\n")
    code, out, err = run_cli(capsys, "sort", str(src))
    assert code == 0
    assert out.splitlines() == ["1", "3", "5", "7", "9"]
    assert "comparisons:" in err


def test_sort_rejects_duplicates(tmp_path, capsys):
    src = tmp_path / "input.txt"
    src.write_text("2\n2\n")
    code, _out, err = run_cli(capsys, "sort", str(src))
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("algorithm", ["mi", "one-two", "combined"])
def test_sort_empty_stdin(algorithm, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code, out, err = run_cli(capsys, "sort", "--algorithm", algorithm)
    assert code == 0
    assert out == ""
    assert err.strip() == "comparisons: 0"


@pytest.mark.parametrize("text", ["3\nx\n1\n", "3\n1.5\n1\n"], ids=["word", "decimal"])
@pytest.mark.parametrize("algorithm", ["mi", "one-two", "combined"])
def test_sort_rejects_non_integer_line(algorithm, text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, "sort", "-", "--algorithm", algorithm)
    assert code == 2
    assert out == ""
    assert "invalid literal" in err


def test_exact_table_matches_published_values(capsys):
    code, out, _err = run_cli(capsys, "exact", "--n-max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n\tavg_times_factorial\tavg\tnormalized"
    scaled = [int(line.split("\t")[1]) for line in lines[1:]]
    assert scaled == [0, 2, 16, 112, 832, 6912, 62784, 623232]


def test_count_emits_tsv(capsys):
    code, out, err = run_cli(capsys, "count", "--n", "8,16", "--trials", "12", "--seed", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "num_elements\ttrials\tmean\tstddev\tnormalized"
    assert len(lines) == 3
    assert "generator=pcg64" in err
    first = lines[1].split("\t")
    assert first[0] == "8" and first[1] == "12"
    assert float(first[2]) >= 7  # at least n - 1 comparisons


def test_count_exhaustive_matches_exact(capsys):
    code, out, _err = run_cli(capsys, "count", "--n", "5", "--exhaustive")
    assert code == 0
    row = out.splitlines()[1].split("\t")
    assert row[1] == "120"
    assert float(row[2]) == pytest.approx(832 / 120, abs=1e-12)


def test_dist_table_shape(capsys):
    code, out, _err = run_cli(capsys, "dist", "--k", "4", "--var", "y", "--i", "1", "--i", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "j\tY1\tY6"
    # final row: the first inserted member always sees 15 elements
    last = lines[-1].split("\t")
    assert last[0] == "15" and float(last[2]) == 1.0
    total = sum(float(line.split("\t")[1]) for line in lines[1:])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_dist_repeated_member_gives_one_column(capsys):
    code, out, _err = run_cli(capsys, "dist", "--k", "4", "--var", "x", "--i", "6", "--i", "2", "--i", "6")
    assert code == 0
    assert out.splitlines()[0] == "j\tX6\tX2"
    _code, once, _err = run_cli(capsys, "dist", "--k", "4", "--var", "x", "--i", "6", "--i", "2")
    assert out == once


def test_dist_mean_table(capsys):
    code, out, _err = run_cli(capsys, "dist", "--k", "4", "--var", "mean")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "i\tEYi"
    assert len(lines) == 7
    assert float(lines[-1].split("\t")[1]) == 15.0


def test_bound_table(capsys):
    code, out, _err = run_cli(capsys, "bound", "--n", "64,256")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "num_elements\tlower\tupper\tc_term\tworst_case"
    for line in lines[1:]:
        n, lower, upper, c_term, _worst = line.split("\t")
        assert float(lower) <= float(upper)
        assert float(c_term) <= -1.4005


def test_sweep_factor_cli(capsys):
    code, out, _err = run_cli(
        capsys, "sweep-factor", "--n", "32", "--factors", "1.0,1.03", "--trials", "10"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "num_elements\t1.0\t1.03"
    assert len(lines) == 2


def test_compare_algos_cli(capsys):
    code, out, _err = run_cli(capsys, "compare-algos", "--n", "21", "--trials", "10")
    assert code == 0
    assert out.splitlines()[0] == "num_elements\tmi\tcombined\tcombined-f1.03"


def test_compare_algos_factor_one_spellings_agree(capsys):
    outputs = []
    for factor in ("1", "1.0"):
        code, out, _err = run_cli(capsys, "compare-algos", "--n", "21", "--trials", "5", "--factor", factor)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[0].endswith("combined-f1.0")
    # at factor 1 the variant column is the plain combined column
    assert all(row.split("\t")[2] == row.split("\t")[3] for row in outputs[0].splitlines()[1:])


def test_bad_config_exit_code(capsys):
    code, _out, err = run_cli(capsys, "count", "--n", "8", "--factor", "3")
    assert code == 2
    assert "error:" in err


def test_missing_sizes_exit_code(capsys):
    code, _out, err = run_cli(capsys, "count")
    assert code == 2
    assert "no input sizes" in err


BAD_ARGUMENTS = {
    "sweep-zero-trials": (("sweep-factor", "--n", "10", "--trials", "0"), "trials must be at least 1"),
    "compare-negative-trials": (("compare-algos", "--n", "10", "--trials", "-1"), "trials must be at least 1"),
    "dist-mean-k1": (("dist", "--k", "1", "--var", "mean"), "--k must be at least 2"),
    "dist-y-k0": (("dist", "--k", "0", "--var", "y"), "--k must be at least 2"),
    "dist-x-k40": (("dist", "--k", "40", "--var", "x"), "--k must be at most 14"),
    "dist-mean-k15": (("dist", "--k", "15", "--var", "mean"), "--k must be at most 14"),
    "exact-negative-n-max": (("exact", "--n-max", "-3"), "--n-max must be at least 1"),
    "exact-zero-n-max": (("exact", "--n-max", "0"), "--n-max must be at least 1"),
    "dist-y-member-too-large": (("dist", "--k", "2", "--var", "y", "--i", "5"), "member index i=5"),
    "dist-x-member-zero": (("dist", "--k", "3", "--var", "x", "--i", "0"), "member index i=0"),
    "bound-zero-n": (("bound", "--n", "0"), "input sizes must be at least 1"),
    "bound-negative-n": (("bound", "--n", "-5"), "input sizes must be at least 1"),
    "bound-above-limit": (("bound", "--n", "64,1048577"), "must be at most 1048576 for the numeric bound"),
    "bound-log-range-above-limit": (
        ("bound", "--log-range", "64", "1000000000", "3"),
        "must be at most 1048576 for the numeric bound, got 1000000000",
    ),
    "sweep-zero-n": (("sweep-factor", "--n", "0", "--trials", "1"), "input sizes must be at least 1"),
    "compare-zero-n": (("compare-algos", "--n", "0", "--trials", "1"), "input sizes must be at least 1"),
    "exact-n-with-n-max": (("exact", "--n", "40", "--n-max", "3"), "--n-max cannot be combined with --n"),
    "dist-mean-with-member": (("dist", "--k", "3", "--var", "mean", "--i", "7"), "--i does not apply to --var mean"),
    "count-exhaustive-with-trials": (
        ("count", "--n", "4", "--exhaustive", "--trials", "3"),
        "exhaustive mode enumerates all n! permutations; it takes no trial count",
    ),
    "count-exhaustive-with-seed": (("count", "--n", "4", "--exhaustive", "--seed", "5"), "it takes no --seed"),
    "count-exhaustive-with-seed-0": (("count", "--n", "4", "--exhaustive", "--seed", "0"), "it takes no --seed"),
    "count-one-two-factor": (
        ("count", "--n", "4", "--algorithm", "one-two", "--factor", "1.5"),
        "algorithm 'one-two' takes no schedule factor, got 3/2",
    ),
    "sort-one-two-factor": (("sort", "--algorithm", "one-two", "--factor", "1.03"), "takes no schedule factor"),
    "sort-zero-denominator": (("sort", "--factor", "1/0"), "zero denominator"),
    "count-zero-denominator": (("count", "--n", "4", "--factor", "1/0"), "zero denominator"),
    "compare-zero-denominator": (("compare-algos", "--n", "4", "--factor", "1/0"), "zero denominator"),
    "sweep-zero-denominator": (("sweep-factor", "--n", "4", "--factors", "1,1/0"), "zero denominator"),
    "compare-factor-above-range": (("compare-algos", "--n", "10", "--factor", "2.5"), "must be in [1, 2), got 5/2"),
    "sweep-factor-below-range": (("sweep-factor", "--n", "10", "--factors", "1,0.5"), "must be in [1, 2), got 1/2"),
}


@pytest.mark.parametrize("argv, message", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS.keys())
def test_bad_arguments_exit_with_named_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1  # no seed note: a failed run makes no table


def test_bound_limit_is_checked_before_any_table_grows(monkeypatch, capsys):
    assert BOUND_N_MAX == 1 << 20
    small = np.zeros(1)
    monkeypatch.setattr(bounds, "_log_fact", small)
    code, out, err = run_cli(capsys, "bound", "--n", str(BOUND_N_MAX + 1))
    assert (code, out) == (2, "")
    assert "error: input sizes must be at most 1048576" in err
    assert bounds._log_fact is small


def test_bound_help_states_the_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--help"])
    assert exc.value.code == 0
    assert f"1..{BOUND_N_MAX}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [("--n", "40,401"), ("--n-max", "401")], ids=["n", "n-max"])
def test_exact_limit_is_checked_before_any_computation(monkeypatch, capsys, argv):
    assert EXACT_N_MAX == 400

    def never(n, strategy=None):
        raise AssertionError("exact_F ran before the size check")

    monkeypatch.setattr(exact_analysis, "exact_F", never)
    code, out, err = run_cli(capsys, "exact", *argv)
    assert (code, out) == (2, "")
    assert "error: input sizes must be at most 400 for the exact average, got 401" in err


def test_exact_help_states_the_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exact", "--help"])
    assert exc.value.code == 0
    assert f"1..{EXACT_N_MAX}" in capsys.readouterr().out


def test_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bounds.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-m", "mergeinsertion", "--help"], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: mergeinsertion")
    assert "bound" in done.stdout


UNREAD_OPTIONS = {
    "exact": (("--n", "5"), ("--seed", "1"), ("--trials", "3"), ("--factor", "1.03")),
    "dist": (("--k", "3"), ("--seed", "1"), ("--trials", "3"), ("--strategy", "right"), ("--factor", "1.03")),
    "bound": (("--n", "5"), ("--seed", "1"), ("--trials", "3"), ("--strategy", "right"), ("--factor", "1.03")),
    "sort": ((), ("--seed", "1"), ("--trials", "3")),
    "sweep-factor": (("--n", "5"), ("--factor", "1.03")),
}


@pytest.mark.parametrize(
    "command, option",
    [(command, option) for command, (_base, *options) in UNREAD_OPTIONS.items() for option in options],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_subcommands_reject_options_they_do_not_read(capsys, command, option):
    base = UNREAD_OPTIONS[command][0]
    with pytest.raises(SystemExit) as exc:
        main([command, *base, *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err


def test_exact_rejects_non_integral_scaled_average(monkeypatch, capsys):
    monkeypatch.setattr(exact_analysis, "exact_F", lambda n, strategy=None: Fraction(1, 7))
    code, out, err = run_cli(capsys, "exact", "--n", "3")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "table.tsv"
    code, out, _err = run_cli(capsys, "exact", "--n", "4", "--out", str(dest))
    assert code == 0
    assert out == ""
    assert dest.read_text().splitlines()[1].split("\t")[1] == "112"


def test_normalized_column_definition(capsys):
    code, out, _err = run_cli(capsys, "exact", "--n", "8")
    row = out.splitlines()[1].split("\t")
    avg, normalized = float(row[2]), float(row[3])
    assert normalized == pytest.approx((avg - 8 * math.log2(8)) / 8, abs=1e-12)
