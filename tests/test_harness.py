import io
import math
import re
from fractions import Fraction

import pytest

from mergeinsertion import (
    ExperimentConfig,
    Strategy,
    Table,
    compare_algorithms,
    emit_tsv,
    exact_F,
    run_experiment,
    sweep_factor,
)
from mergeinsertion.harness import (
    ALGORITHMS,
    default_trials,
    exhaustive_mean,
    log_spaced_ns,
    sort_fn,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(ns=())
    with pytest.raises(ValueError):
        ExperimentConfig(ns=(0,))
    with pytest.raises(ValueError):
        ExperimentConfig(ns=(4,), algorithm="quick")
    with pytest.raises(ValueError):
        ExperimentConfig(ns=(4,), trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(ns=(4,), factor=Fraction(3))
    with pytest.raises(ValueError):
        ExperimentConfig(ns=(9,), exhaustive=True)
    with pytest.raises(ValueError, match="takes no trial count"):
        ExperimentConfig(ns=(4,), exhaustive=True, trials=3)


def test_unknown_algorithm_is_rejected():
    # an unknown name must not fall through to one of the real sorts
    message = f"unknown algorithm 'bogus'; expected one of {ALGORITHMS}"
    with pytest.raises(ValueError, match=re.escape(message)):
        sort_fn("bogus", Strategy.LEFT, Fraction(1))
    with pytest.raises(ValueError, match=re.escape(message)):
        exhaustive_mean(5, "bogus")
    with pytest.raises(ValueError, match=re.escape(message)):
        ExperimentConfig(ns=(4,), algorithm="bogus")


def test_default_trials_schedule():
    assert default_trials(10) == 10000
    assert default_trials(10_000) == 1000
    assert default_trials(5_000_000) == 10


def test_n2_mean_is_one():
    stats = run_experiment(ExperimentConfig(ns=(2,), trials=50, seed=9))[0]
    assert stats.mean == 1.0
    assert stats.std == 0.0
    assert stats.trials == 50


def test_exhaustive_mean_matches_exact():
    assert exhaustive_mean(5) == Fraction(832, 120)
    assert exhaustive_mean(8) == Fraction(623232, 40320)
    stats = run_experiment(ExperimentConfig(ns=(5,), exhaustive=True))[0]
    assert stats.trials == 120
    assert stats.mean == float(Fraction(832, 120))


def test_determinism_byte_identical():
    cfg = ExperimentConfig(ns=(32, 64), trials=25, seed=1234)
    first, second = run_experiment(cfg), run_experiment(cfg)
    assert first == second
    table = Table(["n", "mean"], [[s.n, s.mean] for s in first])
    buf_a, buf_b = io.BytesIO(), io.BytesIO()
    emit_tsv(table, buf_a)
    emit_tsv(table, buf_b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_mean_never_below_minimum_comparisons():
    cfg = ExperimentConfig(ns=(3, 17, 65), trials=30, seed=2)
    for stats in run_experiment(cfg):
        assert stats.mean >= stats.n - 1
        assert stats.normalized == (stats.mean - stats.n * math.log2(stats.n)) / stats.n


@pytest.mark.slow
def test_sampled_mean_tracks_exact_over_seeds():
    # the exact average lies within 4 standard errors of the sampled mean
    # for (at least) 99 of 100 seeds
    n, trials = 12, 1000
    exact = float(exact_F(n))
    hits = 0
    for seed in range(100):
        stats = run_experiment(ExperimentConfig(ns=(n,), trials=trials, seed=seed))[0]
        se = stats.std / math.sqrt(trials)
        if abs(stats.mean - exact) <= 4 * se:
            hits += 1
    assert hits >= 99


def test_sweep_factor_reference_column():
    ns = (64, 128)
    table = sweep_factor(ns, ["1.0", "1.03"], trials=40, seed=7)
    assert table.header == ["num_elements", "1.0", "1.03"]
    cfg = ExperimentConfig(ns=ns, trials=40, seed=7)
    plain = run_experiment(cfg)
    for row, stats in zip(table.rows, plain):
        assert row[0] == stats.n
        assert row[1] == pytest.approx(stats.normalized, abs=1e-12)


def test_float_factor_reads_as_its_decimal():
    # 1.2 is the factor 6/5 its label prints, not the binary double below it
    assert ExperimentConfig(ns=(40,), factor=1.2).factor == Fraction(6, 5)
    table = sweep_factor([40], [1.2, "1.2"], trials=50)
    assert table.header == ["num_elements", "1.2", "1.2"]
    assert table.rows[0][1] == table.rows[0][2]
    assert compare_algorithms([40], trials=20, variant_factor=1.03).rows == compare_algorithms([40], trials=20).rows


def test_compare_algorithms_schema():
    table = compare_algorithms((10, 21), trials=15, seed=3)
    assert table.header == ["num_elements", "mi", "combined", "combined-f1.03"]
    assert [row[0] for row in table.rows] == [10, 21]
    for row in table.rows:
        # both sizes are switch points, so the first two columns coincide
        assert row[1] == pytest.approx(row[2], abs=1e-12)


@pytest.mark.parametrize("trials", [0, -1])
def test_sweep_factor_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        sweep_factor((10,), ["1.0"], trials=trials)


@pytest.mark.parametrize("trials", [0, -1])
def test_compare_algorithms_rejects_bad_trials(trials):
    with pytest.raises(ValueError, match="trials must be at least 1"):
        compare_algorithms((10,), trials=trials)


def test_emit_tsv_round_trip(tmp_path):
    table = Table(["a", "b"], [[1, 0.25], [2, -1.4182918293018197]])
    path = tmp_path / "out.tsv"
    written = emit_tsv(table, path)
    data = path.read_bytes()
    assert written == len(data)
    lines = data.decode().splitlines()
    assert lines[0] == "a\tb"
    parsed = [line.split("\t") for line in lines[1:]]
    assert [int(row[0]) for row in parsed] == [1, 2]
    assert [float(row[1]) for row in parsed] == [0.25, -1.4182918293018197]


def test_emit_tsv_header_only():
    buf = io.BytesIO()
    emit_tsv(Table(["x", "y"], []), buf)
    assert buf.getvalue() == b"x\ty\n"


def test_emit_tsv_rejects_ragged_rows():
    with pytest.raises(ValueError):
        emit_tsv(Table(["x"], [[1, 2]]), io.BytesIO())


def test_log_spaced_ns():
    ns = log_spaced_ns(16, 1024, 7)
    assert ns[0] == 16 and ns[-1] == 1024
    assert all(a < b for a, b in zip(ns, ns[1:]))
    assert log_spaced_ns(5, 5, 1) == (5,)
    with pytest.raises(ValueError):
        log_spaced_ns(0, 10, 3)
