"""Tests for the Monte Carlo harness: trial determinism, curve estimation,
the two-panel figure experiment, and capacity scans."""
import math
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import grouptest
from grouptest import bounds
from grouptest.algorithms import hgbsa
from grouptest.bounds import NoiseModel, ProblemSize
from grouptest.cli import main
from grouptest.bounds import InputError
from grouptest.harness import (
    MAX_BUDGETS,
    MAX_N,
    MAX_SUBMISSIONS,
    ExperimentSpec,
    curve_csv_lines,
    capacity_scan,
    defectives_for_beta,
    figure1_experiment,
    guarantee_for,
    run_trial,
    run_trials,
    success_curve,
    wilson_interval,
)
from grouptest.model import TestOracle, make_rng


class TestWilson:
    def test_bounds_and_centre(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert 0.0 <= lo and hi <= 1.0

    def test_extremes_stay_in_unit_interval(self):
        assert wilson_interval(0, 50)[0] == 0.0
        assert wilson_interval(50, 50)[1] == 1.0
        assert wilson_interval(0, 50)[1] > 0.0
        assert wilson_interval(50, 50)[0] < 1.0


class TestRunTrial:
    def test_smallest_instance(self):
        spec = ExperimentSpec(size=ProblemSize(2, 1), algorithm="hgbsa", trials=1)
        r = run_trial(spec, 0)
        assert r.success and r.tests_used <= 2

    def test_deterministic(self):
        spec = ExperimentSpec(size=ProblemSize(50, 3), algorithm="variant",
                              noise=NoiseModel.erasure(0.2), trials=1, master_seed=9)
        assert run_trial(spec, 4) == run_trial(spec, 4)

    def test_guarantee_at_figure_scale(self):
        spec = ExperimentSpec(size=ProblemSize(500, 10), algorithm="hgbsa", trials=1)
        for i in range(50):
            r = run_trial(spec, i)
            assert r.success and r.tests_used <= 78

    def test_comp_needs_budget(self):
        with pytest.raises(ValueError):
            spec = ExperimentSpec(size=ProblemSize(10, 2), algorithm="comp", trials=1)
            run_trial(spec, 0)

    def test_comp_range_without_budget_runs_no_trial(self, monkeypatch):
        # a budget range is swept by success_curve, one comp_t per budget;
        # run_trials itself has no budget to run at
        import grouptest.harness as hz
        spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp", trials=3,
                              budget_range=(10, 20, 5))
        calls = []
        monkeypatch.setattr(hz, "run_trial", lambda *a: calls.append(a))
        with pytest.raises(InputError):
            run_trials(spec)
        assert calls == []


class TestSpecChecks:
    @pytest.mark.parametrize("alg", ["rbt", "hgbsa", "variant"])
    def test_only_comp_takes_a_budget(self, alg):
        with pytest.raises(ValueError, match="only comp takes a test budget"):
            ExperimentSpec(size=ProblemSize(10, 2), algorithm=alg, trials=1, comp_t=5)

    @pytest.mark.parametrize("alg", ["rbt", "hgbsa", "variant"])
    def test_n_above_max_n_rejected(self, alg):
        # bit lengths of the batched walk are exact only up to 2^53
        ExperimentSpec(size=ProblemSize(MAX_N, 1), algorithm=alg, trials=1)
        with pytest.raises(ValueError, match=str(MAX_N)):
            ExperimentSpec(size=ProblemSize(MAX_N + 1, 1), algorithm=alg, trials=1)

    @pytest.mark.parametrize("alg", ["rbt", "hgbsa", "variant"])
    def test_erasure_submissions_capped(self, alg):
        # at p = 0.5 a spec may need up to MAX_SUBMISSIONS / 2 firm tests in
        # all; built only, never run
        size = ProblemSize(1000, 10)
        trials = MAX_SUBMISSIONS // 2 // guarantee_for(alg, size)
        ExperimentSpec(size=size, algorithm=alg, noise=NoiseModel.erasure(0.5),
                       trials=trials)
        with pytest.raises(InputError, match=str(MAX_SUBMISSIONS)):
            ExperimentSpec(size=size, algorithm=alg, noise=NoiseModel.erasure(0.5),
                           trials=trials + 1)

    @pytest.mark.parametrize("alg", ["rbt", "hgbsa", "variant"])
    def test_guarantee_at_k0_is_zero(self, alg):
        assert guarantee_for(alg, ProblemSize(5, 0)) == 0


class TestTestsDistribution:
    def test_degenerate_concentrated_at_zero(self):
        spec = ExperimentSpec(size=ProblemSize(4, 4), algorithm="variant", trials=50)
        counts = [r.tests_used for r in run_trials(spec)]
        assert sum(counts) / len(counts) == 0.0 and max(counts) == 0

    def test_mean_floor_and_guarantee(self):
        spec = ExperimentSpec(size=ProblemSize(100, 4), algorithm="hgbsa",
                              trials=800, master_seed=1)
        counts = [r.tests_used for r in run_trials(spec)]
        mean = sum(counts) / len(counts)
        size = ProblemSize(100, 4)
        sem = (sum((c - mean) ** 2 for c in counts) / len(counts)) ** 0.5 \
            / math.sqrt(len(counts))
        assert mean >= bounds.expected_tests_floor(size) - 3 * sem
        assert max(counts) <= bounds.hwang_guarantee(size)


class TestSuccessCurve:
    def test_monotone_and_tail(self):
        spec = ExperimentSpec(size=ProblemSize(30, 3), algorithm="rbt", trials=300,
                              master_seed=2, budget_range=(1, 20, 1))
        curve = success_curve(spec)
        succ = [p.success for p in curve.points]
        assert succ == sorted(succ)
        assert succ[-1] == 1.0  # budget 20 >= rbt guarantee 15

    def test_bound_columns(self):
        spec = ExperimentSpec(size=ProblemSize(10, 2), algorithm="hgbsa", trials=100,
                              master_seed=3, budget_range=(1, 10, 1))
        curve = success_curve(spec)
        t3 = next(p for p in curve.points if p.t == 3)
        assert t3.converse == pytest.approx(8 / 45, rel=1e-9)
        assert t3.weak_converse == pytest.approx(3 / math.log2(45), rel=1e-9)
        assert curve.log2_binom_marker == pytest.approx(math.log2(45), rel=1e-9)
        assert curve.guarantee_marker == 8

    def test_exhaustive_cdf_dominated_by_converse(self):
        # every one of the 45 truths at (10, 2), compared against 2^T / 45
        counts = []
        for truth in combinations(range(10), 2):
            o = TestOracle(10, truth, NoiseModel.noiseless(), make_rng(0))
            counts.append(hgbsa(o, 10, 2).tests_used)
        for t in range(0, 10):
            cdf = sum(c <= t for c in counts) / 45
            assert cdf <= min(1.0, 2.0 ** t / 45) + 1e-12

    def test_comp_curve(self):
        spec = ExperimentSpec(size=ProblemSize(30, 2), algorithm="comp", trials=200,
                              master_seed=4, budget_range=(5, 45, 10))
        curve = success_curve(spec)
        assert len(curve.points) == 5
        assert curve.points[-1].success >= curve.points[0].success


class TestBudgetCap:
    @pytest.fixture(autouse=True)
    def no_budget_list(self, monkeypatch):
        # the count is checked from the range alone; no list is ever built
        def refuse(self):
            raise AssertionError("budgets() called")
        monkeypatch.setattr(ExperimentSpec, "budgets", refuse)

    @pytest.mark.parametrize("alg", ["hgbsa", "rbt", "comp"])
    def test_more_than_max_budgets_rejected(self, alg):
        for budget_range in [(0, 10**14, 1), (0, MAX_BUDGETS, 1),
                             (5, 5 + 3 * MAX_BUDGETS, 3)]:
            with pytest.raises(ValueError, match="budgets"):
                ExperimentSpec(size=ProblemSize(10, 2), algorithm=alg, trials=1,
                               budget_range=budget_range)

    def test_max_budgets_accepted(self):
        for budget_range in [(0, MAX_BUDGETS - 1, 1), (5, 5 + 3 * MAX_BUDGETS - 1, 3),
                             (7, 7, 1)]:
            ExperimentSpec(size=ProblemSize(10, 2), algorithm="hgbsa", trials=1,
                           budget_range=budget_range)

    def test_cli_sweep_exits_2_before_output(self, capsys):
        code = main(["sweep", "--alg", "hgbsa", "--n", "10", "--k", "2", "--t-min", "0",
                     "--t-max", "100000000000000", "--trials", "1"])
        out = capsys.readouterr()
        assert code == 2 and out.out == ""
        assert out.err.startswith("error:") and str(MAX_BUDGETS) in out.err


class TestParallelSerialEquivalence:
    def test_cli_import_leaves_the_process_pool_out(self):
        # trials run in the calling process; nothing imports a process pool
        code = ("import sys, grouptest.cli; print(sorted(m for m in sys.modules"
                " if m in ('concurrent.futures', 'multiprocessing')))")
        src = str(Path(grouptest.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"


class TestFigure1:
    def test_files_and_rerun_identical(self, tmp_path, monkeypatch):
        # shrink to a fast configuration; the full-size run is in acceptance
        import grouptest.harness as hz
        monkeypatch.setattr(hz, "FIGURE1_CONFIGS",
                            (("fig1_k10_n500.csv", ProblemSize(500, 10)),))
        first = figure1_experiment(tmp_path / "a", trials=60, master_seed=3)
        second = figure1_experiment(tmp_path / "b", trials=60, master_seed=3)
        assert all(p.exists() for p in first)
        assert first[0].read_bytes() == second[0].read_bytes()
        lines = first[0].read_text().splitlines()
        assert lines[0] == "t,success,ci_lo,ci_hi,converse,weak_converse,algorithm,log2_binom,guarantee"
        assert len(lines) > 2
        marker = float(lines[1].split(",")[7])
        assert marker == pytest.approx(67.7361, abs=1e-3)

    def test_bad_input_makes_no_directory(self, tmp_path):
        with pytest.raises(InputError):
            figure1_experiment(tmp_path / "D", 0, 0)
        assert not (tmp_path / "D").exists()


class TestCapacityScan:
    def test_beta_to_k(self):
        assert defectives_for_beta(500, 0.63) == 10
        assert defectives_for_beta(9699, 0.63) == 30
        assert defectives_for_beta(2, 0.99) == 1

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            defectives_for_beta(100, 1.5)

    def test_negative_n_is_an_input_error(self):
        # (-5) ** 0.5 is complex; n is checked before k is computed
        with pytest.raises(InputError):
            capacity_scan(0.5, [-5], "hgbsa", 2, 0)

    def test_every_spec_built_before_any_trial(self, monkeypatch):
        import grouptest.harness as hz
        calls = []
        monkeypatch.setattr(hz, "run_trials", lambda spec: calls.append(spec) or [])
        with pytest.raises(InputError):
            capacity_scan(0.5, [100, MAX_N + 1], "hgbsa", 2, 0)
        assert calls == []

    def test_rates_below_one_and_increasing(self):
        rows = capacity_scan(0.63, [60, 200, 500], "hgbsa", trials=50, seed=1)
        g_rates = [r.guarantee_rate for r in rows]
        assert all(0.0 < g <= 1.0 for g in g_rates)
        assert g_rates == sorted(g_rates)
        assert rows[-1].k == 10
        assert rows[-1].guarantee_rate == pytest.approx(67.7361 / 78, abs=1e-3)
        assert all(r.guarantee_rate < 1.0 for r in rows)

    def test_rbt_at_one_item_spends_no_test(self):
        # k = n = 1 needs no test; the rate floors the count at 1, as for the mean
        (row,) = capacity_scan(0.5, [1], "rbt", trials=2, seed=0)
        assert (row.n, row.k, row.mean_tests, row.achieved_rate, row.guarantee_tests,
                row.guarantee_rate) == (1, 1, 0.0, 0.0, 0, 0.0)
