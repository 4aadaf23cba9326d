"""Tests for the Monte Carlo harness: trial determinism, curve estimation,
the two-panel figure experiment, and capacity scans."""
import math
import os
import resource
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import grouptest
from grouptest import bounds, harness
from grouptest.algorithms import hgbsa
from grouptest.bounds import NoiseModel, ProblemSize
from grouptest.cli import main
from grouptest.bounds import InputError
from grouptest.harness import (
    COMP_TRIAL_CELLS,
    MAX_BUDGETS,
    MAX_DESIGN_CELLS,
    MAX_N,
    MAX_SUBMISSIONS,
    MAX_TRIAL_CELLS,
    ExperimentSpec,
    curve_csv_lines,
    capacity_scan,
    defectives_for_beta,
    figure1_experiment,
    guarantee_for,
    run_trial,
    run_trials,
    success_curve,
    tally,
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

    def test_comp_range_without_budget_refused_by_run_trial_before_sampling(self, monkeypatch):
        # run_trial and run_trials share one gate: neither has a budget to run
        # a range at, and run_trial raises before it samples a defective set
        import grouptest.harness as hz
        spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp", trials=3,
                              budget_range=(10, 20, 5))

        def refuse(*args):
            raise AssertionError("sampled")
        monkeypatch.setattr(hz, "sample_defective_set", refuse)
        with pytest.raises(InputError, match="comp_t"):
            run_trial(spec, 0)

    def test_rbt_past_the_candidate_list_refused_by_run_trial(self):
        # batched RBT answers (2^27, 5) on the noiseless and erasure channels
        # by its closed form, but run_trial holds its n candidates as a list
        # (MemoryError in 2 GB); it refuses before it samples, in a child
        # with a 2 GB address space
        src = str(Path(grouptest.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", RBT_PAST_THE_LIST], env=env,
                              preexec_fn=limit_address_space, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


RBT_PAST_THE_LIST = """
import pytest
from grouptest.bounds import InputError, NoiseModel, ProblemSize
from grouptest.harness import MAX_TRIAL_CELLS, ExperimentSpec, run_trial, run_trials
for noise, used in ((NoiseModel.erasure(0.1), 156), (NoiseModel.noiseless(), 135)):
    spec = ExperimentSpec(size=ProblemSize(2**27, 5), algorithm="rbt", noise=noise,
                          trials=1, master_seed=3)
    assert run_trials(spec) == [(True, used)], run_trials(spec)
    with pytest.raises(InputError, match=str(MAX_TRIAL_CELLS)):
        run_trial(spec, 0)
"""


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


CHANNELS = {"noiseless": NoiseModel.noiseless(), "erasure": NoiseModel.erasure(0.3),
            "symmetric": NoiseModel.symmetric(0.1), "additive": NoiseModel.additive(0.1)}


class TestCompChunks:
    # (n, k, t, trials): `_run_comp` decodes max(1, COMP_CHUNK_CELLS // (t n))
    # trials at a time, in batches of BATCH_CELLS // k trials
    SPECS = {
        "empty-rows": (3, 3, 300, 400),  # 145 a chunk, about 30% of rows empty
        # 436 a chunk, and about 40% of the trials redrawn: at k = n above
        # every trial decodes alike, here the redrawn design decides it
        "redraws-decide": (10, 3, 30, 1000),
        "chunks-of-8": (100, 5, 160, 257),  # the last chunk holds one trial
        "k-is-n": (40, 40, 20, 450),  # chunks of 163 across batches of 409
        "k-is-1": (50, 1, 30, 200),  # threshold 2^64: every cell is in
        "chunk-of-one": (1000, 10, 200, 5),  # t x n above the chunk
        # 210,000 design cells and 70,000 noise flags a trial, each across a
        # block of 2^16 outputs (`model.draw_below`); about a row in eight redrawn
        "blocks-crossed": (3, 2, 70000, 3),
    }

    @pytest.mark.parametrize("noise", list(CHANNELS))
    @pytest.mark.parametrize("name", list(SPECS))
    def test_run_trials_equal_run_trial(self, name, noise):
        n, k, t, trials = self.SPECS[name]
        chunk = max(1, harness.COMP_CHUNK_CELLS // (t * n))
        batch = harness.BATCH_CELLS // k
        assert trials > chunk or chunk == 1
        assert (name == "k-is-n") == (trials > batch)
        spec = ExperimentSpec(size=ProblemSize(n, k), algorithm="comp", noise=CHANNELS[noise],
                              trials=trials, master_seed=n + t, comp_t=t)
        assert run_trials(spec) == [run_trial(spec, i) for i in range(trials)]

    def test_empty_rows_are_redrawn_in_every_chunk(self, monkeypatch):
        # at (3, 3) every design has an empty row, so each trial of each chunk,
        # the first slot or not, is redrawn on its own stream past its draw
        spec = ExperimentSpec(size=ProblemSize(3, 3), algorithm="comp", trials=400,
                              master_seed=2, comp_t=300)
        redraw, redrawn = harness.comp_redraw, []
        monkeypatch.setattr(harness, "comp_redraw", lambda *a: redrawn.append(a) or redraw(*a))
        run_trials(spec)
        assert len(redrawn) == 400

    @pytest.mark.parametrize("noise", list(CHANNELS))
    def test_one_channel_call_a_chunk(self, monkeypatch, noise):
        # 257 trials at t = 160 are 32 chunks of 8 and a last one of 1, and
        # each chunk's rows go through the channel in one call
        negatives, chunks = harness.design_negatives, []
        monkeypatch.setattr(harness, "design_negatives",
                            lambda hit, *a: chunks.append(len(hit)) or negatives(hit, *a))
        spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp", noise=CHANNELS[noise],
                              trials=257, master_seed=1, comp_t=160)
        run_trials(spec)
        assert chunks == [8] * 32 + [1]

    def test_breach_past_the_first_chunk_names_its_trial(self, monkeypatch):
        # the first positive row of the 11th design reads negative: the chunk
        # of 8 trials at t = 160 that holds it names trial 10, not its slot 2
        negatives, sizes = harness.design_negatives, []

        def flipped(hit, noise, streams):
            negative = negatives(hit, noise, streams)
            row = 10 - sum(sizes)  # trial 10's row, if this chunk holds it
            if 0 <= row < len(hit):
                negative[row, np.flatnonzero(hit[row])[:1]] = True
            sizes.append(len(hit))
            return negative

        monkeypatch.setattr(harness, "design_negatives", flipped)
        spec = ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp", trials=40,
                              master_seed=4, comp_t=160)
        assert harness.COMP_CHUNK_CELLS // (160 * 100) == 8
        with pytest.raises(harness.InvariantBreach, match=r"\(master_seed=4, trial_index=10\)"):
            run_trials(spec)


class TestSpecChecks:
    def test_k_above_the_trial_cell_budget_rejected(self):
        # one trial holds about 32 cells a defective, so k <= 2^20
        assert MAX_TRIAL_CELLS >> 5 == 1 << 20
        for alg, comp_t in (("hgbsa", None), ("rbt", None), ("comp", 1)):
            ExperimentSpec(size=ProblemSize(1 << 21, 1 << 20), algorithm=alg, trials=1,
                           comp_t=comp_t)
            with pytest.raises(InputError, match=str(MAX_TRIAL_CELLS)):
                ExperimentSpec(size=ProblemSize(1 << 21, (1 << 20) + 1), algorithm=alg,
                               trials=1, comp_t=comp_t)

    @pytest.mark.parametrize("comp_t", [-3, 0, 400_000])
    def test_comp_takes_comp_t_or_a_range_not_both(self, comp_t):
        # the range's rows and t >= 1 check once passed these while the trials
        # ran comp_t: -3 raised numpy's ValueError, 0 ran trials of no test,
        # and 400000 ran 4 x 10^7 design cells, above MAX_TRIAL_CELLS
        with pytest.raises(InputError, match="not both"):
            ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp", trials=2,
                           comp_t=comp_t, budget_range=(1, 2, 1))

    def test_comp_design_cells_of_a_run_capped(self):
        # trials x n x t, a sweep's t summed over its budgets; built only,
        # never run (a run at the cap takes minutes)
        def spec(trials, **budget):
            return ExperimentSpec(size=ProblemSize(1024, 8), algorithm="comp", trials=trials,
                                  **budget)
        cells = 1024 * sum(range(7, 200, 3))
        for trials, budget in ((MAX_DESIGN_CELLS // (1024 * 32), {"comp_t": 32}),
                               (MAX_DESIGN_CELLS // cells, {"budget_range": (7, 199, 3)})):
            spec(trials, **budget)
            with pytest.raises(InputError, match=str(MAX_DESIGN_CELLS)):
                spec(trials + 1, **budget)
        with pytest.raises(InputError, match=str(MAX_DESIGN_CELLS)):
            spec(10**12, comp_t=1000)  # once accepted: years of draws

    def test_comp_trial_counted_at_least_its_floor(self):
        # a trial of a few cells costs about as much as one of
        # COMP_TRIAL_CELLS; built only, never run
        def spec(size, trials, **budget):
            return ExperimentSpec(size=size, algorithm="comp", trials=trials, **budget)
        tiny = ProblemSize(3, 1)
        spec(tiny, MAX_DESIGN_CELLS // COMP_TRIAL_CELLS, comp_t=1)
        for trials in (MAX_DESIGN_CELLS // COMP_TRIAL_CELLS + 1, 11_453_246_122):
            with pytest.raises(InputError, match=str(MAX_DESIGN_CELLS)):
                spec(tiny, trials, comp_t=1)  # the second once ran about 30 hours
        # a sweep whose budgets lie on both sides of the floor: t <= 20 below it
        cells = sum(max(t * 100, COMP_TRIAL_CELLS) for t in range(1, 61, 3))
        assert cells > 100 * sum(range(1, 61, 3))
        spec(ProblemSize(100, 5), MAX_DESIGN_CELLS // cells, budget_range=(1, 60, 3))
        with pytest.raises(InputError, match=str(MAX_DESIGN_CELLS)):
            spec(ProblemSize(100, 5), MAX_DESIGN_CELLS // cells + 1, budget_range=(1, 60, 3))

    def test_unknown_algorithm_rejected(self):
        # a library caller can name any algorithm (the CLI's --alg choices
        # cannot); it must fail when the spec is built, not later with a KeyError
        with pytest.raises(InputError, match="bogus"):
            ExperimentSpec(size=ProblemSize(100, 5), algorithm="bogus")

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

    @pytest.mark.parametrize("noise", [NoiseModel.symmetric(0.01), NoiseModel.additive(0.001)])
    def test_noisy_rbt_cells_capped(self, noise):
        # per-trial RBT holds about n x (k + 4) items; built only, never run
        n = MAX_TRIAL_CELLS // 8
        for size in (ProblemSize(n, 4), ProblemSize(9699, 30)):
            ExperimentSpec(size=size, algorithm="rbt", noise=noise, trials=1)
        for size in (ProblemSize(n + 1, 4), ProblemSize(MAX_TRIAL_CELLS // 4 + 1, 0)):
            with pytest.raises(InputError, match=str(MAX_TRIAL_CELLS)):
                ExperimentSpec(size=size, algorithm="rbt", noise=noise, trials=1)
        # batched RBT keeps no candidate list, and splitting pools are ranges
        ExperimentSpec(size=ProblemSize(MAX_N, 1), algorithm="rbt", trials=1)
        ExperimentSpec(size=ProblemSize(MAX_N, 1), algorithm="hgbsa", noise=noise, trials=1)

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

    @pytest.mark.parametrize("alg,noise", [("hgbsa", NoiseModel.erasure(0.25)),
                                           ("rbt", NoiseModel.symmetric(0.05))])
    def test_tally_folds_what_run_trials_lists(self, alg, noise):
        # 2000 trials at k = 10 are two batches, of 1638 and 362 trials
        spec = ExperimentSpec(size=ProblemSize(200, 10), algorithm=alg, noise=noise,
                              trials=2000, master_seed=5)
        results = run_trials(spec)
        budgets = list(range(0, 150, 7))
        run = tally(spec, budgets)
        assert run.wins == sum(r.success for r in results)
        assert run.tests_sum == sum(r.tests_used for r in results)
        assert run.tests_max == max(r.tests_used for r in results)
        assert run.wins_within == [sum(r.success and r.tests_used <= t for r in results)
                                   for t in budgets]

    def test_budgets_beyond_int64(self):
        # a budget range has no upper cap; no trial spends 2^63 tests, so the
        # fold clips a larger budget rather than overflow
        t = 10 ** 20
        spec = ExperimentSpec(size=ProblemSize(10, 2), algorithm="hgbsa", trials=20,
                              budget_range=(t, t + 1, 1))
        assert [(p.t, p.success) for p in success_curve(spec).points] == [(t, 1.0), (t + 1, 1.0)]

    def test_sweep_without_a_budget_range_is_an_input_error(self):
        # a bad run input, not a fault: it once raised a bare ValueError
        spec = ExperimentSpec(size=ProblemSize(10, 2), algorithm="hgbsa", trials=2)
        with pytest.raises(InputError, match="budget range"):
            success_curve(spec)

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
        # every trial of every command runs in `_run_batch`
        monkeypatch.setattr(hz, "_run_batch", lambda *a: calls.append(a))
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
