"""CLI tests: flag parsing, output schemas, determinism, exit codes."""
import contextlib
import dataclasses
import io
import json
import os
import re
import resource
import select
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from grouptest import algorithms, harness
from grouptest.algorithms import ALGORITHM_NAMES
from grouptest.cli import _spec_from_args, build_parser, main, parse_noise
from grouptest.bounds import InputError, NoiseKind, ProblemSize
from grouptest.model import TRUTHFUL_CHANNELS
from test_differential import BUDGET, reference_cost


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestNoiseParsing:
    def test_kinds(self):
        assert parse_noise("noiseless").kind is NoiseKind.NOISELESS
        m = parse_noise("erasure:0.25")
        assert m.kind is NoiseKind.ERASURE and m.p == 0.25
        assert parse_noise("symmetric:0.1").p == 0.1
        assert parse_noise("additive:0.05").kind is NoiseKind.ADDITIVE

    def test_bad_specs(self):
        for text in ("bogus", "erasure", "erasure:x", "symmetric:1.5"):
            with pytest.raises(InputError):
                parse_noise(text)


class TestBoundsCommand:
    def test_full_report(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "500", "--k", "10", "--t", "60")
        assert code == 0
        payload = json.loads(out)
        assert payload["converse"] == pytest.approx(4.6903e-3, rel=1e-4)
        assert payload["hwang_tests"] == 78
        assert payload["rbt_tests"] == 90

    def test_k0_degenerate(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "4", "--k", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["log2_binom"] == 0.0
        assert "hwang_tests" not in payload

    def test_noise_capacity(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--n", "10", "--k", "2",
                               "--noise", "erasure:0.25")
        assert json.loads(out)["channel_capacity"] == 0.75

    def test_stable_key_order(self, capsys):
        _, out1, _ = run_cli(capsys, "bounds", "--n", "20", "--k", "3", "--t", "9")
        _, out2, _ = run_cli(capsys, "bounds", "--n", "20", "--k", "3", "--t", "9")
        assert out1 == out2
        keys = list(json.loads(out1))
        assert keys == sorted(keys)

    def test_n_beyond_float_range_at_small_k(self, capsys):
        # k' <= 64 takes exact binomials, which need no float n
        code, out, _ = run_cli(capsys, "bounds", "--n", "1" + "0" * 400, "--k", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["log2_binom"] == 6636.949299179116
        assert payload["hwang_tests"] == 6642

    def test_huge_n_and_k_within_the_float_range(self, capsys):
        # 2 pi k (n - k) overflows a float here, but log2 C(n, k) does not
        code, out, _ = run_cli(capsys, "bounds", "--n", str(10 ** 200),
                               "--k", str(5 * 10 ** 199))
        assert code == 0
        assert json.loads(out)["log2_binom"] == pytest.approx(1e200, rel=1e-15)

    def test_invalid_k(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--n", "4", "--k", "9")
        assert code == 2
        assert "--n/--k" in err


class TestSimulateCommand:
    def test_hgbsa_run(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--alg", "hgbsa", "--n", "100",
                               "--k", "4", "--trials", "200", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["success_rate"] == 1.0
        assert payload["max_tests"] <= payload["guarantee_tests"]
        assert payload["seed"] == 7

    def test_byte_identical_reruns(self, capsys):
        argv = ("simulate", "--alg", "variant", "--n", "60", "--k", "3",
                "--trials", "100", "--seed", "11")
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_comp_requires_budget(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alg", "comp", "--n", "50",
                               "--k", "3", "--trials", "10")
        assert code == 2 and "comp" in err

    def test_no_guarantee_flag_under_symmetric_noise(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--alg", "hgbsa", "--n", "20",
                               "--k", "2", "--trials", "20", "--seed", "1",
                               "--noise", "symmetric:0.1")
        assert code == 0
        assert json.loads(out)["no_guarantee"] is True

    def test_noisy_search_overrun_is_a_failed_trial(self, capsys):
        # some halving tests read negative after a positive group test and
        # clear the whole group; those trials fail instead of raising
        code, out, _ = run_cli(capsys, "simulate", "--alg", "variant", "--n", "60",
                               "--k", "4", "--noise", "symmetric:0.1",
                               "--trials", "150")
        assert code == 0
        assert json.loads(out)["success_rate"] < 1

    def test_guarantee_at_max_n(self, capsys):
        # ceil(log2 C(2^53, 100)) + 100; the guarantee is exact at every n <= MAX_N
        code, out, _ = run_cli(capsys, "simulate", "--alg", "hgbsa", "--n",
                               "9007199254740992", "--k", "100", "--trials", "3")
        assert code == 0 and json.loads(out)["guarantee_tests"] == 4876

    def test_unknown_algorithm_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alg", "magic", "--n", "10",
                               "--k", "1")
        assert code == 2 and "--alg" in err


class TestSweepCommand:
    def test_csv_schema_and_converse_row(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--alg", "hgbsa", "--n", "10",
                               "--k", "2", "--t-min", "1", "--t-max", "10",
                               "--trials", "500", "--seed", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,success,ci_lo,ci_hi,converse,weak_converse,algorithm"
        assert len(lines) == 11
        succ = [float(l.split(",")[1]) for l in lines[1:]]
        assert succ == sorted(succ)
        row3 = lines[3].split(",")
        assert row3[0] == "3"
        assert float(row3[4]) == pytest.approx(0.177778, abs=1e-6)

    def test_missing_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--alg", "hgbsa", "--n", "10",
                               "--k", "2")
        assert code == 2

    def test_bad_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--alg", "hgbsa", "--n", "10",
                             "--k", "2", "--t-min", "9", "--t-max", "2")
        assert code == 2


class TestFigure1Command:
    def test_writes_files(self, capsys, tmp_path, monkeypatch):
        import grouptest.harness as hz
        from grouptest.bounds import ProblemSize
        monkeypatch.setattr(hz, "FIGURE1_CONFIGS",
                            (("fig1_k10_n500.csv", ProblemSize(500, 10)),))
        code, out, _ = run_cli(capsys, "figure1", "--out-dir", str(tmp_path),
                               "--trials", "40", "--seed", "2")
        assert code == 0
        assert (tmp_path / "fig1_k10_n500.csv").exists()
        assert "fig1_k10_n500.csv" in out


class TestCapacityCommand:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "capacity", "--beta", "0.63",
                               "--n-list", "100", "500", "--alg", "hgbsa",
                               "--trials", "50", "--seed", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,k,mean_tests,achieved_rate,guarantee_tests,guarantee_rate"
        last = lines[-1].split(",")
        assert last[0] == "500" and last[1] == "10"
        assert float(last[5]) == pytest.approx(0.868, abs=1e-3)

    def test_beta_out_of_range_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "capacity", "--beta", "1.2",
                             "--n-list", "100", "--trials", "5")
        assert code == 2


@pytest.mark.parametrize("argv", [
    "capacity --beta 0.5 --n-list 0",
    "simulate --alg comp --n 100 --k 5 --delta -1",
    "simulate --alg comp --n 10 --k 0 --t 5",
    "simulate --alg hgbsa --n 10 --k 2 --noise erasure:1",
    "figure1 --trials 0 --out-dir {tmp}/D",
    "capacity --beta 0.5 --n-list 100 --trials 0",
    "sweep --alg comp --n 10 --k 2 --t-min 0 --t-max 2 --trials 3",
    "simulate --alg comp --n 10 --k 2 --t 0 --trials 3",
    "simulate --alg comp --n 10 --k 2 --delta 1e300 --trials 2",
    "simulate --alg comp --n 10 --k 2 --t 100000000000000 --trials 1",
    "simulate --alg comp --n 10 --k 2 --delta 1e308 --trials 1",
    "simulate --alg comp --n 1 --k 1 --delta 1 --trials 1",
    "sweep --alg comp --n 100 --k 5 --t-min 1 --t-max 100000000000000 --step 10000000000000",
    "simulate --alg hgbsa --n 10 --k 2 --t 5 --trials 2",
    "simulate --alg rbt --n 10 --k 2 --delta 1 --trials 2",
    "simulate --alg comp --n 100 --k 5 --delta nan --trials 2",
    "simulate --alg hgbsa --n 18014398509481983 --k 1 --trials 2",
    "simulate --alg hgbsa --n 9223372036854775808 --k 1 --trials 2",
    "capacity --beta 0.99 --n-list 18014398509481983 --trials 1",
    "capacity --beta 0.5 --n-list 1" + "0" * 400 + " --trials 1",
    "simulate --alg hgbsa --n 1000 --k 10 --noise erasure:0.9999999999 --trials 1",
    "bounds --n 1" + "0" * 400 + " --k 100",  # n beyond the float range, k > 64
    # k beyond the float range: the variant's guarantee cannot be a float
    f"bounds --n {10 ** 400} --k {10 ** 400}",
    f"bounds --n {10 ** 400} --k {10 ** 400 - 5}",
])
def test_bad_inputs_exit_2(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "D").exists()  # rejected before any output


def limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


BOUNDED_CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1]),
                     "OPENBLAS_NUM_THREADS": "1"}


def assert_exits_2_in_bounded_memory(argv):
    """In a child with a 2 GB address space and a timeout, a run past the
    per-trial cell budget fails fast instead of taking the machine's memory."""
    proc = subprocess.run([sys.executable, "-m", "grouptest.cli", *argv.split()],
                          env=BOUNDED_CHILD_ENV, preexec_fn=limit_address_space,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and str(harness.MAX_TRIAL_CELLS) in proc.stderr


@pytest.mark.parametrize("argv", [
    "simulate --alg rbt --n 9007199254740992 --k 1 --noise symmetric:0.1 --trials 1",
    "simulate --alg rbt --n 1000000 --k 1000 --noise symmetric:0.01 --trials 1",
])
def test_rbt_beyond_the_trial_cell_budget_exits_2(argv):
    # per-trial RBT holds about n x (k + 4) items
    assert_exits_2_in_bounded_memory(argv)


@pytest.mark.parametrize("argv", [
    "capacity --beta 0.5 --n-list 9007199254740992 --trials 1",  # k about 9.5e7
    "simulate --alg hgbsa --n 4000000000 --k 20000000 --trials 1",
])
def test_k_beyond_the_trial_cell_budget_exits_2(argv):
    # sampling and walking a trial holds about 32 cells a defective, so k is
    # capped at 2^20; both ended in a MemoryError traceback before the cap
    assert_exits_2_in_bounded_memory(argv)


@pytest.mark.parametrize("argv", [
    "bounds --n 10 --k 2",
    "simulate --alg hgbsa --n 10 --k 2 --trials 5",
    "sweep --alg hgbsa --n 10 --k 2 --t-min 1 --t-max 5 --trials 5",
    "figure1 --trials 5 --out-dir {tmp}/D",
    "capacity --beta 0.5 --n-list 100 --trials 5",
])
def test_threads_flag_exits_2(capsys, tmp_path, argv):
    # trials run serially in one process; no command takes --threads
    code, out, err = run_cli(capsys, *argv.format(tmp=tmp_path).split(), "--threads", "1")
    assert code == 2 and out == ""
    assert "--threads" in err
    assert not (tmp_path / "D").exists()


def test_sweep_delta_flag_exits_2(capsys):
    # budgets come from --t-min/--t-max/--step; sweep takes no --delta
    code, out, err = run_cli(capsys, *"sweep --alg comp --n 10 --k 2 --t-min 1 --t-max 2 "
                                      "--delta 1 --trials 2".split())
    assert code == 2 and out == ""
    assert "--delta" in err


def test_comp_t_and_delta_together_exit_2(capsys):
    # --t and --delta both set COMP's one budget; argparse takes only one
    code, out, err = run_cli(capsys, *"simulate --alg comp --n 10 --k 2 --t 5 "
                                      "--delta 1 --trials 2".split())
    assert code == 2 and out == ""
    assert "--delta" in err and "--t" in err


@pytest.mark.parametrize("argv", [
    "bounds --n 10 --k 2 --out {tmp}/no/such/file",
    "simulate --alg hgbsa --n 10 --k 2 --trials 2 --out {tmp}/no/such/file",
    "sweep --alg hgbsa --n 10 --k 2 --t-min 1 --t-max 5 --trials 2 --out {tmp}/no/such/file",
    "capacity --beta 0.5 --n-list 100 --trials 2 --out {tmp}/no/such/file",
    "figure1 --trials 2 --out-dir {tmp}/file",
])
def test_write_errors_exit_3(capsys, tmp_path, argv):
    (tmp_path / "file").write_text("")  # a file where figure1 wants a directory
    code, out, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 3 and out == ""
    assert err.startswith("error:")


README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_cli_commands_parse(capsys, monkeypatch, tmp_path):
    # each command of the README parses and runs to exit 0
    commands = [shlex.split(line)[1:]
                for block in re.findall(r"```sh\n(.*?)```", README, re.S)
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("grouptest ")]
    assert {argv[0] for argv in commands} == {
        "bounds", "simulate", "sweep", "figure1", "capacity"}
    monkeypatch.chdir(tmp_path)  # figure1 writes into out/
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        assert out and not err


def test_readme_library_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(example, {})


@pytest.mark.parametrize("alg,noise", [("hgbsa", "noiseless"), ("variant", "erasure:0.5")])
def test_invariant_breach_exits_1_and_names_the_trial(capsys, monkeypatch, alg, noise):
    # groups of one item spend about n firm tests, far above the guarantee
    monkeypatch.setitem(algorithms.SPLIT_GROUP_SIZES, alg,
                        lambda k: lambda m, kp: np.ones_like(m))
    code, out, err = run_cli(capsys, "simulate", "--alg", alg, "--n", "100", "--k", "3",
                             "--noise", noise, "--trials", "5", "--seed", "4")
    assert code == 1 and out == ""
    assert "invariant breach" in err and "(master_seed=4, trial_index=0)" in err


@pytest.mark.parametrize("noise,code", [("noiseless", 1), ("erasure:0.2", 1),
                                        ("symmetric:0.01", 0)])
def test_comp_clearing_a_defective_exits_1_on_a_truthful_channel(capsys, monkeypatch,
                                                                  noise, code):
    # the first positive row of each design reads negative: on a channel in
    # TRUTHFUL_CHANNELS that cannot happen, elsewhere it is a failed trial
    negatives = harness.design_negatives

    def flipped(hit, noise, streams):
        negative = negatives(hit, noise, streams)
        held = np.flatnonzero(hit.any(axis=1))
        negative[held, hit[held].argmax(axis=1)] = True
        return negative

    monkeypatch.setattr(harness, "design_negatives", flipped)
    got, out, err = run_cli(capsys, "simulate", "--alg", "comp", "--n", "100", "--k", "5",
                            "--t", "60", "--noise", noise, "--trials", "5", "--seed", "4")
    assert got == code
    if code:
        assert out == ""
        assert "invariant breach" in err and "(master_seed=4, trial_index=0)" in err


def test_comp_breach_in_a_sweep_names_the_budget_that_rebuilds_it(capsys, monkeypatch):
    # a sweep runs each budget on a master seed of its own: the breach names
    # that seed and the budget t, which rebuild the spec whose batch breached
    negatives, run_comp, ran = harness.design_negatives, harness._run_comp, []

    def flipped(hit, noise, streams):
        negative = negatives(hit, noise, streams)
        held = np.flatnonzero(hit.any(axis=1))
        negative[held, hit[held].argmax(axis=1)] = True
        return negative

    monkeypatch.setattr(harness, "design_negatives", flipped)
    monkeypatch.setattr(harness, "_run_comp", lambda spec, *a: ran.append(spec) or
                        run_comp(spec, *a))
    code, out, err = run_cli(capsys, *"sweep --alg comp --n 100 --k 5 --t-min 40 --t-max 160 "
                                      "--step 10 --trials 30 --seed 4".split())
    assert code == 1 and out == ""
    named = re.search(r"\(master_seed=(\d+), trial_index=(\d+)\) of comp at n=100, k=5, "
                      r"t=(\d+), ", err)
    seed, index, t = map(int, named.groups())
    rebuilt = harness.ExperimentSpec(size=ProblemSize(100, 5), algorithm="comp", trials=30,
                                     master_seed=seed, comp_t=t)
    # the range only lists the budgets; the breached batch ran at comp_t
    assert rebuilt == dataclasses.replace(ran[-1], budget_range=None)
    with pytest.raises(harness.InvariantBreach, match=re.escape(named.group(0))):
        harness.tally(rebuilt)


NOISELESS_RUNS = """
import sys, tempfile
import grouptest.cli as cli
assert "numpy.random" not in sys.modules, "imported by grouptest.cli"
with tempfile.TemporaryDirectory() as tmp:
    for argv in (["figure1", "--trials", "5", "--out-dir", tmp],
                 ["simulate", "--alg", "variant", "--n", "500", "--k", "10", "--trials", "20"]):
        assert cli.main(argv) == 0, argv
        assert "numpy.random" not in sys.modules, argv
"""


def test_noiseless_adaptive_runs_never_import_numpy_random():
    # defective sets are drawn from PCG64's raw output by the package's own
    # arithmetic, so a noiseless adaptive run builds no numpy generator and
    # never pays numpy.random's import; checked in a fresh interpreter
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", NOISELESS_RUNS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


ERASURE_AND_REJECTED_ROW_RUNS = """
import sys, tempfile
import grouptest.cli as cli
from grouptest import model
drawn, bounded = [], model._bounded_draws
model._bounded_draws = lambda *a: drawn.append(a[:2]) or bounded(*a)
erasure = ["simulate", "--alg", "hgbsa", "--n", "100000", "--k", "71", "--noise", "erasure:0.25",
           "--trials", "100", "--seed"]
with tempfile.TemporaryDirectory() as tmp:
    for argv, rejected in ((erasure + ["25"], True), (erasure + ["1"], False),
                           (["figure1", "--trials", "500", "--seed", "58", "--out-dir", tmp], True)):
        drawn.clear()
        assert cli.main(argv) == 0, argv
        assert bool(drawn) == rejected, (argv, drawn)  # rows drawn one by one
        assert "numpy.random" not in sys.modules, argv
"""


def test_erasure_and_rejected_row_runs_never_import_numpy_random():
    # the erasure landing reads PCG64's raw output, and a row with a rejected
    # draw is drawn again on the same arithmetic, so neither builds a numpy
    # generator; seed 25 at (100000, 71) and figure1's seed 58 have such rows
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", ERASURE_AND_REJECTED_ROW_RUNS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# ru_maxrss would carry the forking test process's own peak across exec, so
# the child reads the peak of its own address space, VmHWM (KiB). It runs its
# argv with the last flag set to the smaller and then the larger value.
PEAK_RSS_AT_TWO_VALUES = """
import contextlib, io, sys
import grouptest.cli as cli
*argv, flag, small, large = sys.argv[1:]
for value in (small, large):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + [flag, value]) == 0, value
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def peak_rss_at_two_values(argv):
    """The child's VmHWM (KiB) after the smaller and after the larger run."""
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", PEAK_RSS_AT_TWO_VALUES, *argv.split()],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    small, large = map(int, proc.stdout.split())
    return small, large


@pytest.mark.parametrize("argv", [
    "simulate --alg hgbsa --n 500 --k 10",
    "sweep --alg hgbsa --n 500 --k 10 --t-min 0 --t-max 100",
    "capacity --beta 0.5 --n-list 100",
])
def test_peak_memory_does_not_grow_with_trials(argv):
    # every command folds its trials batch by batch (`harness.tally`), so
    # 20 times the trials adds no per-trial list: the peak RSS of one child
    # running 10^4 trials and then 2 x 10^5 grows by well under 8 MiB
    # (a list of `TrialResult`s grows it by about 21 MiB)
    small, large = peak_rss_at_two_values(argv + " --trials 10000 200000")
    assert large - small < 8 << 10, (small, large)


def test_noisy_trial_peak_memory_does_not_grow_with_its_tests():
    # symmetric-noise HGBSA runs one trial at a time against a `TestOracle`,
    # which keeps no log of its tests: at n = 2^30, k = 32768 makes about
    # 5.4 x 10^5 tests, about seven times k = 4096's, and grows the peak RSS
    # of one child by well under 16 MiB (about 8 MiB; a log entry a test grew
    # it by about 96 MiB)
    small, large = peak_rss_at_two_values(
        "simulate --alg hgbsa --n 1073741824 --noise symmetric:0.01 --trials 1 --k 4096 32768")
    assert large - small < 16 << 10, (small, large)


def test_noisy_comp_peak_memory_grows_by_under_8_bytes_a_test():
    # at n = 1 a noisy COMP trial holds its design, its outcomes and its
    # noise flags at a byte a test each (`model.draw_below` holds 2^16 raw
    # outputs at a time), so 2^25 tests peak under 8 bytes a test above
    # 2^22: about +141 MiB (noiseless +113 MiB; a uint64 raw output a test
    # grew it by about 512 MiB)
    small, large = peak_rss_at_two_values(
        "simulate --alg comp --n 1 --k 1 --noise symmetric:0.1 --trials 1 --t 4194304 33554432")
    assert large - small < 8 * (33554432 - 4194304) >> 10, (small, large)


def test_internal_value_error_is_not_exit_2(monkeypatch):
    # only an InputError is an argument error; any other ValueError is a fault;
    # every run goes through `_run_batch`
    def fault(spec, start, stop):
        raise ValueError("internal")
    monkeypatch.setattr(harness, "_run_batch", fault)
    with pytest.raises(ValueError, match="internal"):
        main(["simulate", "--alg", "hgbsa", "--n", "10", "--k", "2", "--trials", "2"])


@st.composite
def cli_argv(draw):
    """An argv of any command, its values mostly good and sometimes bad;
    n <= 200, trials <= 5, budgets <= 300 and erasure p <= 0.9, so that no
    example runs long. "{tmp}" stands for a fresh directory."""
    cmd = draw(st.sampled_from(["bounds", "simulate", "sweep", "figure1", "capacity"]))
    argv = [cmd]

    def flag(name, good, bad=st.nothing(), required=False):
        if required or draw(st.booleans()):
            wrong = draw(st.integers(0, 7)) == 0 and not bad.is_empty
            argv.extend([name, str(draw(bad if wrong else good))])

    n = draw(st.integers(1, 200))
    noise = st.one_of(
        st.just("noiseless"), st.floats(0.0, 0.9).map(lambda p: f"erasure:{p}"),
        st.tuples(st.sampled_from(["symmetric", "additive"]), st.floats(0.0, 0.5))
        .map(lambda kp: f"{kp[0]}:{kp[1]}"))
    bad_noise = st.one_of(st.sampled_from(["bogus", "erasure", "erasure:x"]),
                          st.floats(-1.0, 1.5).map(lambda p: f"symmetric:{p}"))
    if cmd in ("bounds", "simulate", "sweep"):
        flag("--n", st.just(n), st.integers(-1, 0), required=True)
        flag("--k", st.integers(0, n), st.sampled_from([-1, n + 1]), required=True)
        flag("--noise", noise, bad_noise)
    if cmd in ("simulate", "sweep", "capacity"):
        flag("--alg", st.sampled_from(ALGORITHM_NAMES), required=cmd != "capacity")
    if cmd != "bounds":
        flag("--trials", st.integers(1, 5), st.integers(-1, 0), required=True)
        flag("--seed", st.integers(-5, 2 ** 70))
    if cmd in ("bounds", "simulate"):
        flag("--t", st.integers(1, 300), st.integers(-1, 0))
    if cmd == "simulate":
        flag("--delta", st.floats(0.01, 5.0), st.floats(-1.0, 0.0))
    if cmd == "sweep":
        t_min = draw(st.integers(0, 150))
        flag("--t-min", st.just(t_min), st.integers(-1, 0), required=True)
        flag("--t-max", st.integers(t_min, 300), st.integers(-1, 300), required=True)
        flag("--step", st.integers(1, 20), st.integers(-1, 0))
    if cmd == "figure1":
        argv += ["--out-dir", "{tmp}/fig"]
    if cmd == "capacity":
        flag("--beta", st.floats(0.01, 0.99), st.floats(-0.5, 1.5), required=True)
        argv += ["--n-list", *map(str, draw(st.lists(st.integers(-1, 200),
                                                     min_size=1, max_size=3)))]
    if cmd != "figure1" and draw(st.booleans()):  # the second cannot be written: exit 3
        argv += ["--out", draw(st.sampled_from(["{tmp}/out.txt", "{tmp}/no/such/file"]))]
    return argv


@given(cli_argv())
# an adaptive sweep with k = 0 once raised from its guarantee marker
@example(["sweep", "--alg", "hgbsa", "--n", "1", "--k", "0", "--trials", "1",
          "--t-min", "0", "--t-max", "0"])
# RBT at n = k = 1 spends no test; its guarantee rate once divided by 0
@example(["capacity", "--beta", "0.5", "--n-list", "1", "--alg", "rbt", "--trials", "2"])
# a negative n once reached k = n^(1-beta) and raised TypeError on a complex
@example(["capacity", "--beta", "0.5", "--n-list", "-1", "--trials", "1"])
@settings(max_examples=150, deadline=None)
def test_argv_fuzz_exit_codes(argv):
    # with no injected fault, every argv exits 0, 2 or 3 (never 1, never a
    # traceback) and an argument error says so on stderr
    err = io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(err)):
        code = main([a.format(tmp=tmp) for a in argv])
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    if code == 2:
        assert err.getvalue()


# Runs argv after argv through `main` in one interpreter, as JSON lines on
# stdin, and answers each with [exit code or traceback, stdout, stderr];
# "{tmp}" stands for a fresh directory. Any warning is an error, as in the
# suite.
ARGV_CHILD = """
import contextlib, io, json, sys, tempfile, traceback
from grouptest.cli import main
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with (tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        try:
            code = main([a.format(tmp=tmp) for a in json.loads(line)])
        except Exception:
            code = traceback.format_exc()
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


class ArgvChild:
    """One child interpreter with a 2 GB address space that answers argv
    after argv (`ARGV_CHILD`), since each start costs about 0.2 s. An argv
    that runs past `timeout` seconds kills it, and the next starts another."""

    def __init__(self, timeout=60):
        self.timeout, self.proc = timeout, None

    def run(self, argv):
        if self.proc is None or self.proc.poll() is not None:
            self.proc = subprocess.Popen(
                [sys.executable, "-W", "error", "-c", ARGV_CHILD], env=BOUNDED_CHILD_ENV,
                text=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, preexec_fn=limit_address_space)
        self.proc.stdin.write(json.dumps(argv) + "\n")
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], self.timeout)[0]:
            self.close()
            raise AssertionError(f"{argv} ran past {self.timeout} s")
        line = self.proc.stdout.readline()
        assert line, f"the child died on {argv}: exit {self.proc.wait()}"
        return json.loads(line)

    def close(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.communicate()  # and close the pipes


@pytest.fixture(scope="module")
def argv_child():
    child = ArgvChild()
    yield child
    child.close()


def specs_of(argv):
    """The specs a run command's argv runs, built as the command builds
    them, or None where the CLI refuses the argv before it runs any."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = build_parser().parse_args(argv)
        if args.command == "capacity":
            return [harness.ExperimentSpec(size=ProblemSize(n, harness.defectives_for_beta(
                n, args.beta)), algorithm=args.alg, trials=args.trials) for n in args.n_list]
        sweep = (args.t_min, args.t_max, args.step) if args.command == "sweep" else None
        return [_spec_from_args(args, sweep)]
    except (InputError, SystemExit):
        return None


def command_cost(spec):
    """About the tests a command spends on `spec`, in `reference_cost`'s
    units: a noiseless or erasure adaptive trial is batched, about its k
    defectives and 20 submissions to a test; any other trial costs
    `reference_cost`. A sweep adds about 3 a budget for its rows, and 300
    for each budget COMP runs as a spec of its own."""
    n, k, noise = spec.size.n, spec.size.k, spec.noise
    budgets = spec.budgets() if spec.budget_range else []
    if spec.algorithm == "comp":
        return sum(spec.trials * reference_cost("comp", n, k, noise, t) + 300
                   for t in budgets or [spec.comp_t])
    if noise.kind in TRUTHFUL_CHANNELS:
        submissions = harness.guarantee_for(spec.algorithm, spec.size)
        per_trial = k + (submissions / (1.0 - noise.p) / 20 if noise.p else 0)
    else:
        per_trial = reference_cost(spec.algorithm, n, k, noise, 1)
    return spec.trials * per_trial + 3 * len(budgets)


def log_uniform(rng, top):
    """An integer in [1, top] whose bit length is uniform."""
    e = rng.randrange(top.bit_length())
    return min(top, rng.randint(1 << e, (2 << e) - 1))


@st.composite
def sized_argv(draw):
    """An argv of a command that takes sizes, at every size the CLI accepts
    and just past each limit: n log-uniform up to 2^53 + 1; k up to and just
    past the 2^20 cap; every channel, erasure p up to 1 - 1e-12; COMP's t x n
    on both sides of 2^25; sweeps of up to `MAX_BUDGETS` + 1 budgets. Trials
    shrink until an accepted argv costs at most `BUDGET` (`command_cost`);
    a refused one may be any size."""
    rng = draw(st.randoms(use_true_random=True))  # uniform, where st.integers favours edges
    cmd = rng.choice(["bounds", "simulate", "sweep", "capacity"])
    alg = rng.choice(ALGORITHM_NAMES)
    argv = [cmd]
    if cmd == "capacity":
        argv += ["--beta", str(rng.choice([0.01, 0.5, 0.99, rng.uniform(0.01, 0.99)])),
                 "--n-list", *(str(log_uniform(rng, harness.MAX_N + 1))
                               for _ in range(rng.randint(1, 3)))]
        if alg in algorithms.ADAPTIVE_ALGORITHMS:
            argv += ["--alg", alg]
    else:
        n = rng.choice([harness.MAX_N, harness.MAX_N + 1]
                       + 14 * [log_uniform(rng, harness.MAX_N)])
        cap = harness.MAX_TRIAL_CELLS >> 5
        k = rng.choice([0, 1, 2, 3] + 4 * [rng.randint(0, 40)] + 4 * [
            log_uniform(rng, min(n, 2 * cap))] + [cap, cap + 1, n - 1, n])
        kind = rng.choice(list(NoiseKind))
        p = {NoiseKind.NOISELESS: [0.0], NoiseKind.ERASURE: [
            0.01, 0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-12, 1.0]}.get(kind, [0.0, 0.01, 0.3, 0.5])
        argv += ["--n", str(n), "--k", str(k), "--noise", f"{kind.value}:{rng.choice(p)!r}"]
    if cmd == "bounds":
        argv += ["--t", str(log_uniform(rng, 1 << 62))]
    if cmd in ("simulate", "sweep"):
        argv += ["--alg", alg, "--seed", str(rng.getrandbits(64))]
    if cmd == "simulate" and alg == "comp" and rng.randrange(4):
        cells = rng.choice([log_uniform(rng, 1 << 21), harness.MAX_TRIAL_CELLS])
        argv += ["--t", str(max(1, cells // n) + rng.randint(0, 1))]
    elif cmd == "simulate" and alg == "comp":
        argv += ["--delta", str(rng.choice([0.5, 1.0, 5.0, 1e300]))]
    if cmd == "sweep":
        count = rng.choice([1, 2] + 4 * [log_uniform(rng, 1 << 12)] + [
            harness.MAX_BUDGETS, harness.MAX_BUDGETS + 1])
        t_min, step = rng.choice([0, 1, 1, rng.randint(1, 300)]), rng.choice([1, 1, 3])
        argv += ["--t-min", str(t_min), "--t-max", str(t_min + (count - 1) * step),
                 "--step", str(step)]
    if cmd != "bounds":
        trials = rng.choice([1, 3, 50, 700, 10 ** 12])
        argv += ["--trials", str(trials)]
        specs = specs_of(argv)
        if specs is not None:
            each = sum(command_cost(dataclasses.replace(s, trials=1)) for s in specs)
            argv[-1] = str(min(trials, max(1, int(BUDGET // max(each, 1)))))
            specs = specs_of(argv)
            assume(sum(map(command_cost, specs)) <= BUDGET)
    if rng.randrange(4) == 0:  # the second cannot be written: exit 3
        argv += ["--out", rng.choice(["{tmp}/out.txt", "{tmp}/no/such/file"])]
    return argv


@given(sized_argv(), st.none())
# k = 2^20 + 1, past the per-trial cell cap
@example(["simulate", "--alg", "hgbsa", "--n", "9007199254740992", "--k", "1048577",
          "--trials", "1"], 2)
# 2^25 + 1 design cells
@example(["simulate", "--alg", "comp", "--n", "33554433", "--k", "1", "--t", "1",
          "--trials", "1"], 2)
# about 10^13 submissions a trial
@example(["simulate", "--alg", "hgbsa", "--n", "100", "--k", "5", "--noise",
          "erasure:0.999999999999", "--trials", "1"], 2)
# per-trial RBT would hold 2^53 candidates
@example(["simulate", "--alg", "rbt", "--n", "9007199254740992", "--k", "1", "--noise",
          "symmetric:0.1", "--trials", "1"], 2)
# k = (2^53)^(1/2), about 9.5 x 10^7
@example(["capacity", "--beta", "0.5", "--n-list", "9007199254740992", "--trials", "1"], 2)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_argv_fuzz_exit_codes_at_every_size(argv_child, argv, code):
    # in a 2 GB address space every argv exits 0, 2 or 3 (never 1, never a
    # traceback, never a MemoryError), and a refused one writes nothing to
    # stdout and says why on stderr
    got, out, err = argv_child.run(argv)
    assert got in (0, 2, 3), (argv, got, err)
    assert code in (None, got), (argv, got, err)
    if got == 2:
        assert out == "" and "error:" in err, (argv, out, err)
