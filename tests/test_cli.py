"""CLI tests: flag parsing, output schemas, determinism, exit codes."""
import contextlib
import io
import json
import re
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grouptest import algorithms, harness
from grouptest.algorithms import ALGORITHM_NAMES
from grouptest.cli import main, parse_noise
from grouptest.bounds import InputError, NoiseKind


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
])
def test_bad_inputs_exit_2(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "D").exists()  # rejected before any output


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


def test_internal_value_error_is_not_exit_2(monkeypatch):
    # only an InputError is an argument error; any other ValueError is a fault
    def fault(spec):
        raise ValueError("internal")
    monkeypatch.setattr(harness, "run_trials", fault)
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
