"""CLI tests: flag parsing, output schemas, determinism, exit codes."""
import json

import pytest

from grouptest.cli import main, parse_noise, CliError
from grouptest.bounds import NoiseKind


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
            with pytest.raises(CliError):
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

    def test_negative_threads_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alg", "hgbsa", "--n", "10",
                               "--k", "2", "--trials", "5", "--threads", "-4")
        assert code == 2 and "--threads" in err

    def test_unknown_algorithm_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["simulate", "--alg", "magic", "--n", "10", "--k", "1"])
        assert e.value.code == 2


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
])
def test_bad_inputs_exit_2(capsys, tmp_path, argv):
    code, _, err = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2
    assert err.startswith("error:")
    assert not (tmp_path / "D").exists()  # rejected before any output
