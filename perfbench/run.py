"""grouptest benchmark: Monte Carlo workloads run through `grouptest.cli.main`.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 40 --trace 0

Run from the repository root. Each sample is one CLI run in a fresh,
single-threaded child interpreter (`child.py`) with the package imported from
`src/`. Samples repeat, all with the same argv, for about `--seconds`, and the
run reports medians over them. Every sample's output is checked, and
all samples of a run must produce byte-identical output.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced samples of the same argv and prints the per-layer metrics derived from
the traced samples' spans (see `layertrace.py`), plus the tracing overhead.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every sample passed its checks. A record of the
run, with the machine, goes to `.perfbench_out/` in the repository root.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from layertrace import COUNT_METRICS  # noqa: E402

MIN_ROUNDS = 3
RUN_LIMIT_S = 170  # the whole run, so that it ends within 180 s

# Why each workload exists: see README.md in this directory.
WORKLOADS = {
    "fig1": {
        "argv": ["figure1", "--trials", "500", "--out-dir", "fig1"],
        "trials": 4 * 500,  # two algorithms at two sizes
    },
    "comp-sweep": {
        "argv": ["sweep", "--alg", "comp", "--n", "100", "--k", "5", "--t-min", "40",
                 "--t-max", "160", "--step", "10", "--trials", "300"],
        "trials": 13 * 300,  # one batch per budget
    },
    "erasure-large-n": {
        "argv": ["simulate", "--alg", "hgbsa", "--n", "100000", "--k", "71",
                 "--noise", "erasure:0.25", "--trials", "100"],
        "trials": 100,
    },
}

END_TO_END_UNITS = {"trials_per_s": "1/s", "wall_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
LAYER_UNITS = {
    "calls": "count", "tests": "count", "items": "count", "pool_items": "count",
    "erased": "count", "trials": "count", "self_s": "s", "output_bytes": "bytes",
    "tests_per_trial": "tests/trial", "bits_per_test": "bit/test",
    "firm_ratio": "ratio", "overhead_frac": "ratio",
}

NOTE = ("Single-run wall_s was seen to vary by about +-15% on a shared 2-core VM, "
        "in process CPU time as well as in wall time; metrics are medians over "
        "repeated CLI runs.")


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "loadavg_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "note": NOTE,
    }


# -- output checks -----------------------------------------------------------

def _csv_rows(data: bytes) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    if not rows:
        raise ValueError("CSV has no rows")
    for r in rows:
        for key in ("t", "success", "ci_lo", "ci_hi"):
            r[key] = float(r[key])
    return rows


def _check_ci(rows, problems, where):
    for r in rows:
        if not r["ci_lo"] <= r["success"] <= r["ci_hi"]:
            problems.append(f"{where}: t={r['t']:g} success {r['success']} outside "
                            f"[{r['ci_lo']}, {r['ci_hi']}]")


def check_fig1(stdout: bytes, files: dict) -> list[str]:
    problems = []
    listed = stdout.decode().split()
    if len(listed) != 2 or sorted(listed) != sorted(files):
        return [f"figure1 listed {listed}, wrote {sorted(files)}"]
    for name, data in files.items():
        rows = _csv_rows(data)
        _check_ci(rows, problems, name)
        if {r["algorithm"] for r in rows} != {"hgbsa", "variant"}:
            problems.append(f"{name}: algorithms {sorted({r['algorithm'] for r in rows})}")
        for r in rows:
            # Noiseless splitting always decodes, within its guarantee.
            if r["t"] >= int(r["guarantee"]) and r["success"] != 1.0:
                problems.append(f"{name}: {r['algorithm']} success {r['success']} at "
                                f"t={r['t']:g} >= guarantee {r['guarantee']}")
    return problems


def check_comp_sweep(stdout: bytes, files: dict) -> list[str]:
    rows = _csv_rows(stdout)
    problems = []
    if [r["t"] for r in rows] != list(range(40, 161, 10)):
        problems.append(f"budgets {[r['t'] for r in rows]}")
    _check_ci(rows, problems, "sweep")
    return problems


def check_simulate(stdout: bytes, files: dict) -> list[str]:
    p = json.loads(stdout)
    problems = []
    if p["trials"] != 100 or p["n"] != 100000 or p["k"] != 71:
        problems.append(f"ran n={p['n']} k={p['k']} trials={p['trials']}")
    # Adaptive HGBSA behind erasure retry must always decode.
    if p["success_rate"] != 1.0:
        problems.append(f"success_rate {p['success_rate']} < 1 under erasure retry")
    if not p["ci_lo"] <= p["success_rate"] <= p["ci_hi"]:
        problems.append(f"success_rate {p['success_rate']} outside CI")
    return problems


CHECKS = {"fig1": check_fig1, "comp-sweep": check_comp_sweep,
          "erasure-large-n": check_simulate}


# -- samples -----------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GT_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_sample(root: Path, out_dir: Path, argv, check, trace: bool, timeout: float,
               spans_path: Path | None = None) -> dict:
    """One child run. Returns its timings and output digest, and a list of
    problems that is empty when the run passed every check."""
    tmp = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        work = tmp / "work"
        work.mkdir()
        job = {"src": str(root / "src"), "argv": argv, "trace": trace,
               "result": str(tmp / "result.json"),
               "spans": str(spans_path) if spans_path else None}
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                                cwd=work, env=child_env(),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"problems": [f"timed out after {timeout:.0f} s"]}
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            return {"problems": [f"exit code {proc.returncode}: "
                                 f"{stderr.decode(errors='replace')[-2000:]}"]}
        sample = json.loads((tmp / "result.json").read_text())
        sample["setup_s"] = sample.pop("t_ready") - t_spawn
        sample["problems"] = problems = []
        if argv is None:
            return sample
        if sample["code"] != 0:
            problems.append(f"cli.main returned {sample['code']}")
        if trace and not sample["restored"]:
            problems.append("a wrapped function was not restored")
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("*")) if p.is_file()}
        try:
            problems += check(stdout, files)
        except (ValueError, KeyError, TypeError, csv.Error) as e:
            problems.append(f"output does not parse: {e!r}")
        digest = hashlib.sha256(stdout)
        for name, data in files.items():
            digest.update(b"\0" + name.encode() + b"\0" + data)
        sample["output_sha256"] = digest.hexdigest()
        sample["output_bytes"] = len(stdout) + sum(len(d) for d in files.values())
        return sample
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def flag_differences(samples: list[dict], key, what: str) -> None:
    """Fail every passing sample whose `key` differs from the first passing
    sample's: one argv must give one output and one set of counts."""
    ok = [s for s in samples if not s["problems"]]
    for s in ok[1:]:
        if key(s) != key(ok[0]):
            s["problems"].append(f"not repeatable: {what} differs from the first sample's")


def end_to_end(samples: list[dict], trials: int) -> dict:
    return {
        "trials_per_s": statistics.median(trials / s["wall_s"] for s in samples),
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["maxrss_mib"] for s in samples),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    metrics = {}
    for name in traced[0]["layers"]:
        values = [s["layers"][name] for s in traced]
        metrics[name] = values[0] if name in COUNT_METRICS else statistics.median(values)
    metrics["cli.output_bytes"] = traced[0]["output_bytes"]
    metrics["trace.overhead_frac"] = (statistics.median(s["wall_s"] for s in traced)
                                      / statistics.median(s["wall_s"] for s in plain) - 1)
    return metrics


def unit(name: str) -> str:
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[-1]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "grouptest" / "cli.py").is_file():
        print(f"error: no src/grouptest/cli.py under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    machine = machine_record()
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    cli_argv = workload["argv"] + ["--seed", str(args.seed)]
    check = CHECKS[args.workload]
    spans_path = out_dir / f"spans-{args.workload}.npz"  # last traced sample only
    modes = (False, True) if args.trace else (False,)

    def time_left() -> float:
        return RUN_LIMIT_S - (time.monotonic() - started)

    # Untimed: compiles bytecode and warms the file cache, as a user's second run would.
    warm = run_sample(root, out_dir, None, None, False, time_left())
    samples = [warm] if warm["problems"] else []
    rounds, round_s = 0, 0.0
    # Start a round only if it should end by the deadline, once MIN_ROUNDS are in.
    while not warm["problems"] and time_left() > round_s and (
            rounds < MIN_ROUNDS or time.monotonic() - started + round_s <= args.seconds):
        t0 = time.monotonic()
        for traced in modes:
            s = run_sample(root, out_dir, cli_argv, check, traced, time_left(), spans_path)
            s["traced"] = traced
            samples.append(s)
        rounds += 1
        round_s = time.monotonic() - t0
    flag_differences(samples, lambda s: s["output_sha256"], "output_sha256")
    flag_differences([s for s in samples if s.get("traced")],
                     lambda s: {m: s["layers"][m] for m in COUNT_METRICS}, "per-layer counts")

    failed = [s for s in samples if s["problems"]]
    plain = [s for s in samples if not s["problems"] and not s.get("traced")]
    traced = [s for s in samples if not s["problems"] and s.get("traced")]
    metrics = {}
    if plain and (traced or not args.trace):
        metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, workload["trials"])
    digests = sorted({s["output_sha256"] for s in samples if "output_sha256" in s})

    print(f"workload {args.workload}  seed {args.seed}  argv {' '.join(cli_argv)}")
    print(f"machine {json.dumps(machine)}")
    print(f"samples {len(samples)}  failed {len(failed)}  "
          f"failed_frac {len(failed) / max(1, len(samples))}")
    for s in failed:
        for problem in s["problems"]:
            print(f"FAILED: {problem}", file=sys.stderr)
    print(f"output_sha256 {' '.join(digests)}")
    for name, value in metrics.items():
        print(f"{name} {value} {unit(name)}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "argv": cli_argv, "machine": machine, "output_sha256": digests,
              "metrics": metrics, "samples": samples,
              "elapsed_s": time.monotonic() - started}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": not failed and bool(metrics),
        "attempted": max(1, len(samples)), "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if not failed and metrics else 1


if __name__ == "__main__":
    sys.exit(main())
