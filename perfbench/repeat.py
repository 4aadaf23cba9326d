"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --seeds 1 2 3 4 5 --seconds 20 \
        [--workloads fig1 comp-sweep] [--trace 0] [--out summary.json]

Run from the repository root. For every workload and seed it runs
`perfbench/run.py` once, then reports per metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, which is the distance
between the quartiles as a share of the median. Exits non-zero if any run
failed. `--out` writes the machine record, every run and the summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS, machine_record  # noqa: E402


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    runs = {w: [] for w in args.workloads}
    ok = True
    for seed in args.seeds:
        for w in args.workloads:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=200)
            lines = proc.stdout.splitlines()
            result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
            sha = next((ln.split()[1:] for ln in lines if ln.startswith("output_sha256")), [])
            runs[w].append({"seed": seed, "exit": proc.returncode, "output_sha256": sha,
                            **result})
            ok &= proc.returncode == 0 and result["correct"]
            values = {m: v["value"] for m, v in result["metrics"].items()}
            print(f"{w} seed {seed} exit {proc.returncode} {json.dumps(values)}", flush=True)

    summaries = {}
    for w, rs in runs.items():
        metrics = rs[0]["metrics"] if rs else {}
        summaries[w] = {m: {**summary([r["metrics"][m]["value"] for r in rs]),
                            "unit": metrics[m]["unit"]}
                        for m in metrics if len(rs) > 1 and all(m in r["metrics"] for r in rs)}
        for m, s in summaries[w].items():
            print(f"{w:16} {m:34} median {s['median']:.6g} {s['unit']:11} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f}")
    if args.out:
        args.out.write_text(json.dumps({
            "machine": machine_record(), "seconds": args.seconds, "trace": args.trace,
            "seeds": args.seeds, "summary": summaries, "runs": runs}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
