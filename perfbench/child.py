"""One benchmark sample: a fresh interpreter that imports `grouptest.cli` and
runs `grouptest.cli.main(argv)` once.

Usage: python3 child.py '<job JSON>'. The job names the package source
directory (`src`), the CLI arguments (`argv`, or null to only import), whether
to trace (`trace`), and where to write the sample (`result`) and the spans
(`spans`). The CLI's own stdout is this process's stdout, untouched.
"""
import json
import os
import resource
import sys
import time

job = json.loads(sys.argv[1])
sys.path.insert(0, job["src"])

import grouptest.cli as cli  # noqa: E402

t_ready = time.monotonic()
if not os.path.abspath(cli.__file__).startswith(os.path.abspath(job["src"]) + os.sep):
    sys.exit(f"grouptest imported from {cli.__file__}, not from {job['src']}")

sample = {"t_ready": t_ready}
if job["argv"] is not None:
    tracer = None
    if job["trace"]:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        t0 = time.perf_counter()
        sample["code"] = cli.main(job["argv"])
        sys.stdout.flush()
        sample["wall_s"] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            sample["restored"] = tracer.restore()
    sample["maxrss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        sample["layers"] = tracer.layer_metrics()
        tracer.save(job["spans"])

with open(job["result"], "w") as f:
    json.dump(sample, f)
