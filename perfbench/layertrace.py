"""In-memory span tracing of the grouptest layers, from outside the package.

`Tracer.install()` replaces public functions of `grouptest.model`,
`algorithms`, `harness`, `bounds` and `cli` with timing wrappers, each at the
module attribute (or dict entry, or class attribute) where its caller looks
it up, and `Tracer.restore()` puts every original back. Nothing under
`src/` is edited.

A span is one wrapped call: name, start, end, parent span, trial index, and
two integers recorded at the boundary (`items`, `aux`). Spans live in flat
arrays while the run lasts and are written out with `save()` at the end.
`layer_metrics()` derives every per-layer number from the spans alone.
"""
from __future__ import annotations

import inspect
import math
from array import array
from time import perf_counter

import numpy as np

# Span names. The group of a span is the per-layer metric prefix it feeds.
SEED, SAMPLE, ORACLE, NOISE = "model.seed", "model.sample", "model.oracle", "model.noise"
RUN, SEARCH = "algorithms.run", "algorithms.binary_search"
TRIAL, RUN_TRIALS, REDUCE = "harness.trial", "harness.run_trials", "harness.reduce"
BOUNDS, CLI = "bounds", "cli"

# Metrics that count work rather than time it. They depend only on the
# command line, so they must repeat exactly across runs and traced/untraced.
COUNT_METRICS = (
    "model.seed.calls", "model.sample.calls", "model.sample.items",
    "model.oracle.tests", "model.oracle.pool_items", "model.oracle.erased",
    "algorithms.run.calls", "algorithms.binary_search.calls",
    "algorithms.tests_per_trial", "algorithms.bits_per_test",
    "algorithms.retry.firm_ratio", "harness.trials", "harness.run_trials.calls",
    "bounds.calls",
)


def _public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.trial = array("i")
        self.start = array("d")
        self.end = array("d")
        self.items = array("q")
        self.aux = array("q")
        self._stack = [-1]
        self._trial = -1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, note=None, sets_trial=False):
        """Timing wrapper around `fn`. `note(args, result)` returns the
        (items, aux) pair recorded on the span."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.items.append(0)
            self.aux.append(0)
            self.end.append(0.0)
            self._stack.append(idx)
            outer_trial = self._trial
            if sets_trial:
                self._trial = args[1] if len(args) > 1 else kwargs["trial_index"]
            self.trial.append(self._trial)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
                self._trial = outer_trial
            if note is not None:
                self.items[idx], self.aux[idx] = note(args, result)
            return result

        return traced

    def _patch(self, owner, key: str, name: str, **kw):
        """Wrap owner.key (or owner[key] for a dict) if it exists."""
        is_dict = isinstance(owner, dict)
        original = owner.get(key) if is_dict else vars(owner).get(key)
        if original is None:
            return
        wrapped = self._wrap(name, original, **kw)
        if is_dict:
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        self._patches.append((owner, key, original))

    def install(self):
        from grouptest import algorithms, bounds, cli, harness, model

        erased = model.Outcome.ERASED
        self._patch(harness, "derive_stream_seed", SEED)
        self._patch(harness, "make_rng", SEED)
        self._patch(harness, "sample_defective_set", SAMPLE,
                    note=lambda a, r: (a[0], a[1]))  # (n, k)
        self._patch(model.TestOracle, "test", ORACLE,
                    note=lambda a, r: (len(a[1]), int(r is erased)))
        self._patch(model, "apply_noise", NOISE)
        for alg in list(algorithms.ADAPTIVE_ALGORITHMS):
            self._patch(algorithms.ADAPTIVE_ALGORITHMS, alg, RUN)
        self._patch(harness, "comp_run", RUN)
        self._patch(algorithms, "binary_search", SEARCH)
        for fname in _public_functions(harness):
            group = {"run_trial": TRIAL, "run_trials": RUN_TRIALS}.get(fname, REDUCE)
            self._patch(harness, fname, group, sets_trial=group == TRIAL)
        bound_fns = set(_public_functions(bounds).values())
        for module in (bounds, model, algorithms, harness, cli):
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in bound_fns:
                    self._patch(module, attr, BOUNDS)
        self._patch(cli, "main", CLI)

    def restore(self) -> bool:
        """Put every original back; True when each attribute is the original."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        ok = all((owner[key] if isinstance(owner, dict) else vars(owner)[key]) is original
                 for owner, key, original in self._patches)
        self._patches.clear()
        return ok

    # -- derivation --------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "trial": np.frombuffer(self.trial, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "items": np.frombuffer(self.items, dtype=np.int64),
            "aux": np.frombuffer(self.aux, dtype=np.int64),
        }

    def save(self, path):
        a = self.arrays()
        t0 = a["start"].min() if len(a["start"]) else 0.0
        np.savez_compressed(path, names=np.array(self.names), **{
            **a, "start": a["start"] - t0, "end": a["end"] - t0})

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times. Self time is a span's duration
        minus the durations of its direct child spans."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child

        def sel(group):
            nid = self._ids.get(group)
            return a["name"] == nid if nid is not None else np.zeros(len(dur), bool)

        def calls(group):
            return int(sel(group).sum())

        def self_s(*groups):
            return float(sum(self_t[sel(g)].sum() for g in groups))

        oracle, sample = sel(ORACLE), sel(SAMPLE)
        tests = int(oracle.sum())
        erased = int(a["aux"][oracle].sum())
        firm = tests - erased
        trials = calls(TRIAL)
        bits = sum(math.log2(math.comb(int(n), int(k)))
                   for n, k in zip(a["items"][sample], a["aux"][sample]))
        return {
            "model.seed.calls": calls(SEED),
            "model.seed.self_s": self_s(SEED),
            "model.sample.calls": calls(SAMPLE),
            "model.sample.self_s": self_s(SAMPLE),
            "model.sample.items": int(a["items"][sample].sum()),
            "model.oracle.tests": tests,
            "model.oracle.self_s": self_s(ORACLE),
            "model.oracle.pool_items": int(a["items"][oracle].sum()),
            "model.oracle.erased": erased,
            "model.noise.self_s": self_s(NOISE),
            "algorithms.run.calls": calls(RUN),
            # Binary search has no self time of its own here: it is 0 on COMP,
            # and a time that reads 0 on every run is not a measurement.
            "algorithms.run.self_s": self_s(RUN, SEARCH),
            "algorithms.binary_search.calls": calls(SEARCH),
            "algorithms.tests_per_trial": tests / trials if trials else 0.0,
            "algorithms.bits_per_test": bits / firm if firm else 0.0,
            "algorithms.retry.firm_ratio": firm / tests if tests else 0.0,
            "harness.trials": trials,
            "harness.run_trials.calls": calls(RUN_TRIALS),
            "harness.trial.self_s": self_s(TRIAL, RUN_TRIALS),
            "harness.reduce.self_s": self_s(REDUCE),
            "bounds.calls": calls(BOUNDS),
            "bounds.self_s": self_s(BOUNDS),
            "cli.self_s": self_s(CLI),
        }
