"""In-memory span recorder for the benchmark's traced runs.

Spans are taken from the benchmark's side only: ``install`` swaps the
public functions of each longrate layer for timing wrappers in every
loaded ``longrate`` module that holds them, and ``uninstall`` puts the
originals back.  Nothing under ``src/`` changes.

A span records its name, start, end, parent span and operation id.  A
layer's busy time is its self time: the span's duration minus the time
its wrapped child spans cover.  Evaluator calls are too many and too
short for a span each (about 1.8e5 per long-horizon pass), so
``CountingEvaluator`` adds them to its parent's covered time and to a
per-layer total instead.  numpy is imported lazily so that the CLI shim
can time ``import longrate`` from a clean interpreter.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc


class Recorder:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op id]
        self._open = []  # indices of open spans, innermost last
        self._covered = []  # child time covered, parallel to _open
        self.busy = {}  # span name -> [calls, self seconds]
        self.counts = {}  # counter name -> value
        self.op_id = None

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._open.append(len(self.spans) - 1)
        self._covered.append(0.0)

    def end(self) -> float:
        span = self.spans[self._open.pop()]
        covered = self._covered.pop()
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        self._add_busy(span[0], duration - covered)
        if self._covered:
            self._covered[-1] += duration
        return duration

    def current(self) -> int:
        return self._open[-1] if self._open else -1

    def leaf(self, name: str, duration: float) -> None:
        """Account for child work that gets no span of its own."""
        self._add_busy(name, duration)
        if self._covered:
            self._covered[-1] += duration

    def count(self, name: str, n=1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def peak(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, 0.0), value)

    def _add_busy(self, name: str, seconds: float) -> None:
        entry = self.busy.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds

    def merge(self, doc: dict, parent: int) -> None:
        """Fold a child process's recorder (``dump``) in under span ``parent``.

        Both processes read the same system-wide monotonic clock
        (``perf_counter`` on Linux), so the child's times need no shift.
        """
        base = len(self.spans)
        for name, start, end, par, _ in doc["spans"]:
            self.spans.append([name, start, end, parent if par < 0 else base + par, self.op_id])
        for name, (calls, seconds) in doc["busy"].items():
            entry = self.busy.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += seconds
        for name, value in doc["counts"].items():
            if name.endswith("peak_traced_mb"):
                self.peak(name, value)
            else:
                self.count(name, value)

    def dump(self) -> dict:
        return {"spans": self.spans, "busy": self.busy, "counts": self.counts}


def write_spans(rec: Recorder, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, op in rec.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")


# --- counters taken from a wrapped call's arguments and result ---------------


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_simulate(rec, args, kwargs, out):
    factors = 1 if out.n is None else 2
    rec.count("montecarlo.simulate.path_steps", out.n_paths * (out.grid.size - 1) * factors)


def _count_value(rec, args, kwargs, out):
    n_paths = _arg(args, kwargs, 3, "n_paths", 100_000)
    simulated = sum(1 for f in out.flows if f.method == "simulation")
    rec.count("montecarlo.value.paths", n_paths * simulated)


def _count_write(rec, args, kwargs, out):
    ensemble = args[0]
    rec.count("montecarlo.write.rows", ensemble.n_paths * ensemble.grid.size)
    rec.count("montecarlo.write.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _count_estimate(rec, args, kwargs, out):
    horizons = _arg(args, kwargs, 3, "horizons")
    if horizons is None:
        horizons = sys.modules["longrate.asymptotics"].default_long_rate_horizons()
    rec.count("asymptotics.estimate.horizons_probed", len(out.trace))
    rec.count("asymptotics.estimate.horizons_truncated", len(horizons) - len(out.trace))


def _count_discount(rec, args, kwargs, out):
    import numpy as np

    rates = getattr(args[0], "rates", None)
    k = 1 if rates is None else rates.size
    rec.count("aggregation.discount.matrix_elems", int(np.size(args[1])) * k)


def _count_sample(rec, args, kwargs, out):
    rec.count("aggregation.sample.draws", out.n)
    rec.count("aggregation.sample.censored", out.n_censored)


# (module, function, layer span name, counter, trace memory)
TARGETS = [
    ("longrate.zoo", "zoo_model", "zoo.resolve", None, False),
    ("longrate.zoo", "zoo_curve", "zoo.resolve", None, False),
    ("longrate.kernel_models", "load_model_config", "zoo.resolve", None, False),
    ("longrate.montecarlo", "simulate_paths", "montecarlo.simulate", _count_simulate, False),
    ("longrate.montecarlo", "kernel_condition_audit", "montecarlo.audit", None, False),
    ("longrate.montecarlo", "deflated_bond_martingale_check", "montecarlo.audit", None, False),
    ("longrate.montecarlo", "value_claim", "montecarlo.value", _count_value, False),
    ("longrate.montecarlo", "write_ensemble_csv", "montecarlo.write", _count_write, False),
    ("longrate.asymptotics", "estimate_long_rate", "asymptotics.estimate", _count_estimate, False),
    ("longrate.asymptotics", "stratification_audit", "asymptotics.strat", None, False),
    ("longrate.asymptotics", "dir_monotonicity_audit", "asymptotics.dir", None, False),
    ("longrate.asymptotics", "pareto_kernel_certificate", "asymptotics.certificate", None, False),
    ("longrate.asymptotics", "classify_curve", "asymptotics.classify", None, False),
    ("longrate.termstructure", "convert_rate", "termstructure.convert", None, False),
    ("longrate.aggregation", "log_aggregate_discount", "aggregation.discount", _count_discount, True),
    ("longrate.aggregation", "sample_calamity_time", "aggregation.sample", _count_sample, False),
]


def _wrap(rec: Recorder, layer: str, fn, counter, trace_memory: bool):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.begin(layer)
        if trace_memory:
            tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            if trace_memory:
                rec.peak(layer + ".peak_traced_mb", tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            if trace_memory:
                tracemalloc.stop()
            rec.end()
        if counter is not None:
            counter(rec, args, kwargs, out)
        return out

    return wrapper


def install(rec: Recorder):
    """Wrap every target in each loaded longrate module; return an undo function."""
    if "longrate" not in sys.modules:
        return lambda: None
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "longrate" or name.startswith("longrate."))]
    undo = []
    for module_name, attr, layer, counter, trace_memory in TARGETS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = _wrap(rec, layer, original, counter, trace_memory)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))

    def uninstall():
        for module, attr, original in undo:
            setattr(module, attr, original)

    return uninstall


class CountingEvaluator:
    """Evaluator wrapper counting calls, points and distinct (t, T) points.

    It forwards its arguments unchanged, whatever their shape, to the
    wrapped evaluator's ``log_df``/``df``/``__call__`` and charges the
    time to ``layer`` (the bond or curve layer behind the evaluator).
    """

    def __init__(self, inner, rec: Recorder, layer: str):
        self.inner = inner
        self.rec = rec
        self.layer = layer
        self.seen = set()

    def _forward(self, method, t, T):
        start = time.perf_counter()
        out = method(t, T)
        self.rec.leaf(self.layer, time.perf_counter() - start)
        if isinstance(t, (float, int)) and isinstance(T, (float, int)):
            keys = ((t, T),)
        else:
            import numpy as np

            tt, TT = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(T, dtype=float))
            keys = list(zip(tt.ravel().tolist(), TT.ravel().tolist()))
        self.rec.count("asymptotics.evaluator.calls")
        self.rec.count("asymptotics.evaluator.points", len(keys))
        before = len(self.seen)
        self.seen.update(keys)
        self.rec.count("asymptotics.evaluator.distinct", len(self.seen) - before)
        return out

    def log_df(self, t, T):
        return self._forward(self.inner.log_df, t, T)

    def df(self, t, T):
        return self._forward(self.inner.df, t, T)

    def __call__(self, t, T):
        return self._forward(self.inner, t, T)
