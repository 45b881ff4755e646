"""Run one workload in this process and report what it measured.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

``run.py`` starts it from the checkout root with PYTHONPATH=src.  The
worker prints READY when set-up is done (``run.py`` times the interval
from spawn to that line), then ``SLOWNESS <x>``, the median of five
reference samples (see ``Reference``), and with --setup-only exits
there.  Otherwise it runs whole passes over the workload's operations,
one at a time, for about S seconds (at least one pass), and prints one
JSON line.

With --trace 1 the first half of the time runs untraced and the second
half traced; the traced passes give the per-layer numbers and the
difference between the halves gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from spans import CountingEvaluator, Recorder, install, write_spans

WORK_DIR = ".bench_work"


class Context:
    """What operations reach the program through; tracing swaps in here."""

    def __init__(self):
        self.rec = None  # a Recorder while tracing
        self.shared = {}  # outputs one operation's check hands to a later one, per pass
        self.span_file = os.path.join(WORK_DIR, "cli_spans.json")

    def evaluator(self, ev, layer):
        return ev if self.rec is None else CountingEvaluator(ev, self.rec, layer)

    @contextlib.contextmanager
    def threads(self, value: str):
        before = os.environ.get("LONGRATE_THREADS")
        os.environ["LONGRATE_THREADS"] = value
        try:
            yield
        finally:
            if before is None:
                del os.environ["LONGRATE_THREADS"]
            else:
                os.environ["LONGRATE_THREADS"] = before

    def cli(self, argv, env_extra):
        """One CLI call as a fresh process: (exit code, stdout, stderr)."""
        env = dict(os.environ, **env_extra)
        if self.rec is None:
            cmd = [sys.executable, "-m", "longrate", *argv]
        else:
            if os.path.exists(self.span_file):
                os.remove(self.span_file)
            cmd = [sys.executable, os.path.join("perfbench", "cli_shim.py"), self.span_file, *argv]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=150)
        if self.rec is not None and os.path.exists(self.span_file):
            with open(self.span_file, encoding="utf-8") as fh:
                self.rec.merge(json.load(fh), self.rec.current())
        return proc.returncode, proc.stdout, proc.stderr


def _check(op, result, ctx) -> list:
    try:
        return op.check(result, ctx)
    except Exception:  # a check that cannot read the output fails the operation
        return [(f"check raised {traceback.format_exc(limit=2)}", False)]


class Reference:
    """A fixed reference workload, timed between operations to read the host's speed.

    The speed this host gives the same code drifts by up to a factor of
    two over tens of seconds, as other tenants load the cores and caches
    it shares, and a whole run can fall in a slow stretch.  A sample is
    the host's slowness against the machine the baseline was measured on
    (1.0 at its quiet-period speed, 1.3 when 30% slower), from warm
    timings of a pure-Python and numpy kernel that stays in the core's
    caches and, with ``sweep``, of a numpy sweep over 8 MiB that does
    not, combined by their geometric mean.  Which fits depends on the workload's work
    (``workloads.REFERENCE_SWEEP``).  Operations are scaled by the
    inverse of the mean of the samples on either side of them.  The
    reference touches nothing of longrate, so a change to the package
    moves scaled latencies as it moves raw ones; it allocates nothing
    while timed, because a fresh temporary would come from mmap or from
    the heap depending on the process's allocation history.
    """

    # Median warm timings of the two parts on the machine the baseline was measured on.
    CPU_S = 6.5e-4
    SWEEP_S = 1.5e-3
    # One sample per this much operation time, and one at the start of a pass.
    EVERY_S = 0.05

    def __init__(self, sweep: bool):
        import numpy as np  # here, not at import, so that set-up does not pay for it

        self._np = np
        self._sweep = sweep
        rng = np.random.default_rng(0)
        self._small, self._big = rng.random(1 << 15), rng.random(1 << 20)
        self._small_out, self._big_out = np.empty_like(self._small), np.empty_like(self._big)
        self._floats = [float(i) for i in range(20_000)]

    def _cpu(self) -> float:
        np, a, buf = self._np, self._small, self._small_out
        acc, table = 0.0, {}
        for i in range(1500):
            acc += (i * 1.5) % 7.0
            table[i & 63] = acc
        for i in range(0, len(self._floats), 14):
            acc += self._floats[i] * 0.5
            table[i] = acc
        for _ in range(2):
            np.exp(np.negative(a, out=buf), out=buf)
            acc += float(np.multiply(buf, a, out=buf).sum())
        return acc

    def _memory(self) -> None:
        np = self._np
        np.multiply(self._big, 1.0001, out=self._big_out)
        np.add(self._big_out, self._big, out=self._big_out)

    @staticmethod
    def _warm_time(fn) -> float:
        fn()  # untimed: brings its data back after the operation evicted it
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    def _slowness(self) -> float:
        cpu = self._warm_time(self._cpu) / self.CPU_S
        if not self._sweep:
            return cpu
        return math.sqrt(cpu * self._warm_time(self._memory) / self.SWEEP_S)

    def sample(self, repeats: int = 1) -> float:
        """Median slowness over ``repeats`` timings."""
        return statistics.median(self._slowness() for _ in range(repeats))


def run_passes(ops, ctx: Context, seconds: float, tally: dict, ref: Reference) -> list:
    """Run whole passes for about ``seconds`` (at least one).

    Return each pass's time as (raw, scaled): the sums of its operations'
    raw and reference-scaled latencies.  Checks and reference samples are
    outside both.
    """
    passes = []
    begin = time.perf_counter()
    while True:
        ctx.shared.clear()
        raw_sum = scaled_sum = 0.0
        before = ref.sample()
        pending = []  # latencies since the last reference sample
        for i, op in enumerate(ops):
            if ctx.rec is not None:
                ctx.rec.op_id = f"{len(passes)}:{op.name}"
                ctx.rec.begin("op")
            t0 = time.perf_counter()
            try:
                result, problems = op.run(ctx), None
            except Exception:  # an operation that raises counts as failed
                result, problems = None, [(f"raised {traceback.format_exc(limit=3)}", False)]
            elapsed = time.perf_counter() - t0
            if ctx.rec is not None:
                ctx.rec.end()
            pending.append(elapsed)
            if sum(pending) >= ref.EVERY_S or i == len(ops) - 1:
                # One repeat per EVERY_S of operation time, up to 9: long operations
                # get as steady a correction as short ones, at under a tenth of their time.
                after = ref.sample(min(9, 1 + int(sum(pending) / ref.EVERY_S)))
                factor = 2.0 / (before + after)
                tally["scaled"] += [x * factor for x in pending]
                tally["ref_samples"].append(after)
                raw_sum += sum(pending)
                scaled_sum += sum(pending) * factor
                before, pending = after, []
            if problems is None:
                problems = _check(op, result, ctx)
            result = None  # frees an ensemble before the next operation allocates its own
            tally["latencies"].setdefault(op.name, []).append(elapsed)
            tally["attempted"] += 1
            if problems:
                tally["failed"] += 1
                for message, known in problems:
                    key = "known" if known else "unknown"
                    tally[key].setdefault(f"{op.name}: {message}", 0)
                    tally[key][f"{op.name}: {message}"] += 1
        passes.append((raw_sum, scaled_sum))
        now = time.perf_counter()
        if now + (now - begin) / len(passes) > begin + seconds:  # the next pass would overrun
            return passes


# --- per-layer metrics from the traced passes --------------------------------

BUSY_LAYERS = (
    "zoo.resolve", "montecarlo.simulate", "montecarlo.audit", "montecarlo.value",
    "montecarlo.write", "asymptotics.estimate", "asymptotics.strat", "asymptotics.dir",
    "asymptotics.certificate", "asymptotics.classify", "termstructure.convert",
    "aggregation.discount", "aggregation.sample",
)
COUNTERS = (
    "montecarlo.simulate.path_steps", "montecarlo.value.paths", "montecarlo.write.rows",
    "montecarlo.write.bytes", "asymptotics.estimate.horizons_probed",
    "asymptotics.estimate.horizons_truncated", "asymptotics.evaluator.calls",
    "asymptotics.evaluator.points", "aggregation.discount.matrix_elems",
    "aggregation.sample.draws", "aggregation.sample.censored",
)


def _python(code: str, *flags) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)


def _scipy_import_s(importtime_log: str) -> float:
    """Cumulative time of the outermost scipy imports in a -X importtime log.

    The log lists each import after the imports it triggered, indented two
    spaces per level, so it is read backwards to see parents first.
    """
    total_us = 0
    stack = []  # (level, inside a scipy import) of the current ancestors
    for line in reversed(importtime_log.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:") or "cumulative" in parts[1]:
            continue
        name = parts[2].rstrip()
        level = len(name) - len(name.lstrip())
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name.strip().split(".")[0] == "scipy"
        if is_scipy and not inside:
            total_us += int(parts[1])
        stack.append((level, inside or is_scipy))
    return total_us / 1e6


def import_probes(reps: int = 3) -> dict:
    """Fresh-interpreter ``import longrate``, and its scipy share from -X importtime."""
    timed = "import time; t = time.perf_counter(); import longrate; print(time.perf_counter() - t)"
    import_s = statistics.median(float(_python(timed).stdout) for _ in range(reps))
    scipy_s = statistics.median(
        _scipy_import_s(_python("import longrate", "-X", "importtime").stderr) for _ in range(reps))
    return {"longrate.import_s": import_s, "longrate.import.scipy_s": scipy_s}


def layer_metrics(rec: Recorder, untraced: list, traced: list, untraced_tally: dict) -> dict:
    """Per-layer numbers per traced pass; ``untraced`` and ``traced`` hold raw pass times."""
    passes = len(traced)
    metrics = {}
    for layer in BUSY_LAYERS:
        calls, busy = rec.busy.get(layer, (0, 0.0))
        metrics[layer + ".calls"] = calls / passes
        metrics[layer + ".busy_s"] = busy / passes
    for name in COUNTERS:
        metrics[name] = rec.counts.get(name, 0) / passes
    for layer in ("kernel_models.bond", "termstructure.curve"):
        metrics[layer + ".busy_s"] = rec.busy.get(layer, (0, 0.0))[1] / passes
    busy = metrics["montecarlo.simulate.busy_s"]
    metrics["montecarlo.simulate.path_steps_per_s"] = (
        metrics["montecarlo.simulate.path_steps"] / busy if busy > 0 else 0.0)
    points = metrics["asymptotics.evaluator.points"]
    metrics["asymptotics.evaluator.distinct_ratio"] = (
        rec.counts.get("asymptotics.evaluator.distinct", 0) / passes / points if points else 0.0)
    metrics["aggregation.discount.peak_traced_mb"] = rec.counts.get(
        "aggregation.discount.peak_traced_mb", 0.0)

    # Top-level cover: the time each operation span spends in its direct children.
    cover = {}
    main_by_op = {}
    for name, start, end, parent, op_id in rec.spans:
        if parent >= 0 and rec.spans[parent][0] == "op":
            cover[parent] = cover.get(parent, 0.0) + (end - start)
        if name == "cli.main":
            main_by_op.setdefault(op_id.split(":", 1)[1], []).append(end - start)
    metrics["trace.uncovered_s"] = (sum(traced) - sum(cover.values())) / passes
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["cli.main.busy_s"] = sum(sum(v) for v in main_by_op.values()) / passes
    metrics["cli.spawn_s"] = statistics.median(
        statistics.median(untraced_tally["latencies"][name]) - statistics.median(mains)
        for name, mains in main_by_op.items()) if main_by_op else 0.0
    return metrics


def new_tally() -> dict:
    return {"latencies": {}, "scaled": [], "ref_samples": [], "attempted": 0, "failed": 0,
            "known": {}, "unknown": {}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    ctx = Context()
    ops = workloads.build(args.workload, args.seed, ctx)
    print("READY", flush=True)
    # Samples right after set-up, for run.py to scale the set-up time it measured.
    ref = Reference(workloads.REFERENCE_SWEEP[args.workload])
    print(f"SLOWNESS {ref.sample(5)}", flush=True)
    if args.setup_only:
        return 0

    tally = new_tally()
    doc = {"ops_per_pass": len(ops)}
    if not args.trace:
        doc["passes"] = run_passes(ops, ctx, args.seconds, tally, ref)
    else:
        untraced = run_passes(ops, ctx, args.seconds / 2, tally, ref)
        traced_tally = new_tally()
        ctx.rec = rec = Recorder()
        uninstall = install(rec)
        try:
            traced = run_passes(ops, ctx, args.seconds / 2, traced_tally, ref)
        finally:
            uninstall()
            ctx.rec = None
        write_spans(rec, os.path.join(WORK_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        layers = layer_metrics(rec, [raw for raw, _ in untraced], [raw for raw, _ in traced], tally)
        layers.update(import_probes())
        layers["montecarlo.simulate.scaling_eff"] = 0.0
        if args.workload == "mc_ensemble":
            import inprocess

            layers["montecarlo.simulate.scaling_eff"] = inprocess.scaling_probe(args.seed, ctx)
        doc["layers"] = layers
        doc["passes"] = untraced
        for key in ("attempted", "failed"):
            tally[key] += traced_tally[key]
        for key in ("known", "unknown"):
            for message, n in traced_tally[key].items():
                tally[key][message] = tally[key].get(message, 0) + n

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_session" else resource.RUSAGE_SELF
    doc["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    doc.update(tally)
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
