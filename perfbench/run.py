"""Benchmark of the longrate package: three seeded workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (the package need not be
installed: every process gets PYTHONPATH=src).  Workloads, all closed
loops with a single caller:

  cli_session   the README CLI examples plus a 50000-path ``simulate``,
                each a fresh ``python -m longrate`` process;
  mc_ensemble   in-process Monte Carlo jobs: simulate, audit, value,
                certify, one job per simulated zoo model;
  long_horizon  in-process long-rate estimation and stratification over
                seeded model states, curves, mixtures and quotes.

With --trace 0 it prints the end-to-end metrics (set-up time; pass time
and median operation latency, both scaled to the baseline machine's speed;
peak resident memory); with --trace 1 the per-layer metrics of a traced
run.  Every operation's output is checked.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the numbers with units and
sample counts, and record the environment.  It uses only the standard
library, so it can report a missing package instead of crashing on an
import.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cli_session", "mc_ensemble", "long_horizon")
SETUP_SAMPLES = 5  # set-up is timed this many times per run (one is the measured worker)
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("LONGRATE_THREADS", None)  # every workload runs at the default single worker
    return env


def spawn_worker(args, deadline: float, setup_only: bool) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to READY, its result or None).

    The seconds are scaled to the baseline machine's speed by the
    reference samples the worker takes right after set-up
    (``worker.Reference``).
    """
    cmd = [sys.executable, os.path.join("perfbench", "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    # A session of its own, so that a kill at the deadline also reaches the CLI processes.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
                            start_new_session=True)

    def kill():
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)

    killer = threading.Timer(max(deadline - time.monotonic(), 0.0), kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        slowness = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            kill()
            proc.wait()
    if ready.strip() != "READY" or len(slowness) != 2 or code != 0:
        raise BenchError(f"worker {' '.join(cmd[2:])} exited with code {code} before finishing")
    setup_s /= float(slowness[1])
    if setup_only:
        return setup_s, None
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def environment() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "LONGRATE_THREADS": os.environ.get("LONGRATE_THREADS"),
        "worker_LONGRATE_THREADS": "unset (default: 1 worker)",
        "cli": f"{os.path.basename(sys.executable)} -m longrate with PYTHONPATH=src",
        "longrate_installed": importlib.util.find_spec("longrate") is not None,
    }


def _quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(setups: list, doc: dict) -> tuple[dict, list]:
    """The gated end-to-end metrics, and the lines that print them with their sample counts.

    ``wall_s`` and the operation latencies are scaled to the baseline
    machine's speed (see ``worker.Reference``); their raw values are
    printed beside them, not gated.
    """
    scaled = doc["scaled"]
    raw = [x for xs in doc["latencies"].values() for x in xs]
    passes = doc["passes"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "wall_s": (statistics.median(s for _, s in passes), "s", len(passes)),
        "op_p50_s": (statistics.median(scaled), "s", len(scaled)),
        "peak_rss_mb": (doc["peak_rss_kb"] / 1024.0, "MB", 1),
    }
    lines = [f"{name} {value:.6g} {unit} (n={n})" for name, (value, unit, n) in metrics.items()]
    # p90 is reported only with at least ten samples beyond it.
    if len(scaled) >= 100:
        lines.append(f"op_p90_s {_quantile(scaled, 0.9):.6g} s (n={len(scaled)}, not gated)")
    else:
        lines.append(f"op_p90_s not reported: {len(scaled)} samples leave fewer than 10 beyond p90")
    slowness = statistics.median(doc["ref_samples"])
    lines += [
        f"raw wall_s {statistics.median(r for r, _ in passes):.6g} s, raw op_p50_s "
        f"{statistics.median(raw):.6g} s (not gated)",
        f"reference slowness median {slowness:.4g} (host at {1 / slowness:.3g}x the baseline "
        f"machine's speed, n={len(doc['ref_samples'])})",
    ]
    return {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()}, lines


LAYER_UNITS = {"_per_s": "1/s", "_s": "s", "_mb": "MB", "_ratio": "ratio", "_eff": "ratio",
               "bytes": "bytes", "matrix_elems": "elems-computed"}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "longrate", "__init__.py")):
        print("error: no longrate source under src/; run from a source checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            _, doc = spawn_worker(args, deadline, setup_only=False)
        else:
            # Set-up is timed in separate processes first; they also warm the bytecode cache.
            setups = [spawn_worker(args, deadline, setup_only=True)[0]
                      for _ in range(SETUP_SAMPLES - 1)]
            setup_s, doc = spawn_worker(args, deadline, setup_only=False)
            setups.append(setup_s)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in sorted(doc["layers"].items())}
        lines = [f"{name} {m['value']:.6g} {m['unit']} (per traced pass, "
                 f"{len(doc['passes'])} untraced passes)" for name, m in metrics.items()]
    else:
        metrics, lines = end_to_end(setups, doc)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{doc['ops_per_pass']} operations per pass")
    print("env " + json.dumps(environment(), sort_keys=True))
    for line in lines:
        print(line)
    print(f"ops {doc['attempted']} ops_failed {doc['failed']}")
    for key in ("known", "unknown"):
        for message, n in sorted(doc[key].items())[:20]:
            lines = message.strip().splitlines()
            brief = lines[0] if len(lines) == 1 else f"{lines[0]} ... {lines[-1]}"
            print(f"failed ({key} defect) x{n}: {brief[:300]}")
    result = {
        # Failures of the documented defect stay in ``failed`` but do not make
        # the outputs incorrect; any other failed check does.
        "correct": not doc["unknown"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
