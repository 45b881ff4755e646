"""The benchmark's workloads: seeded inputs, operations, and output checks.

``build(name, seed, ctx)`` is the set-up: it builds every input of one
pass from the seed and returns the pass as a list of ``Op``.  An
operation's ``run`` is what gets timed; its ``check`` returns the
problems found in the output as (message, known) pairs.

``known`` marks the false verdicts of the seed commit that the benchmark
keeps visible rather than dropping their inputs: the stratification
audit's trend reader leaves a trend INCONCLUSIVE where the theory forces
a definite one.  A subject of tail-Pareto index 3 (the ``pareto3`` model
at t >= 10, the ``gamma3`` curve and other ``pareto:3:L`` curves) reads
index 2 as INCONCLUSIVE instead of DIVERGENT, because L^(2) grows like
x^(1/2) and stays under the 1e3 divergence cap at x = 1e8.  Curves
audited at t = 100 read ZERO trends as INCONCLUSIVE, because their
decade suprema are flat or rising over the first decades before they
fall, and the reader asks for a decline across the whole trail.  Such an
operation still counts as failed; only a failure of another kind (a
wrong definite verdict, a failed audit, a number off its reference)
makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

CLI_DIR = os.path.join(".bench_work", "cli")


@dataclass
class Op:
    name: str
    run: Callable  # (ctx) -> result
    check: Callable  # (result, ctx) -> list of (message, known)


def _sub_seed(seed: int, k: int) -> int:
    return int(seed) * 1000 + k


def _z(gap: float, se: float) -> float:
    return abs(gap) / se if se > 0.0 else (0.0 if gap == 0.0 else math.inf)


# ---------------------------------------------------------------------------
# cli_session: the README examples as fresh CLI processes
# ---------------------------------------------------------------------------

README_STDOUT = {
    "convert": "0.0648721271\nround_trip_residual 0\n",
    "longrate": "0.75 CONVERGED\n",
    "value": "0.116161616\nflow T=10 value=0.116161616 method=closed_form\n",
}


def _exit_ok(res, code=0):
    rc, out, err = res
    if rc != code:
        return [(f"exit code {rc}, expected {code}: {err.strip()[-200:]}", False)]
    return []


def _verdict_pass(res, ctx):
    problems = _exit_ok(res)
    last = res[1].rstrip("\n").rsplit("\n", 1)[-1]
    if not last.endswith(": PASS"):
        problems.append((f"audit verdict line {last!r}", False))
    return problems


def _readme(key):
    def check(res, ctx):
        if res[1] != README_STDOUT[key]:
            return [(f"stdout {res[1]!r} differs from the README", False)] + _exit_ok(res)
        return _exit_ok(res)

    return check


def _count_lines(path) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b""))


def _simulate_check(n_paths, grid_points, csv):
    def check(res, ctx):
        problems = _exit_ok(res)
        lines = res[1].splitlines()
        if not lines or lines[0] != f"paths {n_paths} grid_points {grid_points}":
            return problems + [(f"unexpected simulate summary {lines[:1]!r}", False)]
        _, mean, _, se = lines[1].split()
        z = _z(float(mean) - 1.0, float(se))
        if z > 4.0:
            problems.append((f"terminal mean of M {z:.2f} SE from 1", False))
        rows = _count_lines(csv)
        if rows != n_paths * grid_points + 1:
            problems.append((f"{csv} has {rows} lines, expected {n_paths * grid_points + 1}", False))
        return problems

    return check


def _curve_check(res, ctx):
    problems = _exit_ok(res)
    with open(os.path.join(CLI_DIR, "out.json"), encoding="utf-8") as fh:
        residual = json.load(fh)["time_consistency_residual"]
    if residual > 1e-12:
        problems.append((f"flat-curve time-consistency residual {residual!r}", False))
    return problems


def _aggregate_check(res, ctx):
    problems = _exit_ok(res)
    if "asymptotic_rate " not in res[1] or "censored " not in res[1]:
        problems.append(("aggregate output lacks the estimate or censoring line", False))
    rows = _count_lines(os.path.join(CLI_DIR, "taus.csv"))
    if rows != 10_001:
        problems.append((f"taus.csv has {rows} lines, expected 10001", False))
    return problems


def _classify_check(res, ctx):
    problems = _exit_ok(res)
    doc = json.loads(res[1])
    if doc["kind"] != "tail_pareto" or abs(doc["lambda"] - 2.0) > 0.02:
        problems.append((f"pareto:2:0.04 classified {doc['kind']} lambda {doc['lambda']}", False))
    return problems


def _greenbook_check(res, ctx):
    problems = _exit_ok(res)
    lines = dict(line.split(" ", 1) for line in res[1].splitlines() if " " in line)
    if not float(lines.get("time_consistency_residual", "0")) > 0.0:
        problems.append(("declining schedule shows no time inconsistency", False))
    if lines.get("tail_class") != "exponential":
        problems.append((f"tail class {lines.get('tail_class')!r}", False))
    return problems


def _kernel_first(res, ctx):
    ctx.shared["audit_kernel"] = res
    return _verdict_pass(res, ctx)


def _kernel_same_stdout(res, ctx):
    first = ctx.shared.get("audit_kernel")
    if first is None or (res[0], res[1]) != (first[0], first[1]):
        return [("audit kernel stdout differs between LONGRATE_THREADS=1 and =2", False)]
    return []


def cli_session(seed, ctx):
    os.makedirs(CLI_DIR, exist_ok=True)
    # Warm-up call: compiles the package's bytecode and fills the file cache.
    if ctx.cli(["convert", "--T", "1", "--from", "exp", "--to", "libor", "--value", "0.01"], {})[0]:
        raise RuntimeError("the longrate CLI does not run")
    out = lambda name: os.path.join(CLI_DIR, name)  # noqa: E731
    s = lambda k: str(_sub_seed(seed, k))  # noqa: E731
    kernel = ["audit", "kernel", "--model", "ref2f", "--seed", s(4), "--n", "100000", "--rho", "0.5"]
    commands = [
        ("convert", ["convert", "--T", "10", "--from", "exp", "--to", "libor", "--value", "0.05"],
         {}, _readme("convert")),
        ("longrate", ["longrate", "--model", "ref1f", "--t", "0", "--conv", "libor"],
         {}, _readme("longrate")),
        ("value", ["value", "--model", "ref1f", "--flow", "T=10,amount=1"], {}, _readme("value")),
        ("curve", ["curve", "--curve", "flat:0.03", "--probes", "10:10;20:40", "--json", out("out.json")],
         {}, _curve_check),
        ("aggregate", ["aggregate", "--mix", '{"kind":"gamma","shape":2,"mean_rate":0.04}',
                       "--estimate", "--sample", "10000", "--seed", s(0), "--out", out("taus.csv")],
         {}, _aggregate_check),
        ("simulate", ["simulate", "--model", "ref2f", "--grid", "lin:0:10:21", "--n", "5000",
                      "--seed", s(1), "--rho", "0.5", "--out", out("paths.csv")],
         {}, _simulate_check(5000, 21, out("paths.csv"))),
        ("classify", ["classify", "--curve", "pareto:2:0.04"], {}, _classify_check),
        ("audit_dir", ["audit", "dir", "--model", "ref1f", "--seed", s(2)], {}, _verdict_pass),
        ("audit_strat", ["audit", "strat", "--curve", "flat:0.03"], {}, _verdict_pass),
        ("audit_kernel", kernel, {"LONGRATE_THREADS": "1"}, _kernel_first),
        ("audit_kernel_threads2", kernel, {"LONGRATE_THREADS": "2"}, _kernel_same_stdout),
        ("audit_pareto", ["audit", "pareto", "--model", "pareto2", "--seed", s(3)], {}, _verdict_pass),
        ("greenbook", ["greenbook", "--schedule", "greenbook_example", "--json", out("report.json")],
         {}, _greenbook_check),
        ("simulate_50k", ["simulate", "--model", "ref2f", "--grid", "lin:0:10:21", "--n", "50000",
                          "--seed", "3", "--rho", "0.5", "--out", out("paths50k.csv")],
         {}, _simulate_check(50000, 21, out("paths50k.csv"))),
    ]
    return [
        Op(name, lambda ctx, argv=argv, env=env: ctx.cli(argv, env), check)
        for name, argv, env, check in commands
    ]


def build(name: str, seed: int, ctx) -> list:
    """Set up workload ``name`` and return one pass of its operations.

    The in-process workloads live in ``inprocess`` so that the CLI
    workload's own process never imports longrate.
    """
    if name == "cli_session":
        return cli_session(seed, ctx)
    import inprocess

    return getattr(inprocess, name)(seed, ctx)


WORKLOADS = ("cli_session", "mc_ensemble", "long_horizon")

# Whether a workload's reference samples (worker.Reference) include the
# memory sweep.  long_horizon's interpreter-bound work on small arrays
# drifts with the cache-resident kernel alone, which cut its run-to-run
# spread to about 0.04 where the sweep left 0.10; the CLI processes and
# the large Monte Carlo arrays drift with both, and the kernel alone
# made mc_ensemble's spread 0.13 in quiet periods where the raw one was
# 0.03.
REFERENCE_SWEEP = {"cli_session": True, "mc_ensemble": True, "long_horizon": False}
