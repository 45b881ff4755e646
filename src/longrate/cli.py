"""Command-line front end.

All numeric output is printed to 9 significant digits; files are plain
CSV/JSON with sorted keys and LF endings, so repeated runs with the same
inputs and seeds are byte-identical.  Exit codes: 0 on success, 1 when
an audit reports FAIL, 2 on input/domain errors and on a named file that
cannot be read or written (a command that exits 2 prints nothing to
stdout).

Model references resolve in order: filesystem path, catalogue name
(``ref1f``, ``pareto2``, ``ref2f``, ...).  Curve references resolve as:
CSV path, ``flat:<rate>``, ``pareto:<lam>:<level>``, catalogue name.
Schedule references resolve as: filesystem path, packaged schedule
(``greenbook_example``).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import numbers
import os
import re
import sys

from . import aggregation, asymptotics, conventions, csvformat, kernel_models, montecarlo
from . import reporting, termstructure, zoo
from .errors import DomainError, LongrateError, _read_json

__all__ = ["main", "build_parser", "STPRSchedule"]


def __getattr__(name):
    if name == "STPRSchedule":  # its home is ``termstructure``; still importable from here
        return termstructure.STPRSchedule
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(x) -> str:
    return f"{float(x):.9g}"


def _round9(obj):
    """Limit every float to 9 significant digits; make non-finite values JSON-safe.

    numpy registers its integer and floating scalars as ``numbers.Integral``
    and ``numbers.Real``, so they are read here without importing numpy."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, numbers.Integral):
        return int(obj)
    if isinstance(obj, numbers.Real):
        v = float(obj)
        if math.isfinite(v):
            return float(f"{v:.9g}")
        return "inf" if v == math.inf else ("-inf" if v == -math.inf else "nan")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _emit_json(doc, path=None) -> None:
    text = json.dumps(_round9(doc), indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finish_audit(args, *reports: reporting.AuditReport, doc=None) -> int:
    """Print the reports, write ``--json`` (``doc``, by default the first
    report's dict) and return the exit code: 1 on any FAIL, else 0."""
    for report in reports:
        for line in report.lines():
            print(line)
    if args.json:
        _emit_json(reports[0].as_dict() if doc is None else doc, args.json)
    return 1 if any(r.verdict == reporting.FAIL for r in reports) else 0


def _parse_float(text: str, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"{name}: expected a number, got {text!r}") from None


def _parse_floats(text: str, name: str) -> list[float]:
    error = DomainError(f"{name}: expected comma-separated numbers, got {text!r}")
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise error from None
    if not values:
        raise error
    return values


def _parse_grid(spec: str) -> np.ndarray:
    """Time grids: 'lin:<start>:<stop>:<count>', 'geom:<start>:<stop>:<count>'
    (0 is prepended), or a comma-separated list starting at 0."""
    import numpy as np

    if spec.startswith("lin:") or spec.startswith("geom:"):
        kind, rest = spec.split(":", 1)
        parts = rest.split(":")
        if len(parts) != 3:
            raise DomainError(f"grid spec {spec!r}: expected {kind}:start:stop:count")
        start = _parse_float(parts[0], f"grid spec {spec!r} start")
        stop = _parse_float(parts[1], f"grid spec {spec!r} stop")
        if kind == "geom" and not (start > 0.0 and stop > 0.0):
            raise DomainError(f"grid spec {spec!r}: geom start and stop must be positive")
        try:
            count = int(parts[2])
        except ValueError:
            count = 0
        if count < 1:
            raise DomainError(f"grid spec {spec!r}: count must be a positive integer")
        if kind == "lin":
            grid = np.linspace(start, stop, count)
        else:
            grid = np.concatenate([[0.0], np.geomspace(start, stop, count)])
        return grid
    return np.asarray(_parse_floats(spec, "grid"), dtype=float)


# ---------------------------------------------------------------------------
# Reference resolution
# ---------------------------------------------------------------------------


def _resolve_model(ref: str) -> kernel_models.Model:
    if os.path.exists(ref):
        return kernel_models.load_model_config(ref)
    try:
        return zoo.zoo_model(ref)
    except DomainError:
        pass
    raise DomainError(f"cannot resolve model {ref!r}: not a file or catalogue name")


def _resolve_schedule(ref: str) -> termstructure.STPRSchedule:
    """The schedule at path ``ref``, else the packaged schedule ``ref``
    (``.json`` appended if missing)."""
    from importlib import resources

    if os.path.exists(ref):
        return termstructure.STPRSchedule.load(ref)
    packaged = resources.files("longrate").joinpath(
        "data", ref if ref.endswith(".json") else ref + ".json"
    )
    if not packaged.is_file():
        raise DomainError(f"cannot resolve schedule {ref!r}")
    with resources.as_file(packaged) as fp:
        return termstructure.STPRSchedule.load(fp)


def _resolve_curve(ref: str) -> termstructure.DiscountCurve:
    if os.path.exists(ref):
        return termstructure.load_curve_csv(ref)
    if ref.startswith("flat:"):
        return termstructure.flat_exponential_curve(_parse_float(ref[5:], "flat rate"))
    if ref.startswith("pareto:"):
        parts = ref.split(":")
        if len(parts) != 3:
            raise DomainError(f"curve spec {ref!r}: expected pareto:<lam>:<level>")
        return termstructure.tail_pareto_curve(
            _parse_float(parts[1], "pareto index"),
            _parse_float(parts[2], "pareto level"),
            grid=zoo.long_grid(),
        )
    try:
        return zoo.zoo_curve(ref)
    except DomainError:
        pass
    raise DomainError(
        f"cannot resolve curve {ref!r}: not a CSV file, flat:/pareto: spec, "
        "or catalogue name"
    )


def _model_state(model: kernel_models.Model, args) -> kernel_models.ModelState:
    m = 1.0 if args.m is None else args.m
    if model.factors == 1:
        if args.n is not None:
            raise DomainError("--n only applies to two-factor models")
        return kernel_models.ModelState(args.t, m)
    return kernel_models.ModelState(args.t, m, 1.0 if args.n is None else args.n)


def _reject_for_curve(args, *options: str) -> None:
    """A ``--curve`` run takes none of the ``options`` that only a model reads."""
    for name in options:
        if getattr(args, name) is not None:
            raise DomainError(f"--{name} only applies to --model")


def _anchored_evaluator(args):
    """The ``--model`` at its state, or the ``--curve``: (bond evaluator, anchor time)."""
    if args.model:
        model = _resolve_model(args.model)
        state = _model_state(model, args)
        return kernel_models.bond_evaluator(model, state), state.t
    _reject_for_curve(args, "m", "n")
    return asymptotics.curve_evaluator(_resolve_curve(args.curve)), args.t


def _ensemble_request(args) -> tuple[kernel_models.Model, int, float]:
    """The ``--model``, and the path count and correlation of ``--n`` and ``--rho``.

    Seeds are always explicit: no command draws entropy implicitly, which
    is what makes repeated runs byte-identical.  Seed and path count are
    checked before the model is resolved.  An unset ``--n`` or ``--rho``
    takes the default that ``_add_ensemble_args`` documents.
    """
    if args.seed is None:
        raise DomainError("an explicit --seed is required")
    n = args.n_default if args.n is None else args.n
    if n < 1:
        raise DomainError(f"n_paths must be positive, got {n!r}")
    model = _resolve_model(args.model)
    return model, n, 0.0 if args.rho is None else args.rho


def _model_ensemble(args, grid: np.ndarray) -> tuple[kernel_models.Model, montecarlo.PathEnsemble]:
    """The ``--model`` and its ensemble on ``grid`` from ``--seed``, ``--n``, ``--rho``."""
    model, n, rho = _ensemble_request(args)
    return model, montecarlo.ensemble_for_model(model, grid, n, args.seed, rho=rho)


def _curve_table(curve: termstructure.DiscountCurve, maturities) -> tuple[list[tuple], list[str]]:
    """(maturity, discount factor, exponential rate) rows of ``curve`` and
    their CSV lines, header first.  The rate is nan at maturity 0."""
    exponential = termstructure.RateConvention.exponential()
    rows = []
    for t in maturities:
        ld = curve.log_df(t)
        rate = (termstructure.rate_from_log_discount(termstructure.Tenor(0.0, t), exponential, ld)
                if t > 0.0 else math.nan)
        rows.append((t, math.exp(ld), rate))
    lines = ["maturity_years,discount_factor,exponential_rate"]
    lines += [",".join(_fmt(x) for x in row) for row in rows]
    return rows, lines


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    tenor = conventions.Tenor(args.t, args.T)
    conv_from = conventions.RateConvention.parse(args.conv_from)
    conv_to = conventions.RateConvention.parse(args.conv_to)
    out = conventions.convert_rate(tenor, conv_from, conv_to, args.value)
    if not math.isfinite(out):  # convert_rate quotes an overflow as +inf
        raise DomainError(f"the {conv_to.label()} quote of {conv_from.label()} rate "
                          f"{args.value!r} overflows the float range")
    back = conventions.convert_rate(tenor, conv_to, conv_from, out)
    print(_fmt(out))
    print(f"round_trip_residual {_fmt(abs(back - args.value))}")
    return 0


def cmd_curve(args) -> int:
    curve = _resolve_curve(args.curve)
    times = (
        _parse_floats(args.times, "--times")
        if args.times
        else [t for t in (1.0, 5.0, 10.0, 30.0, 50.0, 100.0) if t <= curve.horizon]
    )
    rows, table = _curve_table(curve, times)
    doc = {"rows": [{"maturity": t, "discount_factor": df, "rate": r} for t, df, r in rows],
           "horizon": curve.horizon}
    if args.probes:
        pairs = []
        for chunk in args.probes.split(";"):
            parts = chunk.split(":")
            if len(parts) != 2:
                raise DomainError(f"--probes entry {chunk!r}: expected t:x")
            pairs.append(tuple(_parse_float(part, f"--probes entry {chunk!r}") for part in parts))
        doc["time_consistency_residual"] = termstructure.time_consistency_residual(curve, pairs)
    print("\n".join(table))
    if args.probes:
        print(f"time_consistency_residual {_fmt(doc['time_consistency_residual'])}")
    if args.out:
        termstructure.save_curve_csv(curve, args.out)
    if args.json:
        _emit_json(doc, args.json)
    return 0


def _mixture_from_config(cfg: dict):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise DomainError("mixture config must be an object with a 'kind' key")
    kind = cfg["kind"]
    try:
        if kind == "discrete":
            return aggregation.DiscreteMixture(cfg["weights"], cfg["rates"])
        if kind == "exponential":
            return aggregation.ExponentialMixture(cfg["mean_rate"])
        if kind == "gamma":
            return aggregation.GammaMixture(cfg["shape"], cfg["mean_rate"])
    except KeyError as exc:
        raise DomainError(f"mixture config missing key {exc.args[0]!r}") from None
    raise DomainError(f"unknown mixture kind {kind!r}")


def cmd_aggregate(args) -> int:
    if os.path.exists(args.mix):
        cfg = _read_json(args.mix)
    else:
        try:
            cfg = json.loads(args.mix)
        except json.JSONDecodeError:
            raise DomainError(
                f"--mix {args.mix!r} is neither a file nor inline JSON"
            ) from None
    mixture = _mixture_from_config(cfg)
    times = _parse_floats(args.times, "--times")
    curve = [aggregation.aggregate_discount(mixture, t) for t in times]
    sample = None
    if args.sample is not None:
        if args.seed is None:
            raise DomainError("--sample needs an explicit --seed")
        if not args.out:
            raise DomainError("--sample needs --out for the CSV file")
        sample = aggregation.sample_calamity_time(mixture, args.sample, args.seed, cap=args.cap)
    print("t,aggregate_discount")
    for t, p in zip(times, curve):
        print(f"{_fmt(t)},{_fmt(p)}")
    if args.estimate:
        est = aggregation.asymptotic_exponential_rate(mixture)
        print(f"asymptotic_rate {_fmt(est.value)} {est.status}")
    if sample is not None:
        with open(args.out, "wb") as fh:
            fh.write(b"tau\n")
            csvformat.write_g9_lines(fh, sample.times)
        print(f"censored {int(sample.censored.sum())} of {args.sample} at cap {_fmt(sample.cap)}")
    return 0


def cmd_simulate(args) -> int:
    grid = _parse_grid(args.grid)
    model, n, rho = _ensemble_request(args)
    # the paths go to --out a wave of chunks at a time: no ensemble is kept
    terminal = montecarlo._write_model_paths(model, grid, n, args.seed, rho, args.out)
    mean, se = montecarlo._mean_se(terminal)
    print(f"paths {n} grid_points {grid.size}")
    print(f"terminal_mean {_fmt(mean)} se {_fmt(se)}")
    return 0


def _parse_flow(spec: str, model: kernel_models.Model) -> montecarlo.CashFlow:
    fields = {}
    for chunk in spec.split(","):
        if "=" not in chunk:
            raise DomainError(f"--flow entry {chunk!r}: expected key=value")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key in fields:
            raise DomainError(f"--flow {spec!r}: repeated key {key!r}")
        fields[key] = value
    if "T" not in fields:
        raise DomainError(f"--flow {spec!r}: missing T=<time>")
    T = _parse_float(fields.pop("T"), "--flow T")
    if set(fields) == {"amount"}:
        return montecarlo.CashFlow(T, amount=_parse_float(fields["amount"], "--flow amount"))
    if set(fields) == {"payoff"}:
        name = fields["payoff"]
        if name not in ("M", "N"):
            raise DomainError(f"--flow {spec!r}: payoff must be M or N, got {name!r}")
        index = "MN".index(name)
        if index >= model.factors:
            raise DomainError(f"payoff={name} needs a two-factor model")
        return montecarlo.CashFlow(T, payoff=lambda *factors: factors[index])
    raise DomainError(f"--flow {spec!r}: specify exactly one of amount=, payoff=")


def cmd_value(args) -> int:
    model = _resolve_model(args.model)
    state = _model_state(model, args)
    schedule = montecarlo.CashFlowSchedule(tuple(_parse_flow(s, model) for s in args.flow))
    result = montecarlo.value_claim(
        model,
        state,
        schedule,
        n_paths=args.paths,
        seed=args.seed,
        rho=args.rho,
        simulate_constants=args.simulate_constants,
    )
    print(_fmt(result.value))
    for fv in result.flows:
        line = f"flow T={_fmt(fv.time)} value={_fmt(fv.value)} method={fv.method}"
        if fv.standard_error is not None:
            line += f" se={_fmt(fv.standard_error)}"
        print(line)
    if args.json:
        _emit_json(result.as_dict(), args.json)
    return 0


def cmd_longrate(args) -> int:
    conv = termstructure.RateConvention.parse(args.conv)
    horizons = termstructure.default_long_rate_horizons(stop=args.horizon)
    evaluator, t = _anchored_evaluator(args)
    if args.model:
        model = evaluator.model
        closed = (kernel_models.long_rate(model, evaluator.state)
                  if conv.pareto_index == model.lam else None)
    else:
        try:
            closed = asymptotics.deterministic_long_rate(evaluator.curve, t, conv)
        except LongrateError:
            closed = None
    est = asymptotics.estimate_long_rate(evaluator, t, conv, horizons)
    headline = est.value if closed is None else closed
    print(f"{_fmt(headline)} {est.status}")
    if args.trace:
        asymptotics.save_trace_csv(est, t, args.trace)
    if args.json:
        _emit_json(
            {
                "convention": conv.label(),
                "t": t,
                "estimate": est.value,
                "status": est.status,
                "tail_sup": est.tail_sup,
                "horizon": est.horizon,
                "closed_form": closed,
                "decade_sups": list(est.decade_sups),
                "truncated_at": est.truncated_at,
                "truncation_reason": est.truncation_reason,
            },
            args.json,
        )
    return 0


def cmd_classify(args) -> int:
    curve = _resolve_curve(args.curve)
    window = None
    if args.window:
        parts = args.window.split(":")
        if len(parts) != 2:
            raise DomainError(f"--window {args.window!r}: expected lo:hi")
        window = tuple(_parse_float(part, f"--window {args.window!r}") for part in parts)
    result = asymptotics.classify_curve(curve, window=window)
    _emit_json(result.as_dict(), args.json)
    if args.json:
        print(result.kind)
    return 0


def _audit_dir(args) -> int:
    times = _parse_floats(args.times, "--times")
    horizons = termstructure.default_long_rate_horizons(stop=args.horizon)
    if args.model:
        import numpy as np

        # the audit's input checks, before the simulation, so they read as for a curve
        asymptotics._dir_audit_inputs(times, horizons, args.kappa)
        subject, ensemble = _model_ensemble(
            args, termstructure._sorted_unique(np.concatenate([[0.0], np.asarray(times)]))
        )
    else:
        _reject_for_curve(args, "seed", "n", "rho")
        subject, ensemble = _resolve_curve(args.curve), None
    report = asymptotics.dir_monotonicity_audit(
        subject, times, ensemble=ensemble, horizons=horizons, kappa=args.kappa
    )
    return _finish_audit(args, report)


def _audit_strat(args) -> int:
    indices = _parse_floats(args.indices, "--indices")
    horizons = termstructure.default_long_rate_horizons(stop=args.horizon)
    evaluator, t = _anchored_evaluator(args)
    report = asymptotics.stratification_audit(evaluator, t, alphas=indices, horizons=horizons)
    return _finish_audit(args, report)


def _audit_kernel(args) -> int:
    model, ensemble = _model_ensemble(args, _parse_grid(args.grid))
    conditions = montecarlo.kernel_condition_audit(model, ensemble)
    times = [t for t in ensemble.grid if t <= args.maturity]
    deflated = montecarlo.deflated_bond_martingale_check(model, ensemble, times, args.maturity)
    doc = {"kernel_conditions": conditions.as_dict(), "deflated_bond": deflated.as_dict()}
    return _finish_audit(args, conditions, deflated, doc=doc)


def _audit_pareto(args) -> int:
    model, ensemble = _model_ensemble(args, _parse_grid(args.grid))
    certificate = asymptotics.pareto_kernel_certificate(model, ensemble, lam=args.lam)
    return _finish_audit(args, certificate)


def cmd_greenbook(args) -> int:
    schedule = _resolve_schedule(args.schedule)
    curve = schedule.curve(spot=args.spot_rates)
    maturities = (
        _parse_floats(args.times, "--times")
        if args.times
        else [1.0, 5.0, 10.0, 20.0, 30.0, 50.0, 75.0, 100.0, 125.0, 150.0,
              200.0, 250.0, 300.0, 400.0, 500.0, 1000.0]
    )
    print("band_start,band_end,rate")
    for start, end, rate in schedule.bands:
        end_text = "inf" if end is None else _fmt(end)
        print(f"{_fmt(start)},{end_text},{_fmt(rate)}")
    rows, table = _curve_table(curve, maturities)
    print("\n".join(table))
    probes = [(10.0, 10.0), (10.0, 20.0), (15.0, 15.0), (20.0, 40.0), (30.0, 30.0),
              (50.0, 50.0), (75.0, 75.0), (100.0, 100.0), (150.0, 150.0)]
    residual = termstructure.time_consistency_residual(curve, probes)
    print(f"time_consistency_residual {_fmt(residual)}")
    classification = asymptotics.classify_curve(curve)
    print(f"tail_class {classification.kind}")
    doc = {
        "bands": [[b[0], b[1], b[2]] for b in schedule.bands],
        "components": schedule.components,
        "interpretation": "spot" if args.spot_rates else "forward",
        "rows": [{"maturity": t, "discount_factor": df, "exponential_rate": r}
                 for t, df, r in rows],
        "time_consistency_residual": residual,
        "classification": classification.as_dict(),
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(table) + "\n")
    if args.json:
        _emit_json(doc, args.json)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t", type=float, default=0.0, help="state time (years)")
    p.add_argument("--m", type=float, help="first factor value (default 1)")
    p.add_argument("--n", type=float, help="second factor value (two-factor; default 1)")


def _add_reference_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model")
    group.add_argument("--curve")


def _add_ensemble_args(p: argparse.ArgumentParser, paths: int, seed_required: bool = True) -> None:
    """``--seed``, ``--n`` (``paths`` by default) and ``--rho``, read by ``_model_ensemble``."""
    p.add_argument("--seed", type=int, required=seed_required)
    p.add_argument("--n", type=int, help=f"number of paths (default {paths})")
    p.add_argument("--rho", type=float, help="correlation of the factor drivers (default 0)")
    p.set_defaults(n_default=paths)


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent notation,
    such as ``-1e-2``, as a value.

    Before Python 3.13 argparse takes an argument for a negative number only
    if it reads ``-1`` or ``-.5``; anything else that starts with ``-`` is an
    option, so ``--value -1e-2`` failed with "expected one argument".  Each
    subparser has this class too, since ``add_subparsers`` builds them with
    the parser's own class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="longrate",
        description="Term-structure analytics: conversions, kernels, long-rate audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a rate between quotation conventions")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--from", dest="conv_from", required=True,
                   help="exp | libor | pareto:<lam> | zc:<kappa>")
    p.add_argument("--to", dest="conv_to", required=True)
    p.add_argument("--value", type=float, required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("curve", help="inspect a discount curve")
    p.add_argument("--curve", required=True, help="CSV path, flat:<r>, pareto:<lam>:<L>, or name")
    p.add_argument("--times", help="comma-separated maturities")
    p.add_argument("--probes", help="time-consistency probes t:x;t:x;...")
    p.add_argument("--out", help="write normalized curve CSV here")
    p.add_argument("--json", help="write summary JSON here")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("aggregate", help="aggregate discount functions from rate mixtures")
    p.add_argument("--mix", required=True, help="mixture JSON (file or inline)")
    p.add_argument("--times", default="0,10,100,1000")
    p.add_argument("--estimate", action="store_true",
                   help="estimate the asymptotic exponential rate")
    p.add_argument("--sample", type=int, help="sample this many calamity times")
    p.add_argument("--seed", type=int)
    p.add_argument("--cap", type=float, default=1e4)
    p.add_argument("--out", help="CSV file for sampled times")
    p.set_defaults(func=cmd_aggregate)

    p = sub.add_parser("simulate", help="simulate martingale driver paths")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", default="lin:0:10:21")
    _add_ensemble_args(p, 1000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("value", help="price a cash-flow schedule under a model")
    p.add_argument("--model", required=True)
    _add_state_args(p)
    p.add_argument("--flow", action="append", required=True,
                   help='e.g. "T=10,amount=1" or "T=1,payoff=M" (repeatable)')
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--rho", type=float, default=0.0)
    p.add_argument("--simulate-constants", action="store_true")
    p.add_argument("--json", help="write the valuation report here")
    p.set_defaults(func=cmd_value)

    p = sub.add_parser("longrate", help="estimate a long rate")
    _add_reference_args(p)
    _add_state_args(p)
    p.add_argument("--conv", required=True)
    p.add_argument("--horizon", type=float, default=1e8)
    p.add_argument("--trace", help="write horizon,rate trace CSV here")
    p.add_argument("--json")
    p.set_defaults(func=cmd_longrate)

    p = sub.add_parser("classify", help="classify a curve's tail decay law")
    p.add_argument("--curve", required=True)
    p.add_argument("--window", help="fit window lo:hi")
    p.add_argument("--json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("audit", help="run a structural audit")
    audit_sub = p.add_subparsers(dest="audit_kind", required=True)

    q = audit_sub.add_parser("dir", help="long-rate monotonicity audit")
    _add_reference_args(q)
    q.add_argument("--times", default="0,1,2,5,10")
    _add_ensemble_args(q, 1000, seed_required=False)
    q.add_argument("--kappa", type=float, default=1.0)
    q.add_argument("--horizon", type=float, default=1e8)
    q.add_argument("--json")
    q.set_defaults(func=_audit_dir)

    q = audit_sub.add_parser("strat", help="long-rate stratification audit")
    _add_reference_args(q)
    _add_state_args(q)
    q.add_argument("--indices", default="1,2,3")
    q.add_argument("--horizon", type=float, default=1e8)
    q.add_argument("--json")
    q.set_defaults(func=_audit_strat)

    q = audit_sub.add_parser("kernel", help="pricing-kernel admissibility audit")
    q.add_argument("--model", required=True)
    _add_ensemble_args(q, 20_000)
    q.add_argument("--grid", default="0,0.5,1,2,5,10")
    q.add_argument("--maturity", type=float, default=10.0)
    q.add_argument("--json")
    q.set_defaults(func=_audit_kernel)

    q = audit_sub.add_parser("pareto", help="tail-Pareto kernel certificate")
    q.add_argument("--model", required=True)
    _add_ensemble_args(q, 20_000)
    q.add_argument("--grid", default="geom:1:1e4:29")
    q.add_argument("--lam", type=float, default=None,
                   help="audit at this index (default: the model's)")
    q.add_argument("--json")
    q.set_defaults(func=_audit_pareto)

    p = sub.add_parser("greenbook", help="build a curve from a banded STPR schedule")
    p.add_argument("--schedule", required=True, help="schedule JSON (file or packaged name)")
    p.add_argument("--spot-rates", action="store_true",
                   help="interpret band rates as spot (not forward) rates")
    p.add_argument("--times")
    p.add_argument("--out", help="write curve table CSV here")
    p.add_argument("--json")
    p.set_defaults(func=cmd_greenbook)

    return parser


def main(argv=None) -> int:
    """Run one command; return its exit code.

    The command's stdout is held until it returns, so a command that
    exits 2 prints nothing there.  Exit 2 covers domain errors and every
    file named on the command line that cannot be opened, read, decoded
    or written; the ``error:`` line names that file.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    held = io.StringIO()
    try:
        with contextlib.redirect_stdout(held):
            code = args.func(args)
    except LongrateError as exc:
        message = str(exc)
    except OSError as exc:
        message = str(exc) if exc.filename is None else f"{exc.filename}: {exc.strerror}"
    except UnicodeDecodeError as exc:
        # only a command's one input file (--model, --curve, --mix or --schedule) is decoded
        path = next(getattr(args, k) for k in ("model", "curve", "mix", "schedule")
                    if getattr(args, k, None))
        message = f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
    else:
        sys.stdout.write(held.getvalue())
        return code
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
