"""longrate: term-structure analytics for the very long run.

Rate-convention algebra, aggregation-based discount functions, rational
pricing-kernel models with closed-form bond prices, seeded Monte Carlo,
and numerical audits of long-rate asymptotics.

``import longrate`` executes none of the submodules.  Each one is in
``sys.modules`` from the start, as a deferred module that executes on
its first attribute access, and each name below resolves from its home
module on first use.  A module that needs a sibling on some paths only
imports the sibling itself (``from . import montecarlo``) and reads its
names where it calls them, so the sibling executes on that first call.
So a CLI command executes only the modules it runs.

numpy follows the same rule: ``cli`` and ``errors`` import it only in
the functions that use it, and ``conventions`` (the rate conventions and
their scalar conversions) not at all.  So ``longrate convert``, every
``--help`` and every usage error run without numpy.
"""

import sys
from _thread import RLock
from importlib.util import find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"

_EXPORTS = {
    "errors": """DegenerateModelError DomainError ExtrapolationError
        InadmissibleCurveError LongrateError UnattainableRateError
        UnsupportedOperationError""",
    "conventions": """RateConvention Tenor convert_rate discount_from_rate
        log_discount_from_rate rate_from_discount rate_from_log_discount""",
    "termstructure": """DiscountCurve ExponentialTail ParetoTail STPRSchedule
        curve_from_function default_curve_grid default_long_rate_horizons
        flat_exponential_curve forward_discount load_curve_csv ordering_audit
        rates_from_log_discount save_curve_csv tail_pareto_curve
        time_consistency_residual""",
    "aggregation": """AsymptoticRateEstimate CalamityTimeSample DiscreteMixture
        ExponentialMixture GammaMixture aggregate_discount asymptotic_exponential_rate
        empirical_survival log_aggregate_discount sample_calamity_time""",
    "drivers": "GBMDriver",
    "kernel_models": """BondEvaluator CoefficientFunction FGHCoefficients Model
        ModelState attainable_long_rates attainable_short_rates bond_evaluator
        bond_from_long_rate_1f bond_from_short_rate_1f bond_log_df bond_price
        bond_price_1f bond_price_2f expected_kernel fgh_coefficients fit_initial_curve
        kernel_value load_model_config long_libor_1f long_libor_2f long_pareto_1f
        long_rate model_from_config model_to_config save_model_config short_rate
        short_rate_1f short_rate_2f state_from_long_rate_1f state_from_short_rate_1f
        theta_value""",
    "montecarlo": """CashFlow CashFlowSchedule FlowValuation PathEnsemble
        ValuationResult deflated_bond_martingale_check ensemble_for_model
        kernel_condition_audit kernel_paths simulate_paths value_claim
        write_ensemble_csv""",
    "asymptotics": """AsymptoticClass CurveForwardEvaluator FitDiagnostics
        LongRateEstimate classify_curve curve_evaluator deterministic_long_rate
        dir_monotonicity_audit estimate_long_rate pareto_kernel_certificate
        save_trace_csv stratification_audit""",
    "reporting": "FAIL INCONCLUSIVE PASS AuditReport CheckResult",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = [*_HOME, "zoo"]

_SUBMODULES = ("errors", "conventions", "reporting", "workers", "csvformat", "drivers",
               "termstructure", "aggregation", "kernel_models", "montecarlo", "asymptotics",
               "zoo", "cli")

# One lock for every deferred module: a thread that holds it may execute
# several modules in turn (one imports the next), and no two threads can
# each hold one module while waiting for the other's.
_execution_lock = RLock()


class _DeferredModule(ModuleType):
    """A submodule in ``sys.modules`` that executes on its first attribute access.

    One thread executes it; other threads wait until it has finished.
    An access from the executing thread itself, as in a circular import,
    sees the module as far as it has run.  If execution raises, the
    module returns to its unexecuted state and the next access runs it
    again.
    """

    def __getattribute__(self, attr):
        with _execution_lock:
            if ModuleType.__getattribute__(self, "__class__") is _DeferredModule:
                _execute(self)
        return ModuleType.__getattribute__(self, attr)


def _execute(module: _DeferredModule) -> None:
    spec = ModuleType.__getattribute__(module, "__spec__")
    if spec.loader_state == "executing":
        return
    namespace = ModuleType.__getattribute__(module, "__dict__")
    unexecuted = dict(namespace)
    spec.loader_state = "executing"
    try:
        spec.loader.exec_module(module)
    except BaseException:
        namespace.clear()
        namespace.update(unexecuted)
        raise
    else:
        module.__class__ = ModuleType
    finally:
        spec.loader_state = None


def _defer(name: str) -> ModuleType:
    """Register the module ``name`` in ``sys.modules`` without executing it."""
    module = module_from_spec(find_spec(name))
    module.__class__ = _DeferredModule
    sys.modules[name] = module
    return module


for _name in _SUBMODULES:
    globals()[_name] = _defer(f"{__name__}.{_name}")


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(globals()[_HOME[name]], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
