"""Every name a longrate module lists in ``__all__`` exists, and the package's
names are its home modules' objects."""

import importlib
import pkgutil
import types

import pytest

import longrate

MODULES = ["longrate"] + [
    f"longrate.{info.name}"
    for info in pkgutil.iter_modules(longrate.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


# The names ``import longrate`` bound when it executed every submodule.
PACKAGE_EXPORTS = """
    AsymptoticClass AsymptoticRateEstimate AuditReport BondEvaluator CalamityTimeSample CashFlow
    CashFlowSchedule CheckResult CoefficientFunction CurveForwardEvaluator DegenerateModelError
    DiscountCurve DiscreteMixture DomainError ExponentialMixture ExponentialTail
    ExtrapolationError FAIL FGHCoefficients FitDiagnostics FlowValuation GBMDriver GammaMixture
    INCONCLUSIVE InadmissibleCurveError LongRateEstimate LongrateError Model ModelState
    PASS ParetoTail PathEnsemble RateConvention STPRSchedule Tenor
    UnattainableRateError UnsupportedOperationError ValuationResult aggregate_discount
    asymptotic_exponential_rate attainable_long_rates attainable_short_rates bond_evaluator
    bond_from_long_rate_1f bond_from_short_rate_1f bond_log_df bond_price bond_price_1f
    bond_price_2f classify_curve convert_rate curve_evaluator curve_from_function
    default_curve_grid default_long_rate_horizons deflated_bond_martingale_check
    deterministic_long_rate dir_monotonicity_audit discount_from_rate empirical_survival
    ensemble_for_model estimate_long_rate expected_kernel fgh_coefficients fit_initial_curve
    flat_exponential_curve forward_discount kernel_condition_audit kernel_paths kernel_value
    load_curve_csv load_model_config log_aggregate_discount log_discount_from_rate
    long_libor_1f long_libor_2f long_pareto_1f long_rate model_from_config model_to_config
    ordering_audit pareto_kernel_certificate rate_from_discount rate_from_log_discount
    rates_from_log_discount sample_calamity_time save_curve_csv save_model_config
    save_trace_csv short_rate short_rate_1f short_rate_2f simulate_paths
    state_from_long_rate_1f state_from_short_rate_1f stratification_audit tail_pareto_curve
    theta_value time_consistency_residual value_claim write_ensemble_csv zoo
""".split()


def test_package_exports_resolve_to_their_home_modules():
    assert sorted(longrate.__all__) == sorted(PACKAGE_EXPORTS)
    assert set(PACKAGE_EXPORTS) <= set(dir(longrate))
    assert longrate.zoo is importlib.import_module("longrate.zoo")
    for name in sorted(set(PACKAGE_EXPORTS) - {"zoo"}):
        home = importlib.import_module(f"longrate.{longrate._HOME[name]}")
        value = getattr(longrate, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name


def test_termstructure_imports_the_conventions_back():
    """The same objects, so a tracer that wraps ``termstructure.convert_rate`` and
    rewires every module holding it also wraps the CLI's ``conventions`` call."""
    from longrate import conventions, termstructure

    for name in conventions.__all__:
        assert getattr(termstructure, name) is getattr(conventions, name), name
