"""The package's deferred submodules, and which of them each CLI command executes."""

import json
import pkgutil
import sys
import textwrap
import types

import pytest

import longrate
from conftest import run_cli, run_process

# Runs ``longrate.cli.main(argv)`` and prints the submodules it executed,
# and ``numpy.ma`` if anything imported it (``np.unique`` does in numpy 2.4).
# ``type`` reads no attribute, so it executes nothing.
EXECUTED = textwrap.dedent("""
    import contextlib, io, json, sys, types
    import longrate.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = longrate.cli.main(sys.argv[1:])
    print(json.dumps([code, sorted(name for name, module in sys.modules.items()
                                   if name.startswith("longrate.")
                                   and type(module) is types.ModuleType
                                   or name == "numpy.ma")]))
""")

# The README's "Subcommand | Modules executed" table; every command also executes
# ``cli`` and ``errors``, and ``termstructure`` imports ``conventions``.
CATALOGUE = {"conventions", "termstructure", "zoo", "kernel_models", "drivers"}
MONTE_CARLO = {*CATALOGUE, "montecarlo", "reporting", "workers"}
LONG_RATE = {*CATALOGUE, "asymptotics", "reporting"}


@pytest.mark.parametrize("args, modules", [
    (("convert", "--T", 10, "--from", "exp", "--to", "libor", "--value", 0.05),
     {"conventions"}),
    (("curve", "--curve", "flat:0.03"), {"conventions", "termstructure"}),
    (("curve", "--curve", "flat3"), CATALOGUE),
    (("value", "--model", "ref1f", "--flow", "T=10,amount=1"), MONTE_CARLO),
    (("simulate", "--model", "ref2f", "--n", 100, "--seed", 3, "--out", "{tmp}/paths.csv"),
     {*MONTE_CARLO, "csvformat"}),
    (("audit", "kernel", "--model", "ref1f", "--seed", 1, "--n", 1000), MONTE_CARLO),
    (("longrate", "--model", "ref1f", "--conv", "libor"), LONG_RATE),
    (("longrate", "--curve", "flat3", "--conv", "libor"), LONG_RATE),
    (("classify", "--curve", "pareto:2:0.04"), LONG_RATE),
    (("audit", "strat", "--curve", "flat:0.03"), LONG_RATE - {"zoo"}),
    (("greenbook", "--schedule", "greenbook_example"), LONG_RATE - {"zoo"}),
    (("audit", "dir", "--curve", "flat:0.03"), LONG_RATE - {"zoo"}),
    (("audit", "dir", "--model", "ref1f", "--seed", 1, "--n", 200),
     {*LONG_RATE, "montecarlo", "workers"}),
    (("audit", "pareto", "--model", "pareto2", "--seed", 1, "--n", 1000),
     {*LONG_RATE, "montecarlo", "workers"}),
], ids=["convert", "curve", "curve-catalogue", "value", "simulate", "audit-kernel", "longrate",
        "longrate-catalogue", "classify", "audit-strat", "greenbook", "audit-dir-curve",
        "audit-dir", "audit-pareto"])
def test_command_executes_only_the_modules_it_runs(args, modules, tmp_path):
    argv = [str(a).replace("{tmp}", str(tmp_path)) for a in args]
    out = run_process("-c", EXECUTED, *argv)
    assert out.returncode == 0, out.stderr
    code, executed = json.loads(out.stdout)
    assert code in (0, 1)
    # exactly these, so no ``numpy.ma`` either: an import no command needs
    assert executed == sorted(f"longrate.{name}" for name in {"cli", "errors", *modules})


# Runs ``longrate.cli.main(argv)``, argparse's exits included, and prints the exit
# code and whether anything imported numpy.
IMPORTS_NUMPY = textwrap.dedent("""
    import contextlib, io, json, sys
    import longrate.cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = longrate.cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
    print(json.dumps([code, "numpy" in sys.modules]))
""")


@pytest.mark.parametrize("args, code", [
    (("convert", "--T", 10, "--from", "exp", "--to", "libor", "--value", 0.05), 0),
    (("convert", "--T", 10, "--from", "libor", "--to", "exp", "--value", -0.2), 2),
    (("--help",), 0),
    (("audit", "kernel", "--help"), 0),
    (("convert", "--T", 10), 2),
], ids=["convert", "convert-domain-error", "help", "audit-kernel-help", "usage-error"])
def test_convert_help_and_usage_errors_import_no_numpy(args, code):
    out = run_process("-c", IMPORTS_NUMPY, *args)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [code, False]


@pytest.mark.parametrize("options, extra", [
    ((), []),
    (("--estimate",), ["longrate.conventions", "longrate.termstructure"]),  # the probe schedule
    (("--sample", 10, "--seed", 1, "--out", "{tmp}/tau.csv"), ["longrate.csvformat"]),
], ids=["curve", "estimate", "sample"])
def test_aggregate_executes_the_aggregation_leaf_alone(options, extra, tmp_path):
    argv = ["aggregate", "--mix", '{"kind": "gamma", "shape": 2, "mean_rate": 0.04}',
            *(str(a).replace("{tmp}", str(tmp_path)) for a in options)]
    out = run_process("-c", EXECUTED, *argv)
    assert out.returncode == 0, out.stderr
    expected = ["longrate.aggregation", "longrate.cli", "longrate.errors", "longrate.workers"]
    assert json.loads(out.stdout) == [0, sorted(expected + extra)]


def test_every_submodule_is_registered_on_import():
    submodules = {f"longrate.{info.name}" for info in pkgutil.iter_modules(longrate.__path__)}
    assert submodules - {"longrate.__main__"} <= set(sys.modules)


@pytest.mark.parametrize("home, name, args", [
    ("conventions", "convert_rate",
     ("convert", "--T", 10, "--from", "exp", "--to", "libor", "--value", 0.05)),
    ("asymptotics", "estimate_long_rate", ("longrate", "--curve", "flat3", "--conv", "exp")),
    ("montecarlo", "value_claim", ("value", "--model", "ref1f", "--flow", "T=10,amount=1")),
    ("zoo", "zoo_curve", ("classify", "--curve", "flat3")),
])
def test_cli_calls_the_function_on_its_home_module(home, name, args, monkeypatch):
    """What a tracer that wraps a home module's function relies on."""
    module = getattr(longrate, home)
    original, calls = getattr(module, name), []

    def spy(*a, **k):
        calls.append(name)
        return original(*a, **k)

    monkeypatch.setattr(module, name, spy)
    assert run_cli(*args).returncode == 0
    assert calls


RACE = textwrap.dedent("""
    import sys, threading, types
    import longrate

    name = "longrate.termstructure"
    module = sys.modules[name]
    loader = types.ModuleType.__getattribute__(module, "__spec__").loader
    runs, seen, errors = [], [], []
    execute = loader.exec_module

    def counted(mod):
        runs.append(mod)
        execute(mod)

    loader.exec_module = counted
    barrier = threading.Barrier(8)

    def touch():
        barrier.wait()
        try:
            from longrate.termstructure import DiscountCurve
            seen.append((sys.modules[name], DiscountCurve))
        except BaseException as exc:
            errors.append(repr(exc))

    sys.setswitchinterval(1e-6)
    threads = [threading.Thread(target=touch) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    print(sum(t.is_alive() for t in threads), len(runs), len(seen), len(set(seen)), errors)
""")


def test_threads_racing_a_first_access_execute_the_module_once():
    out = run_process("-c", RACE)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0 1 8 1 []\n"  # none hung, one execution, eight alike, no error


def test_failed_execution_leaves_no_partial_module(tmp_path, monkeypatch):
    package = tmp_path / "deferred_probe"
    package.mkdir()
    (package / "__init__.py").write_text("runs = 0\n")
    (package / "flaky.py").write_text(textwrap.dedent("""
        import deferred_probe
        deferred_probe.runs += 1
        BEFORE = 1
        if deferred_probe.runs == 1:
            raise RuntimeError("first run fails")
        AFTER = 2
    """))
    (package / "selfref.py").write_text(textwrap.dedent("""
        import sys
        BEFORE = 1
        SEEN = getattr(sys.modules[__name__], "BEFORE")  # re-entrant: must not run again
        MISSING = hasattr(sys.modules[__name__], "AFTER")
        AFTER = 2
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        flaky = longrate._defer("deferred_probe.flaky")
        with pytest.raises(RuntimeError, match="first run fails"):
            flaky.AFTER
        assert "BEFORE" not in types.ModuleType.__getattribute__(flaky, "__dict__")
        assert type(flaky) is not types.ModuleType
        assert flaky.AFTER == 2
        assert (type(flaky), sys.modules["deferred_probe"].runs) == (types.ModuleType, 2)
        assert sys.modules["deferred_probe.flaky"] is flaky

        selfref = longrate._defer("deferred_probe.selfref")
        assert (selfref.SEEN, selfref.MISSING, selfref.AFTER) == (1, False, 2)
    finally:
        for name in ("deferred_probe", "deferred_probe.flaky", "deferred_probe.selfref"):
            sys.modules.pop(name, None)
