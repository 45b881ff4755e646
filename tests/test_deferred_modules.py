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

NO_KERNEL = {"longrate.montecarlo", "longrate.asymptotics", "longrate.aggregation",
             "longrate.kernel_models"}


@pytest.mark.parametrize("args, never", [
    (("convert", "--T", 10, "--from", "exp", "--to", "libor", "--value", 0.05), NO_KERNEL),
    (("curve", "--curve", "flat:0.03"), NO_KERNEL),
    (("value", "--model", "ref1f", "--flow", "T=10,amount=1"), {"longrate.asymptotics"}),
    (("simulate", "--model", "ref2f", "--n", 100, "--seed", 3, "--out", "{tmp}/paths.csv"),
     {"longrate.asymptotics"}),
    (("audit", "kernel", "--model", "ref1f", "--seed", 1, "--n", 1000),
     {"longrate.asymptotics"}),
    (("longrate", "--model", "ref1f", "--conv", "libor"), {"longrate.montecarlo"}),
    (("classify", "--curve", "pareto:2:0.04"), {"longrate.montecarlo"}),
    (("audit", "strat", "--curve", "flat:0.03"), {"longrate.montecarlo"}),
    (("greenbook", "--schedule", "greenbook_example"), {"longrate.montecarlo"}),
    (("audit", "dir", "--model", "ref1f", "--seed", 1, "--n", 200), set()),
], ids=["convert", "curve", "value", "simulate", "audit-kernel", "longrate", "classify",
        "audit-strat", "greenbook", "audit-dir"])
def test_command_executes_only_the_modules_it_runs(args, never, tmp_path):
    argv = [str(a).replace("{tmp}", str(tmp_path)) for a in args]
    out = run_process("-c", EXECUTED, *argv)
    assert out.returncode == 0, out.stderr
    code, executed = json.loads(out.stdout)
    assert code in (0, 1)
    assert "longrate.cli" in executed
    assert never.isdisjoint(executed)
    assert "numpy.ma" not in executed  # an import no command needs


def test_every_submodule_is_registered_on_import():
    submodules = {f"longrate.{info.name}" for info in pkgutil.iter_modules(longrate.__path__)}
    assert submodules - {"longrate.__main__"} <= set(sys.modules)


@pytest.mark.parametrize("home, name, args", [
    ("termstructure", "convert_rate",
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
