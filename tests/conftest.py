"""Shared fixtures: reference models, curves, and the CLI runners."""

import hashlib
import io
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import longrate as lr
from longrate import cli


@pytest.fixture(scope="session")
def ref1f():
    return lr.zoo.reference_one_factor()


@pytest.fixture(scope="session")
def ref2f():
    return lr.zoo.reference_two_factor()


@pytest.fixture(scope="session")
def ref2fx():
    return lr.zoo.staggered_two_factor()


@pytest.fixture(scope="session")
def pareto2():
    return lr.zoo.pareto_one_factor(2.0)


@pytest.fixture(scope="session")
def curves():
    return lr.zoo.curve_zoo()


def assert_same_model_bits(got, want):
    """Every coefficient and derivative equal bit for bit on 1e-3..1e8; equal drivers."""
    grid = np.geomspace(1e-3, 1e8, 1101)
    assert len(got.coefficients) == len(want.coefficients)
    for g, w in zip(got.coefficients, want.coefficients):
        assert (g.lam, g.tail_limit, g.family, g.params) == (w.lam, w.tail_limit, w.family, w.params)
        for a, b in ((g(grid), w(grid)), (g.derivative(grid), w.derivative(grid))):
            assert np.array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
    assert got.drivers == want.drivers


def g9_digest(values) -> str:
    """sha256 of each value's '%.9g' rendering, in C order: a pin that holds on every
    SIMD target, whose exp and power differ in the last bit, not in 9 digits."""
    rendered = " ".join(map("%.9g".__mod__, np.ravel(values).tolist()))
    return hashlib.sha256(rendered.encode()).hexdigest()


def run_cli(*args, env_extra=None, cwd=None):
    """Run ``longrate.cli.main`` in process, in ``cwd`` with ``env_extra`` set.

    argparse's ``SystemExit`` becomes the return code, any other exception
    escapes, and every warning, repeats included, goes to the captured stderr."""
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(warnings.formatwarning(message, category, filename, lineno, line))

    saved_cwd = os.getcwd()
    with mock.patch.dict(os.environ, env_extra or {}), warnings.catch_warnings(), \
            redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            os.chdir(cwd or saved_cwd)
            code = cli.main([str(a) for a in args])
        except SystemExit as exc:
            code = exc.code
        finally:
            os.chdir(saved_cwd)
    return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())


def run_process(*args, env_extra=None):
    """Run ``python *args`` in a fresh interpreter with this ``src`` first on its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **(env_extra or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *map(str, args)], capture_output=True, text=True,
                          env=env, timeout=300)


@pytest.fixture(scope="session")
def small_ensemble(ref1f):
    grid = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    return lr.ensemble_for_model(ref1f, grid, 20_000, seed=101)
