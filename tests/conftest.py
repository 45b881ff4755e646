"""Shared fixtures: reference models, curves, and a CLI runner."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import longrate as lr


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


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, env_extra=None, cwd=None):
    """Run the CLI in a subprocess (``src`` first on its path); return the CompletedProcess."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "longrate", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture
def cli():
    return run_cli


@pytest.fixture(scope="session")
def small_ensemble(ref1f):
    grid = np.array([0.0, 0.5, 1.0, 2.0, 5.0, 10.0])
    return lr.ensemble_for_model(ref1f, grid, 20_000, seed=101)
