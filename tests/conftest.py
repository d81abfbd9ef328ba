"""The reproduction runs at the acceptance settings, each solved once per session.

A fixture is ``(problem, params, outcome, elapsed)``, elapsed the wall time
of the solve alone.  ``run1``, the example1 run, is shared by the acceptance
suite and the diagnostics tests, so tier-1 solves it once.
"""

import time

import pytest

from params import reproduction_params
from pplad import solve
from pplad.problems import BUILTIN_PROBLEMS, DEFAULT_START

TOL = 1e-7  # stopping tolerance calibrated for the reproduction runs


def timed_run(name):
    problem = BUILTIN_PROBLEMS[name]()
    params = reproduction_params(name, tol_optimality=TOL, tol_feasibility=TOL)
    start = time.perf_counter()
    outcome = solve(problem, params, DEFAULT_START[name])
    return problem, params, outcome, time.perf_counter() - start


@pytest.fixture(scope="session")
def run1():
    return timed_run("example1")


@pytest.fixture(scope="session")
def run2():
    return timed_run("example2")


@pytest.fixture(scope="session")
def run3():
    return timed_run("example3")
