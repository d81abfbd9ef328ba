"""The reproduction runs at the acceptance settings, each solved once per session.

A fixture is ``(problem, params, outcome, elapsed, states)``: the run is
stepped once with ``steps``, ``outcome`` is its last yield (what ``solve``
returns), ``states`` the state of every yield, and elapsed the wall time of
the stepping alone.  ``run1``, the example1 run, is shared by the acceptance
suite and the diagnostics tests, which mutate copies of its history, so the
tests under ``tests/`` solve it once (``bench/test_checks.py`` solves the
three reproductions again, from ``bench/reference.py``'s copy of these settings).

Every property test runs under the hypothesis profile ``repeatable``, loaded
here: it draws its examples from a fixed seed, keeps no example database and
sets no deadline, so every run draws the same cases.
"""

import time

import pytest
from hypothesis import settings

from params import reproduction_params
from pplad import steps
from pplad.problems import BUILTIN_PROBLEMS, DEFAULT_START

TOL = 1e-7  # stopping tolerance calibrated for the reproduction runs

settings.register_profile("repeatable", derandomize=True, database=None, deadline=None)
settings.load_profile("repeatable")


def timed_run(name):
    problem = BUILTIN_PROBLEMS[name]()
    params = reproduction_params(name, tol_optimality=TOL, tol_feasibility=TOL)
    states = []
    start = time.perf_counter()
    for outcome in steps(problem, params, DEFAULT_START[name]):
        states.append(outcome.final_state)
    return problem, params, outcome, time.perf_counter() - start, states


@pytest.fixture(scope="session")
def run1():
    return timed_run("example1")


@pytest.fixture(scope="session")
def run2():
    return timed_run("example2")


@pytest.fixture(scope="session")
def run3():
    return timed_run("example3")
