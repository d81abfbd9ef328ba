import pytest

import pplad
from pplad import PenaltyParams, SolverParams, example1, solve

REMOVED = ("step_x", "step_mu", "step_lambda", "step_z", "gamma", "IterateState",
           "optimality_residual", "feasibility_residual", "TraceRecord")


def test_every_exported_name_resolves_once():
    assert len(pplad.__all__) == len(set(pplad.__all__))
    for name in pplad.__all__:
        assert hasattr(pplad, name), name


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(pplad.__all__)
    assert not [name for name in REMOVED if hasattr(pplad, name)]


def test_solve_takes_no_trace_stride():
    # solve records every iteration; only write_trace_csv strides
    params = SolverParams(penalty=PenaltyParams(alpha=2000.0, beta=0.5),
                          step_size=0.002, max_iterations=5)
    with pytest.raises(TypeError, match="trace_stride"):
        solve(example1(), params, [3.0, 3.0], trace_stride=5)
