import pplad

REMOVED = ("step_x", "step_mu", "step_lambda", "step_z", "gamma", "IterateState",
           "optimality_residual", "feasibility_residual")


def test_every_exported_name_resolves_once():
    assert len(pplad.__all__) == len(set(pplad.__all__))
    for name in pplad.__all__:
        assert hasattr(pplad, name), name


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(pplad.__all__)
    assert not [name for name in REMOVED if hasattr(pplad, name)]
