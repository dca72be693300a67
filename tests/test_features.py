import numpy as np
import pytest

from dropintmle.features import gstar_columns, gstar_design, history_design, mechanism_design


def test_intercept_map_shape(scenario1_panel):
    X = history_design(scenario1_panel, "intercept", treat_upto=2)
    assert X.shape == (scenario1_panel.n, 1)
    assert np.all(X == 1.0)


def test_substitution_propagates_into_running_averages(scenario1_panel):
    p = scenario1_panel
    X_obs = history_design(p, "running_avg", treat_upto=3)
    X_sub = history_design(p, "running_avg", treat_upto=3, sub_z=1.0)
    # columns: 1, a_last, z_last, abar, zbar, L3, Lbar
    assert np.all(X_sub[:, 2] == 1.0)
    zbar_expected = (p.Z0 + p.z_at(1) + p.z_at(2) + 1.0) / 4.0
    assert np.allclose(X_sub[:, 4], zbar_expected)
    # untouched columns identical
    assert np.allclose(X_obs[:, 1], X_sub[:, 1])
    assert np.allclose(X_obs[:, 5], X_sub[:, 5])


def test_substitution_with_vector(scenario1_panel):
    p = scenario1_panel
    X = history_design(p, "running_avg", treat_upto=2, sub_z=p.Z0.astype(float))
    assert np.allclose(X[:, 2], p.Z0)


@pytest.mark.parametrize("cov_upto", [0, 1])
@pytest.mark.parametrize("sub", [{}, {"sub_a": 1.0, "sub_z": 0.0}], ids=["observed", "substituted"])
def test_running_avg_first_step_is_main(scenario1_panel, cov_upto, sub):
    # nothing is averaged before the first step: the running-average design
    # is the main design, column for column
    p = scenario1_panel
    X = history_design(p, "running_avg", treat_upto=0, cov_upto=cov_upto, **sub)
    main = history_design(p, "main", treat_upto=0, cov_upto=cov_upto, **sub)
    assert np.array_equal(X, main)
    assert X.shape[1] == 1 + p.d_baseline + 2 + cov_upto * p.L.shape[2]


def test_baseline_step_design_matches_raw_columns(scenario1_panel):
    p = scenario1_panel
    X = history_design(p, "running_avg", treat_upto=0)
    assert X.shape[1] == 1 + p.d_baseline + 2
    assert np.allclose(X[:, 1], p.L0[:, 0])
    assert np.allclose(X[:, 2], p.Z0)
    assert np.allclose(X[:, 3], p.A0)
    X_sub = history_design(p, "running_avg", treat_upto=0, sub_a=1.0, sub_z=0.0)
    assert np.all(X_sub[:, 2] == 0.0) and np.all(X_sub[:, 3] == 1.0)


def test_interactions_column_count(scenario1_panel):
    main = history_design(scenario1_panel, "main", treat_upto=1)
    inter = history_design(scenario1_panel, "interactions", treat_upto=1)
    m = main.shape[1] - 1
    assert inter.shape[1] == 1 + m + m * (m - 1) // 2


def test_mechanism_design_sees_current_covariate(scenario1_panel):
    p = scenario1_panel
    X = mechanism_design(p, "running_avg", "Z", 2)
    # current covariate column present exactly
    found = any(np.allclose(X[:, j], p.l_at(2)[:, 0]) for j in range(X.shape[1]))
    assert found
    Xc = mechanism_design(p, "running_avg", "C", 2)
    assert not any(np.allclose(Xc[:, j], p.l_at(2)[:, 0]) for j in range(Xc.shape[1]))


def test_saturated_one_hot(toy_panel):
    X = history_design(toy_panel, "saturated", treat_upto=1)
    assert np.all(X.sum(axis=1) == 1.0)
    assert np.all((X == 0) | (X == 1))


def test_saturated_rejects_continuous(scenario1_panel):
    with pytest.raises(ValueError):
        history_design(scenario1_panel, "saturated", treat_upto=1)


def test_gstar_design_visits(scenario1_panel):
    p = scenario1_panel
    X0 = gstar_design(p, 0)
    assert X0.shape[1] == 1 + p.d_baseline
    X2 = gstar_design(p, 2)
    assert np.allclose(X2[:, 1], p.z_at(1))
    X2s = gstar_columns(p.L0, 2, 1.0)
    assert np.all(X2s[:, 1] == 1.0)


def test_unknown_map_rejected(scenario1_panel):
    with pytest.raises(ValueError):
        history_design(scenario1_panel, "nope", treat_upto=1)
