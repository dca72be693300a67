import numpy as np
import pytest
from scipy.special import expit

from dropintmle.interventions import (
    ArmPolicy,
    dynamic_z,
    observational_z,
    static_z,
)
from dropintmle.panel import at_risk_mask, validate_panel
from dropintmle.sim import (
    ScenarioConfig,
    drop_in_trajectory,
    oracle_risk_difference,
    scenario_presets,
    simulate_counterfactual_mean,
    simulate_trial,
)

SC1 = scenario_presets()["scenario1"]


def test_preset_table():
    presets = scenario_presets()
    s1, s2, s3 = presets["scenario1"], presets["scenario2"], presets["scenario3"]
    assert (s1.p_z, s1.c_z0, s1.c_z) == (1.0, -1.5, -2.5)
    assert (s2.c_z0, s2.c_z) == (-1.0, 0.0)
    assert s3.p_z == 0.1
    for s in (s1, s2, s3):
        assert s.p_zy == s.p_z     # equal efficacy on covariate and outcome
        assert s.b_zz == 8.0 and s.n_visits == 5


def test_logistic_spot_values():
    # frozen closed forms: expit(-1.5), expit(-3.75)
    assert expit(-1.5) == pytest.approx(0.182426, abs=5e-7)
    assert expit(-3.75) == pytest.approx(0.022977, abs=5e-7)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(c_z0=0, c_z=0, p_z=-1, p_zy=1)
    with pytest.raises(ValueError):
        ScenarioConfig(c_z0=0, c_z=0, p_z=1, p_zy=1, covariate_noise_sd=0.0)
    with pytest.raises(NotImplementedError):
        ScenarioConfig(c_z0=0, c_z=0, p_z=1, p_zy=1, full_adherence=False)


def test_seed_determinism():
    p1 = simulate_trial(SC1, 500, 123)
    p2 = simulate_trial(SC1, 500, 123)
    p3 = simulate_trial(SC1, 500, 124)
    assert np.array_equal(p1.Y, p2.Y) and np.allclose(p1.L, p2.L)
    assert np.array_equal(p1.Z, p2.Z) and np.array_equal(p1.A0, p2.A0)
    assert not np.array_equal(p1.Y, p3.Y)


def test_subject_draws_stable_under_n():
    # subject i's trajectory does not depend on how many others are simulated
    p_small = simulate_trial(SC1, 300, 7)
    p_big = simulate_trial(SC1, 900, 7)
    assert np.allclose(p_small.L0, p_big.L0[:300])
    assert np.array_equal(p_small.Y, p_big.Y[:, :300])
    assert np.array_equal(p_small.Z, p_big.Z[:, :300])


def test_simulated_panel_structure():
    panel = simulate_trial(SC1, 2000, 5)
    assert validate_panel(panel).ok
    assert np.all(panel.D == 0) and np.all(panel.C == 0)
    assert np.array_equal(panel.A[0], panel.A0)   # full adherence
    # at-risk counts non-increasing
    counts = [at_risk_mask(panel, k).sum() for k in range(1, panel.K + 1)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_optional_death_and_censoring_hazards():
    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1,
                         death_hazard=0.05, censor_hazard=0.05)
    panel = simulate_trial(cfg, 3000, 9)
    assert validate_panel(panel).ok
    assert panel.D.sum() > 0 and panel.C.sum() > 0


def test_persistence_probability_high():
    # b_zz = 8 makes discontinuation rare over the typical covariate range
    # |L_k + c_z| < 3
    panel = simulate_trial(SC1, 20_000, 21)
    stays, total = 0, 0
    for k in range(2, panel.K):
        risk = at_risk_mask(panel, k + 1)
        typical = np.abs(panel.l_at(k)[:, 0] + SC1.c_z) < 3.0
        on = risk & typical & (panel.z_at(k - 1) == 1)
        stays += int((panel.z_at(k)[on] == 1).sum())
        total += int(on.sum())
    assert total > 100
    assert stays / total > 0.99


def test_monotone_confounding_direction():
    # placebo arm keeps higher covariate levels on average at every visit
    panel = simulate_trial(SC1, 30_000, 33)
    for k in range(1, panel.K):
        risk = at_risk_mask(panel, k + 1)
        l_placebo = panel.l_at(k)[risk & (panel.A0 == 0), 0].mean()
        l_treated = panel.l_at(k)[risk & (panel.A0 == 1), 0].mean()
        assert l_placebo > l_treated


def test_zero_efficacy_removes_z_effect_on_covariates():
    # with p_z = 0 the covariate law ignores concomitant treatment: forcing
    # z=1 and z=0 gives the same covariate distribution (shared streams make
    # the paths identical realizations)
    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=0.0, p_zy=0.0)
    pol1 = ArmPolicy(a_value=0, z_spec=static_z(1))
    pol0 = ArmPolicy(a_value=0, z_spec=static_z(0))
    r1 = simulate_counterfactual_mean(cfg, pol1, 5, 50_000, 11)
    r0 = simulate_counterfactual_mean(cfg, pol0, 5, 50_000, 11)
    assert r1.risk == r0.risk


def test_oracle_observational_matches_factual():
    # with nothing intervened the oracle reproduces the observed-data mean
    panel = simulate_trial(SC1, 200_000, 61)
    factual = panel.y_at(5).mean()
    pol = ArmPolicy(a_value=None, z_spec=observational_z())
    res = simulate_counterfactual_mean(SC1, pol, 5, 200_000, 61)
    assert res.risk == pytest.approx(factual, abs=3 * res.mc_se)


def test_oracle_baseline_risk_value():
    # frozen study anchor: static (a=0, z=0) risk at the last visit is 11.4%
    pol = ArmPolicy(a_value=0, z_spec=static_z(0))
    res = simulate_counterfactual_mean(SC1, pol, 5, 400_000, 17)
    assert res.risk == pytest.approx(0.114, abs=0.002)


def test_degenerate_intercept_kills_risk():
    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1,
                         outcome_intercept=-40.0)
    pol = ArmPolicy(a_value=0, z_spec=static_z(0))
    res = simulate_counterfactual_mean(cfg, pol, 5, 20_000, 3)
    assert res.risk == 0.0


def test_paired_arm_oracle():
    oc = oracle_risk_difference(SC1, static_z(0), 5, 100_000, 19)
    assert oc.risk1 < oc.risk0          # treatment is protective
    assert oc.psi == pytest.approx(oc.risk1 - oc.risk0, abs=1e-12)
    # pairing: the difference SE is far below the independent-arms bound
    indep = np.sqrt(oc.risk1 * (1 - oc.risk1) + oc.risk0 * (1 - oc.risk0)) / np.sqrt(100_000)
    assert oc.mc_se < indep


def test_horizon_bounds():
    pol = ArmPolicy(a_value=0, z_spec=static_z(0))
    with pytest.raises(ValueError):
        simulate_counterfactual_mean(SC1, pol, 6, 100, 1)
    for horizon in (0, 9):
        with pytest.raises(ValueError, match="outside 1..K"):
            simulate_counterfactual_mean(SC1, pol, horizon, 100, 1)
        with pytest.raises(ValueError, match="outside 1..K"):
            oracle_risk_difference(SC1, static_z(0), horizon, 100, 1)


def test_stochastic_arm_requires_fit():
    from dropintmle.interventions import InterventionSpec

    pol = ArmPolicy(a_value=0, z_spec=InterventionSpec(node="Z", form="stochastic"))
    with pytest.raises(ValueError, match="fitted"):
        simulate_counterfactual_mean(SC1, pol, 5, 100, 1)


def test_dropin_trajectory_shape_and_ordering():
    panel = simulate_trial(SC1, 9340, 101)
    tr = drop_in_trajectory(panel)
    assert len(tr["visit"]) == panel.K
    for arm in ("arm0", "arm1"):
        assert np.all((tr[arm] >= 0) & (tr[arm] <= 1))
    # placebo arm accumulates more drop-in from the second visit on
    assert np.all(tr["arm0"][2:] > tr["arm1"][2:])


def test_dropin_trajectory_all_zero_panel():
    cfg = ScenarioConfig(c_z0=-40.0, c_z=-40.0, p_z=1, p_zy=1)
    panel = simulate_trial(cfg, 2000, 7)
    tr = drop_in_trajectory(panel)
    assert np.all(tr["arm0"] == 0.0) and np.all(tr["arm1"] == 0.0)


def test_scenario2_baseline_dropin_rate():
    # quadrature oracle: E[expit(L0 - 1)] for standard normal L0
    panel = simulate_trial(scenario_presets()["scenario2"], 100_000, 13)
    tr = drop_in_trajectory(panel)
    pooled = panel.Z0.mean()
    se = np.sqrt(0.303 * 0.697 / panel.n)
    assert pooled == pytest.approx(0.3032653298563167, abs=4 * se)
    assert tr["arm0"][0] == pytest.approx(0.3032653298563167, abs=0.02)


def test_discounted_running_average_option():
    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1, avg_decay=0.5)
    panel = simulate_trial(cfg, 2000, 3)
    assert validate_panel(panel).ok
    base = simulate_trial(SC1, 2000, 3)
    assert not np.array_equal(panel.Y, base.Y)   # the dynamics change
