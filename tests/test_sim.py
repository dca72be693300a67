
import numpy as np
import pytest
from scipy.special import expit

from dropintmle import sim
from dropintmle.interventions import (
    POLICY_NAMES,
    ArmPolicy,
    observational_z,
    policy_specs,
    static_z,
)
from dropintmle.panel import at_risk_mask, make_panel, validate_panel
from dropintmle.sim import (
    OracleContrast,
    ScenarioConfig,
    drop_in_trajectory,
    fit_reference_gstar,
    oracle_risk_difference,
    oracle_risk_differences,
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
    # a field of the wrong type: n_visits is an integer, the others finite
    # numbers (avg_decay may be None)
    for bad in ({"n_visits": 2.5}, {"n_visits": "5"}, {"n_visits": True}, {"c_z": "0"},
                {"b_zz": float("nan")}, {"avg_decay": float("inf")}, {"p_zy": None}):
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} "):
            ScenarioConfig(**{"c_z0": 0, "c_z": 0, "p_z": 1, "p_zy": 1, **bad})
    assert ScenarioConfig(c_z0=0, c_z=0, p_z=1, p_zy=1, n_visits=np.int64(3),
                          avg_decay=None).n_visits == 3


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
    validate_panel(panel)
    assert np.all(panel.D == 0) and np.all(panel.C == 0)
    assert np.array_equal(panel.A[0], panel.A0)   # full adherence
    # at-risk counts non-increasing
    counts = [at_risk_mask(panel, k).sum() for k in range(1, panel.K + 1)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_optional_death_and_censoring_hazards():
    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1,
                         death_hazard=0.05, censor_hazard=0.05)
    panel = simulate_trial(cfg, 3000, 9)
    validate_panel(panel)
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
    # pinned bit for bit: reading the streams in blocks must move no field
    assert oc == OracleContrast(psi=-0.03507, mc_se=0.000581725308924539, risk1=0.07874,
                                risk0=0.11381, n_mc=100_000, horizon=5)
    assert oc.risk1 < oc.risk0          # treatment is protective
    assert oc.psi == pytest.approx(oc.risk1 - oc.risk0, abs=1e-12)
    # pairing: the difference SE is far below the independent-arms bound
    indep = np.sqrt(oc.risk1 * (1 - oc.risk1) + oc.risk0 * (1 - oc.risk0)) / np.sqrt(100_000)
    assert oc.mc_se < indep


#: death, censoring and discounted averages on, so every stream is read
DECAY_DEATH = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1, avg_decay=0.5,
                             death_hazard=0.05, censor_hazard=0.05)


@pytest.fixture(scope="module")
def decay_death_specs():
    return policy_specs(POLICY_NAMES, lambda: fit_reference_gstar(DECAY_DEATH, 3000, 2))


def test_one_pass_oracle_matches_one_policy_at_a_time(decay_death_specs):
    both = oracle_risk_differences(DECAY_DEATH, decay_death_specs, 4, 3000, 23)
    assert list(both) == list(decay_death_specs)
    for name, spec in decay_death_specs.items():
        assert both[name] == oracle_risk_difference(DECAY_DEATH, spec, 4, 3000, 23)


@pytest.mark.parametrize("n", [1, 21, 22])   # one subject, 3 blocks of 7, and one more
def test_results_do_not_depend_on_the_block_size(monkeypatch, decay_death_specs, n):
    natural = ArmPolicy(a_value=None, z_spec=decay_death_specs["dynamic"])

    def run():
        if n < 2:   # a contrast's SE needs two draws
            with pytest.raises(ValueError, match="at least 2 draws"):
                oracle_risk_differences(DECAY_DEATH, decay_death_specs, 5, n, 29)
            truths = None
        else:
            truths = [oracle_risk_differences(DECAY_DEATH, decay_death_specs, h, n, 29)
                      for h in (5, 2)]
        panel = simulate_trial(DECAY_DEATH, n, 29)
        return (repr(truths), repr(simulate_counterfactual_mean(DECAY_DEATH, natural, 5, n, 29)),
                [getattr(panel, f).tobytes() for f in ("L0", "Z0", "A0", "Y", "D", "C",
                                                       "L", "A", "Z")])

    results = []
    for block in (n, 1, 7):   # a block of n reads each stream whole
        monkeypatch.setattr(sim, "_BLOCK", block)
        results.append(run())
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("n_mc", [0, -3])
def test_no_draws_refused(n_mc):
    pol = ArmPolicy(a_value=0, z_spec=static_z(0))
    for call in (lambda: oracle_risk_difference(SC1, static_z(0), 5, n_mc, 1),
                 lambda: oracle_risk_differences(SC1, {"static0": static_z(0)}, 5, n_mc, 1),
                 lambda: simulate_counterfactual_mean(SC1, pol, 5, n_mc, 1),
                 lambda: simulate_trial(SC1, n_mc, 1)):
        with pytest.raises(ValueError, match="need at least one subject"):
            call()


def test_one_draw_gives_no_contrast_se():
    # a paired contrast's Monte-Carlo SE has n_mc - 1 degrees of freedom
    from dropintmle.harness import compute_truths, run_replications

    for call in (lambda: oracle_risk_difference(SC1, static_z(0), 5, 1, 1),
                 lambda: oracle_risk_differences(SC1, {"static0": static_z(0)}, 5, 1, 1),
                 lambda: compute_truths(SC1, ["static0"], 5, 1, 1),
                 lambda: run_replications("scenario1", policies=["static0"], n=200, reps=1,
                                          n_mc=1, workers=1)):
        with pytest.raises(ValueError, match="needs at least 2 draws"):
            call()
    # one arm's risk keeps its binomial SE, defined at one draw
    one = simulate_counterfactual_mean(SC1, ArmPolicy(a_value=0, z_spec=static_z(0)), 5, 1, 1)
    assert one.n_mc == 1 and one.mc_se == 0.0


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

    with pytest.raises(ValueError, match="fitted"):
        ArmPolicy(a_value=0, z_spec=InterventionSpec(form="stochastic"))


def test_dropin_trajectory_shape_and_ordering():
    panel = simulate_trial(SC1, 9340, 101)
    tr = drop_in_trajectory(panel)
    assert len(tr["visit"]) == panel.K
    for arm in ("arm0", "arm1"):
        assert np.all((tr[arm] >= 0) & (tr[arm] <= 1))
    # placebo arm accumulates more drop-in from the second visit on
    assert np.all(tr["arm0"][2:] > tr["arm1"][2:])


def test_dropin_trajectory_skips_subjects_absorbed_at_the_visit():
    # control subjects: 0 has its event at visit 1 and carries Z_1 = Z_2 = 1
    # forward; 1 and 2 stay under observation; 3 dies at visit 2 and carries
    # Z_2 = 1.  Subject 4 is treated.  At visit k only subjects still under
    # observation after visit k's status block make a treatment decision.
    Y = [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0]]
    D = [[0, 0, 0, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 1, 0]]
    Z = [[1, 0, 1, 1, 0], [1, 0, 1, 1, 0]]
    panel = make_panel(np.zeros((5, 1)), [1, 0, 0, 0, 0], [0, 0, 0, 0, 1], Y, D,
                       np.zeros((3, 5)), L=np.zeros((2, 5)), A=[[0, 0, 0, 0, 1]] * 2, Z=Z)
    validate_panel(panel)
    tr = drop_in_trajectory(panel)
    assert tr["n_at_risk0"].tolist() == [4, 3, 2]
    assert tr["arm0"].tolist() == [0.25, 2 / 3, 0.5]
    assert tr["n_at_risk1"].tolist() == [1, 1, 1]
    assert tr["arm1"].tolist() == [0.0, 0.0, 0.0]


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
    validate_panel(panel)
    base = simulate_trial(SC1, 2000, 3)
    assert not np.array_equal(panel.Y, base.Y)   # the dynamics change
