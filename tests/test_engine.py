import numpy as np
import pytest

from dropintmle import engine
from dropintmle.engine import (
    EstimationError,
    clever_weight_path,
    clever_weights,
    contrast,
    fit_g,
    fit_top_step,
    gcomp_arm,
    support_diagnostics,
    tmle_arm,
)
from dropintmle.harness import POLICY_NAMES, run_replications
from dropintmle.interventions import (
    ArmPolicy,
    arm_pair,
    dynamic_z,
    fit_stochastic_gstar,
    observational_z,
    standard_policies,
    static_z,
)
from dropintmle.panel import TrialPanel, at_risk_mask, make_panel
from dropintmle.sim import ScenarioConfig, scenario_presets, simulate_trial

from toy_panel import build_toy_panel

SAT = "saturated"


# ---------------------------------------------------------------------------
# Exhaustive forward enumeration on the binary K=2 toy (independent oracle)


def _cell_mean(mask, values):
    assert mask.any(), "enumeration hit an empty history cell"
    return float(values[mask].mean())


def enumerate_truth(panel, a_val, z_rule, horizon=2):
    """Plug-in post-interventional mean by direct summation over all paths,
    using empirical cell frequencies for the non-intervened factors."""
    l0 = panel.L0[:, 0].astype(int)
    z0o, a0o = panel.Z0.astype(int), panel.A0.astype(int)
    y1o, d1o = panel.y_at(1).astype(int), panel.d_at(1).astype(int)
    l1o = panel.l_at(1)[:, 0].astype(int)
    a1o, z1o = panel.a_at(1).astype(int), panel.z_at(1).astype(int)
    y2o = panel.y_at(2).astype(int)
    alive = (y1o == 0) & (d1o == 0)

    def value(l0v, z0_obs):
        z0_eff = {"z0": 0, "z1": 1}.get(z_rule, z0_obs)
        base = (l0 == l0v) & (z0o == z0_eff) & (a0o == a_val)
        p_y1 = _cell_mean(base, y1o)
        if horizon == 1:
            return p_y1
        val = p_y1
        p_d1 = _cell_mean(base & (y1o == 0), d1o)
        surv = (1.0 - p_y1) * (1.0 - p_d1)
        for l1v in (0, 1):
            p_l1 = _cell_mean(base & alive, (l1o == l1v).astype(float))
            if p_l1 == 0.0:
                continue
            cell = base & alive & (l1o == l1v)
            if z_rule == "z0":
                z_opts = [(0, 1.0)]
            elif z_rule == "z1":
                z_opts = [(1, 1.0)]
            elif z_rule == "dyn":
                z_opts = [(z0_obs, 1.0)]
            else:
                z_opts = [(zv, _cell_mean(cell, (z1o == zv).astype(float)))
                          for zv in (0, 1)]
            for z1v, pz in z_opts:
                if pz == 0.0:
                    continue
                fin = cell & (a1o == a_val) & (z1o == z1v)
                val += surv * p_l1 * pz * _cell_mean(fin, y2o)
        return val

    cache = {}
    total = 0.0
    for i in range(panel.n):
        key = (l0[i], z0o[i])
        if key not in cache:
            cache[key] = value(*key)
        total += cache[key]
    return total / panel.n


@pytest.fixture(scope="module")
def toy_gfit(toy_panel):
    return fit_g(toy_panel, learner=SAT, g_floor=0.0, randomized=False)


@pytest.mark.parametrize("z_rule,spec_maker", [
    ("z0", lambda: static_z(0)),
    ("z1", lambda: static_z(1)),
    ("dyn", dynamic_z),
    ("obs", observational_z),
])
@pytest.mark.parametrize("a_val", [0, 1])
def test_enumeration_equivalence_k2(toy_panel, toy_gfit, z_rule, spec_maker, a_val):
    policy = ArmPolicy(a_value=a_val, z_spec=spec_maker())
    truth = enumerate_truth(toy_panel, a_val, z_rule)
    tm = tmle_arm(toy_panel, toy_gfit, policy, learner=SAT)
    gc = gcomp_arm(toy_panel, toy_gfit, policy, learner=SAT)
    assert tm.psi == pytest.approx(truth, abs=1e-8)
    assert gc.psi == pytest.approx(truth, abs=1e-8)
    # targeting is a no-op at the saturated fit
    assert max(abs(e) for e in tm.diagnostics["epsilons"]) < 1e-6
    assert abs(tm.mean_eic) <= 1e-8


@pytest.mark.parametrize("a_val", [0, 1])
def test_enumeration_equivalence_k1(toy_panel, toy_gfit, a_val):
    policy = ArmPolicy(a_value=a_val, z_spec=static_z(0))
    truth = enumerate_truth(toy_panel, a_val, "z0", horizon=1)
    tm = tmle_arm(toy_panel, toy_gfit, policy, learner=SAT, horizon=1)
    assert tm.psi == pytest.approx(truth, abs=1e-10)


def test_horizon_monotone_on_toy(toy_panel, toy_gfit):
    for a_val in (0, 1):
        policy = ArmPolicy(a_value=a_val, z_spec=static_z(0))
        psi1 = tmle_arm(toy_panel, toy_gfit, policy, learner=SAT, horizon=1).psi
        psi2 = tmle_arm(toy_panel, toy_gfit, policy, learner=SAT, horizon=2).psi
        assert psi2 >= psi1 - 1e-10


def test_death_reduces_risk_but_keeps_denominator():
    # deaths only: absolute risk drops relative to the death-free world, but
    # dead subjects stay in the average with value zero
    with_death = build_toy_panel(with_death=True, seed=11)
    no_death = build_toy_panel(with_death=False, seed=11)
    g1 = fit_g(with_death, learner=SAT, g_floor=0.0, randomized=False)
    g2 = fit_g(no_death, learner=SAT, g_floor=0.0, randomized=False)
    pol = ArmPolicy(a_value=0, z_spec=static_z(0))
    r_death = tmle_arm(with_death, g1, pol, learner=SAT).psi
    r_free = tmle_arm(no_death, g2, pol, learner=SAT).psi
    assert r_death < r_free


# ---------------------------------------------------------------------------
# Clever weights


def small_status_panel():
    # 4 subjects, K=3: 0 clean, 1 censored at visit 2, 2 event at visit 1,
    # 3 death at visit 2
    Y = np.zeros((3, 4), dtype=np.int8)
    D = np.zeros((3, 4), dtype=np.int8)
    C = np.zeros((3, 4), dtype=np.int8)
    C[1:, 1] = 1
    Y[0:, 2] = 1
    D[1:, 3] = 1
    return make_panel(
        visit_times=np.arange(4, dtype=float),
        L0=np.linspace(-1, 1, 4)[:, None], Z0=[0, 0, 0, 0], A0=[1, 1, 0, 1],
        Y=Y, D=D, C=C,
        L=np.zeros((2, 4, 1)), A=[[1, 1, 0, 1]] * 2, Z=np.zeros((2, 4)),
    )


def test_clever_weight_hand_value():
    # static z=0, subject off treatment throughout, two past visits with
    # g_Z(0|.) = 0.8, censoring and adherence degenerate: 1/0.64 at the
    # third step (on top of the arm factor 2 from randomization)
    from dropintmle.engine import GFit, _Mech

    n, K = 3, 3
    panel = make_panel(
        visit_times=np.arange(K + 1, dtype=float),
        L0=np.zeros((n, 1)), Z0=[0, 0, 1], A0=[1, 0, 1],
        Y=np.zeros((K, n)), D=np.zeros((K, n)), C=np.zeros((K, n)),
        L=np.zeros((K - 1, n, 1)), A=[[1, 0, 1]] * (K - 1), Z=np.zeros((K - 1, n)),
    )
    gfit = GFit(
        a_mechs=[_Mech(kind="adherence")] * K,               # obs. prob always 1
        z_mechs=[_Mech(kind="const", prob_const=0.2)] * K,   # P(Z=0) = 0.8
        c_mechs=[_Mech(kind="const", prob_const=0.0)] * K, g_floor=1e-3,
    )
    policy = ArmPolicy(a_value=1, z_spec=static_z(0))
    h3 = clever_weights(panel, gfit, policy, 3)
    assert h3[0] == pytest.approx((1 / 0.8) ** 3, abs=1e-12)   # three Z factors at k=3
    h2 = clever_weights(panel, gfit, policy, 2)
    assert h2[0] == pytest.approx(1 / 0.64, abs=1e-12)
    assert h2[1] == 0.0            # off-arm subject
    assert h2[2] == 0.0            # observed Z0=1 under z=0 policy


def test_clever_weight_absorbing_states():
    panel = small_status_panel()
    gfit = fit_g(panel, learner="main", randomized=True)
    policy = ArmPolicy(a_value=1, z_spec=observational_z())
    H = clever_weight_path(panel, gfit, policy, 3)
    # censored at visit 2: zero weight from step 2 on (and at the censoring
    # visit itself, since censoring resolves first within a visit)
    assert H[1, 1] == 0.0 and H[2, 1] == 0.0
    # event at visit 1: still at risk for step 1, gone afterwards
    assert H[0, 2] > 0 or panel.A0[2] == 0
    assert H[1, 2] == 0.0
    # death at visit 2: weight zero from step 3 on
    assert H[2, 3] == 0.0


def test_observational_policy_weight_is_at_risk_indicator():
    panel = simulate_trial(scenario_presets()["scenario1"], 1500, 3)
    gfit = fit_g(panel)
    policy = ArmPolicy(a_value=None, z_spec=observational_z())
    for k in (1, 3, 5):
        h = clever_weights(panel, gfit, policy, k)
        assert np.array_equal(h, at_risk_mask(panel, k).astype(float))


def test_matching_degenerate_policy_gives_unit_weights():
    # everyone on arm 1 with deterministic adherence: all ratios collapse
    panel = simulate_trial(scenario_presets()["scenario1"], 800, 13)
    forced = TrialPanel(
        visit_times=panel.visit_times, L0=panel.L0, Z0=panel.Z0,
        A0=np.ones(panel.n, dtype=np.int8), Y=panel.Y, D=panel.D, C=panel.C,
        L=panel.L, A=np.ones_like(panel.A), Z=panel.Z,
    )
    gfit = fit_g(forced, randomized=False)
    policy = ArmPolicy(a_value=1, z_spec=observational_z())
    for k in (1, 4):
        h = clever_weights(forced, gfit, policy, k)
        assert set(np.unique(h)) <= {0.0, 1.0}


def test_weight_cap_truncates():
    panel = simulate_trial(scenario_presets()["scenario2"], 3000, 23)
    gfit = fit_g(panel)
    policy = ArmPolicy(a_value=1, z_spec=static_z(0))
    H = clever_weight_path(panel, gfit, policy, 5)
    assert H.max() > 5.0
    Hc = clever_weight_path(panel, gfit, policy, 5, weight_cap=5.0)
    assert Hc.max() <= 5.0


def test_support_diagnostics_structure():
    panel = simulate_trial(scenario_presets()["scenario2"], 3000, 29)
    gfit = fit_g(panel)
    rows = support_diagnostics(panel, gfit, ArmPolicy(a_value=1, z_spec=static_z(0)),
                               threshold=10.0)
    assert [r["visit"] for r in rows] == [1, 2, 3, 4, 5]
    assert all(r["max_weight"] >= r["p99_weight"] >= 0 for r in rows)
    assert any(r["frac_above"] > 0 for r in rows)


def test_static_z0_less_supported_in_scenario2():
    # higher drop-in rates leave less support for the never-initiate policy
    g1p = simulate_trial(scenario_presets()["scenario1"], 6000, 31)
    g2p = simulate_trial(scenario_presets()["scenario2"], 6000, 31)
    pol = ArmPolicy(a_value=1, z_spec=static_z(0))
    w1 = max(r["max_weight"] for r in support_diagnostics(g1p, fit_g(g1p), pol))
    w2 = max(r["max_weight"] for r in support_diagnostics(g2p, fit_g(g2p), pol))
    assert w2 > w1


@pytest.fixture(scope="module")
def floored_sc2():
    # scenario 2 at a coarse floor: many concomitant probabilities hit it
    panel = simulate_trial(scenario_presets()["scenario2"], 2000, 12)
    gstar = fit_stochastic_gstar(panel)
    return panel, fit_g(panel, g_floor=0.05), gstar


def test_floored_counts_are_per_arm(floored_sc2):
    # one shared gfit across policies and arms: every arm reports the floored
    # probabilities its own weight path used, nothing carried over
    panel, gfit, gstar = floored_sc2
    lo, hi = 0.05, 0.95
    direct = {}
    for j in range(panel.K):
        p1 = gfit.z_mechs[j].prob1(panel, "Z", j)
        used = at_risk_mask(panel, j + 1)
        direct[f"Z{j}"] = int(np.sum(((p1 < lo) | (p1 > hi)) & used))
    assert sum(direct.values()) > 0
    for name, spec in standard_policies(gstar).items():
        p1, p0 = arm_pair(spec, name)
        counts = [tmle_arm(panel, gfit, pol).diagnostics["floored_counts"]
                  for pol in (p1, p0)]
        z_counts = [{k: v for k, v in c.items() if k.startswith("Z")} for c in counts]
        want = {f"Z{j}": direct[f"Z{j}"] for j in range(panel.K)
                if spec.intervenes_at(j) and direct[f"Z{j}"]}
        assert z_counts[0] == z_counts[1] == want, name
        if name == "ignore":
            assert want == {}


@pytest.mark.parametrize("cap", [None, 8.0])
def test_arm_weight_summary_matches_support_diagnostics(floored_sc2, cap):
    panel, gfit, gstar = floored_sc2
    for spec in (static_z(0), gstar):
        pol = ArmPolicy(a_value=1, z_spec=spec)
        est = tmle_arm(panel, gfit, pol, weight_cap=cap)
        assert est.diagnostics["weights"] == support_diagnostics(panel, gfit, pol,
                                                                 weight_cap=cap)


# ---------------------------------------------------------------------------
# The top step shared across arms


def _k8_panel():
    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1.0, p_zy=1.0, n_visits=8,
                         death_hazard=0.02, censor_hazard=0.03)
    return simulate_trial(cfg, 1500, 13)


@pytest.mark.parametrize("case", ["scenario1", "k8_library"])
def test_shared_top_step_is_bit_identical(case, scenario1_panel):
    if case == "scenario1":
        panel, learner, seed, n_folds = scenario1_panel, "running_avg", 0, 10
    else:
        panel, seed, n_folds = _k8_panel(), 5, 2
        learner = ["main", "running_avg"]
    gfit = fit_g(panel, learner, seed=seed, n_folds=n_folds)
    top = fit_top_step(panel, learner, None, seed, n_folds)
    for name, spec in standard_policies(fit_stochastic_gstar(panel)).items():
        for pol in arm_pair(spec, name):
            for targeted in (True, False):
                own, shared = (tmle_arm(panel, gfit, pol, learner, targeted=targeted,
                                        seed=seed, n_folds=n_folds, top=t)
                               for t in (None, top))
                assert own.psi == shared.psi
                assert own.diagnostics == shared.diagnostics
                if targeted:
                    assert np.array_equal(own.eic, shared.eic)
    # observed histories, static/stochastic pairs (a, 0), (a, 1), dynamic
    # (a, Z0) and observational (a, observed): the five policies share nine
    assert len(top.memo) == 9


def test_gcomp_arm_forwards_n_folds():
    panel, seed = _k8_panel(), 5
    learner = ["main", "running_avg"]
    gfit = fit_g(panel, learner, seed=seed, n_folds=2)
    top = fit_top_step(panel, learner, None, seed, 2)
    for pol in arm_pair(static_z(0), "static0"):
        gc = gcomp_arm(panel, gfit, pol, learner, seed=seed, n_folds=2, top=top)
        plain = tmle_arm(panel, gfit, pol, learner, targeted=False, seed=seed, n_folds=2,
                         top=top)
        assert gc.psi == plain.psi and gc.diagnostics == plain.diagnostics


def test_replication_makes_no_duplicate_fit(monkeypatch):
    fits = []
    real = engine.fit_binary_glm

    def recording(design, response, *args, **kwargs):
        fits.append((design.shape, design.tobytes(), response.tobytes()))
        return real(design, response, *args, **kwargs)

    monkeypatch.setattr(engine, "fit_binary_glm", recording)
    truths = {name: (0.0, 0.0, 0.0, 0.0) for name in POLICY_NAMES}
    table = run_replications("scenario1", n=1500, reps=1, seed=3, truths=truths,
                             include_gcomp=True, workers=1)
    assert all(p.failures == 0 for p in table.policies.values())
    duplicates = len(fits) - len(set(fits))
    assert fits and duplicates == 0


def test_mismatched_top_step_raises(scenario1_panel):
    panel = scenario1_panel
    gfit = fit_g(panel)
    pol = ArmPolicy(a_value=1, z_spec=static_z(0))
    top = fit_top_step(panel)
    assert tmle_arm(panel, gfit, pol, top=top).psi == tmle_arm(panel, gfit, pol).psi
    for kwargs in ({"horizon": panel.K - 1}, {"seed": 1}, {"n_folds": 5},
                   {"learner": "main"}):
        with pytest.raises(ValueError, match="top step"):
            tmle_arm(panel, gfit, pol, top=top, **kwargs)
    # another panel, of another size or of the same size from another seed
    for other in (simulate_trial(scenario_presets()["scenario1"], 500, 2),
                  simulate_trial(scenario_presets()["scenario1"], panel.n, 2)):
        with pytest.raises(ValueError, match="top step"):
            gcomp_arm(other, fit_g(other), pol, top=top)


# ---------------------------------------------------------------------------
# fit_g behavior


def test_fit_g_randomization_constant():
    panel = simulate_trial(scenario_presets()["scenario1"], 1000, 37)
    gfit = fit_g(panel, randomized=True)
    assert gfit.a_mechs[0].kind == "randomized"
    assert np.all(gfit.floored_prob(panel, "A", 0, np.ones(panel.n, bool))[0] == 0.5)


def test_fit_g_degenerate_censoring_shortcut():
    panel = simulate_trial(scenario_presets()["scenario1"], 1000, 41)
    gfit = fit_g(panel)
    assert all(m.kind == "const" for m in gfit.c_mechs)
    p_unc = gfit.floored_prob(panel, "C", 1, np.ones(panel.n, bool))[0]
    assert np.all(p_unc == 1.0)


def test_fit_g_adherence_shortcut():
    panel = simulate_trial(scenario_presets()["scenario1"], 1000, 43)
    gfit = fit_g(panel)
    assert all(m.kind == "adherence" for m in gfit.a_mechs[1:])
    assert np.all(gfit.floored_prob(panel, "A", 2, np.ones(panel.n, bool))[0] == 1.0)


def test_fit_g_recovers_persistence_coefficient():
    # the concomitant mechanism's previous-status coefficient is b_zz = 8
    panel = simulate_trial(scenario_presets()["scenario1"], 9340, 47)
    gfit = fit_g(panel)
    coef = gfit.z_mechs[2].model.coef
    # running_avg mechanism design puts the previous status in column 2
    assert coef[2] == pytest.approx(8.0, abs=1.0)


def test_fit_g_rejects_invalid_panel():
    Y = np.zeros((2, 3), dtype=np.int8)
    Y[0] = [1, 0, 0]
    Y[1] = [0, 0, 0]          # absorbing violation
    panel = make_panel(np.arange(3, dtype=float), np.zeros((3, 1)),
                       [0, 0, 0], [1, 0, 1], Y, np.zeros((2, 3)), np.zeros((2, 3)),
                       L=np.zeros((1, 3, 1)), A=np.zeros((1, 3)), Z=np.zeros((1, 3)))
    with pytest.raises(EstimationError, match="validation"):
        fit_g(panel)


# ---------------------------------------------------------------------------
# tmle_arm / gcomp_arm behavior


def test_degenerate_outcome_panel_gives_zero():
    cfg = scenario_presets()["scenario1"]
    from dropintmle.sim import ScenarioConfig

    dead = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1,
                          outcome_intercept=-60.0)
    panel = simulate_trial(dead, 2000, 51)
    assert panel.Y.sum() == 0
    gfit = fit_g(panel)
    est = tmle_arm(panel, gfit, ArmPolicy(a_value=1, z_spec=static_z(0)))
    assert abs(est.psi) <= 1e-5
    assert np.all(np.abs(est.eic) <= 1e-5)


def test_eic_mean_zero_and_step_scores(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    gstar = fit_stochastic_gstar(scenario1_panel)
    for spec in (static_z(0), static_z(1), dynamic_z(), observational_z(), gstar):
        for a in (0, 1):
            est = tmle_arm(scenario1_panel, gfit, ArmPolicy(a_value=a, z_spec=spec))
            assert abs(est.mean_eic) <= 1e-8
            assert all(abs(s) <= 1e-8 for s in est.diagnostics["step_scores"])
            assert est.diagnostics["fluct_converged"]


def test_psi_equals_mean_of_final_projection(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    est = tmle_arm(scenario1_panel, gfit, ArmPolicy(a_value=1, z_spec=static_z(0)))
    assert 0.0 <= est.psi <= 1.0
    assert est.n == scenario1_panel.n


def test_empty_risk_set_raises():
    from dropintmle.sim import ScenarioConfig

    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1,
                         outcome_intercept=40.0)   # everyone has the event
    panel = simulate_trial(cfg, 200, 3)
    with pytest.raises(EstimationError):
        fit_g(panel)


def test_horizon_validation(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    with pytest.raises(ValueError):
        tmle_arm(scenario1_panel, gfit, ArmPolicy(a_value=1, z_spec=static_z(0)),
                 horizon=9)


def test_gcomp_has_no_variance(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    p1, p0 = arm_pair(static_z(0), "static0")
    g1 = gcomp_arm(scenario1_panel, gfit, p1)
    g0 = gcomp_arm(scenario1_panel, gfit, p0)
    assert g1.eic is None
    rep = contrast(g1, g0, "static0")
    assert rep.se is None and rep.ci_low is None
    assert not rep.targeted


def test_contrast_identical_arms(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    e = tmle_arm(scenario1_panel, gfit, ArmPolicy(a_value=1, z_spec=static_z(0)))
    rep = contrast(e, e, "self")
    assert rep.psi == 0.0
    assert rep.ci_low == pytest.approx(-rep.ci_high, abs=1e-15)


def test_contrast_ci_formula(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    p1, p0 = arm_pair(dynamic_z(), "dynamic")
    e1 = tmle_arm(scenario1_panel, gfit, p1)
    e0 = tmle_arm(scenario1_panel, gfit, p0)
    rep = contrast(e1, e0, "dynamic")
    se = np.std(e1.eic - e0.eic, ddof=1) / np.sqrt(scenario1_panel.n)
    assert rep.se == pytest.approx(se, abs=1e-14)
    assert rep.ci_low == pytest.approx(rep.psi - 1.96 * se, abs=1e-12)
    assert rep.ci_high == pytest.approx(rep.psi + 1.96 * se, abs=1e-12)


def test_super_learner_selects_informative_map_across_seeds():
    # the outcome process is driven by running-average dynamics, so the
    # informative map beats intercept-only in nearly every replication when
    # regressing the horizon outcome status on history at the trial scale
    from dropintmle.features import history_design
    from dropintmle.learners import fit_discrete_super_learner

    cfg = scenario_presets()["scenario1"]
    wins = 0
    n_seeds = 100
    for s in range(n_seeds):
        panel = simulate_trial(cfg, 9340, 10_000 + s)
        y = panel.y_at(panel.K).astype(float)
        cands = [
            ("running_avg", history_design(panel, "running_avg", treat_upto=panel.K - 1)),
            ("intercept", history_design(panel, "intercept", treat_upto=panel.K - 1)),
        ]
        sel = fit_discrete_super_learner(cands, y, n_folds=10, seed=s)
        wins += sel.name == "running_avg"
    assert wins >= 95


def test_tmle_with_learner_library(scenario1_panel):
    library = ["running_avg", "intercept"]
    gfit = fit_g(scenario1_panel, library)
    est = tmle_arm(scenario1_panel, gfit, ArmPolicy(a_value=1, z_spec=static_z(0)),
                   learner=library)
    assert abs(est.mean_eic) <= 1e-8
    assert 0.0 <= est.psi <= 1.0


def test_tmle_close_to_truth_on_one_panel():
    # single large panel: the estimate lands within a few SEs of the oracle
    from dropintmle.sim import oracle_risk_difference

    cfg = scenario_presets()["scenario1"]
    panel = simulate_trial(cfg, 9340, 59)
    gfit = fit_g(panel)
    truth = oracle_risk_difference(cfg, static_z(0), 5, 400_000, 5).psi
    p1, p0 = arm_pair(static_z(0), "static0")
    rep = contrast(tmle_arm(panel, gfit, p1), tmle_arm(panel, gfit, p0), "static0")
    assert rep.psi == pytest.approx(truth, abs=4 * rep.se)
