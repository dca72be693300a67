import dataclasses

import numpy as np
import pytest

from dropintmle import engine, learners
from dropintmle.engine import (
    EstimationError,
    clever_weight_path,
    contrast,
    fit_g,
    fit_top_step,
    support_diagnostics,
    tmle_arm,
)
from dropintmle.harness import POLICY_NAMES, run_replications
from dropintmle.interventions import (
    ArmPolicy,
    arm_pair,
    dynamic_z,
    fit_stochastic_gstar,
    gstar_prob1,
    observational_z,
    panel_history,
    policy_arms,
    policy_specs,
    static_z,
)
from dropintmle.panel import DataError, TrialPanel, at_risk_mask, make_panel
from dropintmle.sim import ScenarioConfig, scenario_presets, simulate_trial

from toy_panel import build_k8_panel, build_toy_panel

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


@pytest.fixture(scope="module")
def toy_top(toy_panel):
    return fit_top_step(toy_panel, SAT)


@pytest.mark.parametrize("z_rule,spec_maker", [
    ("z0", lambda: static_z(0)),
    ("z1", lambda: static_z(1)),
    ("dyn", dynamic_z),
    ("obs", observational_z),
])
@pytest.mark.parametrize("a_val", [0, 1])
def test_enumeration_equivalence_k2(toy_panel, toy_gfit, toy_top, z_rule, spec_maker, a_val):
    policy = ArmPolicy(a_value=a_val, z_spec=spec_maker())
    truth = enumerate_truth(toy_panel, a_val, z_rule)
    tm = tmle_arm(toy_gfit, policy, toy_top)
    gc = tmle_arm(toy_gfit, policy, toy_top, targeted=False)
    assert tm.psi == pytest.approx(truth, abs=1e-8)
    assert gc.psi == pytest.approx(truth, abs=1e-8)
    # targeting is a no-op at the saturated fit
    assert max(abs(e) for e in tm.diagnostics["epsilons"]) < 1e-6
    assert abs(tm.mean_eic) <= 1e-8


@pytest.mark.parametrize("a_val", [0, 1])
def test_enumeration_equivalence_k1(toy_panel, toy_gfit, a_val):
    policy = ArmPolicy(a_value=a_val, z_spec=static_z(0))
    truth = enumerate_truth(toy_panel, a_val, "z0", horizon=1)
    tm = tmle_arm(toy_gfit, policy, fit_top_step(toy_panel, SAT, horizon=1))
    assert tm.psi == pytest.approx(truth, abs=1e-10)


def test_horizon_monotone_on_toy(toy_panel, toy_gfit, toy_top):
    top1 = fit_top_step(toy_panel, SAT, horizon=1)
    for a_val in (0, 1):
        policy = ArmPolicy(a_value=a_val, z_spec=static_z(0))
        psi1 = tmle_arm(toy_gfit, policy, top1).psi
        psi2 = tmle_arm(toy_gfit, policy, toy_top).psi
        assert psi2 >= psi1 - 1e-10


def test_death_reduces_risk_but_keeps_denominator():
    # deaths only: absolute risk drops relative to the death-free world, but
    # dead subjects stay in the average with value zero
    with_death = build_toy_panel(with_death=True, seed=11)
    no_death = build_toy_panel(with_death=False, seed=11)
    g1 = fit_g(with_death, learner=SAT, g_floor=0.0, randomized=False)
    g2 = fit_g(no_death, learner=SAT, g_floor=0.0, randomized=False)
    pol = ArmPolicy(a_value=0, z_spec=static_z(0))
    r_death = tmle_arm(g1, pol, fit_top_step(with_death, SAT)).psi
    r_free = tmle_arm(g2, pol, fit_top_step(no_death, SAT)).psi
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
        L0=np.linspace(-1, 1, 4)[:, None], Z0=[0, 0, 0, 0], A0=[1, 1, 0, 1],
        Y=Y, D=D, C=C,
        L=np.zeros((2, 4, 1)), A=[[1, 1, 0, 1]] * 2, Z=np.zeros((2, 4)),
    )


def test_clever_weight_hand_value():
    # static z=0, subject off treatment throughout, two past visits with
    # g_Z(0|.) = 0.8, censoring and adherence degenerate: 1/0.64 at the
    # third step (on top of the arm factor 2 from randomization)
    from dropintmle.engine import GFit, _Mech
    from dropintmle.learners import fit_constant

    n, K = 3, 3
    panel = make_panel(
        L0=np.zeros((n, 1)), Z0=[0, 0, 1], A0=[1, 0, 1],
        Y=np.zeros((K, n)), D=np.zeros((K, n)), C=np.zeros((K, n)),
        L=np.zeros((K - 1, n, 1)), A=[[1, 0, 1]] * (K - 1), Z=np.zeros((K - 1, n)),
    )
    gfit = GFit(
        a_mechs=[_Mech(None)] * K,                                  # obs. prob always 1
        z_mechs=[_Mech(fit_constant(np.array([0.2])))] * K,         # P(Z=0) = 0.8
        c_mechs=[_Mech(fit_constant(np.array([0.0])))] * K, g_floor=1e-3,
    )
    policy = ArmPolicy(a_value=1, z_spec=static_z(0))
    h3 = clever_weight_path(panel, gfit, policy, 3)[0][2]
    assert h3[0] == pytest.approx((1 / 0.8) ** 3, abs=1e-12)   # three Z factors at k=3
    h2 = clever_weight_path(panel, gfit, policy, 2)[0][1]
    assert h2[0] == pytest.approx(1 / 0.64, abs=1e-12)
    assert h2[1] == 0.0            # off-arm subject
    assert h2[2] == 0.0            # observed Z0=1 under z=0 policy


def test_clever_weight_absorbing_states():
    panel = small_status_panel()
    gfit = fit_g(panel, learner="main", randomized=True)
    policy = ArmPolicy(a_value=1, z_spec=observational_z())
    H = clever_weight_path(panel, gfit, policy, 3)[0]
    # censored at visit 2: zero weight from step 2 on (and at the censoring
    # visit itself, since censoring resolves first within a visit)
    assert H[1, 1] == 0.0 and H[2, 1] == 0.0
    # event at visit 1: still at risk for step 1, gone afterwards
    assert H[0, 2] > 0 or panel.A0[2] == 0
    assert H[1, 2] == 0.0
    # death at visit 2: weight zero from step 3 on
    assert H[2, 3] == 0.0


def test_observational_policy_weight_is_at_risk_indicator():
    # ignore leaves Z alone: under full adherence and the randomized 1/2,
    # H_l is the at-risk indicator on the arm, over 1/2
    panel = simulate_trial(scenario_presets()["scenario1"], 1500, 3)
    gfit = fit_g(panel)
    for a in (0, 1):
        policy = ArmPolicy(a_value=a, z_spec=observational_z())
        for k in (1, 3, 5):
            h = clever_weight_path(panel, gfit, policy, k)[0][k - 1]
            assert np.array_equal(h, at_risk_mask(panel, k) * (panel.A0 == a) / 0.5)


@pytest.mark.parametrize("a_value", [None, 2, 0.5])
def test_arm_outside_the_randomized_arms_is_refused(toy_panel, toy_gfit, toy_top, a_value):
    # the estimator takes randomized arms only; the natural course (None)
    # is the simulator's alone
    bad = ArmPolicy(a_value=a_value, z_spec=observational_z())
    good = ArmPolicy(a_value=1, z_spec=observational_z())
    for call in (lambda: tmle_arm(toy_gfit, bad, toy_top),
                 lambda: tmle_arm(toy_gfit, [good, bad], toy_top, targeted=False),
                 lambda: clever_weight_path(toy_panel, toy_gfit, bad, 2),
                 lambda: support_diagnostics(toy_panel, toy_gfit, bad)):
        with pytest.raises(ValueError, match=rf"a_value \[{a_value}\] is not 0 or 1"):
            call()


def test_matching_degenerate_policy_gives_unit_weights():
    # everyone on arm 1 with deterministic adherence: all ratios collapse
    panel = simulate_trial(scenario_presets()["scenario1"], 800, 13)
    forced = TrialPanel(
        L0=panel.L0, Z0=panel.Z0,
        A0=np.ones(panel.n, dtype=np.int8), Y=panel.Y, D=panel.D, C=panel.C,
        L=panel.L, A=np.ones_like(panel.A), Z=panel.Z,
    )
    gfit = fit_g(forced, randomized=False)
    policy = ArmPolicy(a_value=1, z_spec=observational_z())
    for k in (1, 4):
        h = clever_weight_path(forced, gfit, policy, k)[0][k - 1]
        assert set(np.unique(h)) <= {0.0, 1.0}


def test_weight_cap_truncates():
    panel = simulate_trial(scenario_presets()["scenario2"], 3000, 23)
    gfit = fit_g(panel)
    policy = ArmPolicy(a_value=1, z_spec=static_z(0))
    H = clever_weight_path(panel, gfit, policy, 5)[0]
    assert H.max() > 5.0
    Hc = clever_weight_path(panel, gfit, policy, 5, weight_cap=5.0)[0]
    assert Hc.max() <= 5.0


def test_clever_weights_of_every_policy_by_hand():
    # H_l rebuilt factor by factor: g*/g for A and Z through visit l-1, the
    # censoring ratio through visit l, zero off the visit-l at-risk rows
    cfg = ScenarioConfig(c_z0=-1.0, c_z=-1.0, p_z=1.0, p_zy=1.0, n_visits=4,
                         death_hazard=0.05, censor_hazard=0.05)
    panel = simulate_trial(cfg, 600, 17)
    gfit = fit_g(panel, learner="main")
    K = panel.K

    def z_numerator(name, spec, j):
        """g*(observed Z_j | history), or None where the node is left alone."""
        z = panel.z_at(j)
        if name == "ignore" or (name == "dynamic" and j == 0):
            return None
        if name == "dynamic":
            return (z == panel.Z0).astype(float)
        if name.startswith("static"):
            return (z == spec.value).astype(float)
        p1 = gstar_prob1(spec, j, *panel_history(panel, j))
        return np.where(z == 1, p1, 1.0 - p1)

    for name, spec in policy_specs(POLICY_NAMES, lambda: fit_stochastic_gstar(panel)).items():
        for a in (1, 0):
            want = np.zeros((K, panel.n))
            for l in range(1, K + 1):
                used = at_risk_mask(panel, l)
                h = used.astype(float)
                for j in range(l):
                    h = h * (panel.a_at(j) == a) / gfit.floored_prob(panel, "A", j, used)[0]
                    num = z_numerator(name, spec, j)
                    if num is not None:
                        h = h * num / gfit.floored_prob(panel, "Z", j, used)[0]
                for j in range(1, l + 1):
                    h = h * (panel.c_at(j) == 0) / gfit.floored_prob(panel, "C", j, used)[0]
                want[l - 1] = h
            policy = ArmPolicy(a_value=a, z_spec=spec)
            H, _ = clever_weight_path(panel, gfit, policy, K)
            np.testing.assert_allclose(H, want, rtol=1e-12, atol=0, err_msg=f"{name} a={a}")
            cap = 4.0
            assert name == "ignore" or (want > cap).any()
            Hc, _ = clever_weight_path(panel, gfit, policy, K, weight_cap=cap)
            np.testing.assert_allclose(Hc, np.minimum(want, cap), rtol=1e-12, atol=0)


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
    return panel, fit_g(panel, g_floor=0.05), gstar, fit_top_step(panel)


def test_floored_counts_are_per_arm(floored_sc2):
    # one shared gfit across policies and arms: every arm reports the floored
    # probabilities its own weight path used, nothing carried over
    panel, gfit, gstar, top = floored_sc2
    lo, hi = 0.05, 0.95
    direct = {}
    for j in range(panel.K):
        p1 = gfit.z_mechs[j].prob1(panel, "Z", j)
        used = at_risk_mask(panel, j + 1)
        direct[f"Z{j}"] = int(np.sum(((p1 < lo) | (p1 > hi)) & used))
    assert sum(direct.values()) > 0
    for name, spec in policy_specs(POLICY_NAMES, lambda: gstar).items():
        p1, p0 = arm_pair(spec)
        counts = [tmle_arm(gfit, pol, top).diagnostics["floored_counts"]
                  for pol in (p1, p0)]
        z_counts = [{k: v for k, v in c.items() if k.startswith("Z")} for c in counts]
        want = {f"Z{j}": direct[f"Z{j}"] for j in range(panel.K)
                if spec.intervenes_at(j) and direct[f"Z{j}"]}
        assert z_counts[0] == z_counts[1] == want, name
        if name == "ignore":
            assert want == {}


@pytest.mark.parametrize("cap", [None, 8.0])
def test_arm_weight_summary_matches_support_diagnostics(floored_sc2, cap):
    panel, gfit, gstar, top = floored_sc2
    for spec in (static_z(0), gstar):
        pol = ArmPolicy(a_value=1, z_spec=spec)
        est = tmle_arm(gfit, pol, top, weight_cap=cap)
        assert est.diagnostics["weights"] == support_diagnostics(panel, gfit, pol,
                                                                 weight_cap=cap)


# ---------------------------------------------------------------------------
# One pass for every arm


def _pass_case(case, scenario1_panel):
    """A panel's fits and every policy's arms, active and control, in pass
    order."""
    if case == "scenario1":
        panel, learner, seed, n_folds = scenario1_panel, "running_avg", 0, 10
    else:
        panel, seed, n_folds = build_k8_panel(), 5, 2
        learner = ["main", "running_avg"]
    gfit = fit_g(panel, learner, seed=seed, n_folds=n_folds)
    top = fit_top_step(panel, learner, None, seed, n_folds)
    arms = policy_arms(policy_specs(POLICY_NAMES, lambda: fit_stochastic_gstar(panel)))
    return gfit, top, arms


def _cold_scipy_fits(monkeypatch):
    """Every fit from the zero start, and the logistic kernel of scipy."""
    from scipy import special

    real = learners.fit_binary_glm

    def cold(design, response, max_iter=50, start=None):
        return real(design, response, max_iter)

    for module in (learners, engine):
        monkeypatch.setattr(module, "fit_binary_glm", cold)
        monkeypatch.setattr(module, "expit", special.expit)
        monkeypatch.setattr(module, "logit", special.logit)


def _same_estimate(a, b):
    assert a.psi == b.psi
    assert a.diagnostics == b.diagnostics
    assert (a.eic is None) == (b.eic is None)
    if a.eic is not None:
        assert a.eic.tobytes() == b.eic.tobytes()


@pytest.mark.parametrize("cap", [None, 8.0])
@pytest.mark.parametrize("targeted", [True, False])
@pytest.mark.parametrize("case", ["scenario1", "k8_library"])
def test_one_pass_equals_arm_by_arm_calls(case, targeted, cap, scenario1_panel, monkeypatch):
    # with starts ignored the arms of a pass share designs and denominators
    # only, so each arm's numbers are those of a call on it alone
    _cold_scipy_fits(monkeypatch)
    gfit, top, arms = _pass_case(case, scenario1_panel)
    together = tmle_arm(gfit, arms, top, targeted=targeted, weight_cap=cap)
    assert len(together) == len(arms)
    for pol, est in zip(arms, together):
        _same_estimate(est, tmle_arm(gfit, pol, top, targeted=targeted, weight_cap=cap))


def test_pass_counts_designs_once_per_step(scenario1_panel, monkeypatch):
    calls = []
    real = engine.history_design

    def counting(panel, features, treat_upto, cov_upto=None, sub_a=None, sub_z=None):
        calls.append(treat_upto)
        return real(panel, features, treat_upto, cov_upto, sub_a, sub_z)

    monkeypatch.setattr(engine, "history_design", counting)
    gfit, top, arms = _pass_case("scenario1", scenario1_panel)
    calls.clear()
    tmle_arm(gfit, arms, top)
    # per step: the fit design and the distinct substitutions (a, z) with a
    # in {1, 0} and z in {0, 1, Z0, observed}; at step 1 the dynamic law
    # leaves Z0 alone
    per_step = np.bincount(calls, minlength=top.horizon)
    assert per_step.tolist() == [1 + 2 * 3] + [1 + 2 * 4] * (top.horizon - 1)


def _raise_on_call(monkeypatch, which):
    """Make call number ``which`` of the step fits raise."""
    real = engine._fit_learner
    count = [0]

    def failing(*args, **kwargs):
        count[0] += 1
        if count[0] == which:
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "_fit_learner", failing)


@pytest.mark.parametrize("case", ["scenario1", "k8_library"])
def test_failing_arm_fails_alone(case, scenario1_panel, monkeypatch):
    _cold_scipy_fits(monkeypatch)
    gfit, top, arms = _pass_case(case, scenario1_panel)
    # a stochastic law that ends before the horizon fails its arms with the
    # message a call on that arm alone raises
    spec = arms[2 * POLICY_NAMES.index("stochastic")].z_spec
    short = dataclasses.replace(spec, models=spec.models[:2])
    arms = arms + [ArmPolicy(1, short)]
    whole = tmle_arm(gfit, arms, top)
    with pytest.raises(ValueError) as alone:
        tmle_arm(gfit, arms[-1], top)
    assert spec.form == "stochastic"
    assert isinstance(whole[-1], ValueError) and str(whole[-1]) == str(alone.value)

    # the third arm's fit at the step below the top raises: it fails alone
    _raise_on_call(monkeypatch, 3)
    failed = tmle_arm(gfit, arms, top)
    assert isinstance(failed[2], FloatingPointError) and str(failed[2]) == "injected"
    assert isinstance(failed[-1], ValueError)
    for i, (before, after) in enumerate(zip(whole[:-1], failed[:-1])):
        if i != 2:
            _same_estimate(before, after)


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


# ---------------------------------------------------------------------------
# fit_g behavior


def test_fit_g_randomization_constant():
    panel = simulate_trial(scenario_presets()["scenario1"], 1000, 37)
    gfit = fit_g(panel, randomized=True)
    assert gfit.a_mechs[0].model.constant == 0.5
    assert np.all(gfit.floored_prob(panel, "A", 0, np.ones(panel.n, bool))[0] == 0.5)


def test_fit_g_degenerate_censoring_shortcut():
    panel = simulate_trial(scenario_presets()["scenario1"], 1000, 41)
    gfit = fit_g(panel)
    assert all(m.model.constant == 0.0 for m in gfit.c_mechs)
    p_unc = gfit.floored_prob(panel, "C", 1, np.ones(panel.n, bool))[0]
    assert np.all(p_unc == 1.0)


def test_fit_g_adherence_shortcut():
    panel = simulate_trial(scenario_presets()["scenario1"], 1000, 43)
    gfit = fit_g(panel)
    assert all(m.model is None for m in gfit.a_mechs[1:])
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
    panel = make_panel(np.zeros((3, 1)), [0, 0, 0], [1, 0, 1], Y, np.zeros((2, 3)),
                       np.zeros((2, 3)), L=np.zeros((1, 3, 1)), A=np.zeros((1, 3)),
                       Z=np.zeros((1, 3)))
    with pytest.raises(DataError, match=r"absorbing Y broken at visit 2 \(subject 0\)"):
        fit_g(panel)


# ---------------------------------------------------------------------------
# tmle_arm behavior


def test_degenerate_outcome_panel_gives_zero():
    cfg = scenario_presets()["scenario1"]
    from dropintmle.sim import ScenarioConfig

    dead = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1, p_zy=1,
                          outcome_intercept=-60.0)
    panel = simulate_trial(dead, 2000, 51)
    assert panel.Y.sum() == 0
    gfit = fit_g(panel)
    est = tmle_arm(gfit, ArmPolicy(a_value=1, z_spec=static_z(0)), fit_top_step(panel))
    assert abs(est.psi) <= 1e-5
    assert np.all(np.abs(est.eic) <= 1e-5)


def test_eic_mean_zero_and_step_scores(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    gstar = fit_stochastic_gstar(scenario1_panel)
    top = fit_top_step(scenario1_panel)
    for spec in (static_z(0), static_z(1), dynamic_z(), observational_z(), gstar):
        for a in (0, 1):
            est = tmle_arm(gfit, ArmPolicy(a_value=a, z_spec=spec), top)
            assert abs(est.mean_eic) <= 1e-8
            assert all(abs(s) <= 1e-8 for s in est.diagnostics["step_scores"])
            assert est.diagnostics["fluct_converged"]


def test_psi_equals_mean_of_final_projection(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    est = tmle_arm(gfit, ArmPolicy(a_value=1, z_spec=static_z(0)), fit_top_step(scenario1_panel))
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
    for horizon in (0, 9):
        with pytest.raises(ValueError, match="horizon"):
            fit_top_step(scenario1_panel, horizon=horizon)


@pytest.mark.parametrize("cap", [0.0, -1.0, float("nan"), float("inf")])
def test_weight_cap_outside_positive_reals_raises(scenario1_panel, cap):
    gfit = fit_g(scenario1_panel)
    with pytest.raises(ValueError, match="weight cap"):
        tmle_arm(gfit, ArmPolicy(a_value=1, z_spec=static_z(0)), fit_top_step(scenario1_panel),
                 weight_cap=cap)


@pytest.mark.parametrize("g_floor", [-0.1, 0.5, 0.7, float("nan")])
def test_g_floor_outside_half_interval_raises(scenario1_panel, g_floor):
    with pytest.raises(ValueError, match="g floor"):
        fit_g(scenario1_panel, g_floor=g_floor)


def test_gcomp_has_no_variance(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    top = fit_top_step(scenario1_panel)
    g1, g0 = (tmle_arm(gfit, p, top, targeted=False) for p in arm_pair(static_z(0)))
    assert g1.eic is None
    rep = contrast(g1, g0, "static0")
    assert rep.se is None and rep.ci_low is None
    assert not rep.targeted


def test_contrast_identical_arms(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    e = tmle_arm(gfit, ArmPolicy(a_value=1, z_spec=static_z(0)), fit_top_step(scenario1_panel))
    rep = contrast(e, e, "self")
    assert rep.psi == 0.0
    assert rep.ci_low == pytest.approx(-rep.ci_high, abs=1e-15)


def test_contrast_ci_formula(scenario1_panel):
    gfit = fit_g(scenario1_panel)
    top = fit_top_step(scenario1_panel)
    e1, e0 = (tmle_arm(gfit, p, top) for p in arm_pair(dynamic_z()))
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
    est = tmle_arm(gfit, ArmPolicy(a_value=1, z_spec=static_z(0)),
                   fit_top_step(scenario1_panel, library))
    assert abs(est.mean_eic) <= 1e-8
    assert 0.0 <= est.psi <= 1.0


def test_tmle_close_to_truth_on_one_panel():
    # single large panel: the estimate lands within a few SEs of the oracle
    from dropintmle.sim import oracle_risk_difference

    cfg = scenario_presets()["scenario1"]
    panel = simulate_trial(cfg, 9340, 59)
    gfit = fit_g(panel)
    truth = oracle_risk_difference(cfg, static_z(0), 5, 400_000, 5).psi
    top = fit_top_step(panel)
    rep = contrast(*(tmle_arm(gfit, p, top) for p in arm_pair(static_z(0))), "static0")
    assert rep.psi == pytest.approx(truth, abs=4 * rep.se)
