import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropintmle.interventions import (
    USE_OBSERVED_G,
    InterventionSpec,
    dynamic_z,
    fit_stochastic_gstar,
    gstar_prob1,
    observational_z,
    static_z,
)
from dropintmle.features import gstar_design
from dropintmle.learners import clip_probs, fit_constant
from dropintmle.panel import TrialPanel
from dropintmle.sim import scenario_presets, simulate_trial


def test_static_degenerate_mass():
    assert gstar_prob1(static_z(0), k=2) == 0.0
    assert gstar_prob1(static_z(1), k=2) == 1.0


def test_dynamic_follows_baseline_status():
    spec = dynamic_z()
    assert gstar_prob1(spec, k=3, z0=1) == 1.0
    assert gstar_prob1(spec, k=3, z0=0) == 0.0
    # at baseline the rule is vacuous: the node is left observational
    assert gstar_prob1(spec, k=0, z0=1) is USE_OBSERVED_G


def test_observational_sentinel():
    assert gstar_prob1(observational_z(), k=2) is USE_OBSERVED_G


def test_unfitted_stochastic_raises():
    with pytest.raises(ValueError, match="fitted laws"):
        InterventionSpec(form="stochastic")


@settings(max_examples=25, deadline=None)
@given(z_prev=st.integers(0, 1), l0=st.floats(-3, 3), k=st.integers(0, 4))
def test_probabilities_sum_to_one(z_prev, l0, k, fitted_gstar):
    p1 = gstar_prob1(fitted_gstar, k=k, l0=np.array([[l0]]), z_prev=z_prev)
    assert 0.0 < p1 < 1.0


@pytest.fixture(scope="module")
def fitted_gstar():
    panel = simulate_trial(scenario_presets()["scenario1"], 3000, 99)
    return fit_stochastic_gstar(panel)


@pytest.fixture(scope="module")
def gstar_panel():
    return simulate_trial(scenario_presets()["scenario1"], 3000, 99)


def test_gstar_prob_on_panel_histories(fitted_gstar, gstar_panel):
    # n-row baseline covariates with vector z_prev / z0, as the engine calls it
    p = gstar_panel
    for k in range(p.K):
        hist = dict(l0=p.L0, z_prev=p.z_at(k - 1) if k else None, z0=p.Z0)
        p1 = clip_probs(fitted_gstar.models[k].predict(gstar_design(p, k)))
        assert np.array_equal(gstar_prob1(fitted_gstar, k, **hist), p1)
        for v in (0, 1):
            assert gstar_prob1(static_z(v), k, **hist) == float(v)
        dyn = gstar_prob1(dynamic_z(), k, **hist)
        if k == 0:
            assert dyn is USE_OBSERVED_G
        else:
            assert np.array_equal(dyn, p.Z0.astype(float))


def test_stochastic_ignores_postbaseline_covariates(gstar_panel):
    # permuting a post-baseline covariate column leaves the fit unchanged
    p = gstar_panel
    spec1 = fit_stochastic_gstar(p)
    rng = np.random.default_rng(0)
    L = p.L.copy()
    L[2] = L[2][rng.permutation(p.n)]
    shuffled = TrialPanel(
        L0=p.L0, Z0=p.Z0, A0=p.A0,
        Y=p.Y, D=p.D, C=p.C, L=L, A=p.A, Z=p.Z,
    )
    spec2 = fit_stochastic_gstar(shuffled)
    for m1, m2 in zip(spec1.models, spec2.models):
        assert np.array_equal(m1.coef, m2.coef)


def test_stochastic_ignores_randomized_arm(gstar_panel):
    # two histories differing only in the randomized arm get one probability
    spec = fit_stochastic_gstar(gstar_panel)
    p_a = gstar_prob1(spec, k=2, l0=np.array([[0.3]]), z_prev=1)
    assert p_a.shape == (1,)  # one history, and no arm argument exists to vary


def test_stochastic_recovers_iid_coin():
    rng = np.random.default_rng(5)
    n = 10_000
    K = 3
    Z = (rng.random((K - 1, n)) < 0.5).astype(np.int8)
    panel = TrialPanel(
        L0=rng.standard_normal((n, 1)),
        Z0=(rng.random(n) < 0.5).astype(np.int8),
        A0=(rng.random(n) < 0.5).astype(np.int8),
        Y=np.zeros((K, n), dtype=np.int8), D=np.zeros((K, n), dtype=np.int8),
        C=np.zeros((K, n), dtype=np.int8),
        L=rng.standard_normal((K - 1, n, 1)), A=np.zeros((K - 1, n), dtype=np.int8),
        Z=Z,
    )
    spec = fit_stochastic_gstar(panel)
    for z_prev in (0, 1):
        for l0 in (-1.0, 0.0, 1.0):
            p = gstar_prob1(spec, k=1, l0=np.array([[l0]]), z_prev=z_prev)
            assert p == pytest.approx(0.5, abs=0.02)


def test_stochastic_degenerate_panel_warns():
    n, K = 500, 3
    rng = np.random.default_rng(6)
    z0 = (rng.random(n) < 0.5).astype(np.int8)
    panel = TrialPanel(
        L0=rng.standard_normal((n, 1)), Z0=z0,
        A0=(rng.random(n) < 0.5).astype(np.int8),
        Y=np.zeros((K, n), dtype=np.int8), D=np.zeros((K, n), dtype=np.int8),
        C=np.zeros((K, n), dtype=np.int8),
        L=rng.standard_normal((K - 1, n, 1)),
        A=np.zeros((K - 1, n), dtype=np.int8),
        Z=np.ones((K - 1, n), dtype=np.int8),   # everyone on treatment later
    )
    with pytest.warns(UserWarning, match="constant"):
        spec = fit_stochastic_gstar(panel)
    p = gstar_prob1(spec, k=1, l0=np.array([[0.0]]), z_prev=1)
    assert p > 0.999


def test_dynamic_equals_per_subject_static():
    # for any subject the dynamic rule is the static rule at their baseline
    # status
    dyn = dynamic_z()
    for z0 in (0, 1):
        assert gstar_prob1(dyn, k=2, z0=z0) == gstar_prob1(static_z(z0), k=2)


def test_stochastic_fit_invariant_to_arm_relabeling(gstar_panel):
    # the balancing law pools both randomization arms: relabeling the arm
    # column cannot change the fit
    p = gstar_panel
    spec1 = fit_stochastic_gstar(p)
    flipped = TrialPanel(
        L0=p.L0, Z0=p.Z0, A0=(1 - p.A0).astype(np.int8),
        Y=p.Y, D=p.D, C=p.C, L=p.L, A=(1 - np.asarray(p.A)).astype(np.int8), Z=p.Z,
    )
    spec2 = fit_stochastic_gstar(flipped)
    for m1, m2 in zip(spec1.models, spec2.models):
        assert np.array_equal(m1.coef, m2.coef)


def test_stochastic_sticky_panel_tracks_persistence(gstar_panel):
    # scenario panels have persistent treatment: staying probability is high
    spec = fit_stochastic_gstar(gstar_panel)
    stay = gstar_prob1(spec, k=2, l0=np.array([[0.0]]), z_prev=1)
    start = gstar_prob1(spec, k=2, l0=np.array([[0.0]]), z_prev=0)
    assert stay > 0.95
    assert start < 0.2


def test_baseline_rule_follows_the_form():
    # every form but dynamic replaces the visit-0 node; observational none
    stochastic = InterventionSpec(form="stochastic", models=(fit_constant(np.array([0.3])),))
    for spec, at_baseline in ((static_z(1), True), (stochastic, True),
                              (dynamic_z(), False), (observational_z(), False)):
        assert spec.intervenes_at(0) is at_baseline
        assert spec.intervenes_at(3) is (spec.form != "observational")
