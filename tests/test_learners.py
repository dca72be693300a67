import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logit

from dropintmle.learners import expit as kernel_expit
from dropintmle.learners import (
    FitError,
    clip_probs,
    cv_fold_ids,
    fit_binary_glm,
    fit_constant,
    fit_discrete_super_learner,
    fit_intercept_fluctuation,
)


def _ulps(a, b) -> np.ndarray:
    """Distance between float arrays in units in the last place: the gap
    between their positions in the ordered set of doubles; two NaNs are 0
    apart and +0 and -0 are equal."""
    def ordered(v):
        i = np.asarray(v, dtype=float).view(np.int64)
        return np.where(i < 0, np.int64(-2**63) - i, i)
    gap = np.abs(ordered(a) - ordered(b))
    return np.where(np.isnan(a) & np.isnan(b), 0, gap)


SPECIAL_X = [1e-300, 40.0, 745.0, 1e308, np.inf, 0.0, 709.78, 710.0, 36.8]


def test_kernel_agrees_with_scipy_within_2_ulp():
    from dropintmle.learners import logit as kernel_logit

    x = np.concatenate([np.linspace(-800.0, 800.0, 1_600_001), np.linspace(-40.0, 40.0, 800_001),
                        np.geomspace(1e-300, 1e308, 20_000), SPECIAL_X])
    x = np.concatenate([x, -x, [np.nan]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gap = _ulps(kernel_expit(x), expit(x))
        # where exp(-x) lies in [2^53, 2^54), 1 + exp(-x) is a rounding tie,
        # so one ulp of exp moves the sum by up to two of its own ulps
        tie = (x > -54 * np.log(2.0)) & (x <= -53 * np.log(2.0))
        assert gap[~tie].max() <= 2
        assert gap[tie].max() <= 4
        assert kernel_expit(np.array([-745.0, 745.0, -np.inf, np.inf])).tolist() == [0, 1, 0, 1]

        p = np.concatenate([np.linspace(0.0, 1.0, 2_000_001), np.geomspace(1e-300, 0.5, 20_000),
                            1.0 - np.geomspace(1e-16, 0.5, 20_000), [0.3, 0.65, np.nan],
                            np.nextafter([0.3, 0.65], [0.0, 1.0])])
        assert _ulps(kernel_logit(p), logit(p)).max() <= 2


def test_kernel_writes_in_place_and_takes_scalars():
    from dropintmle.learners import logit as kernel_logit

    rng = np.random.default_rng(3)
    x = rng.normal(0.0, 5.0, 1001)
    p = expit(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, arg in ((kernel_expit, x), (kernel_logit, p)):
            want = fn(arg)
            same = arg.copy()
            assert fn(same, out=same) is same       # out= aliasing the input
            assert same.tobytes() == want.tobytes()
            other = np.empty_like(arg)
            assert fn(arg, out=other) is other and other.tobytes() == want.tobytes()
            for i in (7, int(np.argmin(np.abs(p - 0.5)))):   # logit's two formulas
                one = fn(float(arg[i]))
                assert isinstance(one, np.float64) and one == want[i]
        # the round trip on (-30, 30), to the conditioning of logit at expit(x)
        x = np.linspace(-30.0, 30.0, 600_001)[1:-1]
        back = kernel_logit(kernel_expit(x))
        assert np.all(np.abs(back - x) <= 4 * np.finfo(float).eps * (1.0 + np.abs(x))
                      / kernel_expit(-np.abs(x)))


def test_intercept_only_closed_form():
    # weighted mean 0.75 -> coefficient logit(0.75) = ln 3; the ridge jitter
    # on the normal equations perturbs the root at the ~1e-8 scale
    X = np.ones((4, 1))
    y = np.array([1.0, 1.0, 1.0, 0.0])
    m = fit_binary_glm(X, y)
    assert m.converged
    assert m.coef[0] == pytest.approx(np.log(3.0), abs=2e-7)


def test_symmetric_data_zero_intercept():
    X = np.ones((2, 1))
    m = fit_binary_glm(X, np.array([0.0, 1.0]))
    assert m.coef[0] == pytest.approx(0.0, abs=1e-8)


def test_weighted_score_zero_at_convergence():
    # the IRLS score X' (y - mu), whose weights are the mu (1 - mu) of the
    # working response, vanishes at a converged fit
    rng = np.random.default_rng(3)
    X = np.column_stack([np.ones(500), rng.standard_normal(500), rng.standard_normal(500)])
    beta = np.array([-0.3, 0.8, -0.5])
    y = (rng.random(500) < expit(X @ beta)).astype(float)
    m = fit_binary_glm(X, y)
    assert m.converged
    score = X.T @ (y - m.predict(X))
    assert np.max(np.abs(score)) <= 1e-6


def test_separated_data_predictions_bounded():
    x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    X = np.column_stack([np.ones(6), x])
    y = (x > 0).astype(float)
    m = fit_binary_glm(X, y)
    p = m.predict(X)
    assert np.all((p > 0) & (p < 1))
    assert (not m.converged) or m.n_iter <= 50


def test_errors():
    with pytest.raises(FitError):
        fit_binary_glm(np.ones((3, 1)), np.array([0.0, 1.0]))
    with pytest.raises(FitError):
        fit_binary_glm(np.ones((0, 1)), np.array([]))
    with pytest.raises(FitError):
        fit_binary_glm(np.ones((2, 1)), np.array([0.0, 2.0]))


def test_rescaled_feature_predictions_invariant():
    rng = np.random.default_rng(9)
    X = np.column_stack([np.ones(300), rng.standard_normal(300)])
    y = (rng.random(300) < expit(0.4 * X[:, 1])).astype(float)
    m1 = fit_binary_glm(X, y)
    X2 = X.copy()
    X2[:, 1] *= 7.0
    m2 = fit_binary_glm(X2, y)
    assert np.allclose(m1.predict(X), m2.predict(X2), atol=1e-8)
    assert m2.coef[1] == pytest.approx(m1.coef[1] / 7.0, rel=1e-6)


def _parent_irls(X, y, w=None, offset=None, max_iter=50, tol=1e-10, ridge=1e-8):
    """The IRLS loop before columns were merged and the stop rule took the
    score, kept verbatim: a ridge-jittered solve on the full design, stopping
    once the deviance change is below tol (|dev| + 1) and the coefficient
    step is <= 1e-9; ``converged`` is the score test on the last iterate."""
    def deviance(y, p, w):
        p = clip_probs(np.asarray(p, dtype=float))
        return -2.0 * float(np.sum(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))

    n = X.shape[0]
    w = np.ones(n) if w is None else w
    off = np.zeros(n) if offset is None else offset
    active = w > 0
    Xa, ya, wa, offa = X[active], y[active], w[active], off[active]
    p = X.shape[1]

    beta = np.zeros(p)
    mu = clip_probs(expit(offa + Xa @ beta))
    dev = deviance(ya, mu, wa)
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        irls_w = wa * mu * (1.0 - mu)
        z = (Xa @ beta) + (ya - mu) / np.maximum(mu * (1.0 - mu), 1e-12)
        XtW = Xa.T * irls_w
        lhs = XtW @ Xa + ridge * np.eye(p)
        rhs = XtW @ z
        try:
            beta_new = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            break
        mu_new = clip_probs(expit(offa + Xa @ beta_new))
        dev_new = deviance(ya, mu_new, wa)
        step = float(np.max(np.abs(beta_new - beta))) if beta.size else 0.0
        beta, mu = beta_new, mu_new
        if abs(dev - dev_new) < tol * (abs(dev_new) + 1.0) and step <= 1e-9:
            dev = dev_new
            break
        dev = dev_new

    score = Xa.T @ (wa * (ya - mu))
    converged = bool(np.max(np.abs(score), initial=0.0) <= 1e-6)
    return beta, dev, n_iter, converged


def _equal_column_groups(Xa):
    """Pairwise scan for exactly equal columns: the first column of each
    group, each column's group, and each column's group size."""
    leader = [next(i for i in range(j + 1) if np.array_equal(Xa[:, i], Xa[:, j]))
              for j in range(Xa.shape[1])]
    keep = sorted(set(leader))
    group = [keep.index(lead) for lead in leader]
    share = np.array([leader.count(lead) for lead in leader], dtype=float)
    return keep, group, share


def _reference_irls(X, y, w=None, offset=None, max_iter=50, tol=1e-10, ridge=1e-8):
    """The textbook IRLS loop that ``fit_binary_glm`` must reproduce bit for
    bit: every quantity recomputed each iteration, on a row-subset copy, with
    the package's logistic kernel.
    Exactly equal columns (a pairwise scan of the active rows) carry one
    coefficient, found from the normal equations reduced to each group's
    first column and split equally among its members; the loop stops once
    the deviance change is below tol (|dev| + 1) and the score max-norm is
    <= 1e-6, which is also what ``converged`` reports."""
    def deviance(y, p, w):
        p = clip_probs(np.asarray(p, dtype=float))
        return -2.0 * float(np.sum(w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))

    n = X.shape[0]
    w = np.ones(n) if w is None else w
    off = np.zeros(n) if offset is None else offset
    active = w > 0
    Xa, ya, wa, offa = X[active], y[active], w[active], off[active]
    p = X.shape[1]
    keep, group, share = _equal_column_groups(Xa)

    beta = np.zeros(p)
    mu = clip_probs(kernel_expit(offa + Xa @ beta))
    dev = deviance(ya, mu, wa)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        irls_w = wa * mu * (1.0 - mu)
        z = (Xa @ beta) + (ya - mu) / np.maximum(mu * (1.0 - mu), 1e-12)
        XtW = Xa.T * irls_w
        lhs = (XtW @ Xa)[np.ix_(keep, keep)] + ridge * np.eye(len(keep))
        rhs = (XtW @ z)[keep]
        try:
            gamma = np.linalg.solve(lhs, rhs)
        except np.linalg.LinAlgError:
            break
        beta = gamma[group] / share
        mu_new = clip_probs(kernel_expit(offa + Xa @ beta))
        dev_new = deviance(ya, mu_new, wa)
        score = Xa.T @ (wa * (ya - mu_new))
        mu = mu_new
        if (abs(dev - dev_new) < tol * (abs(dev_new) + 1.0)
                and np.max(np.abs(score), initial=0.0) <= 1e-6):
            dev = dev_new
            converged = True
            break
        dev = dev_new
    return beta, dev, n_iter, converged


def _assert_matches_reference(X, y):
    m = fit_binary_glm(X, y)
    beta, dev, n_iter, converged = _reference_irls(X, y)
    assert np.array_equal(m.coef, beta)
    assert m.deviance == dev
    assert m.n_iter == n_iter
    assert m.converged == converged
    return m


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("fractional", [False, True])
def test_irls_bit_identical_to_reference(order, fractional):
    rng = np.random.default_rng(17)
    n = 700
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 4)),
                         (rng.random(n) < 0.3).astype(float)])
    X = np.asarray(X, order=order)
    eta = X @ np.array([-0.4, 0.7, -0.3, 0.2, 0.0, 0.9])
    y = expit(eta) if fractional else (rng.random(n) < expit(eta)).astype(float)
    _assert_matches_reference(X, y)


def test_irls_bit_identical_under_separation():
    x = np.linspace(-2.0, 2.0, 40)
    X = np.column_stack([np.ones(40), x])
    y = (x > 0).astype(float)
    m = _assert_matches_reference(X, y)
    assert m.n_iter == 50
    assert not m.converged


def test_irls_bit_identical_on_aliased_running_avg_design():
    # under full adherence the running mean of A equals the last A exactly
    from dropintmle.features import history_design
    from dropintmle.panel import at_risk_mask
    from dropintmle.sim import scenario_presets, simulate_trial

    panel = simulate_trial(scenario_presets()["scenario1"], 3000, 23)
    mask = at_risk_mask(panel, 3) & (panel.c_at(3) == 0)
    X = history_design(panel, "running_avg", treat_upto=2)[mask]
    assert np.array_equal(X[:, 1], X[:, 3])          # a_last == abar
    m = _assert_matches_reference(X, panel.y_at(3)[mask].astype(float))
    assert m.converged
    assert m.coef[1] == m.coef[3]


def test_warm_start_is_kept_only_below_the_zero_start_deviance():
    rng = np.random.default_rng(31)
    n = 600
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    y = (rng.random(n) < expit(X @ np.array([-0.5, 0.8, -0.4]))).astype(float)
    cold = fit_binary_glm(X, y)
    # the converged fit as start: settled and scored at the first step
    warm = fit_binary_glm(X, y, start=cold.coef)
    assert warm.converged and warm.n_iter == 1
    assert np.allclose(warm.coef, cold.coef, atol=1e-9)
    # a start worse than all zeros is dropped: the cold fit, bit for bit
    bad = fit_binary_glm(X, y, start=np.array([9.0, -9.0, 9.0]))
    assert bad.coef.tobytes() == cold.coef.tobytes() and bad.n_iter == cold.n_iter
    with pytest.raises(ValueError, match="start has shape"):
        fit_binary_glm(X, y, start=np.zeros(2))


def test_equal_columns_share_one_coefficient_equally():
    # the split is equal among the members, and predictions match the fit
    # without the copies
    rng = np.random.default_rng(21)
    n = 400
    x = rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x, x, rng.standard_normal(n), x])
    y = (rng.random(n) < expit(0.3 + 0.9 * x - 0.4 * X[:, 3])).astype(float)
    m = fit_binary_glm(X, y)
    assert m.converged
    assert m.coef[1] == m.coef[2] == m.coef[4]
    single = fit_binary_glm(X[:, [0, 1, 3]], y)
    assert np.allclose(m.predict(X), single.predict(X[:, [0, 1, 3]]), atol=1e-9)


def _tight_irls(X, y, w=None, offset=None, max_iter=50, tol=1e-10, ridge=1e-8):
    """A tightly converged fit of the merged-column problem: the textbook
    loop of ``_reference_irls``, run until the coefficient step is <= 1e-13
    whatever ``tol`` says.  A separated fit has no limit to converge to, so
    it stops at ``max_iter`` like the loops it is compared with."""
    n = X.shape[0]
    w = np.ones(n) if w is None else w
    off = np.zeros(n) if offset is None else offset
    active = w > 0
    Xa, ya, wa, offa = X[active], y[active], w[active], off[active]
    keep, group, share = _equal_column_groups(Xa)
    beta = np.zeros(X.shape[1])
    for n_iter in range(1, max_iter + 1):
        mu = clip_probs(expit(offa + Xa @ beta))
        z = (Xa @ beta) + (ya - mu) / np.maximum(mu * (1.0 - mu), 1e-12)
        XtW = Xa.T * (wa * mu * (1.0 - mu))
        lhs = (XtW @ Xa)[np.ix_(keep, keep)] + ridge * np.eye(len(keep))
        beta_new = np.linalg.solve(lhs, (XtW @ z)[keep])[group] / share
        step = float(np.max(np.abs(beta_new - beta), initial=0.0))
        beta = beta_new
        if step <= 1e-13:
            break
    return beta, np.nan, n_iter, step <= 1e-13


def _with_irls(monkeypatch, loop):
    """Route every IRLS fit of the estimation core through ``loop``."""
    from dropintmle import engine, interventions, learners
    from dropintmle.learners import FittedModel

    def fit(design, response, start=None, **kw):   # every fit from the zero start
        beta, dev, n_iter, converged = loop(np.asarray(design, dtype=float),
                                            np.asarray(response, dtype=float), **kw)
        return FittedModel(coef=beta, converged=converged, deviance=dev, n_iter=n_iter)

    for module in (learners, engine, interventions):
        monkeypatch.setattr(module, "fit_binary_glm", fit)


def _policy_outputs(panel, learner, n_folds):
    """Per policy: TMLE psi, its SE and the g-computation psi."""
    from dropintmle.engine import contrast, fit_g, fit_top_step, tmle_arm
    from dropintmle.interventions import (POLICY_NAMES, arm_pair, fit_stochastic_gstar,
                                          policy_specs)

    gfit = fit_g(panel, learner, seed=0, n_folds=n_folds)
    top = fit_top_step(panel, learner, None, 0, n_folds)
    rows = []
    for name, spec in policy_specs(POLICY_NAMES, lambda: fit_stochastic_gstar(panel)).items():
        arms = arm_pair(spec)
        rep = contrast(*(tmle_arm(gfit, p, top) for p in arms), name)
        g1, g0 = (tmle_arm(gfit, p, top, targeted=False) for p in arms)
        rows.append((rep.psi, rep.se, g1.psi - g0.psi))
    return np.array(rows)


@pytest.mark.parametrize("case", ["scenario1", "k8_library"])
def test_stop_rule_stays_within_the_stated_bound_of_the_parent_loop(
        case, scenario1_panel, monkeypatch):
    # psi and SE within 1e-9 and g-computation within 1e-8 of the loop with
    # the coefficient-step stop, and closer than it to a tight fit
    from toy_panel import build_k8_panel

    if case == "scenario1":
        panel, learner, n_folds = scenario1_panel, "running_avg", 10
    else:
        panel, learner, n_folds = build_k8_panel(), ["main", "running_avg"], 2
    new = _policy_outputs(panel, learner, n_folds)
    _with_irls(monkeypatch, _parent_irls)
    parent = _policy_outputs(panel, learner, n_folds)
    _with_irls(monkeypatch, _tight_irls)
    tight = _policy_outputs(panel, learner, n_folds)

    assert np.max(np.abs(new[:, :2] - parent[:, :2])) <= 1e-9
    assert np.max(np.abs(new[:, 2] - parent[:, 2])) <= 1e-8
    assert np.max(np.abs(new - tight)) < np.max(np.abs(parent - tight))


def _pass_outputs(panel, learner, n_folds):
    """``_policy_outputs`` from one pass over every arm, targeted and not."""
    from dropintmle.engine import arm_estimate, contrast, fit_g, fit_top_step, tmle_arm
    from dropintmle.interventions import (POLICY_NAMES, fit_stochastic_gstar, policy_arms,
                                          policy_specs)

    gfit = fit_g(panel, learner, seed=0, n_folds=n_folds)
    top = fit_top_step(panel, learner, None, 0, n_folds)
    specs = policy_specs(POLICY_NAMES, lambda: fit_stochastic_gstar(panel))
    arms = policy_arms(specs)
    tmle, gcomp = (iter(tmle_arm(gfit, arms, top, targeted=t)) for t in (True, False))
    rows = []
    for name, pair, gpair in zip(specs, zip(tmle, tmle), zip(gcomp, gcomp)):
        rep = contrast(*(arm_estimate(r) for r in pair), name)
        g1, g0 = (arm_estimate(r) for r in gpair)
        rows.append((rep.psi, rep.se, g1.psi - g0.psi))
    return np.array(rows)


def _with_parent_numerics(monkeypatch):
    """scipy's logistic kernel, and every fit from the zero start."""
    from dropintmle import engine, interventions, learners

    real = learners.fit_binary_glm

    def cold(design, response, max_iter=50, start=None):
        return real(design, response, max_iter)

    for module in (learners, engine, interventions):
        monkeypatch.setattr(module, "fit_binary_glm", cold)
    for module in (learners, engine):
        monkeypatch.setattr(module, "expit", expit)
        monkeypatch.setattr(module, "logit", logit)


@pytest.mark.parametrize("case", ["scenario1", "k8_library"])
def test_one_pass_stays_within_the_stated_bound_of_the_parent_numerics(
        case, scenario1_panel, monkeypatch):
    # psi and SE within 1e-9 and g-computation within 1e-8 of scipy's
    # kernel, cold starts and one arm per call
    from toy_panel import build_k8_panel

    if case == "scenario1":
        panel, learner, n_folds = scenario1_panel, "running_avg", 10
    else:
        panel, learner, n_folds = build_k8_panel(), ["main", "running_avg"], 2
    new = _pass_outputs(panel, learner, n_folds)
    _with_parent_numerics(monkeypatch)
    parent = _policy_outputs(panel, learner, n_folds)

    assert np.max(np.abs(new[:, :2] - parent[:, :2])) <= 1e-9
    assert np.max(np.abs(new[:, 2] - parent[:, 2])) <= 1e-8


def test_fluctuation_one_point_closed_form():
    eps, ok = fit_intercept_fluctuation(np.array([0.8]), np.array([0.0]), np.array([1.0]))
    assert ok
    assert eps == pytest.approx(logit(0.8), abs=1e-9)


def test_fluctuation_stationary_at_zero():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.2, 0.8, 50)
    # offsets already solve the weighted score: residuals exactly zero
    eps, ok = fit_intercept_fluctuation(p, logit(p), np.ones(50))
    assert ok
    assert eps == pytest.approx(0.0, abs=1e-9)


def test_fluctuation_weight_scale_invariance():
    rng = np.random.default_rng(6)
    y = rng.uniform(0.05, 0.95, 80)
    off = rng.standard_normal(80)
    w = rng.uniform(0.5, 4.0, 80)
    e1, _ = fit_intercept_fluctuation(y, off, w)
    e2, _ = fit_intercept_fluctuation(y, off, 2.0 * w)
    assert e1 == pytest.approx(e2, abs=1e-9)


def test_fluctuation_no_weights_warns():
    with pytest.warns(UserWarning):
        eps, ok = fit_intercept_fluctuation(np.array([0.4]), np.array([0.0]), np.array([0.0]))
    assert eps == 0.0 and ok


def test_fluctuation_matches_intercept_glm_with_offset():
    # the weighted, offset intercept-only IRLS of the textbook loop
    rng = np.random.default_rng(7)
    y = rng.uniform(0.0, 1.0, 120)
    off = rng.standard_normal(120) * 0.5
    w = rng.uniform(0.2, 2.0, 120)
    eps, _ = fit_intercept_fluctuation(y, off, w)
    beta, _, _, _ = _reference_irls(np.ones((120, 1)), y, w, off)
    assert eps == pytest.approx(beta[0], abs=1e-6)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.01, 0.99), min_size=2, max_size=30),
       st.integers(0, 10_000))
def test_fluctuation_solves_score(ys, seed):
    rng = np.random.default_rng(seed)
    y = np.array(ys)
    off = rng.standard_normal(y.size)
    w = rng.uniform(0.1, 5.0, y.size)
    eps, ok = fit_intercept_fluctuation(y, off, w)
    if ok:
        assert abs(np.sum(w * (y - expit(off + eps)))) <= 1e-8 * max(1.0, w.sum())


def test_fit_constant_exact():
    m = fit_constant(np.array([0.0, 0.0, 0.0]))
    assert m.constant == 0.0
    assert np.all(m.predict(np.ones((2, 1))) == 0.0)


def test_cv_folds_deterministic_and_balanced():
    f1 = cv_fold_ids(103, 10, 42)
    f2 = cv_fold_ids(103, 10, 42)
    assert np.array_equal(f1, f2)
    assert not np.array_equal(f1, cv_fold_ids(103, 10, 43))
    counts = np.bincount(f1, minlength=10)
    assert counts.max() - counts.min() <= 1


def test_super_learner_singleton():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.ones(100), rng.standard_normal(100)])
    y = (rng.random(100) < 0.4).astype(float)
    sel = fit_discrete_super_learner([("only", X)], y, n_folds=5, seed=0)
    assert sel.name == "only"
    assert sel.cv_risks.keys() == {"only"}


def test_super_learner_argmin_property():
    # intercept-only truth: the selected member attains the minimal CV risk
    rng = np.random.default_rng(10)
    n = 200
    y = (rng.random(n) < 0.3).astype(float)
    cands = [
        ("intercept", np.ones((n, 1))),
        ("noise10", np.column_stack([np.ones(n), rng.standard_normal((n, 10))])),
    ]
    sel = fit_discrete_super_learner(cands, y, n_folds=10, seed=3)
    assert sel.cv_risks[sel.name] == min(sel.cv_risks.values())


def test_super_learner_deterministic_and_tie_break():
    rng = np.random.default_rng(11)
    n = 120
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    y = (rng.random(n) < expit(X[:, 1])).astype(float)
    cands = [("a", X), ("b", X.copy())]  # identical designs: tie -> earliest
    s1 = fit_discrete_super_learner(cands, y, n_folds=4, seed=5)
    s2 = fit_discrete_super_learner(cands, y, n_folds=4, seed=5)
    assert s1.name == s2.name == "a"
    assert s1.cv_risks == s2.cv_risks


def test_super_learner_signal_detected():
    # data generated from a main-effects truth: the informative member wins
    rng = np.random.default_rng(12)
    n = 400
    x = rng.standard_normal(n)
    y = (rng.random(n) < expit(1.5 * x)).astype(float)
    cands = [
        ("main", np.column_stack([np.ones(n), x])),
        ("intercept", np.ones((n, 1))),
    ]
    sel = fit_discrete_super_learner(cands, y, n_folds=10, seed=1)
    assert sel.name == "main"


def test_super_learner_rejects_degenerate_inputs():
    with pytest.raises(FitError):
        fit_discrete_super_learner([], np.array([0.0, 1.0]))
    with pytest.raises(FitError):
        fit_discrete_super_learner([("x", np.ones((3, 1)))], np.array([0.0, 1.0, 1.0]),
                                   n_folds=5)
