"""Acceptance suite: the study-level criteria at their stated tolerances.

Each criterion prints one PASS/FAIL line (visible with -s or on failure).
Replication fixtures are heavy (hundreds of full estimation runs at the trial
scale) and shared across criteria; the suite is deterministic for the pinned
seed, including under multiprocessing.
"""

import json
import time

import numpy as np
import pytest

from dropintmle.cli import cli_main
from dropintmle.engine import fit_g, gcomp_arm, tmle_arm
from dropintmle.harness import compute_truths, run_replications
from dropintmle.interventions import ArmPolicy, static_z
from dropintmle.sim import drop_in_trajectory, scenario_presets, simulate_trial

from toy_panel import build_toy_panel
from test_engine import SAT, enumerate_truth

pytestmark = pytest.mark.acceptance

SEED = 20_240_817
N_TRIAL = 9340
REPS = 500
HORIZON = 5
N_MC = 1_000_000
SC1_POLICIES = ("static0", "static1", "dynamic", "stochastic", "ignore")
SC23_POLICIES = ("static0", "static1", "dynamic", "stochastic")


def record(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def sc1_table():
    t0 = time.time()
    table = run_replications("scenario1", policies=SC1_POLICIES, n=N_TRIAL,
                             reps=REPS, horizon=HORIZON, seed=SEED, n_mc=N_MC)
    table.elapsed = time.time() - t0
    return table


@pytest.fixture(scope="session")
def sc2_table():
    return run_replications("scenario2", policies=SC23_POLICIES, n=N_TRIAL,
                            reps=REPS, horizon=HORIZON, seed=SEED, n_mc=N_MC)


@pytest.fixture(scope="session")
def sc3_table():
    return run_replications("scenario3", policies=SC23_POLICIES, n=N_TRIAL,
                            reps=REPS, horizon=HORIZON, seed=SEED, n_mc=N_MC)


@pytest.fixture(scope="session")
def dr_table():
    # double-robustness experiment: misspecified outcome regressions
    # (intercept-only) with correctly specified treatment mechanisms
    return run_replications("scenario1", policies=("static0",), n=2000,
                            reps=200, horizon=HORIZON, seed=SEED + 1,
                            n_mc=400_000,
                            q_learner="intercept",
                            include_gcomp=True)


def test_criterion_1_baseline_risk(tmp_path):
    out = tmp_path / "oracle.json"
    t0 = time.time()
    code = cli_main(["oracle", "--scenario", "scenario1", "--policy",
                     "static_a0_z0", "--horizon", "5", "--nmc", str(N_MC),
                     "--seed", str(SEED), "--out", str(out)])
    elapsed = time.time() - t0
    payload = json.loads(out.read_text())
    ok = (code == 0 and abs(payload["risk"] - 0.114) <= 0.002 and elapsed < 30.0)
    record("1 baseline-risk", ok,
           f"risk={payload['risk']:.4f} (target 0.114 +- 0.002), {elapsed:.1f}s")


def test_criterion_2_unbiasedness(sc1_table):
    lines = []
    ok = True
    for pol in SC1_POLICIES:
        pr = sc1_table.policies[pol]
        bias = pr.estimates.mean() - pr.truth
        tol = 3.0 * pr.estimates.std(ddof=1) / np.sqrt(pr.n_ok)
        good = abs(bias) <= tol
        ok &= good
        lines.append(f"{pol}: bias={bias:+.5f} tol={tol:.5f}")
    ok &= sc1_table.elapsed < 1200.0
    record("2 unbiasedness", ok,
           "; ".join(lines) + f"; elapsed={sc1_table.elapsed:.0f}s")


def test_criterion_3_coverage(sc1_table, sc2_table, sc3_table):
    lines = []
    ok = True
    for label, table in (("sc1", sc1_table), ("sc2", sc2_table), ("sc3", sc3_table)):
        for pol in ("dynamic", "stochastic"):
            cov = table.policies[pol].covers.mean()
            good = 0.925 <= cov <= 0.975
            ok &= good
            lines.append(f"{label}/{pol}={cov:.3f}")
    record("3 coverage", ok, "; ".join(lines))


def test_criterion_4_support_ordering(sc1_table, sc2_table, sc3_table):
    n1 = {p: sc1_table.policies[p].row("sc1")["norm_ci_len"] for p in ("static0", "static1")}
    n2 = {p: sc2_table.policies[p].row("sc2")["norm_ci_len"] for p in ("static0", "static1")}
    ok = n2["static0"] > n2["static1"] and n1["static0"] < n1["static1"]
    lines = [f"sc1 norm-len z0={n1['static0']:.2f} < z1={n1['static1']:.2f}",
             f"sc2 norm-len z0={n2['static0']:.2f} > z1={n2['static1']:.2f}"]
    balancing = ("static0", "static1", "dynamic", "stochastic")
    for label, table in (("sc1", sc1_table), ("sc2", sc2_table), ("sc3", sc3_table)):
        med = {p: float(np.median(table.policies[p].max_weights[:100]))
               for p in balancing}
        smallest = min(med, key=med.get)
        ok &= smallest == "stochastic"
        lines.append(f"{label} med-max-weight: " +
                     " ".join(f"{p}={med[p]:.1f}" for p in balancing))
    record("4 support-ordering", ok, "; ".join(lines))


def test_criterion_5_truth_invariance(sc1_table, sc2_table):
    # the scenario-2 table omits 'ignore'; compute its truth separately at
    # the same seed so the streams pair across scenarios
    extra = compute_truths(scenario_presets()["scenario2"], ("ignore",),
                           HORIZON, N_MC, SEED)
    lines = []
    ok = True
    for pol in SC1_POLICIES:
        p1 = sc1_table.policies[pol]
        if pol in sc2_table.policies:
            t2, se2 = sc2_table.policies[pol].truth, sc2_table.policies[pol].truth_mc_se
        else:
            t2, se2 = extra[pol][0], extra[pol][1]
        diff = p1.truth - t2
        tol = 3.0 * float(np.hypot(p1.truth_mc_se, se2))
        good = abs(diff) <= tol
        ok &= good
        lines.append(f"{pol}: |dt|={abs(diff):.5f} tol={tol:.5f}"
                     + ("" if good else " <-"))
    record("5 truth-invariance", ok, "; ".join(lines))


def test_criterion_6_efficacy_spread(sc1_table, sc3_table):
    s1 = abs(sc1_table.policies["static0"].truth - sc1_table.policies["static1"].truth)
    s3 = abs(sc3_table.policies["static0"].truth - sc3_table.policies["static1"].truth)
    ok = s3 < 0.4 * s1
    record("6 efficacy-spread", ok, f"sc3 spread={s3:.5f} vs 0.4*sc1={0.4 * s1:.5f}")


def test_criterion_7_enumeration_equivalence(toy_panel):
    t0 = time.time()
    gfit = fit_g(toy_panel, learner=SAT, g_floor=0.0, randomized=False)
    worst = 0.0
    for z_rule, spec in (("z0", static_z(0)), ("z1", static_z(1))):
        for a_val in (0, 1):
            truth = enumerate_truth(toy_panel, a_val, z_rule)
            pol = ArmPolicy(a_value=a_val, z_spec=spec)
            tm = tmle_arm(toy_panel, gfit, pol, learner=SAT)
            gc = gcomp_arm(toy_panel, gfit, pol, learner=SAT)
            worst = max(worst, abs(tm.psi - truth), abs(gc.psi - truth))
    elapsed = time.time() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    record("7 enumeration-oracle", ok, f"max|diff|={worst:.2e}, {elapsed:.2f}s")


def test_criterion_8_eic_solved(sc1_table, sc2_table, sc3_table, dr_table, toy_panel):
    worst = 0.0
    for table in (sc1_table, sc2_table, sc3_table, dr_table):
        for pr in table.policies.values():
            if pr.mean_eics.size:
                worst = max(worst, float(np.max(np.abs(pr.mean_eics))))
    gfit = fit_g(toy_panel, learner=SAT, g_floor=0.0, randomized=False)
    est = tmle_arm(toy_panel, gfit, ArmPolicy(a_value=1, z_spec=static_z(0)),
                   learner=SAT)
    worst = max(worst, abs(est.mean_eic))
    ok = worst <= 1e-8
    record("8 eic-solved", ok, f"max|mean EIC|={worst:.2e}")


def test_criterion_9_double_robustness(dr_table):
    pr = dr_table.policies["static0"]
    tm_bias = pr.estimates.mean() - pr.truth
    tm_mcse = pr.estimates.std(ddof=1) / np.sqrt(pr.n_ok)
    gc = pr.gcomp_estimates
    gc_bias = gc.mean() - pr.truth
    gc_mcse = gc.std(ddof=1) / np.sqrt(gc.size)
    ok = abs(tm_bias) <= 3 * tm_mcse and abs(gc_bias) > 3 * gc_mcse
    record("9 double-robustness", ok,
           f"tmle bias={tm_bias:+.5f} (3mcse={3 * tm_mcse:.5f}); "
           f"gcomp bias={gc_bias:+.5f} (3mcse={3 * gc_mcse:.5f})")


def test_estimand_ordering_on_scenario1_truths(sc1_table):
    # the never-initiate estimand has the largest magnitude and the
    # always-treat estimand the smallest; the rest lie between (oracle
    # values, not estimates)
    t = {p: abs(sc1_table.policies[p].truth) for p in SC1_POLICIES}
    ok = all(t["static0"] >= t[p] >= t["static1"]
             for p in ("dynamic", "stochastic", "ignore"))
    record("estimand-ordering", ok,
           " ".join(f"{p}={t[p]:.4f}" for p in SC1_POLICIES))


def test_criterion_10_dropin_trajectories():
    panel = simulate_trial(scenario_presets()["scenario1"], N_TRIAL, SEED)
    tr = drop_in_trajectory(panel)
    diffs = tr["arm0"][2:] - tr["arm1"][2:]
    ok = bool(np.all(diffs > 0))
    record("10 drop-in-trajectories", ok,
           "placebo-minus-treatment fractions k>=2: "
           + " ".join(f"{d:+.3f}" for d in diffs))


def test_leader_shaped_pipeline():
    # ingest -> estimate property run on a panel with the trial's shape:
    # 9,340 subjects, 8 visits, three time-varying covariates
    rng = np.random.default_rng(7)
    n, K, d = 9340, 8, 3
    from dropintmle.panel import EventRecord, ingest_long_events, at_risk_mask
    from dropintmle.panel import validate_panel

    grid = [6.0 * k for k in range(K + 1)]
    records = []
    for i in range(n):
        base = rng.standard_normal(d)
        u = rng.random()
        if u < 0.2:
            t, delta = rng.uniform(0, 48), 1
        elif u < 0.25:
            t, delta = rng.uniform(0, 48), 2
        elif u < 0.4:
            t, delta = rng.uniform(0, 48), 0
        else:
            t, delta = 999.0, 1
        expos = [(rng.uniform(0, 40), rng.uniform(40, 60))] if rng.random() < 0.4 else []
        covs = [(6.0 * j + rng.uniform(-1, 1), base + rng.standard_normal(d) * 0.3)
                for j in range(0, K, 2)]
        records.append(EventRecord(
            subject_id=f"s{i}", t_tilde=t, delta_tilde=delta, L0=base,
            Z0=int(rng.random() < 0.3), A0=int(rng.random() < 0.5),
            exposure_intervals=expos, covariate_measurements=covs))
    panel = ingest_long_events(records, grid)
    assert panel.n == n and panel.K == K and panel.d_time == d
    assert validate_panel(panel).ok
    assert at_risk_mask(panel, K).sum() > 1000
    gfit = fit_g(panel, "main")
    from dropintmle.engine import contrast
    from dropintmle.interventions import arm_pair, dynamic_z

    p1, p0 = arm_pair(dynamic_z(), "dynamic")
    learner = "main"
    rep = contrast(tmle_arm(panel, gfit, p1, learner),
                   tmle_arm(panel, gfit, p0, learner), "dynamic")
    assert rep.se is not None and rep.se > 0
    assert abs(rep.diagnostics["arm1"]["mean_eic"]) <= 1e-8
    record("leader-shaped pipeline", True,
           f"n={panel.n} K={panel.K} d'={panel.d_time} psi={rep.psi:+.4f}")
