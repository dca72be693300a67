"""Command-line interface.

Subcommands:
  simulate    scenario -> panel CSV
  oracle      scenario + arm policy -> ground-truth risk JSON
  estimate    panel CSV + policies -> targeted estimates JSON
  replicate   scenario + policies -> replication summary table (CSV/JSON)
  trajectory  panel (or scenario) -> per-arm drop-in fractions CSV
  ingest      long event CSV + visit grid -> panel CSV

Exit codes: 0 success, 1 usage error, 2 data/estimation error.
Worker count for `replicate` comes from the LTMLE_THREADS variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .engine import EstimationError, contrast, fit_g, fit_top_step, tmle_arm
from .features import FEATURE_NAMES
from .harness import POLICY_NAMES, _write_json, emit_report, run_replications
from .interventions import ArmPolicy, arm_pair, fit_stochastic_gstar, standard_policies
from .learners import FitError
from .panel import (
    DataError,
    ingest_long_events,
    read_event_csv,
    read_panel_csv,
    write_panel_csv,
)
from .sim import (
    ScenarioConfig,
    drop_in_trajectory,
    fit_reference_gstar,
    resolve_scenario,
    scenario_presets,
    simulate_counterfactual_mean,
    simulate_trial,
)


class UsageError(ValueError):
    pass


def _load_scenario(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            payload = json.load(fh)
        known = {f.name for f in dataclasses.fields(ScenarioConfig)}
        unknown = set(payload) - known
        if unknown:
            raise DataError(f"unknown scenario fields: {sorted(unknown)}")
        return ScenarioConfig(**payload)
    if getattr(args, "scenario", None):
        try:
            return resolve_scenario(args.scenario)
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("either --scenario or --config is required")


def _parse_arm_policy(text: str):
    """Arm-policy strings: '<form>_a<arm>' with form in static_z0/static_z1
    (also written static_a0_z0 style), dynamic, stochastic, ignore."""
    toks = text.lower().split("_")
    arm = None
    zform = []
    for t in toks:
        if t in ("a0", "a1"):
            arm = int(t[1])
        else:
            zform.append(t)
    zname = "_".join(zform)
    aliases = {"static_z0": "static0", "static_z1": "static1", "z0": "static0",
               "z1": "static1", "static0": "static0", "static1": "static1",
               "dynamic": "dynamic", "stochastic": "stochastic",
               "ignore": "ignore", "observational": "ignore"}
    if arm is None or zname not in aliases:
        raise UsageError(
            f"cannot parse policy '{text}'; expected e.g. static_a0_z0, "
            f"dynamic_a1, stochastic_a0, ignore_a1")
    return arm, aliases[zname]


def _parse_policies(text: str) -> list[str]:
    names = [p.strip() for p in text.split(",") if p.strip()]
    bad = [p for p in names if p not in POLICY_NAMES]
    if bad:
        raise UsageError(f"unknown policies {bad}; choose from {list(POLICY_NAMES)}")
    return names


def _learner_from_args(args) -> str | list[str]:
    """A feature-map name, or a list of them for the discrete super learner."""
    text = getattr(args, "learner", None) or "running_avg"
    names = [t.strip() for t in text.split(",") if t.strip()]
    bad = [nm for nm in names if nm not in FEATURE_NAMES]
    if bad or not names:
        raise UsageError(f"unknown learners {bad}; choose from {list(FEATURE_NAMES)}")
    return names if len(names) > 1 else names[0]


def _check_horizon(horizon, K, source) -> None:
    if not 1 <= horizon <= K:
        raise UsageError(f"--horizon {horizon} is outside 1..K; the {source} has K = {K}")


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    panel = simulate_trial(cfg, args.n, args.seed)
    write_panel_csv(panel, args.out)
    print(f"wrote panel ({panel.n} subjects, {panel.K} visits) to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_scenario(args)
    arm, zname = _parse_arm_policy(args.policy)
    _check_horizon(args.horizon, cfg.n_visits, "scenario")
    gstar = (fit_reference_gstar(cfg, n_fit=args.nfit, seed=args.seed + 900_001)
             if zname == "stochastic" else None)
    spec = standard_policies(gstar)[zname]
    policy = ArmPolicy(a_value=arm, z_spec=spec, name=args.policy)
    res = simulate_counterfactual_mean(cfg, policy, args.horizon, args.nmc, args.seed)
    payload = {"arm": arm, "policy": zname, "horizon": res.horizon,
               "n_mc": res.n_mc, "risk": res.risk, "mc_se": res.mc_se}
    if args.out:
        emit_report(payload, args.out)
        print(f"wrote oracle result to {args.out}")
    else:
        _write_json(payload, sys.stdout)
    return 0


def cmd_estimate(args) -> int:
    if args.request:
        with open(args.request) as fh:
            req = json.load(fh)
        args.panel = req.get("panel_path", args.panel)
        args.policies = ",".join(req.get("policies", _parse_policies(args.policies)))
        args.horizon = req.get("horizon", args.horizon)
        args.g_floor = req.get("g_floor", args.g_floor)
        args.weight_cap = req.get("weight_cap", args.weight_cap)
        args.seed = req.get("seed", args.seed)
        if "learner" in req:
            args.learner = req["learner"]
    if not args.panel:
        raise UsageError("--panel (or --request with panel_path) is required")
    panel = read_panel_csv(args.panel)
    policies = _parse_policies(args.policies)
    learner = _learner_from_args(args)
    horizon = panel.K if args.horizon is None else args.horizon
    _check_horizon(horizon, panel.K, "panel")
    gfit = fit_g(panel, learner, g_floor=args.g_floor, seed=args.seed,
                 n_folds=args.folds)
    gstar = fit_stochastic_gstar(panel, upto=horizon) if "stochastic" in policies else None
    specs = standard_policies(gstar)
    top = fit_top_step(panel, learner, horizon, seed=args.seed, n_folds=args.folds)
    out = {"panel": args.panel, "horizon": horizon, "n": panel.n, "policies": {}}
    for name in policies:
        p1, p0 = arm_pair(specs[name], name)
        e1, e0 = (tmle_arm(panel, gfit, p, learner, horizon, weight_cap=args.weight_cap,
                           seed=args.seed, n_folds=args.folds, top=top) for p in (p1, p0))
        rep = contrast(e1, e0, name)
        out["policies"][name] = rep.to_dict()
    if args.out:
        emit_report(out, args.out)
        print(f"wrote estimates to {args.out}")
    else:
        _write_json(out, sys.stdout)
    return 0


def cmd_replicate(args) -> int:
    cfg = _load_scenario(args)
    policies = _parse_policies(args.policies)
    if args.horizon is not None:
        _check_horizon(args.horizon, cfg.n_visits, "scenario")
    table = run_replications(
        args.scenario if args.scenario else cfg, policies=policies, n=args.n,
        reps=args.reps, horizon=args.horizon, seed=args.seed, n_mc=args.nmc,
        g_floor=args.g_floor, weight_cap=args.weight_cap,
        q_learner=_learner_from_args(args), workers=args.workers,
    )
    emit_report(table, args.out, fmt=args.format)
    print(f"wrote replication table to {args.out}")
    return 0


def cmd_trajectory(args) -> int:
    if args.panel:
        panel = read_panel_csv(args.panel)
    else:
        cfg = _load_scenario(args)
        panel = simulate_trial(cfg, args.n, args.seed)
    emit_report(drop_in_trajectory(panel), args.out)
    print(f"wrote drop-in trajectory to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    records = read_event_csv(args.events)
    if args.grid:
        grid = [float(t) for t in args.grid.split(",")]
    else:
        grid = [args.spacing * k for k in range(args.visits + 1)]
    panel = ingest_long_events(records, grid)
    write_panel_csv(panel, args.out)
    print(f"wrote panel ({panel.n} subjects, {panel.K} visits) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dropintmle",
        description="Targeted estimation of trial effects under balanced "
                    "concomitant-medication interventions.")
    sub = ap.add_subparsers(dest="command")

    def add_scenario_opts(p):
        p.add_argument("--scenario", help=f"preset name: {sorted(scenario_presets())}")
        p.add_argument("--config", help="scenario JSON file")

    p = sub.add_parser("simulate", help="simulate an observed-data panel")
    add_scenario_opts(p)
    p.add_argument("--n", type=int, default=9340)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="ground-truth risk for one hypothetical arm")
    add_scenario_opts(p)
    p.add_argument("--policy", required=True,
                   help="arm policy, e.g. static_a0_z0 or dynamic_a1")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--nmc", type=int, default=1_000_000)
    p.add_argument("--nfit", type=int, default=1_000_000,
                   help="panel size for fitting the stochastic reference law")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("estimate", help="estimate policies on a panel CSV")
    p.add_argument("--panel")
    p.add_argument("--request", help="estimation request JSON")
    p.add_argument("--policies", default=",".join(POLICY_NAMES))
    p.add_argument("--horizon", type=int)
    p.add_argument("--g-floor", dest="g_floor", type=float, default=1e-3)
    p.add_argument("--weight-cap", dest="weight_cap", type=float)
    p.add_argument("--learner", help="feature map, or comma list for the "
                                     "discrete super learner")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("replicate", help="replication study for a scenario")
    add_scenario_opts(p)
    p.add_argument("--policies", default=",".join(POLICY_NAMES))
    p.add_argument("--n", type=int, default=9340)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nmc", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--g-floor", dest="g_floor", type=float, default=1e-3)
    p.add_argument("--weight-cap", dest="weight_cap", type=float)
    p.add_argument("--learner")
    p.add_argument("--workers", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)

    p = sub.add_parser("trajectory", help="per-arm drop-in fractions by visit")
    add_scenario_opts(p)
    p.add_argument("--panel")
    p.add_argument("--n", type=int, default=9340)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", help="discretize long event records onto a grid")
    p.add_argument("--events", required=True)
    p.add_argument("--grid", help="comma-separated visit times, e.g. 0,3,6,9")
    p.add_argument("--visits", type=int, default=5)
    p.add_argument("--spacing", type=float, default=6.0)
    p.add_argument("--out", required=True)
    return ap


COMMANDS = {
    "simulate": cmd_simulate,
    "oracle": cmd_oracle,
    "estimate": cmd_estimate,
    "replicate": cmd_replicate,
    "trajectory": cmd_trajectory,
    "ingest": cmd_ingest,
}


def cli_main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if not args.command:
        ap.print_usage()
        return 1
    try:
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, EstimationError, FitError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
