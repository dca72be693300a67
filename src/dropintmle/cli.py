"""Command-line interface.

Subcommands:
  simulate    scenario -> panel CSV
  oracle      scenario + arm policy -> ground-truth risk JSON
  estimate    panel CSV + policies -> targeted estimates JSON
  replicate   scenario + policies -> replication summary table (CSV/JSON)
  trajectory  panel (or scenario) -> per-arm drop-in fractions CSV
  ingest      long event CSV + visit grid -> panel CSV

Exit codes: 0 success, 1 usage error, 2 data/estimation error.
Worker count for `replicate` comes from --workers or the LTMLE_THREADS variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .engine import (EstimationError, arm_estimate, check_options, contrast, fit_g,
                     fit_top_step, tmle_arm)
from .features import FEATURE_NAMES
from .harness import _write_json, emit_report, n_workers, run_replications
from .interventions import (POLICY_NAMES, ArmPolicy, check_policy_names, fit_stochastic_gstar,
                            policy_arms, policy_specs)
from .learners import FitError
from .panel import (
    DataError,
    check_visit_grid,
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


#: the oracle's ``--policy`` spellings: each names one arm, as (policy, a)
ORACLE_ARMS = {**{f"static_a{a}_z{z}": (f"static{z}", a) for a in (0, 1) for z in (0, 1)},
               **{f"{name}_a{a}": (name, a) for name in ("dynamic", "stochastic", "ignore")
                  for a in (0, 1)}}


#: the keys of an ``estimate --request`` JSON object and the types of their values
REQUEST_TYPES = {"panel_path": str, "policies": (str, list), "learner": (str, list),
                 "horizon": int, "g_floor": (int, float), "weight_cap": (int, float, type(None)),
                 "seed": int}


def _load_scenario(args) -> ScenarioConfig:
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict):
                raise ValueError("a scenario is a JSON object")
            known = {f.name for f in dataclasses.fields(ScenarioConfig)}
            unknown = set(payload) - known
            if unknown:
                raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
            return ScenarioConfig(**payload)
        except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise DataError(f"{args.config}: {exc}") from None
    if getattr(args, "scenario", None):
        try:
            return resolve_scenario(args.scenario)
        except KeyError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError("either --scenario or --config is required")


def _parse_policies(given: str | list) -> list[str]:
    """Policy names, given as a comma string or (from a request JSON) a list."""
    names = (given if isinstance(given, list)
             else [p.strip() for p in given.split(",") if p.strip()])
    try:
        return check_policy_names(names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _learner_from_args(args) -> str | list[str]:
    """A feature-map name, or a list of them for the discrete super learner,
    given as a comma string or (from a request JSON) a list."""
    given = getattr(args, "learner", None)
    given = "running_avg" if given is None else given
    names = (given if isinstance(given, list)
             else [t.strip() for t in str(given).split(",") if t.strip()])
    bad = [nm for nm in names if nm not in FEATURE_NAMES]
    if bad or not names:
        problem = f"unknown learners {bad}" if bad else "no learner given"
        raise UsageError(f"{problem}; choose from {list(FEATURE_NAMES)}")
    return names if len(names) > 1 else names[0]


def _check_horizon(horizon, K, source) -> None:
    if not 1 <= horizon <= K:
        raise UsageError(f"--horizon {horizon} is outside 1..K; the {source} has K = {K}")


def _check_options(args) -> None:
    """Refuse a bad g floor or weight cap (see ``check_options``)."""
    try:
        check_options(args.g_floor, args.weight_cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _at_least(m: int):
    """An argparse type: an integer of at least ``m``."""
    def count(text: str) -> int:
        value = int(text)
        if value < m:
            raise argparse.ArgumentTypeError(f"{value} is below {m}")
        return value
    return count


def _above_zero(text: str) -> float:
    """An argparse type: a finite number above 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text} is not a finite number above 0")
    return value


def _visit_grid(text: str) -> list[float]:
    """An argparse type: comma-separated visit times that pass ``check_visit_grid``."""
    try:
        return check_visit_grid([float(t) for t in text.split(",")]).tolist()
    except ValueError as exc:      # DataError is a ValueError
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_simulate(args) -> int:
    cfg = _load_scenario(args)
    panel = simulate_trial(cfg, args.n, args.seed)
    write_panel_csv(panel, args.out)
    print(f"wrote panel ({panel.n} subjects, {panel.K} visits) to {args.out}")
    return 0


def cmd_oracle(args) -> int:
    cfg = _load_scenario(args)
    zname, arm = ORACLE_ARMS[args.policy]
    _check_horizon(args.horizon, cfg.n_visits, "scenario")
    specs = policy_specs([zname], lambda: fit_reference_gstar(cfg, args.nfit, args.seed))
    policy = ArmPolicy(a_value=arm, z_spec=specs[zname])
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
        try:
            with open(args.request) as fh:
                req = json.load(fh)
        except ValueError as exc:  # JSONDecodeError is a ValueError
            raise UsageError(f"{args.request}: not JSON: {exc}") from None
        if not isinstance(req, dict):
            raise UsageError(f"{args.request}: a request is a JSON object")
        for key, value in req.items():
            if key not in REQUEST_TYPES:
                raise UsageError(f"unknown request key {key!r}; choose from {list(REQUEST_TYPES)}")
            if isinstance(value, bool) or not isinstance(value, REQUEST_TYPES[key]):
                raise UsageError(f"request key {key!r} cannot take the value {json.dumps(value)}")
            setattr(args, "panel" if key == "panel_path" else key, value)
    if not args.panel:
        raise UsageError("--panel (or --request with panel_path) is required")
    policies = _parse_policies(args.policies)
    learner = _learner_from_args(args)
    _check_options(args)
    panel = read_panel_csv(args.panel)
    horizon = panel.K if args.horizon is None else args.horizon
    _check_horizon(horizon, panel.K, "panel")
    gfit = fit_g(panel, learner, g_floor=args.g_floor, seed=args.seed,
                 n_folds=args.folds)
    specs = policy_specs(policies, lambda: fit_stochastic_gstar(panel, upto=horizon))
    top = fit_top_step(panel, learner, horizon, seed=args.seed, n_folds=args.folds)
    results = iter(tmle_arm(gfit, policy_arms(specs), top, weight_cap=args.weight_cap))
    pairs = dict(zip(specs, zip(results, results)))
    out = {"panel": args.panel, "horizon": horizon, "n": panel.n, "policies": {}}
    for name in policies:
        e1, e0 = (arm_estimate(r) for r in pairs[name])
        out["policies"][name] = dataclasses.asdict(contrast(e1, e0, name))
    if args.out:
        emit_report(out, args.out)
        print(f"wrote estimates to {args.out}")
    else:
        _write_json(out, sys.stdout)
    return 0


def cmd_replicate(args) -> int:
    cfg = _load_scenario(args)
    policies = _parse_policies(args.policies)
    _check_options(args)
    if args.horizon is not None:
        _check_horizon(args.horizon, cfg.n_visits, "scenario")
    try:
        workers = n_workers() if args.workers is None else args.workers
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    table = run_replications(
        args.scenario if args.scenario else cfg, policies=policies, n=args.n,
        reps=args.reps, horizon=args.horizon, seed=args.seed, n_mc=args.nmc,
        g_floor=args.g_floor, weight_cap=args.weight_cap,
        q_learner=_learner_from_args(args), workers=workers,
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
    try:  # checked before the events are read: a --grid is checked by argparse
        grid = args.grid or check_visit_grid([args.spacing * k for k in range(args.visits + 1)])
    except DataError as exc:  # the spaced grid overflows
        raise UsageError(f"--visits {args.visits} --spacing {args.spacing}: {exc}") from None
    panel = ingest_long_events(read_event_csv(args.events), grid)
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
    p.add_argument("--n", type=_at_least(1), default=9340)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="ground-truth risk for one hypothetical arm")
    add_scenario_opts(p)
    p.add_argument("--policy", required=True, choices=ORACLE_ARMS, metavar="POLICY",
                   help=f"one arm: {', '.join(ORACLE_ARMS)}")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument("--nmc", type=_at_least(1), default=1_000_000)
    p.add_argument("--nfit", type=_at_least(1), default=1_000_000,
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
    p.add_argument("--folds", type=_at_least(2), default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out")

    p = sub.add_parser("replicate", help="replication study for a scenario")
    add_scenario_opts(p)
    p.add_argument("--policies", default=",".join(POLICY_NAMES))
    p.add_argument("--n", type=_at_least(1), default=9340)
    p.add_argument("--reps", type=_at_least(1), default=500)
    p.add_argument("--horizon", type=int)
    p.add_argument("--nmc", type=_at_least(2), default=1_000_000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--g-floor", dest="g_floor", type=float, default=1e-3)
    p.add_argument("--weight-cap", dest="weight_cap", type=float)
    p.add_argument("--learner")
    p.add_argument("--workers", type=_at_least(1))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)

    p = sub.add_parser("trajectory", help="per-arm drop-in fractions by visit")
    add_scenario_opts(p)
    p.add_argument("--panel")
    p.add_argument("--n", type=_at_least(1), default=9340)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("ingest", help="discretize long event records onto a grid")
    p.add_argument("--events", required=True)
    p.add_argument("--grid", type=_visit_grid, help="comma-separated visit times, e.g. 0,3,6,9")
    p.add_argument("--visits", type=_at_least(1), default=5)
    p.add_argument("--spacing", type=_above_zero, default=6.0)
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
