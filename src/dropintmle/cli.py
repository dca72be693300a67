"""Command-line interface.

Subcommands:
  simulate    scenario -> panel CSV
  oracle      scenario + arm policy -> ground-truth risk JSON
  estimate    panel CSV + policies -> targeted estimates JSON
  replicate   scenario + policies -> replication summary table (CSV/JSON)
  trajectory  panel (or scenario) -> per-arm drop-in fractions CSV
  ingest      long event CSV + visit grid -> panel CSV

The CLI only parses: the library checks each setting before its first fit
and raises SettingError for a bad one.

Exit codes: 0 success, 1 usage error (a bad option or SettingError),
2 data/estimation error or a path that cannot be opened (any OSError: a
missing file, a directory, no permission).
Worker count for `replicate` comes from --workers or the LTMLE_THREADS variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .engine import EstimationError, check_options, contrast, fit_g, tmle_arm
from .features import check_learner
from .harness import emit_report, run_replications
from .interventions import (POLICY_NAMES, ArmPolicy, check_policy_names, fit_stochastic_gstar,
                            policy_arms, policy_pairs, policy_specs)
from .learners import FitError
from .panel import (
    DataError,
    SettingError,
    check_horizon,
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


#: the default size (the 9340 subjects of LEADER) and seed of a command that simulates
TRIAL_N, SEED = 9340, 1

#: the oracle's ``--policy`` spellings: each names one arm, as (policy, a)
ORACLE_ARMS = {**{f"static_a{a}_z{z}": (f"static{z}", a) for a in (0, 1) for z in (0, 1)},
               **{f"{name}_a{a}": (name, a) for name in ("dynamic", "stochastic", "ignore")
                  for a in (0, 1)}}


#: the keys of an ``estimate --request`` JSON object and the types of their values
REQUEST_TYPES = {"panel_path": str, "policies": (str, list), "learner": (str, list),
                 "horizon": int, "g_floor": (int, float), "weight_cap": (int, float, type(None)),
                 "seed": int}


def _load_scenario(args) -> ScenarioConfig:
    if args.config:
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
    return resolve_scenario(args.scenario)


def _names(given: str | list) -> list:
    """Names given as a comma string or (from a request JSON) a list."""
    return given if isinstance(given, list) else [t.strip() for t in given.split(",")
                                                  if t.strip()]


def _learner_from_args(args) -> str | list:
    """A feature-map name, or a list of them for the discrete super learner."""
    names = _names("running_avg" if args.learner is None else args.learner)
    return names[0] if len(names) == 1 else names


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
    horizon = cfg.n_visits if args.horizon is None else args.horizon
    check_horizon(horizon, cfg.n_visits, "scenario")
    specs = policy_specs([zname], lambda: fit_reference_gstar(cfg, args.nfit, args.seed))
    policy = ArmPolicy(a_value=arm, z_spec=specs[zname])
    res = simulate_counterfactual_mean(cfg, policy, horizon, args.nmc, args.seed)
    payload = {"arm": arm, "policy": zname, "horizon": res.horizon,
               "n_mc": res.n_mc, "risk": res.risk, "mc_se": res.mc_se}
    emit_report(payload, args.out)
    if args.out:
        print(f"wrote oracle result to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    if args.request:
        try:
            with open(args.request) as fh:
                req = json.load(fh)
        except ValueError as exc:  # JSONDecodeError is a ValueError
            raise SettingError(f"{args.request}: not JSON: {exc}") from None
        if not isinstance(req, dict):
            raise SettingError(f"{args.request}: a request is a JSON object")
        for key, value in req.items():
            if key not in REQUEST_TYPES:
                raise SettingError(f"unknown request key {key!r}; choose from {list(REQUEST_TYPES)}")
            if isinstance(value, bool) or not isinstance(value, REQUEST_TYPES[key]):
                raise SettingError(f"request key {key!r} cannot take the value {json.dumps(value)}")
            setattr(args, "panel" if key == "panel_path" else key, value)
    if not args.panel:
        raise SettingError("--panel (or --request with panel_path) is required")
    policies = check_policy_names(_names(args.policies))
    learner = _learner_from_args(args)
    check_learner(learner)        # the settings first: reading the panel takes time
    check_options(args.g_floor, args.weight_cap)
    panel = read_panel_csv(args.panel)
    horizon = panel.K if args.horizon is None else args.horizon
    check_horizon(horizon, panel.K, "panel")
    gfit = fit_g(panel, learner, g_floor=args.g_floor, seed=args.seed,
                 n_folds=args.folds)
    specs = policy_specs(policies, lambda: fit_stochastic_gstar(panel, upto=horizon))
    pairs = policy_pairs(specs, tmle_arm(gfit, policy_arms(specs), learner, horizon,
                                         seed=args.seed, n_folds=args.folds,
                                         weight_cap=args.weight_cap))
    out = {"panel": args.panel, "horizon": horizon, "n": panel.n, "policies": {}}
    for name in policies:
        out["policies"][name] = dataclasses.asdict(contrast(*pairs[name], name))
    emit_report(out, args.out)
    if args.out:
        print(f"wrote estimates to {args.out}")
    return 0


def cmd_replicate(args) -> int:
    table = run_replications(
        args.scenario or _load_scenario(args), policies=_names(args.policies), n=args.n,
        reps=args.reps, horizon=args.horizon, seed=args.seed, n_mc=args.nmc,
        g_floor=args.g_floor, weight_cap=args.weight_cap,
        q_learner=_learner_from_args(args), workers=args.workers,
    )
    emit_report(table, args.out, fmt=args.format)
    print(f"wrote replication table to {args.out}")
    return 0


def cmd_trajectory(args) -> int:
    if args.panel:
        given = [opt for opt, value in (("--n", args.n), ("--seed", args.seed))
                 if value is not None]
        if given:
            raise SettingError(f"{' and '.join(given)}: only for a simulated panel, "
                               "not with --panel")
        panel = read_panel_csv(args.panel)
    else:
        panel = simulate_trial(_load_scenario(args), TRIAL_N if args.n is None else args.n,
                               SEED if args.seed is None else args.seed)
    emit_report(drop_in_trajectory(panel), args.out)
    print(f"wrote drop-in trajectory to {args.out}")
    return 0


def cmd_ingest(args) -> int:
    try:  # checked before the events are read: a --grid is checked by argparse
        grid = args.grid or check_visit_grid([args.spacing * k for k in range(args.visits + 1)])
    except DataError as exc:  # the spaced grid overflows
        raise SettingError(f"--visits {args.visits} --spacing {args.spacing}: {exc}") from None
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
        """The one required source of the scenario (or, with --panel, its data)."""
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--scenario", help=f"preset name: {sorted(scenario_presets())}")
        group.add_argument("--config", help="scenario JSON file")
        return group

    def add_estimation_opts(p):
        p.add_argument("--policies", default=",".join(POLICY_NAMES))
        p.add_argument("--horizon", type=int)
        p.add_argument("--g-floor", dest="g_floor", type=float, default=1e-3)
        p.add_argument("--weight-cap", dest="weight_cap", type=float)
        p.add_argument("--learner", help="feature map, or comma list for the "
                                         "discrete super learner")
        p.add_argument("--seed", type=int, default=SEED)

    p = sub.add_parser("simulate", help="simulate an observed-data panel")
    add_scenario_opts(p)
    p.add_argument("--n", type=_at_least(1), default=TRIAL_N)
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--out", required=True)

    p = sub.add_parser("oracle", help="ground-truth risk for one hypothetical arm")
    add_scenario_opts(p)
    p.add_argument("--policy", required=True, choices=ORACLE_ARMS, metavar="POLICY",
                   help=f"one arm: {', '.join(ORACLE_ARMS)}")
    p.add_argument("--horizon", type=int, help="visit of the risk (default: the scenario's K)")
    p.add_argument("--nmc", type=_at_least(1), default=1_000_000)
    p.add_argument("--nfit", type=_at_least(1), default=1_000_000,
                   help="panel size for fitting the stochastic reference law")
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--out")

    p = sub.add_parser("estimate", help="estimate policies on a panel CSV")
    p.add_argument("--panel")
    p.add_argument("--request", help="estimation request JSON")
    add_estimation_opts(p)
    p.add_argument("--folds", type=_at_least(2), default=10)
    p.add_argument("--out")

    p = sub.add_parser("replicate", help="replication study for a scenario")
    add_scenario_opts(p)
    add_estimation_opts(p)
    p.add_argument("--n", type=_at_least(1), default=TRIAL_N)
    p.add_argument("--reps", type=_at_least(1), default=500)
    p.add_argument("--nmc", type=_at_least(2), default=1_000_000)
    p.add_argument("--workers", type=_at_least(1))
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", required=True)

    p = sub.add_parser("trajectory", help="per-arm drop-in fractions by visit")
    add_scenario_opts(p).add_argument("--panel")
    p.add_argument("--n", type=_at_least(1),
                   help=f"subjects to simulate (default {TRIAL_N}; not with --panel)")
    p.add_argument("--seed", type=int, help=f"simulation seed (default {SEED}; not with --panel)")
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
    except SettingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, EstimationError, FitError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
