"""Correctness checks run on every benchmark run.

Each check compares the program's output with a separate computation or a
property of the method, never with a stored copy of earlier output, and
returns ``(name, ok, detail)``.  The bounds and their reasons are in
README.md, "Correctness checks".
"""

from __future__ import annotations

import math

import numpy as np

from .inputs import expected_columns, read_csv_columns

EIC_TOL = 1e-6        # the engine warns above this mean influence curve
CSV_RTOL = 1e-9       # covariates are written with 10 significant digits
Z_MAX = 4.5           # two-sided normal tail 6.8e-6 per policy
MEAN_ALPHA = 1e-5     # two-sided level of the replication-mean bound


def no_failed_replications(tables):
    failed = {p: sum(t.policies[p].failures for t in tables) for p in tables[0].policies}
    bad = {p: f for p, f in failed.items() if f}
    return "no_failed_replications", not bad, f"failures {bad}" if bad else "0 failures"


def replication_eics_solved(tables):
    worst = max(float(np.max(t.policies[p].mean_eics, initial=0.0))
                for t in tables for p in t.policies)
    return "eic_solved", worst <= EIC_TOL, f"max |mean EIC| {worst:.3g} (bound {EIC_TOL:g})"


def replication_mean_near_truth(tables, truths):
    """Mean estimate over the replications within a Student-t bound of the
    oracle truth, from the replications' spread and the truth's MC error."""
    from scipy.stats import t as student_t

    worst, ok = 0.0, True
    for p in tables[0].policies:
        est = np.concatenate([t.policies[p].estimates for t in tables])
        r = est.size
        if r < 2:
            return "mean_near_truth", False, f"{p}: {r} estimate(s), need 2"
        q = float(student_t.ppf(1.0 - MEAN_ALPHA / 2.0, r - 1))
        truth, mc_se = truths[p][0], truths[p][1]
        scale = math.sqrt(float(np.var(est, ddof=1)) / r + mc_se ** 2)
        ratio = abs(float(np.mean(est)) - truth) / (q * scale)
        worst = max(worst, ratio)
        ok &= ratio <= 1.0
    return "mean_near_truth", ok, f"worst |mean - truth| at {worst:.3f} of its bound"


def oracle_symmetry(truths):
    """A and Z enter the scenario symmetrically (p_z = p_zy = 1) and the paired
    oracle reuses its draws, so static0's active arm equals static1's control."""
    a, b = truths["static0"][2], truths["static1"][3]
    return "oracle_symmetry", a == b, f"static0 risk1 {a!r} vs static1 risk0 {b!r}"


def panel_csv_matches(path, panel):
    """The CSV at ``path`` holds ``panel`` in the documented wide layout:
    integers exactly, covariates to the written significant digits."""
    got = read_csv_columns(path)
    want = expected_columns(panel)
    if list(got) != list(want):
        return "panel_csv_matches", False, f"header {list(got)[:6]}... differs"
    for name, (values, exact) in want.items():
        values = np.asarray(values, dtype=float)
        if exact:
            bad = got[name] != values
        else:
            bad = ~(np.abs(got[name] - values) <= CSV_RTOL * np.abs(values))
        if bad.any():
            i = int(np.argmax(bad))
            return ("panel_csv_matches", False,
                    f"{name} row {i}: {got[name][i]!r} vs {values[i]!r}")
    return "panel_csv_matches", True, f"{panel.n} rows x {len(want)} columns"


def estimates_targeted(report):
    """Every arm's fluctuation converged and its influence curve has mean ~0."""
    bad = []
    for p, rep in report["policies"].items():
        for arm in ("arm1", "arm0"):
            diag = rep["diagnostics"][arm]
            if not diag["fluct_converged"] or not abs(diag["mean_eic"]) <= EIC_TOL:
                bad.append(f"{p}/{arm}")
    return "estimates_targeted", not bad, f"failing arms {bad}" if bad else "all arms"


def estimates_near_truth(report, truths):
    """Each policy's estimate within Z_MAX joint standard errors of the oracle truth."""
    worst, bad = 0.0, []
    for p, rep in report["policies"].items():
        truth, mc_se = truths[p][0], truths[p][1]
        z = abs(rep["psi"] - truth) / math.sqrt(rep["se"] ** 2 + mc_se ** 2)
        worst = max(worst, z)
        if not z <= Z_MAX:
            bad.append(p)
    return "estimates_near_truth", not bad, f"max |z| {worst:.2f} (bound {Z_MAX}) {bad}"
