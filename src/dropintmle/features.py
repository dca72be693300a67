"""Design-matrix construction from panel histories.

Regressions in the sequential pass condition on the history through the
visit-(l-1) treatment pair; treatment mechanisms at visit k additionally see
the visit-k covariates.  Builders support substituting the most recent
treatment pair (scalar or per-subject vector), which re-propagates into the
running averages, so the interventional marginalization can request
counterfactual rows without touching the panel.

Feature families:
  intercept     constant column only
  main          baseline block + most recent covariates/treatments
  interactions  main effects plus all pairwise products
  running_avg   main block plus running averages of treatments/covariates
  saturated     one indicator per discrete history cell (binary panels only)

A learner of the estimation core is one of these names; a super-learner
library is a list of them.
"""

from __future__ import annotations

import numpy as np

from .panel import DataError, SettingError, TrialPanel

FEATURE_NAMES = ("intercept", "main", "interactions", "running_avg", "saturated")


def check_learner(learner) -> None:
    """Refuse a learner that is not a feature-map name or a non-empty list
    of them (a super-learner library)."""
    names = [learner] if isinstance(learner, str) else list(learner)
    bad = [nm for nm in names if nm not in FEATURE_NAMES]
    if bad or not names:
        problem = f"unknown learners {bad}" if bad else "no learner given"
        raise SettingError(f"{problem}; choose from {list(FEATURE_NAMES)}")


def _as_vec(value, n: int) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), (n,)).copy()


def _history_columns(panel, treat_upto, cov_upto, a_last, z_last):
    """Ordered history columns with the latest treatment pair ``a_last`` /
    ``z_last``, following the observed-variable ordering: baseline block
    first, then per-visit covariates and treatments."""
    cols = [panel.L0[:, j] for j in range(panel.d_baseline)]
    cols.append(z_last if treat_upto == 0 else panel.Z0.astype(float))
    cols.append(a_last if treat_upto == 0 else panel.A0.astype(float))
    for j in range(1, max(treat_upto, cov_upto) + 1):
        if j <= cov_upto:
            lj = panel.l_at(j)
            cols += [lj[:, c] for c in range(lj.shape[1])]
        if j <= treat_upto:
            cols.append(a_last if j == treat_upto else panel.a_at(j).astype(float))
            cols.append(z_last if j == treat_upto else panel.z_at(j).astype(float))
    return cols


def _running_means(panel, treat_upto, a_last, z_last):
    """Averages of A, Z and L over visits 0..treat_upto (treat_upto >= 1), with
    the visit-``treat_upto`` treatments taken from the supplied vectors."""
    a_sum = panel.A0.astype(float).copy()
    z_sum = panel.Z0.astype(float).copy()
    l_sum = panel.l_at(0).astype(float).copy()
    for j in range(1, treat_upto + 1):
        a_sum += panel.a_at(j) if j < treat_upto else a_last
        z_sum += panel.z_at(j) if j < treat_upto else z_last
        l_sum += panel.l_at(j)
    denom = float(treat_upto + 1)
    return a_sum / denom, z_sum / denom, l_sum / denom


def _running_avg_design(panel, treat_upto, cov_upto, a_last, z_last):
    """Compact summary sufficient for running-average dynamics after the
    first step (treat_upto >= 1): recent values plus running means."""
    n = panel.n
    abar, zbar, lbar = _running_means(panel, treat_upto, a_last, z_last)
    out = [np.ones(n), a_last, z_last, abar, zbar]
    lc = panel.l_at(cov_upto)
    out += [lc[:, j] for j in range(lc.shape[1])]
    out += [lbar[:, j] for j in range(lbar.shape[1])]
    if cov_upto > treat_upto:
        # mechanism design: the pre-treatment covariate block is informative
        lt = panel.l_at(treat_upto)
        out += [lt[:, j] for j in range(lt.shape[1])]
    return np.column_stack(out)


def history_design(
    panel: TrialPanel,
    features: str,
    treat_upto: int,
    cov_upto: int | None = None,
    sub_a=None,
    sub_z=None,
) -> np.ndarray:
    """Design matrix for a regression conditioning on history.

    ``treat_upto`` is the index of the latest visible treatment pair
    (A_j, Z_j); ``cov_upto`` the latest visible covariate block (defaults to
    ``treat_upto``; mechanisms for visit-k treatments pass cov_upto = k).
    ``sub_a``/``sub_z`` replace the visit-``treat_upto`` treatments before
    the matrix is formed.
    """
    check_learner(features)
    n = panel.n
    if cov_upto is None:
        cov_upto = treat_upto
    if features == "intercept":
        return np.ones((n, 1))

    a_last = _as_vec(sub_a, n) if sub_a is not None else panel.a_at(treat_upto).astype(float)
    z_last = _as_vec(sub_z, n) if sub_z is not None else panel.z_at(treat_upto).astype(float)
    if features == "running_avg" and treat_upto >= 1:
        return _running_avg_design(panel, treat_upto, cov_upto, a_last, z_last)

    # running_avg at the first step is ``main``: nothing is averaged yet
    cols = _history_columns(panel, treat_upto, cov_upto, a_last, z_last)
    if features == "saturated":
        vals = np.column_stack(cols)
        if not np.all((vals == 0) | (vals == 1)):
            raise DataError("saturated features require binary history columns")
        codes = np.zeros(n, dtype=np.int64)
        for j in range(vals.shape[1]):
            codes = codes * 2 + vals[:, j].astype(np.int64)
        design = np.zeros((n, 2 ** vals.shape[1]))
        design[np.arange(n), codes] = 1.0
        return design

    if features in ("main", "running_avg"):
        return np.column_stack([np.ones(n)] + cols)

    # interactions
    out = list(cols)
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            out.append(cols[i] * cols[j])
    return np.column_stack([np.ones(n)] + out)


def mechanism_design(panel: TrialPanel, features: str, node: str, k: int,
                     ) -> np.ndarray:
    """Design for the visit-k treatment/censoring mechanism.

    Treatment nodes (A_k, Z_k) see covariates through visit k; the censoring
    node precedes the visit-k covariates and sees history through k-1 only.
    """
    if node in ("A", "Z"):
        if k == 0:   # the baseline block [1, L0], as the balancing law at visit 0
            return gstar_design(panel, 0)
        return history_design(panel, features, treat_upto=k - 1, cov_upto=k)
    if node == "C":
        return history_design(panel, features, treat_upto=k - 1)
    raise ValueError(f"unknown mechanism node '{node}'")


def gstar_columns(l0, k: int, z_prev=None) -> np.ndarray:
    """Design for the balancing intervention's conditional law at visit k:
    intercept, previous concomitant status (k >= 1) and baseline covariates.

    ``l0`` holds one row of baseline covariates per history, shape (n, d); a
    single row is broadcast against a vector ``z_prev`` and vice versa.
    """
    l0 = np.atleast_2d(np.asarray(l0, dtype=float))
    if k == 0:
        return np.column_stack([np.ones(l0.shape[0]), l0])
    zp = np.asarray(z_prev, dtype=float).reshape(-1)
    n = max(l0.shape[0], zp.shape[0])
    return np.column_stack([np.ones(n), np.broadcast_to(zp, (n,)),
                            np.broadcast_to(l0, (n, l0.shape[1]))])


def gstar_design(panel: TrialPanel, k: int) -> np.ndarray:
    """The balancing-law design (see ``gstar_columns``) for every subject of a
    panel at its observed visit-(k-1) status."""
    return gstar_columns(panel.L0, k, panel.z_at(k - 1) if k >= 1 else None)
