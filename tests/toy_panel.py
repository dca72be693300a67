"""Panels shared by several test files (imported by name, so they live
outside conftest.py): the binary K = 2 toy panel with competing death used
by the enumeration tests, and a K = 8 death-and-censoring panel."""

import numpy as np
from scipy.special import expit

from dropintmle.panel import TrialPanel
from dropintmle.sim import ScenarioConfig, simulate_trial


def build_toy_panel(n=4000, seed=11, with_death=True, free_a1=True):
    """Binary K=2 panel with competing death, used by the enumeration tests.

    All mechanisms keep probabilities well inside (0, 1) so every history
    cell is populated at the default n.
    """
    rng = np.random.default_rng(seed)
    l0 = (rng.random(n) < 0.5).astype(np.int8)
    z0 = (rng.random(n) < expit(0.6 * l0 - 0.4)).astype(np.int8)
    a0 = (rng.random(n) < 0.5).astype(np.int8)
    y1 = (rng.random(n) < expit(-1.0 + 0.8 * l0 - 0.5 * a0 - 0.4 * z0)).astype(np.int8)
    d1 = np.zeros(n, dtype=np.int8)
    if with_death:
        d1 = ((rng.random(n) < 0.15) & (y1 == 0)).astype(np.int8)
    alive = (y1 == 0) & (d1 == 0)
    l1 = np.where(alive, (rng.random(n) < expit(0.3 + 0.9 * l0 - 0.6 * a0 - 0.5 * z0)).astype(np.int8), l0)
    z1 = np.where(alive, (rng.random(n) < expit(-0.5 + 0.7 * l1 + 1.2 * z0)).astype(np.int8), z0)
    if free_a1:
        a1 = np.where(alive, (rng.random(n) < 0.5).astype(np.int8), a0)
    else:
        a1 = a0.copy()
    y2 = np.where(alive, (rng.random(n) < expit(-1.2 + 0.9 * l1 - 0.6 * a1 - 0.5 * z1 + 0.3 * l0)).astype(np.int8), y1)
    y2 = np.maximum(y2, y1)
    return TrialPanel(
        L0=l0[:, None].astype(float), Z0=z0, A0=a0,
        Y=np.stack([y1, y2]), D=np.stack([d1, d1]),
        C=np.zeros((2, n), dtype=np.int8),
        L=l1[None, :, None].astype(float), A=a1[None, :], Z=z1[None, :],
    )


def build_k8_panel():
    """K = 8 simulated panel with death and censoring, LEADER-shaped."""
    cfg = ScenarioConfig(c_z0=-1.5, c_z=-2.5, p_z=1.0, p_zy=1.0, n_visits=8,
                         death_hazard=0.02, censor_hazard=0.03)
    return simulate_trial(cfg, 1500, 13)
