"""Input generation for the workloads, and an independent panel-CSV reader.

Everything here runs outside the timed stages.  The LEADER-shaped workload
feeds ``dropintmle ingest`` continuous-time event records built from a
simulated panel so that discretizing them onto the visit grid gives that
panel back exactly (see README.md, "Event encoding").
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
LEADER_SCENARIO = HERE / "leader_scenario.json"
LEADER_GRID = tuple(6.0 * k for k in range(9))  # months, 8 visits


def load_scenario():
    """The LEADER-shaped scenario, read like the CLI's ``--config`` JSON."""
    from dropintmle.sim import ScenarioConfig

    with open(LEADER_SCENARIO) as fh:
        return ScenarioConfig(**json.load(fh))


def _first_absorption(panel):
    """Visit (1-based) of each subject's first event/death/censoring, 0 if none,
    and the event-row code (1 event, 2 death, 0 censored)."""
    status = np.stack([panel.Y, panel.D, panel.C])       # (3, K, n)
    any_abs = status.any(axis=0)
    k_ev = np.where(any_abs.any(axis=0), any_abs.argmax(axis=0) + 1, 0)
    kind = status[:, np.maximum(k_ev - 1, 0), np.arange(panel.n)].argmax(axis=0)
    code = np.array([1, 2, 0])[kind]
    return k_ev, code


def event_rows(panel, grid, rng: np.random.Generator) -> list[list]:
    """Long event rows (id, time, kind, values...) that discretize back to
    ``panel`` on ``grid``: right-closed windows, any-exposure coding, one-visit
    covariate lag with last observation carried forward."""
    grid = np.asarray(grid, dtype=float)
    K = panel.K
    if grid.size != K + 1:
        raise ValueError(f"grid has {grid.size} times, panel needs {K + 1}")
    k_ev, code = _first_absorption(panel)
    u = 1.0 - rng.random((panel.n, 2 * K + 2))        # in (0, 1]
    order = {"baseline": 0, "covariate": 1, "exposure_start": 2,
             "exposure_stop": 3, "event": 4}
    rows = []
    for i in range(panel.n):
        sid = f"S{i:05d}"
        subj = [[sid, 0.0, "baseline", *panel.L0[i].tolist(),
                 int(panel.Z0[i]), int(panel.A0[i])]]
        last = K if k_ev[i] == 0 else k_ev[i]
        if k_ev[i] == 0:
            subj.append([sid, grid[K] + u[i, 0] * (grid[K] - grid[K - 1]), "event", 0])
        else:
            lo, hi = grid[k_ev[i] - 1], grid[k_ev[i]]
            subj.append([sid, lo + u[i, 0] * (hi - lo), "event", int(code[i])])
        # L_k is drawn while the subject is still followed (k < first
        # absorption) and is known at visit k-1: measure it up to half a
        # window before t_{k-1}; later values are carried forward
        for k in range(1, min(last, K)):
            t = grid[k - 1] - (1.0 - u[i, k]) * 0.5 * (grid[1] - grid[0])
            subj.append([sid, t, "covariate", *panel.L[k - 1, i].tolist()])
        # one exposure interval per run of Z_k = 1; a run reaching the last
        # treatment visit is left open-ended
        z = panel.Z[:, i]
        k = 1
        while k <= K - 1:
            if not z[k - 1]:
                k += 1
                continue
            a = k
            while k + 1 <= K - 1 and z[k]:
                k += 1
            b = k
            start = grid[a - 1] + u[i, K + a] * (grid[a] - grid[a - 1])
            subj.append([sid, start, "exposure_start"])
            if b < K - 1:
                lo = max(start, grid[b - 1])
                subj.append([sid, lo + u[i, K + b + 1] * (grid[b] - lo), "exposure_stop"])
            k += 1
        subj.sort(key=lambda r: (r[1], order[r[2]]))
        rows += subj
    return rows


def write_event_csv(rows, path) -> None:
    width = max(len(r) for r in rows) - 3
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["id", "time", "kind"] + [f"v{j + 1}" for j in range(width)])
        for r in rows:
            # repr of a float round-trips exactly
            wr.writerow([r[0], repr(float(r[1])), r[2]]
                        + [repr(v) if isinstance(v, float) else v for v in r[3:]]
                        + [""] * (width + 3 - len(r)))


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV with a header line, parsed by numpy alone."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} fields, {len(header)} names")
    return {name: data[:, j] for j, name in enumerate(header)}


def expected_columns(panel) -> dict[str, tuple[np.ndarray, bool]]:
    """The documented wide layout of ``panel``: name -> (values, is_integer)."""
    cols = {"id": (np.arange(panel.n), True)}
    for j in range(panel.L0.shape[1]):
        cols[f"L0_{j + 1}"] = (panel.L0[:, j], False)
    cols["Z0"] = (panel.Z0, True)
    cols["A0"] = (panel.A0, True)
    for k in range(1, panel.K + 1):
        for name in ("Y", "D", "C"):
            cols[f"{name}{k}"] = (getattr(panel, name)[k - 1], True)
        if k < panel.K:
            for j in range(panel.L.shape[2]):
                cols[f"L{k}_{j + 1}"] = (panel.L[k - 1, :, j], False)
            cols[f"A{k}"] = (panel.A[k - 1], True)
            cols[f"Z{k}"] = (panel.Z[k - 1], True)
    return cols
