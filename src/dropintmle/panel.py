"""Discrete-time trial panel: data model, invariants, ingestion.

A panel holds n subjects followed over K visits.  Per subject the record is
baseline covariates, baseline concomitant-use and randomized-arm indicators,
then per visit the status triple (event, death, censoring), time-varying
covariates and the two treatment indicators.  Event/death/censoring are
absorbing, mutually exclusive at first transition, and resolved in the order
censoring -> death -> event within a visit.  Continuous-time records are
discretized onto the visit grid with right-closed intervals, any-exposure
coding for treatment windows, one-visit covariate lagging and LOCF.
"""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

MAX_VIOLATIONS = 1000   # per check of validate_panel's absorbing/exclusive loops


class DataError(ValueError):
    """Raised for malformed input data (files, grids, records)."""


@dataclass(frozen=True)
class TrialPanel:
    """Rectangular discrete-time panel, visit-major storage, immutable.

    Array layout (K = number of follow-up visits):
      - ``Y``, ``D``, ``C``: shape (K, n), row k-1 holds visit-k status.
      - ``L``: shape (K-1, n, d_time), ``A``/``Z``: shape (K-1, n) for
        visits 1..K-1 (the final visit carries status only).
    """

    visit_times: np.ndarray
    L0: np.ndarray
    Z0: np.ndarray
    A0: np.ndarray
    Y: np.ndarray
    D: np.ndarray
    C: np.ndarray
    L: np.ndarray
    A: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        for name in ("visit_times", "L0", "Z0", "A0", "Y", "D", "C", "L", "A", "Z"):
            arr = getattr(self, name)
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.L0.shape[0]

    @property
    def K(self) -> int:
        return self.Y.shape[0]

    @property
    def d_baseline(self) -> int:
        return self.L0.shape[1]

    @property
    def d_time(self) -> int:
        return self.L.shape[2] if self.L.ndim == 3 else 0

    def y_at(self, k: int) -> np.ndarray:
        return self.Y[k - 1]

    def d_at(self, k: int) -> np.ndarray:
        return self.D[k - 1]

    def c_at(self, k: int) -> np.ndarray:
        return self.C[k - 1]

    def a_at(self, k: int) -> np.ndarray:
        """Randomized-treatment indicator at visit k, k in 0..K-1."""
        return self.A0 if k == 0 else self.A[k - 1]

    def z_at(self, k: int) -> np.ndarray:
        """Concomitant-treatment indicator at visit k, k in 0..K-1."""
        return self.Z0 if k == 0 else self.Z[k - 1]

    def l_at(self, k: int) -> np.ndarray:
        """Time-varying covariate block at visit k (baseline columns at k=0)."""
        if k == 0:
            return self.L0[:, : self.d_time] if self.d_time else self.L0
        return self.L[k - 1]


def make_panel(visit_times, L0, Z0, A0, Y, D, C, L=None, A=None, Z=None) -> TrialPanel:
    """Assemble a TrialPanel from array-likes, normalizing dtypes and shapes."""
    visit_times = np.asarray(visit_times, dtype=float)
    L0 = np.atleast_2d(np.asarray(L0, dtype=float))
    if L0.shape[0] == 1 and L0.shape[1] > 1 and np.asarray(Z0).shape[0] != 1:
        L0 = L0.T
    n = L0.shape[0]
    Y = np.asarray(Y, dtype=np.int8).reshape(-1, n)
    K = Y.shape[0]
    D = np.asarray(D, dtype=np.int8).reshape(K, n)
    C = np.asarray(C, dtype=np.int8).reshape(K, n)
    if L is None:
        L = np.zeros((K - 1, n, 0))
    L = np.asarray(L, dtype=float)
    if L.ndim == 2:
        L = L[:, :, None]
    A = np.zeros((K - 1, n), dtype=np.int8) if A is None else np.asarray(A, dtype=np.int8).reshape(K - 1, n)
    Z = np.zeros((K - 1, n), dtype=np.int8) if Z is None else np.asarray(Z, dtype=np.int8).reshape(K - 1, n)
    return TrialPanel(
        visit_times=visit_times,
        L0=L0,
        Z0=np.asarray(Z0, dtype=np.int8).reshape(n),
        A0=np.asarray(A0, dtype=np.int8).reshape(n),
        Y=Y, D=D, C=C, L=L, A=A, Z=Z,
    )


def at_risk_mask(panel: TrialPanel, k: int) -> np.ndarray:
    """True where no event/death/censoring occurred before visit k (1 <= k <= K)."""
    if not 1 <= k <= panel.K:
        raise ValueError(f"visit index {k} out of range 1..{panel.K}")
    if k == 1:
        return np.ones(panel.n, dtype=bool)
    prior = k - 1
    gone = (panel.Y[:prior].any(axis=0) | panel.D[:prior].any(axis=0)
            | panel.C[:prior].any(axis=0))
    return ~gone


@dataclass
class Violation:
    code: str
    subject: int
    visit: int
    message: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, code, subject, visit, message):
        self.violations.append(Violation(code, int(subject), int(visit), message))

    def __iter__(self):
        return iter(self.violations)


def validate_panel(panel: TrialPanel) -> ValidationReport:
    """Check panel invariants; violations are returned as data, not raised.

    Checks: strictly increasing visit grid, binary status/treatment columns,
    absorbing event/death/censoring processes, at most one absorbing process
    per subject (exclusive first transition), finite covariates.
    """
    report = ValidationReport()
    vt = panel.visit_times
    if vt.shape[0] != panel.K + 1:
        report.add("grid_shape", -1, -1,
                   f"visit_times has {vt.shape[0]} entries, expected K+1={panel.K + 1}")
    if np.any(np.diff(vt) <= 0):
        report.add("grid_order", -1, -1, "visit times are not strictly increasing")

    for name in ("Y", "D", "C"):
        arr = getattr(panel, name)
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            k, i = np.argwhere(bad)[0]
            report.add("nonbinary", i, k + 1, f"{name} has non-binary value")
    for name in ("Z0", "A0"):
        arr = getattr(panel, name)
        bad = (arr != 0) & (arr != 1)
        if bad.any():
            report.add("nonbinary", np.argwhere(bad)[0][0], 0, f"{name} has non-binary value")
    if not np.all(np.isfinite(panel.L0)):
        report.add("nonfinite", int(np.argwhere(~np.isfinite(panel.L0))[0][0]), 0,
                   "baseline covariates contain non-finite values")
    if panel.L.size and not np.all(np.isfinite(panel.L)):
        k, i, _ = np.argwhere(~np.isfinite(panel.L))[0]
        report.add("nonfinite", i, k + 1, "time-varying covariates contain non-finite values")

    for name in ("Y", "D", "C"):
        arr = getattr(panel, name)
        dropped = (arr[:-1] == 1) & (arr[1:] == 0)
        for k, i in np.argwhere(dropped)[:MAX_VIOLATIONS]:
            report.add("absorbing", i, k + 2, f"absorbing {name} broken at k={k + 2}")

    total = panel.Y.astype(int) + panel.D + panel.C
    multi = total > 1
    for k, i in np.argwhere(multi)[:MAX_VIOLATIONS]:
        # only flag the first visit where the clash is introduced
        if k == 0 or total[k - 1, i] <= 1:
            report.add("exclusive", i, k + 1,
                       f"exclusive first transition violated at k={k + 1}")
    return report


@dataclass
class EventRecord:
    """One subject's continuous-time record before discretization."""

    subject_id: str
    t_tilde: float
    delta_tilde: int            # 0 censored, 1 primary event, 2 competing death
    L0: np.ndarray
    Z0: int
    A0: int
    exposure_intervals: list[tuple[float, float]] = field(default_factory=list)
    covariate_measurements: list[tuple[float, np.ndarray]] = field(default_factory=list)

    def normalized_intervals(self) -> list[tuple[float, float]]:
        """Exposure intervals sorted and merged so they do not overlap."""
        ivs = sorted((float(a), float(b)) for a, b in self.exposure_intervals)
        merged: list[list[float]] = []
        for a, b in ivs:
            if b < a:
                raise DataError(f"subject {self.subject_id}: interval ({a}, {b}) reversed")
            if merged and a <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        return [(a, b) for a, b in merged]


def ingest_long_events(records: list[EventRecord], visit_times) -> TrialPanel:
    """Discretize continuous-time records onto the visit grid.

    Status at visit k is set when the subject's endpoint time falls in the
    right-closed window (t_{k-1}, t_k]; concomitant exposure Z_k is 1 when any
    exposure interval intersects that window; covariates are lagged one visit
    (L_k is the last measurement at or before t_{k-1}) with LOCF for gaps.
    Records with no A information carry the randomized arm forward (A_k = A0).
    """
    visit_times = np.asarray(visit_times, dtype=float)
    if visit_times.size < 2:
        raise DataError("visit grid must contain at least t_0 and t_1")
    if np.any(np.diff(visit_times) <= 0):
        raise DataError("visit grid must be strictly increasing")
    if not records:
        raise DataError("no records to ingest")
    K = visit_times.size - 1
    n = len(records)

    d = np.asarray(records[0].L0, dtype=float).size
    d_time, first = next(((np.asarray(vec, dtype=float).size, r.subject_id)
                          for r in records for _, vec in r.covariate_measurements), (d, None))
    if d_time > d:  # L_0 is the first d_time baseline columns
        raise DataError(f"subject {first}: covariate rows have {d_time} components but "
                        f"the baseline block has {d}")

    L0, L = np.zeros((n, d)), np.zeros((K - 1, n, d_time))
    Z0, A0 = (np.zeros(n, dtype=np.int8) for _ in range(2))
    Y, D, C = (np.zeros((K, n), dtype=np.int8) for _ in range(3))
    Z = np.zeros((K - 1, n), dtype=np.int8)

    t_last = visit_times[-1]
    windows = list(zip(visit_times[:-2].tolist(), visit_times[1:-1].tolist()))
    for i, rec in enumerate(records):
        base = np.asarray(rec.L0, dtype=float).reshape(-1)
        if base.size != d:
            raise DataError(f"subject {rec.subject_id}: baseline covariate width differs")
        if not np.all(np.isfinite(base)):
            raise DataError(f"subject {rec.subject_id}: missing baseline covariates")
        if rec.t_tilde < 0:
            raise DataError(f"subject {rec.subject_id}: negative endpoint time")
        if rec.delta_tilde not in (0, 1, 2):
            raise DataError(f"subject {rec.subject_id}: delta must be 0, 1 or 2")
        L0[i] = base
        Z0[i] = int(rec.Z0)
        A0[i] = int(rec.A0)

        t_ev = rec.t_tilde
        if t_ev <= visit_times[0]:
            warnings.warn(f"subject {rec.subject_id}: endpoint at or before t_0; "
                          "assigned to visit 1")
            k_ev = 1
        elif t_ev > t_last:
            k_ev = None  # event-free over the panel window
        else:
            k_ev = int(np.searchsorted(visit_times, t_ev, side="left"))
        if k_ev is not None:
            target = {1: Y, 2: D, 0: C}[rec.delta_tilde]
            target[k_ev - 1:, i] = 1

        if any(t_m != t_m for t_m, _ in rec.covariate_measurements):
            raise DataError(f"subject {rec.subject_id}: covariate measured at t=nan")
        meas = sorted(rec.covariate_measurements, key=lambda m: m[0])
        for t_m, _ in meas:
            if t_m > t_last:
                warnings.warn(f"subject {rec.subject_id}: covariate measured after last "
                              "visit; truncated")
        vecs = [np.asarray(vec, dtype=float).reshape(-1) for _, vec in meas]
        for (t_m, _), v in zip(meas, vecs):
            if v.size != d_time:
                raise DataError(f"subject {rec.subject_id}: covariate width differs at t={t_m}")
        intervals = rec.normalized_intervals()
        # lag rule: L_k reflects what was known at visit k-1; the measurements
        # are sorted, so each visit applies only the ones new since the last
        current, rows, m = base[:d_time], [], 0
        for t_lag, _ in windows:
            while m < len(meas) and meas[m][0] <= t_lag:
                current = np.where(np.isfinite(vecs[m]), vecs[m], current)  # LOCF
                m += 1
            rows.append(current)
        L[:, i] = np.reshape(rows, (K - 1, d_time))  # no rows when K = 1
        Z[:, i] = [any(a <= hi and b > lo for a, b in intervals) for lo, hi in windows]
    A = np.repeat(A0[None], K - 1, axis=0)

    panel = TrialPanel(
        visit_times=visit_times, L0=L0, Z0=Z0, A0=A0,
        Y=Y, D=D, C=C, L=L, A=A, Z=Z,
    )
    report = validate_panel(panel)
    if not report.ok:
        first = report.violations[0]
        raise DataError(f"ingested panel invalid: {first.message} (subject {first.subject})")
    return panel


# ---------------------------------------------------------------------------
# CSV wire formats


def panel_columns(K: int, d: int, d_time: int) -> list[str]:
    cols = ["id"] + [f"L0_{j + 1}" for j in range(d)] + ["Z0", "A0"]
    for k in range(1, K + 1):
        cols += [f"Y{k}", f"D{k}", f"C{k}"]
        if k <= K - 1:
            cols += [f"L{k}_{j + 1}" for j in range(d_time)] + [f"A{k}", f"Z{k}"]
    return cols


_ROW_BLOCK = 512  # rows formatted and written at a time


def _wire_column(arrays: dict, name: str) -> np.ndarray:
    """View of the panel arrays (field name -> array) that wire column
    ``name`` holds; every column but ``id``."""
    head, _, j = name.partition("_")
    k = int(head[1:])
    if j:
        return (arrays["L0"] if k == 0 else arrays["L"][k - 1])[:, int(j) - 1]
    return arrays[head] if k == 0 else arrays[head[0]][k - 1]


def write_panel_csv(panel: TrialPanel, path) -> None:
    """Write the wide panel CSV: covariates as ``{:.10g}``, indicators and
    ids as integers, ``\\r\\n`` line ends, as ``csv.writer`` would."""
    cols = panel_columns(panel.K, panel.d_baseline, panel.d_time)
    values = [np.arange(panel.n)] + [_wire_column(vars(panel), c) for c in cols[1:]]
    row = ",".join("{:.10g}" if c[0] == "L" else "{:d}" for c in cols) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        for s in range(0, panel.n, _ROW_BLOCK):
            block = [v[s:s + _ROW_BLOCK].tolist() for v in values]
            fh.write("".join(itertools.starmap(row.format, zip(*block))))


def _load_error(path, header: list[str], exc: ValueError) -> DataError:
    """A DataError for a cell or row ``numpy.loadtxt`` could not read, naming
    the column where its message gives one."""
    cell = re.search(r"could not convert string (.*) to float64 at row \d+, column (\d+)", str(exc))
    if cell:
        return DataError(f"{path}: column {header[int(cell[2]) - 1]}: "
                         f"cannot read {cell[1]} as a number")
    short = re.search(r"invalid column index (\d+) at row \d+", str(exc))
    if short:
        return DataError(f"{path}: a row ends before column {header[int(short[1])]}")
    return DataError(f"{path}: {exc}")


def read_panel_csv(path, visit_times=None) -> TrialPanel:
    """Load a wide panel CSV.  Visit count and covariate widths are inferred
    from the header; ``visit_times`` defaults to 0, 1, ..., K.  Columns may
    come in any order; ``id`` and unknown columns are not parsed."""
    with open(path) as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise DataError(f"{path}: empty file")
        if not header or header[0] != "id":
            raise DataError(f"{path}: first column must be 'id'")
        K = next(k for k in itertools.count() if f"Y{k + 1}" not in header)
        if K == 0:
            raise DataError(f"{path}: missing required column Y1")
        d = len([c for c in header if c.startswith("L0_")])
        d_time = len([c for c in header if c.startswith("L1_")])
        cols = panel_columns(K, d, d_time)[1:]
        missing = [c for c in cols if c not in header]
        if missing:
            raise DataError(f"{path}: missing required column {missing[0]}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                                  usecols=[header.index(c) for c in cols])
        except ValueError as exc:
            raise _load_error(path, header, exc) from None
    n = data.shape[0]
    if n == 0:
        raise DataError(f"{path}: no data rows")
    shapes = dict(L0=(n, d), L=(K - 1, n, d_time), Z0=n, A0=n, Y=(K, n), D=(K, n), C=(K, n),
                  A=(K - 1, n), Z=(K - 1, n))
    arrays = {f: np.zeros(s, dtype=float if f[0] == "L" else np.int8) for f, s in shapes.items()}
    for c, v in zip(cols, data.T):
        if c[0] != "L":  # indicators are read as int(float(cell)) into int8
            ok = (v > -129) & (v < 128)
            if not ok.all():
                raise DataError(f"{path}: column {c} holds {v[~ok][0]}, "
                                "not an integer in -128..127")
        _wire_column(arrays, c)[:] = v
    vt = np.arange(K + 1, dtype=float) if visit_times is None else visit_times
    return TrialPanel(visit_times=np.asarray(vt, dtype=float), **arrays)


def read_event_csv(path) -> list[EventRecord]:
    """Load long-format event records.

    Rows are ``id,time,kind,v1,v2,...`` with kind one of baseline, event,
    covariate, exposure_start, exposure_stop.  The baseline row carries
    ``v1..vd`` = L0 followed by Z0 and A0; the event row has v1 = delta.
    """
    by_id: dict[str, dict] = {}
    order: list[str] = []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None or header[:3] != ["id", "time", "kind"]:
            raise DataError(f"{path}: expected header id,time,kind,...")
        for row in rd:
            if not row:
                continue
            sid, t, kind = row[0], float(row[1]), row[2]
            vals = [x for x in row[3:] if x != ""]
            if sid not in by_id:
                by_id[sid] = {"expo_open": None, "intervals": [], "covs": [],
                              "event": None, "base": None}
                order.append(sid)
            rec = by_id[sid]
            if kind == "baseline":
                if len(vals) < 3:
                    raise DataError(f"{path}: baseline row for {sid} needs L0..,Z0,A0")
                rec["base"] = (np.array([float(v) for v in vals[:-2]]),
                               int(float(vals[-2])), int(float(vals[-1])))
            elif kind == "event":
                rec["event"] = (t, int(float(vals[0])))
            elif kind == "covariate":
                rec["covs"].append((t, np.array([float(v) for v in vals])))
            elif kind == "exposure_start":
                rec["expo_open"] = t
            elif kind == "exposure_stop":
                start = rec["expo_open"]
                if start is None:
                    raise DataError(f"{path}: exposure_stop without start for {sid}")
                rec["intervals"].append((start, t))
                rec["expo_open"] = None
            else:
                raise DataError(f"{path}: unknown kind '{kind}'")
    records = []
    for sid in order:
        rec = by_id.pop(sid)  # the records take over its lists and arrays
        if rec["base"] is None:
            raise DataError(f"{path}: subject {sid} has no baseline row")
        if rec["event"] is None:
            raise DataError(f"{path}: subject {sid} has no event row")
        if rec["expo_open"] is not None:
            # open-ended exposure runs to the end of follow-up
            rec["intervals"].append((rec["expo_open"], float("inf")))
        L0, Z0, A0 = rec["base"]
        t, delta = rec["event"]
        records.append(EventRecord(
            subject_id=sid, t_tilde=t, delta_tilde=delta, L0=L0, Z0=Z0, A0=A0,
            exposure_intervals=rec["intervals"],
            covariate_measurements=rec["covs"],
        ))
    return records
