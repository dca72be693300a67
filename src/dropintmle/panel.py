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
from array import array
from dataclasses import dataclass, fields

import numpy as np

class DataError(ValueError):
    """Raised for malformed input data (files, grids, records)."""


class SettingError(ValueError):
    """Raised for a bad run setting (an option, a name, a count), before any fit."""


def check_horizon(horizon: int, K: int, source: str) -> None:
    """Refuse a horizon outside 1..K, where K is the visit count of ``source``
    (say "panel" or "scenario")."""
    if not 1 <= horizon <= K:
        raise SettingError(f"horizon {horizon} is outside 1..K; the {source} has K = {K}")


@dataclass(frozen=True)
class TrialPanel:
    """Rectangular discrete-time panel, visit-major storage, immutable.
    Visits are the indices k = 0..K; calendar time enters only at ingest.

    Array layout (K = number of follow-up visits):
      - ``Y``, ``D``, ``C``: shape (K, n), row k-1 holds visit-k status.
      - ``L``: shape (K-1, n, d_time), ``A``/``Z``: shape (K-1, n) for
        visits 1..K-1 (the final visit carries status only).
    """

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
        for name in ("L0", "Z0", "A0", "Y", "D", "C", "L", "A", "Z"):
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
        """Time-varying covariate block at visit k (at k = 0, the first d_time
        baseline columns)."""
        return self.L0[:, : self.d_time] if k == 0 else self.L[k - 1]


def make_panel(L0, Z0, A0, Y, D, C, L=None, A=None, Z=None) -> TrialPanel:
    """Assemble a TrialPanel from array-likes, normalizing dtypes and shapes."""
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


def _raise_first(bad: np.ndarray, message: str, first_visit: int = 1) -> None:
    """Raise DataError at the first flagged entry of ``bad``, naming its visit
    and subject: a per-subject mask is visit 0, row r of a visit-major mask
    is visit ``first_visit + r``."""
    if bad.any():
        at = np.unravel_index(np.argmax(bad), bad.shape)
        visit, subject = (0, at[0]) if bad.ndim == 1 else (first_visit + at[0], at[1])
        raise DataError(f"{message} at visit {visit} (subject {subject})")


def validate_panel(panel: TrialPanel) -> None:
    """Check the panel invariants, raising DataError at the first broken one.

    Checks, in order: binary status and treatment columns, finite
    covariates, absorbing event/death/censoring processes, and at most one
    absorbing process per subject (exclusive first transition).
    """
    for name in ("Y", "D", "C", "Z0", "A0", "A", "Z"):
        arr = getattr(panel, name)
        _raise_first((arr != 0) & (arr != 1), f"{name} has a non-binary value")
    _raise_first(~np.isfinite(panel.L0).all(axis=1),
                 "baseline covariates contain non-finite values")
    _raise_first(~np.isfinite(panel.L).all(axis=2),
                 "time-varying covariates contain non-finite values")
    for name in ("Y", "D", "C"):
        arr = getattr(panel, name)
        _raise_first((arr[:-1] == 1) & (arr[1:] == 0), f"absorbing {name} broken", 2)
    # the earliest clash is where it is introduced: the visit before has none
    total = panel.Y.astype(np.int8) + panel.D + panel.C
    _raise_first(total > 1, "exclusive first transition of Y, D and C violated")


@dataclass(frozen=True)
class EventTable:
    """Continuous-time records of n subjects as columns, before discretization.

    Subject i is the i-th id in order of first appearance.  Per subject:
    endpoint time ``t_tilde`` and code ``delta`` (0 censored, 1 primary
    event, 2 competing death), the baseline block ``L0`` (row i holds
    ``L0_width[i]`` values, NaN past them), and ``Z0``/``A0`` as read (float,
    so that a non-binary value can be reported).  Covariate measurements,
    in file order: owner ``meas_subject``, time ``meas_time``, component
    count ``meas_width``, and ``meas_values``, every measurement's components
    one after another.  Exposure intervals: owner ``expo_subject``,
    ``expo_start`` and ``expo_stop`` (+inf for a run left open).
    """

    ids: np.ndarray
    t_tilde: np.ndarray
    delta: np.ndarray
    L0: np.ndarray
    L0_width: np.ndarray
    Z0: np.ndarray
    A0: np.ndarray
    meas_subject: np.ndarray
    meas_time: np.ndarray
    meas_width: np.ndarray
    meas_values: np.ndarray
    expo_subject: np.ndarray
    expo_start: np.ndarray
    expo_stop: np.ndarray

    def __post_init__(self):
        for f in fields(self):
            dtype = {"ids": str, "L0_width": np.intp, "meas_subject": np.intp,
                     "meas_width": np.intp, "expo_subject": np.intp}.get(f.name, float)
            arr = np.asarray(getattr(self, f.name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, f.name, arr)

    @property
    def n(self) -> int:
        return self.ids.size


def check_visit_grid(visit_times) -> np.ndarray:
    """The grid as a float array; DataError unless 2+ finite, increasing times."""
    visit_times = np.asarray(visit_times, dtype=float)
    if visit_times.size < 2:
        raise DataError("visit grid must contain at least t_0 and t_1")
    if not np.all(np.isfinite(visit_times)):
        raise DataError("visit grid times must be finite")
    if np.any(np.diff(visit_times) <= 0):
        raise DataError("visit grid must be strictly increasing")
    return visit_times


def _owners(n: int, subjects: np.ndarray) -> np.ndarray:
    """Per-subject mask: True for each subject listed in ``subjects``."""
    mask = np.zeros(n, dtype=bool)
    mask[subjects] = True
    return mask


def ingest_long_events(events: EventTable, visit_times) -> TrialPanel:
    """Discretize continuous-time records onto the visit grid.

    Status at visit k is set when the subject's endpoint time falls in the
    right-closed window (t_{k-1}, t_k]; concomitant exposure Z_k is 1 when any
    exposure interval intersects that window; covariates are lagged one visit
    (L_k is the last measurement at or before t_{k-1}) with LOCF for gaps.
    Records with no A information carry the randomized arm forward (A_k = A0).
    A broken record raises DataError for the first such subject, at its
    first failing check; the warnings of the subjects before it are issued.
    """
    visit_times = check_visit_grid(visit_times)
    ev = events
    n = ev.n
    if n == 0:
        raise DataError("no records to ingest")
    K = visit_times.size - 1
    t0, t_last = visit_times[0], visit_times[-1]

    d = int(ev.L0_width[0])
    d_time = d
    if ev.meas_subject.size:  # the first subject's first measurement sets the width
        first = int(np.argmin(ev.meas_subject))
        d_time = int(ev.meas_width[first])
        if d_time > d:  # L_0 is the first d_time baseline columns
            raise DataError(f"subject {ev.ids[ev.meas_subject[first]]}: covariate rows have "
                            f"{d_time} components but the baseline block has {d}")

    t, ms, mt, xs = ev.t_tilde, ev.meas_subject, ev.meas_time, ev.expo_subject
    L0 = np.array(ev.L0[:, :d])

    def first_measurement(i):  # the first too-wide or too-narrow one in time order
        rows = np.flatnonzero((ms == i) & (ev.meas_width != d_time))
        return f"covariate width differs at t={float(mt[rows[np.argmin(mt[rows])]])}"

    def first_reversed(i):
        a, b = min((a, b) for a, b, s in zip(ev.expo_start.tolist(), ev.expo_stop.tolist(),
                                             xs.tolist()) if s == i and b < a)
        return f"interval ({a}, {b}) reversed"

    # the per-subject checks, in the order they apply to a subject
    checks = [
        (ev.L0_width != d, "baseline covariate width differs"),
        (~np.isfinite(L0).all(axis=1), "missing baseline covariates"),
        (t < 0, "negative endpoint time"),
        (np.isnan(t), "endpoint time is nan"),
        (~np.isin(ev.delta, (0, 1, 2)), "delta must be 0, 1 or 2"),
        (~np.isin(ev.Z0, (0, 1)), lambda i: f"Z0 holds {ev.Z0[i]}, not 0 or 1"),
        (~np.isin(ev.A0, (0, 1)), lambda i: f"A0 holds {ev.A0[i]}, not 0 or 1"),
    ]
    warn_endpoint = len(checks)  # the endpoint warning follows these checks
    checks.append((_owners(n, ms[np.isnan(mt)]), "covariate measured at t=nan"))
    warn_late = len(checks)  # the late-measurement warnings follow these
    checks += [
        (_owners(n, ms[ev.meas_width != d_time]), first_measurement),
        (_owners(n, xs[np.isnan(ev.expo_start) | np.isnan(ev.expo_stop)]),
         "exposure at t=nan"),
        (_owners(n, xs[ev.expo_stop < ev.expo_start]), first_reversed),
    ]
    bad = np.array([mask for mask, _ in checks])
    failing = bad.any(axis=0)
    stop = int(np.argmax(failing)) if failing.any() else n
    passed = int(np.argmax(bad[:, stop])) if stop < n else len(checks)
    early = t <= t0
    late = np.bincount(ms[mt > t_last], minlength=n)
    for i in np.flatnonzero((early | (late > 0))[: stop + 1]).tolist():
        checked = len(checks) if i < stop else passed
        if early[i] and checked >= warn_endpoint:
            warnings.warn(f"subject {ev.ids[i]}: endpoint at or before t_0; "
                          "assigned to visit 1")
        for _ in range(late[i] if checked >= warn_late else 0):
            warnings.warn(f"subject {ev.ids[i]}: covariate measured after last "
                          "visit; truncated")
    if stop < n:
        message = checks[passed][1]
        raise DataError(f"subject {ev.ids[stop]}: "
                        + (message(stop) if callable(message) else message))

    # endpoint visit: t_0 and before is visit 1, past t_K is K + 1 (none)
    k_ev = np.where(early, 1, np.searchsorted(visit_times, t, side="left"))
    reached = np.arange(1, K + 1)[:, None] >= k_ev
    Y, D, C = ((reached & (ev.delta == code)).astype(np.int8) for code in (1, 2, 0))

    windows_lo, windows_hi = visit_times[:-2], visit_times[1:-1]
    hit = (ev.expo_start[:, None] <= windows_hi) & (ev.expo_stop[:, None] > windows_lo)
    Z = np.zeros((K - 1, n), dtype=np.int8)
    k, m = np.nonzero(hit.T)
    Z[k, xs[m]] = 1

    # lag rule with LOCF: L_k takes, per component, the latest finite value
    # measured at or before t_{k-1}, else the baseline value
    L = np.repeat(L0[None, :, :d_time], K - 1, axis=0)
    order = np.lexsort((mt, ms))  # by subject, then time; ties keep file order
    subj, times = ms[order], mt[order]
    values = ev.meas_values.reshape(ms.size, d_time)[order]
    for j in range(d_time):
        known = np.isfinite(values[:, j])
        for k, t_lag in enumerate(windows_lo):
            rows = np.flatnonzero(known & (times <= t_lag))
            s = subj[rows]
            latest = rows[np.diff(s, append=-1) != 0]
            L[k, subj[latest], j] = values[latest, j]
    A0 = ev.A0.astype(np.int8)
    A = np.repeat(A0[None], K - 1, axis=0)

    panel = TrialPanel(L0=L0, Z0=ev.Z0.astype(np.int8), A0=A0, Y=Y, D=D, C=C, L=L, A=A, Z=Z)
    validate_panel(panel)
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


def _renumbered(code: np.ndarray) -> tuple[np.ndarray, int]:
    """``code`` renumbered to 0..m-1 in order, where m is its count of distinct values."""
    values, code = np.unique(code, return_inverse=True)
    return code, values.size


def _run_cells(run: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a run of integer wire columns, joined per row: the code of
    each row's tuple of values and a table from code to its joined text.
    Only the distinct tuples are formatted."""
    n = run[0].size
    limit = max(n, 256)  # codes reaching past this are renumbered
    code, size = np.zeros(n, dtype=np.int64), 1
    for col in run:
        col = col.view(np.uint8) if col.dtype == bool else col
        lo, hi = int(col.min(initial=0)), int(col.max(initial=0))  # bounds, also at n = 0
        if hi - lo < limit:
            # the offset from lo, wrapped to the column's width and read unsigned:
            # exact in every integer dtype, as it is below 2**bits
            digit, span = (col - col.dtype.type(lo)).view(f"u{col.itemsize}"), hi - lo + 1
        else:
            digit, span = _renumbered(col)
        if size * span > limit:
            code, size = _renumbered(code)
        code, size = code * span + digit.astype(np.int64), size * span
    if size > limit:
        code, size = _renumbered(code)
    holder = np.full(size, -1)
    holder[code] = np.arange(n)  # a row holding each code that occurs
    seen = np.flatnonzero(holder >= 0)
    table = np.empty(size, dtype=object)
    table[seen] = [",".join(map("{:d}".format, t))
                   for t in zip(*(col[holder[seen]].tolist() for col in run))]
    return code.astype(np.min_scalar_type(size - 1)), table


def write_panel_csv(panel: TrialPanel, path) -> None:
    """Write the wide panel CSV: covariates as ``{:.10g}``, indicators and
    ids as integers, ``\\r\\n`` line ends, byte for byte what ``csv.writer``
    wrote row by row.

    Between covariate blocks the indicator columns come in runs: ``Z0,A0,Y1,
    D1,C1``, then ``A_k,Z_k,Y_{k+1},D_{k+1},C_{k+1}``.  Each distinct tuple of
    a run is formatted once as its joined text, and a row is built from one
    template field per id, covariate and run: 11 fields at K = 5 with one
    covariate per block, against 31 cells.  The saving rests on runs holding
    few distinct tuples: every row of the benchmark panels repeats one of 8
    per run (``estimate-100k``, scenario 1) or of 16 (``leader-k8``).  A
    panel whose rows are all distinct is written the same way, without the
    saving.  A non-integer indicator array raises ValueError before the file
    is opened."""
    for name in ("Z0", "A0", "Y", "D", "C", "A", "Z"):
        dtype = getattr(panel, name).dtype
        if dtype.kind not in "biu":
            raise ValueError(f"indicator {name} has dtype {dtype}; the panel CSV holds integers")
    cols = panel_columns(panel.K, panel.d_baseline, panel.d_time)
    arrays = vars(panel)
    fields, values, tables = ["{:d}"], [np.arange(panel.n)], [None]
    for is_covariate, names in itertools.groupby(cols[1:], key=lambda c: c[0] == "L"):
        run = [_wire_column(arrays, c) for c in names]
        if is_covariate:
            fields += ["{:.10g}"] * len(run)
            values += run
            tables += [None] * len(run)
        else:
            code, table = _run_cells(run)
            fields.append("{}")
            values.append(code)
            tables.append(table)
    row = ",".join(fields) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\r\n")
        for s in range(0, panel.n, _ROW_BLOCK):
            block = [(v[s:s + _ROW_BLOCK] if t is None else t[v[s:s + _ROW_BLOCK]]).tolist()
                     for v, t in zip(values, tables)]
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


def read_panel_csv(path) -> TrialPanel:
    """Load a wide panel CSV.  Visit count and covariate widths are inferred
    from the header.  Columns may come in any order; ``id`` and unknown
    columns are not parsed."""
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
    return TrialPanel(**arrays)


def _event_row_error(path, line: int, row: list[str], exc: Exception) -> DataError:
    """A DataError naming the line and field of an event row that could not be read."""
    where = f"{path}: line {line}"
    if len(row) < 3:
        return DataError(f"{where}: the row ends before field {('id', 'time', 'kind')[len(row)]}")
    for name, text in [("time", row[1])] + [(f"v{j}", v) for j, v in enumerate(row[3:], 1) if v]:
        try:
            float(text)
        except ValueError:
            return DataError(f"{where}: field {name}: cannot read {text!r} as a number")
    if isinstance(exc, IndexError):  # the event row is the one that indexes a value
        return DataError(f"{where}: the event row has no delta (field v1)")
    return DataError(f"{where}: {exc}")


def _last_row(n: int, subjects: np.ndarray) -> np.ndarray:
    """Per subject, the position of its last row in ``subjects``; -1 if none."""
    last = np.full(n, -1)
    np.maximum.at(last, subjects, np.arange(subjects.size))
    return last


def read_event_csv(path) -> EventTable:
    """Load long-format event records into an EventTable.

    Rows are ``id,time,kind,v1,v2,...`` with kind one of baseline, event,
    covariate, exposure_start, exposure_stop; empty value cells are skipped.
    The baseline row carries ``v1..vd`` = L0 followed by Z0 and A0; the event
    row has v1 = delta; a later baseline or event row replaces an earlier
    one.  An exposure_start opens a run (replacing one already open) that the
    next exposure_stop closes; a run left open lasts to the end of
    follow-up.  A row that cannot be read raises DataError naming its line
    and field, and a baseline Z0 or A0 that is not an integer one naming the
    subject and the value.
    """
    index: dict[str, int] = {}                 # id -> subject, in order of first appearance
    opened: dict[int, float] = {}              # subject -> start of its open exposure run
    base_subject, base_width, base_values, base_z0, base_a0 = (
        array("q"), array("q"), array("d"), array("d"), array("d"))
    event_subject, event_time, event_delta = array("q"), array("d"), array("d")
    meas_subject, meas_time, meas_width, meas_values = array("q"), array("d"), array("q"), array("d")
    expo_subject, expo_start, expo_stop = array("q"), array("d"), array("d")
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None or header[:3] != ["id", "time", "kind"]:
            raise DataError(f"{path}: expected header id,time,kind,...")
        for row in rd:
            if not row:
                continue
            try:
                sid, t, kind = row[0], float(row[1]), row[2]
                i = index.setdefault(sid, len(index))
                if kind == "covariate":
                    vals = [float(v) for v in row[3:] if v]
                    meas_subject.append(i)
                    meas_time.append(t)
                    meas_width.append(len(vals))
                    meas_values.extend(vals)
                elif kind == "baseline":
                    vals = [v for v in row[3:] if v]
                    if len(vals) < 3:
                        raise DataError(f"{path}: baseline row for {sid} needs L0..,Z0,A0")
                    base_values.extend([float(v) for v in vals[:-2]])
                    base_z0.append(float(vals[-2]))
                    base_a0.append(float(vals[-1]))
                    base_subject.append(i)
                    base_width.append(len(vals) - 2)
                elif kind == "event":
                    vals = [v for v in row[3:] if v]
                    event_delta.append(int(float(vals[0])))
                    event_subject.append(i)
                    event_time.append(t)
                elif kind == "exposure_start":
                    opened[i] = t
                elif kind == "exposure_stop":
                    if i not in opened:
                        raise DataError(f"{path}: exposure_stop without start for {sid}")
                    expo_subject.append(i)
                    expo_start.append(opened.pop(i))
                    expo_stop.append(t)
                else:
                    raise DataError(f"{path}: unknown kind '{kind}'")
            except DataError:
                raise
            except (ValueError, IndexError, OverflowError) as exc:
                raise _event_row_error(path, rd.line_num, row, exc) from None
    n = len(index)
    ids = list(index)
    z0, a0 = np.frombuffer(base_z0), np.frombuffer(base_a0)
    bad_z0, bad_a0 = (~(np.isfinite(v) & (np.floor(v) == v)) for v in (z0, a0))
    if (bad_z0 | bad_a0).any():  # the first such baseline row in the file
        r = int(np.argmax(bad_z0 | bad_a0))
        name, value = ("Z0", z0[r]) if bad_z0[r] else ("A0", a0[r])
        raise DataError(f"{path}: subject {ids[base_subject[r]]}: baseline {name} "
                        f"{float(value)!r} is not an integer")
    base_row, event_row = (_last_row(n, np.frombuffer(s, dtype=np.int64))
                           for s in (base_subject, event_subject))
    missing = (base_row < 0) | (event_row < 0)
    if missing.any():
        i = int(np.argmax(missing))
        what = "baseline" if base_row[i] < 0 else "event"
        raise DataError(f"{path}: subject {ids[i]} has no {what} row")
    for i, start in opened.items():  # open-ended exposure runs to the end of follow-up
        expo_subject.append(i)
        expo_start.append(start)
        expo_stop.append(float("inf"))
    widths = np.frombuffer(base_width, dtype=np.int64)
    offsets = np.cumsum(widths) - widths
    width = widths[base_row]
    columns = np.arange(width.max(initial=0))
    inside = columns < width[:, None]
    L0 = np.full(inside.shape, np.nan)
    L0[inside] = np.frombuffer(base_values)[(offsets[base_row][:, None] + columns)[inside]]
    return EventTable(
        ids=ids, t_tilde=np.frombuffer(event_time)[event_row],
        delta=np.frombuffer(event_delta)[event_row], L0=L0, L0_width=width,
        Z0=z0[base_row], A0=a0[base_row],
        meas_subject=meas_subject, meas_time=meas_time, meas_width=meas_width,
        meas_values=meas_values, expo_subject=expo_subject, expo_start=expo_start,
        expo_stop=expo_stop)
