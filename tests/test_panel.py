import csv
import dataclasses
import importlib.util
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropintmle import panel as panel_mod
from dropintmle.panel import (
    DataError,
    EventTable,
    TrialPanel,
    _event_row_error,
    at_risk_mask,
    check_visit_grid,
    ingest_long_events,
    make_panel,
    panel_columns,
    read_event_csv,
    read_panel_csv,
    validate_panel,
    write_panel_csv,
)


def small_panel(Y, D=None, C=None, K=None):
    Y = np.asarray(Y, dtype=np.int8)
    K, n = Y.shape
    D = np.zeros_like(Y) if D is None else np.asarray(D, dtype=np.int8)
    C = np.zeros_like(Y) if C is None else np.asarray(C, dtype=np.int8)
    return make_panel(
        L0=np.zeros((n, 1)), Z0=np.zeros(n), A0=np.zeros(n),
        Y=Y, D=D, C=C,
        L=np.zeros((K - 1, n, 1)), A=np.zeros((K - 1, n)), Z=np.zeros((K - 1, n)),
    )


def test_absorbing_violation_reported_with_coordinates():
    Y = np.zeros((3, 2), dtype=np.int8)
    Y[1, 0] = 1  # event at visit 2 ...
    Y[2, 0] = 0  # ... dropped at visit 3
    with pytest.raises(DataError, match=r"^absorbing Y broken at visit 3 \(subject 0\)$"):
        validate_panel(small_panel(Y))


def test_exclusive_first_transition_violation():
    Y = np.zeros((2, 1), dtype=np.int8)
    D = np.zeros((2, 1), dtype=np.int8)
    Y[:, 0] = 1
    D[:, 0] = 1    # both absorbed at visit 1; the clash persists at visit 2
    with pytest.raises(DataError, match=r"exclusive first transition .* at visit 1 \(subject 0\)$"):
        validate_panel(small_panel(Y, D=D))


@pytest.mark.parametrize("name, visit", [("Y", 2), ("D", 2), ("C", 2), ("Z0", 0), ("A0", 0),
                                          ("A", 2), ("Z", 2)])
def test_non_binary_value_named_with_coordinates(name, visit):
    p = small_panel(np.zeros((3, 3), dtype=np.int8))
    arr = getattr(p, name).copy()
    arr[(1,) if arr.ndim == 1 else (1, 1)] = 2    # subject 1, at visit 0 or at visit 2
    with pytest.raises(DataError, match=rf"^{name} has a non-binary value at visit {visit} "
                                        r"\(subject 1\)$"):
        validate_panel(dataclasses.replace(p, **{name: arr}))


def test_valid_simulated_panel_passes(scenario1_panel):
    assert validate_panel(scenario1_panel) is None


def test_at_risk_mask_semantics():
    Y = np.zeros((4, 3), dtype=np.int8)
    C = np.zeros((4, 3), dtype=np.int8)
    C[1:, 1] = 1          # subject 1 censored at visit 2
    Y[2:, 2] = 1          # subject 2 event at visit 3
    p = small_panel(Y, C=C)
    assert at_risk_mask(p, 1).tolist() == [True, True, True]
    assert at_risk_mask(p, 2).tolist() == [True, True, True]
    assert at_risk_mask(p, 3).tolist() == [True, False, True]
    assert at_risk_mask(p, 4).tolist() == [True, False, False]
    with pytest.raises(ValueError):
        at_risk_mask(p, 5)


def test_at_risk_monotone_on_simulated(scenario1_panel):
    prev = at_risk_mask(scenario1_panel, 1)
    for k in range(2, scenario1_panel.K + 1):
        cur = at_risk_mask(scenario1_panel, k)
        assert np.all(cur <= prev)
        prev = cur


def rec(sid="s", t=100.0, delta=1, L0=(0.5,), Z0=0, A0=1, expos=(), covs=()):
    return EventRecord(subject_id=sid, t_tilde=t, delta_tilde=delta,
                       L0=np.array(L0), Z0=Z0, A0=A0,
                       exposure_intervals=list(expos),
                       covariate_measurements=[(t_, np.array(v)) for t_, v in covs])


def events(*records: "EventRecord") -> EventTable:
    """The EventTable of ``records``, in order: the columns of the
    per-subject records that the reference loops below take."""
    widths = [np.size(r.L0) for r in records]
    L0 = np.full((len(records), max(widths, default=0)), np.nan)
    for i, r in enumerate(records):
        L0[i, : widths[i]] = np.ravel(r.L0)
    meas = [(i, t, np.ravel(np.asarray(v, dtype=float)))
            for i, r in enumerate(records) for t, v in r.covariate_measurements]
    expo = [(i, a, b) for i, r in enumerate(records) for a, b in r.exposure_intervals]
    return EventTable(
        ids=[r.subject_id for r in records], t_tilde=[r.t_tilde for r in records],
        delta=[r.delta_tilde for r in records], L0=L0, L0_width=widths,
        Z0=[r.Z0 for r in records], A0=[r.A0 for r in records],
        meas_subject=[m[0] for m in meas], meas_time=[m[1] for m in meas],
        meas_width=[m[2].size for m in meas],
        meas_values=np.concatenate([m[2] for m in meas] + [np.zeros(0)]),
        expo_subject=[x[0] for x in expo], expo_start=[x[1] for x in expo],
        expo_stop=[x[2] for x in expo])


GRID = [0.0, 3.0, 6.0, 9.0, 12.0]


def test_event_lands_in_right_closed_window():
    # endpoint at 4.2 months on a 3-month grid: visit 2 carries the event
    p = ingest_long_events(events(rec(t=4.2, delta=1)), GRID)
    assert p.y_at(1)[0] == 0 and p.y_at(2)[0] == 1 and p.y_at(4)[0] == 1
    # exactly on a visit time belongs to that visit
    p = ingest_long_events(events(rec(t=6.0, delta=2)), GRID)
    assert p.d_at(1)[0] == 0 and p.d_at(2)[0] == 1


def test_censoring_and_death_channels():
    p = ingest_long_events(events(rec(t=7.0, delta=0)), GRID)
    assert p.c_at(3)[0] == 1 and p.y_at(3)[0] == 0 and p.d_at(3)[0] == 0
    validate_panel(p)


def test_exposure_any_overlap_rule():
    # interval (3.1, 5.0): not exposed in (0,3], exposed in (3,6]
    p = ingest_long_events(events(rec(expos=[(3.1, 5.0)])), GRID)
    assert p.z_at(1)[0] == 0 and p.z_at(2)[0] == 1 and p.z_at(3)[0] == 0


def test_exposure_stop_on_boundary_not_carried():
    p = ingest_long_events(events(rec(expos=[(1.0, 3.0)])), GRID)
    assert p.z_at(1)[0] == 1 and p.z_at(2)[0] == 0


def test_covariate_lagged_one_visit_with_locf():
    covs = [(0.0, (1.0,)), (5.9, (2.0,))]
    p = ingest_long_events(events(rec(covs=covs)), GRID)
    # L_k reflects the last measurement at or before visit k-1
    assert p.l_at(1)[0, 0] == 1.0   # measurement at 5.9 not yet seen at t_0
    assert p.l_at(2)[0, 0] == 1.0   # at t_1 = 3 the 5.9 draw is still future
    assert p.l_at(3)[0, 0] == 2.0   # visible from t_2 = 6 onward


def test_baseline_only_covariate_locf_everywhere():
    p = ingest_long_events(events(rec(L0=(0.7,))), GRID)
    assert np.all(p.L[:, 0, 0] == 0.7)


def test_missing_baseline_rejected():
    with pytest.raises(DataError):
        ingest_long_events(events(rec(L0=(np.nan,))), GRID)


def test_empty_grid_rejected():
    with pytest.raises(DataError):
        ingest_long_events(events(rec()), [0.0])


@pytest.mark.parametrize("grid", [[0.0, np.nan, 6.0], [0.0, 3.0, np.inf], [np.nan, 3.0]],
                         ids=["nan", "inf", "nan-t0"])
def test_non_finite_grid_rejected(grid):
    # NaN passes the strictly-increasing check (every comparison is False)
    with pytest.raises(DataError, match="visit grid times must be finite"):
        ingest_long_events(events(rec()), grid)


def test_measurement_after_last_visit_warns():
    with pytest.warns(UserWarning):
        ingest_long_events(events(rec(covs=[(99.0, (1.0,))])), GRID)


def test_event_at_time_zero_warns_and_maps_to_visit_one():
    with pytest.warns(UserWarning):
        p = ingest_long_events(events(rec(t=0.0, delta=1)), GRID)
    assert p.y_at(1)[0] == 1


def test_ingest_discretization_idempotent():
    # re-discretizing per-visit event times reproduces the panel exactly
    records = [
        rec("a", t=4.2, delta=1, expos=[(0.5, 7.0)]),
        rec("b", t=10.0, delta=2),
        rec("c", t=100.0, delta=1, expos=[(8.0, 9.0)]),
        rec("d", t=11.9, delta=0),
    ]
    p1 = ingest_long_events(events(*records), GRID)
    rows = []
    for i, r in enumerate(records):
        status = np.concatenate([[0], np.maximum.reduce([p1.Y[:, i], 2 * p1.D[:, i], 3 * p1.C[:, i]])])
        first = np.argmax(status > 0) if np.any(status > 0) else None
        if first is None:
            t2, d2 = 1000.0, r.delta_tilde
        else:
            t2 = GRID[first]  # event at the visit time itself: right-closed
            d2 = {1: 1, 2: 2, 3: 0}[status[first]]
        expos = [(GRID[k - 1], GRID[k]) for k in range(1, len(GRID) - 1) if p1.Z[k - 1, i]]
        # shift starts off the boundary: window (t_{k-1}, t_k] is open on the left
        expos = [(a + 1e-9, b) for a, b in expos]
        rows.append(rec(r.subject_id, t=t2, delta=d2, expos=expos))
    p2 = ingest_long_events(events(*rows), GRID)
    assert np.array_equal(p1.Y, p2.Y)
    assert np.array_equal(p1.D, p2.D)
    assert np.array_equal(p1.C, p2.C)
    assert np.array_equal(p1.Z, p2.Z)


@settings(max_examples=60, deadline=None)
@given(start=st.floats(0.0, 12.0), width=st.floats(0.0, 6.0))
def test_exposure_coding_matches_pointwise_probe(start, width):
    # brute-force oracle: exposed in window k iff some probe point of the
    # closed interval lies in (t_{k-1}, t_k]
    stop = start + width
    p = ingest_long_events(events(rec(expos=[(start, stop)])), GRID)
    probes = np.linspace(start, stop, 2001)
    for k in range(1, len(GRID) - 1):
        lo, hi = GRID[k - 1], GRID[k]
        expected = bool(np.any((probes > lo) & (probes <= hi)))
        assert bool(p.z_at(k)[0]) == expected


def test_panel_csv_round_trip(tmp_path, scenario1_panel):
    path = tmp_path / "panel.csv"
    write_panel_csv(scenario1_panel, path)
    back = read_panel_csv(path)
    for f in dataclasses.fields(TrialPanel):
        got, want = getattr(back, f.name), getattr(scenario1_panel, f.name)
        assert got.shape == want.shape, f.name
        if np.issubdtype(want.dtype, np.integer):
            assert np.array_equal(got, want), f.name
        else:  # covariates are written to 10 significant digits
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=0, err_msg=f.name)


def test_panel_csv_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,L0_1,Z0,A0,Y1,D1\n0,0.1,0,1,0,0\n")
    with pytest.raises(DataError, match="C1"):
        read_panel_csv(path)


def test_panel_immutable(scenario1_panel):
    with pytest.raises(ValueError):
        scenario1_panel.Y[0, 0] = 1


def test_measurement_width_checked_after_last_lagged_visit():
    # t = 7 lies after t_{K-2} = 6, so no L_k takes it; it is still checked
    with pytest.raises(DataError, match="covariate width differs at t=7"):
        ingest_long_events(events(rec(covs=[(1.0, (0.2,)), (7.0, (1.0, 2.0))])), GRID)


def test_measurement_at_nan_time_rejected():
    with pytest.raises(DataError, match="t=nan"):
        ingest_long_events(events(rec(covs=[(1.0, (0.2,)), (np.nan, (1.0,))])), GRID)


# ---------------------------------------------------------------------------
# Malformed panel CSVs: a DataError naming the file and the column


HEADER = "id,L0_1,Z0,A0,Y1,D1,C1,L1_1,A1,Z1,Y2,D2,C2\n"
GOOD_ROW = ["0", "0.5", "0", "1", "0", "0", "0", "0.25", "1", "0", "0", "0", "0"]


@pytest.mark.parametrize("column, cell", [
    ("L1_1", "abc"),     # non-numeric
    ("L0_1", ""),        # empty
    ("Y2", "nan"),       # NaN indicator
    ("Z1", "inf"),       # +inf indicator
    ("D1", "-inf"),      # -inf indicator
    ("A0", "300"),       # outside int8
    ("Y1", "128"),       # just above int8
    ("C2", "-129"),      # just below int8
], ids=["non_numeric", "empty", "nan_indicator", "inf_indicator", "neg_inf_indicator",
        "int8_overflow", "int8_max_plus_one", "int8_min_minus_one"])
def test_bad_cell_is_data_error_naming_file_and_column(tmp_path, column, cell):
    row = list(GOOD_ROW)
    row[HEADER.strip().split(",").index(column)] = cell
    path = tmp_path / "bad.csv"
    path.write_text(HEADER + ",".join(GOOD_ROW) + "\n" + ",".join(row) + "\n")
    with pytest.raises(DataError, match=f"bad.csv: column {column}"):
        read_panel_csv(path)


def test_short_row_is_data_error(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text(HEADER + ",".join(GOOD_ROW) + "\n" + ",".join(GOOD_ROW[:8]) + "\n")
    with pytest.raises(DataError, match="short.csv: a row ends before column A1"):
        read_panel_csv(path)


def test_header_only_is_data_error(tmp_path):
    path = tmp_path / "header.csv"
    path.write_text(HEADER + "\n")
    with pytest.raises(DataError, match="header.csv: no data rows"):
        read_panel_csv(path)


def test_int8_bounds_and_truncation_read_as_int_of_float(tmp_path):
    row = list(GOOD_ROW)
    row[2:4] = ["127.9", "-128.9"]         # int(float(x)) truncates toward zero
    path = tmp_path / "edge.csv"
    path.write_text(HEADER + ",".join(row) + "\n")
    p = read_panel_csv(path)
    assert (int(p.Z0[0]), int(p.A0[0])) == (127, -128)


# ---------------------------------------------------------------------------
# Malformed event CSVs: a DataError naming the file, the line and the field

EVENTS = "id,time,kind,v1,v2,v3\np1,0,baseline,0.5,0,1\np1,4.2,event,1,,\n"


@pytest.mark.parametrize("row, message", [
    ("p2,soon,event,1,,", "line 5: field time: cannot read 'soon' as a number"),
    ("p2,5.0,event,,,", "line 5: the event row has no delta (field v1)"),
    ("p2,5.0", "line 5: the row ends before field kind"),
    ("p2,1.0,covariate,0.1,x,", "line 5: field v2: cannot read 'x' as a number"),
], ids=["non_numeric_time", "event_without_delta", "short_row", "non_numeric_value"])
def test_malformed_event_row_is_data_error_naming_line_and_field(tmp_path, row, message):
    path = tmp_path / "events.csv"
    path.write_text(EVENTS + "p2,0,baseline,0.1,1,0\n" + row + "\n")
    with pytest.raises(DataError) as info:
        read_event_csv(path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("cells, message", [
    ("0.9,1", "baseline Z0 0.9 is not an integer"),
    ("1,1.9", "baseline A0 1.9 is not an integer"),
    ("nan,0", "baseline Z0 nan is not an integer"),
], ids=["z0-0.9", "a0-1.9", "z0-nan"])
def test_non_integer_baseline_indicator_is_refused(tmp_path, capsys, cells, message):
    # a cell is no longer read as its integer part: 0.9 is not 0
    from dropintmle.cli import cli_main

    path = tmp_path / "events.csv"
    path.write_text(EVENTS + f"p2,0,baseline,0.1,{cells}\np2,5,event,0\n")
    with pytest.raises(DataError) as info:
        read_event_csv(path)
    assert str(info.value) == f"{path}: subject p2: {message}"
    assert cli_main(["ingest", "--events", str(path), "--grid", "0,3,6",
                     "--out", str(tmp_path / "panel.csv")]) == 2
    assert f"subject p2: {message}" in capsys.readouterr().err


def test_event_table_holds_the_rows_as_the_reader_keeps_them(tmp_path):
    path = tmp_path / "events.csv"
    path.write_text("id,time,kind,v1,v2,v3\n"
                    "b,2,exposure_start\n"
                    "a,0,baseline,0.5,0,1\n"
                    "a,0,baseline,0.25,,1,0\n"       # replaces the first; the empty cell is skipped
                    "a,3,event,1\n"
                    "a,4,event,2,,\n"                # replaces the first
                    "a,1,exposure_start\n"
                    "a,2,exposure_start\n"           # replaces the open start at 1
                    "a,5,exposure_stop\n"
                    "a,7,exposure_start\n"           # open: runs to the end of follow-up
                    "\n"
                    'b,0,baseline,"-1.5",0.75,0,0\n'
                    "b,9,event,0\n"
                    "b,1,covariate,,0.3\n"
                    "b,4,exposure_stop\n")
    tab = read_event_csv(path)
    assert tab.ids.tolist() == ["b", "a"] and tab.n == 2
    assert tab.t_tilde.tolist() == [9.0, 4.0] and tab.delta.tolist() == [0.0, 2.0]
    assert tab.L0_width.tolist() == [2, 1]
    assert np.array_equal(tab.L0, [[-1.5, 0.75], [0.25, np.nan]], equal_nan=True)
    assert tab.Z0.tolist() == [0.0, 1.0] and tab.A0.tolist() == [0.0, 0.0]
    assert (tab.meas_subject.tolist(), tab.meas_time.tolist(), tab.meas_width.tolist(),
            tab.meas_values.tolist()) == ([0], [1.0], [1], [0.3])
    intervals = sorted(zip(tab.expo_subject.tolist(), tab.expo_start.tolist(),
                           tab.expo_stop.tolist()))
    assert intervals == [(0, 2.0, 4.0), (1, 2.0, 5.0), (1, 7.0, np.inf)]


@pytest.mark.parametrize("rows, message", [
    ("p2,0,baseline,0.1,300,0\np2,5,event,0", "subject p2: Z0 holds 300.0, not 0 or 1"),
    ("p2,0,baseline,0.1,0,1e300\np2,5,event,0", "subject p2: A0 holds 1e+300, not 0 or 1"),
    ("p2,0,baseline,0.1,1,0\np2,nan,event,0", "subject p2: endpoint time is nan"),
    ("p2,0,baseline,0.1,1,0\np2,5,event,0\np2,nan,exposure_start",
     "subject p2: exposure at t=nan"),
    ("p2,0,baseline,0.1,1,0\np2,5,event,0\np2,1,exposure_start\np2,nan,exposure_stop",
     "subject p2: exposure at t=nan"),
], ids=["z0-300", "a0-1e300", "nan-endpoint", "nan-start", "nan-stop"])
def test_unreadable_subject_values_are_data_errors(tmp_path, rows, message):
    path = tmp_path / "events.csv"
    path.write_text(EVENTS + rows + "\n")
    with pytest.raises(DataError) as info:
        ingest_long_events(read_event_csv(path), GRID)
    assert str(info.value).startswith(message)


# ---------------------------------------------------------------------------
# The columnar writer, readers and ingest against the row loops they replaced,
# kept verbatim below as references: the event path as one row loop reading
# per-subject records and one per-subject ingest loop


def ref_write_panel_csv(panel: TrialPanel, path) -> None:
    cols = panel_columns(panel.K, panel.d_baseline, panel.d_time)
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(cols)
        for i in range(panel.n):
            row: list = [i]
            row += [f"{v:.10g}" for v in panel.L0[i]]
            row += [int(panel.Z0[i]), int(panel.A0[i])]
            for k in range(1, panel.K + 1):
                row += [int(panel.Y[k - 1, i]), int(panel.D[k - 1, i]), int(panel.C[k - 1, i])]
                if k <= panel.K - 1:
                    row += [f"{v:.10g}" for v in panel.L[k - 1, i]]
                    row += [int(panel.A[k - 1, i]), int(panel.Z[k - 1, i])]
            wr.writerow(row)


def ref_read_panel_csv(path) -> TrialPanel:
    """Load a wide panel CSV.  Visit count and covariate widths are inferred
    from the header."""
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        try:
            header = next(rd)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = [r for r in rd if r]
    if header[0] != "id":
        raise DataError(f"{path}: first column must be 'id'")
    K = 0
    while f"Y{K + 1}" in header:
        K += 1
    if K == 0:
        raise DataError(f"{path}: missing required column Y1")
    d = len([c for c in header if c.startswith("L0_")])
    d_time = len([c for c in header if c.startswith("L1_")])
    expected = panel_columns(K, d, d_time)
    missing = [c for c in expected if c not in header]
    if missing:
        raise DataError(f"{path}: missing required column {missing[0]}")
    idx = {c: header.index(c) for c in expected}

    n = len(rows)
    get = lambda r, c: r[idx[c]]
    L0 = np.array([[float(get(r, f"L0_{j + 1}")) for j in range(d)] for r in rows])
    Z0 = np.array([int(float(get(r, "Z0"))) for r in rows], dtype=np.int8)
    A0 = np.array([int(float(get(r, "A0"))) for r in rows], dtype=np.int8)
    Y = np.zeros((K, n), dtype=np.int8)
    D = np.zeros((K, n), dtype=np.int8)
    C = np.zeros((K, n), dtype=np.int8)
    L = np.zeros((K - 1, n, d_time))
    A = np.zeros((K - 1, n), dtype=np.int8)
    Z = np.zeros((K - 1, n), dtype=np.int8)
    for i, r in enumerate(rows):
        for k in range(1, K + 1):
            Y[k - 1, i] = int(float(get(r, f"Y{k}")))
            D[k - 1, i] = int(float(get(r, f"D{k}")))
            C[k - 1, i] = int(float(get(r, f"C{k}")))
            if k <= K - 1:
                for j in range(d_time):
                    L[k - 1, i, j] = float(get(r, f"L{k}_{j + 1}"))
                A[k - 1, i] = int(float(get(r, f"A{k}")))
                Z[k - 1, i] = int(float(get(r, f"Z{k}")))
    return TrialPanel(
        L0=L0, Z0=Z0, A0=A0, Y=Y, D=D, C=C, L=L, A=A, Z=Z,
    )


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


def ref_ingest_long_events(records: list[EventRecord], visit_times) -> TrialPanel:
    """Discretize continuous-time records onto the visit grid.

    Status at visit k is set when the subject's endpoint time falls in the
    right-closed window (t_{k-1}, t_k]; concomitant exposure Z_k is 1 when any
    exposure interval intersects that window; covariates are lagged one visit
    (L_k is the last measurement at or before t_{k-1}) with LOCF for gaps.
    Records with no A information carry the randomized arm forward (A_k = A0).
    """
    visit_times = check_visit_grid(visit_times)
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

    panel = TrialPanel(L0=L0, Z0=Z0, A0=A0, Y=Y, D=D, C=C, L=L, A=A, Z=Z)
    validate_panel(panel)
    return panel


def ref_read_event_csv(path) -> list[EventRecord]:
    """Load long-format event records.

    Rows are ``id,time,kind,v1,v2,...`` with kind one of baseline, event,
    covariate, exposure_start, exposure_stop.  The baseline row carries
    ``v1..vd`` = L0 followed by Z0 and A0; the event row has v1 = delta.  A
    row that cannot be read raises DataError naming its line and field.
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
            try:
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
            except DataError:
                raise
            except (ValueError, IndexError, OverflowError) as exc:
                raise _event_row_error(path, rd.line_num, row, exc) from None
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


FIELDS = ("L0", "Z0", "A0", "Y", "D", "C", "L", "A", "Z")
SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e17, 0.1, -2.5e-7, 123456789012.0]


def assert_same_panel(a, b):
    for f in FIELDS:
        x, y = getattr(a, f), getattr(b, f)
        layout = [(z.dtype, z.shape, z.flags.c_contiguous) for z in (x, y)]
        assert layout[0] == layout[1], f
        assert x.tobytes() == y.tobytes(), f


def wire_panel(n, K, d, d_time, seed):
    """A panel with special floats in every covariate block and indicators
    spanning the int8 range (the wire format does not require a valid panel)."""
    rng = np.random.default_rng(seed)

    def floats(shape):
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
        flat = x.reshape(-1)
        pick = rng.random(flat.size) < 0.2
        flat[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
        flat[: len(SPECIAL)] = SPECIAL[: flat.size]
        return x

    def ints(shape):
        return rng.choice([0, 1, 1, 0, -1, 127, -128, 5], size=shape)

    L0, L = floats((n, d)), floats((K - 1, n, d_time))
    return make_panel(L0, ints(n), ints(n), ints((K, n)), ints((K, n)),
                      ints((K, n)), L, ints((K - 1, n)), ints((K - 1, n)))


WIRE_CASES = [(1, 2, 1, 0), (1, 8, 2, 2), (7, 2, 2, 2), (40, 8, 1, 0), (40, 5, 0, 1),
              (panel_mod._ROW_BLOCK + 3, 3, 2, 2)]


@pytest.mark.parametrize("n, K, d, d_time", WIRE_CASES)
def test_writer_and_reader_match_row_loops(tmp_path, n, K, d, d_time):
    panel = wire_panel(n, K, d, d_time, seed=n + K)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_panel_csv(panel, new)
    ref_write_panel_csv(panel, ref)
    assert new.read_bytes() == ref.read_bytes()
    assert_same_panel(read_panel_csv(ref), ref_read_panel_csv(ref))


def test_writer_matches_row_loop_on_bool_indicators(tmp_path):
    p = wire_panel(9, 3, 1, 1, seed=2)
    flags = {f: getattr(p, f) != 0 for f in ("Z0", "A0", "Y", "D", "C", "A", "Z")}
    panel = TrialPanel(**{f: getattr(p, f) for f in FIELDS} | flags)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    write_panel_csv(panel, new)
    ref_write_panel_csv(panel, ref)
    assert new.read_bytes() == ref.read_bytes()


def rewrite_csv(src, dst, rng, *, eol, reorder, extra, quote, blanks, string_ids,
                float_indicators):
    """Re-spell a panel CSV in ways the csv module reads the same."""
    with open(src, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    if string_ids:
        rows = [[f"subj,{r[0]}"] + r[1:] for r in rows]
    if float_indicators:
        rows = [[r[0]] + [c if h.startswith("L") else rng.choice([f"{c}.0", f" {c}", f"{c}e0"])
                          for h, c in zip(header[1:], r[1:])] for r in rows]
    if extra:
        header = header + ["note"]
        rows = [r + [rng.choice(["x", '"q"', "", "1,2"])] for r in rows]
    if reorder:
        perm = [0] + list(1 + rng.permutation(len(header) - 1))
        header = [header[j] for j in perm]
        rows = [[r[j] for j in perm] for r in rows]
    quoting = csv.QUOTE_ALL if quote else csv.QUOTE_MINIMAL
    with open(dst, "w", newline="") as fh:
        wr = csv.writer(fh, lineterminator=eol, quoting=quoting)
        wr.writerow(header)
        for r in rows:
            wr.writerow(r)
            if blanks and rng.random() < 0.3:
                fh.write(eol)


@pytest.mark.parametrize("shape", [
    dict(eol="\n"), dict(eol="\r"), dict(quote=True), dict(reorder=True), dict(extra=True),
    dict(string_ids=True), dict(blanks=True), dict(float_indicators=True),
    dict(eol="\n", quote=True, reorder=True, extra=True, string_ids=True, blanks=True,
         float_indicators=True),
], ids=["lf", "cr", "quoted", "reordered", "extra_column", "string_ids", "blank_lines",
        "float_indicators", "all"])
def test_reader_matches_row_loop_on_csv_variants(tmp_path, shape):
    rng = np.random.default_rng(17)
    canonical, variant = tmp_path / "panel.csv", tmp_path / "variant.csv"
    panel = wire_panel(30, 4, 2, 2, seed=3)
    ref_write_panel_csv(panel, canonical)
    opts = dict(eol="\r\n", reorder=False, extra=False, quote=False, blanks=False,
                string_ids=False, float_indicators=False) | shape
    rewrite_csv(canonical, variant, rng, **opts)
    assert_same_panel(read_panel_csv(variant), ref_read_panel_csv(variant))
    assert_same_panel(read_panel_csv(variant), read_panel_csv(canonical))


def leader_records(n, grid, seed):
    """LEADER-shaped event records: every endpoint kind, runs of exposure,
    lagged measurements with NaN components, tied and late measurement
    times, and endpoints at or before t_0."""
    rng = np.random.default_rng(seed)
    grid = np.asarray(grid, dtype=float)
    span = grid[-1] - grid[0]
    records = []
    for i in range(n):
        t = grid[0] + rng.uniform(-0.05, 1.2) * span
        covs = []
        for _ in range(rng.integers(0, 9)):
            v = rng.normal(size=2)
            v[rng.random(2) < 0.25] = np.nan
            on_visit = rng.random() < 0.3
            t_m = (grid[rng.integers(0, grid.size)] if on_visit
                   else rng.uniform(grid[0] - 1.0, grid[-1] + 1.0))
            covs.append((t_m, v))
        if covs and rng.random() < 0.3:
            covs.append((covs[-1][0], rng.normal(size=2)))   # tied time, later entry
        expos = []
        for _ in range(rng.integers(0, 3)):
            a = rng.uniform(grid[0], grid[-1])
            expos.append((a, a + rng.exponential(span / 4)))
        records.append(EventRecord(
            subject_id=f"S{i:04d}", t_tilde=max(t, 0.0), delta_tilde=int(rng.integers(0, 3)),
            L0=rng.normal(size=2), Z0=int(rng.integers(0, 2)), A0=int(rng.integers(0, 2)),
            exposure_intervals=expos, covariate_measurements=covs))
    return records


def recorded(fn, *args):
    """What ``fn(*args)`` returns, or the text of the DataError it raises,
    and the (category, message) of every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fn(*args)
        except DataError as exc:
            out = str(exc)
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("grid", [[0.0, 6.0], [0.0, 6.0, 12.0],
                                  [6.0 * k for k in range(9)]], ids=["K1", "K2", "K8"])
def test_ingest_matches_row_loop(grid):
    records = leader_records(300, grid, seed=len(grid))
    new, new_warn = recorded(ingest_long_events, events(*records), grid)
    ref, ref_warn = recorded(ref_ingest_long_events, records, grid)
    assert_same_panel(new, ref)
    assert new_warn == ref_warn and new_warn


def test_ingest_errors_match_row_loop():
    bad = leader_records(20, GRID, seed=4)
    bad[7].covariate_measurements.append((1.0, np.zeros(3)))   # wrong width, lagged in
    for fn, given in ((ingest_long_events, events(*bad)), (ref_ingest_long_events, bad)):
        error, _ = recorded(fn, given, GRID)
        assert error == "subject S0007: covariate width differs at t=1.0"


# ---------------------------------------------------------------------------
# Messy event files, each with at most one fault: the columnar reader and
# ingest against the row loops above, for panels, warnings and errors alike

def load_script(stem):
    path = Path(__file__).resolve().parent.parent / "scripts" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


messy = load_script("compare_outputs")  # its messy-file generator


def _last_row(rows, kind, rng):
    """Index of the last ``kind`` row of a randomly chosen subject that has one."""
    last = {r[0]: j for j, r in enumerate(rows) if r[2] == kind}
    return last[sorted(last)[int(rng.integers(0, len(last)))]] if last else None


def _any_row(rows, rng, *kinds):
    """Index of a random row of one of ``kinds`` that has a value cell."""
    hits = [j for j, r in enumerate(rows) if r[2] in kinds and len(r) > 3]
    return hits[int(rng.integers(0, len(hits)))] if hits else None


def _edit(pick, change):
    """A fault that applies ``change`` to the row ``pick`` chooses (if any)."""
    def fault(rows, rng):
        j = pick(rows, rng)
        if j is not None:
            rows[j] = change(list(rows[j]))
        return rows
    return fault


def _drop(kind):
    def fault(rows, rng):
        sid = rows[int(rng.integers(0, len(rows)))][0]
        return [r for r in rows if not (r[0] == sid and r[2] == kind)]
    return fault


def _random_row(rows, rng):
    return int(rng.integers(0, len(rows)))


FAULTS = {
    "stop_without_start": lambda rows, rng: [[rows[0][0], "1.0", "exposure_stop"]] + rows,
    "no_baseline": _drop("baseline"),
    "no_event": _drop("event"),
    "reversed_run": lambda rows, rng: rows + [[rows[0][0], "5.0", "exposure_start"],
                                              [rows[0][0], "2.0", "exposure_stop"]],
    "bad_time": _edit(_random_row, lambda r: r[:1] + ["soon"] + r[2:]),
    "short_row": _edit(_random_row, lambda r: r[:2]),
    "unknown_kind": _edit(_random_row, lambda r: r[:2] + ["visit"] + r[3:]),
    "bad_value": _edit(lambda rows, rng: _any_row(rows, rng, "covariate", "baseline"),
                       lambda r: r[:3] + ["x"] + r[4:]),
    "no_delta": _edit(lambda rows, rng: _any_row(rows, rng, "event"), lambda r: r[:3]),
    "nan_delta": _edit(lambda rows, rng: _any_row(rows, rng, "event"),
                       lambda r: r[:3] + ["nan"]),
    "short_baseline": _edit(lambda rows, rng: _any_row(rows, rng, "baseline"),
                            lambda r: r[:3] + r[-2:]),
    "negative_endpoint": _edit(lambda rows, rng: _last_row(rows, "event", rng),
                               lambda r: r[:1] + ["-1.5"] + r[2:]),
    "bad_delta": _edit(lambda rows, rng: _last_row(rows, "event", rng),
                       lambda r: r[:3] + ["3"]),
    "nan_baseline": _edit(lambda rows, rng: _last_row(rows, "baseline", rng),
                          lambda r: r[:3] + ["nan"] + r[4:]),
    "wide_baseline": _edit(lambda rows, rng: _last_row(rows, "baseline", rng),
                           lambda r: r[:3] + ["0.5"] + r[3:]),
    "non_binary_z0": _edit(lambda rows, rng: _last_row(rows, "baseline", rng),
                           lambda r: r[:-2] + ["2"] + r[-1:]),
    "wide_measurement": _edit(lambda rows, rng: _any_row(rows, rng, "covariate"),
                              lambda r: r + ["0.5"]),
    "nan_measurement_time": _edit(lambda rows, rng: _any_row(rows, rng, "covariate"),
                                  lambda r: r[:1] + ["nan"] + r[2:]),
}
MESSY_GRIDS = [(0.0, 3.0, 6.0, 9.0, 12.0), (1.0, 4.0, 7.0, 10.0, 13.0), (0.5, 6.5),
               (0.0, 6.0, 12.0)]


def assert_paths_agree(rows, rng, grid, eol, error=None):
    """Write ``rows`` as an event file; both paths give the same panel or
    error text and the same warnings.  With ``error``, the columnar path
    raises that text instead, and its warnings are a prefix of the row
    loops' (which issue every subject's before their final validation)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_text(messy.event_text(rows, rng, eol), newline="")
        (new, new_warn), (ref, ref_warn) = (
            recorded(lambda p: ingest(read(p), grid), path) for read, ingest in (
                (read_event_csv, ingest_long_events), (ref_read_event_csv, ref_ingest_long_events)))
    if error is not None:
        assert new == error and isinstance(ref, str)
        assert new_warn == ref_warn[:len(new_warn)]
        return
    assert new_warn == ref_warn
    if isinstance(ref, str):
        assert new == ref
    else:
        assert_same_panel(new, ref)


MESSY = dict(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
             grid=st.sampled_from(MESSY_GRIDS), eol=st.sampled_from(["\n", "\r\n"]))


@settings(max_examples=150, deadline=None)
@given(**MESSY)
def test_messy_event_files_match_row_loops(seed, n, grid, eol):
    rng = np.random.default_rng(seed)
    assert_paths_agree(messy.messy_event_rows(rng, n, grid), rng, grid, eol)


@settings(max_examples=150, deadline=None)
@given(**MESSY, fault=st.sampled_from(sorted(FAULTS)))
def test_messy_event_files_with_one_fault_match_row_loops(seed, n, grid, eol, fault):
    rng = np.random.default_rng(seed)
    rows = FAULTS[fault](messy.messy_event_rows(rng, n, grid), rng)
    error = None
    if fault == "non_binary_z0":  # ingest names the subject; the row loops, its row
        sid = next(r[0] for r in rows if r[2] == "baseline" and r[-2] == "2")
        error = f"subject {sid}: Z0 holds 2.0, not 0 or 1"
    assert_paths_agree(rows, rng, grid, eol, error)
