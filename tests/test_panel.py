import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dropintmle import panel as panel_mod
from dropintmle.panel import (
    DataError,
    EventRecord,
    TrialPanel,
    at_risk_mask,
    ingest_long_events,
    make_panel,
    panel_columns,
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
        visit_times=np.arange(K + 1, dtype=float),
        L0=np.zeros((n, 1)), Z0=np.zeros(n), A0=np.zeros(n),
        Y=Y, D=D, C=C,
        L=np.zeros((K - 1, n, 1)), A=np.zeros((K - 1, n)), Z=np.zeros((K - 1, n)),
    )


def test_absorbing_violation_reported_with_coordinates():
    Y = np.zeros((3, 2), dtype=np.int8)
    Y[1, 0] = 1  # event at visit 2 ...
    Y[2, 0] = 0  # ... dropped at visit 3
    report = validate_panel(small_panel(Y))
    assert not report.ok
    v = report.violations[0]
    assert v.code == "absorbing" and v.subject == 0 and v.visit == 3


def test_exclusive_first_transition_violation():
    Y = np.zeros((2, 1), dtype=np.int8)
    D = np.zeros((2, 1), dtype=np.int8)
    Y[0, 0] = 1
    D[0, 0] = 1
    report = validate_panel(small_panel(Y, D=D))
    assert any(v.code == "exclusive" and v.visit == 1 for v in report)


def test_valid_simulated_panel_passes(scenario1_panel):
    assert validate_panel(scenario1_panel).ok


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


GRID = [0.0, 3.0, 6.0, 9.0, 12.0]


def test_event_lands_in_right_closed_window():
    # endpoint at 4.2 months on a 3-month grid: visit 2 carries the event
    p = ingest_long_events([rec(t=4.2, delta=1)], GRID)
    assert p.y_at(1)[0] == 0 and p.y_at(2)[0] == 1 and p.y_at(4)[0] == 1
    # exactly on a visit time belongs to that visit
    p = ingest_long_events([rec(t=6.0, delta=2)], GRID)
    assert p.d_at(1)[0] == 0 and p.d_at(2)[0] == 1


def test_censoring_and_death_channels():
    p = ingest_long_events([rec(t=7.0, delta=0)], GRID)
    assert p.c_at(3)[0] == 1 and p.y_at(3)[0] == 0 and p.d_at(3)[0] == 0
    assert validate_panel(p).ok


def test_exposure_any_overlap_rule():
    # interval (3.1, 5.0): not exposed in (0,3], exposed in (3,6]
    p = ingest_long_events([rec(expos=[(3.1, 5.0)])], GRID)
    assert p.z_at(1)[0] == 0 and p.z_at(2)[0] == 1 and p.z_at(3)[0] == 0


def test_exposure_stop_on_boundary_not_carried():
    p = ingest_long_events([rec(expos=[(1.0, 3.0)])], GRID)
    assert p.z_at(1)[0] == 1 and p.z_at(2)[0] == 0


def test_covariate_lagged_one_visit_with_locf():
    covs = [(0.0, (1.0,)), (5.9, (2.0,))]
    p = ingest_long_events([rec(covs=covs)], GRID)
    # L_k reflects the last measurement at or before visit k-1
    assert p.l_at(1)[0, 0] == 1.0   # measurement at 5.9 not yet seen at t_0
    assert p.l_at(2)[0, 0] == 1.0   # at t_1 = 3 the 5.9 draw is still future
    assert p.l_at(3)[0, 0] == 2.0   # visible from t_2 = 6 onward


def test_baseline_only_covariate_locf_everywhere():
    p = ingest_long_events([rec(L0=(0.7,))], GRID)
    assert np.all(p.L[:, 0, 0] == 0.7)


def test_missing_baseline_rejected():
    with pytest.raises(DataError):
        ingest_long_events([rec(L0=(np.nan,))], GRID)


def test_empty_grid_rejected():
    with pytest.raises(DataError):
        ingest_long_events([rec()], [0.0])


def test_measurement_after_last_visit_warns():
    with pytest.warns(UserWarning):
        ingest_long_events([rec(covs=[(99.0, (1.0,))])], GRID)


def test_event_at_time_zero_warns_and_maps_to_visit_one():
    with pytest.warns(UserWarning):
        p = ingest_long_events([rec(t=0.0, delta=1)], GRID)
    assert p.y_at(1)[0] == 1


def test_ingest_discretization_idempotent():
    # re-discretizing per-visit event times reproduces the panel exactly
    records = [
        rec("a", t=4.2, delta=1, expos=[(0.5, 7.0)]),
        rec("b", t=10.0, delta=2),
        rec("c", t=100.0, delta=1, expos=[(8.0, 9.0)]),
        rec("d", t=11.9, delta=0),
    ]
    p1 = ingest_long_events(records, GRID)
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
    p2 = ingest_long_events(rows, GRID)
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
    p = ingest_long_events([rec(expos=[(start, stop)])], GRID)
    probes = np.linspace(start, stop, 2001)
    for k in range(1, len(GRID) - 1):
        lo, hi = GRID[k - 1], GRID[k]
        expected = bool(np.any((probes > lo) & (probes <= hi)))
        assert bool(p.z_at(k)[0]) == expected


def test_panel_csv_round_trip(tmp_path, scenario1_panel):
    path = tmp_path / "panel.csv"
    write_panel_csv(scenario1_panel, path)
    back = read_panel_csv(path)
    assert back.n == scenario1_panel.n and back.K == scenario1_panel.K
    assert np.array_equal(back.Y, scenario1_panel.Y)
    assert np.array_equal(back.Z, scenario1_panel.Z)
    assert np.allclose(back.L0, scenario1_panel.L0)
    assert np.allclose(back.L, scenario1_panel.L)


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
        ingest_long_events([rec(covs=[(1.0, (0.2,)), (7.0, (1.0, 2.0))])], GRID)


def test_measurement_at_nan_time_rejected():
    with pytest.raises(DataError, match="t=nan"):
        ingest_long_events([rec(covs=[(1.0, (0.2,)), (np.nan, (1.0,))])], GRID)


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
# The columnar writer, reader and ingest against the row loops they replaced,
# kept verbatim below as references


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


def ref_read_panel_csv(path, visit_times=None) -> TrialPanel:
    """Load a wide panel CSV.  Visit count and covariate widths are inferred
    from the header; ``visit_times`` defaults to 0, 1, ..., K."""
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
    if visit_times is None:
        visit_times = np.arange(K + 1, dtype=float)
    return TrialPanel(
        visit_times=np.asarray(visit_times, dtype=float),
        L0=L0, Z0=Z0, A0=A0, Y=Y, D=D, C=C, L=L, A=A, Z=Z,
    )


def ref_ingest_long_events(records: list[EventRecord], visit_times) -> TrialPanel:
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
    d_time = None
    for r in records:
        for _, vec in r.covariate_measurements:
            d_time = np.asarray(vec, dtype=float).size
            break
        if d_time is not None:
            break
    if d_time is None:
        d_time = d

    L0 = np.zeros((n, d))
    Z0 = np.zeros(n, dtype=np.int8)
    A0 = np.zeros(n, dtype=np.int8)
    Y = np.zeros((K, n), dtype=np.int8)
    D = np.zeros((K, n), dtype=np.int8)
    C = np.zeros((K, n), dtype=np.int8)
    L = np.zeros((K - 1, n, d_time))
    A = np.zeros((K - 1, n), dtype=np.int8)
    Z = np.zeros((K - 1, n), dtype=np.int8)

    t_last = visit_times[-1]
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
            warnings.warn(
                f"subject {rec.subject_id}: endpoint at or before t_0; assigned to visit 1"
            )
            k_ev = 1
        elif t_ev > t_last:
            k_ev = None  # event-free over the panel window
        else:
            k_ev = int(np.searchsorted(visit_times, t_ev, side="left"))
        if k_ev is not None:
            target = {1: Y, 2: D, 0: C}[rec.delta_tilde]
            target[k_ev - 1:, i] = 1

        meas = sorted(rec.covariate_measurements, key=lambda m: m[0])
        for t_m, _ in meas:
            if t_m > t_last:
                warnings.warn(
                    f"subject {rec.subject_id}: covariate measured after last visit; truncated"
                )
        intervals = rec.normalized_intervals()
        current = base[:d_time].copy()
        for k in range(1, K):
            # lag rule: L_k reflects what was known at visit k-1
            for t_m, vec in meas:
                if t_m <= visit_times[k - 1]:
                    v = np.asarray(vec, dtype=float).reshape(-1)
                    if v.size != d_time:
                        raise DataError(
                            f"subject {rec.subject_id}: covariate width differs at t={t_m}"
                        )
                    finite = np.isfinite(v)
                    current[finite] = v[finite]  # LOCF for missing components
            L[k - 1, i] = current
            lo, hi = visit_times[k - 1], visit_times[k]
            exposed = any(a <= hi and b > lo for a, b in intervals)
            Z[k - 1, i] = 1 if exposed else 0
            A[k - 1, i] = A0[i]

    panel = TrialPanel(
        visit_times=visit_times, L0=L0, Z0=Z0, A0=A0,
        Y=Y, D=D, C=C, L=L, A=A, Z=Z,
    )
    report = validate_panel(panel)
    if not report.ok:
        first = report.violations[0]
        raise DataError(f"ingested panel invalid: {first.message} (subject {first.subject})")
    return panel


FIELDS = ("visit_times", "L0", "Z0", "A0", "Y", "D", "C", "L", "A", "Z")
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
    return make_panel(np.arange(K + 1.0), L0, ints(n), ints(n), ints((K, n)), ints((K, n)),
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
    assert_same_panel(read_panel_csv(ref, [0.0, 0.5, *range(1, K)]),
                      ref_read_panel_csv(ref, [0.0, 0.5, *range(1, K)]))


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
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@pytest.mark.parametrize("grid", [[0.0, 6.0], [0.0, 6.0, 12.0],
                                  [6.0 * k for k in range(9)]], ids=["K1", "K2", "K8"])
def test_ingest_matches_row_loop(grid):
    records = leader_records(300, grid, seed=len(grid))
    (new, new_warn), (ref, ref_warn) = (recorded(f, records, grid)
                                        for f in (ingest_long_events, ref_ingest_long_events))
    assert_same_panel(new, ref)
    assert new_warn == ref_warn and new_warn


def test_ingest_errors_match_row_loop():
    bad = leader_records(20, GRID, seed=4)
    bad[7].covariate_measurements.append((1.0, np.zeros(3)))   # wrong width, lagged in
    for fn in (ingest_long_events, ref_ingest_long_events):
        with pytest.raises(DataError, match="S0007: covariate width differs at t=1.0"):
            recorded(fn, bad, GRID)
