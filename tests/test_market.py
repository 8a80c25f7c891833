import json
import warnings

import numpy as np
import pytest

from mgdpr.errors import (
    ConfigError,
    CoverageError,
    DataError,
    EmptyInputError,
    FormatError,
    InsufficientDataError,
)
from mgdpr.market import (
    MAX_CELL,
    RELATIONS,
    InstrumentSeries,
    align_panel,
    label_balance,
    load_csv,
    make_windows,
    read_panel,
    split_periods,
    write_panel,
)
from mgdpr.synthetic import planted_market


def _dates(n, start=1):
    return [f"2020-01-{d:02d}" for d in range(start, start + n)]


def _series(ticker, dates, base=10.0):
    rows = len(dates)
    values = np.zeros((rows, 5))
    for j in range(rows):
        close = base + j
        values[j] = [close * 0.99, close * 1.01, close * 0.98, close, 1000.0 + j]
    return InstrumentSeries(ticker=ticker, dates=list(dates), values=values)


def _write_csv(path, rows, header="date,open,high,low,close,volume"):
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(str(v) for v in row) + "\n")


class TestLoadCsv:
    def test_well_formed_file(self, tmp_path):
        path = tmp_path / "AAA.csv"
        _write_csv(path, [(d, 1, 2, 0.5, 1.5, 100) for d in _dates(3)])
        series = load_csv(path)
        assert len(series) == 1
        assert series[0].ticker == "AAA"
        assert len(series[0]) == 3
        assert series[0].dropped_rows == 0

    def test_missing_close_column(self, tmp_path):
        path = tmp_path / "AAA.csv"
        _write_csv(path, [(d, 1, 2, 0.5, 100) for d in _dates(3)], header="date,open,high,low,volume")
        with pytest.raises(FormatError, match="close"):
            load_csv(path)

    def test_header_naming_a_column_twice_raises_naming_it(self, tmp_path):
        # Read by name, the rows would give the second close column's 9.0.
        path = tmp_path / "AAA.csv"
        rows = [(d, 1, 2, 0.5, 1.5, 100, 9.0) for d in _dates(3)]
        _write_csv(path, rows, header="date,open,high,low,close,volume,close")
        with pytest.raises(FormatError, match=f"^{path}: header names the column 'close' twice$"):
            load_csv(path)

    def test_unparsable_volume_drops_row(self, tmp_path):
        path = tmp_path / "AAA.csv"
        _write_csv(path, [("2020-01-01", 1, 2, 0.5, 1.5, 100), ("2020-01-02", 1, 2, 0.5, 1.5, "abc")])
        series = load_csv(path)
        assert len(series[0]) == 1
        assert series[0].dropped_rows == 1

    def test_nonpositive_price_drops_row(self, tmp_path):
        path = tmp_path / "AAA.csv"
        _write_csv(path, [("2020-01-01", 1, 2, 0.5, 1.5, 100), ("2020-01-02", 0, 2, 0.5, 1.5, 10)])
        series = load_csv(path)
        assert len(series[0]) == 1 and series[0].dropped_rows == 1

    def test_long_file_with_ticker_column(self, tmp_path):
        path = tmp_path / "all.csv"
        rows = [("2020-01-01", 1, 2, 0.5, 1.5, 100, "B"), ("2020-01-01", 1, 2, 0.5, 1.5, 100, "A")]
        _write_csv(path, rows, header="date,open,high,low,close,volume,ticker")
        series = load_csv(path)
        assert [s.ticker for s in series] == ["A", "B"]

    def test_directory_of_files(self, tmp_path):
        for t in ("AAA", "BBB"):
            _write_csv(tmp_path / f"{t}.csv", [(d, 1, 2, 0.5, 1.5, 100) for d in _dates(3)])
        assert [s.ticker for s in load_csv(tmp_path)] == ["AAA", "BBB"]

    def test_ticker_in_two_files_rejected(self, tmp_path):
        rows = [(d, 1, 2, 0.5, 1.5, 100) for d in _dates(3)]
        _write_csv(tmp_path / "AAA.csv", rows)
        long_rows = [(*r, "AAA") for r in rows]
        _write_csv(tmp_path / "long.csv", long_rows, header="date,open,high,low,close,volume,ticker")
        with pytest.raises(FormatError, match="'AAA'") as e:
            load_csv(tmp_path)
        assert str(tmp_path / "AAA.csv") in str(e.value) and str(tmp_path / "long.csv") in str(e.value)

    @pytest.mark.parametrize("ticker", ["../../escaped", "sub/AAA", "sub\\AAA", ".hidden", "..", "", "A\0B"])
    def test_ticker_that_is_not_a_file_name_stem_rejected(self, tmp_path, ticker):
        path = tmp_path / "long.csv"
        rows = [(d, 1, 2, 0.5, 1.5, 100, t) for d in _dates(3) for t in ("AAA", ticker)]
        _write_csv(path, rows, header="date,open,high,low,close,volume,ticker")
        with pytest.raises(FormatError, match=f"{path}: ticker "):
            load_csv(path)

    def test_hidden_file_stem_rejected(self, tmp_path):
        _write_csv(tmp_path / ".AAA.csv", [(d, 1, 2, 0.5, 1.5, 100) for d in _dates(3)])
        with pytest.raises(FormatError, match="'.AAA'"):
            load_csv(tmp_path / ".AAA.csv")

    def test_bare_cr_line_endings_load(self, tmp_path):
        path = tmp_path / "AAA.csv"
        _write_csv(path, [(d, 1, 2, 0.5, 1.5, 100) for d in _dates(3)])
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        (series,) = load_csv(path)
        assert series.dates == _dates(3) and series.dropped_rows == 0

    def test_field_over_the_csv_size_limit_rejected(self, tmp_path):
        path = tmp_path / "AAA.csv"
        huge = '"' + "9" * 131073 + '"'  # one quoted field over csv's default limit of 131,072 characters
        _write_csv(path, [(d, 1, 2, 0.5, 1.5, 100) for d in _dates(3)] + [("2020-01-09", 1, 2, 0.5, 1.5, huge)])
        with pytest.raises(FormatError, match=f"{path}: unreadable raw CSV \\(field larger than field limit"):
            load_csv(path)

    def test_zero_valid_rows(self, tmp_path):
        _write_csv(tmp_path / "AAA.csv", [("not-a-date", 1, 2, 0.5, 1.5, 100)])
        with pytest.raises(EmptyInputError):
            load_csv(tmp_path / "AAA.csv")

    def test_empty_directory(self, tmp_path):
        with pytest.raises(EmptyInputError):
            load_csv(tmp_path)

    def test_rows_sorted_and_deduplicated(self, tmp_path):
        path = tmp_path / "AAA.csv"
        rows = [("2020-01-02", 2, 3, 1, 2.5, 10), ("2020-01-01", 1, 2, 0.5, 1.5, 10), ("2020-01-02", 9, 9, 9, 9, 9)]
        _write_csv(path, rows)
        s = load_csv(path)[0]
        assert s.dates == ["2020-01-01", "2020-01-02"]
        assert s.values[1, 3] == 2.5  # first occurrence wins
        assert s.dropped_rows == 1


class TestAlignPanel:
    def test_identical_calendars_nothing_filled(self):
        d = _dates(10)
        panel = align_panel([_series("A", d), _series("B", d, base=20.0)])
        assert panel.num_stocks == 2 and panel.num_days == 10
        assert panel.fill_counts == {"A": 0, "B": 0}

    def test_one_missing_day_in_hundred_is_retained_and_filled(self):
        dates = [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(100)]
        full = _series("A", dates)
        gappy_dates = dates[:50] + dates[51:]
        gappy = _series("B", gappy_dates, base=30.0)
        panel = align_panel([full, gappy])
        assert "B" in panel.tickers and panel.fill_counts["B"] == 1
        i = panel.tickers.index("B")
        j = panel.calendar.index(dates[50])
        # forward-filled prices from the previous day, volume floored to 1
        np.testing.assert_array_equal(panel.data[i, :4, j], panel.data[i, :4, j - 1])
        assert panel.data[i, 4, j] == 1.0

    def test_ninety_percent_presence_is_dropped(self):
        dates = [f"2020-{1 + d // 28:02d}-{1 + d % 28:02d}" for d in range(100)]
        full = _series("A", dates)
        sparse = _series("B", dates[:90], base=30.0)
        third = _series("C", dates, base=50.0)
        panel = align_panel([full, sparse, third])
        assert panel.tickers == ["A", "C"]

    def test_all_dropped_reports_presence(self):
        a = _series("A", _dates(10))
        b = _series("B", _dates(10, start=12), base=20.0)
        with pytest.raises(CoverageError, match="A="):
            align_panel([a, b], coverage=1.0)

    @pytest.mark.parametrize("coverage", [0, -0.5, 1.5])
    def test_coverage_outside_unit_interval_is_config_error(self, coverage):
        # C trades only outside the shared calendar, so at coverage 0 it
        # would be kept with no observation to fill from
        d = _dates(10)
        series = [_series("A", d), _series("B", d, base=20.0), _series("C", _dates(5, start=20), base=7.0)]
        with pytest.raises(ConfigError, match=r"coverage must be in \(0, 1\]"):
            align_panel(series, coverage=coverage)
        assert align_panel(series, coverage=1.0).tickers == ["A", "B"]

    def test_needs_two_series(self):
        with pytest.raises(DataError):
            align_panel([_series("A", _dates(5))])

    def test_leading_gap_backfilled(self):
        d = _dates(10)
        late = InstrumentSeries("B", d[2:], _series("x", d[2:], base=40.0).values)
        panel = align_panel([_series("A", d), late], coverage=0.5)
        i = panel.tickers.index("B")
        np.testing.assert_array_equal(panel.data[i, :4, 0], panel.data[i, :4, 2])
        assert panel.data[i, 4, 0] == 1.0  # leading volume gap floored

    def test_leading_interior_and_trailing_gaps(self):
        d = _dates(8)
        full = _series("A", d)
        gappy = _series("B", d, base=40.0)
        keep = [2, 3, 5, 6]  # gaps at 0-1 (leading), 4 (interior), 7 (trailing)
        panel = align_panel([full, InstrumentSeries("B", [d[j] for j in keep], gappy.values[keep])], coverage=0.5)
        assert panel.fill_counts == {"A": 0, "B": 4}
        close = panel.data[panel.tickers.index("B"), 3]
        np.testing.assert_array_equal(close, [42.0, 42.0, 42.0, 43.0, 43.0, 45.0, 46.0, 46.0])
        volume = panel.data[panel.tickers.index("B"), 4]
        np.testing.assert_array_equal(volume, [1.0, 1.0, 1002.0, 1003.0, 1.0, 1005.0, 1006.0, 1.0])


class TestMakeWindows:
    def _panel(self, t_len):
        d = _dates(t_len) if t_len <= 28 else [f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(t_len)]
        return align_panel([_series("A", d), _series("B", d, base=40.0)])

    def test_boundary_count(self):
        assert len(make_windows(self._panel(22), 21)) == 1

    def test_count_formula(self):
        assert len(make_windows(self._panel(25), 21)) == 4

    def test_insufficient_days(self):
        with pytest.raises(InsufficientDataError):
            make_windows(self._panel(21), 21)

    def test_label_uses_next_day_close(self):
        panel = align_panel(planted_market(num_stocks=7, num_days=40, momentum_lag=3, seed=4))
        samples = make_windows(panel, 5)
        assert [s.t_index for s in samples] == list(range(4, 39))
        close = panel.data[:, RELATIONS.index("close"), :]
        for s in samples:
            expected = [1 if close[i, s.t_index + 1] > close[i, s.t_index] else 0 for i in range(7)]
            assert s.labels.dtype == np.int64
            assert s.labels.tolist() == expected
        assert 0 < label_balance(samples) < 1

    def test_tie_labels_zero(self):
        panel = self._panel(23)
        close = panel.data[:, RELATIONS.index("close"), :]
        close[:, 20:] = [[30.0, 31.0, 31.0], [30.0, 31.0, 30.0]]  # both rise, then A ties and B falls
        first, last = make_windows(panel, 21)
        assert first.labels.tolist() == [1, 1]
        assert last.labels.tolist() == [0, 0]

    def test_raw_window_equals_panel_slice_exactly(self):
        panel = self._panel(25)
        for s in make_windows(panel, 21):
            expected = panel.data[:, :, s.t_index - 20 : s.t_index + 1].transpose(1, 0, 2)
            assert np.array_equal(s.raw, expected)

    def test_raw_is_a_read_only_view_of_the_panel(self):
        panel = self._panel(25)
        samples = make_windows(panel, 21)
        for s in samples:
            assert np.shares_memory(s.raw, panel.data)
            assert not s.raw.flags.writeable
            with pytest.raises(ValueError):
                s.raw[0, 0, 0] = 1.0
        panel.data[1, 4, samples[-1].t_index] = 5.0  # raw follows the panel
        assert samples[-1].raw[4, 1, -1] == 5.0
        assert panel.data.flags.writeable

    def test_non_finite_close_raises_data_error(self):
        panel = self._panel(25)
        panel.data[0, 3, 22] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            make_windows(panel, 21)

    def test_price_whose_square_overflows_raises_data_error_without_warning(self):
        panel = self._panel(25)
        panel.data[1, RELATIONS.index("close"), 22] = 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError) as error:
                make_windows(panel, 21)
        assert str(error.value) == "B: close 1e+160 on 2020-01-23 exceeds 1e+150 in magnitude"

    def test_largest_allowed_cell_is_kept(self):
        panel = self._panel(25)
        panel.data[1, RELATIONS.index("close"), 22] = MAX_CELL
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = make_windows(panel, 21)
        assert np.isfinite(samples[-1].features).all()

    def test_features_are_zscored_raw(self):
        panel = self._panel(25)
        for s in make_windows(panel, 21):
            np.testing.assert_allclose(s.features.mean(axis=-1), 0.0, atol=1e-12)
            std = s.raw.std(axis=-1)
            expected = np.where(std < 1e-12, 0.0, 1.0)
            np.testing.assert_allclose(s.features.std(axis=-1), expected, atol=1e-9)

    def test_label_balance_reported(self):
        samples = make_windows(self._panel(25), 21)
        balance = label_balance(samples)
        assert 0.0 <= balance <= 1.0


class TestSplitPeriods:
    def _samples(self):
        d = [f"2020-{1 + i // 28:02d}-{1 + i % 28:02d}" for i in range(40)]
        panel = align_panel([_series("A", d), _series("B", d, base=40.0)])
        return panel, make_windows(panel, 5)

    def test_partition_no_overlap(self):
        panel, samples = self._samples()
        cal = panel.calendar
        tr, va, te = split_periods(samples, (cal[0], cal[14]), (cal[15], cal[24]), (cal[25], cal[-1]))
        ids = [s.t_index for s in tr + va + te]
        assert len(ids) == len(set(ids))
        assert set(ids) <= {s.t_index for s in samples}

    def test_boundary_sample_excluded_from_both(self):
        panel, samples = self._samples()
        cal = panel.calendar
        tr, va, _ = split_periods(samples, (cal[0], cal[14]), (cal[15], cal[24]), None)
        # the sample whose end day is cal[14] has its label on cal[15]: leaks both ways
        boundary = [s for s in samples if s.end_date == cal[14]]
        assert boundary and all(s not in tr and s not in va for s in boundary)
        assert all(s.label_date <= cal[14] for s in tr)

    def test_empty_test_range_ok(self):
        _, samples = self._samples()
        _, _, te = split_periods(samples, ("2020-01-01", "2020-01-28"), None, None)
        assert te == []

    def test_overlapping_ranges_rejected(self):
        _, samples = self._samples()
        with pytest.raises(ConfigError, match="disjoint"):
            split_periods(samples, ("2020-01-01", "2020-01-20"), ("2020-01-20", "2020-01-28"), None)

    def test_backwards_range_rejected(self):
        _, samples = self._samples()
        with pytest.raises(ConfigError):
            split_periods(samples, ("2020-01-20", "2020-01-01"), None, None)


class TestPanelCache:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        d = _dates(12)
        series = [_series("A", d), _series("B", d, base=40.0)]
        panel = align_panel(series)
        panel.data[:, :4, :] *= 1.0 + rng.uniform(0.0, 0.37, size=panel.data[:, :4, :].shape)
        write_panel(panel, tmp_path / "panel")
        reloaded = read_panel(tmp_path / "panel")
        assert reloaded.tickers == panel.tickers
        assert reloaded.calendar == panel.calendar
        assert reloaded.data.tobytes() == panel.data.tobytes()
        assert reloaded.fill_counts == panel.fill_counts

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            read_panel(tmp_path)

    def _written(self, tmp_path):
        d = _dates(12)
        panel = align_panel([_series("A", d), _series("B", d, base=40.0)])
        write_panel(panel, tmp_path)
        return panel

    def test_manifest_records_panel_digest(self, tmp_path):
        panel = self._written(tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["panel_sha256"] == panel.digest()

    def test_manifest_without_digest_rejected(self, tmp_path):
        self._written(tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest["panel_sha256"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(FormatError, match="panel_sha256"):
            read_panel(tmp_path)

    def test_one_table_with_a_row_per_stock_and_relation(self, tmp_path):
        panel = self._written(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "panel.csv"]
        lines = (tmp_path / "panel.csv").read_text().split("\n")
        assert lines[0] == "stock,relation," + ",".join(panel.calendar)
        assert lines[-1] == "" and len(lines) == 2 + 2 * 5
        assert lines[4] == "0,close," + ",".join(map(repr, panel.data[0, 3].tolist()))
        assert lines[-2].startswith("1,volume,")
