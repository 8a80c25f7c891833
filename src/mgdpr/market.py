"""OHLCV ingestion, calendar alignment, windowing, and trend labels.

Raw per-stock indicator files come in as CSV (UTF-8, ISO-8601 dates, header
``date,open,high,low,close,volume``), either one file per ticker or one long
file with an extra ``ticker`` column. Series are aligned onto a shared
trading calendar, gap-filled, and cut into lookback windows, each labeled
by one comparison: 1 where a stock's next-day close is strictly higher.
Every price is positive and every cell at most ``MAX_CELL`` in magnitude
(:meth:`MarketPanel.validate`), so no window's sum of squares overflows.

Each window is seen two ways: ``raw``, a read-only view of the panel slice
that feeds graph generation (energy ratios are meaningless after
standardization), and ``features``, its per-stock per-indicator z-scores,
which feed the model.

The aligned panel is cached as ``manifest.json`` plus one table,
``panel.csv``: a row per (stock index, relation), a column per calendar
date (:func:`write_panel`, :func:`read_panel`).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    CoverageError,
    DataError,
    EmptyInputError,
    FormatError,
    InsufficientDataError,
)
from .files import read_json_object, read_table, read_text, write_atomic, write_table

RELATIONS = ("open", "high", "low", "close", "volume")
CLOSE = RELATIONS.index("close")
VOLUME = RELATIONS.index("volume")
# Largest cell magnitude a panel holds: x * x summed over 1e8 such cells is finite.
MAX_CELL = 1e150

_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")
_REQUIRED = ("date",) + RELATIONS


@dataclass
class InstrumentSeries:
    """One stock's per-date OHLCV records, strictly increasing in date."""

    ticker: str
    dates: list[str]
    values: np.ndarray  # (num_dates, 5) in RELATIONS order
    dropped_rows: int = 0

    def __len__(self) -> int:
        return len(self.dates)


@dataclass
class MarketPanel:
    """Aligned stocks x indicators x trading days array plus its calendar."""

    tickers: list[str]
    calendar: list[str]
    data: np.ndarray  # (num_stocks, 5, num_days)
    fill_counts: dict[str, int] = field(default_factory=dict)

    @property
    def num_stocks(self) -> int:
        return len(self.tickers)

    @property
    def num_days(self) -> int:
        return len(self.calendar)

    def validate(self) -> None:
        n, r, t = self.data.shape
        if n != len(self.tickers) or t != len(self.calendar) or r != len(RELATIONS):
            raise DataError(f"panel shape {self.data.shape} disagrees with tickers/calendar lengths")
        if n < 2:
            raise DataError("panel needs at least 2 stocks")
        if not np.all(np.isfinite(self.data)):
            raise DataError("panel contains non-finite cells")
        if np.any(self.data[:, :VOLUME, :] <= 0.0):
            raise DataError("panel contains non-positive prices")
        huge = np.abs(self.data) > MAX_CELL
        if huge.any():
            i, r, t = np.argwhere(huge)[0]
            cell = f"{self.tickers[i]}: {RELATIONS[r]} {float(self.data[i, r, t])!r} on {self.calendar[t]}"
            raise DataError(f"{cell} exceeds {MAX_CELL:.0e} in magnitude")

    def digest(self) -> str:
        """SHA-256 over the tickers, the calendar, the gap-fill counts and the data bytes."""
        header = json.dumps([self.tickers, self.calendar, self.fill_counts], sort_keys=True)
        h = hashlib.sha256(header.encode("utf-8"))
        h.update(np.ascontiguousarray(self.data, dtype="<f8").tobytes())
        return h.hexdigest()


@dataclass
class WindowSample:
    """One training instance: a lookback window ending at day ``t_index``.

    ``raw`` is a read-only view of the panel slice, so it follows
    ``panel.data``; ``features`` is its per-(stock, indicator) z-scored
    copy; ``labels[i]`` flags whether stock i's close rises on the
    following trading day.
    """

    t_index: int
    end_date: str
    label_date: str
    features: np.ndarray  # (5, num_stocks, lookback)
    raw: np.ndarray  # (5, num_stocks, lookback) view into MarketPanel.data
    labels: np.ndarray  # (num_stocks,) of {0, 1}


# ---------------------------------------------------------------------------
# loading


def _series_from_rows(ticker: str, rows: list[tuple[str, list[float]]], dropped: int) -> InstrumentSeries:
    rows.sort(key=lambda r: r[0])
    dates: list[str] = []
    values: list[list[float]] = []
    for date, vals in rows:
        if dates and date == dates[-1]:
            dropped += 1  # duplicate trading day, keep the first occurrence
            continue
        dates.append(date)
        values.append(vals)
    arr = np.asarray(values, dtype=np.float64).reshape(len(dates), len(RELATIONS))
    return InstrumentSeries(ticker=ticker, dates=dates, values=arr, dropped_rows=dropped)


def _check_ticker(path: Path, ticker: str) -> None:
    """A ticker is what a per-ticker raw file's stem can be, so that a long
    file and a directory of per-ticker files hold the same tickers."""
    if not ticker or ticker.startswith(".") or any(c in ticker for c in "/\\\0"):
        raise FormatError(f"{path}: ticker {ticker!r} is empty, starts with '.' or holds '/', '\\' or NUL")


def _load_one_file(path: Path) -> list[InstrumentSeries]:
    groups: dict[str, list[tuple[str, list[float]]]] = {}
    dropped: dict[str, int] = {}
    reader = csv.DictReader(io.StringIO(read_text(path, "raw CSV")))
    try:
        headers = reader.fieldnames or []
        repeated = [c for i, c in enumerate(headers) if c in headers[:i]]
        if repeated:
            raise FormatError(f"{path}: header names the column {repeated[0]!r:.80} twice")
        missing = [c for c in _REQUIRED if c not in headers]
        if missing:
            raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
        has_ticker = "ticker" in headers
        for row in reader:
            ticker = (row.get("ticker") or "") if has_ticker else path.stem
            try:
                date = (row["date"] or "").strip()
                if not _DATE_RE.match(date):
                    raise ValueError(date)
                vals = [float(row[c]) for c in RELATIONS]
                if not all(np.isfinite(vals)):
                    raise ValueError("non-finite")
                if any(v <= 0.0 for v in vals[:VOLUME]) or vals[VOLUME] < 0.0:
                    raise ValueError("non-positive price")
            except (KeyError, TypeError, ValueError):
                dropped[ticker] = dropped.get(ticker, 0) + 1
                continue
            groups.setdefault(ticker, []).append((date, vals))
    except csv.Error as e:
        raise FormatError(f"{path}: unreadable raw CSV ({e})") from None
    for ticker in dropped:
        groups.setdefault(ticker, [])
    for ticker in groups:
        _check_ticker(path, ticker)
    return [
        _series_from_rows(t, rows, dropped.get(t, 0)) for t, rows in sorted(groups.items())
    ]


def load_csv(path) -> list[InstrumentSeries]:
    """Load instrument series from one CSV file or a directory of them.

    Rows with missing or unparsable fields (including non-positive prices
    and negative volume) are dropped and counted on ``dropped_rows``. A
    ticker (a file's stem, or each row's ``ticker`` cell) must be a plain
    file-name stem, as in a directory of per-ticker files: not empty, no
    leading ``.``, no ``/``, ``\\`` or NUL. It must also come from one file
    only. Otherwise, for a header that names a column twice, and for a file
    the ``csv`` module cannot parse (such as a field over its size limit),
    :class:`FormatError`.
    """
    path = Path(path)
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise EmptyInputError(f"{path}: no CSV files found")
        series: list[InstrumentSeries] = []
        sources: dict[str, Path] = {}
        for f in files:
            for s in _load_one_file(f):
                if s.ticker in sources:
                    raise FormatError(f"ticker {s.ticker!r} appears in both {sources[s.ticker]} and {f}")
                sources[s.ticker] = f
                series.append(s)
    else:
        if not path.exists():
            raise FormatError(f"{path}: no such file")
        series = _load_one_file(path)
    series = [s for s in series if len(s) > 0]
    if not series:
        raise EmptyInputError(f"{path}: zero valid rows")
    return series


# ---------------------------------------------------------------------------
# alignment


def align_panel(series: list[InstrumentSeries], coverage: float = 0.98) -> MarketPanel:
    """Align series onto a shared calendar and gap-fill the survivors.

    The calendar keeps dates present in at least half the series. A stock
    must be present on at least ``coverage`` of those dates to survive;
    ``coverage`` outside (0, 1] raises :class:`ConfigError`. Price gaps are
    forward-filled (leading gaps back-filled); volume gaps are filled with
    0, and all volumes are then floored to 1 so signal energy stays bounded
    away from zero.
    """
    if not 0.0 < coverage <= 1.0:
        raise ConfigError(f"coverage must be in (0, 1], got {coverage}")
    if len(series) < 2:
        raise DataError(f"alignment needs at least 2 series, got {len(series)}")
    counts: dict[str, int] = {}
    for s in series:
        for d in s.dates:
            counts[d] = counts.get(d, 0) + 1
    calendar = sorted(d for d, c in counts.items() if 2 * c >= len(series))
    if not calendar:
        raise CoverageError("no date is present in at least half the series")

    presence = {
        s.ticker: len(set(s.dates) & set(calendar)) / len(calendar) for s in series
    }
    kept = [s for s in series if presence[s.ticker] >= coverage]
    if not kept:
        detail = ", ".join(f"{t}={p:.3f}" for t, p in sorted(presence.items()))
        raise CoverageError(f"every stock fell below coverage {coverage}: {detail}")

    n, t_len = len(kept), len(calendar)
    data = np.empty((n, len(RELATIONS), t_len), dtype=np.float64)
    fill_counts: dict[str, int] = {}
    for i, s in enumerate(kept):
        index = {d: k for k, d in enumerate(s.dates)}
        rows = np.array([index.get(d, -1) for d in calendar])
        present = rows >= 0
        # each date reads its latest observed date; leading gaps read the first
        source = np.maximum.accumulate(np.where(present, np.arange(t_len), -1))
        source[source < 0] = np.argmax(present)
        data[i] = s.values[rows[source]].T
        data[i, VOLUME, ~present] = 0.0
        fill_counts[s.ticker] = t_len - int(np.count_nonzero(present))
    data[:, VOLUME, :] = np.maximum(data[:, VOLUME, :], 1.0)
    panel = MarketPanel(
        tickers=[s.ticker for s in kept],
        calendar=calendar,
        data=data,
        fill_counts=fill_counts,
    )
    panel.validate()
    return panel


# ---------------------------------------------------------------------------
# labels and windows


def zscore_window(raw: np.ndarray) -> np.ndarray:
    """Z-score each trailing-axis series; constant series map to zeros."""
    mean = raw.mean(axis=-1, keepdims=True)
    std = raw.std(axis=-1, keepdims=True)
    safe = np.where(std < 1e-12, 1.0, std)
    out = (raw - mean) / safe
    return np.where(std < 1e-12, 0.0, out)


def labeled_days(num_days: int, lookback: int) -> range:
    """The end days with a full lookback window and a next-day label,
    ``lookback - 1`` to ``num_days - 2``: ConfigError for a lookback below
    1, InsufficientDataError when there is none."""
    if lookback < 1:
        raise ConfigError(f"lookback must be positive, got {lookback}")
    if num_days < lookback + 1:
        raise InsufficientDataError(
            f"no labeled end days: need at least {lookback + 1} days for lookback {lookback}, have {num_days}"
        )
    return range(lookback - 1, num_days - 1)


def make_windows(panel: MarketPanel, lookback: int) -> list[WindowSample]:
    """One sample per :func:`labeled_days` end day: count = T - lookback.

    The panel is validated first (:meth:`MarketPanel.validate`), so a
    non-finite, non-positive or above-``MAX_CELL`` price raises
    :class:`DataError`. A label is 1 for a strict next-day rise, 0 for a tie.
    """
    panel.validate()
    samples = []
    close = panel.data[:, CLOSE, :]
    for t in labeled_days(panel.num_days, lookback):
        raw = panel.data[:, :, t - lookback + 1 : t + 1].transpose(1, 0, 2)
        raw.flags.writeable = False
        samples.append(
            WindowSample(
                t_index=t,
                end_date=panel.calendar[t],
                label_date=panel.calendar[t + 1],
                features=zscore_window(raw),
                raw=raw,
                labels=(close[:, t + 1] > close[:, t]).astype(np.int64),
            )
        )
    return samples


def label_balance(samples: list[WindowSample]) -> float:
    """Fraction of 1-labels across all (stock, day) pairs."""
    if not samples:
        return float("nan")
    total = sum(s.labels.size for s in samples)
    ones = sum(int(s.labels.sum()) for s in samples)
    return ones / total


DateRange = tuple[str, str]


def _check_range(name: str, rng: DateRange | None) -> None:
    if rng is None:
        return
    start, end = rng
    if not (_DATE_RE.match(start) and _DATE_RE.match(end)):
        raise ConfigError(f"{name} range {rng!r} is not a pair of ISO dates")
    if start > end:
        raise ConfigError(f"{name} range {rng!r} runs backwards")


def split_periods(
    samples: list[WindowSample],
    train_range: DateRange | None,
    val_range: DateRange | None,
    test_range: DateRange | None,
) -> tuple[list[WindowSample], list[WindowSample], list[WindowSample]]:
    """Assign samples to chronological splits by end-day date.

    A sample belongs to a split only when its end day *and* its label day
    fall inside the range, so no label information leaks across a boundary.
    """
    ranges = [("train", train_range), ("val", val_range), ("test", test_range)]
    for name, rng in ranges:
        _check_range(name, rng)
    given = [(name, rng) for name, rng in ranges if rng is not None]
    for (name_a, a), (name_b, b) in zip(given, given[1:]):
        if a[1] >= b[0]:
            raise ConfigError(
                f"{name_a} range ends {a[1]} but {name_b} starts {b[0]}; ranges must be disjoint and ordered"
            )

    def pick(rng: DateRange | None) -> list[WindowSample]:
        if rng is None:
            return []
        start, end = rng
        return [s for s in samples if start <= s.end_date and s.label_date <= end]

    return pick(train_range), pick(val_range), pick(test_range)


# ---------------------------------------------------------------------------
# panel cache


def _table_layout(n: int, calendar: list[str]) -> tuple[list[str], list[str]]:
    """The header cells and row keys of the panel table."""
    columns = ["stock", "relation", *calendar]
    return columns, [f"{i},{relation}" for i in range(n) for relation in RELATIONS]


def write_panel(panel: MarketPanel, directory) -> None:
    """Persist a panel as one table, ``panel.csv`` (:func:`mgdpr.files.write_table`:
    a row per (stock, relation), a column per calendar date), plus a JSON
    manifest recording the panel's :meth:`MarketPanel.digest` as ``panel_sha256``.
    """
    directory = Path(directory)
    values = panel.data.reshape(-1, panel.num_days)
    write_table(directory / "panel.csv", *_table_layout(panel.num_stocks, panel.calendar), values)
    manifest = {
        "tickers": panel.tickers,
        "calendar": panel.calendar,
        "fill_counts": panel.fill_counts,
        "panel_sha256": panel.digest(),
    }
    write_atomic(directory / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")


_MANIFEST_TYPES = {
    "tickers": list[str], "calendar": list[str], "fill_counts": dict[str, int], "panel_sha256": str
}


def _read_manifest(path: Path) -> tuple[list[str], list[str], dict[str, int], str]:
    manifest = read_json_object(path, "panel manifest", _MANIFEST_TYPES)
    if not all(_DATE_RE.match(d) for d in manifest["calendar"]):
        raise FormatError(f"{path}: calendar is not a list of ISO dates")
    return manifest["tickers"], manifest["calendar"], manifest["fill_counts"], manifest["panel_sha256"]


def read_panel(directory) -> MarketPanel:
    """Reload a panel written by :func:`write_panel`.

    The manifest and the table are checked in full, and the loaded panel's
    digest must equal the manifest's ``panel_sha256``; a missing, truncated,
    malformed or altered cache raises :class:`FormatError` that names the
    file and asks to re-run ``mgdpr ingest``.
    """
    directory = Path(directory)
    try:
        tickers, calendar, fills, digest = _read_manifest(directory / "manifest.json")
        values = read_table(directory / "panel.csv", "panel table", *_table_layout(len(tickers), calendar))
        data = values.reshape(len(tickers), len(RELATIONS), len(calendar))
        panel = MarketPanel(tickers=tickers, calendar=calendar, data=data, fill_counts=fills)
        panel.validate()
        if panel.digest() != digest:
            raise FormatError(f"{directory / 'manifest.json'}: panel_sha256 does not match panel.csv")
    except DataError as e:
        raise FormatError(f"{directory}: unusable panel cache ({e}); re-run `mgdpr ingest`") from e
    return panel
