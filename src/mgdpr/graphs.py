"""Per-day directed stock graphs from signal energy and information entropy.

For each trading day and each indicator, every ordered stock pair (i, j)
gets the edge weight

    energy(x_i) / energy(x_j) * exp(entropy(x_i) - entropy(x_j))

computed on the raw lookback windows. The construction is a complete graph:
no sparsification is applied here — pruning task-irrelevant edges is the
diffusion stage's job. Weights are reciprocal in pairs (w_ij * w_ji = 1)
with an exactly-unit diagonal.

The weight is the rank-one ratio w_ij = s_i / s_j with s = energy *
exp(entropy), so every row of a relation's row-normalized matrix is the
same vector b = (1/s) / sum(1/s), and w_ij = b_j / b_i. A day's graph is
held as those R * N sender weights (:class:`MultiRelAdjacency`), computed
once from a raw (R, N, lookback) window by :func:`window_graphs`, the one
builder (:func:`build_day_graphs` cuts the window from a panel). It
reduces all R * N windows in one pass, with the bits of the one-window
definitions :func:`signal_energy` and :func:`information_entropy`, which
run the same code on one window. A window whose energy is below
``ENERGY_FLOOR`` or whose s or sender weight overflows or underflows is
refused with :class:`DegenerateSeriesError`.
The pipeline builds each day's graph when it needs it. The cache that
``mgdpr graph`` writes is an export only: it stores the same numbers,
every day's as one column of a single table, so reloaded graphs are
bit-identical to freshly built ones, but nothing in the pipeline reads it
back. The model reads only :attr:`MultiRelAdjacency.sender_weights`; N x N matrices
are expanded only on request (:attr:`MultiRelAdjacency.matrices`,
:func:`build_adjacency`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .errors import DayRangeError, DegenerateSeriesError, FormatError, UsageError
from .files import read_json_object, read_table, write_atomic, write_table
from .market import RELATIONS, MarketPanel

ENERGY_FLOOR = 1e-12
ENTROPY_DECIMALS = 9
GRAPH_FORMAT = "mgdpr-graph-weights/5"
# A day's sender weights for one relation are normalized to sum to 1; their
# float sum is off by about N ulps, far below this.
WEIGHT_SUM_TOLERANCE = 1e-9


@dataclass
class MultiRelAdjacency:
    """One day's graph as its (num_relations, num_stocks) sender weights
    b = (1/s) / sum(1/s), s = energy * exp(entropy): every row of relation
    r's row-normalized matrix, (s_i/s_j) / sum_k (s_i/s_k), is b[r].
    """

    t_index: int
    sender_weights: np.ndarray  # (num_relations, num_stocks), each > 0

    @property
    def num_stocks(self) -> int:
        return self.sender_weights.shape[-1]

    @property
    def matrices(self) -> np.ndarray:
        """(num_relations, num_stocks, num_stocks) w_ij = b_j / b_i = s_i / s_j,
        strictly positive with an exactly-unit diagonal."""
        b = self.sender_weights
        return b[:, None, :] / b[:, :, None]


def signal_energy(x) -> float:
    """Sum of squared magnitudes of a window: the one-window case of the
    batched code :func:`window_graphs` runs (inf where it overflows)."""
    return float(_energies(_one_window(x, "signal_energy")))


def information_entropy(x) -> float:
    """Shannon entropy of the window's empirical value distribution.

    Values are quantized to ``ENTROPY_DECIMALS`` places before counting repeats;
    without that, real price data almost never repeats and the entropy
    saturates. The result is clamped to the theoretical range [0, ln n]
    (summation can otherwise overshoot the upper bound by an ulp). This is
    the one-window case of the batched code :func:`window_graphs` runs.
    """
    return float(_entropies(_one_window(x, "information_entropy")))


def _one_window(x, caller: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise UsageError(f"{caller}: empty sequence")
    return x


def _energies(windows: np.ndarray) -> np.ndarray:
    """Signal energy of every window along the last axis, inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.sum(windows * windows, axis=-1)


def _entropies(windows: np.ndarray) -> np.ndarray:
    """Entropy of every window along the last axis.

    Each window's quantized values are sorted; a run of c equal values is
    one outcome of probability p = c/n. The terms p*ln(p) come from a table
    of the n possible counts, and are subtracted one column at a time, so
    each window's sum runs over its outcomes in ascending value order.
    """
    n = windows.shape[-1]
    table = np.array([(c / n) * math.log(c / n) for c in range(1, n + 1)])
    ordered = np.sort(np.round(windows, ENTROPY_DECIMALS), axis=-1)
    new = ordered[..., 1:] != ordered[..., :-1]
    edge = np.ones(ordered.shape[:-1] + (1,), dtype=bool)
    first = np.concatenate([edge, new], axis=-1)  # a run of equal values starts here
    last = np.concatenate([new, edge], axis=-1)  # ... and ends here
    k = np.arange(n)
    start = np.maximum.accumulate(np.where(first, k, 0), axis=-1)
    terms = np.where(last, table[k - start], 0.0)  # each run's p*ln(p) at its end, else 0
    h = np.zeros(ordered.shape[:-1])
    for column in np.moveaxis(terms, -1, 0):
        h -= column
    return np.minimum(np.maximum(h, 0.0), math.log(n))


def _refuse_first(ok: np.ndarray, tickers: list[str] | None, reason) -> None:
    """Raise :class:`DegenerateSeriesError` for the first False of the
    (relations, stocks) mask ``ok``, in relation order, then stock order,
    naming its ticker (or index) and ``reason(relation, stock)``."""
    if not ok.all():
        r, i = np.argwhere(~ok)[0]
        name = tickers[i] if tickers else f"stock {i}"
        raise DegenerateSeriesError(f"{name}: {reason(r, i)}")


def window_graphs(t: int, raw: np.ndarray, tickers: list[str] | None = None) -> MultiRelAdjacency:
    """Graph of the raw (relations, stocks, lookback) window ending at day ``t``.

    All R * N windows are reduced at once. Raises :class:`DegenerateSeriesError`,
    naming the first such stock in relation order, then stock order, when a
    window's energy is below ``ENERGY_FLOOR`` (its ratios would blow up) or
    not finite, when s = energy * exp(entropy) is not finite, or when a
    sender weight is not positive.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim != 3 or raw.shape[-1] == 0:
        raise UsageError(f"window_graphs: expected (relations, stocks, lookback > 0), got {raw.shape}")
    energy = _energies(raw)
    _refuse_first(
        (energy >= ENERGY_FLOOR) & (energy < math.inf),
        tickers,
        lambda r, i: f"window energy {energy[r, i]:.3e} "
        + (f"below floor {ENERGY_FLOOR:.0e}" if energy[r, i] < ENERGY_FLOOR else "is not finite"),
    )
    entropy = _entropies(raw)
    with np.errstate(over="ignore"):
        s = energy * np.exp(entropy)
    _refuse_first(
        np.isfinite(s), tickers, lambda r, i: f"window energy {energy[r, i]:.3e} times exp(entropy) is not finite"
    )
    inverse = 1.0 / s
    weights = inverse / inverse.sum(axis=-1, keepdims=True)
    _refuse_first(
        weights > 0.0,
        tickers,
        lambda r, i: f"sender weight {float(weights[r, i])!r} is not positive (window energy {energy[r, i]:.3e})",
    )
    return MultiRelAdjacency(t, weights)


def build_adjacency(window: np.ndarray, tickers: list[str] | None = None) -> np.ndarray:
    """Dense positive edge-weight matrix for one relation's (N, lookback) window.

    Entry (i, j) weights the directed edge from stock i to stock j. The
    diagonal is exactly 1 and opposite edges are exact reciprocals up to
    float rounding.
    """
    return window_graphs(0, np.asarray(window)[None], tickers).matrices[0]


def build_day_graphs(panel: MarketPanel, t: int, lookback: int) -> MultiRelAdjacency:
    """Graph of the panel window ending at calendar index ``t``."""
    if t < lookback - 1 or t >= panel.num_days:
        raise DayRangeError(
            f"end day {t} outside [{lookback - 1}, {panel.num_days - 1}] for lookback {lookback}"
        )
    raw = panel.data[:, :, t - lookback + 1 : t + 1].transpose(1, 0, 2)
    return window_graphs(t, raw, panel.tickers)


# ---------------------------------------------------------------------------
# graph cache
#
# <directory>/index.json      {"format", "days", "relations", "num_stocks",
#                              "panel_sha256", "sha256"}: panel_sha256 is the
#                              MarketPanel.digest of the panel the graphs were
#                              built from; sha256 is the SHA-256 of
#                              weights.csv's bytes
# <directory>/weights.csv     a mgdpr.files table: header
#                             "relation,stock,<day>,<day>,...", the days in
#                             index order, then one row per (relation, stock),
#                             relations in RELATIONS order, stocks 0..N-1
#                             within each relation; the cell of day t is
#                             MultiRelAdjacency.sender_weights[relation, stock]


def _table_layout(days: list[int], n: int) -> tuple[list[str], list[str]]:
    """The header cells and row keys of the weights table."""
    columns = ["relation", "stock", *map(str, days)]
    return columns, [f"{relation},{i}" for relation in RELATIONS for i in range(n)]


def write_graphs(graphs: list[MultiRelAdjacency], directory, panel_digest: str) -> None:
    """Cache every day's sender weights in one table, a column per day.

    ``weights.csv`` is a :func:`mgdpr.files.write_table` table of R * N rows,
    written atomically and bit-exact on reload. ``index.json`` lists the
    days, records the SHA-256 of the table's bytes and ``panel_digest``, the
    :meth:`MarketPanel.digest` of the panel the graphs were built from.
    """
    directory = Path(directory)
    graphs = sorted(graphs, key=lambda g: g.t_index)
    days = [g.t_index for g in graphs]
    n = graphs[0].num_stocks if graphs else 0
    shapes = sorted({g.sender_weights.shape for g in graphs})
    if len(shapes) > 1:
        raise UsageError(f"{directory}: graphs of different shapes {shapes} cannot share one table")
    weights = np.array([g.sender_weights.reshape(-1) for g in graphs]).T
    index = {
        "format": GRAPH_FORMAT,
        "days": days,
        "relations": list(RELATIONS),
        "num_stocks": n,
        "panel_sha256": panel_digest,
        "sha256": write_table(directory / "weights.csv", *_table_layout(days, n), weights),
    }
    write_atomic(directory / "index.json", json.dumps(index, indent=2, sort_keys=True) + "\n")


_INDEX_TYPES = {
    "format": Literal[GRAPH_FORMAT],
    "relations": list[str],
    "num_stocks": int,
    "days": list[int],
    "panel_sha256": str,
    "sha256": str,
}


def read_graphs(directory, days: list[int] | None = None) -> dict[int, MultiRelAdjacency]:
    """Reload the graphs written by :func:`write_graphs`.

    The index and the whole table are checked; a missing, truncated,
    malformed, altered or old-format cache, a weight that is not positive,
    or a relation's weights on a day that do not sum to 1 within
    ``WEIGHT_SUM_TOLERANCE`` raise :class:`FormatError` rather than
    loading.
    """
    directory = Path(directory)
    path = directory / "index.json"
    index = read_json_object(path, "graph index", _INDEX_TYPES)
    if index["relations"] != list(RELATIONS):
        raise FormatError(f"{path}: relations {index['relations']!r}, expected {list(RELATIONS)}")
    listed, n = index["days"], index["num_stocks"]
    column = {t: k for k, t in enumerate(listed)}
    days = listed if days is None else days
    for t in days:
        if t not in column:
            raise FormatError(f"{path}: day {t} is not in the graph index")
    table = directory / "weights.csv"
    weights = read_table(table, "graph weights", *_table_layout(listed, n), index["sha256"])
    if (weights <= 0.0).any():
        row, k = np.argwhere(weights <= 0.0)[0]
        raise FormatError(
            f"{table}: weight {float(weights[row, k])!r} of {RELATIONS[row // n]} stock {row % n} "
            f"on day {listed[k]} is not positive"
        )
    sums = weights.reshape(len(RELATIONS), n, len(listed)).sum(axis=1)
    off = np.abs(sums - 1.0) > WEIGHT_SUM_TOLERANCE
    if off.any():
        r, k = np.argwhere(off)[0]
        raise FormatError(
            f"{table}: weights of {RELATIONS[r]} on day {listed[k]} sum to {float(sums[r, k])!r}, "
            f"not 1 within {WEIGHT_SUM_TOLERANCE:.0e}"
        )
    by_day = np.ascontiguousarray(weights.T).reshape(len(listed), len(RELATIONS), n)
    return {t: MultiRelAdjacency(t, by_day[column[t]]) for t in days}
