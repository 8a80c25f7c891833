import dataclasses
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mgdpr.errors import DayRangeError, DegenerateSeriesError, FormatError, UsageError
from mgdpr.files import read_table, write_table
from mgdpr.graphs import (
    ENTROPY_DECIMALS,
    _energies,
    _entropies,
    MultiRelAdjacency,
    build_adjacency,
    build_day_graphs,
    information_entropy,
    read_graphs,
    signal_energy,
    window_graphs,
    write_graphs,
)
from mgdpr.market import RELATIONS, align_panel
from test_market import _dates, _series


# ---------------------------------------------------------------------------
# brute-force oracles, written from the definitions with no numpy reductions


def oracle_energy(x) -> float:
    total = 0.0
    for v in x:
        total += float(v) * float(v)
    return total


def oracle_entropy(x, decimals=ENTROPY_DECIMALS) -> float:
    counts = Counter(round(float(v), decimals) for v in x)
    n = len(list(x))
    h = 0.0
    for _, c in sorted(counts.items()):
        p = c / n
        h -= p * math.log(p)
    return min(max(h, 0.0), math.log(n))


def oracle_adjacency(window) -> np.ndarray:
    n = len(window)
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = (oracle_energy(window[i]) / oracle_energy(window[j])) * math.exp(
                oracle_entropy(window[i]) - oracle_entropy(window[j])
            )
    return out


# ---------------------------------------------------------------------------
# the per-row formulas that window_graphs computes in one pass, written one
# window at a time: np.sum per row, np.unique counts summed in value order


def per_row_energy(x) -> float:
    return float(np.sum(x * x))


def per_row_entropy(x) -> float:
    _, counts = np.unique(np.round(x, ENTROPY_DECIMALS), return_counts=True)
    h = 0.0
    for c in counts:
        p = c / x.size
        h -= p * math.log(p)
    return min(max(h, 0.0), math.log(x.size))


def per_row_sender_weights(raw) -> np.ndarray:
    factors = np.array(
        [([per_row_energy(row) for row in window], [per_row_entropy(row) for row in window]) for window in raw]
    )
    inverse = 1.0 / (factors[:, 0] * np.exp(factors[:, 1]))
    return inverse / inverse.sum(axis=-1, keepdims=True)


WINDOW_VALUES = {
    "uniform": lambda rng, shape: rng.uniform(0.5, 50.0, size=shape),
    "small-integers": lambda rng, shape: rng.integers(1, 5, size=shape).astype(float),
    "two-decimal-prices": lambda rng, shape: np.round(rng.uniform(5.0, 200.0, size=shape), 2),
    # distinct values that tie once rounded to ENTROPY_DECIMALS places
    "ties-after-rounding": lambda rng, shape: rng.integers(1, 4, size=shape) + rng.integers(-3, 4, size=shape) * 1e-12,
}


class TestBatchedMatchesPerRowFormulas:
    """window_graphs reduces all R * N windows at once; its bits equal the
    per-row formulas' for lookbacks on both sides of numpy's 8-wide
    pairwise-sum unroll, with and without ties, on contiguous windows and
    on the strided panel view that build_day_graphs passes."""

    @pytest.mark.parametrize("kind", sorted(WINDOW_VALUES))
    @pytest.mark.parametrize("tau", [1, 2, 7, 8, 9, 16, 21, 29])
    def test_sender_weights_bit_for_bit(self, tau, kind):
        rng = np.random.default_rng(tau)
        for n in (1, 2, 37):
            data = WINDOW_VALUES[kind](rng, (n, len(RELATIONS), tau + 3))  # a panel's (stocks, relations, days)
            view = data[:, :, 2 : 2 + tau].transpose(1, 0, 2)
            for raw in (view, np.ascontiguousarray(view)):
                expected = per_row_sender_weights(raw)
                assert window_graphs(0, raw).sender_weights.tobytes() == expected.tobytes()
                energy, entropy = _energies(raw[1]), _entropies(raw[1])
                assert energy.tobytes() == np.array([per_row_energy(row) for row in raw[1]]).tobytes()
                assert entropy.tobytes() == np.array([per_row_entropy(row) for row in raw[1]]).tobytes()

    def test_ties_after_rounding_are_distinct_before(self):
        x = WINDOW_VALUES["ties-after-rounding"](np.random.default_rng(0), 29)
        assert np.unique(np.round(x, ENTROPY_DECIMALS)).size < np.unique(x).size

    def test_one_window_functions_are_the_per_row_formulas(self):
        rng = np.random.default_rng(12)
        for tau in (1, 2, 7, 8, 9, 16, 21, 29):
            for kind in sorted(WINDOW_VALUES):
                x = WINDOW_VALUES[kind](rng, tau)
                assert signal_energy(x) == per_row_energy(x)
                assert information_entropy(x) == per_row_entropy(x)


class TestDegenerateWindows:
    def test_first_weak_window_in_relation_then_stock_order(self):
        raw = np.random.default_rng(13).uniform(1.0, 2.0, size=(5, 4, 6))
        raw[2, 0] = 0.0
        raw[0, 3] = 0.0
        with pytest.raises(DegenerateSeriesError) as error:
            window_graphs(0, raw)
        assert str(error.value) == "stock 3: window energy 0.000e+00 below floor 1e-12"
        with pytest.raises(DegenerateSeriesError) as error:
            window_graphs(0, raw, ["AAA", "BBB", "CCC", "DDD"])
        assert str(error.value) == "DDD: window energy 0.000e+00 below floor 1e-12"

    # pytest turns every warning into an error here, so none may leak
    def test_energy_that_overflows_names_the_stock(self):
        raw = np.ones((5, 4, 6))
        raw[3, 1, 2] = 1e160
        with pytest.raises(DegenerateSeriesError) as error:
            window_graphs(0, raw, ["AAA", "BBB", "CCC", "DDD"])
        assert str(error.value) == "BBB: window energy inf is not finite"
        with pytest.raises(DegenerateSeriesError, match="^stock 1: window energy inf is not finite$"):
            window_graphs(0, raw[3:4])
        assert signal_energy([1e160]) == math.inf

    def test_signal_that_overflows_names_the_stock(self):
        raw = np.ones((1, 2, 2))
        raw[0, 1] = [7e153, 7.1e153]  # energy 9.9e307 is finite; times exp(ln 2) it is not
        with pytest.raises(DegenerateSeriesError) as error:
            window_graphs(0, raw)
        assert str(error.value) == "stock 1: window energy 9.941e+307 times exp(entropy) is not finite"

    def test_sender_weight_that_underflows_names_the_stock(self):
        raw = np.full((1, 5000, 1), 1.01e-6)  # s just above the floor, 5000 times
        raw[0, 4321, 0] = 1.3e154  # s = 1.69e308: its weight is below the least subnormal
        with pytest.raises(DegenerateSeriesError) as error:
            window_graphs(0, raw)
        assert str(error.value) == "stock 4321: sender weight 0.0 is not positive (window energy 1.690e+308)"


class TestSignalEnergy:
    def test_three_four(self):
        assert signal_energy([3.0, 4.0]) == 25.0

    def test_zeros(self):
        assert signal_energy([0.0, 0.0, 0.0]) == 0.0

    def test_all_ones(self):
        assert signal_energy(np.ones(21)) == 21.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            signal_energy([])


class TestInformationEntropy:
    def test_constant_sequence(self):
        assert information_entropy([5.0] * 7) == 0.0

    def test_two_distinct(self):
        assert abs(information_entropy([1.0, 2.0]) - math.log(2)) < 1e-15

    def test_one_one_two_three(self):
        # -(1/2 ln 1/2 + 1/4 ln 1/4 + 1/4 ln 1/4) = 1.5 ln 2
        assert abs(information_entropy([1.0, 1.0, 2.0, 3.0]) - 1.0397207708399179) < 1e-12

    def test_bounds_on_random_windows(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            tau = int(rng.integers(1, 40))
            x = rng.normal(scale=rng.uniform(0.1, 100.0), size=tau)
            h = information_entropy(x)
            assert 0.0 <= h <= math.log(tau) or tau == 1 and h == 0.0

    def test_zero_iff_constant_after_quantization(self):
        assert information_entropy([1.0, 1.0 + 1e-12]) == 0.0  # collapses at 9 decimals
        assert information_entropy([1.0, 1.0 + 1e-6]) > 0.0

    def test_matches_histogram_oracle_exactly_on_integers(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            tau = int(rng.integers(1, 30))
            x = rng.integers(0, 6, size=tau).astype(float)
            assert information_entropy(x) == oracle_entropy(x)


class TestBuildAdjacency:
    def test_diagonal_exactly_one(self):
        rng = np.random.default_rng(2)
        a = build_adjacency(rng.uniform(0.5, 10.0, size=(6, 8)))
        assert np.array_equal(np.diag(a), np.ones(6))

    def test_reciprocity(self):
        rng = np.random.default_rng(3)
        a = build_adjacency(rng.uniform(0.5, 10.0, size=(5, 7)))
        np.testing.assert_allclose(a * a.T, 1.0, atol=1e-9)

    def test_hand_example(self):
        # rows [1,1] and [1,2]: energies 2 and 5, entropies 0 and ln 2
        a = build_adjacency(np.array([[1.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(a[0, 1], 0.2, rtol=1e-14)
        np.testing.assert_allclose(a[1, 0], 5.0, rtol=1e-14)

    def test_log_antisymmetric(self):
        rng = np.random.default_rng(4)
        a = build_adjacency(rng.uniform(0.5, 4.0, size=(7, 9)))
        log_a = np.log(a)
        np.testing.assert_allclose(log_a, -log_a.T, atol=1e-9)

    def test_degenerate_window_names_stock(self):
        window = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateSeriesError, match="stock 1"):
            build_adjacency(window)
        with pytest.raises(DegenerateSeriesError, match="BBB"):
            build_adjacency(window, tickers=["AAA", "BBB"])

    def test_matches_oracle_on_integer_panels(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            window = rng.integers(1, 50, size=(3, 5)).astype(float)
            got = build_adjacency(window)
            np.testing.assert_allclose(got, oracle_adjacency(window), rtol=1e-12, atol=0)


class TestBuildDayGraphs:
    def _panel(self):
        d = _dates(12)
        return align_panel([_series("A", d), _series("B", d, base=40.0), _series("C", d, base=7.0)])

    def test_output_shape(self):
        panel = self._panel()
        adj = build_day_graphs(panel, 6, 5)
        assert adj.matrices.shape == (5, 3, 3)
        assert adj.t_index == 6

    def test_identical_windows_identical_matrices(self):
        panel = self._panel()
        panel.data[:, 1, :] = panel.data[:, 0, :]  # high == open
        adj = build_day_graphs(panel, 6, 5)
        assert np.array_equal(adj.matrices[0], adj.matrices[1])

    def test_shifting_end_day_changes_matrices(self):
        panel = self._panel()
        rng = np.random.default_rng(6)
        panel.data[:, :4, :] *= 1.0 + rng.uniform(0.0, 0.2, size=panel.data[:, :4, :].shape)
        a6 = build_day_graphs(panel, 6, 5)
        a7 = build_day_graphs(panel, 7, 5)
        assert not np.array_equal(a6.matrices, a7.matrices)
        for t, adj in ((6, a6), (7, a7)):
            for r in range(5):
                window = panel.data[:, r, t - 4 : t + 1]
                np.testing.assert_allclose(adj.matrices[r], oracle_adjacency(window), rtol=1e-12)

    def test_holds_only_the_sender_weights(self):
        assert [f.name for f in dataclasses.fields(MultiRelAdjacency)] == ["t_index", "sender_weights"]
        panel = self._panel()
        rng = np.random.default_rng(7)
        panel.data[:, :4, :] *= 1.0 + rng.uniform(0.0, 0.2, size=panel.data[:, :4, :].shape)
        adj = build_day_graphs(panel, 8, 5)
        for r in range(5):
            window = panel.data[:, r, 4:9]
            energy = np.array([signal_energy(row) for row in window])
            entropy = np.array([information_entropy(row) for row in window])
            inverse = 1.0 / (energy * np.exp(entropy))
            assert adj.sender_weights[r].tobytes() == (inverse / inverse.sum()).tobytes()
            b = adj.sender_weights[r]
            assert adj.matrices[r].tobytes() == (b[None, :] / b[:, None]).tobytes()
            assert adj.matrices[r].tobytes() == build_adjacency(panel.data[:, r, 4:9]).tobytes()
            normalized = adj.matrices[r] / adj.matrices[r].sum(axis=-1, keepdims=True)
            np.testing.assert_allclose(normalized, np.broadcast_to(b, (3, 3)), rtol=1e-14)

    def test_day_out_of_range(self):
        panel = self._panel()
        with pytest.raises(DayRangeError):
            build_day_graphs(panel, 3, 5)
        with pytest.raises(DayRangeError):
            build_day_graphs(panel, 12, 5)


class TestGraphProperties:
    def test_invariants_across_random_panels(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            tau = int(rng.integers(2, 9))
            window = rng.uniform(0.2, 30.0, size=(n, tau))
            a = build_adjacency(window)
            assert np.all(a > 0.0) and np.all(np.isfinite(a))
            assert np.array_equal(np.diag(a), np.ones(n))
            np.testing.assert_allclose(a * a.T, 1.0, atol=1e-9)


def _cache_panel():
    d = _dates(12)
    panel = align_panel([_series("A", d), _series("B", d, base=40.0), _series("C", d, base=7.0)])
    rng = np.random.default_rng(10)
    panel.data *= 1.0 + rng.uniform(0.0, 0.2, size=panel.data.shape)
    return panel


def _cached_days(directory, days=(4, 5)):
    panel = _cache_panel()
    graphs = [build_day_graphs(panel, t, 5) for t in days]
    write_graphs(graphs, directory, panel.digest())
    return graphs


class TestGraphCache:
    def test_round_trip_exact(self, tmp_path):
        graphs = _cached_days(tmp_path)
        reloaded = read_graphs(tmp_path)
        assert sorted(reloaded) == [4, 5]
        for g in graphs:
            got = reloaded[g.t_index]
            assert got.sender_weights.tobytes() == g.sender_weights.tobytes()
            assert got.matrices.tobytes() == g.matrices.tobytes()

    def test_one_table_with_a_column_per_day(self, tmp_path):
        graphs = _cached_days(tmp_path, days=(5, 4))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["index.json", "weights.csv"]
        lines = (tmp_path / "weights.csv").read_text().splitlines()
        assert lines[0] == "relation,stock,4,5"
        assert len(lines) == 1 + 5 * 3
        assert lines[1].startswith("open,0,") and lines[-1].startswith("volume,2,")
        assert lines[2] == "open,1," + ",".join(repr(float(g.sender_weights[0, 1])) for g in graphs[::-1])

    def test_requested_days_only(self, tmp_path):
        _cached_days(tmp_path, days=(4, 5, 6))
        assert sorted(read_graphs(tmp_path, days=[6, 4])) == [4, 6]

    def test_other_panel_replaces_and_is_not_merged(self, tmp_path):
        _cached_days(tmp_path, days=(4, 6))
        write_graphs([build_day_graphs(_cache_panel(), 5, 5)], tmp_path, "0" * 64)
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["days"] == [5] and index["panel_sha256"] == "0" * 64
        assert sorted(read_graphs(tmp_path)) == [5]

    def test_graph_of_another_relation_count_is_refused_before_writing(self, tmp_path):
        (graph,) = _cached_days(tmp_path / "first", days=(4,))
        six = MultiRelAdjacency(4, np.concatenate([graph.sender_weights, graph.sender_weights[:1]]))
        with pytest.raises(UsageError, match=r"shape \(18, 1\), expected \(15, 1\)"):
            write_graphs([six], tmp_path / "second", "0" * 64)
        assert not (tmp_path / "second").exists()

    def test_graphs_of_different_stock_counts_are_refused_before_writing(self, tmp_path):
        (graph,) = _cached_days(tmp_path / "first", days=(4,))
        four = MultiRelAdjacency(5, np.full((5, 4), 0.25))
        with pytest.raises(UsageError, match=r"graphs of different shapes \[\(5, 3\), \(5, 4\)\]"):
            write_graphs([graph, four], tmp_path / "second", "0" * 64)
        assert not (tmp_path / "second").exists()

    @pytest.mark.parametrize("excess, loads", [(5e-10, True), (2e-9, False), (1e160, False)])
    def test_weights_of_a_relation_and_day_sum_to_one_within_tolerance(self, tmp_path, excess, loads):
        weights = np.full((5, 4), 0.25)
        weights[1, 2] += excess
        write_graphs([MultiRelAdjacency(5, weights)], tmp_path, "0" * 64)
        if loads:
            assert read_graphs(tmp_path)[5].sender_weights.tobytes() == weights.tobytes()
        else:
            with pytest.raises(FormatError, match=r"weights of high on day 5 sum to .*, not 1 within 1e-09"):
                read_graphs(tmp_path)

    def test_missing_index(self, tmp_path):
        with pytest.raises(FormatError):
            read_graphs(tmp_path)

    def test_missing_day_or_table(self, tmp_path):
        _cached_days(tmp_path, days=(7,))
        with pytest.raises(FormatError, match="day 8 is not in the graph index"):
            read_graphs(tmp_path, days=[8])
        (tmp_path / "weights.csv").unlink()
        with pytest.raises(FormatError, match="not found"):
            read_graphs(tmp_path)

    def test_index_records_the_table_digest(self, tmp_path):
        _cached_days(tmp_path, days=(6, 4, 5))
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["format"] == "mgdpr-graph-weights/5"
        assert index["days"] == [4, 5, 6]
        assert index["sha256"] == hashlib.sha256((tmp_path / "weights.csv").read_bytes()).hexdigest()


class TestWriteTable:
    """A table is written only when its values fill exactly one row per key
    and one column per value column; otherwise nothing is written."""

    @pytest.mark.parametrize(
        "values",
        [np.ones((2, 1)), np.ones((4, 1)), np.ones((3, 2)), np.ones(3)],
        ids=["fewer-rows", "more-rows", "wider-rows", "one-dimensional"],
    )
    def test_mismatched_values_raise_and_write_nothing(self, tmp_path, values):
        with pytest.raises(UsageError, match=r"expected \(3, 1\)"):
            write_table(tmp_path / "t.csv", ("relation", "stock", "weight"), ["a,0", "a,1", "a,2"], values)
        assert list(tmp_path.iterdir()) == []


class TestReadTableMemory:
    def test_checked_read_peaks_below_the_file_size(self, tmp_path):
        # 2,000 x 100 values take 1.6 MB, and their repr text three times that
        values = np.random.default_rng(3).uniform(-1.0, -0.1, size=(2000, 100)) * 1e-300
        columns, keys = ["key", *map(str, range(100))], [str(k) for k in range(2000)]
        path = tmp_path / "t.csv"
        digest = write_table(path, columns, keys, values)
        size = path.stat().st_size
        assert size > 2.5 * values.nbytes
        tracemalloc.start()
        try:
            loaded = read_table(path, "table", columns, keys, digest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded.tobytes() == values.tobytes()
        assert peak < size
