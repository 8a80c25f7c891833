import dataclasses
import hashlib
import json
import math
from collections import Counter

import numpy as np
import pytest

from mgdpr.errors import DayRangeError, DegenerateSeriesError, FormatError, UsageError
from mgdpr.files import write_table
from mgdpr.graphs import (
    ENTROPY_DECIMALS,
    MultiRelAdjacency,
    build_adjacency,
    build_day_graphs,
    information_entropy,
    read_graphs,
    signal_energy,
    stock_factors,
    write_graphs,
)
from mgdpr.market import align_panel
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
            energy, entropy = stock_factors(panel.data[:, r, 4:9])
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

    def test_one_small_table_per_day(self, tmp_path):
        _cached_days(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["day00004.csv", "day00005.csv", "index.json"]
        lines = (tmp_path / "day00004.csv").read_text().splitlines()
        assert lines[0] == "relation,stock,weight"
        assert len(lines) == 1 + 5 * 3
        assert lines[1].startswith("open,0,") and lines[-1].startswith("volume,2,")

    def test_other_panel_rejected_and_not_merged(self, tmp_path):
        _cached_days(tmp_path, days=(4, 6))
        panel = _cache_panel()
        assert sorted(read_graphs(tmp_path, panel_digest=panel.digest())) == [4, 6]
        with pytest.raises(FormatError, match="another panel"):
            read_graphs(tmp_path, panel_digest="0" * 64)
        write_graphs([build_day_graphs(panel, 5, 5)], tmp_path, "0" * 64)
        assert json.loads((tmp_path / "index.json").read_text())["days"] == [5]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["day00005.csv", "index.json"]

    def test_graph_of_another_relation_count_is_refused_before_writing(self, tmp_path):
        (graph,) = _cached_days(tmp_path / "first", days=(4,))
        six = MultiRelAdjacency(4, np.concatenate([graph.sender_weights, graph.sender_weights[:1]]))
        with pytest.raises(UsageError, match=r"shape \(18, 1\), expected \(15, 1\)"):
            write_graphs([six], tmp_path / "second", "0" * 64)
        assert not (tmp_path / "second").exists()

    def test_missing_index(self, tmp_path):
        with pytest.raises(FormatError):
            read_graphs(tmp_path)

    def test_missing_day_file(self, tmp_path):
        _cached_days(tmp_path, days=(7,))
        with pytest.raises(FormatError):
            read_graphs(tmp_path, days=[8])
        (tmp_path / "day00007.csv").unlink()
        with pytest.raises(FormatError, match="not found"):
            read_graphs(tmp_path)

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda text: "", "truncated"),
            (lambda text: text[:10], "truncated"),
            (lambda text: text[: text.index("\n", 40) + 1], "rows"),
            (lambda text: text[:-3], "truncated"),
            (lambda text: text.replace("open,1,", "open,2,", 1), "expected the row"),
            (lambda text: text.replace("relation,", "rel,", 1), "header"),
            (lambda text: _set_cell(text, 3, 2, "abc"), "non-numeric"),
            (lambda text: _set_cell(text, 3, 2, "nan"), "non-finite weight"),
            (lambda text: _set_cell(text, 3, 2, "inf"), "non-finite weight"),
            (lambda text: _set_cell(text, 3, 2, "0.0"), "not positive"),
            (lambda text: _set_cell(text, 3, 2, "-0.5"), "not positive"),
            (lambda text: _set_cell(text, 3, 2, "0.5,0.5"), "expected the row"),
        ],
    )
    def test_damaged_day_file_rejected(self, tmp_path, damage, match):
        # The index is re-stamped with the damaged file's digest, so these
        # cases reach the parser's own checks rather than the checksum.
        _cached_days(tmp_path)
        path = tmp_path / "day00004.csv"
        path.write_text(damage(path.read_text()))
        _restamp(path)
        with pytest.raises(FormatError, match=match):
            read_graphs(tmp_path)

    def test_changed_digit_fails_checksum(self, tmp_path):
        _cached_days(tmp_path)
        path = tmp_path / "day00004.csv"
        text = path.read_text()
        cell = text.split("\n")[3].split(",")[2]
        path.write_text(_set_cell(text, 3, 2, _bump_digit(cell)))
        with pytest.raises(FormatError, match="sha256"):
            read_graphs(tmp_path)
        _restamp(path)
        assert sorted(read_graphs(tmp_path)) == [4, 5]

    def test_index_records_each_day_file_digest(self, tmp_path):
        _cached_days(tmp_path, days=(6, 4, 5))
        index = json.loads((tmp_path / "index.json").read_text())
        assert index["format"] == "mgdpr-graph-weights/4"
        assert sorted(index["sha256"]) == ["day00004.csv", "day00005.csv", "day00006.csv"]
        for name, digest in index["sha256"].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize(
        "edit",
        [
            lambda index: index.pop("sha256"),
            lambda index: index["sha256"].pop("day00005.csv"),
            lambda index: index["sha256"].update({"day00009.csv": "0" * 64}),
            lambda index: index["sha256"].update({"day00005.csv": 5}),
        ],
        ids=["missing", "day-missing", "extra-day", "not-a-string"],
    )
    def test_damaged_digest_table_rejected(self, tmp_path, edit):
        _cached_days(tmp_path)
        path = tmp_path / "index.json"
        index = json.loads(path.read_text())
        edit(index)
        path.write_text(json.dumps(index))
        with pytest.raises(FormatError, match="sha256"):
            read_graphs(tmp_path)


def _restamp(path):
    index_path = path.parent / "index.json"
    index = json.loads(index_path.read_text())
    index["sha256"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    index_path.write_text(json.dumps(index))


def _bump_digit(cell):
    """``cell`` with the digit after its decimal point changed."""
    k = cell.index(".") + 1
    return cell[:k] + str((int(cell[k]) + 1) % 10) + cell[k + 1 :]


def _set_cell(text, row, col, value):
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


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
