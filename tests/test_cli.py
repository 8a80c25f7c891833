import hashlib
import json
import math
import struct

import pytest

from mgdpr import cli
from mgdpr.errors import ConfigError
from mgdpr.graphs import build_day_graphs, read_graphs
from mgdpr.market import read_panel
from mgdpr.model import Model, load_checkpoint, save_checkpoint
from mgdpr.synthetic import planted_market, write_series_csv


def make_workspace(tmp_path, num_days=30, lookback=5, epochs=2, **config_overrides):
    """Synthetic 3-stock market plus a ready-to-run config file."""
    data_dir = tmp_path / "data"
    write_series_csv(planted_market(num_stocks=3, num_days=num_days, momentum_lag=3, seed=1), data_dir)
    config = {
        "market": "synthetic",
        "paths.data_dir": str(data_dir),
        "paths.cache_dir": str(tmp_path / "cache"),
        "paths.output_dir": str(tmp_path / "out"),
        "split.train": ["2020-01-01", "2020-01-18"],
        "split.val": ["2020-01-19", "2020-01-24"],
        "split.test": ["2020-01-25", "2020-02-29"],
        "model.lookback": lookback,
        "model.num_layers": 1,
        "model.expansion_steps": 2,
        "model.embed_dim": 8,
        "model.num_groups": 4,
        "train.epochs": epochs,
        "train.seed": 0,
    }
    config.update(config_overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"model.width": 3}))
        with pytest.raises(ConfigError, match="model.width"):
            cli.load_config(path)

    def test_env_override(self, tmp_path, monkeypatch):
        path = make_workspace(tmp_path)
        monkeypatch.setenv("MGDPR_TRAIN_EPOCHS", "7")
        monkeypatch.setenv("MGDPR_MARKET", "nasdaq-ish")
        resolved = cli.load_config(path)
        assert resolved["train.epochs"] == 7
        assert resolved["market"] == "nasdaq-ish"

    def test_missing_file_is_config_error(self, tmp_path):
        assert run("ingest", "--config", tmp_path / "nope.json") == 5

    def test_defaults(self):
        assert cli.DEFAULTS == {
            "market": "unnamed",
            "coverage": 0.98,
            "paths.data_dir": "data",
            "paths.cache_dir": "cache",
            "paths.output_dir": "out",
            "split.train": None,
            "split.val": None,
            "split.test": None,
            "model.lookback": 21,
            "model.num_layers": 8,
            "model.expansion_steps": 7,
            "model.embed_dim": 256,
            "model.decay": 1.27,
            "model.num_groups": 4,
            "model.activation_slope": 0.01,
            "model.readout_hidden": 0,
            "train.learning_rate": 2.5e-4,
            "train.epochs": 900,
            "train.batch_size": None,
            "train.seed": 0,
        }

    def test_non_utf8_config_exits_5(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run("ingest", "--config", path) == 5
        assert "unreadable config file" in capsys.readouterr().err

    def test_string_key_takes_raw_env_text(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MGDPR_MARKET", "123")
        assert cli.load_config(make_workspace(tmp_path))["market"] == "123"

    def test_integer_for_float_key_kept_as_loaded(self, tmp_path):
        resolved = cli.load_config(make_workspace(tmp_path, **{"model.decay": 1}))
        assert resolved["model.decay"] == 1 and isinstance(resolved["model.decay"], int)
        assert cli.model_config(resolved, num_stocks=3).decay == 1.0
        assert isinstance(cli.model_config(resolved, num_stocks=3).decay, float)

    def test_integer_for_float_key_hashes_as_the_float(self, tmp_path):
        config = make_workspace(tmp_path)
        as_int = cli.load_config(config, env={"MGDPR_MODEL_DECAY": "1"})
        as_float = cli.load_config(config, env={"MGDPR_MODEL_DECAY": "1.0"})
        assert isinstance(as_int["model.decay"], int) and isinstance(as_float["model.decay"], float)
        assert cli.config_hash(as_int) == cli.config_hash(as_float)

    def test_default_config_hash_is_stable(self):
        expected = "d88120bc90cf8ecfe3adcc28da80322faedae9e5646a2da83eeb712895b97718"
        assert cli.config_hash(dict(cli.DEFAULTS)) == expected


# (key, wrong value in the file, the same value as MGDPR_* text or None
# where the text would be a valid value: "5" is the integer 5, and string
# keys take the text raw)
_BAD_VALUES = [
    ("model.embed_dim", "abc", "abc"),
    ("train.learning_rate", "fast", "fast"),
    ("train.epochs", None, "null"),
    ("coverage", "high", "high"),
    ("train.seed", "x", "x"),
    ("model.num_layers", 1.5, "1.5"),
    ("model.lookback", "5", None),
    ("train.batch_size", 1.5, "1.5"),
    ("train.epochs", True, "true"),
    ("paths.output_dir", 5, None),
]


class TestBadConfigValue:
    """A config value of the wrong type exits 5 before any work, from the
    file or from its MGDPR_* override, and never raises."""

    @pytest.mark.parametrize(
        "key, value", [(k, v) for k, v, _ in _BAD_VALUES], ids=[f"{k}={v!r}" for k, v, _ in _BAD_VALUES]
    )
    def test_file_value_exits_5(self, tmp_path, capsys, key, value):
        config = make_workspace(tmp_path, **{key: value})
        assert run("ingest", "--config", config) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "key, text",
        [(k, t) for k, _, t in _BAD_VALUES if t is not None],
        ids=[f"{k}={t}" for k, _, t in _BAD_VALUES if t is not None],
    )
    def test_env_value_exits_5(self, tmp_path, capsys, monkeypatch, key, text):
        config = make_workspace(tmp_path)
        env_key = "MGDPR_" + key.upper().replace(".", "_")
        monkeypatch.setenv(env_key, text)
        assert run("ingest", "--config", config) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and env_key in err
        assert not (tmp_path / "cache").exists()

    def test_integer_beyond_float_range_exits_5(self, tmp_path, capsys):
        config = make_workspace(tmp_path, **{"model.decay": 10**400})
        assert run("ingest", "--config", config) == 5
        assert "model.decay" in capsys.readouterr().err


class TestIngest:
    def test_manifest_lists_tickers(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        manifest = json.loads((tmp_path / "cache" / "panel" / "manifest.json").read_text())
        assert manifest["tickers"] == ["SYN00", "SYN01", "SYN02"]
        assert "3 stocks x 30 days" in capsys.readouterr().out

    def test_empty_dir_exits_2(self, tmp_path):
        config = make_workspace(tmp_path)
        data_dir = tmp_path / "data"
        for f in data_dir.glob("*.csv"):
            f.unlink()
        assert run("ingest", "--config", config) == 2

    def test_non_utf8_csv_exits_2(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        bad = tmp_path / "data" / "SYN01.csv"
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        assert run("ingest", "--config", config) == 2
        assert str(bad) in capsys.readouterr().err

    def test_rerun_identical_manifest_hash(self, tmp_path):
        config = make_workspace(tmp_path)
        manifest = tmp_path / "cache" / "panel" / "manifest.json"
        assert run("ingest", "--config", config) == 0
        first = hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert run("ingest", "--config", config) == 0
        assert hashlib.sha256(manifest.read_bytes()).hexdigest() == first


class TestGraph:
    def test_boundary_day_count(self, tmp_path):
        # lookback tau with tau+1 days: exactly one labeled end day
        config = make_workspace(tmp_path, num_days=6, lookback=5)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        index = json.loads((tmp_path / "cache" / "graphs" / "index.json").read_text())
        assert index["days"] == [4]

    def test_day_out_of_range_exits_3(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config, "--day", 99) == 3

    def test_reload_matches_in_memory(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        panel = read_panel(tmp_path / "cache" / "panel")
        reloaded = read_graphs(tmp_path / "cache" / "graphs")
        for t, adj in reloaded.items():
            expected = build_day_graphs(panel, t, 5)
            assert adj.matrices.tobytes() == expected.matrices.tobytes()

    def test_single_day_merges_into_index(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        index_path = tmp_path / "cache" / "graphs" / "index.json"
        full = json.loads(index_path.read_text())["days"]
        assert run("graph", "--config", config, "--day", full[3]) == 0
        assert json.loads(index_path.read_text())["days"] == full
        assert run("train", "--config", config) == 0

    def test_no_temporary_files_left(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        assert run("graph", "--config", config, "--day", 6) == 0
        names = [p.name for p in (tmp_path / "cache" / "graphs").iterdir()]
        assert not [n for n in names if n.startswith(".") or "tmp" in n]
        assert "index.json" in names


def _truncate_at(fraction):
    def damage(path):
        data = path.read_bytes()
        path.write_bytes(data[: int(len(data) * fraction)])

    return damage


def _replace_cell(path):
    lines = path.read_text().split("\n")
    cells = lines[5].split(",")
    cells[2] = "12.3.4"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines))


def _change_one_digit(path):
    lines = path.read_text().split("\n")
    cells = lines[5].split(",")
    k = cells[2].index(".") + 1
    cells[2] = cells[2][:k] + str((int(cells[2][k]) + 1) % 10) + cells[2][k + 1 :]
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines))


def _old_format_index(path):
    index = path.parent / "index.json"
    payload = json.loads(index.read_text())
    del payload["format"]
    payload["forms"] = ["raw", "normalized"]
    index.write_text(json.dumps(payload))


class TestDamagedGraphCache:
    """Mutations of a small graph cache: `train` exits 5, never raises."""

    @pytest.mark.parametrize(
        "damage",
        [
            _truncate_at(0.0),
            _truncate_at(0.01),
            _truncate_at(0.5),
            _truncate_at(0.999),
            _replace_cell,
            _change_one_digit,
            lambda path: path.unlink(),
            _old_format_index,
            lambda path: (path.parent / "index.json").write_text("{not json"),
        ],
        ids=["truncate-0", "truncate-1pct", "truncate-half", "truncate-last-byte",
             "non-numeric-cell", "one-changed-digit", "deleted", "old-format-index", "garbage-index"],
    )
    def test_train_exits_5(self, tmp_path, capsys, damage):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        damage(tmp_path / "cache" / "graphs" / "day00010.csv")
        assert run("train", "--config", config) == 5
        assert "re-run `mgdpr graph`" in capsys.readouterr().err


def _edit_panel_row(edit):
    def damage(path):
        lines = path.read_text().split("\n")
        lines[5] = ",".join(edit(lines[5].split(",")))
        path.write_text("\n".join(lines))

    return damage


def _edit_fill_count(path):
    manifest = path.parent / "manifest.json"
    payload = json.loads(manifest.read_text())
    payload["fill_counts"][path.stem] = 99
    manifest.write_text(json.dumps(payload))


class TestDamagedPanelCache:
    """Mutations of the panel cache: `graph` exits 2, never raises."""

    @pytest.mark.parametrize(
        "damage",
        [
            _edit_panel_row(lambda cells: cells[:2] + ["12.3.4"] + cells[3:]),
            _edit_panel_row(lambda cells: cells[:-1]),
            _change_one_digit,
            lambda path: path.unlink(),
            lambda path: (path.parent / "manifest.json").write_text("{not json"),
            lambda path: (path.parent / "manifest.json").write_text("{}"),
            _truncate_at(0.5),
            _edit_fill_count,
        ],
        ids=["non-numeric-cell", "short-row", "one-changed-digit", "deleted", "garbage-manifest",
             "empty-manifest", "truncate-half", "edited-fill-count"],
    )
    def test_graph_exits_2(self, tmp_path, capsys, damage):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        damage(tmp_path / "cache" / "panel" / "SYN01.csv")
        assert run("graph", "--config", config) == 2
        assert "re-run `mgdpr ingest`" in capsys.readouterr().err


class TestStaleGraphCache:
    def _reingest_other_prices(self, tmp_path, config):
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        write_series_csv(planted_market(num_stocks=3, num_days=30, momentum_lag=3, seed=2), tmp_path / "data")
        assert run("ingest", "--config", config) == 0

    def test_train_exits_5(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        self._reingest_other_prices(tmp_path, config)
        assert run("train", "--config", config) == 5
        assert "re-run `mgdpr graph`" in capsys.readouterr().err

    def test_single_day_drops_stale_days(self, tmp_path):
        config = make_workspace(tmp_path)
        self._reingest_other_prices(tmp_path, config)
        assert run("graph", "--config", config, "--day", 6) == 0
        assert json.loads((tmp_path / "cache" / "graphs" / "index.json").read_text())["days"] == [6]


class TestCacheHoldsOnlyListedFiles:
    def test_smaller_reingest_and_graph_leave_no_stale_files(self, tmp_path):
        config = make_workspace(tmp_path)
        data_dir = tmp_path / "data"
        write_series_csv(planted_market(num_stocks=4, num_days=30, momentum_lag=3, seed=1), data_dir)
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        for f in data_dir.glob("*.csv"):
            f.unlink()
        write_series_csv(planted_market(num_stocks=3, num_days=20, momentum_lag=3, seed=1), data_dir)
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0

        panel_dir, graph_dir = tmp_path / "cache" / "panel", tmp_path / "cache" / "graphs"
        manifest = json.loads((panel_dir / "manifest.json").read_text())
        assert len(manifest["tickers"]) == 3 and len(manifest["calendar"]) == 20
        assert sorted(p.name for p in panel_dir.iterdir()) == sorted(
            ["manifest.json"] + [f"{t}.csv" for t in manifest["tickers"]]
        )
        days = json.loads((graph_dir / "index.json").read_text())["days"]
        assert len(days) == 20 - 5
        assert sorted(p.name for p in graph_dir.iterdir()) == sorted(
            ["index.json"] + [f"day{t:05d}.csv" for t in days]
        )

    def test_other_files_are_kept(self, tmp_path):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        notes = [tmp_path / "cache" / "panel" / "NOTES.txt", tmp_path / "cache" / "graphs" / "day7.csv"]
        for note in notes:
            note.write_text("kept\n")
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        assert all(note.read_text() == "kept\n" for note in notes)


class TestTrain:
    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        assert run("train", "--config", config, "--epochs", 0) == 0
        resolved = cli.load_config(config)
        mcfg = cli.model_config(resolved, num_stocks=3)
        trained = load_checkpoint(tmp_path / "out" / "checkpoint.bin", mcfg)
        reference = tmp_path / "reference.bin"
        save_checkpoint(reference, Model.initialized(mcfg, seed=0))
        assert (tmp_path / "out" / "checkpoint.bin").read_bytes() == reference.read_bytes()
        assert set(trained.params) == set(Model.initialized(mcfg, seed=0).params)

    def test_same_seed_identical_checkpoint_bytes(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        checkpoints = []
        for _ in range(2):
            assert run("train", "--config", config, "--seed", 5) == 0
            checkpoints.append((tmp_path / "out" / "checkpoint.bin").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_missing_graph_cache_exits_5(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("train", "--config", config) == 5
        assert "mgdpr graph" in capsys.readouterr().err

    def test_writes_trace_and_resolved_config(self, tmp_path):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "epoch,loss,val_acc" and len(trace) == 3
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved["derived.num_stocks"] == 3
        assert resolved["train.epochs"] == 2

    def test_resolved_config_reproduces_the_run(self, tmp_path):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        checkpoint = (tmp_path / "out" / "checkpoint.bin").read_bytes()
        resolved_path = tmp_path / "out" / "resolved_config.json"
        assert run("train", "--config", resolved_path) == 0
        assert (tmp_path / "out" / "checkpoint.bin").read_bytes() == checkpoint

    def test_minibatch_option_runs(self, tmp_path):
        config = make_workspace(tmp_path, **{"train.batch_size": 4})
        for cmd in ("ingest", "graph", "train", "eval"):
            assert run(cmd, "--config", config) == 0
        assert (tmp_path / "out" / "metrics.json").exists()


class TestEval:
    def _pipeline(self, tmp_path, **over):
        config = make_workspace(tmp_path, **over)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        return config

    def test_report_contains_metric_keys(self, tmp_path):
        config = self._pipeline(tmp_path)
        assert run("eval", "--config", config) == 0
        payload = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert {"acc", "mcc", "f1", "confusion", "seed", "config_hash", "market"} <= set(payload)

    def test_two_evals_identical_json(self, tmp_path):
        config = self._pipeline(tmp_path)
        metrics = tmp_path / "out" / "metrics.json"
        assert run("eval", "--config", config) == 0
        first = metrics.read_bytes()
        assert run("eval", "--config", config) == 0
        assert metrics.read_bytes() == first

    def test_config_edited_after_train_exits_6(self, tmp_path, capsys):
        config = self._pipeline(tmp_path)
        edited = json.loads(config.read_text())
        edited["model.decay"] = 0.5
        config.write_text(json.dumps(edited))
        assert run("eval", "--config", config) == 6
        assert "decay" in capsys.readouterr().err

    def test_corrupted_checkpoint_exits_6(self, tmp_path):
        config = self._pipeline(tmp_path)
        ckpt = tmp_path / "out" / "checkpoint.bin"
        ckpt.write_bytes(b"\xff" * 64)
        assert run("eval", "--config", config) == 6

    def test_multi_seed_aggregate(self, tmp_path):
        config = self._pipeline(tmp_path)
        assert run("eval", "--config", config, "--seeds", 2, "--epochs", 1) == 0
        payload = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert payload["seeds"] == [0, 1]
        assert {"acc_mean", "acc_std", "mcc_mean", "f1_mean"} <= set(payload)
        assert (tmp_path / "out" / "metrics_seed0.json").exists()
        assert (tmp_path / "out" / "metrics_seed1.json").exists()

    def test_multi_seed_loads_inputs_once(self, tmp_path, monkeypatch):
        config = self._pipeline(tmp_path)
        calls = {"read_panel": 0, "make_windows": 0, "read_graphs": 0}
        for name in calls:
            real = getattr(cli, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        assert run("eval", "--config", config, "--seeds", 3, "--epochs", 1) == 0
        assert calls == {"read_panel": 1, "make_windows": 1, "read_graphs": 1}


class TestOverflowOutsideTheTrainingStep:
    """A forward pass that overflows in validation or evaluation exits 4,
    naming the day, instead of ending in a traceback."""

    def test_eval_of_overflowing_checkpoint_exits_4(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        damaged = tmp_path / "huge.bin"
        damaged.write_bytes((tmp_path / "out" / "checkpoint.bin").read_bytes())
        _edit_checkpoint(_set_first_value("embed.W", 1e300))(damaged)
        assert run("eval", "--config", config, "--checkpoint", damaged) == 4
        assert "non-finite prediction on day" in capsys.readouterr().err

    def test_train_whose_validation_overflows_exits_4(self, tmp_path, capsys):
        config = make_workspace(tmp_path, **{"train.learning_rate": 1e200})
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        assert run("train", "--config", config) == 4
        assert "non-finite prediction on day" in capsys.readouterr().err


def _set_first_value(name, value):
    def edit(header, payload):
        entry = next(e for e in header["tensors"] if e["name"] == name)
        k = entry["offset"]
        return payload[:k] + struct.pack("<d", value) + payload[k + 8 :]

    return edit


def _edit_checkpoint(edit):
    """Rewrite a checkpoint through ``edit(header, payload) -> payload`` and
    record the edited payload's SHA-256, so the checks behind the digest see
    the edit."""

    def damage(path):
        blob = path.read_bytes()
        (n,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8 : 8 + n])
        payload = edit(header, blob[8 + n :])
        header["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        text = json.dumps(header).encode()
        path.write_bytes(struct.pack("<Q", len(text)) + text + payload)

    return damage


def _set_entry(i, key, value):
    def edit(header, payload):
        header["tensors"][i][key] = value
        return payload

    return edit


def _drop_shape(header, payload):
    del header["tensors"][0]["shape"]
    return payload


def _tensors_not_a_list(header, payload):
    header["tensors"] = "x"
    return payload


def _drop_config_field(header, payload):
    del header["config"]["decay"]
    return payload


class TestDamagedCheckpoint:
    """Mutations of a checkpoint: `eval --checkpoint` exits 6, never raises."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header, payload: payload[:-8] + struct.pack("<d", math.nan),
            _drop_shape,
            _tensors_not_a_list,
            _set_entry(1, "offset", -8),
            _set_entry(1, "offset", 0),
            lambda header, payload: payload + bytes(8),
            _set_entry(1, "shape", [1]),
            _drop_config_field,
        ],
        ids=["nan", "no-shape", "tensors-not-a-list", "negative-offset", "overlapping-offsets", "trailing-bytes",
             "wrong-shape", "config-field-missing"],
    )
    def test_eval_exits_6(self, tmp_path, edit):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        damaged = tmp_path / "damaged.bin"
        damaged.write_bytes((tmp_path / "out" / "checkpoint.bin").read_bytes())
        _edit_checkpoint(edit)(damaged)
        assert run("eval", "--config", config, "--checkpoint", damaged) == 6

    def _trained(self, tmp_path):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        return config, (tmp_path / "out" / "checkpoint.bin").read_bytes()

    def test_flipped_payload_bit_exits_6(self, tmp_path, capsys):
        config, blob = self._trained(tmp_path)
        damaged = tmp_path / "flipped.bin"
        damaged.write_bytes(blob[:-3] + bytes([blob[-3] ^ 0x10]) + blob[-2:])
        assert run("eval", "--config", config, "--checkpoint", damaged) == 6
        err = capsys.readouterr().err
        assert err.startswith("error:") and "SHA-256" in err and "Traceback" not in err

    def test_earlier_format_without_digest_exits_6(self, tmp_path, capsys):
        config, blob = self._trained(tmp_path)
        (n,) = struct.unpack("<Q", blob[:8])
        header = json.loads(blob[8 : 8 + n])
        del header["payload_sha256"]
        header["format"] = "mgdpr-checkpoint-v1"
        text = json.dumps(header).encode()
        old = tmp_path / "v1.bin"
        old.write_bytes(struct.pack("<Q", len(text)) + text + blob[8 + n :])
        assert run("eval", "--config", config, "--checkpoint", old) == 6
        assert "not a mgdpr-checkpoint-v2 file" in capsys.readouterr().err


def test_no_temporary_files_left_after_train_and_eval(tmp_path):
    config = make_workspace(tmp_path)
    for cmd in ("ingest", "graph", "train", "eval"):
        assert run(cmd, "--config", config) == 0
    assert run("eval", "--config", config, "--seeds", 2, "--epochs", 1) == 0
    names = [p.name for p in tmp_path.rglob("*")]
    assert not [n for n in names if n.startswith(".") or "tmp" in n]
    assert {"checkpoint.bin", "trace.csv", "resolved_config.json", "metrics.json", "manifest.json"} <= set(names)


class TestEndToEndDeterminism:
    def test_full_pipeline_twice_byte_identical_metrics(self, tmp_path):
        blobs = []
        for run_dir in ("a", "b"):
            base = tmp_path / run_dir
            base.mkdir()
            config = make_workspace(base)
            for cmd in ("ingest", "graph", "train", "eval"):
                assert run(cmd, "--config", config) == 0
            blobs.append((base / "out" / "metrics.json").read_bytes())
        assert blobs[0] == blobs[1]
