import argparse
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgdpr import cli, errors, graphs, market
from mgdpr.errors import CheckpointError, ConfigError, DataError, DayRangeError, FormatError, MgdprError
from mgdpr.files import write_table
from mgdpr.graphs import build_day_graphs, read_graphs
from mgdpr.market import RELATIONS, read_panel
from mgdpr.model import (
    CHECKPOINT_FORMAT,
    Model,
    ModelConfig,
    expected_param_shapes,
    load_checkpoint,
    save_checkpoint,
)
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
            "train.learning_rate": 2.5e-4,
            "train.epochs": 900,
            "train.seed": 0,
        }

    def test_non_utf8_config_exits_5(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe{}")
        assert run("ingest", "--config", path) == 5
        assert "unreadable config file" in capsys.readouterr().err

    def test_repeated_key_exits_5_naming_it(self, tmp_path, capsys):
        # json keeps a repeated key's last value: this config would train 50 epochs.
        config = make_workspace(tmp_path)
        config.write_text(config.read_text().replace("{", '{\n  "train.epochs": 5,\n  "train.epochs": 50,', 1))
        assert run("ingest", "--config", config) == 5
        assert capsys.readouterr().err == f"error: {config}: config file repeats the key 'train.epochs'\n"
        assert not (tmp_path / "cache").exists()

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
        expected = "5d3571f1016b298e635e59face7bc80c357369df92c30de8c1bf149ea5ddd81a"
        assert cli.config_hash(dict(cli.DEFAULTS)) == expected

    @pytest.mark.parametrize(
        "key, value",
        [("train.batch_size", None), ("model.readout_hidden", 0), ("model.activation_slope", 0.01),
         ("derived.seed", 7)],
    )
    def test_removed_key_exits_5_naming_it(self, tmp_path, capsys, key, value):
        config = make_workspace(tmp_path, **{key: value})
        assert run("ingest", "--config", config) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown config key" in err and key in err
        assert not (tmp_path / "cache").exists()


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _readme_cli_section() -> str:
    return _readme().split("\n## Batch CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_key_table_matches_the_schema():
    section = _readme_cli_section()
    (count,) = re.findall(r"There are (\d+) keys\.", section)
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split(" | ")[0])]
    assert int(count) == len(cli.DEFAULTS)
    assert sorted(keys) == sorted(cli.DEFAULTS)


def test_readme_names_the_current_file_formats():
    readme = _readme()
    assert set(re.findall(r"mgdpr-graph[\w/-]*", readme)) == {graphs.GRAPH_FORMAT}
    assert set(re.findall(r"mgdpr-checkpoint[\w/-]*", readme)) == {CHECKPOINT_FORMAT}
    cache_files = set(re.findall(r"`([\w<>-]+\.csv)`", readme)) - {"trace.csv"}
    assert cache_files == {"panel.csv", "weights.csv"}
    headers = set(re.findall(r"`((?:stock,relation|relation,stock)[^`]*)`", readme))
    assert headers == {"stock,relation,<dates…>", "relation,stock,<days…>"}
    assert market._table_layout(1, ["2020-01-02"])[0] == ["stock", "relation", "2020-01-02"]
    assert graphs._table_layout([4], 1)[0] == ["relation", "stock", "4"]


def test_readme_synopsis_names_the_flags_of_each_command():
    documented: dict[str, set[str]] = {}
    for line in _readme_cli_section().splitlines():
        if line.startswith("mgdpr "):
            usage = line.split("#", 1)[0]
            documented.setdefault(usage.split()[1], set()).update(re.findall(r"--[a-z-]+", usage))
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    accepted = {
        name: {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, parser in commands.choices.items()
    }
    assert documented == accepted


class TestUsageErrors:
    """A command-line usage error exits 5 with a one-line message: never
    argparse's 2 (the code for bad input data), never a traceback, and
    never a flag ignored without a word."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "required: command"),
            (["train"], "required: --config"),
            (["graph", "--config", "{config}", "--day", "6"], "unrecognized arguments: --day 6"),
            (["eval", "--config", "{config}", "--seeds", "x"], "invalid int value: 'x'"),
            (["train", "--config", "{config}", "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["train", "--config", "{config}", "--epochs", "5"], "unrecognized arguments: --epochs 5"),
            (["eval", "--config", "{config}", "--seed", "7"], "unrecognized arguments: --seed 7"),
            (["eval", "--config", "{config}", "--seeds", "2", "--epochs", "1"], "unrecognized arguments: --epochs 1"),
            (["eval", "--config", "{config}", "--checkpoint", "x"], "unrecognized arguments: --checkpoint x"),
        ],
        ids=["no-command", "no-config", "deleted-day-flag", "non-integer-seeds", "deleted-train-seed-flag",
             "deleted-train-epochs-flag", "deleted-eval-seed-flag", "deleted-eval-epochs-flag",
             "deleted-eval-checkpoint-flag"],
    )
    def test_exits_5_with_one_line(self, tmp_path, capsys, argv, message):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        capsys.readouterr()
        argv = [a.format(config=config) for a in argv]
        assert run(*argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and message in err
        assert not (tmp_path / "out").exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert "exit codes:" in out and "--day" not in out
        epilog = out.split("exit codes:\n", 1)[1]
        assert [int(line.split()[0]) for line in epilog.splitlines()] == [2, 3, 4, 5, 6]


def _error_classes() -> list[type]:
    kinds = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, MgdprError)]
    return [c for c in kinds if c is not MgdprError]


class TestExitCodes:
    def test_every_error_class_exits_with_the_code_the_readme_lists(self):
        listed = {}
        for line in _readme_cli_section().splitlines():
            row = re.fullmatch(r"\| (\d) \| ([^|]*) \|.*", line)
            if row:
                listed.update((name, int(row[1])) for name in re.findall(r"`(\w+)`", row[2]))
        assert sorted(listed) == sorted(c.__name__ for c in _error_classes())
        assert {name: cli._exit_code(getattr(errors, name)("x")) for name in listed} == listed

    def test_data_errors_and_day_range_exit_2(self):
        family = [c for c in _error_classes() if issubclass(c, DataError)]
        for kind in (*family, DayRangeError):
            assert cli._exit_code(kind("x")) == 2


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
    ("split.test", 1.5, "1.5"),
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


class TestUnknownEnvVariable:
    """An MGDPR_* variable that names no config key exits 5, naming it, as
    the same key in the config file does."""

    @pytest.mark.parametrize("name", ["MGDPR_TRAIN_EPOCH", "MGDPR_TRAIN_BATCH_SIZE", "MGDPR_"])
    def test_exits_5_naming_it(self, tmp_path, capsys, monkeypatch, name):
        config = make_workspace(tmp_path)
        monkeypatch.setenv(name, "5")
        assert run("ingest", "--config", config) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert not (tmp_path / "cache").exists()


def _mutations(data: bytes, count: int, seed: int):
    """``count`` seeded one-step mutations of ``data``: (kind, mutated bytes)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = ("bit-flip", "truncation", "line-swap", "inserted-byte")[rng.integers(4)]
        if kind == "bit-flip":
            bit = int(rng.integers(len(data) * 8))
            mutated = bytearray(data)
            mutated[bit // 8] ^= 1 << (bit % 8)
        elif kind == "truncation":
            mutated = data[: rng.integers(len(data))]
        elif kind == "line-swap":
            lines = data.split(b"\n")
            i, j = rng.integers(len(lines), size=2)
            lines[i], lines[j] = lines[j], lines[i]
            mutated = b"\n".join(lines)
        else:
            at = int(rng.integers(len(data) + 1))
            mutated = data[:at] + bytes([rng.integers(256)]) + data[at:]
        yield kind, bytes(mutated)


@pytest.mark.parametrize("target", ["data/SYN01.csv", "config.json"])
def test_mutated_input_fails_ingest_with_one_line_or_not_at_all(tmp_path, capsys, monkeypatch, target):
    config = make_workspace(tmp_path)
    # The paths come from the environment, so that a mutated path in the
    # config cannot send a write, or a read, outside this test's directory.
    monkeypatch.setenv("MGDPR_PATHS_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.setenv("MGDPR_PATHS_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / target
    original = path.read_bytes()
    capsys.readouterr()
    for k, (kind, mutated) in enumerate(_mutations(original, 300, seed=21)):
        path.write_bytes(mutated)
        code = run("ingest", "--config", config)
        err = capsys.readouterr().err
        assert code in (0, 2, 5), (k, kind, code, err)
        if code:
            assert err.startswith("error:") and err.count("\n") == 1, (k, kind, err)


def _line_edit(edit):
    """The mutation that applies ``edit`` to the file's list of text lines,
    split at its line ending (the raw CSV's is CRLF)."""

    def mutate(data):
        eol = "\r\n" if b"\r\n" in data else "\n"
        lines = data.decode("utf-8").split(eol)
        edit(lines)
        return eol.join(lines).encode("utf-8")

    return mutate


def _csv_cell(row, column, value):
    """Set the ``column`` cell of CSV line ``row`` (the header is line 0)."""

    def edit(lines):
        cells = lines[row].split(",")
        cells[lines[0].split(",").index(column)] = value
        lines[row] = ",".join(cells)

    return _line_edit(edit)


def _config_value(key, text):
    """Set the JSON text of ``key``'s value on its line of the indented config."""

    def edit(lines):
        (i,) = [i for i, line in enumerate(lines) if line.startswith(f'  "{key}": ')]
        lines[i] = f'  "{key}": {text}' + ("," if lines[i].endswith(",") else "")

    return _line_edit(edit)


def _cell_after_date(row, value):
    """Insert a cell after the date of CSV line ``row``: one cell more than
    the header names, every later value shifted one column on."""

    def edit(lines):
        cells = lines[row].split(",")
        cells.insert(1, value)
        lines[row] = ",".join(cells)

    return _line_edit(edit)


def _second_close_column(lines):
    """Append a column that the header also names ``close``, 1.0 on every row."""
    lines[0] += ",close"
    lines[1:-1] = [line + ",1.0" for line in lines[1:-1]]


_SUMMARY = r"^ingested 3 stocks x 30 days \(0 tickers below coverage, {} malformed rows dropped\)$"
# A dropped row leaves SYN01 on 29 of the 30 days, below the default coverage 0.98.
_ROW_DROPPED = r"^ingested 2 stocks x 30 days \(1 tickers below coverage, 1 malformed rows dropped\)$"

# Named byte, line and cell mutations of a raw CSV file (a header and 30
# rows) and of the config (indented JSON, one key per line):
# (id, file, mutation, ingest's exit code, a pattern that its one error line,
# or on success its summary line, matches).
_INPUT_MUTATIONS = [
    ("csv-byte-non-utf8", "data/SYN01.csv", lambda data: b"\xff" + data, 2, r"SYN01.csv: unreadable raw CSV"),
    ("csv-byte-emptied", "data/SYN01.csv", lambda data: b"", 2, r"SYN01.csv: missing column\(s\) date, open"),
    ("csv-byte-lf-endings", "data/SYN01.csv", lambda data: data.replace(b"\r\n", b"\n"), 0, _SUMMARY.format(0)),
    ("csv-byte-bom", "data/SYN01.csv", lambda data: b"\xef\xbb\xbf" + data, 2, r"SYN01.csv: missing column\(s\) date$"),
    ("csv-byte-semicolon", "data/SYN01.csv", lambda data: data.replace(b",", b";", 1), 2,
     r"SYN01.csv: missing column\(s\) date, open$"),
    ("csv-line-header-dropped", "data/SYN01.csv", _line_edit(lambda lines: lines.pop(0)), 2,
     r"SYN01.csv: missing column\(s\) date, open, high, low, close, volume$"),
    ("csv-line-second-close-column", "data/SYN01.csv", _line_edit(_second_close_column), 2,
     r"SYN01.csv: header names the column 'close' twice$"),
    ("csv-line-header-renames-close", "data/SYN01.csv", _csv_cell(0, "close", "adj_close"), 2,
     r"SYN01.csv: missing column\(s\) close$"),
    ("csv-line-row-repeated", "data/SYN01.csv", _line_edit(lambda lines: lines.insert(5, lines[5])), 0,
     _SUMMARY.format(1)),
    ("csv-line-rows-swapped", "data/SYN01.csv", _line_edit(lambda lines: lines.insert(3, lines.pop(7))), 0,
     _SUMMARY.format(0)),
    ("csv-line-blank", "data/SYN01.csv", _line_edit(lambda lines: lines.insert(4, "")), 0, _SUMMARY.format(0)),
    ("csv-line-row-deleted", "data/SYN01.csv", _line_edit(lambda lines: lines.pop(9)), 0,
     r"^ingested 2 stocks x 30 days \(1 tickers below coverage, 0 malformed rows dropped\)$"),
    ("csv-cell-text-price", "data/SYN01.csv", _csv_cell(3, "close", "abc"), 0, _ROW_DROPPED),
    ("csv-cell-empty-volume", "data/SYN01.csv", _csv_cell(3, "volume", ""), 0, _ROW_DROPPED),
    ("csv-cell-negative-open", "data/SYN01.csv", _csv_cell(3, "open", "-1.0"), 0, _ROW_DROPPED),
    ("csv-cell-nan-low", "data/SYN01.csv", _csv_cell(3, "low", "nan"), 0, _ROW_DROPPED),
    ("csv-cell-bad-date", "data/SYN01.csv", _csv_cell(3, "date", "2020/01/03"), 0, _ROW_DROPPED),
    ("csv-cell-impossible-date", "data/SYN01.csv", _csv_cell(3, "date", "2020-02-30"), 0, _ROW_DROPPED),
    ("csv-cell-huge-high", "data/SYN01.csv", _csv_cell(3, "high", "1e200"), 2, r"SYN01: high 1e\+200 on 2020-01-03"),
    ("csv-cell-extra-after-date", "data/SYN01.csv", _cell_after_date(3, "1.0"), 0, _ROW_DROPPED),
    # An unclosed quote reads the rest of the file as one malformed row, so
    # SYN01 has no valid row.
    ("csv-line-every-row-malformed", "data/SYN01.csv", _line_edit(lambda lines: lines.insert(1, '"' + lines.pop(1))),
     0, _ROW_DROPPED),
    ("config-byte-non-utf8", "config.json", lambda data: b"\xff" + data, 5, r"config.json: unreadable config file"),
    ("config-byte-emptied", "config.json", lambda data: b"", 5, r"config.json: config file is not valid JSON"),
    ("config-byte-truncated", "config.json", lambda data: data[: len(data) // 2], 5,
     r"config.json: config file is not valid JSON"),
    ("config-line-key-repeated", "config.json", _line_edit(lambda lines: lines.insert(1, '  "train.epochs": 50,')),
     5, r"config.json: config file repeats the key 'train.epochs'$"),
    ("config-line-unknown-key", "config.json", _line_edit(lambda lines: lines.insert(1, '  "train.epoch": 50,')),
     5, r"config.json: unknown config key\(s\): train.epoch$"),
    ("config-line-brace-dropped", "config.json", _line_edit(lambda lines: lines.pop()), 5,
     r"config.json: config file is not valid JSON"),
    ("config-line-market-dropped", "config.json", _line_edit(lambda lines: lines.pop(1)), 0, _SUMMARY.format(0)),
    ("config-cell-string-lookback", "config.json", _config_value("model.lookback", '"5"'), 5,
     r"model.lookback must be int, got '5'$"),
    ("config-cell-nan-width", "config.json", _config_value("model.embed_dim", "NaN"), 5,
     r"model.embed_dim must be int, got nan$"),
    ("config-cell-null-epochs", "config.json", _config_value("train.epochs", "null"), 5,
     r"train.epochs must be int, got None$"),
    ("config-cell-list", "config.json", lambda data: b"[" + data + b"]", 5,
     r"config.json: config file is not a JSON object$"),
]


@pytest.mark.parametrize(
    "target, mutate, code, message", [case[1:] for case in _INPUT_MUTATIONS], ids=[case[0] for case in _INPUT_MUTATIONS]
)
def test_named_input_mutation_exits_with_its_code_and_one_line(tmp_path, capsys, monkeypatch, target, mutate, code,
                                                                message):
    config = make_workspace(tmp_path)
    monkeypatch.setenv("MGDPR_PATHS_DATA_DIR", str(tmp_path / "data"))
    monkeypatch.setenv("MGDPR_PATHS_CACHE_DIR", str(tmp_path / "cache"))
    path = tmp_path / target
    path.write_bytes(mutate(path.read_bytes()))
    capsys.readouterr()
    assert run("ingest", "--config", config) == code
    out, err = capsys.readouterr()
    line = err if code else out.splitlines(keepends=True)[0]
    assert line.startswith("error: " if code else "ingested ") and line.count("\n") == 1, (out, err)
    assert re.search(message, line.rstrip("\n")), line


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

    @pytest.mark.parametrize("coverage", [0, 1.5])
    def test_coverage_outside_unit_interval_exits_5(self, tmp_path, capsys, coverage):
        config = make_workspace(tmp_path, coverage=coverage)
        assert run("ingest", "--config", config) == 5
        err = capsys.readouterr().err
        assert err == f"error: coverage must be in (0, 1], got {coverage}\n"
        assert not (tmp_path / "cache").exists()

    def test_non_utf8_csv_exits_2(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        bad = tmp_path / "data" / "SYN01.csv"
        bad.write_bytes(b"\xff\xfe" + bad.read_bytes())
        assert run("ingest", "--config", config) == 2
        assert str(bad) in capsys.readouterr().err

    def test_field_over_the_csv_size_limit_exits_2_naming_the_file(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        bad = tmp_path / "data" / "SYN01.csv"
        bad.write_text(bad.read_text() + '2020-03-01,1,1,1,1,"' + "9" * 131073 + '"\n')
        assert run("ingest", "--config", config) == 2
        err = capsys.readouterr().err
        assert err == f"error: {bad}: unreadable raw CSV (field larger than field limit (131072))\n"
        assert not (tmp_path / "cache").exists()

    @staticmethod
    def _long_file(data_dir, ticker):
        """``data_dir/long.csv``: SYN00's rows under ``ticker`` in a ticker column."""
        rows = (data_dir / "SYN00.csv").read_text().splitlines()
        long = data_dir / "long.csv"
        long.write_text("\n".join([rows[0] + ",ticker"] + [f"{row},{ticker}" for row in rows[1:]]) + "\n")
        return long

    def test_ticker_in_two_files_exits_2_naming_both(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        long = self._long_file(tmp_path / "data", "SYN00")
        assert run("ingest", "--config", config) == 2
        err = capsys.readouterr().err
        assert "'SYN00'" in err and str(tmp_path / "data" / "SYN00.csv") in err and str(long) in err
        assert not (tmp_path / "cache").exists()

    def test_ticker_with_a_path_exits_2_and_writes_nothing(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        self._long_file(tmp_path / "data", "../../escaped")
        before = sorted(tmp_path.rglob("*"))
        assert run("ingest", "--config", config) == 2
        assert "'../../escaped'" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before
        assert not (tmp_path / "escaped.csv").exists()

    def test_cache_dir_that_is_a_file_exits_5_with_one_line(self, tmp_path, capsys, monkeypatch):
        config = make_workspace(tmp_path)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("MGDPR_PATHS_CACHE_DIR", str(blocker))
        assert run("ingest", "--config", config) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(blocker / "panel") in err

    def test_price_whose_square_overflows_exits_2_naming_the_stock(self, tmp_path, capsys):
        # 1e160 is finite, but its square is not: the panel refuses it in one
        # line, so no later command meets it (the graph builder's own refusal
        # of an overflowing window is tested in tests/test_graphs.py)
        config = make_workspace(tmp_path)
        path = tmp_path / "data" / "SYN01.csv"
        path.write_text(_set_cell(path.read_text(), 10, RELATIONS.index("close") + 1, "1e160"))
        assert run("ingest", "--config", config) == 2
        assert capsys.readouterr().err == "error: SYN01: close 1e+160 on 2020-01-10 exceeds 1e+150 in magnitude\n"
        assert not (tmp_path / "cache").exists()

    def test_cached_price_whose_square_overflows_exits_2(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        _damage(tmp_path / "cache" / "panel" / "panel.csv", lambda t: _set_cell(t, 3, 2, "1e160"))
        capsys.readouterr()
        assert run("graph", "--config", config) == 2
        _one_line_error(capsys, r"SYN00: low 1e\+160 on 2020-01-01 exceeds 1e\+150", r"re-run `mgdpr ingest`")

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

    def test_too_few_days_exits_2(self, tmp_path, capsys):
        # lookback tau with tau days: no end day has a next-day label
        config = make_workspace(tmp_path, num_days=5, lookback=5)
        assert run("ingest", "--config", config) == 0
        capsys.readouterr()
        for argv in (["graph"], ["train"], ["eval", "--seeds", "1"]):
            assert run(*argv, "--config", config) == 2
            _one_line_error(capsys, r"no labeled end days: need at least 6 days for lookback 5, have 5")

    def test_degenerate_window_exits_3_naming_the_stock(self, tmp_path, capsys):
        # an open price of 1e-8 gives a window energy below the floor on every day
        config = make_workspace(tmp_path)
        raw = tmp_path / "data" / "SYN01.csv"
        header, *rows = raw.read_text().splitlines()
        rows = [_set_cell(row, 0, 1, "1e-08") for row in rows]
        raw.write_text("\n".join([header, *rows]) + "\n")
        assert run("ingest", "--config", config) == 0
        capsys.readouterr()
        for argv in (["graph"], ["train"], ["eval", "--seeds", "1"]):
            assert run(*argv, "--config", config) == 3
            _one_line_error(capsys, r"SYN01: window energy [0-9.e+-]+ below floor 1e-12")
        assert not (tmp_path / "cache" / "graphs").exists()

    def test_degenerate_test_window_fails_eval_not_train(self, tmp_path, capsys):
        # SYN00's prices of 1e-7 over the last 8 of 40 days make the windows
        # ending on days 36-38 degenerate; all three are test days.
        lookback = 5
        series = planted_market(num_stocks=6, num_days=40, momentum_lag=3, seed=1)
        series[0].values[-8:, :4] = 1e-7
        cal = series[0].dates
        config = make_workspace(
            tmp_path, lookback=lookback,
            **{"split.train": [cal[0], cal[28]], "split.val": [cal[29], cal[32]], "split.test": [cal[33], cal[39]]},
        )
        write_series_csv(series, tmp_path / "data")
        assert run("ingest", "--config", config) == 0
        assert run("train", "--config", config) == 0
        capsys.readouterr()
        assert run("eval", "--config", config) == 3
        _one_line_error(capsys, r"SYN00: window energy [0-9.e+-]+ below floor 1e-12")

    def test_reload_matches_in_memory(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        panel = read_panel(tmp_path / "cache" / "panel")
        reloaded = read_graphs(tmp_path / "cache" / "graphs")
        for t, adj in reloaded.items():
            expected = build_day_graphs(panel, t, 5)
            assert adj.matrices.tobytes() == expected.matrices.tobytes()

    def test_no_temporary_files_left(self, tmp_path):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        names = [p.name for p in (tmp_path / "cache" / "graphs").iterdir()]
        assert not [n for n in names if n.startswith(".") or "tmp" in n]
        assert "index.json" in names


def _set_cell(text, row, col, value):
    """``text`` with cell ``col`` of line ``row`` (0 is the header) set to ``value``."""
    lines = text.split("\n")
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines)


def _edit_row(text, row, edit):
    lines = text.split("\n")
    lines[row] = ",".join(edit(lines[row].split(",")))
    return "\n".join(lines)


def _bump_digit(text):
    """``text`` with the digit after the decimal point of line 3's first number changed."""
    cell = text.split("\n")[3].split(",")[2]
    k = cell.index(".") + 1
    return _set_cell(text, 3, 2, cell[:k] + str((int(cell[k]) + 1) % 10) + cell[k + 1 :])


# One list of damage to a cache table, applied to both caches. Line 3 of the
# panel table is the row '0,low' and of the weights table the row 'open,2';
# cell 2 is the first number of a row. Each case gives the edit of the
# table's text to new text or bytes (None deletes the file), then the
# message expected from panel.csv and from weights.csv.
TABLE_DAMAGE = {
    "truncate-0": (lambda t: "", "truncated", "truncated"),
    "truncate-1pct": (lambda t: t[: len(t) // 100], "truncated", "truncated"),
    "truncate-half": (lambda t: t[: len(t) // 2], "truncated", "truncated"),
    "truncate-last-byte": (lambda t: t[:-1], "truncated", "truncated"),
    "truncate-after-a-row": (
        lambda t: "".join(t.splitlines(keepends=True)[:2]), "1 rows, expected 15", "1 rows, expected 15"
    ),
    "header": (lambda t: "x" + t, "unexpected header", "unexpected header"),
    "wrong-key": (
        lambda t: _edit_row(t, 3, lambda cells: cells[:1] + [cells[1] + "x"] + cells[2:]),
        r"panel.csv:4: expected the row '0,low' with 30 numbers",
        r"weights.csv:4: expected the row 'open,2' with 25 numbers",
    ),
    "short-row": (
        lambda t: _edit_row(t, 3, lambda cells: cells[:-1]),
        r"panel.csv:4: expected the row '0,low' with 30 numbers",
        r"weights.csv:4: expected the row 'open,2' with 25 numbers",
    ),
    "long-row": (
        lambda t: _edit_row(t, 3, lambda cells: cells + ["1.0"]),
        r"panel.csv:4: expected the row '0,low' with 30 numbers",
        r"weights.csv:4: expected the row 'open,2' with 25 numbers",
    ),
    "two-numbers-in-a-cell": (
        lambda t: _set_cell(t, 3, 2, "0.5,0.5"),
        r"panel.csv:4: expected the row '0,low' with 30 numbers",
        r"weights.csv:4: expected the row 'open,2' with 25 numbers",
    ),
    "non-numeric-cell": (
        lambda t: _set_cell(t, 3, 2, "12.3.4"), r"panel.csv:4: non-numeric", r"weights.csv:4: non-numeric"
    ),
    "nan": (
        lambda t: _set_cell(t, 3, 2, "nan"),
        r"panel.csv:4: non-finite value in column '2020-01-01' of the row '0,low'",
        r"weights.csv:4: non-finite value in column '4' of the row 'open,2'",
    ),
    "inf": (
        lambda t: _set_cell(t, 3, 2, "inf"),
        r"panel.csv:4: non-finite value in column '2020-01-01' of the row '0,low'",
        r"weights.csv:4: non-finite value in column '4' of the row 'open,2'",
    ),
    "zero": (
        lambda t: _set_cell(t, 3, 2, "0.0"),
        "non-positive prices",
        r"weights.csv: weight 0.0 of open stock 2 on day 4 is not positive",
    ),
    "negative": (
        lambda t: _set_cell(t, 3, 2, "-0.5"),
        "non-positive prices",
        r"weights.csv: weight -0.5 of open stock 2 on day 4 is not positive",
    ),
    "non-utf8": (
        lambda t: t.encode()[:8] + b"\xff" + t.encode()[9:], "unreadable panel table", "unreadable graph weights"
    ),
    "huge": (
        lambda t: _set_cell(t, 3, 2, "1e160"),
        r"exceeds 1e\+150 in magnitude",
        r"weights.csv: weights of open on day 4 sum to 1e\+160, not 1 within 1e-09",
    ),
    "one-changed-digit": (
        _bump_digit,
        "panel_sha256 does not match panel.csv",
        r"weights.csv: weights of open on day 4 sum to [0-9.]+, not 1 within 1e-09",
    ),
    "deleted": (None, "panel.csv: panel table not found", "weights.csv: graph weights not found"),
}


# The labeled end days of make_workspace's default 30 days at lookback 5.
LABELED_DAYS = list(range(4, 29))


def _graph_cache(tmp_path):
    """The graph cache directory of a default workspace after `ingest` and `graph`."""
    config = make_workspace(tmp_path)
    for cmd in ("ingest", "graph"):
        assert run(cmd, "--config", config) == 0
    return tmp_path / "cache" / "graphs"


def _damage(path, edit):
    if edit is None:
        path.unlink()
    else:
        damaged = edit(path.read_text())
        path.write_bytes(damaged if isinstance(damaged, bytes) else damaged.encode())


def _restamp(graph_dir):
    """Record the weights table's current digest in the index, so that the
    table's own checks, not its checksum, meet a damaged table."""
    index_path = graph_dir / "index.json"
    index = json.loads(index_path.read_text())
    index["sha256"] = hashlib.sha256((graph_dir / "weights.csv").read_bytes()).hexdigest()
    index_path.write_text(json.dumps(index))


def _one_line_error(capsys, *patterns):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    for pattern in patterns:
        assert re.search(pattern, err), (pattern, err)


class TestDamagedCacheTable:
    """The same damage to either cache's table fails its reader: the next
    command exits with a one-line message that names the panel table and
    says to re-run `mgdpr ingest`, and read_graphs raises FormatError
    naming the weights table."""

    @pytest.mark.parametrize("edit, panel_match, weights_match", TABLE_DAMAGE.values(), ids=list(TABLE_DAMAGE))
    def test_panel_table_graph_exits_2(self, tmp_path, capsys, edit, panel_match, weights_match):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        _damage(tmp_path / "cache" / "panel" / "panel.csv", edit)
        capsys.readouterr()
        assert run("graph", "--config", config) == 2
        _one_line_error(capsys, panel_match, r"re-run `mgdpr ingest`")

    @pytest.mark.parametrize("edit, panel_match, weights_match", TABLE_DAMAGE.values(), ids=list(TABLE_DAMAGE))
    def test_weights_table_read_graphs_raises(self, tmp_path, edit, panel_match, weights_match):
        graph_dir = _graph_cache(tmp_path)
        _damage(graph_dir / "weights.csv", edit)
        if edit is not None:
            with pytest.raises(FormatError, match="does not match the sha256"):
                read_graphs(graph_dir, days=LABELED_DAYS)
            _restamp(graph_dir)
        with pytest.raises(FormatError, match=weights_match):
            read_graphs(graph_dir, days=LABELED_DAYS)


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


def _old_format_index(index):
    del index["format"]
    index["forms"] = ["raw", "normalized"]


class TestDamagedCacheObject:
    """Damage to a cache's JSON object fails like damage to its table."""

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda path: path.write_text("{not json"), "not valid JSON"),
            (lambda path: path.write_text("{}"), "field tickers must be"),
            (lambda path: _edit_json(path, lambda m: m["fill_counts"].update(SYN01=99)), "panel_sha256 does not match"),
        ],
        ids=["garbage-manifest", "empty-manifest", "edited-fill-count"],
    )
    def test_panel_manifest_graph_exits_2(self, tmp_path, capsys, damage, match):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        damage(tmp_path / "cache" / "panel" / "manifest.json")
        capsys.readouterr()
        assert run("graph", "--config", config) == 2
        _one_line_error(capsys, match, r"re-run `mgdpr ingest`")

    def test_impossible_calendar_date_with_its_digest_graph_exits_2(self, tmp_path, capsys):
        # The manifest, the table's header and the digest agree on a
        # calendar whose last day does not exist.
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        panel_dir = tmp_path / "cache" / "panel"
        panel = read_panel(panel_dir)
        real, impossible = panel.calendar[-1], "2020-01-32"
        assert real < impossible
        panel.calendar[-1] = impossible
        table = panel_dir / "panel.csv"
        table.write_text(table.read_text().replace(f",{real}", f",{impossible}", 1))
        manifest = panel_dir / "manifest.json"
        _edit_json(manifest, lambda m: m.update(calendar=panel.calendar, panel_sha256=panel.digest()))
        capsys.readouterr()
        assert run("graph", "--config", config) == 2
        _one_line_error(capsys, r"manifest.json: calendar is not a list of ISO dates", r"re-run `mgdpr ingest`")

    def test_repeated_manifest_key_train_exits_2(self, tmp_path, capsys):
        # An earlier, empty ``tickers`` that json would overwrite with the real one.
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        manifest = tmp_path / "cache" / "panel" / "manifest.json"
        manifest.write_text(manifest.read_text().replace("{", '{"tickers": [], ', 1))
        capsys.readouterr()
        assert run("train", "--config", config) == 2
        _one_line_error(capsys, r"manifest.json: panel manifest repeats the key 'tickers'", r"re-run `mgdpr ingest`")

    @pytest.mark.parametrize(
        "damage, match",
        [
            (lambda path: path.write_text("{not json"), "not valid JSON"),
            (lambda path: _edit_json(path, _old_format_index), "field format must be"),
            (lambda path: _edit_json(path, lambda index: index.pop("sha256")), "field sha256 must be str"),
            (lambda path: _edit_json(path, lambda index: index.update(sha256={})), "field sha256 must be str"),
            (lambda path: _edit_json(path, lambda index: index["days"].pop()), "day 28 is not in the graph index"),
            (lambda path: _edit_json(path, lambda index: index["days"].append(99)), "unexpected header"),
            (lambda path: _edit_json(path, lambda index: index["days"].reverse()), "unexpected header"),
            (lambda path: path.write_text(path.read_text().replace("{", '{"days": [], ', 1)), "repeats the key 'days'"),
        ],
        ids=["garbage-index", "old-format-index", "no-digest", "digest-map", "day-missing", "extra-day",
             "days-reordered", "repeated-key"],
    )
    def test_graph_index_read_graphs_raises(self, tmp_path, damage, match):
        graph_dir = _graph_cache(tmp_path)
        damage(graph_dir / "index.json")
        with pytest.raises(FormatError, match=match):
            read_graphs(graph_dir, days=LABELED_DAYS)


def _as_per_ticker_panel(panel_dir):
    """Rewrite a panel cache in the per-ticker layout of earlier versions:
    one `<ticker>.csv` per stock with a row per calendar date, the manifest
    unchanged."""
    panel = read_panel(panel_dir)
    for i, ticker in enumerate(panel.tickers):
        write_table(panel_dir / f"{ticker}.csv", ("date", *RELATIONS), panel.calendar, panel.data[i].T)
    (panel_dir / "panel.csv").unlink()


def _as_weights_v4(graph_dir):
    """Rewrite a graph cache as the mgdpr-graph-weights/4 format wrote it:
    one `dayNNNNN.csv` table per day, `relation,stock,weight`, and an index
    mapping each day file's name to its digest."""
    index_path = graph_dir / "index.json"
    index = json.loads(index_path.read_text())
    keys = [f"{relation},{i}" for relation in RELATIONS for i in range(index["num_stocks"])]
    digests = {}
    for t, adj in read_graphs(graph_dir).items():
        name = f"day{t:05d}.csv"
        digests[name] = write_table(graph_dir / name, ("relation", "stock", "weight"), keys, adj.sender_weights.reshape(-1, 1))
    (graph_dir / "weights.csv").unlink()
    index.update(format="mgdpr-graph-weights/4", sha256=digests)
    index_path.write_text(json.dumps(index, indent=2, sort_keys=True) + "\n")


def _contents(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestPreviousCacheLayout:
    """A cache of an earlier layout is refused until the command that writes
    it runs again; that command leaves the earlier layout's files in place,
    and nothing reads them."""

    def test_per_ticker_panel_graph_exits_2_until_ingest_rewrites_it(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        panel_dir = tmp_path / "cache" / "panel"
        _as_per_ticker_panel(panel_dir)
        earlier = _contents(panel_dir)
        capsys.readouterr()
        assert run("graph", "--config", config) == 2
        _one_line_error(capsys, "panel.csv: panel table not found", r"re-run `mgdpr ingest`")

        assert run("ingest", "--config", config) == 0
        now = _contents(panel_dir)
        assert set(now) == set(earlier) | {"panel.csv"}
        assert all(now[name] == data for name, data in earlier.items() if name != "manifest.json")
        assert run("graph", "--config", config) == 0

    def test_weights_v4_is_refused_until_graph_rewrites_it(self, tmp_path):
        graph_dir = _graph_cache(tmp_path)
        _as_weights_v4(graph_dir)
        earlier = _contents(graph_dir)
        assert earlier["day00010.csv"].startswith(b"relation,stock,weight\n")
        with pytest.raises(FormatError, match="mgdpr-graph-weights/5"):
            read_graphs(graph_dir)

        assert run("graph", "--config", tmp_path / "config.json") == 0
        now = _contents(graph_dir)
        assert json.loads(now["index.json"])["format"] == graphs.GRAPH_FORMAT
        assert set(now) == set(earlier) | {"weights.csv"}
        assert all(now[name] == data for name, data in earlier.items() if name != "index.json")
        assert sorted(read_graphs(graph_dir)) == LABELED_DAYS


def _other_panel_graphs(tmp_path, config):
    """Leave the graph cache of another market's prices, then put back
    make_workspace's own prices."""
    write_series_csv(planted_market(num_stocks=3, num_days=30, momentum_lag=3, seed=2), tmp_path / "data")
    for cmd in ("ingest", "graph"):
        assert run(cmd, "--config", config) == 0
    write_series_csv(planted_market(num_stocks=3, num_days=30, momentum_lag=3, seed=1), tmp_path / "data")


# What is left in <cache_dir>/graphs/ before `train` and `eval` run.
GRAPH_CACHE_STATES = {
    "absent": lambda tmp_path, config: None,
    "damaged": lambda tmp_path, config: _damage(_graph_cache(tmp_path) / "weights.csv", TABLE_DAMAGE["nan"][0]),
    "other-panel": _other_panel_graphs,
    "weights-v4": lambda tmp_path, config: _as_weights_v4(_graph_cache(tmp_path)),
}


@pytest.mark.parametrize("state", GRAPH_CACHE_STATES.values(), ids=list(GRAPH_CACHE_STATES))
def test_train_and_eval_build_their_graphs_whatever_the_graph_cache_holds(tmp_path, state):
    outputs = []
    for side in ("after-graph", "other"):
        base = tmp_path / side
        base.mkdir()
        config = make_workspace(base)
        if side == "after-graph":
            for cmd in ("ingest", "graph"):
                assert run(cmd, "--config", config) == 0
        else:
            state(base, config)
            assert run("ingest", "--config", config) == 0
        for cmd in ("train", "eval"):
            assert run(cmd, "--config", config) == 0
        outputs.append([(base / "out" / name).read_bytes() for name in ("checkpoint.bin", "trace.csv", "metrics.json")])
    assert outputs[0] == outputs[1]


class TestEachCacheIsTwoFiles:
    def test_smaller_reingest_and_graph_rewrite_both_files(self, tmp_path):
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
        assert sorted(p.name for p in panel_dir.iterdir()) == ["manifest.json", "panel.csv"]
        assert sorted(p.name for p in graph_dir.iterdir()) == ["index.json", "weights.csv"]
        panel = read_panel(panel_dir)
        assert panel.num_stocks == 3 and panel.num_days == 20
        assert sorted(read_graphs(graph_dir)) == list(range(4, 19))
        assert json.loads((graph_dir / "index.json").read_text())["panel_sha256"] == panel.digest()

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
    def test_impossible_date_in_a_split_range_exits_5(self, tmp_path, capsys):
        config = make_workspace(tmp_path, **{"split.test": ["2020-01-25", "2020-02-30"]})
        assert run("ingest", "--config", config) == 0
        capsys.readouterr()
        assert run("train", "--config", config) == 5
        _one_line_error(capsys, r"test range .*'2020-02-30'.* is not a pair of ISO dates$")
        assert not (tmp_path / "out").exists()

    def test_zero_epochs_checkpoint_equals_initialization(self, tmp_path, monkeypatch):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        monkeypatch.setenv("MGDPR_TRAIN_EPOCHS", "0")
        assert run("train", "--config", config) == 0
        resolved = cli.load_config(config)
        mcfg = cli.model_config(resolved, num_stocks=3)
        trained = load_checkpoint(tmp_path / "out" / "checkpoint.bin", mcfg)
        reference = tmp_path / "reference.bin"
        save_checkpoint(reference, Model.initialized(mcfg, seed=0))
        assert (tmp_path / "out" / "checkpoint.bin").read_bytes() == reference.read_bytes()
        assert set(trained.params) == set(Model.initialized(mcfg, seed=0).params)

    def test_same_seed_identical_checkpoint_bytes(self, tmp_path, monkeypatch):
        config = make_workspace(tmp_path)
        assert run("ingest", "--config", config) == 0
        assert run("graph", "--config", config) == 0
        monkeypatch.setenv("MGDPR_TRAIN_SEED", "5")
        checkpoints = []
        for _ in range(2):
            assert run("train", "--config", config) == 0
            checkpoints.append((tmp_path / "out" / "checkpoint.bin").read_bytes())
        assert checkpoints[0] == checkpoints[1]

    def test_writes_trace_and_resolved_config(self, tmp_path):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        trace = (tmp_path / "out" / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "epoch,loss,val_acc" and len(trace) == 3
        resolved = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
        assert resolved == cli.load_config(config)
        assert resolved["train.epochs"] == 2

    @pytest.mark.parametrize(
        "env", [{}, {"MGDPR_TRAIN_SEED": "7", "MGDPR_TRAIN_EPOCHS": "5"}], ids=["file-values", "env-overrides"]
    )
    def test_resolved_config_reproduces_the_run(self, tmp_path, monkeypatch, env):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert run("train", "--config", config) == 0
        out = tmp_path / "out"
        outputs = [(out / name).read_bytes() for name in ("checkpoint.bin", "trace.csv")]
        for name in env:
            monkeypatch.delenv(name)
        assert run("train", "--config", out / "resolved_config.json") == 0
        assert [(out / name).read_bytes() for name in ("checkpoint.bin", "trace.csv")] == outputs
        assert len(outputs[1].splitlines()) == 1 + int(env.get("MGDPR_TRAIN_EPOCHS", 2))

    @pytest.mark.parametrize("source", ["file", "env"])
    def test_negative_seed_exits_5_with_one_line(self, tmp_path, capsys, monkeypatch, source):
        config = make_workspace(tmp_path, **({"train.seed": -1} if source == "file" else {}))
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        if source == "env":
            monkeypatch.setenv("MGDPR_TRAIN_SEED", "-1")
        capsys.readouterr()
        assert run("train", "--config", config) == 5
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"

    @pytest.mark.parametrize("argv", [["train"], ["eval", "--seeds", "2"]], ids=["train", "eval-seeds"])
    def test_output_dir_that_is_a_file_exits_5_before_training(self, tmp_path, capsys, monkeypatch, argv):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("MGDPR_PATHS_OUTPUT_DIR", str(blocker / "out"))

        def no_training(*args, **kwargs):
            raise AssertionError("a model was trained although the output directory cannot be made")

        monkeypatch.setattr(cli, "train", no_training)
        capsys.readouterr()
        assert run(*argv, "--config", config) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and str(blocker / "out") in err


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

    def test_report_records_the_training_seed(self, tmp_path, monkeypatch):
        config = self._pipeline(tmp_path)
        monkeypatch.setenv("MGDPR_TRAIN_SEED", "7")
        assert run("train", "--config", config) == 0
        monkeypatch.delenv("MGDPR_TRAIN_SEED")
        assert run("eval", "--config", config) == 0
        assert json.loads((tmp_path / "out" / "metrics.json").read_text())["seed"] == 7

    def test_metrics_path_that_is_a_directory_exits_5_with_one_line(self, tmp_path, capsys):
        config = self._pipeline(tmp_path)
        metrics = tmp_path / "out" / "metrics.json"
        metrics.mkdir()
        capsys.readouterr()
        assert run("eval", "--config", config) == 5
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and f"{metrics}: cannot write" in err
        assert sorted(p.name for p in metrics.parent.iterdir()) == [
            "checkpoint.bin", "metrics.json", "resolved_config.json", "trace.csv"
        ]

    def test_corrupted_checkpoint_exits_6(self, tmp_path):
        config = self._pipeline(tmp_path)
        ckpt = tmp_path / "out" / "checkpoint.bin"
        ckpt.write_bytes(b"\xff" * 64)
        assert run("eval", "--config", config) == 6

    def test_panel_reingested_with_a_ticker_delisted_exits_6_with_one_line(self, tmp_path, capsys):
        # The checkpoint's header check refuses a panel of fewer stocks
        # than it was trained on, before any reshape can fail or pass.
        config = make_workspace(tmp_path)
        data_dir = tmp_path / "data"
        write_series_csv(planted_market(num_stocks=4, num_days=30, momentum_lag=3, seed=1), data_dir)
        for cmd in ("ingest", "train"):
            assert run(cmd, "--config", config) == 0
        sorted(data_dir.glob("*.csv"))[-1].unlink()
        assert run("ingest", "--config", config) == 0
        capsys.readouterr()
        assert run("eval", "--config", config) == 6
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "num_stocks=4, not 3" in err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_multi_seed_aggregate(self, tmp_path, monkeypatch):
        config = self._pipeline(tmp_path)
        monkeypatch.setenv("MGDPR_TRAIN_SEED", "3")
        monkeypatch.setenv("MGDPR_TRAIN_EPOCHS", "1")
        assert run("eval", "--config", config, "--seeds", 2) == 0
        payload = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert payload["seeds"] == [3, 4]
        assert {"acc_mean", "acc_std", "mcc_mean", "f1_mean"} <= set(payload)
        assert (tmp_path / "out" / "metrics_seed3.json").exists()
        assert (tmp_path / "out" / "metrics_seed4.json").exists()

    @staticmethod
    def _split_days(tmp_path, config):
        """The end days of the train, val and test samples, each a sorted list."""
        resolved = cli.load_config(config)
        samples = market.make_windows(read_panel(tmp_path / "cache" / "panel"), resolved["model.lookback"])
        splits = market.split_periods(samples, resolved["split.train"], resolved["split.val"], resolved["split.test"])
        return [sorted(s.t_index for s in split) for split in splits]

    def test_each_command_builds_only_the_graphs_of_the_days_it_reads(self, tmp_path, monkeypatch):
        config = self._pipeline(tmp_path)
        train_days, val_days, test_days = self._split_days(tmp_path, config)
        assert train_days and val_days and test_days
        built = []

        def counted(panel, t, lookback):
            built.append(t)
            return build_day_graphs(panel, t, lookback)

        monkeypatch.setattr(cli, "build_day_graphs", counted)
        assert run("train", "--config", config) == 0
        assert built == sorted(train_days + val_days)
        built.clear()
        assert run("eval", "--config", config) == 0
        assert built == test_days

    def test_multi_seed_loads_inputs_once(self, tmp_path, monkeypatch):
        config = self._pipeline(tmp_path)
        days = {t for split in self._split_days(tmp_path, config) for t in split}
        monkeypatch.setenv("MGDPR_TRAIN_EPOCHS", "1")
        calls = {"read_panel": 0, "make_windows": 0, "build_day_graphs": 0}
        for name in calls:
            real = getattr(cli, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, name, counted)
        assert run("eval", "--config", config, "--seeds", 3) == 0
        # one graph per day of the splits, for all three seeds together
        assert calls == {"read_panel": 1, "make_windows": 1, "build_day_graphs": len(days)}

    def test_multi_seed_checks_the_test_split_before_training(self, tmp_path, capsys, monkeypatch):
        config = self._pipeline(tmp_path, **{"split.test": ["2021-01-01", "2021-12-31"]})

        def no_training(*args, **kwargs):
            raise AssertionError("eval --seeds trained although the test split is empty")

        monkeypatch.setattr(cli, "train", no_training)
        assert run("eval", "--config", config, "--seeds", 2) == 5
        assert "test split matched no samples; check split.test dates" in capsys.readouterr().err

    def test_multi_seed_with_misordered_split_ranges_exits_5_and_leaves_no_output_dir(self, tmp_path, capsys):
        config = make_workspace(tmp_path, **{"split.train": ["2020-02-01", "2020-02-29"]})
        assert run("ingest", "--config", config) == 0
        capsys.readouterr()
        assert run("eval", "--config", config, "--seeds", 2) == 5
        _one_line_error(capsys, r"train range ends 2020-02-29 but val starts .*ranges must be disjoint and ordered$")
        assert not (tmp_path / "out").exists()


class TestOverflowOutsideTheTrainingStep:
    """A forward pass that overflows in validation or evaluation exits 4,
    naming the day, instead of ending in a traceback."""

    def test_eval_of_overflowing_checkpoint_exits_4(self, tmp_path, capsys):
        config = make_workspace(tmp_path)
        for cmd in ("ingest", "graph", "train"):
            assert run(cmd, "--config", config) == 0
        ckpt = tmp_path / "out" / "checkpoint.bin"
        ckpt.write_bytes(_rewritten(_set_first_value("embed.W", 1e300))(ckpt.read_bytes()))
        assert run("eval", "--config", config) == 4
        assert "non-finite prediction on day" in capsys.readouterr().err

    def test_train_whose_validation_overflows_exits_4(self, tmp_path, capsys):
        config = make_workspace(tmp_path, **{"train.learning_rate": 1e200})
        for cmd in ("ingest", "graph"):
            assert run(cmd, "--config", config) == 0
        assert run("train", "--config", config) == 4
        assert "non-finite prediction on day" in capsys.readouterr().err


def _set_first_value(name, value):
    def edit(header, payload):
        shapes = expected_param_shapes(ModelConfig(**header["config"]))
        names = list(shapes)
        k = 8 * sum(math.prod(shapes[n]) for n in names[: names.index(name)])
        return payload[:k] + struct.pack("<d", value) + payload[k + 8 :]

    return edit


def _split(blob):
    (n,) = struct.unpack("<Q", blob[:8])
    return json.loads(blob[8 : 8 + n]), blob[8 + n :]


def _join(header, payload):
    text = json.dumps(header).encode()
    return struct.pack("<Q", len(text)) + text + payload


def _flip(region, i):
    """Flip bit ``i % 8`` of the byte ``i/16`` of the way into ``region``:
    the length prefix, the header or the payload."""

    def mutate(blob):
        (n,) = struct.unpack("<Q", blob[:8])
        start, size = {"prefix": (0, 8), "header": (8, n), "payload": (8 + n, len(blob) - 8 - n)}[region]
        k = start + (i if region == "prefix" else size * i // 16)
        return blob[:k] + bytes([blob[k] ^ (1 << i % 8)]) + blob[k + 1 :]

    return mutate


def _truncate(where):
    def mutate(blob):
        (n,) = struct.unpack("<Q", blob[:8])
        return blob[: {"0": 0, "8": 8, "mid-header": 8 + n // 2, "mid-payload": (len(blob) + 8 + n) // 2}[where]]

    return mutate


def _digest(header, payload):
    """The v4 and v5 digest: SHA-256 of the canonical JSON of format, config
    and seed, followed by the payload."""
    described = json.dumps({key: header[key] for key in ("config", "format", "seed")}, sort_keys=True)
    return hashlib.sha256(described.encode() + payload).hexdigest()


def _rewritten(edit):
    """``edit(header, payload) -> payload`` applied to the bytes, with the
    edited file's SHA-256 recorded."""

    def mutate(blob):
        header, payload = _split(blob)
        payload = edit(header, payload)
        header["sha256"] = _digest(header, payload)
        return _join(header, payload)

    return mutate


def _hand_edit(**changes):
    """Header values changed in place, the recorded SHA-256 left as it was."""

    def mutate(blob):
        header, payload = _split(blob)
        header.update(changes)
        return _join(header, payload)

    return mutate


def _as_v3(blob):
    """The same model in the v3 format: a SHA-256 of the payload alone."""
    header, payload = _split(blob)
    del header["sha256"]
    header.update(format="mgdpr-checkpoint-v3", payload_sha256=hashlib.sha256(payload).hexdigest())
    return _join(header, payload)


def _as_v4(blob):
    """The same model as the v4 format wrote it, under a valid v4 digest:
    one tensor per relation, each layer's mixture, transition and relation
    map interleaved relation by relation, where v5 stacks each kind over the
    relations. The payload has the same length in another order."""
    header, payload = _split(blob)
    shapes = expected_param_shapes(ModelConfig(**header["config"]))
    sizes = [math.prod(shape) for shape in shapes.values()]
    flat = dict(zip(shapes, np.split(np.frombuffer(payload, dtype="<f8"), np.cumsum(sizes)[:-1])))
    chunks = []
    for name, shape in shapes.items():
        layer, kind = name.rsplit(".", 1)
        if kind == "mixture":
            stacks = [flat[f"{layer}.{k}"].reshape(shapes[f"{layer}.{k}"]) for k in ("mixture", "transition", "relmap")]
            chunks += [stack[r].ravel() for r in range(shape[0]) for stack in stacks]
        elif kind not in ("transition", "relmap"):
            chunks.append(flat[name])
    v4_payload = np.concatenate(chunks).astype("<f8").tobytes()
    header["format"] = "mgdpr-checkpoint-v4"
    header["sha256"] = _digest(header, v4_payload)
    return _join(header, v4_payload)


def _repeated_key(key, value):
    """The header text with ``key`` written first as ``value``, then as
    saved: json alone would keep the saved value and load the same model."""

    def mutate(blob):
        (n,) = struct.unpack("<Q", blob[:8])
        text = b"{" + json.dumps({key: value})[1:-1].encode() + b", " + blob[9 : 8 + n]
        return struct.pack("<Q", len(text)) + text + blob[8 + n :]

    return mutate


def _header_edit(**changes):
    def edit(header, payload):
        header.update(changes)
        return payload

    return _rewritten(edit)


def _config_edit(edit):
    def wrapped(header, payload):
        edit(header["config"])
        return payload

    return _rewritten(wrapped)


# One case list for every region of a checkpoint file: the 8-byte length
# prefix, the JSON header and the float64 payload.
_CHECKPOINT_MUTATIONS = [
    *[(f"prefix-flip-{i}", _flip("prefix", i)) for i in range(8)],
    *[(f"header-flip-{i}", _flip("header", i)) for i in range(16)],
    *[(f"payload-flip-{i}", _flip("payload", i)) for i in range(16)],
    *[(f"truncate-{where}", _truncate(where)) for where in ("0", "8", "mid-header", "mid-payload")],
    ("one-trailing-byte", lambda blob: blob + b"\0"),
    ("nan", _rewritten(lambda header, payload: payload[:-8] + struct.pack("<d", math.nan))),
    ("trailing-bytes", _rewritten(lambda header, payload: payload + bytes(8))),
    ("config-field-missing", _config_edit(lambda config: config.pop("decay"))),
    ("config-field-changed", _config_edit(lambda config: config.update(decay=0.5))),
    ("config-extra-key", _config_edit(lambda config: config.update(activation_slope=0.01))),
    ("config-value-retyped", _config_edit(lambda config: config.update(num_layers=True, embed_dim=8.0))),
    ("config-not-an-object", _header_edit(config=[])),
    ("seed-not-an-integer", _header_edit(seed="0")),
    ("seed-a-bool", _header_edit(seed=False)),
    ("seed-edited", _hand_edit(seed=1)),
    ("tensor-table", _header_edit(tensors=[])),
    ("v1-format", _header_edit(format="mgdpr-checkpoint-v1")),
    ("v2-format", _header_edit(format="mgdpr-checkpoint-v2")),
    ("v3-format", _as_v3),
    ("v4-format", _as_v4),
    ("header-key-repeated", _repeated_key("seed", 7)),
]
_MUTATIONS_BY_ID = dict(_CHECKPOINT_MUTATIONS)


@pytest.fixture(scope="module")
def trained_checkpoint(tmp_path_factory):
    """A trained 3-stock workspace: (config path, checkpoint bytes, model)."""
    tmp_path = tmp_path_factory.mktemp("checkpoint")
    config = make_workspace(tmp_path)
    for cmd in ("ingest", "graph", "train"):
        assert run(cmd, "--config", config) == 0
    ckpt = tmp_path / "out" / "checkpoint.bin"
    model = load_checkpoint(ckpt, cli.model_config(cli.load_config(config), num_stocks=3))
    return config, ckpt.read_bytes(), model


def _eval_checkpoint(config, blob, directory, monkeypatch) -> int:
    """`mgdpr eval` of ``blob`` written as ``<directory>/checkpoint.bin``,
    with ``paths.output_dir`` pointed at ``directory``."""
    directory.mkdir(exist_ok=True)
    (directory / "checkpoint.bin").write_bytes(blob)
    monkeypatch.setenv("MGDPR_PATHS_OUTPUT_DIR", str(directory))
    return run("eval", "--config", config)


class TestDamagedCheckpoint:
    """Mutations of a checkpoint: loading raises CheckpointError or, where
    the header's meaning is unchanged, gives the same model; nothing else
    is raised, and `eval` of it exits 6 with one error line."""

    @pytest.mark.parametrize("mutate", [m for _, m in _CHECKPOINT_MUTATIONS], ids=list(_MUTATIONS_BY_ID))
    def test_load_raises_checkpoint_error_or_loads_the_same(self, tmp_path, trained_checkpoint, mutate):
        _, blob, model = trained_checkpoint
        damaged = tmp_path / "damaged.bin"
        damaged.write_bytes(mutate(blob))
        try:
            loaded = load_checkpoint(damaged, model.config)
        except CheckpointError:
            return
        assert loaded.seed == model.seed and list(loaded.params) == list(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].values.tobytes() == p.values.tobytes()

    @pytest.mark.parametrize(
        "case",
        ["prefix-flip-7", "header-flip-8", "payload-flip-8", "truncate-mid-payload", "nan", "trailing-bytes",
         "config-field-missing", "config-extra-key", "seed-not-an-integer", "seed-edited", "tensor-table",
         "v2-format", "v3-format", "v4-format", "header-key-repeated"],
    )
    def test_eval_exits_6(self, tmp_path, capsys, monkeypatch, trained_checkpoint, case):
        config, blob, _ = trained_checkpoint
        capsys.readouterr()
        assert _eval_checkpoint(config, _MUTATIONS_BY_ID[case](blob), tmp_path / "damaged", monkeypatch) == 6
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err

    def test_flipped_payload_bit_exits_6(self, tmp_path, capsys, monkeypatch, trained_checkpoint):
        config, blob, _ = trained_checkpoint
        flipped = blob[:-3] + bytes([blob[-3] ^ 0x10]) + blob[-2:]
        assert _eval_checkpoint(config, flipped, tmp_path / "flipped", monkeypatch) == 6
        err = capsys.readouterr().err
        assert err.startswith("error:") and "SHA-256" in err and "Traceback" not in err

    def test_earlier_format_without_digest_exits_6(self, tmp_path, capsys, monkeypatch, trained_checkpoint):
        config, blob, _ = trained_checkpoint
        header, payload = _split(blob)
        del header["sha256"]
        header["format"] = "mgdpr-checkpoint-v1"
        # A v3 file, as the previous format wrote it, is refused as an
        # earlier format too, not as a corrupt file.
        for old_blob in (_join(header, payload), _as_v3(blob)):
            capsys.readouterr()
            assert _eval_checkpoint(config, old_blob, tmp_path / "old", monkeypatch) == 6
            assert "not a mgdpr-checkpoint-v5 file" in capsys.readouterr().err

    def test_genuine_v4_file_exits_6(self, tmp_path, capsys, monkeypatch, trained_checkpoint):
        # A v4 payload has v5's length in another tensor order: under its own
        # valid digest it would load scrambled but for the format check.
        config, blob, _ = trained_checkpoint
        v4_header, v4_payload = _split(_as_v4(blob))
        _, payload = _split(blob)
        assert len(v4_payload) == len(payload) and v4_payload != payload
        assert v4_header["sha256"] == _digest(v4_header, v4_payload)
        capsys.readouterr()
        assert _eval_checkpoint(config, _as_v4(blob), tmp_path / "v4", monkeypatch) == 6
        err = capsys.readouterr().err
        assert "not a mgdpr-checkpoint-v5 file" in err and err.count("\n") == 1

    def test_repeated_header_key_is_refused_naming_it(self, tmp_path, trained_checkpoint):
        _, blob, model = trained_checkpoint
        damaged = tmp_path / "repeated.bin"
        damaged.write_bytes(_MUTATIONS_BY_ID["header-key-repeated"](blob))
        with pytest.raises(CheckpointError, match=r"unreadable checkpoint header \(it repeats the key 'seed'\)$"):
            load_checkpoint(damaged, model.config)

    def test_config_edit_names_the_field(self, tmp_path, trained_checkpoint):
        _, blob, model = trained_checkpoint
        damaged = tmp_path / "edited.bin"
        for case, message in (("config-field-changed", "decay=0.5, not 1.27"),
                              ("config-extra-key", "activation_slope=0.01, not None"),
                              ("config-value-retyped", "num_layers=True, not 1")):
            damaged.write_bytes(_MUTATIONS_BY_ID[case](blob))
            with pytest.raises(CheckpointError, match=re.escape(f"trained with {message}")):
                load_checkpoint(damaged, model.config)


def test_no_temporary_files_left_after_train_and_eval(tmp_path, monkeypatch):
    config = make_workspace(tmp_path)
    for cmd in ("ingest", "graph", "train", "eval"):
        assert run(cmd, "--config", config) == 0
    monkeypatch.setenv("MGDPR_TRAIN_EPOCHS", "1")
    assert run("eval", "--config", config, "--seeds", 2) == 0
    names = [p.name for p in tmp_path.rglob("*")]
    assert not [n for n in names if n.startswith(".") or "tmp" in n]
    assert {"checkpoint.bin", "trace.csv", "resolved_config.json", "metrics.json", "manifest.json"} <= set(names)


def test_pipeline_demo_removes_its_workspace(tmp_path):
    demo = Path(__file__).resolve().parents[1] / "demos" / "04_cli_pipeline.py"
    package_root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": str(package_root)}
    done = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert "metrics.json:" in done.stdout
    assert list(tmp_path.iterdir()) == []


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _console(argv, env_overrides, timeout=300):
    """``python -m mgdpr_console <argv>``, the module behind the ``mgdpr`` console script."""
    package_root = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(package_root), **env_overrides}
    return subprocess.run(
        [sys.executable, "-W", "error", *argv], env=env, capture_output=True, text=True, timeout=timeout
    )


class TestConsoleScript:
    def test_module_loads_no_numpy_before_it_pins_blas(self):
        done = _console(["-c", "import sys, mgdpr_console; print('numpy' in sys.modules)"], {})
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.skipif(_cores() < 2, reason="two BLAS threads split a reduction only on 2 or more cores")
    def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 100 stocks, width 64, 2 layers, 2 steps, 30 training days, 2 epochs:
        # the weight gradients sum over N * lookback = 500 rows, a reduction
        # that two OpenBLAS threads split. Unpinned, the bytes differ.
        lookback = 5
        series = planted_market(num_stocks=100, num_days=lookback + 35, momentum_lag=3, seed=3)
        write_series_csv(series, tmp_path / "data")
        cal = series[0].dates
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "market": "planted",
            "paths.data_dir": str(tmp_path / "data"),
            "paths.cache_dir": str(tmp_path / "cache"),
            "paths.output_dir": str(tmp_path / "out"),
            "split.train": [cal[0], cal[lookback + 28]],
            "split.val": [cal[lookback + 29], cal[lookback + 31]],
            "split.test": [cal[lookback + 32], cal[lookback + 34]],
            "model.lookback": lookback,
            "model.num_layers": 2,
            "model.expansion_steps": 2,
            "model.embed_dim": 64,
            "model.num_groups": 4,
            "train.epochs": 2,
            "train.seed": 0,
        }))
        assert run("ingest", "--config", config) == 0
        checkpoints = []
        for threads in ("1", "2"):
            out = tmp_path / f"out{threads}"
            done = _console(
                ["-m", "mgdpr_console", "train", "--config", str(config)],
                {"OPENBLAS_NUM_THREADS": threads, "MGDPR_PATHS_OUTPUT_DIR": str(out)},
            )
            assert done.returncode == 0, done.stderr
            checkpoints.append((out / "checkpoint.bin").read_bytes())
        assert len((tmp_path / "out1" / "trace.csv").read_text().splitlines()) == 3
        assert checkpoints[0] == checkpoints[1]
