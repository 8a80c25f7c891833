"""Batch command-line pipeline: ``mgdpr ingest|graph|train|eval``.

``train`` and ``eval`` build the graphs they need from the panel that
``ingest`` caches; ``graph`` only exports them, to a cache no command reads.

One declarative config drives every stage. The config file is flat JSON
with dotted keys (see DEFAULTS); any key can be overridden by an
environment variable named ``MGDPR_<KEY>`` with dots replaced by
underscores, e.g. ``MGDPR_TRAIN_EPOCHS=50``. The config is the only source
of run values: no flag overrides a key, so the ``resolved_config.json``
that ``train`` writes, fed back in, repeats the run byte for byte. ``eval``
reads ``<paths.output_dir>/checkpoint.bin``: to evaluate another run's
checkpoint, point ``paths.output_dir`` (or ``MGDPR_PATHS_OUTPUT_DIR``) there.

Exit codes are stable for scripting: 0 ok, otherwise the first row of
``EXIT_TABLE`` whose error classes match (also printed by ``mgdpr --help``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

from .errors import (
    CheckpointError,
    ConfigError,
    DegenerateSeriesError,
    DivergenceError,
    FormatError,
    MgdprError,
    ShapeError,
    UsageError,
)
from .files import has_type, make_dir, read_json_object, type_name, write_atomic
from .graphs import build_day_graphs, write_graphs
from .graphs import read_graphs  # noqa: F401 -- bench/tracing.py traces mgdpr.cli.read_graphs
from .market import (
    align_panel,
    label_balance,
    labeled_days,
    load_csv,
    make_windows,
    read_panel,
    split_periods,
    write_panel,
)
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .training import MetricsReport, TrainConfig, evaluate, train, write_metrics_json, write_trace_csv

def _dataclass_keys(cls, prefix: str, skip: tuple[str, ...] = ()) -> dict[str, tuple[object, object]]:
    """``prefix.<field>`` -> (default, type) for each field of ``cls`` not in ``skip``."""
    hints = get_type_hints(cls)
    return {f"{prefix}.{f.name}": (f.default, hints[f.name]) for f in fields(cls) if f.name not in skip}


# Every config key with its default and type; model.* and train.* are the fields
# of ModelConfig and TrainConfig, except the two sizes that come from the data.
_SCHEMA: dict[str, tuple[object, object]] = {
    "market": ("unnamed", str),
    "coverage": (0.98, float),
    "paths.data_dir": ("data", str),
    "paths.cache_dir": ("cache", str),
    "paths.output_dir": ("out", str),
    "split.train": (None, tuple[str, str] | None),
    "split.val": (None, tuple[str, str] | None),
    "split.test": (None, tuple[str, str] | None),
    **_dataclass_keys(ModelConfig, "model", skip=("num_stocks", "num_relations")),
    **_dataclass_keys(TrainConfig, "train"),
    "train.seed": (0, int),
}
DEFAULTS: dict[str, object] = {key: default for key, (default, _) in _SCHEMA.items()}

# (exit code, error classes, --help line), in match order: an error exits
# with the code of the first row that names one of its classes, so the last
# row takes every other package error.
EXIT_TABLE = (
    (6, (CheckpointError,), "checkpoint missing, corrupt or inconsistent with the config"),
    (4, (DivergenceError,), "training diverged (non-finite value)"),
    (3, (DegenerateSeriesError,), "degenerate graph window of a day the command reads"),
    (5, (ConfigError, ShapeError, UsageError), "config, usage or shape problem (bad key or flag, unwritable paths.*)"),
    (2, (MgdprError,), "input data or file-format problem (also too few days for model.lookback)"),
)


def load_config(path, env: dict[str, str] | None = None) -> dict[str, object]:
    """Resolve defaults <- config file <- MGDPR_* environment overrides
    (JSON, or the raw text for string keys); ConfigError unless every value
    has its key's type in ``_SCHEMA`` and every MGDPR_* variable names a key."""
    env = os.environ if env is None else env
    try:
        loaded = read_json_object(Path(path), "config file", {})
    except FormatError as e:
        raise ConfigError(str(e)) from e
    unknown = sorted(set(loaded) - set(DEFAULTS))
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    env_keys = {key: "MGDPR_" + key.upper().replace(".", "_") for key in _SCHEMA}
    stray = sorted({name for name in env if name.startswith("MGDPR_")} - set(env_keys.values()))
    if stray:
        raise ConfigError(f"MGDPR_* variable(s) naming no config key: {', '.join(stray)}")
    resolved = dict(DEFAULTS)
    for key, (_, kind) in _SCHEMA.items():
        env_key = env_keys[key]
        if env_key in env:
            value, source = env[env_key], env_key
            if kind is not str:
                try:
                    value = json.loads(value)
                except json.JSONDecodeError:
                    pass  # left as text, which fails the type check below
        elif key in loaded:
            value, source = loaded[key], path
        else:
            continue
        if not has_type(value, kind):
            raise ConfigError(f"{source}: {key} must be {type_name(kind)}, got {value!r}")
        resolved[key] = value
    return resolved


def config_hash(resolved: dict[str, object]) -> str:
    """Digest of the semantic run parameters (paths are locations, not inputs).

    Float keys are hashed as floats, so ``1`` and ``1.0`` give one hash.
    """
    semantic = {
        key: float(value) if _SCHEMA[key][1] is float else value
        for key, value in resolved.items()
        if not key.startswith("paths.")
    }
    canonical = json.dumps(semantic, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def _dataclass_args(resolved: dict[str, object], cls, prefix: str) -> dict[str, object]:
    """The ``prefix.*`` values that are fields of ``cls``; float fields take
    integers as floats here, so ``resolved`` (and its hash) stays as loaded."""
    args = {}
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key in _SCHEMA:
            value = resolved[key]
            args[f.name] = float(value) if _SCHEMA[key][1] is float else value
    return args


def model_config(resolved: dict[str, object], num_stocks: int) -> ModelConfig:
    return ModelConfig(num_stocks=num_stocks, **_dataclass_args(resolved, ModelConfig, "model"))


def train_config(resolved: dict[str, object]) -> TrainConfig:
    return TrainConfig(**_dataclass_args(resolved, TrainConfig, "train"))


def _panel_dir(resolved) -> Path:
    return Path(resolved["paths.cache_dir"]) / "panel"


def _graph_dir(resolved) -> Path:
    return Path(resolved["paths.cache_dir"]) / "graphs"


def _load(resolved, *, trains: bool, evaluates: bool):
    """Panel, (train, val, test) samples and the graph of every end day of
    the splits the command reads: train and val when it trains, test when it
    evaluates, each built once from the panel.

    ConfigError, before any graph is built, when the train split (for a
    command that trains) or the test split (for one that evaluates) matched
    no sample. Training reads but never modifies the result, so one load
    serves any number of seeded runs.
    """
    panel = read_panel(_panel_dir(resolved))
    lookback = resolved["model.lookback"]
    train_s, val_s, test_s = split_periods(
        make_windows(panel, lookback), resolved["split.train"], resolved["split.val"], resolved["split.test"]
    )
    if trains and not train_s:
        raise ConfigError("training split matched no samples; check split.train dates")
    if evaluates and not test_s:
        raise ConfigError("test split matched no samples; check split.test dates")
    read = (train_s + val_s if trains else []) + (test_s if evaluates else [])
    graphs = {t: build_day_graphs(panel, t, lookback) for t in sorted({s.t_index for s in read})}
    return panel, (train_s, val_s, test_s), graphs


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args) -> int:
    resolved = load_config(args.config)
    series = load_csv(resolved["paths.data_dir"])
    panel = align_panel([s for s in series if len(s) > 0], coverage=resolved["coverage"])
    write_panel(panel, _panel_dir(resolved))
    dropped = len(series) - panel.num_stocks
    bad_rows = sum(s.dropped_rows for s in series)
    print(
        f"ingested {panel.num_stocks} stocks x {panel.num_days} days "
        f"({dropped} tickers below coverage, {bad_rows} malformed rows dropped)"
    )
    print(f"panel cache: {_panel_dir(resolved)}")
    return 0


def cmd_graph(args) -> int:
    resolved = load_config(args.config)
    panel = read_panel(_panel_dir(resolved))
    lookback = resolved["model.lookback"]
    days = labeled_days(panel.num_days, lookback)
    graphs = [build_day_graphs(panel, t, lookback) for t in days]
    write_graphs(graphs, _graph_dir(resolved), panel.digest())
    print(f"wrote graphs for {len(days)} day(s) x {panel.num_stocks} stocks to {_graph_dir(resolved)}")
    return 0


def _train_once(resolved, inputs, seed: int):
    panel, (train_s, val_s, _), graphs = inputs
    mcfg = model_config(resolved, panel.num_stocks)
    tcfg = train_config(resolved)
    model = Model.initialized(mcfg, seed=seed)
    _, trace = train(model, train_s, val_s, tcfg, graphs=graphs)
    return model, trace, tcfg


def cmd_train(args) -> int:
    resolved = load_config(args.config)
    out_dir = make_dir(Path(resolved["paths.output_dir"]))
    inputs = _load(resolved, trains=True, evaluates=False)
    _, (train_s, val_s, _), _ = inputs
    model, trace, tcfg = _train_once(resolved, inputs, resolved["train.seed"])
    save_checkpoint(out_dir / "checkpoint.bin", model)
    write_trace_csv(out_dir / "trace.csv", trace)
    write_atomic(out_dir / "resolved_config.json", json.dumps(resolved, indent=2, sort_keys=True) + "\n")
    balance = label_balance(train_s)
    best_val = max((row[2] for row in trace), default=math.nan)
    print(f"trained {tcfg.epochs} epochs on {len(train_s)} days ({len(val_s)} validation days)")
    print(f"train label balance (fraction up): {balance:.4f}")
    print(f"best validation accuracy: {best_val:.4f}" if val_s else "no validation split")
    print(f"checkpoint: {out_dir / 'checkpoint.bin'}")
    return 0


def cmd_eval(args) -> int:
    resolved = load_config(args.config)
    out_dir = Path(resolved["paths.output_dir"])
    digest = config_hash(resolved)
    market = resolved["market"]
    period = resolved["split.test"]

    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
        base_seed = resolved["train.seed"]
        make_dir(out_dir)
        inputs = _load(resolved, trains=True, evaluates=True)
        _, (_, _, test_s), graphs = inputs
        reports: list[MetricsReport] = []
        for k in range(args.seeds):
            seed = base_seed + k
            model, _, _ = _train_once(resolved, inputs, seed)
            report = evaluate(model, test_s, graphs=graphs)
            reports.append(report)
            write_metrics_json(
                out_dir / f"metrics_seed{seed}.json", report, market, period, seed, digest
            )
        return _write_aggregate(out_dir, reports, base_seed, args.seeds, market, period, digest)

    ckpt = out_dir / "checkpoint.bin"
    if not ckpt.exists():
        raise CheckpointError(f"{ckpt}: checkpoint not found; run `mgdpr train` first")
    panel, (_, _, test_s), graphs = _load(resolved, trains=False, evaluates=True)
    model = load_checkpoint(ckpt, model_config(resolved, panel.num_stocks))
    report = evaluate(model, test_s, graphs=graphs)
    write_metrics_json(out_dir / "metrics.json", report, market, period, model.seed, digest)
    print(f"acc={report.accuracy:.4f} mcc={report.mcc:.4f} f1={report.f1:.4f}")
    print(f"metrics: {out_dir / 'metrics.json'}")
    return 0


def _write_aggregate(out_dir, reports, base_seed, n, market, period, digest) -> int:
    def stats(values):
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    payload = {
        "market": market,
        "period": list(period) if period else None,
        "config_hash": digest,
        "seeds": list(range(base_seed, base_seed + n)),
    }
    for name, metric in (("acc", "accuracy"), ("mcc", "mcc"), ("f1", "f1")):
        payload[f"{name}_mean"], payload[f"{name}_std"] = stats([getattr(r, metric) for r in reports])
    write_atomic(out_dir / "metrics.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"aggregated {n} seeds: acc={payload['acc_mean']:.4f}+/-{payload['acc_std']:.4f}")
    print(f"metrics: {out_dir / 'metrics.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as :class:`UsageError` (exit 5), not argparse's
    exit 2, and reads no abbreviated flag: ``eval --seed 7`` is an error,
    not seven ``--seeds`` runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    codes = "".join(f"  {code}  {text}\n" for code, _, text in sorted(EXIT_TABLE, key=lambda row: row[0]))
    parser = _Parser(
        prog="mgdpr",
        description="Stock-trend pipeline: ingest OHLCV, build daily stock graphs, train, evaluate.",
        epilog="exit codes:\n" + codes,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load raw CSVs, align, and cache the panel")
    p_ingest.set_defaults(func=cmd_ingest)

    p_graph = sub.add_parser(
        "graph", help="optional export of each day's sender weights (a column per day); train/eval never read it"
    )
    p_graph.set_defaults(func=cmd_graph)

    p_train = sub.add_parser(
        "train", help="train train.epochs epochs from train.seed; write checkpoint, loss trace and resolved config"
    )
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate <paths.output_dir>/checkpoint.bin on the test split")
    p_eval.add_argument("--seeds", type=int, default=None, help="train+eval n seeds from train.seed, report mean/std")
    p_eval.set_defaults(func=cmd_eval)

    for p in (p_ingest, p_graph, p_train, p_eval):
        p.add_argument("--config", required=True, help="flat JSON config with dotted keys")
    return parser


def _exit_code(e: MgdprError) -> int:
    return next(code for code, kinds, _ in EXIT_TABLE if isinstance(e, kinds))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MgdprError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)

