"""Batch command-line pipeline: ``mgdpr ingest|graph|train|eval``.

One declarative config drives every stage. The config file is flat JSON
with dotted keys (see DEFAULTS); any key can be overridden by an
environment variable named ``MGDPR_<KEY>`` with dots replaced by
underscores, e.g. ``MGDPR_TRAIN_EPOCHS=50``. Commands are idempotent for
identical inputs and seed, and each run writes a fully resolved config so
it can be reproduced exactly.

Exit codes: 0 ok, 2 data/format problem, 3 graph generation problem,
4 training divergence, 5 configuration problem, 6 checkpoint problem.
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
    DataError,
    DayRangeError,
    DegenerateSeriesError,
    DivergenceError,
    FormatError,
    MgdprError,
    ShapeError,
    UsageError,
)
from .files import has_type, read_json_object, type_name, write_atomic
from .graphs import build_day_graphs, read_graphs, write_graphs
from .market import align_panel, label_balance, load_csv, make_windows, read_panel, split_periods, write_panel
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

EXIT_CODES = {"data": 2, "graph": 3, "divergence": 4, "config": 5, "checkpoint": 6}

_EPILOG = """\
exit codes:
  2  input data or file-format problem
  3  graph generation problem (degenerate window, --day out of range)
  4  training diverged (non-finite loss)
  5  configuration problem (bad key, shape mismatch, missing cache)
  6  checkpoint corrupt or inconsistent with the config
"""


def load_config(path, env: dict[str, str] | None = None) -> dict[str, object]:
    """Resolve defaults <- config file <- MGDPR_* environment overrides
    (JSON, or the raw text for string keys); ConfigError unless every value
    has its key's type in ``_SCHEMA``."""
    env = os.environ if env is None else env
    try:
        loaded = read_json_object(Path(path), "config file", {})
    except FormatError as e:
        raise ConfigError(str(e)) from e
    # "derived.*" keys appear in resolved-config files; accept them so a
    # resolved config is itself runnable, but they never override anything.
    unknown = sorted(k for k in set(loaded) - set(DEFAULTS) if not k.startswith("derived."))
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    resolved = dict(DEFAULTS)
    for key, (_, kind) in _SCHEMA.items():
        env_key = "MGDPR_" + key.upper().replace(".", "_")
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


def train_config(resolved: dict[str, object], epochs: int | None) -> TrainConfig:
    args = _dataclass_args(resolved, TrainConfig, "train")
    if epochs is not None:
        args["epochs"] = epochs
    return TrainConfig(**args)


def _write_resolved(resolved: dict[str, object], extras: dict[str, object], path: Path) -> None:
    write_atomic(path, json.dumps({**resolved, **extras}, indent=2, sort_keys=True) + "\n")


def _panel_dir(resolved) -> Path:
    return Path(resolved["paths.cache_dir"]) / "panel"


def _graph_dir(resolved) -> Path:
    return Path(resolved["paths.cache_dir"]) / "graphs"


def _labeled_days(num_days: int, lookback: int) -> list[int]:
    return list(range(lookback - 1, num_days - 1))


def _load_split_samples(resolved):
    panel = read_panel(_panel_dir(resolved))
    samples = make_windows(panel, resolved["model.lookback"])
    splits = split_periods(samples, resolved["split.train"], resolved["split.val"], resolved["split.test"])
    return panel, splits


def _load_graphs(resolved, panel, days: list[int]):
    """The cached graphs of ``days``, which must have been built from ``panel``."""
    directory = _graph_dir(resolved)
    if not (directory / "index.json").exists():
        raise ConfigError(
            f"{directory}: graph cache not found; run `mgdpr graph --config <path>` first"
        )
    try:
        return read_graphs(directory, days=days, panel_digest=panel.digest())
    except DataError as e:
        raise ConfigError(f"graph cache unusable ({e}); re-run `mgdpr graph`") from e


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args) -> int:
    resolved = load_config(args.config)
    series = load_csv(resolved["paths.data_dir"])
    panel = align_panel(series, coverage=resolved["coverage"])
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
    days = _labeled_days(panel.num_days, lookback)
    if not days:
        raise DayRangeError(
            f"no labeled end days: need at least {lookback + 1} days, panel has {panel.num_days}"
        )
    if args.day is not None:
        if args.day not in days:
            raise DayRangeError(f"--day {args.day} outside [{days[0]}, {days[-1]}]")
        days = [args.day]
    graphs = [build_day_graphs(panel, t, lookback) for t in days]
    write_graphs(graphs, _graph_dir(resolved), panel.digest(), merge=args.day is not None)
    print(f"wrote graphs for {len(days)} day(s) x {panel.num_stocks} stocks to {_graph_dir(resolved)}")
    return 0


def _load_training_inputs(resolved):
    """Panel, (train, val, test) samples and the graphs of every sample day.

    Training reads but never modifies them, so one load serves any number
    of seeded runs.
    """
    panel, (train_s, val_s, test_s) = _load_split_samples(resolved)
    if not train_s:
        raise ConfigError("training split matched no samples; check split.train dates")
    needed = sorted({s.t_index for s in train_s + val_s + test_s})
    graphs = _load_graphs(resolved, panel, needed)
    return panel, (train_s, val_s, test_s), graphs


def _train_once(resolved, inputs, seed: int, epochs: int | None):
    panel, (train_s, val_s, _), graphs = inputs
    mcfg = model_config(resolved, panel.num_stocks)
    tcfg = train_config(resolved, epochs)
    model = Model.initialized(mcfg, seed=seed)
    _, trace = train(model, train_s, val_s, tcfg, graphs=graphs)
    return model, trace, tcfg


def cmd_train(args) -> int:
    resolved = load_config(args.config)
    seed = resolved["train.seed"] if args.seed is None else args.seed
    out_dir = Path(resolved["paths.output_dir"])
    inputs = _load_training_inputs(resolved)
    panel, (train_s, val_s, _), _ = inputs
    model, trace, tcfg = _train_once(resolved, inputs, seed, args.epochs)
    save_checkpoint(out_dir / "checkpoint.bin", model)
    write_trace_csv(out_dir / "trace.csv", trace)
    _write_resolved(
        resolved,
        {"derived.num_stocks": panel.num_stocks, "derived.seed": seed, "derived.epochs": tcfg.epochs},
        out_dir / "resolved_config.json",
    )
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
    base_seed = resolved["train.seed"] if args.seed is None else args.seed
    digest = config_hash(resolved)
    market = resolved["market"]
    period = resolved["split.test"]

    if args.seeds is not None:
        if args.seeds < 1:
            raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
        inputs = _load_training_inputs(resolved)
        _, (_, _, test_s), graphs = inputs
        reports: list[MetricsReport] = []
        for k in range(args.seeds):
            seed = base_seed + k
            model, _, _ = _train_once(resolved, inputs, seed, args.epochs)
            report = evaluate(model, test_s, graphs=graphs)
            reports.append(report)
            write_metrics_json(
                out_dir / f"metrics_seed{seed}.json", report, market, period, seed, digest
            )
        return _write_aggregate(out_dir, reports, base_seed, args.seeds, market, period, digest)

    ckpt = Path(args.checkpoint) if args.checkpoint else out_dir / "checkpoint.bin"
    if not ckpt.exists():
        raise CheckpointError(f"{ckpt}: checkpoint not found; run `mgdpr train` first")
    panel, (_, _, test_s) = _load_split_samples(resolved)
    if not test_s:
        raise ConfigError("test split matched no samples; check split.test dates")
    graphs = _load_graphs(resolved, panel, sorted({s.t_index for s in test_s}))
    model = load_checkpoint(ckpt, model_config(resolved, panel.num_stocks))
    report = evaluate(model, test_s, graphs=graphs)
    write_metrics_json(out_dir / "metrics.json", report, market, period, base_seed, digest)
    print(f"acc={report.accuracy:.4f} mcc={report.mcc:.4f} f1={report.f1:.4f}")
    print(f"metrics: {out_dir / 'metrics.json'}")
    return 0


def _write_aggregate(out_dir, reports, base_seed, n, market, period, digest) -> int:
    def stats(values):
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return mean, math.sqrt(var)

    acc = [r.accuracy for r in reports]
    mccs = [r.mcc for r in reports]
    f1s = [r.f1 for r in reports]
    payload = {
        "market": market,
        "period": list(period) if period else None,
        "config_hash": digest,
        "seeds": list(range(base_seed, base_seed + n)),
        "acc_mean": stats(acc)[0],
        "acc_std": stats(acc)[1],
        "mcc_mean": stats(mccs)[0],
        "mcc_std": stats(mccs)[1],
        "f1_mean": stats(f1s)[0],
        "f1_std": stats(f1s)[1],
    }
    write_atomic(out_dir / "metrics.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"aggregated {n} seeds: acc={payload['acc_mean']:.4f}+/-{payload['acc_std']:.4f}")
    print(f"metrics: {out_dir / 'metrics.json'}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgdpr",
        description="Stock-trend pipeline: ingest OHLCV, build daily stock graphs, train, evaluate.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load raw CSVs, align, and cache the panel")
    p_ingest.set_defaults(func=cmd_ingest)

    p_graph = sub.add_parser(
        "graph", help="cache each day's per-stock energy and entropy (one CSV per day) from the panel"
    )
    p_graph.add_argument(
        "--day", type=int, default=None, help="build a single end-day index and add it to the cache"
    )
    p_graph.set_defaults(func=cmd_graph)

    p_train = sub.add_parser("train", help="train and write checkpoint + loss trace")
    p_train.add_argument("--seed", type=int, default=None, help="override train.seed")
    p_train.add_argument("--epochs", type=int, default=None, help="override train.epochs")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    p_eval.add_argument("--seed", type=int, default=None, help="seed recorded in the report")
    p_eval.add_argument("--seeds", type=int, default=None, help="train+eval n seeds, report mean/std")
    p_eval.add_argument("--epochs", type=int, default=None, help="override epochs for --seeds runs")
    p_eval.add_argument("--checkpoint", default=None, help="checkpoint path (default <output>/checkpoint.bin)")
    p_eval.set_defaults(func=cmd_eval)

    for p in (p_ingest, p_graph, p_train, p_eval):
        p.add_argument("--config", required=True, help="flat JSON config with dotted keys")
    return parser


def _exit_code(e: MgdprError) -> int:
    if isinstance(e, CheckpointError):
        return EXIT_CODES["checkpoint"]
    if isinstance(e, DivergenceError):
        return EXIT_CODES["divergence"]
    if isinstance(e, (DegenerateSeriesError, DayRangeError)):
        return EXIT_CODES["graph"]
    if isinstance(e, (ConfigError, ShapeError, UsageError)):
        return EXIT_CODES["config"]
    return EXIT_CODES["data"]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MgdprError as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code(e)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
