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
from pathlib import Path

from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    DayRangeError,
    DegenerateSeriesError,
    DivergenceError,
    MgdprError,
    ShapeError,
    UsageError,
)
from .files import write_atomic
from .graphs import build_day_graphs, read_graphs, write_graphs
from .market import align_panel, label_balance, load_csv, make_windows, read_panel, split_periods, write_panel
from .model import Model, ModelConfig, load_checkpoint, save_checkpoint
from .training import MetricsReport, TrainConfig, evaluate, train, write_metrics_json, write_trace_csv

DEFAULTS: dict[str, object] = {
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
    """Resolve defaults <- config file <- MGDPR_* environment overrides."""
    env = os.environ if env is None else env
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{path}: config file not found")
    with open(path, encoding="utf-8") as f:
        try:
            loaded = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(loaded, dict):
        raise ConfigError(f"{path}: config must be a JSON object of dotted keys")
    # "derived.*" keys appear in resolved-config files; accept them so a
    # resolved config is itself runnable, but they never override anything.
    unknown = sorted(k for k in set(loaded) - set(DEFAULTS) if not k.startswith("derived."))
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s): {', '.join(unknown)}")
    resolved = dict(DEFAULTS)
    resolved.update({k: v for k, v in loaded.items() if k in DEFAULTS})
    for key in DEFAULTS:
        env_key = "MGDPR_" + key.upper().replace(".", "_")
        if env_key in env:
            raw = env[env_key]
            try:
                resolved[key] = json.loads(raw)
            except json.JSONDecodeError:
                resolved[key] = raw
    return resolved


def _as_range(value) -> tuple[str, str] | None:
    if value is None:
        return None
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise ConfigError(f"split range must be [start, end] or null, got {value!r}")
    return str(value[0]), str(value[1])


def config_hash(resolved: dict[str, object]) -> str:
    """Digest of the semantic run parameters (paths are locations, not inputs)."""
    semantic = {k: v for k, v in resolved.items() if not k.startswith("paths.")}
    canonical = json.dumps(semantic, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()


def model_config(resolved: dict[str, object], num_stocks: int) -> ModelConfig:
    return ModelConfig(
        num_stocks=num_stocks,
        lookback=int(resolved["model.lookback"]),
        num_layers=int(resolved["model.num_layers"]),
        expansion_steps=int(resolved["model.expansion_steps"]),
        embed_dim=int(resolved["model.embed_dim"]),
        decay=float(resolved["model.decay"]),
        num_groups=int(resolved["model.num_groups"]),
        activation_slope=float(resolved["model.activation_slope"]),
        readout_hidden=int(resolved["model.readout_hidden"]),
    )


def train_config(resolved: dict[str, object], epochs: int | None) -> TrainConfig:
    batch = resolved["train.batch_size"]
    cfg = TrainConfig(
        learning_rate=float(resolved["train.learning_rate"]),
        epochs=int(resolved["train.epochs"]) if epochs is None else int(epochs),
        batch_size=None if batch is None else int(batch),
    )
    cfg.validate()
    return cfg


def _write_resolved(resolved: dict[str, object], extras: dict[str, object], path: Path) -> None:
    write_atomic(path, json.dumps({**resolved, **extras}, indent=2, sort_keys=True) + "\n")


def _panel_dir(resolved) -> Path:
    return Path(str(resolved["paths.cache_dir"])) / "panel"


def _graph_dir(resolved) -> Path:
    return Path(str(resolved["paths.cache_dir"])) / "graphs"


def _labeled_days(num_days: int, lookback: int) -> list[int]:
    return list(range(lookback - 1, num_days - 1))


def _load_split_samples(resolved):
    panel = read_panel(_panel_dir(resolved))
    samples = make_windows(panel, int(resolved["model.lookback"]))
    splits = split_periods(
        samples,
        _as_range(resolved["split.train"]),
        _as_range(resolved["split.val"]),
        _as_range(resolved["split.test"]),
    )
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
    series = load_csv(str(resolved["paths.data_dir"]))
    panel = align_panel(series, coverage=float(resolved["coverage"]))
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
    lookback = int(resolved["model.lookback"])
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
    seed = int(resolved["train.seed"]) if args.seed is None else int(args.seed)
    out_dir = Path(str(resolved["paths.output_dir"]))
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
    out_dir = Path(str(resolved["paths.output_dir"]))
    base_seed = int(resolved["train.seed"]) if args.seed is None else int(args.seed)
    digest = config_hash(resolved)
    market = str(resolved["market"])
    period = _as_range(resolved["split.test"])

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
