#!/usr/bin/env python3
"""Drive the whole batch pipeline from one config, the way a cron job would.

Writes a synthetic market to a temporary directory, then runs
ingest -> train -> eval through the `mgdpr` command surface and prints the
resulting metrics report; the directory is removed when the demo ends.
`train` and `eval` build each day's graph from the ingested panel, so the
optional `mgdpr graph` export is not needed. Everything is reproducible:
same config + seed means byte-identical outputs.
"""

import json
import tempfile
from pathlib import Path

from mgdpr.cli import main
from mgdpr.synthetic import planted_market, write_series_csv

with tempfile.TemporaryDirectory(prefix="mgdpr-demo-") as workspace:
    root = Path(workspace)
    write_series_csv(planted_market(num_stocks=4, num_days=36, momentum_lag=4, seed=11), root / "data")

    config = {
        "market": "demo",
        "paths.data_dir": str(root / "data"),
        "paths.cache_dir": str(root / "cache"),
        "paths.output_dir": str(root / "out"),
        "split.train": ["2020-01-01", "2020-01-22"],
        "split.val": ["2020-01-23", "2020-01-28"],
        "split.test": ["2020-01-29", "2020-02-05"],
        "model.lookback": 8,
        "model.num_layers": 1,
        "model.expansion_steps": 2,
        "model.embed_dim": 8,
        "model.num_groups": 4,
        "train.epochs": 40,
        "train.seed": 1,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config, indent=2))
    print(f"workspace: {root}\n")

    for command in ("ingest", "train", "eval"):
        print(f"$ mgdpr {command} --config {config_path.name}")
        code = main([command, "--config", str(config_path)])
        assert code == 0, f"{command} exited {code}"
        print()

    metrics = json.loads((root / "out" / "metrics.json").read_text())
    print("metrics.json:")
    print(json.dumps(metrics, indent=2, sort_keys=True))
