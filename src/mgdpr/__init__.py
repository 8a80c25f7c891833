"""Stock-trend classification from dynamic multi-relational stock graphs.

The pipeline, bottom to top:

- :mod:`mgdpr.tensor` — float64 tensors with reverse-mode differentiation;
- :mod:`mgdpr.files` — the atomic writer and checked reader behind every
  cache and output file;
- :mod:`mgdpr.market` — OHLCV ingestion, calendar alignment, windowing,
  next-day trend labels;
- :mod:`mgdpr.graphs` — per-day directed stock graphs from signal energy
  and information entropy;
- :mod:`mgdpr.model` — multi-relational graph diffusion interleaved with
  parallel retention, plus the classification readout;
- :mod:`mgdpr.training` — constrained objective, Adam training loop, and
  accuracy / MCC / F1 evaluation;
- :mod:`mgdpr.cli` — ``mgdpr ingest|graph|train|eval`` batch commands.
"""

from .tensor import Tensor
from .market import (
    InstrumentSeries,
    MarketPanel,
    WindowSample,
    RELATIONS,
    load_csv,
    align_panel,
    make_windows,
    split_periods,
)
from .graphs import (
    MultiRelAdjacency,
    signal_energy,
    information_entropy,
    build_adjacency,
    build_day_graphs,
    window_graphs,
)
from .model import Model, ModelConfig, decay_mask, parallel_retention
from .training import MetricsReport, TrainConfig, accuracy, evaluate, f1, mcc, train

__all__ = [
    "Tensor",
    "InstrumentSeries",
    "MarketPanel",
    "WindowSample",
    "RELATIONS",
    "load_csv",
    "align_panel",
    "make_windows",
    "split_periods",
    "MultiRelAdjacency",
    "signal_energy",
    "information_entropy",
    "build_adjacency",
    "build_day_graphs",
    "window_graphs",
    "Model",
    "ModelConfig",
    "decay_mask",
    "parallel_retention",
    "MetricsReport",
    "TrainConfig",
    "accuracy",
    "evaluate",
    "f1",
    "mcc",
    "train",
]

__version__ = "0.1.0"
