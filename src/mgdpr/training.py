"""Constrained training objective, Adam loop, and classification metrics.

The objective is mean per-stock cross-entropy over a batch of days plus the
simplex-constraint term summed over every (layer, relation) mixture. Because
mixtures are softmax-parametrized the term is zero in exact arithmetic; it
is still computed, added, and asserted tiny, so a broken parametrization
cannot fail silently. It is also still backpropagated: in floating point
its gradient is not exactly zero (a K=7 mixture at initialization gets
3.2e-17 on every raw entry), so dropping the backward pass would change
the trained bits.

Training is full-batch by default: gradients are accumulated sample by
sample (mathematically identical to one joint loss, but with per-sample
memory), then one Adam step is taken per epoch. The best
validation-accuracy parameters are retained.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .errors import ConfigError, DataError, DivergenceError, ShapeError, UsageError
from .files import write_atomic
from .graphs import MultiRelAdjacency, window_graphs
from .graphs import build_adjacency  # noqa: F401 -- bench/tracing.py traces mgdpr.training.build_adjacency
from .market import WindowSample
from .model import Model, mixture_tensors
from .tensor import Tensor

CONSTRAINT_TOLERANCE = 1e-9
# Adam's moment decays and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings, each the config key ``train.<field>``; defaults
    match the full-scale reference recipe."""

    learning_rate: float = 2.5e-4
    epochs: int = 900
    batch_size: int | None = None  # None = full batch

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size is not None and self.batch_size < 1:
            raise ConfigError(f"batch_size must be None or >= 1, got {self.batch_size}")


@dataclass
class MetricsReport:
    """Test-period classification quality plus the raw confusion counts."""

    accuracy: float
    mcc: float
    f1: float
    confusion: dict[str, int]
    num_days: int
    num_stocks: int

    def to_dict(self) -> dict:
        return {
            "acc": self.accuracy,
            "mcc": self.mcc,
            "f1": self.f1,
            "confusion": dict(self.confusion),
            "num_days": self.num_days,
            "num_stocks": self.num_stocks,
        }


# ---------------------------------------------------------------------------
# objective


def _check_labels(labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.size and not np.isin(labels, (0, 1)).all():
        bad = labels[~np.isin(labels, (0, 1))][0]
        raise DataError(f"label {bad!r} outside {{0, 1}}")
    return labels.astype(np.int64)


def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy over the stocks of one day."""
    labels = _check_labels(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape}, expected ({n},)")
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    picked = T.hadamard(T.log_softmax(logits, axis=1), Tensor(onehot))
    return T.scale(T.sum_all(picked), -1.0 / n)


def constraint_term(mixtures: list[Tensor]) -> Tensor:
    """Sum of (mixture mass - 1) over all layer/relation simplex weights."""
    total: Tensor | None = None
    one = Tensor(1.0)
    for m in mixtures:
        part = T.sub(T.sum_all(m), one)
        total = part if total is None else T.add(total, part)
    return total if total is not None else Tensor(0.0)


def objective(logits_batch: list[Tensor], labels_batch: list[np.ndarray], mixtures: list[Tensor]) -> Tensor:
    """Mean cross-entropy across days and stocks, plus the constraint term."""
    if not logits_batch or len(logits_batch) != len(labels_batch):
        raise UsageError(
            f"objective: {len(logits_batch)} logit blocks vs {len(labels_batch)} label blocks"
        )
    total: Tensor | None = None
    for logits, labels in zip(logits_batch, labels_batch):
        ce = cross_entropy_mean(logits, labels)
        total = ce if total is None else T.add(total, ce)
    return T.add(T.scale(total, 1.0 / len(logits_batch)), constraint_term(mixtures))


# ---------------------------------------------------------------------------
# optimizer


class _AdamState:
    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros(v.shape) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.items()}
        self.step = 0

    def update(self, params: dict[str, Tensor], learning_rate: float) -> dict[str, Tensor]:
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1**self.step
        bc2 = 1.0 - ADAM_BETA2**self.step
        out: dict[str, Tensor] = {}
        for name, p in params.items():
            g = p.grad if p.grad is not None else np.zeros(p.shape)
            m = self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            v = self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * (g * g)
            stepped = p.values - learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            out[name] = Tensor(stepped, requires_grad=True)
        return out


# ---------------------------------------------------------------------------
# training loop


def graphs_for_samples(
    samples: list[WindowSample], graphs: dict[int, MultiRelAdjacency] | None = None
) -> dict[int, MultiRelAdjacency]:
    """Ensure each sample's end day has an adjacency stack, building from the
    raw window where none was supplied."""
    cache = dict(graphs) if graphs else {}
    for s in samples:
        if s.t_index not in cache:
            cache[s.t_index] = window_graphs(s.t_index, s.raw)
    return cache


def train(
    model: Model,
    train_samples: list[WindowSample],
    val_samples: list[WindowSample],
    config: TrainConfig,
    graphs: dict[int, MultiRelAdjacency] | None = None,
) -> tuple[dict[str, Tensor], list[tuple[int, float, float]]]:
    """Optimize the objective; returns (best parameters, per-epoch trace).

    Full-batch by default (every training day contributes to each step).
    The trace rows are (epoch, train loss, validation accuracy); the
    retained parameters are the best-validation-accuracy ones, or the final
    ones when there is no validation split. The run is deterministic for a
    fixed model and config.
    """
    config.validate()
    if not train_samples:
        raise UsageError("train: no training samples")
    train_samples = sorted(train_samples, key=lambda s: s.t_index)
    graphs = graphs_for_samples(list(train_samples) + list(val_samples), graphs)

    params = model.params
    state = _AdamState(params)
    trace: list[tuple[int, float, float]] = []
    best_acc = -math.inf
    best_params = params
    batch = config.batch_size or len(train_samples)

    for epoch in range(config.epochs):
        losses = []
        for start in range(0, len(train_samples), batch):
            chunk = train_samples[start : start + batch]
            for p in params.values():
                p.grad = None
            try:
                ce_sum = 0.0
                for s in chunk:
                    logits = model.forward(s.features, graphs[s.t_index])
                    ce = cross_entropy_mean(logits, s.labels)
                    T.backward(T.scale(ce, 1.0 / len(chunk)))
                    ce_sum += ce.item()
                penalty = constraint_term(mixture_tensors(params, model.config))
                if penalty.requires_grad:
                    T.backward(penalty)
                loss = ce_sum / len(chunk) + penalty.item()
            except FloatingPointError as e:
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} (learning_rate={config.learning_rate}): {e}"
                ) from e
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch} (learning_rate={config.learning_rate})"
                )
            if abs(penalty.item()) > CONSTRAINT_TOLERANCE:
                raise DivergenceError(
                    f"simplex constraint violated at epoch {epoch}: {penalty.item():.3e}"
                )
            params = state.update(params, config.learning_rate)
            model.params = params
            losses.append(loss)
        if val_samples:
            val_acc = evaluate(model, val_samples, graphs).accuracy
            if val_acc > best_acc:
                best_acc = val_acc
                best_params = params
        else:
            val_acc = math.nan
            best_params = params
        trace.append((epoch, sum(losses) / len(losses), val_acc))

    model.params = best_params
    return best_params, trace


# ---------------------------------------------------------------------------
# metrics


def confusion_counts(pred, truth) -> dict[str, int]:
    """2x2 counts with class 1 ("up") as positive."""
    pred = np.concatenate([np.ravel(p) for p in pred]) if isinstance(pred, list) else np.ravel(pred)
    truth = (
        np.concatenate([np.ravel(t) for t in truth]) if isinstance(truth, list) else np.ravel(truth)
    )
    if pred.shape != truth.shape:
        raise ShapeError(f"predictions length {pred.size} vs truth length {truth.size}")
    _check_labels(pred)
    _check_labels(truth)
    return {
        "tp": int(np.sum((pred == 1) & (truth == 1))),
        "tn": int(np.sum((pred == 0) & (truth == 0))),
        "fp": int(np.sum((pred == 1) & (truth == 0))),
        "fn": int(np.sum((pred == 0) & (truth == 1))),
    }


def accuracy(pred, truth) -> float:
    c = confusion_counts(pred, truth)
    total = c["tp"] + c["tn"] + c["fp"] + c["fn"]
    if total == 0:
        raise UsageError("accuracy: empty inputs")
    return (c["tp"] + c["tn"]) / total


def mcc(confusion: dict[str, int]) -> float:
    """Matthews correlation; 0 by convention when any marginal is empty."""
    tp, tn, fp, fn = confusion["tp"], confusion["tn"], confusion["fp"], confusion["fn"]
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def f1(confusion: dict[str, int]) -> float:
    """Binary F1 with class 1 ("up") as positive; 0 when undefined."""
    tp, fp, fn = confusion["tp"], confusion["fp"], confusion["fn"]
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom else 0.0


def evaluate(
    model: Model,
    test_samples: list[WindowSample],
    graphs: dict[int, MultiRelAdjacency] | None = None,
) -> MetricsReport:
    """Argmax predictions per stock per day, aggregated into one confusion;
    DivergenceError naming the day if its forward pass overflows.

    The parameters are frozen and their diffusion mixes built once for all
    days; each day's :func:`mgdpr.model.forward` then adds only its graph.
    """
    if not test_samples:
        raise UsageError("evaluate: empty test set")
    graphs = graphs_for_samples(test_samples, graphs)
    frozen = model.frozen()
    try:
        mixes = M.diffusion_mixes(frozen, model.config)
    except FloatingPointError as e:
        raise DivergenceError(f"non-finite diffusion mix: {e}") from e
    total = {"tp": 0, "tn": 0, "fp": 0, "fn": 0}
    for s in sorted(test_samples, key=lambda x: x.t_index):
        try:
            logits = M.forward(frozen, model.config, s.features, graphs[s.t_index], mixes)
        except FloatingPointError as e:
            raise DivergenceError(f"non-finite prediction on day {s.t_index} ({s.end_date}): {e}") from e
        pred = np.argmax(logits.values, axis=1)
        c = confusion_counts(pred, s.labels)
        for key in total:
            total[key] += c[key]
    n_pairs = sum(total.values())
    return MetricsReport(
        accuracy=(total["tp"] + total["tn"]) / n_pairs,
        mcc=mcc(total),
        f1=f1(total),
        confusion=total,
        num_days=len(test_samples),
        num_stocks=test_samples[0].labels.size,
    )


# ---------------------------------------------------------------------------
# report files


def write_metrics_json(path, report: MetricsReport, market: str, period, seed: int, config_hash: str) -> None:
    payload = {
        "market": market,
        "period": list(period) if period else None,
        "seed": seed,
        "config_hash": config_hash,
        **report.to_dict(),
    }
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_trace_csv(path, trace: list[tuple[int, float, float]]) -> None:
    rows = [f"{epoch},{loss!r},{val_acc!r}\n" for epoch, loss, val_acc in trace]
    write_atomic(path, "epoch,loss,val_acc\n" + "".join(rows))
