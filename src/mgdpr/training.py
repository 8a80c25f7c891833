"""Constrained training objective, Adam loop, and classification metrics.

The objective, defined once by :func:`epoch_loss` (which :func:`train`
steps on and the full-model gradient check tests), is mean per-stock
cross-entropy over the training days plus the simplex-constraint term
summed over every layer's (relations, steps) mixture. Because mixtures
are softmax-parametrized the term is zero in exact arithmetic; it is still
computed, added, and asserted tiny, so a broken parametrization cannot
fail silently. It is also still backpropagated: in floating point its
gradient is not exactly zero (a K=7 mixture at initialization gets 3.2e-17
on every raw entry), so dropping the backward pass would change the
trained bits.

Training is full-batch, one Adam step per epoch. Each step builds the
mixture weights and the diffusion mixes, which depend on the parameters
only, once; every training day's gradient is then accumulated sample by
sample (mathematically identical to one joint loss, but with per-sample
memory) and carried through the mixes once at the end. The best
validation-accuracy parameters are retained.

:func:`train` and :func:`evaluate` read the day graphs they are given, which
must hold every sample's end day (:class:`UsageError` names one that is
missing), or, given none, build them all with :func:`graphs_for_samples`.
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
from .model import Model, ModelConfig, mixture_tensors
from .tensor import Tensor

CONSTRAINT_TOLERANCE = 1e-9
# Adam's moment decays and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer settings, each the config key ``train.<field>``; defaults
    match the full-scale reference recipe. Every epoch is one full-batch
    Adam step."""

    learning_rate: float = 2.5e-4
    epochs: int = 900

    def validate(self) -> None:
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be non-negative, got {self.epochs}")


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
    valid = (labels == 0) | (labels == 1)
    if not valid.all():
        bad = labels[~valid][0]
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
    """Sum over layers of (mixture mass - R): each layer's (R, K) simplex
    weights hold R rows that should each sum to one."""
    total: Tensor | None = None
    for m in mixtures:
        part = T.sub(T.sum_all(m), Tensor(float(m.shape[0])))
        total = part if total is None else T.add(total, part)
    return total if total is not None else Tensor(0.0)


def epoch_loss(
    params: dict[str, Tensor], cfg: ModelConfig, days: list[WindowSample], graphs: dict[int, MultiRelAdjacency]
) -> tuple[float, float]:
    """Mean cross-entropy across the (non-empty) ``days`` and their stocks,
    plus the constraint term: returns (loss, constraint term) and adds the
    loss's gradient into the ``grad`` of every ``requires_grad`` parameter.

    The mixture weights and the diffusion mixes depend on the parameters
    only, so they are built once, on the tape, and the weights serve both
    the mixes and the constraint term. Each day's forward reads leaf copies
    of the mixes and is backpropagated, in the given order, as soon as it is
    done: one day's tape is alive at a time, and the copies' ``grad`` sums
    every day's gradient (``backward`` releases the nodes it passes, so days
    reading the mixes themselves would pass on only the first day's
    gradient). A last backward carries the sums through the mix graph,
    together with the constraint term: the gradient of sum(mix * G) with
    respect to the mix is G. Copies of mixes that record nothing are the mixes themselves, so
    over constant parameters nothing records."""
    weights = mixture_tensors(params, cfg)
    mixes = M.diffusion_mixes(params, weights)
    shared = [Tensor(m.values, requires_grad=True) if m.requires_grad else m for m in mixes]
    ce_sum = 0.0
    for s in days:
        ce = cross_entropy_mean(M.forward(params, cfg, s.features, graphs[s.t_index], shared), s.labels)
        T.backward(T.scale(ce, 1.0 / len(days)))
        ce_sum += ce.item()
    penalty = constraint_term(weights)
    pullback = penalty
    for mix, leaf in zip(mixes, shared):
        if leaf.grad is not None:
            pullback = T.add(pullback, T.sum_all(T.hadamard(mix, T.constant(leaf.grad))))
    T.backward(pullback)
    return ce_sum / len(days) + penalty.item(), penalty.item()


# ---------------------------------------------------------------------------
# optimizer


class _AdamState:
    def __init__(self, params: dict[str, Tensor]):
        self.m = {k: np.zeros(v.shape) for k, v in params.items()}
        self.v = {k: np.zeros(v.shape) for k, v in params.items()}
        self.step = 0

    def update(self, params: dict[str, Tensor], learning_rate: float, epoch: int) -> dict[str, Tensor]:
        """One step: new leaves for ``params``. The moments are updated in
        place in the elementwise order of the textbook formulas, each
        gradient is dropped once it is consumed, and each new leaf takes its
        stepped array without a copy.

        A gradient that is not finite, or whose square overflows the second
        moment (which would freeze its parameter at a step of zero), raises
        DivergenceError naming the parameter and ``epoch``.
        """
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1**self.step
        bc2 = 1.0 - ADAM_BETA2**self.step
        out: dict[str, Tensor] = {}
        with np.errstate(all="ignore"):
            for name, p in params.items():
                g = p.grad if p.grad is not None else np.zeros(p.shape)
                p.grad = None
                m, v = self.m[name], self.v[name]
                m *= ADAM_BETA1
                m += (1.0 - ADAM_BETA1) * g
                v *= ADAM_BETA2
                g2 = np.multiply(g, g)
                del g
                g2 *= 1.0 - ADAM_BETA2
                v += g2
                del g2
                step = np.divide(m, bc1, out=np.empty_like(m))
                step *= learning_rate
                den = np.divide(v, bc2, out=np.empty_like(v))
                np.sqrt(den, out=den)
                den += ADAM_EPS
                # Not finite when a gradient entry is NaN or infinite, or when
                # its square overflows the second moment.
                if not np.isfinite(den).all():
                    raise DivergenceError(f"non-finite or overflowing gradient of {name} at epoch {epoch}")
                step /= den
                del den
                out[name] = T._leaf(np.subtract(p.values, step, out=step))
        return out


# ---------------------------------------------------------------------------
# training loop


def graphs_for_samples(samples: list[WindowSample]) -> dict[int, MultiRelAdjacency]:
    """The graph of each sample's end day, built from its raw window."""
    return {s.t_index: window_graphs(s.t_index, s.raw) for s in samples}


def _day_graphs(
    caller: str, samples: list[WindowSample], graphs: dict[int, MultiRelAdjacency] | None
) -> dict[int, MultiRelAdjacency]:
    """``graphs``, which must hold every sample's end day (UsageError naming
    the first that it lacks), or when it is None, :func:`graphs_for_samples`."""
    if graphs is None:
        return graphs_for_samples(samples)
    for s in samples:
        if s.t_index not in graphs:
            raise UsageError(f"{caller}: no graph for day {s.t_index} ({s.end_date}) in the graphs given")
    return graphs


def train(
    model: Model,
    train_samples: list[WindowSample],
    val_samples: list[WindowSample],
    config: TrainConfig,
    graphs: dict[int, MultiRelAdjacency] | None = None,
) -> tuple[dict[str, Tensor], list[tuple[int, float, float]]]:
    """Optimize :func:`epoch_loss`, the one definition of the objective, by
    full-batch Adam; returns (best parameters, per-epoch trace).

    Every training day, in date order, contributes to each epoch's one
    step. The trace rows are (epoch, train loss, validation accuracy); the
    retained parameters are the best-validation-accuracy ones, or the final
    ones when there is no validation split. The run is deterministic for a
    fixed model and config.
    """
    config.validate()
    if not train_samples:
        raise UsageError("train: no training samples")
    train_samples = sorted(train_samples, key=lambda s: s.t_index)
    graphs = _day_graphs("train", list(train_samples) + list(val_samples), graphs)

    params = model.params
    state = _AdamState(params)
    trace: list[tuple[int, float, float]] = []
    best_acc = -math.inf
    best_params = params

    for epoch in range(config.epochs):
        for p in params.values():
            p.grad = None
        try:
            loss, penalty = epoch_loss(params, model.config, train_samples, graphs)
        except FloatingPointError as e:
            raise DivergenceError(
                f"non-finite loss at epoch {epoch} (learning_rate={config.learning_rate}): {e}"
            ) from e
        if not math.isfinite(loss):
            raise DivergenceError(f"non-finite loss at epoch {epoch} (learning_rate={config.learning_rate})")
        if abs(penalty) > CONSTRAINT_TOLERANCE:
            raise DivergenceError(f"simplex constraint violated at epoch {epoch}: {penalty:.3e}")
        params = state.update(params, config.learning_rate, epoch)
        model.params = params
        if val_samples:
            val_acc = evaluate(model, val_samples, graphs).accuracy
            if val_acc > best_acc:
                best_acc = val_acc
                best_params = params
        else:
            val_acc = math.nan
            best_params = params
        trace.append((epoch, loss, val_acc))

    model.params = best_params
    return best_params, trace


# ---------------------------------------------------------------------------
# metrics


def confusion_counts(pred, truth) -> dict[str, int]:
    """2x2 counts with class 1 ("up") as positive."""
    pred, truth = np.ravel(pred), np.ravel(truth)
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
    graphs = _day_graphs("evaluate", test_samples, graphs)
    frozen = model.frozen()
    try:
        mixes = M.diffusion_mixes(frozen, mixture_tensors(frozen, model.config))
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


def write_metrics_json(
    path, report: MetricsReport, market: str, period, seed: int | None, config_hash: str
) -> None:
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
