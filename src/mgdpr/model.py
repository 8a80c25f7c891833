"""Multi-relational graph diffusion interleaved with parallel retention.

The hidden state lives on a (stocks, lookback, channels) grid. Each layer
runs two decoupled stages:

- *diffusion* mixes the stock axis, one lookback slice at a time, through a
  learned convex combination of column-stochastic transition matrices masked
  by the day's row-normalized adjacency, independently per relation, then
  collapses the relation channels with a learned 1x1 mix;
- *retention* mixes the lookback axis per stock with a causally masked,
  distance-weighted score matrix, group-normalized, and merges the result
  with an affine carry of the previous layer's representation.

Simplex and column-stochasticity constraints are enforced by softmax
parametrization of the raw parameters, so they hold after every optimizer
step by construction. A temporal mean-pool plus a 2-layer MLP produces two
logits per stock.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import CheckpointError, ConfigError, ShapeError, UsageError
from .files import has_type, write_atomic
from .tensor import Tensor

CHECKPOINT_FORMAT = "mgdpr-checkpoint-v2"


@dataclass(frozen=True)
class ModelConfig:
    """Network dimensions and the knobs every stage reads.

    Defaults follow the reference full-scale setting (21-day lookback, five
    OHLCV relations, width 256, decay 1.27); desk-scale runs shrink
    ``embed_dim``, ``num_layers``, and ``expansion_steps``. Each field but the
    data sizes ``num_stocks`` and ``num_relations`` is the config key ``model.<field>``.
    """

    num_stocks: int
    lookback: int = 21
    num_relations: int = 5
    num_layers: int = 8
    expansion_steps: int = 7
    embed_dim: int = 256
    decay: float = 1.27
    num_groups: int = 4
    activation_slope: float = 0.01
    readout_hidden: int = 0  # 0 means "same as embed_dim"

    def validate(self) -> None:
        positive = {
            "num_stocks": self.num_stocks,
            "lookback": self.lookback,
            "num_relations": self.num_relations,
            "expansion_steps": self.expansion_steps,
            "embed_dim": self.embed_dim,
            "num_groups": self.num_groups,
        }
        for name, value in positive.items():
            if int(value) < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.num_layers < 0:
            raise ConfigError(f"num_layers must be non-negative, got {self.num_layers}")
        if self.embed_dim % self.num_groups != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_groups {self.num_groups}"
            )
        if self.decay <= 0.0:
            raise ConfigError(f"decay must be positive, got {self.decay}")

    @property
    def hidden(self) -> int:
        return self.readout_hidden or self.embed_dim


def expected_param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map for every learnable tensor, in a stable order."""
    n, d, r_n, k = cfg.num_stocks, cfg.embed_dim, cfg.num_relations, cfg.expansion_steps
    shapes: dict[str, tuple[int, ...]] = {
        "embed.W": (r_n, d),
        "embed.b": (d,),
    }
    for l in range(cfg.num_layers):
        for r in range(r_n):
            shapes[f"diffusion.{l}.mixture.{r}"] = (k,)
            shapes[f"diffusion.{l}.transition.{r}"] = (k, n, n)
            shapes[f"diffusion.{l}.relmap.{r}"] = (d, d)
        shapes[f"diffusion.{l}.mix_w"] = (1, r_n)
        shapes[f"diffusion.{l}.mix_b"] = ()
        shapes[f"retention.{l}.query"] = (d, d)
        shapes[f"retention.{l}.key"] = (d, d)
        shapes[f"retention.{l}.value"] = (d, d)
        shapes[f"update.{l}.W1"] = (d, d)
        shapes[f"update.{l}.b1"] = (d,)
        shapes[f"update.{l}.W2"] = (2 * d, d)
        shapes[f"update.{l}.b2"] = (d,)
    shapes["readout.W1"] = (d, cfg.hidden)
    shapes["readout.b1"] = (cfg.hidden,)
    shapes["readout.W2"] = (cfg.hidden, 2)
    shapes["readout.b2"] = (2,)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Seeded initialization: 1/sqrt(fan_in) normals for maps, zeros elsewhere.

    Raw mixture and transition parameters start at zero, i.e. uniform simplex
    weights and uniform column-stochastic transitions; keeping transitions
    uniform also keeps a fresh model exactly permutation-equivariant.
    """
    cfg.validate()
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in expected_param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("b", "b1", "b2", "mix_b") or ".mixture." in name or ".transition." in name:
            values = np.zeros(shape)
        elif leaf == "mix_w":
            values = np.full(shape, 1.0 / cfg.num_relations)
        else:
            values = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        params[name] = Tensor(values, requires_grad=True)
    return params


# ---------------------------------------------------------------------------
# building blocks


def decay_mask(lookback: int, decay: float) -> np.ndarray:
    """Lower-triangular matrix of decay powers: entry (i, j) = decay^(i-j).

    The diagonal is exactly 1 and everything above it exactly 0, which is
    what makes retention causal.
    """
    if decay <= 0.0:
        raise ConfigError(f"decay must be positive, got {decay}")
    offsets = np.arange(lookback)[:, None] - np.arange(lookback)[None, :]
    with np.errstate(all="ignore"):
        mask = np.where(offsets >= 0, float(decay) ** offsets, 0.0)
    if not np.all(np.isfinite(mask)):
        raise ConfigError(f"decay {decay} overflows at lookback {lookback}")
    return mask


def mixture_weights(raw: Tensor) -> Tensor:
    """Softmax over expansion steps: a point on the simplex by construction."""
    return T.softmax(raw, axis=0)


def transition_matrices(raw: Tensor) -> Tensor:
    """Column-wise softmax of each (N, N) slice: columns sum to one."""
    if raw.ndim != 3:
        raise ShapeError(f"transition_matrices: expected (steps, N, N), got {raw.shape}")
    return T.softmax(raw, axis=1)


def transition_mix(weights: Tensor, transitions: Tensor) -> Tensor:
    """Convex mix of the transition steps, sum_k weights[k] * transitions[k]:
    one (N, N) column-stochastic matrix."""
    k, n, n2 = transitions.shape
    if weights.shape != (k,):
        raise ShapeError(f"transition_mix: weights {weights.shape} for transitions {transitions.shape}")
    mix = T.matmul(T.reshape(weights, (1, k)), T.reshape(transitions, (k, n * n2)))
    return T.reshape(mix, (n, n2))


def diffusion_mixes(params: dict[str, Tensor], cfg: ModelConfig) -> list[list[Tensor]]:
    """The parameter-only half of diffusion: the (N, N) transition mix of
    every relation, one list per layer. No day's data enters, so a pass over
    fixed parameters can build them once and hand them to each day's
    :func:`forward`."""
    return [
        [
            transition_mix(
                mixture_weights(params[f"diffusion.{l}.mixture.{r}"]),
                transition_matrices(params[f"diffusion.{l}.transition.{r}"]),
            )
            for r in range(cfg.num_relations)
        ]
        for l in range(cfg.num_layers)
    ]


def diffusion_matrix(mix: Tensor, sender_weights: np.ndarray) -> Tensor:
    """A transition mix masked by the day's row-normalized adjacency: every
    row of it is ``sender_weights`` (one relation's row of
    :attr:`MultiRelAdjacency.sender_weights`), so column j of the mix is
    scaled by ``sender_weights[j]`` through a broadcast view, not an N x N copy.
    """
    n, n2 = mix.shape
    if sender_weights.shape != (n2,):
        raise ShapeError(
            f"diffusion_matrix: mix {mix.shape} and sender weights {sender_weights.shape} disagree"
        )
    mask = T.constant(np.broadcast_to(sender_weights, (n, n2)))
    return T.hadamard(mix, mask)


def diffuse_layer(
    state: Tensor,
    diffusion_matrices: list[Tensor],
    relation_maps: list[Tensor],
    mix_w: Tensor,
    mix_b: Tensor,
    slope: float,
) -> Tensor:
    """Propagate along each relation's graph, then mix relations pointwise.

    The stock axis is mixed for every lookback slice at once by flattening
    (lookback, channels); the 1x1 convolution across relation channels is a
    learned length-R dot product plus bias applied at every grid point.
    """
    n, tau, d = state.shape
    flat = T.reshape(state, (n, tau * d))
    parts = []
    for s_r, w_r in zip(diffusion_matrices, relation_maps):
        propagated = T.reshape(T.matmul(s_r, flat), (n * tau, d))
        parts.append(T.reshape(T.matmul(propagated, w_r), (1, n * tau * d)))
    mixed = T.reshape(T.matmul(mix_w, T.concat(parts, 0)), (n, tau, d))
    return T.activation(T.add(mixed, mix_b), slope)


def parallel_retention(
    z: Tensor,
    query_map: Tensor,
    key_map: Tensor,
    value_map: Tensor,
    mask: np.ndarray,
    num_groups: int,
) -> Tensor:
    """Causal, distance-decayed sequence mixing with group normalization.

    ``z`` is one stock's (lookback, channels) slice, or a stacked
    (stocks, lookback, channels) batch; a slice runs as a batch of one.
    Scores are scaled by 1/sqrt(d) before masking; with a super-unit decay
    the unscaled products overflow at realistic lookbacks.
    """
    if z.ndim not in (2, 3):
        raise ShapeError(f"parallel_retention: expected 2-D or 3-D input, got {z.shape}")
    tau, d = z.shape[-2:]
    n = z.size // (tau * d)
    flat = T.reshape(z, (n * tau, d))
    q = T.reshape(T.matmul(flat, query_map), (n, tau, d))
    k = T.reshape(T.matmul(flat, key_map), (n, tau, d))
    v = T.reshape(T.matmul(flat, value_map), (n, tau, d))
    mask_t = T.constant(np.broadcast_to(mask, (n, tau, tau)))
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(d))
    retained = T.matmul(T.hadamard(scores, mask_t), v)
    normalized = T.group_normalize(T.reshape(retained, (n * tau, d)), num_groups)
    return T.reshape(normalized, z.shape)


def layer_update(
    diffused: Tensor,
    carried: Tensor,
    *,
    query_map: Tensor,
    key_map: Tensor,
    value_map: Tensor,
    mask: np.ndarray,
    num_groups: int,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    slope: float,
) -> Tensor:
    """Retain the diffused state per stock, concatenate an affine carry of the
    previous representation along the channel axis, and map back to width d."""
    n, tau, d = diffused.shape
    if carried.shape != diffused.shape:
        raise ShapeError(f"layer_update: shapes {diffused.shape} and {carried.shape} differ")
    retention_out = parallel_retention(diffused, query_map, key_map, value_map, mask, num_groups)
    carry = T.add_bias(T.matmul(T.reshape(carried, (n * tau, d)), w1), b1)
    joined = T.concat([T.reshape(retention_out, (n * tau, d)), carry], 1)
    out = T.add_bias(T.matmul(joined, w2), b2)
    return T.reshape(T.activation(out, slope), (n, tau, d))


def init_state(features: np.ndarray, embed_w: Tensor, embed_b: Tensor) -> Tensor:
    """Embed the per-timestep indicator vector of every stock into width d."""
    r_n, n, tau = features.shape
    if embed_w.shape[0] != r_n:
        raise ShapeError(f"init_state: {r_n} relations but embedding expects {embed_w.shape[0]}")
    pointwise = np.ascontiguousarray(features.transpose(1, 2, 0)).reshape(n * tau, r_n)
    emb = T.add_bias(T.matmul(Tensor(pointwise), embed_w), embed_b)
    return T.reshape(emb, (n, tau, emb.shape[1]))


def readout(state: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, slope: float) -> Tensor:
    """Mean-pool the lookback axis, then a 2-layer MLP to per-stock logits."""
    pooled = T.mean_axis(state, 1)
    hidden = T.activation(T.add_bias(T.matmul(pooled, w1), b1), slope)
    return T.add_bias(T.matmul(hidden, w2), b2)


# ---------------------------------------------------------------------------
# full forward pass


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    features: np.ndarray,
    adjacency,
    mixes: list[list[Tensor]] | None = None,
) -> Tensor:
    """Features + day graphs -> (num_stocks, 2) logits.

    ``features`` is the z-scored (relations, stocks, lookback) window;
    ``adjacency`` the same day's :class:`MultiRelAdjacency`, of which only the
    (relations, stocks) ``sender_weights`` are read. ``mixes`` are
    :func:`diffusion_mixes` of ``params``, built here when not given.
    """
    features = np.asarray(features, dtype=np.float64)
    expected = (cfg.num_relations, cfg.num_stocks, cfg.lookback)
    if features.shape != expected:
        raise ShapeError(f"features shape {features.shape}, expected {expected}")
    missing = [name for name in expected_param_shapes(cfg) if name not in params]
    if missing:
        raise UsageError(f"params missing {len(missing)} tensors, e.g. {missing[0]!r}")
    senders = adjacency.sender_weights
    if senders.shape != expected[:2]:
        raise ShapeError(f"graph sender weights shape {senders.shape}, expected {expected[:2]}")
    if mixes is None:
        mixes = diffusion_mixes(params, cfg)
    elif [len(row) for row in mixes] != [cfg.num_relations] * cfg.num_layers:
        raise UsageError(f"mixes must be {cfg.num_layers} layers of {cfg.num_relations} relations")

    mask = decay_mask(cfg.lookback, cfg.decay)
    state = init_state(features, params["embed.W"], params["embed.b"])
    carried = state
    for l in range(cfg.num_layers):
        diffusion_matrices = [diffusion_matrix(mixes[l][r], senders[r]) for r in range(cfg.num_relations)]
        relation_maps = [params[f"diffusion.{l}.relmap.{r}"] for r in range(cfg.num_relations)]
        state = diffuse_layer(
            state,
            diffusion_matrices,
            relation_maps,
            params[f"diffusion.{l}.mix_w"],
            params[f"diffusion.{l}.mix_b"],
            cfg.activation_slope,
        )
        carried = layer_update(
            state,
            carried,
            query_map=params[f"retention.{l}.query"],
            key_map=params[f"retention.{l}.key"],
            value_map=params[f"retention.{l}.value"],
            mask=mask,
            num_groups=cfg.num_groups,
            w1=params[f"update.{l}.W1"],
            b1=params[f"update.{l}.b1"],
            w2=params[f"update.{l}.W2"],
            b2=params[f"update.{l}.b2"],
            slope=cfg.activation_slope,
        )
    return readout(
        carried,
        params["readout.W1"],
        params["readout.b1"],
        params["readout.W2"],
        params["readout.b2"],
        cfg.activation_slope,
    )


def mixture_tensors(params: dict[str, Tensor], cfg: ModelConfig) -> list[Tensor]:
    """Materialized simplex weights for every (layer, relation) pair."""
    return [
        mixture_weights(params[f"diffusion.{l}.mixture.{r}"])
        for l in range(cfg.num_layers)
        for r in range(cfg.num_relations)
    ]


@dataclass
class Model:
    """Config plus parameters, with forward/predict conveniences."""

    config: ModelConfig
    params: dict[str, Tensor]

    def __post_init__(self):
        self.config.validate()

    @classmethod
    def initialized(cls, config: ModelConfig, seed: int = 0) -> "Model":
        return cls(config=config, params=init_params(config, seed))

    def forward(self, features: np.ndarray, adjacency) -> Tensor:
        return forward(self.params, self.config, features, adjacency)

    def frozen(self) -> dict[str, Tensor]:
        """The parameters as constants: a forward pass over them records no
        tape, and each activation is freed once the next layer has used it."""
        return {name: T.constant(p.values) for name, p in self.params.items()}

    def predict(self, features: np.ndarray, adjacency) -> np.ndarray:
        """Per-stock class decisions (argmax of the two logits), computed
        over :meth:`frozen` parameters."""
        return np.argmax(forward(self.frozen(), self.config, features, adjacency).values, axis=1)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, model: Model) -> None:
    """Single binary file: little-endian float64 payload behind a JSON header.

    Tensors are stored back to back in :func:`expected_param_shapes` order,
    the header records the payload's SHA-256, and the file is written
    atomically.
    """
    entries = []
    payload = bytearray()
    for name in expected_param_shapes(model.config):
        tensor = model.params[name]
        entries.append({"name": name, "shape": list(tensor.shape), "offset": len(payload)})
        payload.extend(np.ascontiguousarray(tensor.values, dtype="<f8").tobytes())
    header = json.dumps(
        {
            "format": CHECKPOINT_FORMAT,
            "config": asdict(model.config),
            "tensors": entries,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
        },
        sort_keys=True,
    ).encode("utf-8")
    write_atomic(path, struct.pack("<Q", len(header)) + header + bytes(payload))


def _is_entry(entry) -> bool:
    return isinstance(entry, dict) and all(
        has_type(entry.get(key), kind) for key, kind in (("name", str), ("shape", list[int]), ("offset", int))
    )


def load_checkpoint(path, cfg: ModelConfig) -> Model:
    """Load and validate a checkpoint against ``cfg``.

    The payload must match the header's SHA-256 (a file of an earlier
    format, which has none, is refused). Every field of ``cfg`` must equal
    the header's recorded ``config`` (keys :class:`ModelConfig` no longer
    has are ignored). The tensor table must list exactly the expected
    tensors in :func:`expected_param_shapes` order, stored back to back and
    filling the payload, and every value must be finite; anything else
    raises :class:`CheckpointError`.
    """
    cfg.validate()
    try:
        size = Path(path).stat().st_size
        with open(path, "rb") as f:
            (header_len,) = struct.unpack("<Q", f.read(8))
            if header_len > size - 8:
                raise CheckpointError(f"{path}: header length {header_len} exceeds file size {size}")
            header = json.loads(f.read(header_len).decode("utf-8"))
            payload = f.read()
    except (OSError, ValueError, UnicodeDecodeError, struct.error, OverflowError, MemoryError) as e:
        raise CheckpointError(f"{path}: unreadable checkpoint header ({e})") from e
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if header.get("payload_sha256") != hashlib.sha256(payload).hexdigest():
        raise CheckpointError(f"{path}: payload does not match its recorded SHA-256")
    saved = header.get("config") if isinstance(header.get("config"), dict) else {}
    for name, value in asdict(cfg).items():
        if saved.get(name) != value:
            raise CheckpointError(
                f"{path}: checkpoint was trained with {name}={saved.get(name)!r}, not {value!r}"
            )
    entries = header.get("tensors")
    if not (isinstance(entries, list) and all(_is_entry(e) for e in entries)):
        raise CheckpointError(f"{path}: tensor table is not a list of {{name, shape, offset}} entries")
    expected = expected_param_shapes(cfg)
    if [e["name"] for e in entries] != list(expected):
        raise CheckpointError(
            f"{path}: checkpoint tensors do not match the config "
            f"({len(entries)} stored vs {len(expected)} expected; names and order must agree)"
        )
    params: dict[str, Tensor] = {}
    start = 0
    for entry, (name, shape) in zip(entries, expected.items()):
        if tuple(entry["shape"]) != shape:
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {tuple(entry['shape'])}, expected {shape}"
            )
        if entry["offset"] != start:
            raise CheckpointError(f"{path}: tensor {name!r} at offset {entry['offset']}, expected {start}")
        end = start + 8 * math.prod(shape)
        if end > len(payload):
            raise CheckpointError(f"{path}: tensor {name!r} overruns the payload")
        values = np.frombuffer(payload[start:end], dtype="<f8").reshape(shape)
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        params[name] = Tensor(values, requires_grad=True)
        start = end
    if start != len(payload):
        raise CheckpointError(f"{path}: {len(payload) - start} payload bytes after the last tensor")
    return Model(config=cfg, params=params)
