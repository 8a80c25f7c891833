"""Multi-relational graph diffusion interleaved with parallel retention.

The hidden state is one (stocks·lookback, channels) matrix, the lookback
windows stacked stock after stock. Each layer runs two decoupled stages that
take and return that matrix:

- *diffusion* mixes the stock axis, one lookback slice at a time, through a
  learned convex combination of column-stochastic transition matrices masked
  by the day's row-normalized adjacency, independently per relation, then
  collapses the relation channels with a learned 1x1 mix. A layer holds each
  kind of per-relation parameter as one tensor stacked over the R relations
  (mixture (R, K), transition (R, K, N, N), relation map (R, d, d)), and every
  diffusion step runs on the whole stack at once;
- *retention* mixes the lookback axis per stock with a causally masked,
  distance-weighted score matrix, group-normalized, and merges the result
  with an affine carry of the previous layer's representation.

Each stage is one op on the autograd tape: :func:`diffuse_layer`,
:func:`retain` (group normalization included) and :func:`merge_carry`, so
a layer records 4 nodes with the masked transition mix. A stage op runs the
numpy expressions of the generic ops it stands for, in their order, checks
each value that could overflow under the name of the op that made it, and
its rule forms the gradients their rules would, in the same order: values and gradients keep their bits. Unlike a
generic op's rule, it forms every input's gradient (training records every
input, a frozen pass none), and ``backward`` drops any without a record.

Only diffusion's propagation product mixes stocks; everything after it in
a layer works within each stock. So each stage runs that work through
:func:`mgdpr.tensor.run_blocks`, as blocks of whole stocks (of rows, for
the carry merge) that check each step where they compute it; retention's
rule runs as the same stock blocks. Blocks change neither a byte nor the
op that an overflow names.

Simplex and column-stochasticity constraints are enforced by softmax
parametrization of the raw parameters, so they hold after every optimizer
step by construction. A temporal mean-pool plus a 2-layer MLP of width
``embed_dim`` produces two logits per stock. Every activation is a leaky
ReLU with the fixed negative slope :data:`mgdpr.tensor.ACTIVATION_SLOPE`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import CheckpointError, ConfigError, ShapeError, UsageError
from .files import unique_keys, write_atomic
from .tensor import Tensor

CHECKPOINT_FORMAT = "mgdpr-checkpoint-v5"
_HEADER_KEYS = ["config", "format", "seed", "sha256"]
_REPEATED_KEY = unique_keys(lambda key: ValueError(f"it repeats the key {key!r:.80}"))


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


def expected_param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map for every learnable tensor, in a stable order."""
    n, d, r_n, k = cfg.num_stocks, cfg.embed_dim, cfg.num_relations, cfg.expansion_steps
    shapes: dict[str, tuple[int, ...]] = {
        "embed.W": (r_n, d),
        "embed.b": (d,),
    }
    for l in range(cfg.num_layers):
        shapes[f"diffusion.{l}.mixture"] = (r_n, k)
        shapes[f"diffusion.{l}.transition"] = (r_n, k, n, n)
        shapes[f"diffusion.{l}.relmap"] = (r_n, d, d)
        shapes[f"diffusion.{l}.mix_w"] = (1, r_n)
        shapes[f"diffusion.{l}.mix_b"] = ()
        shapes[f"retention.{l}.query"] = (d, d)
        shapes[f"retention.{l}.key"] = (d, d)
        shapes[f"retention.{l}.value"] = (d, d)
        shapes[f"update.{l}.W1"] = (d, d)
        shapes[f"update.{l}.b1"] = (d,)
        shapes[f"update.{l}.W2"] = (2 * d, d)
        shapes[f"update.{l}.b2"] = (d,)
    shapes["readout.W1"] = (d, d)
    shapes["readout.b1"] = (d,)
    shapes["readout.W2"] = (d, 2)
    shapes["readout.b2"] = (2,)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0) -> dict[str, Tensor]:
    """Seeded initialization: 1/sqrt(fan_in) normals for maps, fan-in along
    the second-to-last axis, zeros elsewhere.

    Raw mixture and transition parameters start at zero, i.e. uniform simplex
    weights and uniform column-stochastic transitions; keeping transitions
    uniform also keeps a fresh model exactly permutation-equivariant.
    ConfigError for a negative ``seed``.
    """
    cfg.validate()
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in expected_param_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("b", "b1", "b2", "mix_b", "mixture", "transition"):
            values = np.zeros(shape)
        elif leaf == "mix_w":
            values = np.full(shape, 1.0 / cfg.num_relations)
        else:
            values = rng.normal(0.0, 1.0 / np.sqrt(shape[-2]), size=shape)
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
    """Softmax over expansion steps (the last axis): each relation's row of a
    stacked (R, K) mixture is a point on the simplex by construction."""
    return T.softmax(raw, axis=-1)


def transition_matrices(raw: Tensor) -> Tensor:
    """Column-wise softmax of each (N, N) slice of a stacked (R, K, N, N)
    tensor: columns sum to one."""
    if raw.ndim != 4:
        raise ShapeError(f"transition_matrices: expected (relations, steps, N, N), got {raw.shape}")
    return T.softmax(raw, axis=2)


def transition_mix(weights: Tensor, transitions: Tensor) -> Tensor:
    """Convex mix of the transition steps of every relation,
    sum_k weights[r, k] * transitions[r, k]: an (R, N, N) stack of
    column-stochastic matrices, from one batched product."""
    r, k, n, n2 = transitions.shape
    if weights.shape != (r, k):
        raise ShapeError(f"transition_mix: weights {weights.shape} for transitions {transitions.shape}")
    mix = T.matmul(T.reshape(weights, (r, 1, k)), T.reshape(transitions, (r, k, n * n2)))
    return T.reshape(mix, (r, n, n2))


def diffusion_mixes(params: dict[str, Tensor], weights: list[Tensor]) -> list[Tensor]:
    """The parameter-only half of diffusion: each layer's (R, N, N) transition
    mix, from that layer's (R, K) simplex weights in ``weights``, as
    :func:`mixture_tensors` gives them. No day's data enters, so a pass over
    fixed parameters can build them once and hand them to each day's
    :func:`forward`."""
    return [
        transition_mix(w, transition_matrices(params[f"diffusion.{l}.transition"]))
        for l, w in enumerate(weights)
    ]


def diffusion_matrix(mix: Tensor, sender_weights: np.ndarray) -> Tensor:
    """A layer's (R, N, N) transition mix masked by the day's row-normalized
    adjacency: every row of relation r's is row r of the (R, N)
    :attr:`MultiRelAdjacency.sender_weights`, so column j of mix r is scaled
    by ``sender_weights[r, j]`` through a broadcast view, not a copy."""
    r, n, n2 = mix.shape
    if sender_weights.shape != (r, n2):
        raise ShapeError(
            f"diffusion_matrix: mix {mix.shape} and sender weights {sender_weights.shape} disagree"
        )
    mask = T.constant(np.broadcast_to(sender_weights[:, None, :], mix.shape))
    return T.hadamard(mix, mask)


def diffuse_layer(
    state: Tensor,
    diffusion: Tensor,
    relation_maps: Tensor,
    mix_w: Tensor,
    mix_b: Tensor,
) -> Tensor:
    """Propagate along each relation's graph, then mix relations pointwise.

    ``state`` is the (N·lookback, d) matrix and ``diffusion`` the (R, N, N)
    stack of :func:`diffusion_matrix`. One product mixes the stock axis of
    every relation and lookback slice, (R·N, N) @ (N, lookback·d); one
    batched product applies each of the (R, d, d') relation maps; a (1, R)
    product is the 1x1 convolution across relation channels (a learned
    length-R dot product); the scalar ``mix_b`` is then added at every grid
    point and the leaky ReLU applied. Returns an (N·lookback, d') matrix.

    One recorded op. Its rule keeps both operands of the propagation
    product, the (R, N·lookback, d) propagated stack, the maps, the mix
    weights and the rectifier's mask, never the (R, N·lookback, d') mapped
    stack, which the forward makes one block of stocks at a time: the maps'
    and the mix weights' gradients both come from H_r = stack[r]ᵀ g, as
    w_r · H_r and Σ H_r ⊙ maps[r].
    """
    inputs = (state, diffusion, relation_maps, mix_w, mix_b)
    r, n = diffusion.shape[:2] if diffusion.ndim == 3 else (0, 0)
    rows, d = state.shape if state.ndim == 2 else (0, 0)
    if not (n and rows % n == 0 and diffusion.shape[2] == n and relation_maps.ndim == 3
            and relation_maps.shape[:2] == (r, d) and mix_w.shape == (1, r) and mix_b.ndim == 0):
        raise ShapeError(f"diffuse_layer: shapes {', '.join(str(t.shape) for t in inputs)} are incompatible")
    d_out = relation_maps.shape[2]
    dv, mv, wv, bv = diffusion.values.reshape(r * n, n), relation_maps.values, mix_w.values, mix_b.values
    xv = state.values.reshape(n, rows // n * d)
    out, nonnegative = np.empty((rows, d_out)), np.empty((rows, d_out), dtype=bool)

    def block(b: T.Block) -> None:
        b.check(stack[:, b.rows], "matmul")  # the propagation, at the block's stocks
        mapped = T.serial_product(stack[:, b.rows], mv)
        b.check(mapped, "relation_mix")
        pre = T.serial_product(wv, mapped.reshape(r, -1)).reshape(-1, d_out)
        b.check(pre, "relation_mix")
        del mapped
        pre += bv
        b.check(pre, "add")
        T.rectify(pre, out[b.rows], nonnegative[b.rows])

    with np.errstate(all="ignore"):
        stack = T.product(dv, xv).reshape(r, rows, d)
    T.run_blocks(block, rows, rows // n, r * rows * (d + 1) * d_out)
    pullback = T.rectifier_pullback(nonnegative)

    def rule(g: np.ndarray):
        nonlocal stack, dv
        ga = pullback(g)
        gb = ga.sum()
        gm = T.product(stack.swapaxes(-1, -2), ga)
        stack = None
        gw = np.multiply(gm, mv).sum(axis=(1, 2)).reshape(1, r)
        gm *= wv.reshape(r, 1, 1)
        per_relation = T.product(wv.swapaxes(-1, -2), ga.reshape(1, rows * d_out)).reshape(r, rows, d_out)
        del ga
        gp = T.product(per_relation, mv.swapaxes(-1, -2)).reshape(r * n, rows // n * d)
        yield T.product(dv.swapaxes(-1, -2), gp).reshape(rows, d)
        dv = None
        yield T.product(gp, xv.swapaxes(-1, -2)).reshape(r, n, n)
        yield from (gm, gw, gb)

    return T.node(out, tuple(t._record for t in inputs), rule, "diffuse_layer", check=False)


def retain(
    z: Tensor, query_map: Tensor, key_map: Tensor, value_map: Tensor, mask: np.ndarray, num_groups: int
) -> Tensor:
    """Retention and its group normalization, as one recorded op.

    ``z`` is an (N·lookback, d) matrix of whole lookback windows, with
    lookback = ``mask.shape[0]``. Per stock, q, k and v are z's rows times
    the (d, d) maps; the scores q·kᵀ are scaled by 1/sqrt(d), masked by the
    causal decay ``mask`` and multiply v, and the retained product's rows
    are normalized in ``num_groups`` channel groups
    (:func:`mgdpr.tensor.normalize_groups`). Returns the (N·lookback, d)
    normalized matrix. Each block of stocks normalizes its own rows, so the
    retained product is never whole. The rule keeps z, the maps, q, the
    transposed copy of k, v, the masked scores, the output and its inverse
    deviations, and runs as the forward's stock blocks: the group norm's
    pullback and the per-stock products of v's, the scores', q's and k's
    gradients. It yields z's gradient once per map, in the order q, k, v,
    so z's gradients add up in that order.
    """
    tau = mask.shape[0]
    maps = (query_map, key_map, value_map)
    square = z.shape[-1:] * 2
    if z.ndim != 2 or z.shape[0] % tau or mask.shape != (tau, tau) or any(m.shape != square for m in maps):
        shapes = ", ".join(str(t.shape) for t in (z, *maps))
        raise ShapeError(f"retain: shapes {shapes} and mask {mask.shape} are incompatible")
    rows, d = z.shape
    if num_groups < 1 or d % num_groups != 0:
        raise ConfigError(f"retain: {d} channels not divisible into {num_groups} groups")
    n = rows // tau
    scale = float(1.0 / np.sqrt(d))
    zv, mvs = z.values, [m.values for m in maps]
    q, v, retained = np.empty((n, tau, d)), np.empty((n, tau, d)), np.empty((rows, d))
    kt, scores, inv = np.empty((n, d, tau)), np.empty((n, tau, tau)), np.empty((rows, num_groups, 1))
    macs = rows * d * (3 * d + 2 * tau)

    def block(b: T.Block) -> None:
        s = slice(b.rows.start // tau, b.rows.stop // tau)
        zb = zv[b.rows]
        b.check(T.serial_product(zb, mvs[0], out=q[s].reshape(-1, d)), "matmul")
        kt[s] = T.serial_product(zb, mvs[1]).reshape(-1, tau, d).swapaxes(-1, -2)
        b.check(kt[s], "matmul")
        b.check(T.serial_product(zb, mvs[2], out=v[s].reshape(-1, d)), "matmul")
        b.check(mask, "constant")
        sb = T.serial_product(q[s], kt[s], out=scores[s])
        b.check(sb, "matmul")
        sb *= scale  # at most 1 in magnitude: cannot overflow
        sb *= mask
        b.check(sb, "hadamard")
        pre = T.serial_product(sb, v[s]).reshape(-1, d)  # the retained product, before its norm
        b.check(pre, "matmul")
        T.normalize_groups(pre, retained[b.rows], inv[b.rows], b.check)

    T.run_blocks(block, rows, tau, macs)

    def rule(g: np.ndarray):
        nonlocal q, kt, v, scores, retained, inv
        # q's, k's and v's gradients take the memory of q, of k's transposed
        # copy and of v, each block's rows once no product reads them there:
        # the rule allocates no (N·lookback, d) array beyond the group norm's.
        gq, gk, gv = q, kt.reshape(n, tau, d), v

        def block(b: T.Block) -> None:
            s = slice(b.rows.start // tau, b.rows.stop // tau)
            gr = T.group_norm_pullback(g[b.rows], retained[b.rows], inv[b.rows]).reshape(-1, tau, d)
            gs = T.serial_product(gr, v[s].swapaxes(-1, -2))
            gs *= mask
            gs *= scale
            T.serial_product(scores[s].swapaxes(-1, -2), gr, out=gv[s])
            gk_s = T.serial_product(q[s].swapaxes(-1, -2), gs)
            T.serial_product(gs, kt[s].swapaxes(-1, -2), out=gq[s])
            gk[s] = gk_s.swapaxes(-1, -2)

        T.run_blocks(block, rows, tau, macs)
        q = kt = v = scores = retained = inv = None
        for gx, mv in zip((gq, gk, gv), mvs):
            gx = gx.reshape(rows, d)
            yield T.product(gx, mv.swapaxes(-1, -2))
            yield T.product(zv.swapaxes(-1, -2), gx)

    parents = (z._record, query_map._record, z._record, key_map._record, z._record, value_map._record)
    return T.node(retained, parents, rule, "retain", check=False)


def parallel_retention(
    z: Tensor,
    query_map: Tensor,
    key_map: Tensor,
    value_map: Tensor,
    mask: np.ndarray,
    num_groups: int,
) -> Tensor:
    """Causal, distance-decayed sequence mixing with group normalization.

    ``z`` is an (N·lookback, d) matrix of whole lookback windows stacked
    stock after stock, with lookback = ``mask.shape[0]``; one stock's
    (lookback, d) window is the N = 1 case. Returns a matrix of the same
    shape from one recorded op, :func:`retain`: retention, then group
    normalization. Scores are scaled by 1/sqrt(d) before masking; with a
    super-unit decay the unscaled products overflow at realistic lookbacks.
    """
    tau = mask.shape[0]
    if z.ndim != 2 or z.shape[0] % tau != 0:
        raise ShapeError(f"parallel_retention: expected (stocks·{tau}, channels), got {z.shape}")
    return retain(z, query_map, key_map, value_map, mask, num_groups)


def merge_carry(retained: Tensor, carried: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """The update half of a layer, as one recorded op: the affine carry
    ``carried @ w1 + b1`` joins ``retained`` along the channel axis, and the
    (rows, 2d) join maps back to width d through ``w2``, ``b2`` and the
    leaky ReLU.

    The rule keeps ``retained``, the carry, ``carried``, the weights and the
    rectifier's mask. It joins the first two again only to form w2's
    gradient, so the tape never holds the joined copy.
    """
    inputs = (retained, carried, w1, b1, w2, b2)
    rows, d = retained.shape if retained.ndim == 2 else (0, 0)
    k, d1 = w1.shape if w1.ndim == 2 else (0, 0)
    if not (carried.shape == (rows, k) and b1.shape == (d1,) and w2.ndim == 2 and w2.shape[0] == d + d1
            and b2.shape == w2.shape[1:]):
        raise ShapeError(f"merge_carry: shapes {', '.join(str(t.shape) for t in inputs)} are incompatible")
    rv, cv, w1v, w2v = retained.values, carried.values, w1.values, w2.values
    d_out = w2.shape[1]
    carry, out, nonnegative = np.empty((rows, d1)), np.empty((rows, d_out)), np.empty((rows, d_out), dtype=bool)

    def block(b: T.Block) -> None:
        cb = T.serial_product(cv[b.rows], w1v, out=carry[b.rows])
        cb += b1.values
        b.check(cb, "linear")
        pre = T.serial_product(np.concatenate([rv[b.rows], cb], axis=1), w2v)
        pre += b2.values
        b.check(pre, "linear")
        T.rectify(pre, out[b.rows], nonnegative[b.rows])

    T.run_blocks(block, rows, 1, rows * (k * d1 + (d + d1) * d_out))
    pullback = T.rectifier_pullback(nonnegative)

    def rule(g: np.ndarray):
        nonlocal rv, carry
        ga = pullback(g)
        joined = np.concatenate([rv, carry], axis=1)
        rv = carry = None
        gw2 = T.product(joined.swapaxes(-1, -2), ga)
        del joined
        gb2 = ga.sum(axis=0)
        gr, gc = np.split(T.product(ga, w2v.swapaxes(-1, -2)), [d], axis=1)
        del ga
        yield gr
        yield T.product(gc, w1v.swapaxes(-1, -2))
        yield T.product(cv.swapaxes(-1, -2), gc)
        yield from (gc.sum(axis=0), gw2, gb2)

    return T.node(out, tuple(t._record for t in inputs), rule, "merge_carry", check=False)


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
) -> Tensor:
    """Retain the diffused state per stock, concatenate an affine carry of the
    previous representation along the channel axis, and map back to width d."""
    if carried.shape != diffused.shape:
        raise ShapeError(f"layer_update: shapes {diffused.shape} and {carried.shape} differ")
    retention_out = parallel_retention(diffused, query_map, key_map, value_map, mask, num_groups)
    return merge_carry(retention_out, carried, w1, b1, w2, b2)


def init_state(features: np.ndarray, embed_w: Tensor, embed_b: Tensor) -> Tensor:
    """Embed the per-timestep indicator vector of every stock into width d:
    the (N·lookback, d) state matrix, stock after stock."""
    r_n, n, tau = features.shape
    if embed_w.shape[0] != r_n:
        raise ShapeError(f"init_state: {r_n} relations but embedding expects {embed_w.shape[0]}")
    pointwise = np.ascontiguousarray(features.transpose(1, 2, 0)).reshape(n * tau, r_n)
    return T.linear(Tensor(pointwise), embed_w, embed_b)


def readout(state: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """Mean-pool the lookback axis of (N, lookback, d), then a 2-layer MLP to (N, 2) logits."""
    pooled = T.mean_axis(state, 1)
    hidden = T.activation(T.linear(pooled, w1, b1))
    return T.linear(hidden, w2, b2)


# ---------------------------------------------------------------------------
# full forward pass


def forward(
    params: dict[str, Tensor],
    cfg: ModelConfig,
    features: np.ndarray,
    adjacency,
    mixes: list[Tensor] | None = None,
) -> Tensor:
    """Features + day graphs -> (num_stocks, 2) logits.

    ``features`` is the z-scored (relations, stocks, lookback) window;
    ``adjacency`` the same day's :class:`MultiRelAdjacency`, of which only the
    (relations, stocks) ``sender_weights`` are read. ``mixes`` are
    :func:`diffusion_mixes` of ``params``, one (R, N, N) stack per layer,
    built here when not given.
    """
    features = np.asarray(features, dtype=np.float64)
    expected = (cfg.num_relations, cfg.num_stocks, cfg.lookback)
    if features.shape != expected:
        raise ShapeError(f"features shape {features.shape}, expected {expected}")
    names, mask = _day_constants(cfg)
    missing = [name for name in names if name not in params]
    if missing:
        raise UsageError(f"params missing {len(missing)} tensors, e.g. {missing[0]!r}")
    senders = adjacency.sender_weights
    if senders.shape != expected[:2]:
        raise ShapeError(f"graph sender weights shape {senders.shape}, expected {expected[:2]}")
    stack = (cfg.num_relations, cfg.num_stocks, cfg.num_stocks)
    if mixes is None:
        mixes = diffusion_mixes(params, mixture_tensors(params, cfg))
    elif [m.shape for m in mixes] != [stack] * cfg.num_layers:
        raise UsageError(f"mixes must be {cfg.num_layers} stacks of shape {stack}")

    state = init_state(features, params["embed.W"], params["embed.b"])
    carried = state
    for l in range(cfg.num_layers):
        state = diffuse_layer(
            state,
            diffusion_matrix(mixes[l], senders),
            params[f"diffusion.{l}.relmap"],
            params[f"diffusion.{l}.mix_w"],
            params[f"diffusion.{l}.mix_b"],
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
        )
    grid = T.reshape(carried, (cfg.num_stocks, cfg.lookback, cfg.embed_dim))
    return readout(grid, *(params[f"readout.{name}"] for name in ("W1", "b1", "W2", "b2")))


@functools.lru_cache(maxsize=4)
def _day_constants(cfg: ModelConfig) -> tuple[tuple[str, ...], np.ndarray]:
    """What every day's :func:`forward` reads from ``cfg`` alone: the
    parameter names and the (read-only) decay mask, built once per config."""
    mask = decay_mask(cfg.lookback, cfg.decay)
    mask.setflags(write=False)
    return tuple(expected_param_shapes(cfg)), mask


def mixture_tensors(params: dict[str, Tensor], cfg: ModelConfig) -> list[Tensor]:
    """Materialized simplex weights, one (R, K) stack per layer."""
    return [mixture_weights(params[f"diffusion.{l}.mixture"]) for l in range(cfg.num_layers)]


@dataclass
class Model:
    """Config, parameters and initialization seed (None for given params)."""

    config: ModelConfig
    params: dict[str, Tensor]
    seed: int | None = None

    def __post_init__(self):
        self.config.validate()

    @classmethod
    def initialized(cls, config: ModelConfig, seed: int = 0) -> "Model":
        return cls(config=config, params=init_params(config, seed), seed=seed)

    def frozen(self) -> dict[str, Tensor]:
        """The parameters as constants: a forward pass over them records no
        tape, and each activation is freed once the next layer has used it."""
        return {name: T.constant(p) for name, p in self.params.items()}


# ---------------------------------------------------------------------------
# checkpoints


def _checkpoint_digest(header: dict, payload: bytes) -> str:
    """SHA-256 of the canonical JSON of the header's format, config and seed,
    followed by the payload."""
    described = json.dumps({key: header[key] for key in ("config", "format", "seed")}, sort_keys=True)
    return hashlib.sha256(described.encode("utf-8") + payload).hexdigest()


def save_checkpoint(path, model: Model) -> None:
    """Write atomically an 8-byte little-endian header length, a JSON header
    of the format, config, seed and the SHA-256 of all three and the payload,
    then every tensor as little-endian float64, back to back in
    :func:`expected_param_shapes` order (the config fixes every name, shape
    and offset, so a tensor of another shape raises :class:`ShapeError`)."""
    shapes = expected_param_shapes(model.config)
    for name, shape in shapes.items():
        if model.params[name].shape != shape:
            raise ShapeError(f"save_checkpoint: {name!r} has shape {model.params[name].shape}, not {shape}")
    arrays = [model.params[name].values.ravel() for name in shapes]
    payload = np.concatenate(arrays).astype("<f8", copy=False).tobytes()
    header = {"format": CHECKPOINT_FORMAT, "config": asdict(model.config), "seed": model.seed}
    header["sha256"] = _checkpoint_digest(header, payload)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    write_atomic(path, struct.pack("<Q", len(text)) + text + payload)


def load_checkpoint(path, cfg: ModelConfig) -> Model:
    """Load a checkpoint trained with ``cfg``; :class:`CheckpointError` unless
    the header has exactly the keys :func:`save_checkpoint` writes, and no
    object in it repeats a key, under this format (earlier formats are
    refused), header and payload match its SHA-256, the recorded config
    equals ``cfg`` with no extra field, the seed is an integer or null, and
    the payload is ``cfg``'s tensors, all finite."""
    cfg.validate()
    try:
        size = Path(path).stat().st_size
        with open(path, "rb") as f:
            (header_len,) = struct.unpack("<Q", f.read(8))
            if header_len > size - 8:
                raise ValueError(f"header length {header_len} exceeds file size {size}")
            header = json.loads(f.read(header_len).decode("utf-8"), object_pairs_hook=_REPEATED_KEY)
            payload = f.read()
    except (OSError, ValueError, UnicodeDecodeError, struct.error, OverflowError, MemoryError) as e:
        raise CheckpointError(f"{path}: unreadable checkpoint header ({e})") from e
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if sorted(header) != _HEADER_KEYS:
        raise CheckpointError(f"{path}: header keys {sorted(header)}, expected {_HEADER_KEYS}")
    if header["sha256"] != _checkpoint_digest(header, payload):
        raise CheckpointError(f"{path}: header and payload do not match their recorded SHA-256")
    saved = header["config"] if isinstance(header["config"], dict) else {}
    expected = asdict(cfg)
    for name in [*expected, *saved]:
        if json.dumps(saved.get(name)) != json.dumps(expected.get(name)):
            raise CheckpointError(
                f"{path}: checkpoint was trained with {name}={saved.get(name)!r}, not {expected.get(name)!r}"
            )
    seed = header["seed"]
    if not (seed is None or type(seed) is int):
        raise CheckpointError(f"{path}: recorded seed {seed!r} is not an integer or null")
    shapes = expected_param_shapes(cfg)
    sizes = [math.prod(shape) for shape in shapes.values()]
    if len(payload) != 8 * sum(sizes):
        raise CheckpointError(f"{path}: payload has {len(payload)} bytes, the config needs {8 * sum(sizes)}")
    values = np.frombuffer(payload, dtype="<f8")
    params: dict[str, Tensor] = {}
    for (name, shape), chunk in zip(shapes.items(), np.split(values, np.cumsum(sizes)[:-1])):
        if not np.all(np.isfinite(chunk)):
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        params[name] = Tensor(chunk.reshape(shape), requires_grad=True)
    return Model(config=cfg, params=params, seed=seed)
