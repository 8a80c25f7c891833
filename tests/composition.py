"""The layer stages of ``mgdpr.model`` composed from generic tensor ops.

Each stage of a layer (``diffuse_layer``, ``parallel_retention`` and
``merge_carry``) is one recorded op in the library. Here each is the chain
of generic ops that it replaces, op for op: the bit oracle that the stage
ops' values and gradients are compared against. :func:`relation_mix`, the
one compound op of that chain, is kept here as it was a generic op of
``mgdpr.tensor``.
"""

from __future__ import annotations

import numpy as np

from mgdpr import model as M
from mgdpr import tensor as T
from mgdpr.errors import ShapeError
from mgdpr.tensor import Tensor


def relation_mix(stack: Tensor, maps: Tensor, weights: Tensor) -> Tensor:
    """Σ_r weights[0, r] · stack[r] @ maps[r] as one (rows, d) matrix.

    ``stack`` is (R, rows, k), ``maps`` (R, k, d) and ``weights`` (1, R).
    The forward is the composition ``weights @ reshape(stack @ maps)`` with
    the same products, but the rule keeps only the three inputs, never the
    (R, rows, d) mapped stack. The stack's gradient takes the composition's
    path; the maps' and the weights' both come from H_r = stack[r]ᵀ g, as
    weights[0, r] · H_r and Σ H_r ⊙ maps[r].
    """
    ok = (
        stack.ndim == 3
        and maps.ndim == 3
        and maps.shape[:2] == (stack.shape[0], stack.shape[2])
        and weights.shape == (1, stack.shape[0])
    )
    if not ok:
        raise ShapeError(f"relation_mix: shapes {stack.shape}, {maps.shape} and {weights.shape} are incompatible")
    r, rows, d = stack.shape[0], stack.shape[1], maps.shape[2]
    with np.errstate(all="ignore"):
        mapped = T.product(stack.values, maps.values)
        T.check_finite(mapped, "relation_mix")
        out = T.product(weights.values, mapped.reshape(r, rows * d)).reshape(rows, d)
    need_s, need_m, need_w = (t._record is not None for t in (stack, maps, weights))
    sv = stack.values if need_m or need_w else None
    mv = maps.values if need_s or need_w else None
    wv = weights.values if need_s or need_m else None

    def rule(g):
        gs = gm = gw = None
        if need_s:
            per_relation = T.product(wv.swapaxes(-1, -2), g.reshape(1, rows * d)).reshape(r, rows, d)
            gs = T.product(per_relation, mv.swapaxes(-1, -2))
        if sv is not None:
            h = np.matmul(sv.swapaxes(-1, -2), g)
            if need_w:
                gw = np.multiply(h, mv).sum(axis=(1, 2)).reshape(1, r)
            if need_m:
                h *= wv.reshape(r, 1, 1)
                gm = h
        return gs, gm, gw

    return T.node(out, (stack._record, maps._record, weights._record), rule, "relation_mix")


def diffuse_layer(state, diffusion, relation_maps, mix_w, mix_b):
    r, n = diffusion.shape[:2]
    rows, d = state.shape
    propagated = T.matmul(T.reshape(diffusion, (r * n, n)), T.reshape(state, (n, rows // n * d)))
    mixed = relation_mix(T.reshape(propagated, (r, rows, d)), relation_maps, mix_w)
    return T.activation(T.add(mixed, mix_b))


def parallel_retention(z, query_map, key_map, value_map, mask, num_groups):
    tau = mask.shape[0]
    n, d = z.shape[0] // tau, z.shape[1]
    q = T.reshape(T.matmul(z, query_map), (n, tau, d))
    k = T.reshape(T.matmul(z, key_map), (n, tau, d))
    v = T.reshape(T.matmul(z, value_map), (n, tau, d))
    mask_t = T.constant(np.broadcast_to(mask, (n, tau, tau)))
    scores = T.scale(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(d))
    retained = T.matmul(T.hadamard(scores, mask_t), v)
    return T.group_normalize(T.reshape(retained, z.shape), num_groups)


def merge_carry(retained, carried, w1, b1, w2, b2):
    carry = T.linear(carried, w1, b1)
    return T.activation(T.linear(T.concat([retained, carry], 1), w2, b2))


STAGES = {"diffuse_layer": diffuse_layer, "parallel_retention": parallel_retention, "merge_carry": merge_carry}


def install(monkeypatch) -> None:
    """Run ``mgdpr.model``'s forward through the compositions above."""
    for name, composed in STAGES.items():
        monkeypatch.setattr(M, name, composed)
