#!/usr/bin/env python3
"""Look inside the two stages of a layer: graph diffusion and retention.

Diffusion mixes the *stock* axis through a learned convex combination of
column-stochastic transition matrices, masked by the day's graph.
Retention mixes the *lookback* axis per stock with a causal,
distance-weighted score matrix. The decay mask is what makes retention
causal: strictly upper-triangular entries are exactly zero.
"""

import numpy as np

from mgdpr.graphs import window_graphs
from mgdpr.model import (
    decay_mask,
    diffusion_matrix,
    mixture_weights,
    parallel_retention,
    transition_matrices,
    transition_mix,
)
from mgdpr.tensor import Tensor

rng = np.random.default_rng(0)

print("== the decay mask ==")
print("lookback 5, decay 0.8:")
print(decay_mask(5, 0.8))
print("with decay 1.27 the weights grow with distance instead:")
print(np.array_str(decay_mask(5, 1.27), precision=3))

print("\n== simplex and column-stochastic parametrization ==")
raw_mix = Tensor(rng.normal(size=3))
weights = mixture_weights(raw_mix)
print("mixture weights:", np.round(weights.values, 4), "sum:", weights.values.sum())
raw_t = Tensor(rng.normal(size=(3, 4, 4)))
transitions = transition_matrices(raw_t)
print("transition column sums (per step):", np.round(transitions.values.sum(axis=1), 12)[0])

print("\n== a diffusion matrix: convex mix of transitions, masked by the day's graph ==")
day = window_graphs(0, rng.uniform(0.5, 4.0, size=(1, 4, 6)))
b = day.sender_weights[0]
print("sender weights (every row of the row-normalized graph):", np.round(b, 4))
s = diffusion_matrix(transition_mix(weights, transitions), b)
print(np.array_str(s.values, precision=4, suppress_small=True))

print("\n== retention is causal ==")
d, tau = 8, 6
maps = [Tensor(rng.normal(size=(d, d))) for _ in range(3)]
mask = decay_mask(tau, 1.27)
z = rng.normal(size=(tau, d))
out = parallel_retention(Tensor(z), *maps, mask, num_groups=4).values

z_future = z.copy()
z_future[4:] += 100.0  # rewrite the future
out_future = parallel_retention(Tensor(z_future), *maps, mask, num_groups=4).values
print("rows 0-3 changed after perturbing timesteps 4-5:",
      bool(np.any(out[:4] != out_future[:4])))
print("rows 4-5 changed:", bool(np.any(out[4:] != out_future[4:])))
