#!/usr/bin/env python3
"""Build dynamic stock graphs from OHLCV windows, step by step.

Every trading day gets five directed weighted graphs (one per indicator).
The edge weight from stock i to stock j is

    energy(x_i) / energy(x_j) * exp(entropy(x_i) - entropy(x_j))

so edges point "loudly" from high-energy, high-entropy series toward
quieter ones, and every opposite pair of edges multiplies to exactly 1.
"""

import numpy as np

from mgdpr.graphs import (
    build_adjacency,
    build_day_graphs,
    information_entropy,
    signal_energy,
)
from mgdpr.market import RELATIONS, align_panel, make_windows
from mgdpr.synthetic import planted_market

LOOKBACK = 8

print("== a tiny synthetic market ==")
series = planted_market(num_stocks=4, num_days=30, momentum_lag=4, seed=7)
panel = align_panel(series)
print(f"panel: {panel.num_stocks} stocks x {len(RELATIONS)} indicators x {panel.num_days} days")

print("\n== signal energy and information entropy of one window ==")
sample = make_windows(panel, LOOKBACK)[0]
close = sample.raw[RELATIONS.index("close")]
for i, ticker in enumerate(panel.tickers):
    e = signal_energy(close[i])
    h = information_entropy(close[i])
    print(f"  {ticker}: energy {e:12.2f}  entropy {h:.4f} (max possible {np.log(LOOKBACK):.4f})")

print("\n== one relation's adjacency matrix ==")
adjacency = build_adjacency(close, panel.tickers)
print(np.array_str(adjacency, precision=4, suppress_small=True))
print("diagonal is exactly one:", np.array_equal(np.diag(adjacency), np.ones(panel.num_stocks)))
print("opposite edges are reciprocal: max |a_ij * a_ji - 1| =",
      f"{np.abs(adjacency * adjacency.T - 1.0).max():.2e}")

print("\n== the full per-day stack, and the sender weights the model reads ==")
day = build_day_graphs(panel, t=LOOKBACK - 1, lookback=LOOKBACK)
print("stack shape (relations, stocks, stocks):", day.matrices.shape)
r = RELATIONS.index("volume")
volume = day.matrices[r]
print(f"raw volume-relation weights span [{volume.min():.3g}, {volume.max():.3g}]")
b = day.sender_weights[r]
print("sender weights b (every row of the row-normalized matrix):", np.array_str(b, precision=4))
print("b sums to one:", np.isclose(b.sum(), 1.0, atol=1e-12),
      "| row-normalized rows all equal b:",
      np.allclose(volume / volume.sum(axis=1, keepdims=True), b, rtol=1e-12, atol=0.0))
