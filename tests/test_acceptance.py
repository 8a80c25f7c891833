"""Acceptance gate: one test per shipping criterion, at pinned tolerances.

Each test prints a ``PASS criterion k`` line (visible with ``pytest -v -s``)
so a run reads as a checklist. Oracles here are deliberately independent
re-implementations: histogram entropy, nested-loop adjacency, central
finite differences, and a scalar confusion-matrix tally.
"""

import json
import math
import time

import numpy as np

from mgdpr import tensor as T
from mgdpr.graphs import (
    MultiRelAdjacency,
    build_adjacency,
    information_entropy,
    window_graphs,
)
from mgdpr.market import WindowSample, align_panel, make_windows, split_periods
from mgdpr.model import (
    Model,
    ModelConfig,
    decay_mask,
    forward,
    init_params,
    mixture_tensors,
    mixture_weights,
    parallel_retention,
    transition_matrices,
)
from mgdpr.synthetic import planted_market
from mgdpr.tensor import Tensor
from mgdpr.training import TrainConfig, epoch_loss, evaluate, graphs_for_samples, train

from gradcheck import max_rel_err
from test_cli import make_workspace, run
from test_graphs import oracle_adjacency
from test_training import oracle_metrics


def _report(k: int, message: str) -> None:
    print(f"PASS criterion {k}: {message}")


def test_criterion_1_adjacency_matches_brute_force_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(100):
        window = rng.integers(1, 50, size=(3, 5)).astype(float)
        got = build_adjacency(window)
        np.testing.assert_allclose(got, oracle_adjacency(window), rtol=1e-12, atol=0)
        np.testing.assert_allclose(got * got.T, 1.0, atol=1e-9)
        assert np.array_equal(np.diag(got), np.ones(3))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"100 integer panels match the oracle at 1e-12 in {elapsed:.2f}s")


def test_criterion_2_entropy_bounds():
    start = time.monotonic()
    rng = np.random.default_rng(102)
    checked_zero = checked_positive = 0
    for i in range(10_000):
        tau = int(rng.integers(1, 30))
        if i % 7 == 0:
            x = np.full(tau, float(rng.integers(0, 5)))  # constant windows
        elif i % 7 == 1:
            x = rng.integers(0, 3, size=tau).astype(float)  # heavy repeats
        else:
            x = rng.normal(scale=rng.uniform(0.01, 50.0), size=tau)
        h = information_entropy(x)
        assert 0.0 <= h <= math.log(tau) if tau > 1 else h == 0.0
        distinct = np.unique(np.round(x, 9)).size
        if distinct == 1:
            assert h == 0.0
            checked_zero += 1
        else:
            assert h > 0.0
            checked_positive += 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(
        2,
        f"10k windows inside [0, ln tau]; H=0 iff constant "
        f"({checked_zero} constant / {checked_positive} varied) in {elapsed:.2f}s",
    )


def test_criterion_3_full_model_gradient_check():
    start = time.monotonic()
    cfg = ModelConfig(
        num_stocks=4,
        lookback=5,
        num_relations=2,
        num_layers=2,
        expansion_steps=2,
        embed_dim=8,
        num_groups=4,
    )
    rng = np.random.default_rng(103)
    base = init_params(cfg, seed=103)
    params = {
        k: Tensor(p.values + rng.normal(scale=0.1, size=p.shape), requires_grad=True)
        for k, p in base.items()
    }
    days = []
    for t in range(2):
        features = rng.normal(size=(cfg.num_relations, cfg.num_stocks, cfg.lookback))
        raw = np.stack(
            [rng.uniform(0.5, 5.0, size=(cfg.num_stocks, cfg.lookback)) for _ in range(cfg.num_relations)]
        )
        labels = rng.integers(0, 2, size=cfg.num_stocks)
        days.append(WindowSample(t, f"day{t}", f"day{t + 1}", features, raw, labels))
    graphs = graphs_for_samples(days)

    # The gradient train() steps on: epoch_loss accumulates it into p.grad.
    epoch_loss(params, cfg, days, graphs)

    # Probes run on constants: a probe over recording parameters would add
    # its own gradient into the one under test.
    frozen = {name: T.constant(p.values) for name, p in params.items()}
    step = 1e-5
    worst_name, worst_err = "", 0.0
    for name, p in params.items():
        analytic = p.grad if p.grad is not None else np.zeros(p.shape)
        numeric = np.zeros(p.shape)
        flat = p.values.ravel()
        for i in range(flat.size):
            def at(delta):
                bumped = flat.copy()
                bumped[i] += delta
                probe = dict(frozen)
                probe[name] = T.constant(bumped.reshape(p.shape))
                return epoch_loss(probe, cfg, days, graphs)[0]

            numeric.ravel()[i] = (at(step) - at(-step)) / (2 * step)
        err = max_rel_err(analytic, numeric)
        if err > worst_err:
            worst_name, worst_err = name, err
        assert err < 1e-4, f"{name}: relative error {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _report(3, f"all {len(params)} tensors within 1e-4 (worst {worst_name}: {worst_err:.2e}) in {elapsed:.1f}s")


def test_criterion_4_constraints_hold_after_optimizer_steps():
    series = planted_market(num_stocks=4, num_days=20, momentum_lag=3, seed=104)
    panel = align_panel(series)
    samples = make_windows(panel, 6)
    cfg = ModelConfig(
        num_stocks=4, lookback=6, num_layers=2, expansion_steps=3, embed_dim=8, num_groups=4
    )
    model = Model.initialized(cfg, seed=104)
    _, trace = train(model, samples, [], TrainConfig(epochs=50))
    assert len(trace) == 50
    worst_mix = worst_col = 0.0
    for l in range(cfg.num_layers):
        mix = mixture_weights(model.params[f"diffusion.{l}.mixture"]).values
        assert mix.shape == (cfg.num_relations, cfg.expansion_steps)
        worst_mix = max(worst_mix, float(np.abs(mix.sum(axis=1) - 1.0).max()))
        cols = transition_matrices(model.params[f"diffusion.{l}.transition"]).values
        worst_col = max(worst_col, float(np.abs(cols.sum(axis=2) - 1.0).max()))
    assert worst_mix < 1e-12
    assert worst_col < 1e-12
    from mgdpr.training import constraint_term

    penalty = abs(constraint_term(mixture_tensors(model.params, cfg)).item())
    assert penalty < 1e-9
    _report(
        4,
        f"after 50 steps: mixture drift {worst_mix:.1e}, column drift {worst_col:.1e}, "
        f"constraint term {penalty:.1e}",
    )


def test_criterion_5_decay_mask_and_retention_causality():
    np.testing.assert_array_equal(
        decay_mask(3, 0.5),
        np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.25, 0.5, 1.0]]),
    )
    d, tau = 8, 6
    rng = np.random.default_rng(105)
    q = Tensor(rng.normal(size=(d, d)))
    k = Tensor(rng.normal(size=(d, d)))
    v = Tensor(rng.normal(size=(d, d)))
    mask = decay_mask(tau, 1.27)
    for _ in range(100):
        z = rng.normal(size=(tau, d))
        j = int(rng.integers(1, tau))
        z_perturbed = z.copy()
        z_perturbed[j:] += rng.normal(size=(tau - j, d))
        out = parallel_retention(Tensor(z), q, k, v, mask, 4).values
        out_p = parallel_retention(Tensor(z_perturbed), q, k, v, mask, 4).values
        diff = out[:j] - out_p[:j]
        assert np.all(diff == 0.0)
    _report(5, "mask exact for tau=3, zeta=0.5; 100 future perturbations left past rows bit-identical")


def test_criterion_6_stock_permutation_equivariance():
    cfg = ModelConfig(
        num_stocks=6, lookback=5, num_relations=3, num_layers=2,
        expansion_steps=2, embed_dim=8, num_groups=4,
    )
    params = init_params(cfg, seed=106)  # uniform transitions: stock-symmetric
    rng = np.random.default_rng(106)
    features = rng.normal(size=(cfg.num_relations, cfg.num_stocks, cfg.lookback))
    raw = np.stack(
        [rng.uniform(0.5, 5.0, size=(cfg.num_stocks, cfg.lookback)) for _ in range(cfg.num_relations)]
    )
    adjacency = window_graphs(0, raw)
    base = forward(params, cfg, features, adjacency).values
    for _ in range(20):
        perm = rng.permutation(cfg.num_stocks)
        permuted = forward(
            params,
            cfg,
            features[:, perm],
            MultiRelAdjacency(0, adjacency.sender_weights[:, perm]),
        ).values
        np.testing.assert_allclose(permuted, base[perm], atol=1e-9)
    _report(6, "20 random permutations agree within 1e-9")


def test_criterion_7_desk_scale_learning_sanity():
    start = time.monotonic()
    series = planted_market(
        num_stocks=12, num_days=60, momentum_lag=10, move=0.02, label_noise=0.05, seed=0
    )
    panel = align_panel(series)
    samples = make_windows(panel, 21)
    cal = panel.calendar
    train_s, _, held_out = split_periods(samples, (cal[0], cal[49]), None, (cal[50], cal[59]))
    assert train_s and held_out
    cfg = ModelConfig(
        num_stocks=12, lookback=21, num_layers=2, expansion_steps=2, embed_dim=32, num_groups=4
    )
    model = Model.initialized(cfg, seed=0)
    graphs = graphs_for_samples(samples)
    epochs_run = 0
    train_acc = held_acc = 0.0
    while epochs_run < 500:
        block = min(25, 500 - epochs_run)
        train(model, train_s, [], TrainConfig(epochs=block), graphs=graphs)
        epochs_run += block
        train_acc = evaluate(model, train_s, graphs=graphs).accuracy
        held_acc = evaluate(model, held_out, graphs=graphs).accuracy
        if train_acc >= 0.95 and held_acc >= 0.80:
            break
    elapsed = time.monotonic() - start
    assert train_acc >= 0.95, f"train accuracy {train_acc:.4f} after {epochs_run} epochs"
    assert held_acc >= 0.80, f"held-out accuracy {held_acc:.4f} after {epochs_run} epochs"
    assert elapsed < 600.0
    _report(
        7,
        f"train {train_acc:.3f} / held-out {held_acc:.3f} at epoch {epochs_run} in {elapsed:.0f}s",
    )


def test_criterion_8_metric_oracles():
    from mgdpr.training import accuracy, confusion_counts, f1, mcc

    rng = np.random.default_rng(108)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        pred = rng.integers(0, 2, size=n)
        truth = rng.integers(0, 2, size=n)
        conf, acc_o, mcc_o, f1_o = oracle_metrics(pred, truth)
        assert confusion_counts(pred, truth) == conf
        assert accuracy(pred, truth) == acc_o
        assert mcc(conf) == mcc_o
        assert f1(conf) == f1_o
    worked = mcc({"tp": 3, "tn": 4, "fp": 1, "fn": 2})
    assert round(worked, 5) == 0.40825
    _report(8, f"1000 random pairs exact; worked example mcc={worked:.5f}")


def test_criterion_9_end_to_end_determinism(tmp_path):
    blobs = []
    for name in ("first", "second"):
        base = tmp_path / name
        base.mkdir()
        config = make_workspace(base, num_days=30, lookback=5, epochs=2)
        for cmd in ("ingest", "graph", "train", "eval"):
            assert run(cmd, "--config", config) == 0
        blobs.append((base / "out" / "metrics.json").read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    assert {"acc", "mcc", "f1", "confusion", "seed", "config_hash"} <= set(payload)
    _report(9, "two ingest->graph->train->eval runs produced byte-identical metrics JSON")
