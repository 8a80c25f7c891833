import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

import mgdpr.model
import mgdpr.training
from mgdpr import tensor as T
from mgdpr.errors import DataError, DivergenceError, ShapeError, UsageError
from mgdpr.graphs import build_day_graphs
from mgdpr.market import align_panel, make_windows
from mgdpr.model import Model, ModelConfig, forward, init_params, mixture_tensors
from mgdpr.synthetic import planted_market
from mgdpr.tensor import Tensor
from mgdpr.training import (
    MetricsReport,
    TrainConfig,
    accuracy,
    confusion_counts,
    constraint_term,
    cross_entropy_mean,
    epoch_loss,
    evaluate,
    f1,
    graphs_for_samples,
    mcc,
    train,
    write_metrics_json,
    write_trace_csv,
)


# ---------------------------------------------------------------------------
# brute-force metric oracle


def oracle_metrics(pred, truth):
    tp = tn = fp = fn = 0
    for p, t in zip(pred, truth):
        if p == 1 and t == 1:
            tp += 1
        elif p == 0 and t == 0:
            tn += 1
        elif p == 1 and t == 0:
            fp += 1
        else:
            fn += 1
    total = tp + tn + fp + fn
    acc = (tp + tn) / total
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    m = (tp * tn - fp * fn) / math.sqrt(denom) if denom else 0.0
    f = 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0
    return {"tp": tp, "tn": tn, "fp": fp, "fn": fn}, acc, m, f


def desk_setup(num_stocks=3, num_days=14, lookback=4, seed=0):
    series = planted_market(num_stocks=num_stocks, num_days=num_days, momentum_lag=3, seed=seed)
    panel = align_panel(series)
    samples = make_windows(panel, lookback)
    cfg = ModelConfig(
        num_stocks=num_stocks,
        lookback=lookback,
        num_layers=1,
        expansion_steps=2,
        embed_dim=4,
        num_groups=2,
    )
    return cfg, samples


def counted(monkeypatch, name):
    """Outputs, in order, of the calls made to ``mgdpr.model.<name>``
    through the module."""
    calls = []
    real = getattr(mgdpr.model, name)

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(out)
        return out

    monkeypatch.setattr(mgdpr.model, name, spy)
    return calls


def per_day_reference(params, cfg, days, graphs):
    """The objective with each day's forward building its own mixes: a
    forward without ``mixes`` and one backward per day, then the constraint
    term. Returns the loss."""
    ce_sum = 0.0
    for s in days:
        ce = cross_entropy_mean(forward(params, cfg, s.features, graphs[s.t_index]), s.labels)
        T.backward(T.scale(ce, 1.0 / len(days)))
        ce_sum += ce.item()
    penalty = constraint_term(mixture_tensors(params, cfg))
    T.backward(penalty)
    return ce_sum / len(days) + penalty.item()


class TestObjective:
    def test_saturated_correct_prediction(self):
        logits = Tensor(np.array([[10.0, -10.0]]))
        assert cross_entropy_mean(logits, np.array([0])).item() < 1e-4

    def test_uniform_prediction_costs_ln2(self):
        logits = Tensor(np.zeros((5, 2)))
        for label in (0, 1):
            ce = cross_entropy_mean(logits, np.full(5, label))
            np.testing.assert_allclose(ce.item(), math.log(2), rtol=1e-12)

    def test_constraint_term_tiny_under_softmax_parametrization(self):
        cfg, samples = desk_setup()
        days = samples[:2]
        _, constraint = epoch_loss(init_params(cfg, seed=1), cfg, days, graphs_for_samples(days))
        assert abs(constraint) < 1e-9

    def test_label_outside_binary_rejected(self):
        with pytest.raises(DataError):
            cross_entropy_mean(Tensor(np.zeros((2, 2))), np.array([0, 2]))

    def test_objective_averages_over_days(self):
        cfg, samples = desk_setup()
        days = samples[:3]
        graphs = graphs_for_samples(days)
        params = init_params(cfg, seed=2)
        frozen = {name: T.constant(p.values) for name, p in params.items()}
        per_day = [
            cross_entropy_mean(forward(frozen, cfg, s.features, graphs[s.t_index]), s.labels).item() for s in days
        ]
        assert len(set(per_day)) == len(days)
        loss, constraint = epoch_loss(params, cfg, days, graphs)
        assert loss == sum(per_day) / len(days) + constraint

    @pytest.mark.parametrize("num_days", [1, 5])
    def test_mixes_built_once_per_call_and_one_forward_per_day(self, monkeypatch, num_days):
        cfg, samples = desk_setup(num_days=20)
        cfg = dataclasses.replace(cfg, num_layers=2)
        days = samples[:num_days]
        graphs = graphs_for_samples(days)
        params = init_params(cfg, seed=15)
        weights = counted(monkeypatch, "mixture_weights")
        transitions = counted(monkeypatch, "transition_matrices")
        forwards = counted(monkeypatch, "forward")
        epoch_loss(params, cfg, days, graphs)
        # one stacked softmax of each kind per layer, shared by the mixes and the constraint term
        assert len(weights) == len(transitions) == cfg.num_layers
        assert len(forwards) == num_days
        assert all(logits.requires_grad for logits in forwards)

        weights.clear()
        transitions.clear()
        forwards.clear()
        epoch_loss({k: T.constant(p) for k, p in params.items()}, cfg, days, graphs)
        assert len(weights) == len(transitions) == cfg.num_layers
        assert len(forwards) == num_days
        assert all(logits._record is None and not logits.requires_grad for logits in forwards)

    def test_equals_per_day_mixes_reference(self):
        cfg, samples = desk_setup(num_days=20)
        cfg = dataclasses.replace(cfg, num_layers=2)
        days = samples[:5]
        graphs = graphs_for_samples(days)
        # A generic point: at the symmetric init several gradients are exactly zero.
        rng = np.random.default_rng(16)
        noised = {k: p.values + rng.normal(scale=0.5, size=p.shape) for k, p in init_params(cfg).items()}
        point = {k: Tensor(v, requires_grad=True) for k, v in noised.items()}
        ref = {k: Tensor(v, requires_grad=True) for k, v in noised.items()}
        ref_loss = per_day_reference(ref, cfg, days, graphs)
        loss, _ = epoch_loss(point, cfg, days, graphs)
        assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
        for name, p in point.items():
            want = ref[name].grad
            assert want is not None and np.max(np.abs(want)) > 0, name
            rel = np.max(np.abs(p.grad - want)) / np.max(np.abs(want))
            assert rel <= 1e-12, f"{name}: max|delta| / max|ref| = {rel:.3e}"


class TestAdam:
    def test_in_place_step_has_the_textbook_bits_and_consumes_each_gradient(self):
        rng = np.random.default_rng(17)
        shapes = {"w": (3, 4), "b": (), "idle": (2,)}
        values = {k: rng.normal(size=s) for k, s in shapes.items()}
        params = {k: Tensor(v, requires_grad=True) for k, v in values.items()}
        state = mgdpr.training._AdamState(params)
        moments = (dict(state.m), dict(state.v))
        m = {k: np.zeros(s) for k, s in shapes.items()}
        v = {k: np.zeros(s) for k, s in shapes.items()}
        b1, b2, eps, lr = mgdpr.training.ADAM_BETA1, mgdpr.training.ADAM_BETA2, mgdpr.training.ADAM_EPS, 1e-3
        for step in (1, 2, 3):
            grads = {k: rng.normal(size=s) for k, s in shapes.items() if k != "idle"}
            for k, g in grads.items():
                params[k].grad = g.copy()
            stepped = state.update(params, lr, epoch=step - 1)
            assert all(p.grad is None for p in params.values())
            for k, p in stepped.items():
                g = grads.get(k, np.zeros(shapes[k]))
                m[k] = b1 * m[k] + (1.0 - b1) * g
                v[k] = b2 * v[k] + (1.0 - b2) * (g * g)
                want = values[k] - lr * (m[k] / (1.0 - b1**step)) / (np.sqrt(v[k] / (1.0 - b2**step)) + eps)
                assert p.requires_grad and p.shape == shapes[k] and p.values.tobytes() == want.tobytes(), k
                values[k] = want
            params = stepped
        assert all(state.m[k] is moments[0][k] and state.v[k] is moments[1][k] for k in shapes)


class TestMetrics:
    def test_accuracy_trivials(self):
        assert accuracy(np.array([1, 0, 1]), np.array([1, 0, 1])) == 1.0
        assert accuracy(np.array([1, 0]), np.array([0, 1])) == 0.0
        assert accuracy(np.array([1, 0, 1, 0]), np.array([1, 0, 1, 1])) == 0.75

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([1, 0]), np.array([1]))

    def test_mcc_perfect(self):
        assert mcc({"tp": 5, "tn": 5, "fp": 0, "fn": 0}) == 1.0

    def test_mcc_all_positive_prediction(self):
        pred = np.ones(10, dtype=int)
        truth = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        assert mcc(confusion_counts(pred, truth)) == 0.0

    def test_mcc_worked_example(self):
        # 10 / sqrt(600)
        value = mcc({"tp": 3, "tn": 4, "fp": 1, "fn": 2})
        assert abs(value - 0.40825) < 5e-6
        np.testing.assert_allclose(value, 10.0 / math.sqrt(600.0), rtol=1e-15)

    def test_f1_trivials(self):
        assert f1({"tp": 4, "tn": 0, "fp": 0, "fn": 0}) == 1.0
        assert f1({"tp": 0, "tn": 2, "fp": 1, "fn": 1}) == 0.0
        np.testing.assert_allclose(f1({"tp": 3, "tn": 0, "fp": 1, "fn": 2}), 6.0 / 9.0, rtol=1e-15)

    def test_matches_oracle_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 30))
            pred = rng.integers(0, 2, size=n)
            truth = rng.integers(0, 2, size=n)
            conf, acc_o, mcc_o, f1_o = oracle_metrics(pred, truth)
            assert confusion_counts(pred, truth) == conf
            assert accuracy(pred, truth) == acc_o
            assert mcc(conf) == mcc_o
            assert f1(conf) == f1_o

    def test_mcc_invariant_under_joint_relabeling(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            pred = rng.integers(0, 2, size=40)
            truth = rng.integers(0, 2, size=40)
            direct = mcc(confusion_counts(pred, truth))
            swapped = mcc(confusion_counts(1 - pred, 1 - truth))
            np.testing.assert_allclose(direct, swapped, atol=1e-12)


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        cfg, samples = desk_setup()
        model = Model.initialized(cfg, seed=2)
        before = {k: np.array(v.values) for k, v in model.params.items()}
        params, trace = train(model, samples[:4], [], TrainConfig(epochs=0))
        assert trace == []
        for k, v in params.items():
            assert np.array_equal(v.values, before[k])

    def test_same_seed_identical_trace(self):
        cfg, samples = desk_setup()
        runs = []
        for _ in range(2):
            model = Model.initialized(cfg, seed=3)
            _, trace = train(model, samples[:4], samples[4:6], TrainConfig(epochs=3))
            runs.append(trace)
        assert runs[0] == runs[1]

    def test_best_validation_params_retained(self):
        cfg, samples = desk_setup(num_days=16)
        model = Model.initialized(cfg, seed=5)
        params, trace = train(model, samples[:6], samples[6:9], TrainConfig(epochs=4))
        accs = [row[2] for row in trace]
        assert max(accs) == pytest.approx(max(accs))
        assert model.params is params

    def test_divergence_reports_epoch_and_rate(self):
        # one enormous step overflows the matmul chain on the next forward
        cfg, samples = desk_setup()
        model = Model.initialized(cfg, seed=6)
        with pytest.raises(DivergenceError, match=r"epoch \d+.*learning_rate"):
            train(model, samples[:4], [], TrainConfig(learning_rate=1e100, epochs=3))

    @pytest.mark.parametrize("bad", [math.nan, 1e160], ids=["nan", "square-overflows"])
    def test_bad_gradient_is_divergence_naming_parameter_and_epoch(self, monkeypatch, bad):
        # A NaN must not escape as a bare FloatingPointError, and a gradient
        # whose square overflows must not freeze its parameter at v = inf.
        cfg, samples = desk_setup()
        model = Model.initialized(cfg, seed=6)
        calls = []

        def fake_epoch_loss(params, *args):
            for name, p in params.items():
                p.grad = np.full(p.shape, bad if len(calls) == 1 and name == "diffusion.0.mix_w" else 0.5)
            calls.append(None)
            return 1.0, 0.0

        monkeypatch.setattr(mgdpr.training, "epoch_loss", fake_epoch_loss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match=r"diffusion\.0\.mix_w at epoch 1\b"):
                train(model, samples[:4], [], TrainConfig(epochs=3))
        assert len(calls) == 2

    def test_loss_mostly_decreases_early(self):
        # smoke property at the default learning rate on a planted market
        series = planted_market(num_stocks=6, num_days=36, momentum_lag=5, seed=7)
        panel = align_panel(series)
        samples = make_windows(panel, 8)
        cfg = ModelConfig(
            num_stocks=6, lookback=8, num_layers=1, expansion_steps=2, embed_dim=8, num_groups=2
        )
        model = Model.initialized(cfg, seed=7)
        _, trace = train(model, samples[:20], [], TrainConfig(epochs=10))
        losses = [row[1] for row in trace]
        violations = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
        assert violations <= 2


class TestGraphsForSamples:
    def test_library_path_equals_build_day_graphs_bit_for_bit(self):
        panel = align_panel(planted_market(num_stocks=6, num_days=30, momentum_lag=3, seed=12))
        samples = make_windows(panel, 5)
        graphs = graphs_for_samples(samples)
        assert sorted(graphs) == list(range(4, 29))
        for s in samples:
            expected = build_day_graphs(panel, s.t_index, 5)
            got = graphs[s.t_index]
            assert got.t_index == s.t_index
            assert got.sender_weights.tobytes() == expected.sender_weights.tobytes()
            assert got.matrices.tobytes() == expected.matrices.tobytes()


class TestGraphMapping:
    """train and evaluate use the mapping they are given, which must hold
    every sample's day, or build every day when given none."""

    def test_train_given_a_mapping_without_a_day_raises_naming_it(self):
        cfg, samples = desk_setup()
        graphs = graphs_for_samples(samples)
        missing = samples[5]  # a validation day
        del graphs[missing.t_index]
        message = rf"^train: no graph for day {missing.t_index} \({missing.end_date}\) in the graphs given$"
        with pytest.raises(UsageError, match=message):
            train(Model.initialized(cfg, seed=2), samples[:4], samples[4:6], TrainConfig(epochs=1), graphs)

    def test_evaluate_given_a_mapping_without_a_day_raises_naming_it(self):
        cfg, samples = desk_setup()
        graphs = graphs_for_samples(samples[1:])
        first = samples[0]
        message = rf"^evaluate: no graph for day {first.t_index} \({first.end_date}\) in the graphs given$"
        with pytest.raises(UsageError, match=message):
            evaluate(Model.initialized(cfg, seed=2), samples, graphs)

    def test_a_full_mapping_is_used_as_given(self, monkeypatch):
        cfg, samples = desk_setup()
        graphs = graphs_for_samples(samples)
        expected = evaluate(Model.initialized(cfg, seed=2), samples[4:], graphs)

        def no_building(*args):
            raise AssertionError("a graph was built although every day was given")

        monkeypatch.setattr(mgdpr.training, "window_graphs", no_building)
        train(Model.initialized(cfg, seed=2), samples[:4], samples[4:6], TrainConfig(epochs=1), graphs)
        assert evaluate(Model.initialized(cfg, seed=2), samples[4:], graphs) == expected
        with pytest.raises(AssertionError, match="was built"):
            evaluate(Model.initialized(cfg, seed=2), samples[4:])


class TestEvaluate:
    def _constant_predictor(self, cfg, cls):
        model = Model.initialized(cfg, seed=8)
        logit_bias = np.array([1.0, 0.0]) if cls == 0 else np.array([0.0, 1.0])
        model.params["readout.W2"] = Tensor(np.zeros((cfg.embed_dim, 2)), requires_grad=True)
        model.params["readout.b2"] = Tensor(logit_bias, requires_grad=True)
        return model

    def test_all_zero_predictor_scores_class0_fraction(self):
        cfg, samples = desk_setup(num_days=18)
        model = self._constant_predictor(cfg, cls=0)
        report = evaluate(model, samples)
        zeros = sum(int((s.labels == 0).sum()) for s in samples)
        total = sum(s.labels.size for s in samples)
        assert report.accuracy == zeros / total
        assert report.confusion["tp"] == 0 and report.confusion["fp"] == 0

    def test_metrics_mutually_consistent(self):
        cfg, samples = desk_setup(num_days=18)
        model = Model.initialized(cfg, seed=9)
        report = evaluate(model, samples)
        c = report.confusion
        total = sum(c.values())
        assert report.accuracy == (c["tp"] + c["tn"]) / total
        assert report.mcc == mcc(c)
        assert report.f1 == f1(c)

    def test_counts_sum_to_stocks_times_days(self):
        cfg, samples = desk_setup(num_days=18)
        report = evaluate(Model.initialized(cfg, seed=10), samples)
        assert sum(report.confusion.values()) == report.num_days * report.num_stocks

    def test_empty_test_set_rejected(self):
        cfg, _ = desk_setup()
        with pytest.raises(UsageError):
            evaluate(Model.initialized(cfg, seed=11), [])

    @pytest.mark.parametrize("num_days", [1, 4, 9])
    def test_mixes_built_once_per_call_and_one_forward_per_day(self, monkeypatch, num_days):
        cfg, samples = desk_setup(num_days=20)
        cfg = dataclasses.replace(cfg, num_layers=2)
        model = Model.initialized(cfg, seed=12)
        transitions = counted(monkeypatch, "transition_matrices")
        forwards = counted(monkeypatch, "forward")
        evaluate(model, samples[:num_days])
        assert len(transitions) == cfg.num_layers
        assert len(forwards) == num_days

    def test_confusion_equals_per_day_frozen_forward(self):
        cfg, samples = desk_setup(num_days=20)
        cfg = dataclasses.replace(cfg, num_layers=2)
        rng = np.random.default_rng(13)
        params = {k: Tensor(p.values + rng.normal(scale=0.5, size=p.shape)) for k, p in init_params(cfg).items()}
        model = Model(config=cfg, params=params)
        graphs = graphs_for_samples(samples)
        frozen = model.frozen()
        preds = [np.argmax(forward(frozen, cfg, s.features, graphs[s.t_index]).values, axis=1) for s in samples]
        assert 0 < np.concatenate(preds).mean() < 1
        labels = np.concatenate([s.labels for s in samples])
        assert evaluate(model, samples).confusion == confusion_counts(np.concatenate(preds), labels)

    def test_overflow_while_building_mixes_is_divergence(self, monkeypatch):
        cfg, samples = desk_setup()

        def overflow(*args):
            raise FloatingPointError("transition_matrices produced a non-finite value")

        monkeypatch.setattr(mgdpr.model, "transition_matrices", overflow)
        with pytest.raises(DivergenceError, match="diffusion mix"):
            evaluate(Model.initialized(cfg, seed=14), samples)


class TestReportFiles:
    def test_metrics_json_layout(self, tmp_path):
        report = MetricsReport(
            accuracy=0.75, mcc=0.1, f1=0.6, confusion={"tp": 1, "tn": 2, "fp": 1, "fn": 0},
            num_days=2, num_stocks=2,
        )
        path = tmp_path / "metrics.json"
        write_metrics_json(path, report, market="synthetic", period=("2020-01-01", "2020-02-01"), seed=3, config_hash="abc")
        payload = json.loads(path.read_text())
        assert payload["acc"] == 0.75
        assert payload["market"] == "synthetic"
        assert payload["seed"] == 3
        assert payload["confusion"] == {"tp": 1, "tn": 2, "fp": 1, "fn": 0}

    def test_trace_csv_round_trip(self, tmp_path):
        trace = [(0, 0.6931471805599453, math.nan), (1, 0.5, 0.75)]
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "epoch,loss,val_acc"
        epoch, loss, val = lines[1].split(",")
        assert int(epoch) == 0 and float(loss) == trace[0][1] and math.isnan(float(val))
