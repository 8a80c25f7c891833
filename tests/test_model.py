import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from mgdpr import tensor as T
from mgdpr.errors import CheckpointError, ConfigError, ShapeError
from mgdpr.graphs import MultiRelAdjacency, window_graphs
from mgdpr.model import (
    Model,
    ModelConfig,
    decay_mask,
    diffuse_layer,
    diffusion_matrix,
    diffusion_mixes,
    expected_param_shapes,
    forward,
    init_params,
    init_state,
    layer_update,
    load_checkpoint,
    mixture_tensors,
    mixture_weights,
    parallel_retention,
    readout,
    save_checkpoint,
    transition_matrices,
    transition_mix,
)
from mgdpr.tensor import Tensor
from gradcheck import max_rel_err, numeric_grad
from test_graphs import oracle_adjacency


def small_config(**overrides):
    base = dict(
        num_stocks=3,
        lookback=4,
        num_relations=2,
        num_layers=1,
        expansion_steps=2,
        embed_dim=4,
        num_groups=2,
        decay=1.27,
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_instance(cfg, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(cfg.num_relations, cfg.num_stocks, cfg.lookback))
    raw = np.stack(
        [rng.uniform(0.5, 5.0, size=(cfg.num_stocks, cfg.lookback)) for _ in range(cfg.num_relations)]
    )
    return features, window_graphs(0, raw)


class TestMixtureWeights:
    def test_uniform_from_zeros(self):
        out = mixture_weights(Tensor(np.zeros(4), requires_grad=True))
        np.testing.assert_array_equal(out.values, np.full(4, 0.25))

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = mixture_weights(Tensor(rng.normal(scale=5, size=7)))
            np.testing.assert_allclose(out.values.sum(), 1.0, atol=1e-12)

    def test_gradient_flows_to_raw(self):
        raw = np.array([0.3, -0.7, 1.1])
        weights = np.array([2.0, -1.0, 0.5])

        def fn(arrs):
            return float((mixture_weights(Tensor(arrs["raw"])).values * weights).sum())

        leaf = Tensor(raw, requires_grad=True)
        T.backward(T.sum_all(T.hadamard(mixture_weights(leaf), Tensor(weights))))
        numeric = numeric_grad(fn, {"raw": raw})
        assert max_rel_err(leaf.grad, numeric["raw"]) < 1e-6


class TestTransitionMatrices:
    def test_uniform_from_zeros(self):
        out = transition_matrices(Tensor(np.zeros((2, 2, 3, 3))))
        np.testing.assert_array_equal(out.values, np.full((2, 2, 3, 3), 1.0 / 3.0))

    def test_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = transition_matrices(Tensor(rng.normal(scale=3, size=(3, 2, 4, 4))))
        np.testing.assert_allclose(out.values.sum(axis=2), 1.0, atol=1e-12)

    def test_entries_strictly_positive(self):
        rng = np.random.default_rng(2)
        out = transition_matrices(Tensor(rng.normal(scale=8, size=(2, 3, 5, 5))))
        assert np.all(out.values > 0.0)

    def test_unstacked_input_rejected(self):
        with pytest.raises(ShapeError):
            transition_matrices(Tensor(np.zeros((2, 3, 3))))


class TestDiffusionMatrix:
    def test_single_step_uniform_on_all_ones(self):
        weights = Tensor(np.ones((2, 1)))
        transitions = transition_matrices(Tensor(np.zeros((2, 1, 4, 4))))
        out = diffusion_matrix(transition_mix(weights, transitions), np.ones((2, 4)))
        np.testing.assert_allclose(out.values, 0.25, atol=1e-15)

    def test_adjacency_zero_masks_entry(self):
        # a zero sender weight masks that sender's whole column, in its relation only
        senders = np.ones((2, 3))
        senders[1, 2] = 0.0
        out = diffusion_matrix(
            transition_mix(Tensor(np.ones((2, 1))), transition_matrices(Tensor(np.zeros((2, 1, 3, 3))))),
            senders,
        )
        assert np.all(out.values[1, :, 2] == 0.0)
        assert np.all(out.values[1, :, :2] > 0.0)
        assert np.all(out.values[0] > 0.0)

    def test_degenerate_mixture_selects_first_step(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(1, 2, 3, 3))
        transitions = transition_matrices(Tensor(raw))
        one_hot = Tensor(np.array([[1.0, 0.0]]))
        out = diffusion_matrix(transition_mix(one_hot, transitions), np.ones((1, 3)))
        np.testing.assert_allclose(out.values[0], transitions.values[0, 0], atol=1e-15)

    def test_mismatched_sender_weights_rejected(self):
        mix = transition_mix(Tensor(np.ones((2, 1))), transition_matrices(Tensor(np.zeros((2, 1, 3, 3)))))
        with pytest.raises(ShapeError):
            diffusion_matrix(mix, np.ones(3))

    @pytest.mark.parametrize("n", [12, 100])
    def test_equals_mix_masked_by_row_normalized_oracle(self, n):
        """Sender weights carry the whole row-normalized graph: the mask
        they apply is the Hadamard with A / A.sum(1), A from the nested-loop
        oracle."""
        rng = np.random.default_rng(n)
        window = rng.uniform(0.5, 5.0, size=(n, 21))
        senders = window_graphs(0, window[None]).sender_weights
        weights = mixture_weights(Tensor(rng.normal(size=(1, 3))))
        transitions = transition_matrices(Tensor(rng.normal(size=(1, 3, n, n))))
        adjacency = oracle_adjacency(window)
        mix = np.einsum("k,kij->ij", weights.values[0], transitions.values[0])
        expected = mix * (adjacency / adjacency.sum(axis=1, keepdims=True))
        got = diffusion_matrix(transition_mix(weights, transitions), senders).values[0]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)


class TestDecayMask:
    def test_exact_small_mask(self):
        np.testing.assert_array_equal(
            decay_mask(3, 0.5),
            np.array([[1.0, 0.0, 0.0], [0.5, 1.0, 0.0], [0.25, 0.5, 1.0]]),
        )

    def test_unit_diagonal(self):
        assert np.array_equal(np.diag(decay_mask(9, 1.27)), np.ones(9))

    def test_reference_decay_value(self):
        np.testing.assert_array_equal(decay_mask(2, 1.27), np.array([[1.0, 0.0], [1.27, 1.0]]))

    def test_nonpositive_decay_rejected(self):
        with pytest.raises(ConfigError):
            decay_mask(4, 0.0)


class TestParallelRetention:
    def _params(self, d, seed=0, zero_query=False):
        rng = np.random.default_rng(seed)
        q = np.zeros((d, d)) if zero_query else rng.normal(size=(d, d))
        return (
            Tensor(q),
            Tensor(rng.normal(size=(d, d))),
            Tensor(rng.normal(size=(d, d))),
        )

    def test_zero_query_gives_zero_output(self):
        d = 4
        q, k, v = self._params(d, zero_query=True)
        z = Tensor(np.random.default_rng(1).normal(size=(5, d)))
        out = parallel_retention(z, q, k, v, decay_mask(5, 1.27), 2)
        np.testing.assert_array_equal(out.values, np.zeros((5, d)))

    def test_output_shape(self):
        q, k, v = self._params(4)
        z = Tensor(np.random.default_rng(2).normal(size=(6, 4)))
        assert parallel_retention(z, q, k, v, decay_mask(6, 1.27), 2).shape == (6, 4)

    def test_causality_exact(self):
        # future timesteps must not move past outputs, to the last bit
        d, tau = 4, 6
        q, k, v = self._params(d, seed=3)
        mask = decay_mask(tau, 1.27)
        rng = np.random.default_rng(4)
        for _ in range(100):
            z = rng.normal(size=(tau, d))
            j = int(rng.integers(1, tau))
            z_perturbed = z.copy()
            z_perturbed[j:] += rng.normal(size=(tau - j, d))
            out = parallel_retention(Tensor(z), q, k, v, mask, 2).values
            out_p = parallel_retention(Tensor(z_perturbed), q, k, v, mask, 2).values
            assert np.array_equal(out[:j], out_p[:j])

    def test_batched_matches_per_stock(self):
        d, tau, n = 4, 5, 3
        q, k, v = self._params(d, seed=5)
        mask = decay_mask(tau, 1.27)
        z = np.random.default_rng(6).normal(size=(n, tau, d))
        batched = parallel_retention(Tensor(z.reshape(n * tau, d)), q, k, v, mask, 2).values
        batched = batched.reshape(n, tau, d)
        for i in range(n):
            single = parallel_retention(Tensor(z[i]), q, k, v, mask, 2).values
            np.testing.assert_allclose(batched[i], single, atol=1e-12)

    @pytest.mark.parametrize("shape", [(2, 5, 4), (11, 4)], ids=["3-D", "stray-row"])
    def test_input_that_is_not_stacked_windows_rejected(self, shape):
        # one contract: (stocks·lookback, d), here with a 5-day lookback
        q, k, v = self._params(4)
        with pytest.raises(ShapeError, match="parallel_retention"):
            parallel_retention(Tensor(np.zeros(shape)), q, k, v, decay_mask(5, 1.27), 2)


class TestLayerUpdate:
    def _kwargs(self, d, zero=False, seed=0):
        rng = np.random.default_rng(seed)
        mk = (lambda *s: np.zeros(s)) if zero else (lambda *s: rng.normal(size=s))
        return dict(
            query_map=Tensor(mk(d, d)),
            key_map=Tensor(mk(d, d)),
            value_map=Tensor(mk(d, d)),
            mask=decay_mask(4, 1.27),
            num_groups=2,
            w1=Tensor(mk(d, d)),
            b1=Tensor(mk(d) if not zero else np.zeros(d)),
            w2=Tensor(mk(2 * d, d)),
            b2=Tensor(rng.normal(size=d)),
        )

    def test_output_shape(self):
        d = 4
        rng = np.random.default_rng(7)
        diffused = Tensor(rng.normal(size=(3 * 4, d)))
        carried = Tensor(rng.normal(size=(3 * 4, d)))
        out = layer_update(diffused, carried, **self._kwargs(d))
        assert out.shape == (3 * 4, d)

    def test_zero_weights_give_activated_bias(self):
        d = 4
        kwargs = self._kwargs(d, zero=True, seed=8)
        rng = np.random.default_rng(9)
        diffused = Tensor(rng.normal(size=(2 * 4, d)))
        carried = Tensor(rng.normal(size=(2 * 4, d)))
        out = layer_update(diffused, carried, **kwargs)
        b2 = kwargs["b2"].values
        expected = np.where(b2 >= 0, b2, 0.01 * b2)
        np.testing.assert_allclose(out.values, np.broadcast_to(expected, (2 * 4, d)), atol=1e-15)

    def test_gradient_reaches_both_branches(self):
        d, n, tau = 4, 2, 4
        kwargs = self._kwargs(d, seed=10)
        rng = np.random.default_rng(11)
        arrays = {"diffused": rng.normal(size=(n * tau, d)), "carried": rng.normal(size=(n * tau, d))}
        probe = rng.normal(size=(n * tau, d))

        def fn(arrs):
            out = layer_update(Tensor(arrs["diffused"]), Tensor(arrs["carried"]), **kwargs)
            return float((out.values * probe).sum())

        leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = layer_update(leaves["diffused"], leaves["carried"], **kwargs)
        T.backward(T.sum_all(T.hadamard(out, Tensor(probe))))
        numeric = numeric_grad(fn, arrays)
        for k in arrays:
            assert np.abs(leaves[k].grad).max() > 0
            assert max_rel_err(leaves[k].grad, numeric[k]) < 1e-4


class TestInitState:
    def test_shape(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        features, _ = random_instance(cfg)
        assert init_state(features, params["embed.W"], params["embed.b"]).shape == (3 * 4, 4)

    def test_zero_features_zero_bias_give_zero_state(self):
        cfg = small_config()
        params = init_params(cfg, seed=0)
        features = np.zeros((cfg.num_relations, cfg.num_stocks, cfg.lookback))
        out = init_state(features, params["embed.W"], params["embed.b"])
        np.testing.assert_array_equal(out.values, np.zeros(out.shape))

    def test_embedding_gradient(self):
        rng = np.random.default_rng(12)
        features = rng.normal(size=(2, 3, 4))
        arrays = {"w": rng.normal(size=(2, 5)), "b": rng.normal(size=(5,))}
        probe = rng.normal(size=(3 * 4, 5))

        def fn(arrs):
            out = init_state(features, Tensor(arrs["w"]), Tensor(arrs["b"]))
            return float((out.values * probe).sum())

        leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        T.backward(T.sum_all(T.hadamard(init_state(features, leaves["w"], leaves["b"]), Tensor(probe))))
        numeric = numeric_grad(fn, arrays)
        for k in arrays:
            assert max_rel_err(leaves[k].grad, numeric[k]) < 1e-4


class TestReadout:
    def _params(self, d, h, seed=13):
        rng = np.random.default_rng(seed)
        return (
            Tensor(rng.normal(size=(d, h))),
            Tensor(rng.normal(size=(h,))),
            Tensor(rng.normal(size=(h, 2))),
            Tensor(rng.normal(size=(2,))),
        )

    def test_shape(self):
        w1, b1, w2, b2 = self._params(4, 4)
        state = Tensor(np.random.default_rng(14).normal(size=(5, 3, 4)))
        assert readout(state, w1, b1, w2, b2).shape == (5, 2)

    def test_permuting_stocks_permutes_logits(self):
        w1, b1, w2, b2 = self._params(4, 4)
        state = np.random.default_rng(15).normal(size=(4, 3, 4))
        perm = np.array([2, 0, 3, 1])
        base = readout(Tensor(state), w1, b1, w2, b2).values
        permuted = readout(Tensor(state[perm]), w1, b1, w2, b2).values
        np.testing.assert_array_equal(permuted, base[perm])

    def test_constant_state_identical_logits(self):
        w1, b1, w2, b2 = self._params(4, 4)
        state = Tensor(np.full((6, 3, 4), 0.7))
        out = readout(state, w1, b1, w2, b2).values
        assert np.array_equal(out, np.broadcast_to(out[0], out.shape))


class TestForward:
    def test_logits_finite_across_seeds(self):
        cfg = small_config()
        for seed in range(100):
            params = init_params(cfg, seed=seed)
            features, adjacency = random_instance(cfg, seed=seed)
            logits = forward(params, cfg, features, adjacency)
            assert logits.shape == (cfg.num_stocks, 2)
            assert np.all(np.isfinite(logits.values))

    def test_zero_layers_degenerates_to_readout_of_embedding(self):
        cfg = small_config(num_layers=0)
        params = init_params(cfg, seed=1)
        features, adjacency = random_instance(cfg, seed=1)
        logits = forward(params, cfg, features, adjacency)
        state = init_state(features, params["embed.W"], params["embed.b"])
        expected = readout(
            T.reshape(state, (cfg.num_stocks, cfg.lookback, cfg.embed_dim)),
            params["readout.W1"],
            params["readout.b1"],
            params["readout.W2"],
            params["readout.b2"],
        )
        assert np.array_equal(logits.values, expected.values)

    def test_identical_stocks_get_identical_logits(self):
        cfg = small_config(num_stocks=4)
        params = init_params(cfg, seed=2)
        rng = np.random.default_rng(16)
        windows = rng.uniform(0.5, 5.0, size=(cfg.num_relations, 4, cfg.lookback))
        windows[:, 1] = windows[:, 0]  # stocks 0 and 1 are clones
        features = (windows - windows.mean(-1, keepdims=True)) / windows.std(-1, keepdims=True)
        logits = forward(params, cfg, features, window_graphs(0, windows))
        np.testing.assert_allclose(logits.values[0], logits.values[1], atol=1e-12)

    def test_permutation_equivariance(self):
        cfg = small_config(num_stocks=5)
        params = init_params(cfg, seed=3)  # transitions stay uniform: stock-symmetric
        features, adjacency = random_instance(cfg, seed=4)
        rng = np.random.default_rng(17)
        base = forward(params, cfg, features, adjacency).values
        for _ in range(5):
            perm = rng.permutation(cfg.num_stocks)
            permuted_adj = MultiRelAdjacency(0, adjacency.sender_weights[:, perm])
            permuted = forward(params, cfg, features[:, perm], permuted_adj).values
            np.testing.assert_allclose(permuted, base[perm], atol=1e-9)

    def test_forward_deterministic(self):
        cfg = small_config()
        params = init_params(cfg, seed=5)
        features, adjacency = random_instance(cfg, seed=6)
        a = forward(params, cfg, features, adjacency).values
        b = forward(params, cfg, features, adjacency).values
        assert np.array_equal(a, b)

    def test_shape_validation(self):
        cfg = small_config()
        params = init_params(cfg, seed=7)
        features, adjacency = random_instance(cfg, seed=8)
        with pytest.raises(ShapeError):
            forward(params, cfg, features[:, :, :-1], adjacency)
        fewer_stocks = MultiRelAdjacency(0, adjacency.sender_weights[:, :-1])
        with pytest.raises(ShapeError):
            forward(params, cfg, features, fewer_stocks)

    def test_graph_is_read_without_n_by_n_matrices(self):
        class WeightsOnly(MultiRelAdjacency):
            @property
            def matrices(self):
                raise AssertionError("the model expanded a day's N x N adjacency")

        model, features, adjacency = desk_instance()
        weights_only = WeightsOnly(adjacency.t_index, adjacency.sender_weights)
        logits = forward(model.params, model.config, features, weights_only).values
        assert np.array_equal(logits, forward(model.params, model.config, features, adjacency).values)
        frozen = forward(model.frozen(), model.config, features, weights_only).values
        assert np.array_equal(frozen, logits)


class TestStateLayout:
    """The state stays one (N·lookback, d) matrix from the embedding to the
    readout: over prebuilt mixes, a recording forward records 4 nodes per
    layer (the masked mix, then one per stage: diffusion, retention with its
    group norm, and the update), none of them a reshape, and one reshape for
    the readout's (N, lookback, d) view."""

    @pytest.mark.parametrize("layers", [0, 1, 3])
    def test_recorded_reshapes(self, monkeypatch, layers):
        cfg = small_config(num_layers=layers)
        params = init_params(cfg, seed=20)
        features, adjacency = random_instance(cfg, seed=21)
        mixes = diffusion_mixes(params, mixture_tensors(params, cfg))
        recorded = []
        real = T.node

        def spy(values, parents, backward_fn, op, check=True):
            out = real(values, parents, backward_fn, op, check)
            if out.requires_grad:
                recorded.append(op)
            return out

        monkeypatch.setattr(T, "node", spy)
        logits = forward(params, cfg, features, adjacency, mixes=mixes)
        assert logits.requires_grad
        layer = ["hadamard", "diffuse_layer", "retain", "merge_carry"]
        readout = ["reshape", "mean_axis", "linear", "activation", "linear"]
        assert recorded == ["linear"] + layer * layers + readout


def desk_instance(seed=5):
    """The desk shape: 12 stocks, width 32, 2 layers, 2 expansion steps."""
    cfg = ModelConfig(num_stocks=12, lookback=21, num_layers=2, expansion_steps=2, embed_dim=32)
    features, adjacency = random_instance(cfg, seed=seed)
    return Model.initialized(cfg, seed=seed), features, adjacency


def tape_records(out):
    """Every record reachable from ``out``'s."""
    records, seen, stack = [], set(), [out._record]
    while stack:
        rec = stack.pop()
        if rec is None or id(rec) in seen:
            continue
        seen.add(id(rec))
        records.append(rec)
        stack.extend(rec.parents)
    return records


def closure_objects(fn):
    """Every object that ``fn`` reaches through closure cells, nested
    functions and tuples or lists."""
    found, stack = [], [fn]
    while stack:
        obj = stack.pop()
        found.append(obj)
        if getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
        elif isinstance(obj, (tuple, list)):
            stack.extend(obj)
    return found


def traced_peak(fn):
    """Peak bytes that numpy and Python allocate while ``fn`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    """Byte counts from tracemalloc, no timing: the tape is released while
    backward unwinds, and a forward over frozen parameters records none."""

    def test_backward_peak_stays_near_the_forward_tape(self):
        model, features, adjacency = desk_instance()
        tracemalloc.start()
        try:
            loss = T.sum_all(forward(model.params, model.config, features, adjacency))
            retained = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            T.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * retained, f"backward peak {peak} B vs {retained} B retained after forward"

    def test_frozen_forward_records_no_tape(self):
        model, features, adjacency = desk_instance()
        frozen = forward(model.frozen(), model.config, features, adjacency)
        assert frozen._record is None and not frozen.requires_grad
        recorded = forward(model.params, model.config, features, adjacency)
        assert recorded.requires_grad
        assert np.array_equal(frozen.values, recorded.values)

    def test_no_rule_holds_a_tensor(self):
        model, features, adjacency = desk_instance()
        records = tape_records(forward(model.params, model.config, features, adjacency))
        rules = [rec.rule for rec in records if rec.rule is not None]
        # The embedding; per layer, 6 records that build the transition mix
        # and 4 that use it; the readout's 5.
        assert len(rules) == 1 + 2 * (6 + 4) + 5
        for rec in records:
            assert all(p is None or isinstance(p, T._Record) for p in rec.parents)
        for rule in rules:
            held = closure_objects(rule)
            assert not any(isinstance(obj, Tensor) for obj in held), rule.__qualname__

    # (stage, its products per call, which product): products that the
    # stage's rule does not read, so forward frees them.
    UNREAD_PRODUCTS = [
        ("diffuse_layer", 3, 1),  # the mapped stack
        ("diffuse_layer", 3, 2),  # the relation mix, the pre-activation sum
        ("retain", 5, 1),  # k, before its transposed copy
        ("retain", 5, 4),  # the product before group norm
        ("merge_carry", 2, 1),  # the pre-activation product
    ]
    # Products that the rules read: the propagated stack, q, v, the masked
    # scores and the carry, which takes its bias in place.
    READ_PRODUCTS = [
        ("diffuse_layer", 3, 0),
        ("retain", 5, 0),
        ("retain", 5, 2),
        ("retain", 5, 3),
        ("merge_carry", 2, 0),
    ]

    def test_outputs_no_rule_reads_are_freed_by_forward_and_gradients_keep_their_bits(self, monkeypatch):
        model, features, adjacency = desk_instance()
        outputs: dict[str, list] = {}
        kept = []
        stages = {"diffuse_layer", "retain", "merge_carry"}

        def tracing(real):
            # A stage makes its products through ``T.product`` or, in its
            # blocks, ``T.serial_product``; a product written into a
            # stage's array is that array.
            def traced(x, y, **out):
                result = real(x, y, **out)
                frame = sys._getframe(1)
                if frame.f_code.co_name == "product":
                    return result  # recorded by the spy on ``T.product``
                while frame is not None and frame.f_code.co_name not in stages:
                    frame = frame.f_back
                if frame is not None:
                    owner = result if result.base is None else result.base
                    outputs.setdefault(frame.f_code.co_name, []).append(weakref.ref(owner))
                if keep:
                    kept.append(result)
                return result

            return traced

        def gradients():
            leaves = {k: Tensor(p.values, requires_grad=True) for k, p in model.params.items()}
            logits = forward(leaves, model.config, features, adjacency)
            live = {key: [ref() is not None for ref in refs] for key, refs in outputs.items()}
            T.backward(T.sum_all(logits))
            return live, [leaves[k].grad.tobytes() for k in leaves]

        monkeypatch.setattr(T, "product", tracing(T.product))
        monkeypatch.setattr(T, "serial_product", tracing(T.serial_product))
        keep = False
        live, grads = gradients()
        layers = model.config.num_layers
        for key in self.UNREAD_PRODUCTS + self.READ_PRODUCTS:
            stage, per_call, which = key
            assert len(live[stage]) == per_call * layers
            assert live[stage][which::per_call] == [key in self.READ_PRODUCTS] * layers, key
        outputs.clear()
        keep = True
        assert gradients()[1] == grads

    def test_leaf_gradients_share_no_memory_and_keep_their_bits(self, monkeypatch):
        """A leaf adopts the gradient its rule made for it alone, so no two
        leaf gradients share memory and none shares memory with a forward
        value or with a gradient that an interior record was handed; the
        bits are those of copying every leaf's first gradient."""
        model, features, adjacency = desk_instance()
        interior, values = [], []
        real_node = T.node

        def spy(out_values, parents, rule, op, check=True):
            def listed(g):
                grads = list(rule(g))
                interior.append(g)
                interior.extend(pg for p, pg in zip(parents, grads) if p is not None and p.rule is not None)
                return grads

            out = real_node(out_values, parents, listed if rule is not None else None, op, check)
            values.append(out.values)
            return out

        def gradients():
            leaves = {k: Tensor(p.values, requires_grad=True) for k, p in model.params.items()}
            T.backward(T.sum_all(forward(leaves, model.config, features, adjacency)))
            return {k: leaf.grad for k, leaf in leaves.items()}

        adopted = gradients()
        monkeypatch.setattr(T, "node", spy)
        spied = gradients()
        monkeypatch.undo()
        monkeypatch.setattr(T, "_fresh", lambda pg, g, handed: False)
        copied = gradients()
        assert {k: g.tobytes() for k, g in adopted.items()} == {k: g.tobytes() for k, g in copied.items()}
        assert {k: g.tobytes() for k, g in spied.items()} == {k: g.tobytes() for k, g in copied.items()}
        grads = list(spied.items())
        for i, (name, g) in enumerate(grads):
            assert g.flags.owndata and g.flags.writeable, name
            assert not any(np.shares_memory(g, other) for _, other in grads[i + 1:]), name
            assert not any(np.shares_memory(g, buf) for buf in interior + values), name

    def test_frozen_forward_peak_is_below_half_a_recorded_forward(self):
        model, features, adjacency = desk_instance()
        recorded = traced_peak(lambda: forward(model.params, model.config, features, adjacency))
        frozen = traced_peak(lambda: forward(model.frozen(), model.config, features, adjacency))
        assert frozen <= 0.5 * recorded, f"frozen forward peak {frozen} B vs recorded forward {recorded} B"


def noised_params(cfg, seed):
    """A generic parameter point: at the symmetric init, several true
    gradients are exactly zero and relative comparison is meaningless."""
    rng = np.random.default_rng(seed)
    params = init_params(cfg, seed=seed)
    return {
        k: Tensor(p.values + rng.normal(scale=0.1, size=p.shape), requires_grad=True)
        for k, p in params.items()
    }


class TestFullModelGradient:
    def test_all_parameters_match_finite_differences(self):
        cfg = small_config()
        params = noised_params(cfg, seed=9)
        features, adjacency = random_instance(cfg, seed=10)
        probe = np.random.default_rng(18).normal(size=(cfg.num_stocks, 2))

        def loss_from(values: dict[str, np.ndarray]) -> float:
            p = {k: Tensor(v) for k, v in values.items()}
            out = forward(p, cfg, features, adjacency)
            return float((out.values * probe).sum())

        logits = forward(params, cfg, features, adjacency)
        T.backward(T.sum_all(T.hadamard(logits, Tensor(probe))))
        arrays = {k: np.array(v.values) for k, v in params.items()}
        numeric = numeric_grad(loss_from, arrays)
        for name, p in params.items():
            grad = p.grad if p.grad is not None else np.zeros(p.shape)
            err = max_rel_err(grad, numeric[name])
            assert err < 1e-4, f"{name}: {err}"


class TestDiffuseLayerScalarOracle:
    def test_single_point_matches_hand_arithmetic(self):
        # one stock, one timestep, one channel: every op collapses to scalars
        state = Tensor(np.array([[2.0]]))
        s_matrices = Tensor(np.array([[[0.5]], [[3.0]]]))
        maps = Tensor(np.array([[[1.5]], [[-1.0]]]))
        mix_w = Tensor(np.array([[0.25, 0.75]]))
        mix_b = Tensor(0.1)
        out = diffuse_layer(state, s_matrices, maps, mix_w, mix_b)
        # relation 0: 0.5*2*1.5 = 1.5; relation 1: 3*2*-1 = -6
        # mix: 0.25*1.5 + 0.75*(-6) + 0.1 = -4.025 -> leaky: -0.04025
        np.testing.assert_allclose(out.values, [[-0.04025]], rtol=1e-12)

    def test_two_stocks_match_scalar_expansion(self):
        # two stocks, one timestep, one channel, one relation
        state = Tensor(np.array([[2.0], [-1.0]]))  # h = (2, -1)
        s = Tensor(np.array([[[0.5, 0.25], [1.0, 3.0]]]))
        w = Tensor(np.array([[[2.0]]]))
        out = diffuse_layer(state, s, w, Tensor(np.array([[1.0]])), Tensor(0.0))
        # stock 0: (0.5*2 + 0.25*-1) * 2 = 1.5 -> 1.5
        # stock 1: (1.0*2 + 3.0*-1) * 2 = -2  -> leaky -0.02
        np.testing.assert_allclose(out.values, [[1.5], [-0.02]], rtol=1e-12)

    def test_identical_relations_collapse_to_weighted_single(self):
        rng = np.random.default_rng(19)
        state = Tensor(rng.normal(size=(3 * 2, 4)))
        s = rng.uniform(0.1, 1.0, size=(3, 3))
        w = rng.normal(size=(4, 4))
        mix_b = Tensor(0.0)
        tied = diffuse_layer(
            state, Tensor(np.stack([s, s])), Tensor(np.stack([w, w])), Tensor(np.array([[0.3, 0.7]])), mix_b
        )
        single = diffuse_layer(state, Tensor(s[None]), Tensor(w[None]), Tensor(np.array([[1.0]])), mix_b)
        np.testing.assert_allclose(tied.values, single.values, rtol=1e-12)


def per_relation_diffusion(weights, transitions, senders, state, maps, mix_w, mix_b, probe, slope):
    """Value and gradients of sum(probe * diffuse_layer(...)) for diffusion
    built by transition_mix and diffusion_matrix, by a plain numpy loop over
    relations with the reverse pass written out by hand."""
    r_n, k_n, n, _ = transitions.shape
    rows, d = state.shape
    tau = rows // n
    x = state.reshape(n, tau * d)
    s_mats, propagated, mapped = [], [], []
    for r in range(r_n):
        mix = sum(weights[r, k] * transitions[r, k] for k in range(k_n))
        s_mats.append(mix * senders[r][None, :])
        propagated.append((s_mats[r] @ x).reshape(n * tau, d))
        mapped.append(propagated[r] @ maps[r])
    pre = sum(mix_w[0, r] * mapped[r] for r in range(r_n)) + mix_b
    out = np.where(pre >= 0.0, pre, slope * pre)
    g_pre = probe * np.where(pre >= 0.0, 1.0, slope)
    grads = {
        "weights": np.zeros_like(weights),
        "transitions": np.zeros_like(transitions),
        "state": np.zeros_like(x),
        "maps": np.zeros_like(maps),
        "mix_w": np.zeros_like(mix_w),
        "mix_b": np.asarray(g_pre.sum()),
    }
    for r in range(r_n):
        grads["mix_w"][0, r] = (g_pre * mapped[r]).sum()
        g_mapped = mix_w[0, r] * g_pre
        grads["maps"][r] = propagated[r].T @ g_mapped
        g_propagated = (g_mapped @ maps[r].T).reshape(n, tau * d)
        grads["state"] += s_mats[r].T @ g_propagated
        g_mix = (g_propagated @ x.T) * senders[r][None, :]
        for k in range(k_n):
            grads["weights"][r, k] = (g_mix * transitions[r, k]).sum()
            grads["transitions"][r, k] = weights[r, k] * g_mix
    grads["state"] = grads["state"].reshape(state.shape)
    return out, grads


class TestStackedDiffusionOracle:
    @pytest.mark.parametrize("r_n", [1, 3, 5])
    def test_matches_per_relation_loop(self, r_n):
        rng = np.random.default_rng(40 + r_n)
        n, tau, d, k_n = 4, 3, 5, 2
        arrays = {
            "weights": rng.uniform(0.1, 1.0, size=(r_n, k_n)),
            "transitions": rng.uniform(0.0, 1.0, size=(r_n, k_n, n, n)),
            "state": rng.normal(size=(n * tau, d)),
            "maps": rng.normal(size=(r_n, d, d)),
            "mix_w": rng.normal(size=(1, r_n)),
            "mix_b": np.asarray(rng.normal()),
        }
        senders = window_graphs(0, rng.uniform(0.5, 5.0, size=(r_n, n, 6))).sender_weights
        probe = rng.normal(size=(n * tau, d))
        leaves = {name: Tensor(v, requires_grad=True) for name, v in arrays.items()}
        diffusion = diffusion_matrix(transition_mix(leaves["weights"], leaves["transitions"]), senders)
        out = diffuse_layer(leaves["state"], diffusion, leaves["maps"], leaves["mix_w"], leaves["mix_b"])
        T.backward(T.sum_all(T.hadamard(out, Tensor(probe))))
        want, want_grads = per_relation_diffusion(
            **arrays, senders=senders, probe=probe, slope=T.ACTIVATION_SLOPE
        )
        assert np.max(np.abs(out.values - want)) <= 1e-12 * np.max(np.abs(want))
        for name, leaf in leaves.items():
            ref = want_grads[name]
            rel = np.max(np.abs(leaf.grad - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-12, f"{name}: max|delta| / max|ref| = {rel:.3e}"


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_config()
        model = Model.initialized(cfg, seed=11)
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, model)
        reloaded = load_checkpoint(path, cfg)
        assert set(reloaded.params) == set(model.params)
        for name, p in model.params.items():
            assert np.array_equal(reloaded.params[name].values, p.values)

    def test_corrupted_header_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        path.write_bytes(b"\x40\x00\x00\x00\x00\x00\x00\x00" + b"not json" * 8)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, small_config())

    def test_truncated_file_rejected(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Model.initialized(cfg, seed=12))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 64])
        with pytest.raises(CheckpointError):
            load_checkpoint(path, cfg)

    def test_config_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Model.initialized(small_config(), seed=13))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, small_config(embed_dim=8))

    def test_recorded_config_must_match(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        save_checkpoint(path, Model.initialized(small_config(lookback=21, decay=1.27), seed=15))
        assert load_checkpoint(path, small_config(lookback=21, decay=1.27))
        with pytest.raises(CheckpointError, match="decay"):
            load_checkpoint(path, small_config(lookback=21, decay=0.5))

    def test_records_the_training_seed(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "ckpt.bin"
        model = Model.initialized(cfg, seed=16)
        save_checkpoint(path, model)
        assert model.seed == 16 and load_checkpoint(path, cfg).seed == 16
        save_checkpoint(path, Model(config=cfg, params=model.params))
        assert load_checkpoint(path, cfg).seed is None

    def test_tensor_of_another_shape_is_not_saved(self, tmp_path):
        cfg = small_config()
        model = Model.initialized(cfg, seed=17)
        model.params["readout.W2"] = Tensor(model.params["readout.W2"].values.T)
        with pytest.raises(ShapeError, match="readout.W2"):
            save_checkpoint(tmp_path / "ckpt.bin", model)
        assert not (tmp_path / "ckpt.bin").exists()

    def test_save_is_deterministic(self, tmp_path):
        cfg = small_config()
        model = Model.initialized(cfg, seed=14)
        save_checkpoint(tmp_path / "a.bin", model)
        save_checkpoint(tmp_path / "b.bin", model)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestConfigValidation:
    def test_groups_must_divide_width(self):
        with pytest.raises(ConfigError):
            small_config(embed_dim=6, num_groups=4).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed must be non-negative, got -1"):
            init_params(small_config(), seed=-1)

    def test_param_shapes_deterministic_order(self):
        cfg = small_config(num_layers=2)
        assert list(expected_param_shapes(cfg)) == list(expected_param_shapes(cfg))
