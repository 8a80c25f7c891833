"""Each layer stage of ``mgdpr.model`` is one recorded op with the bytes of
the generic composition it replaces (``tests/composition.py``)."""

import numpy as np
import pytest

import composition as C
from gradcheck import max_rel_err, numeric_grad
from mgdpr import model as M
from mgdpr import tensor as T
from mgdpr import training
from mgdpr.errors import ShapeError
from mgdpr.market import align_panel, make_windows
from mgdpr.model import Model, ModelConfig, decay_mask
from mgdpr.synthetic import planted_market
from mgdpr.tensor import Tensor
from mgdpr.training import TrainConfig, evaluate, train

STAGES = ["diffuse_layer", "retain", "merge_carry"]
# A stage record's parents by input name, where they differ from the inputs.
PARENTS = {"retain": ["z", "query_map", "z", "key_map", "z", "value_map"]}
# (stocks, lookback, width, relations)
SHAPES = {"desk": (12, 21, 32, 5), "n100-d64": (100, 21, 64, 5), "tiny": (3, 2, 4, 2)}


def stage_inputs(stage, shape, seed):
    """(named input arrays in argument order, the extra non-tensor arguments)."""
    n, tau, d, r = shape
    rng = np.random.default_rng(seed)
    rows = n * tau
    if stage == "diffuse_layer":
        diffusion = rng.uniform(0.1, 1.0, size=(r, n, n))
        return {
            "state": rng.normal(size=(rows, d)),
            "diffusion": diffusion / diffusion.sum(axis=2, keepdims=True),
            "relation_maps": rng.normal(scale=d**-0.5, size=(r, d, d)),
            "mix_w": rng.normal(size=(1, r)),
            "mix_b": np.asarray(rng.normal()),
        }, ()
    if stage == "retain":
        maps = {name: rng.normal(scale=d**-0.5, size=(d, d)) for name in ("query_map", "key_map", "value_map")}
        return {"z": rng.normal(size=(rows, d)), **maps}, (decay_mask(tau, 1.27), 2)
    return {
        "retained": rng.normal(size=(rows, d)),
        "carried": rng.normal(size=(rows, d)),
        "w1": rng.normal(scale=d**-0.5, size=(d, d)),
        "b1": rng.normal(size=d),
        "w2": rng.normal(scale=(2 * d) ** -0.5, size=(2 * d, d)),
        "b2": rng.normal(size=d),
    }, ()


def run(fn, arrays, extra, learned, probe):
    """Output bytes and the bytes of each learned input's gradient."""
    inputs = {k: Tensor(v, requires_grad=True) if k in learned else T.constant(v) for k, v in arrays.items()}
    out = fn(*inputs.values(), *extra)
    T.backward(T.sum_all(T.hadamard(out, Tensor(probe))))
    return out.values.tobytes(), {k: inputs[k].grad.tobytes() for k in learned}


class TestBits:
    @pytest.mark.parametrize("shape", ["desk", "n100-d64"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_output_and_every_gradient_have_the_compositions_bytes(self, stage, shape):
        arrays, extra = stage_inputs(stage, SHAPES[shape], seed=1)
        probe = np.random.default_rng(2).normal(size=C.STAGES[stage](*map(Tensor, arrays.values()), *extra).shape)
        staged = run(getattr(M, stage), arrays, extra, list(arrays), probe)
        assert staged == run(C.STAGES[stage], arrays, extra, list(arrays), probe)

    @pytest.mark.parametrize("shape", ["desk", "n100-d64"])
    @pytest.mark.parametrize("stage", STAGES)
    def test_frozen_output_has_the_compositions_bytes_and_records_nothing(self, stage, shape):
        arrays, extra = stage_inputs(stage, SHAPES[shape], seed=3)
        outs = [fn(*map(T.constant, arrays.values()), *extra) for fn in (getattr(M, stage), C.STAGES[stage])]
        assert outs[0]._record is None and not outs[0].requires_grad
        assert outs[0].values.tobytes() == outs[1].values.tobytes()

    @pytest.mark.parametrize(
        "stage, learned",
        [(stage, name) for stage in STAGES for name in stage_inputs(stage, SHAPES["tiny"], 0)[0]],
    )
    def test_one_learned_input_gets_the_compositions_gradient_and_the_rest_none(self, stage, learned):
        arrays, extra = stage_inputs(stage, SHAPES["tiny"], seed=4)
        probe = np.random.default_rng(5).normal(size=C.STAGES[stage](*map(Tensor, arrays.values()), *extra).shape)
        assert run(getattr(M, stage), arrays, extra, [learned], probe) == run(
            C.STAGES[stage], arrays, extra, [learned], probe
        )
        inputs = {k: Tensor(v, requires_grad=True) if k == learned else T.constant(v) for k, v in arrays.items()}
        grads = list(getattr(M, stage)(*inputs.values(), *extra)._record.rule(probe))
        assert all(isinstance(g, (np.ndarray, np.float64)) for g in grads)
        assert [np.shape(g) for g in grads] == [arrays[k].shape for k in PARENTS.get(stage, arrays)]
        T.backward(T.sum_all(T.hadamard(getattr(M, stage)(*inputs.values(), *extra), Tensor(probe))))
        assert [k for k, t in inputs.items() if t.grad is not None] == [learned]


class TestGradcheck:
    @pytest.mark.parametrize("stage", STAGES)
    def test_every_input_matches_finite_differences(self, stage):
        arrays, extra = stage_inputs(stage, SHAPES["tiny"], seed=6)
        fn = getattr(M, stage)
        weights = np.cos(np.arange(fn(*map(Tensor, arrays.values()), *extra).size, dtype=np.float64))

        def loss(arrs):
            return float((fn(*map(Tensor, arrs.values()), *extra).values.ravel() * weights).sum())

        leaves = {k: Tensor(v, requires_grad=True) for k, v in arrays.items()}
        out = fn(*leaves.values(), *extra)
        T.backward(T.sum_all(T.hadamard(out, Tensor(weights.reshape(out.shape)))))
        numeric = numeric_grad(loss, arrays)
        for k in arrays:
            assert max_rel_err(leaves[k].grad, numeric[k]) < 1e-4, k


class TestTape:
    def test_diffusion_keeps_the_propagated_stack_not_the_mapped_stack(self):
        arrays, _ = stage_inputs("diffuse_layer", SHAPES["tiny"], seed=7)
        n, tau, d, r = SHAPES["tiny"]
        out = M.diffuse_layer(*(Tensor(v, requires_grad=True) for v in arrays.values()))
        held = [c.cell_contents for c in out._record.rule.__closure__]
        stacks = [a for a in held if isinstance(a, np.ndarray) and a.shape == (r, n * tau, d)]
        assert len(stacks) == 1
        assert stacks[0].base is not None and stacks[0].base.shape == (r * n, tau * d)

    def test_update_keeps_no_joined_copy(self):
        arrays, _ = stage_inputs("merge_carry", SHAPES["tiny"], seed=8)
        n, tau, d, _ = SHAPES["tiny"]
        out = M.merge_carry(*(Tensor(v, requires_grad=True) for v in arrays.values()))
        held = [c.cell_contents for c in out._record.rule.__closure__]
        assert not any(isinstance(a, np.ndarray) and a.shape == (n * tau, 2 * d) for a in held)


# Two equal rows of two channels: the retained rows, ±7e209, are finite, but
# their variance in one group of both channels overflows.
GROUP_NORM_OVERFLOW = {
    "z": np.array([[1e50, 0.0], [1e50, 0.0]]), "query_map": np.eye(2), "key_map": np.eye(2),
    "value_map": np.array([[1e60, -1e60], [0.0, 0.0]]),
}


def overflow_cases():
    """(stage, op name, inputs, extra arguments): inputs whose first
    non-finite value arises at that op's check."""
    one = np.ones((1, 1))
    retain_maps = {"query_map": one, "key_map": one, "value_map": one}
    lower = np.tril(np.ones((2, 2)))
    return [
        ("diffuse_layer", "matmul",
         {"state": np.full((1, 1), 1e200), "diffusion": np.full((1, 1, 1), 1e200),
          "relation_maps": np.ones((1, 1, 1)), "mix_w": one, "mix_b": np.asarray(0.0)}, ()),
        ("diffuse_layer", "relation_mix",  # the mapped stack
         {"state": np.full((1, 1), 1e200), "diffusion": np.ones((1, 1, 1)),
          "relation_maps": np.full((1, 1, 1), 1e200), "mix_w": one, "mix_b": np.asarray(0.0)}, ()),
        ("diffuse_layer", "relation_mix",  # the relation mix
         {"state": np.full((1, 1), 1e300), "diffusion": np.ones((1, 1, 1)),
          "relation_maps": np.ones((1, 1, 1)), "mix_w": np.full((1, 1), 1e10), "mix_b": np.asarray(0.0)}, ()),
        ("diffuse_layer", "add",
         {"state": np.full((1, 1), 1e308), "diffusion": np.ones((1, 1, 1)),
          "relation_maps": np.ones((1, 1, 1)), "mix_w": one, "mix_b": np.asarray(1e308)}, ()),
        *[
            ("retain", "matmul", {"z": np.full((2, 1), 1e200), **retain_maps, name: np.full((1, 1), 1e200)},
             (lower, 1))
            for name in retain_maps
        ],
        ("retain", "constant", {"z": np.ones((2, 1)), **retain_maps}, (np.array([[1.0, 0.0], [np.inf, 1.0]]), 1)),
        ("retain", "matmul",  # the scores
         {"z": np.full((2, 1), 1e160), **retain_maps}, (lower, 1)),
        ("retain", "hadamard", {"z": np.full((2, 1), 1e150), **retain_maps}, (np.tril(np.full((2, 2), 1e100)), 1)),
        ("retain", "matmul",  # the retained product
         {"z": np.full((2, 1), 1e100), **retain_maps, "value_map": np.full((1, 1), 1e150)}, (lower, 1)),
        ("retain", "group_normalize", GROUP_NORM_OVERFLOW, (lower, 1)),  # the variance of both rows
        ("retain", "matmul",  # the second row's retained product, before the first row's variance
         GROUP_NORM_OVERFLOW, (np.array([[1.0, 0.0], [1e100, 1.0]]), 1)),
        ("merge_carry", "linear",  # the carry
         {"retained": one, "carried": np.full((1, 1), 1e200), "w1": np.full((1, 1), 1e200),
          "b1": np.zeros(1), "w2": np.ones((2, 1)), "b2": np.zeros(1)}, ()),
        ("merge_carry", "linear",  # the pre-activation product
         {"retained": np.full((1, 1), 1e200), "carried": one, "w1": one,
          "b1": np.zeros(1), "w2": np.full((2, 1), 1e200), "b2": np.zeros(1)}, ()),
    ]


class TestOverflow:
    @pytest.mark.parametrize("stage, op, arrays, extra", overflow_cases())
    def test_each_check_names_the_op_of_the_composition(self, stage, op, arrays, extra):
        # The composition's generic add also warns as it overflows.
        message = f"^{op} produced a non-finite value$"
        for fn in (getattr(M, stage), C.STAGES[stage]):
            with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match=message):
                fn(*(Tensor(v, requires_grad=True) for v in arrays.values()), *extra)


class TestShapes:
    def test_diffusion_names_every_shape(self):
        with pytest.raises(ShapeError, match=r"diffuse_layer: .*\(6, 4\).*\(2, 3, 3\).*\(2, 5, 4\).*\(1, 2\).*\(\)"):
            M.diffuse_layer(
                Tensor(np.zeros((6, 4))), Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((2, 5, 4))),
                Tensor(np.zeros((1, 2))), Tensor(0.0),
            )

    def test_retention_rejects_maps_of_another_width(self):
        with pytest.raises(ShapeError, match=r"retain: .*\(6, 4\).*\(4, 3\)"):
            M.retain(Tensor(np.zeros((6, 4))), Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 4))),
                     Tensor(np.zeros((4, 4))), decay_mask(3, 1.27), 2)

    def test_update_names_every_shape(self):
        with pytest.raises(ShapeError, match=r"merge_carry: .*\(6, 4\).*\(5, 4\)"):
            M.merge_carry(*(Tensor(np.zeros(s)) for s in [(6, 4), (5, 4), (4, 4), (4,), (8, 4), (4,)]))


def test_training_records_every_stage_input_and_evaluation_none(monkeypatch):
    """The traffic a stage rule sees: in training every input of every stage
    op records, so each rule forms only gradients that ``backward`` keeps;
    in evaluation, validation included, no input records and no rule runs."""
    samples = make_windows(align_panel(planted_market(num_stocks=12, num_days=60, momentum_lag=10, seed=90)), 21)
    cfg = ModelConfig(num_stocks=12, lookback=21, num_layers=2, expansion_steps=2, embed_dim=32, num_groups=4)
    calls = {stage: [] for stage in STAGES}
    phase = ["train"]
    for stage in STAGES:
        def spy(*args, _stage=stage, _op=getattr(M, stage)):
            calls[_stage].append((phase[0], {a._record is not None for a in args if isinstance(a, Tensor)}))
            return _op(*args)

        monkeypatch.setattr(M, stage, spy)

    def evaluating(*args):
        phase[0] = "evaluate"
        try:
            return evaluate(*args)
        finally:
            phase[0] = "train"

    monkeypatch.setattr(training, "evaluate", evaluating)
    model = Model.initialized(cfg, seed=90)
    train(model, samples[:30], samples[30:34], TrainConfig(epochs=2))
    evaluating(model, samples[34:])
    per_epoch = [("train", {True})] * 30 * cfg.num_layers + [("evaluate", {False})] * 4 * cfg.num_layers
    tested = [("evaluate", {False})] * len(samples[34:]) * cfg.num_layers
    for stage in STAGES:
        assert calls[stage] == per_epoch * 2 + tested, stage


def test_three_desk_epochs_train_the_compositions_bits(monkeypatch):
    """Trains through the stage ops, then through their compositions: the
    same parameters and loss trace, byte for byte, on this BLAS."""
    samples = make_windows(align_panel(planted_market(num_stocks=12, num_days=60, momentum_lag=10, seed=90)), 21)
    cfg = ModelConfig(num_stocks=12, lookback=21, num_layers=2, expansion_steps=2, embed_dim=32, num_groups=4)

    def trained():
        params, trace = train(Model.initialized(cfg, seed=90), samples[:30], samples[30:], TrainConfig(epochs=3))
        return [p.values.tobytes() for p in params.values()], [(e, loss.hex(), acc.hex()) for e, loss, acc in trace]

    staged = trained()
    C.install(monkeypatch)
    assert trained() == staged
