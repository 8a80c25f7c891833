import math
import warnings

import numpy as np
import pytest

from mgdpr import tensor as T
from mgdpr.errors import ConfigError, ShapeError, UsageError
from gradcheck import max_rel_err, numeric_grad


def leaf(values):
    return T.Tensor(values, requires_grad=True)


class TestMatmul:
    def test_identity(self):
        a = T.Tensor(np.eye(2))
        b = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).values, b.values)

    def test_hand_product(self):
        a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = T.Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(T.matmul(a, b).values, [[17.0], [39.0]])

    def test_inner_dim_mismatch_names_both_shapes(self):
        a = T.Tensor(np.zeros((2, 3)))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.matmul(a, a)

    def test_batched(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 2, 4))
        b = rng.normal(size=(3, 4, 5))
        out = T.matmul(T.Tensor(a), T.Tensor(b))
        np.testing.assert_allclose(out.values, a @ b, rtol=1e-15)


class TestElementwise:
    def test_hadamard(self):
        out = T.hadamard(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0, 4.0]]))
        np.testing.assert_array_equal(out.values, [[3.0, 8.0]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            T.add(T.Tensor([1.0, 2.0]), T.Tensor([[1.0, 2.0]]))

    def test_scalar_broadcast_allowed(self):
        out = T.add(T.Tensor([[1.0, 2.0]]), T.Tensor(1.0))
        np.testing.assert_array_equal(out.values, [[2.0, 3.0]])

    def test_overflow_is_an_error(self):
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError):
            T.scale(T.Tensor([1e308]), 10.0)

    @pytest.mark.parametrize(
        "op, build",
        [
            ("add", lambda big: T.add(big, big)),
            ("sub", lambda big: T.sub(big, T.Tensor(-big.values))),
            ("scale", lambda big: T.scale(big, 10.0)),
            ("sum_all", lambda _: T.sum_all(T.Tensor([[1e308, 1e308]]))),
            ("mean_axis", lambda _: T.mean_axis(T.Tensor([[1e308, 1e308]]), 1)),
            ("add_bias", lambda _: T.add_bias(T.Tensor([[1e308, 1e308]]), T.Tensor([1e308, 0.0]))),
        ],
    )
    def test_overflow_raises_the_finite_check_not_a_warning_under_W_error(self, op, build):
        # Under ``python -W error`` an overflow warning from numpy would be
        # raised in place of the FloatingPointError that training maps to
        # a divergence error.
        big = T.Tensor([1.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FloatingPointError, match=f"^{op} produced a non-finite value$"):
                build(big)

    def test_tensors_are_immutable(self):
        t = T.Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.values[0] = 5.0


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_array_equal(T.softmax(T.Tensor([0.0, 0.0]), 0).values, [0.5, 0.5])

    def test_analytic(self):
        out = T.softmax(T.Tensor([math.log(1.0), math.log(3.0)]), 0)
        np.testing.assert_allclose(out.values, [0.25, 0.75], atol=1e-15)

    def test_slices_sum_to_one_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            shape = tuple(rng.integers(1, 5, size=rng.integers(1, 4)))
            axis = int(rng.integers(0, len(shape)))
            x = rng.normal(scale=10.0, size=shape)
            p = T.softmax(T.Tensor(x), axis).values
            assert np.all(p > 0.0) and np.all(p < 1.0 + 1e-15)
            np.testing.assert_allclose(p.sum(axis=axis), 1.0, atol=1e-12)

    def test_invalid_axis(self):
        with pytest.raises(UsageError, match="axis 2"):
            T.softmax(T.Tensor([[1.0]]), 2)

    def test_overflowing_shift_warns_nothing(self):
        # max - x overflows to -inf; pytest turns numpy's RuntimeWarning into an error
        x = T.Tensor([1.7e308, -1.7e308])
        np.testing.assert_array_equal(T.softmax(x, 0).values, [1.0, 0.0])
        with pytest.raises(FloatingPointError, match="log_softmax produced a non-finite value"):
            T.log_softmax(x, 0)

    @pytest.mark.parametrize("shape", [(5, 7, 60, 60), (5, 7), (3, 4, 5)])
    def test_rule_has_the_bytes_of_the_three_temporary_expression(self, shape):
        rng = np.random.default_rng(11)
        for axis in range(len(shape)):
            out = T.softmax(leaf(rng.normal(scale=3.0, size=shape)), axis)
            g = rng.normal(size=shape)
            p = out.values
            want = p * (g - (g * p).sum(axis=axis, keepdims=True))
            assert out._record.rule(g)[0].tobytes() == want.tobytes()


class TestActivation:
    @pytest.mark.parametrize("x,y", [(2.0, 2.0), (0.0, 0.0), (-1.0, -0.01)])
    def test_pointwise(self, x, y):
        np.testing.assert_allclose(T.activation(T.Tensor([x])).values, [y], atol=0)

    def test_monotone(self):
        xs = np.linspace(-5, 5, 201)
        ys = T.activation(T.Tensor(xs)).values
        assert np.all(np.diff(ys) > 0)


class TestGroupNormalize:
    def test_constant_rows_go_to_zero(self):
        z = T.Tensor(np.full((3, 4), 7.0))
        np.testing.assert_array_equal(T.group_normalize(z, 2).values, np.zeros((3, 4)))

    def test_two_point_row(self):
        out = T.group_normalize(T.Tensor([[1.0, -1.0]]), 1).values
        expected = 1.0 / math.sqrt(1.0 + 1e-5)
        np.testing.assert_allclose(out, [[expected, -expected]], rtol=1e-12)
        assert abs(out[0, 0] - 1.0) < 1e-4

    def test_group_stats_random(self):
        rng = np.random.default_rng(3)
        z = rng.normal(size=(6, 12)) * 5 + 2
        out = T.group_normalize(T.Tensor(z), 4).values.reshape(6, 4, 3)
        np.testing.assert_allclose(out.mean(axis=2), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.var(axis=2), 1.0, atol=1e-4)

    def test_indivisible_channels(self):
        with pytest.raises(ConfigError):
            T.group_normalize(T.Tensor(np.zeros((2, 5))), 2)

    def test_overflowing_variance_raises_instead_of_zeros(self):
        # var = inf would make every normalized value 0 or -0
        z = T.Tensor([[1e200, -1e200, 3.0, 4.0]])
        with pytest.raises(FloatingPointError, match="group_normalize produced a non-finite value"):
            T.group_normalize(z, 1)


class TestConcat:
    def test_vectors(self):
        out = T.concat([T.Tensor([1.0]), T.Tensor([2.0]), T.Tensor([3.0])], 0)
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_extents_add(self):
        out = T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.ones((2, 5))), T.Tensor(np.ones((2, 1)))], 1)
        assert out.shape == (2, 9)

    def test_empty_list_rejected(self):
        with pytest.raises(UsageError, match="concat: no tensors"):
            T.concat([], 0)

    def test_axis_mismatch(self):
        with pytest.raises(ShapeError):
            T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 3)))], 1)


class TestBackward:
    def test_square_gradient(self):
        x = leaf([3.0])
        loss = T.sum_all(T.hadamard(x, x))
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0], rtol=1e-15)

    def test_matmul_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}

        def fn(arrs):
            return float((arrs["a"] @ arrs["b"]).sum())

        a, b = leaf(arrays["a"]), leaf(arrays["b"])
        T.backward(T.sum_all(T.matmul(a, b)))
        numeric = numeric_grad(fn, arrays)
        assert max_rel_err(a.grad, numeric["a"]) < 1e-6
        assert max_rel_err(b.grad, numeric["b"]) < 1e-6

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(UsageError):
            T.backward(leaf([1.0, 2.0]))

    def test_grad_accumulates_across_calls(self):
        x = leaf([2.0])
        T.backward(T.sum_all(T.hadamard(x, x)))
        T.backward(T.sum_all(T.hadamard(x, x)))
        np.testing.assert_allclose(x.grad, [8.0], rtol=1e-15)

    def test_record_cleared_after_backward(self):
        x = leaf([2.0])
        y = T.hadamard(x, x)
        loss = T.sum_all(y)
        record = y._record
        T.backward(loss)
        assert record.parents == () and record.rule is None and record.grad is None
        assert y._record is record and y.grad is None

    def test_grad_on_a_constant_stays_off_the_tape(self):
        c = T.Tensor([1.0, 2.0])
        with pytest.raises(UsageError, match="does not require gradients"):
            c.grad = np.ones(2)
        c.grad = None
        assert c.grad is None and not c.requires_grad and c._record is None
        assert T.hadamard(c, c)._record is None
        x = leaf([3.0, 4.0])
        T.backward(T.sum_all(T.hadamard(x, c)))
        assert c.grad is None
        np.testing.assert_array_equal(x.grad, [1.0, 2.0])
        x.grad = None
        assert x.grad is None and x.requires_grad
        loss = T.sum_all(c)
        T.backward(loss)
        assert loss.grad is None and loss._record is None

    def test_concat_splits_gradient(self):
        a, b, c = leaf([1.0, 2.0]), leaf([3.0]), leaf([4.0, 5.0, 6.0])
        out = T.concat([a, b, c], 0)
        T.backward(T.sum_all(T.hadamard(out, T.Tensor([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))))
        np.testing.assert_array_equal(a.grad, [1.0, 2.0])
        np.testing.assert_array_equal(b.grad, [3.0])
        np.testing.assert_array_equal(c.grad, [4.0, 5.0, 6.0])

    def test_leaf_grads_own_writable_memory_and_interior_grads_are_dropped(self):
        # x's gradient arrives as a transposed view, y's as a read-only broadcast.
        x, y = leaf([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]), leaf([1.0, 2.0])
        t = T.transpose(x)
        r = T.reshape(t, (6,))
        weighted = T.hadamard(r, T.Tensor([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        loss = T.add(T.sum_all(weighted), T.sum_all(y))
        T.backward(loss)
        np.testing.assert_array_equal(x.grad, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        for g in (x.grad, y.grad):
            assert g.flags.owndata and g.flags.writeable
        for node in (t, r, weighted, loss):
            assert node.grad is None

    def test_shared_gradient_buffer_is_never_written(self):
        # add hands one buffer to both a and b; a then accumulates a second
        # use. Writing that buffer in place would corrupt b's gradient.
        x, y = leaf([1.0, 2.0, 3.0]), leaf([4.0, 5.0, 6.0])
        c = T.Tensor([7.0, 8.0, 9.0])
        a = T.hadamard(x, y)
        b = T.scale(y, 3.0)
        loss = T.sum_all(T.add(T.add(a, b), T.hadamard(a, c)))
        T.backward(loss)
        # loss = sum(x * y * (1 + c) + 3 * y)
        np.testing.assert_array_equal(x.grad, [32.0, 45.0, 60.0])
        np.testing.assert_array_equal(y.grad, [11.0, 21.0, 33.0])

    def test_leaf_adopts_a_gradient_its_rule_made_for_it_alone(self, monkeypatch):
        made = []
        real = T.product

        def recording(x, y):
            made.append(real(x, y))
            return made[-1]

        a, b = leaf(np.arange(6.0).reshape(2, 3)), leaf(np.ones((3, 2)))
        loss = T.sum_all(T.matmul(a, b))
        monkeypatch.setattr(T, "product", recording)
        T.backward(loss)
        assert len(made) == 2 and a.grad is made[0] and b.grad is made[1]

    def test_an_array_handed_to_two_leaves_is_adopted_by_the_first_only(self):
        x, y = leaf([1.0, 2.0]), leaf([3.0, 4.0])
        buf = np.array([5.0, 6.0])
        out = T.node(x.values + y.values, (x._record, y._record), lambda g: (buf, buf), "pair")
        T.backward(T.sum_all(out))
        assert x.grad is buf and y.grad is not buf and not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(y.grad, [5.0, 6.0])

    def test_the_incoming_gradient_is_copied(self):
        # The outer add hands one buffer to both inner adds, and each hands
        # its incoming gradient on to its leaf: adopting it would give x
        # and y one buffer.
        x, y, c = leaf([1.0, 2.0]), leaf([3.0, 4.0]), T.constant([0.5, 0.5])
        s = T.add(T.add(x, c), T.add(y, c))
        T.backward(T.sum_all(T.hadamard(s, T.Tensor([2.0, 3.0]))))
        assert not np.shares_memory(x.grad, y.grad)
        for g in (x.grad, y.grad):
            np.testing.assert_array_equal(g, [2.0, 3.0])
            assert g.flags.owndata and g.flags.writeable


def _signed_zeros(rng, shape):
    """Normal draws with a quarter of the entries set to +0.0 or -0.0."""
    x = rng.normal(size=shape)
    x.ravel()[::4] = 0.0
    x.ravel()[1::8] = -0.0
    return x


class TestOnlyNeededGradients:
    """Each rule computes only the gradients its parents need."""

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((1, 5), (5, 64)), ((7, 5), (5, 1)), ((3, 1, 4), (3, 4, 50)), ((3, 6, 4), (3, 4, 1))],
        ids=["2d-one-row", "2d-one-column", "3d-one-row", "3d-one-column"],
    )
    def test_contraction_length_one_gradients_have_matmul_bytes(self, a_shape, b_shape):
        rng = np.random.default_rng(3)
        a_vals, b_vals = _signed_zeros(rng, a_shape), _signed_zeros(rng, b_shape)
        a, b = leaf(a_vals), leaf(b_vals)
        out = T.matmul(a, b)
        g = _signed_zeros(rng, out.shape)
        T.backward(T.sum_all(T.hadamard(out, T.Tensor(g))))
        assert a.grad.tobytes() == np.matmul(g, b_vals.swapaxes(-1, -2)).tobytes()
        assert b.grad.tobytes() == np.matmul(a_vals.swapaxes(-1, -2), g).tobytes()

    def test_contraction_length_one_product_has_matmul_bytes(self):
        rng = np.random.default_rng(4)
        x, y = _signed_zeros(rng, (2, 6, 1)), _signed_zeros(rng, (2, 1, 7))
        assert T.product(x, y).tobytes() == np.matmul(x, y).tobytes()

    @pytest.mark.parametrize("constant_side", ["a", "b"])
    def test_constant_matmul_operand_gets_no_gradient_and_no_product(self, monkeypatch, constant_side):
        rng = np.random.default_rng(5)
        arrays = {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))}
        tensors = {k: T.constant(v) if k == constant_side else leaf(v) for k, v in arrays.items()}
        loss = T.sum_all(T.matmul(tensors["a"], tensors["b"]))
        calls = []
        real = np.matmul

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(T.np, "matmul", counting)
        T.backward(loss)
        assert len(calls) == 1
        assert tensors[constant_side].grad is None
        learned = "b" if constant_side == "a" else "a"
        assert tensors[learned].grad.shape == arrays[learned].shape

    @pytest.mark.parametrize("op", [T.hadamard, T.matmul, T.add, T.sub, T.add_bias])
    def test_rule_returns_none_for_a_constant_parent(self, op):
        x = leaf(np.ones((2, 2)))
        c = T.constant(np.full((2,) if op is T.add_bias else (2, 2), 3.0))
        out = op(x, c)
        grads = out._record.rule(np.ones(out.shape))
        assert grads[1] is None and grads[0] is not None
        assert out._record.parents[1] is None

    def test_linear_rule_returns_none_for_constant_parents(self):
        x = T.constant(np.ones((4, 3)))
        out = T.linear(x, leaf(np.ones((3, 2))), T.constant(np.zeros(2)))
        gx, gw, gb = out._record.rule(np.ones(out.shape))
        assert gx is None and gb is None and gw.shape == (3, 2)


class TestLinear:
    def test_equals_add_bias_of_matmul_bit_for_bit(self):
        rng = np.random.default_rng(9)
        arrays = {"x": rng.normal(size=(6, 4)), "w": rng.normal(size=(4, 3)), "b": rng.normal(size=(3,))}
        weights = T.Tensor(rng.normal(size=(6, 3)))

        def run(build):
            t = {k: leaf(v) for k, v in arrays.items()}
            out = build(t)
            T.backward(T.sum_all(T.hadamard(out, weights)))
            return [out.values.tobytes()] + [t[k].grad.tobytes() for k in arrays]

        fused = run(lambda t: T.linear(t["x"], t["w"], t["b"]))
        composed = run(lambda t: T.add_bias(T.matmul(t["x"], t["w"]), t["b"]))
        assert fused == composed

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        arrays = {"x": rng.normal(size=(3, 4)), "w": rng.normal(size=(4, 2)), "b": rng.normal(size=(2,))}

        def fn(arrs):
            return float(np.cos(arrs["x"] @ arrs["w"] + arrs["b"]).sum())

        leaves = {k: leaf(v) for k, v in arrays.items()}
        out = T.linear(leaves["x"], leaves["w"], leaves["b"])
        T.backward(T.sum_all(T.hadamard(out, T.Tensor(-np.sin(out.values)))))
        # d/dz sum cos(z) = -sin(z), so the weighted loss has fn's gradient.
        numeric = numeric_grad(fn, arrays)
        for k in arrays:
            assert max_rel_err(leaves[k].grad, numeric[k]) < 1e-6, k

    def test_shape_mismatch_names_all_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 2\).*\(2,\)"):
            T.linear(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))), T.Tensor(np.zeros(2)))

    def test_overflow_raises(self):
        big = T.Tensor(np.full((2, 2), 1e200))
        with pytest.raises(FloatingPointError, match="linear produced a non-finite value"):
            T.linear(big, big, T.Tensor(np.zeros(2)))


class TestConstant:
    def test_wraps_without_copy_and_records_nothing(self):
        arr = np.arange(6.0).reshape(2, 3)
        c = T.constant(arr)
        assert np.shares_memory(c.values, arr)
        assert not c.values.flags.writeable and arr.flags.writeable
        assert not c.requires_grad and c._record is None
        out = T.matmul(c, T.constant(np.ones((3, 1))))
        assert not out.requires_grad and out._record is None

    def test_broadcast_view_is_not_materialized(self):
        base = np.array([[1.0, 0.0], [2.0, 1.0]])
        c = T.constant(np.broadcast_to(base, (4, 2, 2)))
        assert c.shape == (4, 2, 2) and np.shares_memory(c.values, base)

    def test_non_finite_rejected(self):
        with pytest.raises(FloatingPointError):
            T.constant([1.0, np.inf])


class TestFiniteCheck:
    """Values are checked finite once, where they are made."""

    def _checked_ops(self, monkeypatch, build):
        ops = []
        real = T.check_finite

        def spy(arr, op):
            ops.append(op)
            return real(arr, op)

        monkeypatch.setattr(T, "check_finite", spy)
        build()
        return ops

    def test_rearranging_ops_are_not_rechecked(self, monkeypatch):
        a, b = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))

        def build():
            joined = T.concat([a, b], 0)
            T.transpose(T.reshape(joined, (3, 4)))

        assert self._checked_ops(monkeypatch, build) == []

    def test_constant_over_a_tensor_is_not_rechecked(self, monkeypatch):
        a = leaf(np.arange(6.0).reshape(2, 3))
        made = []
        assert self._checked_ops(monkeypatch, lambda: made.append(T.constant(a))) == []
        c = made[0]
        assert np.shares_memory(c.values, a.values) and np.array_equal(c.values, a.values)
        assert not c.requires_grad and c._record is None and a.requires_grad

    def test_computing_ops_and_constructors_still_check(self, monkeypatch):
        def build():
            x = T.Tensor(np.ones((2, 2)))
            c = T.constant(np.ones((2, 2)))
            T.log_softmax(T.matmul(x, c), 1)

        assert self._checked_ops(monkeypatch, build) == ["tensor construction", "constant", "matmul", "log_softmax"]

    def test_outputs_bounded_by_checked_inputs_are_not_rechecked(self, monkeypatch):
        # |activation(x)| <= |x|, softmax lies in [0, 1] and group
        # normalization is bounded once its variance is finite: only that
        # variance is checked.
        x = leaf(np.arange(12.0).reshape(3, 4) - 5.0)

        def build():
            T.softmax(T.activation(x), 1)
            T.group_normalize(x, 2)

        assert self._checked_ops(monkeypatch, build) == ["group_normalize"]

    def test_matmul_overflow_raises(self):
        big = T.Tensor(np.full((2, 2), 1e200))
        with pytest.raises(FloatingPointError, match="matmul"):
            T.matmul(big, big)


def _op_cases():
    rng = np.random.default_rng(42)
    a23 = rng.normal(size=(2, 3))
    b23 = rng.normal(size=(2, 3))
    cases = [
        ("add", {"a": a23, "b": b23}, lambda t: T.add(t["a"], t["b"])),
        ("sub", {"a": a23, "b": b23}, lambda t: T.sub(t["a"], t["b"])),
        ("hadamard", {"a": a23, "b": b23}, lambda t: T.hadamard(t["a"], t["b"])),
        ("scale", {"a": a23}, lambda t: T.scale(t["a"], -2.5)),
        ("matmul", {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
         lambda t: T.matmul(t["a"], t["b"])),
        ("matmul3", {"a": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(2, 4, 2))},
         lambda t: T.matmul(t["a"], t["b"])),
        ("add_bias", {"a": rng.normal(size=(4, 3)), "b": rng.normal(size=(3,))},
         lambda t: T.add_bias(t["a"], t["b"])),
        ("softmax", {"a": rng.normal(size=(3, 4))}, lambda t: T.softmax(t["a"], 1)),
        ("log_softmax", {"a": rng.normal(size=(3, 4))}, lambda t: T.log_softmax(t["a"], 1)),
        ("activation", {"a": a23 + 0.05}, lambda t: T.activation(t["a"])),
        ("group_normalize", {"a": rng.normal(size=(3, 6))}, lambda t: T.group_normalize(t["a"], 2)),
        ("concat", {"a": a23, "b": b23}, lambda t: T.concat([t["a"], t["b"]], 1)),
        ("reshape", {"a": a23}, lambda t: T.reshape(t["a"], (3, 2))),
        ("transpose", {"a": a23}, lambda t: T.transpose(t["a"])),
        ("mean_axis", {"a": a23}, lambda t: T.mean_axis(t["a"], 0)),
    ]
    return cases


@pytest.mark.parametrize("name,arrays,build", _op_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_every_op_matches_finite_differences(name, arrays, build):
    # Weight the output so the loss probes every entry asymmetrically.
    probe = build({k: T.Tensor(v) for k, v in arrays.items()}).values
    weights = np.cos(np.arange(probe.size, dtype=np.float64)).reshape(probe.shape)

    def fn(arrs):
        out = build({k: T.Tensor(v) for k, v in arrs.items()})
        return float((out.values * weights).sum())

    leaves = {k: leaf(v) for k, v in arrays.items()}
    loss = T.sum_all(T.hadamard(build(leaves), T.Tensor(weights)))
    T.backward(loss)
    numeric = numeric_grad(fn, arrays)
    for k in arrays:
        assert max_rel_err(leaves[k].grad, numeric[k]) < 1e-4, f"{name}/{k}"


def test_repeat_runs_are_bit_identical():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4))

    def run():
        x, y = leaf(a), leaf(b)
        out = T.group_normalize(T.activation(T.matmul(x, y)), 2)
        loss = T.sum_all(T.softmax(out, 1))
        T.backward(loss)
        return out.values.copy(), x.grad.copy()

    out1, g1 = run()
    out2, g2 = run()
    assert np.array_equal(out1, out2)
    assert np.array_equal(g1, g2)
