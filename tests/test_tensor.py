import math

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


class TestConcat:
    def test_vectors(self):
        out = T.concat([T.Tensor([1.0]), T.Tensor([2.0]), T.Tensor([3.0])], 0)
        np.testing.assert_array_equal(out.values, [1.0, 2.0, 3.0])

    def test_extents_add(self):
        out = T.concat([T.Tensor(np.zeros((2, 3))), T.Tensor(np.ones((2, 5))), T.Tensor(np.ones((2, 1)))], 1)
        assert out.shape == (2, 9)

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
        T.backward(loss)
        assert y._parents == () and y._backward is None

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


class TestConstant:
    def test_wraps_without_copy_and_records_nothing(self):
        arr = np.arange(6.0).reshape(2, 3)
        c = T.constant(arr)
        assert np.shares_memory(c.values, arr)
        assert not c.values.flags.writeable and arr.flags.writeable
        assert not c.requires_grad and c._parents == ()
        out = T.matmul(c, T.constant(np.ones((3, 1))))
        assert not out.requires_grad and out._parents == () and out._backward is None

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
        real = T._check_finite

        def spy(arr, op):
            ops.append(op)
            return real(arr, op)

        monkeypatch.setattr(T, "_check_finite", spy)
        build()
        return ops

    def test_rearranging_ops_are_not_rechecked(self, monkeypatch):
        a, b = leaf(np.ones((2, 3))), leaf(np.ones((2, 3)))

        def build():
            joined = T.concat([a, b], 0)
            T.transpose(T.reshape(joined, (3, 4)))

        assert self._checked_ops(monkeypatch, build) == []

    def test_computing_ops_and_constructors_still_check(self, monkeypatch):
        def build():
            x = T.Tensor(np.ones((2, 2)))
            c = T.constant(np.ones((2, 2)))
            T.softmax(T.matmul(x, c), 1)

        assert self._checked_ops(monkeypatch, build) == ["tensor construction", "constant", "matmul", "softmax"]

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
