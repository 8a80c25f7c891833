"""Dense float64 tensors with reverse-mode differentiation.

A small autograd core in the micrograd style, but array-valued: each
operation on a tensor that requires gradients stores its parent tensors and
a backward rule on the output, and ``backward(loss)`` replays that implicit
record in reverse topological order. A rule computes only the gradients its
parents need: for a parent that does not require gradients (a constant
operand of a product, say) it returns None instead of an array, and
``backward`` skips that parent. The record is released while the
reverse pass unwinds: once a node's rule has run, the node drops its
parents, its rule and its gradient, so activations and interior gradients
are freed layer by layer and only leaves keep a ``grad``. Operations whose
inputs need no gradient record nothing, so evaluation over :func:`constant`
inputs runs without a tape. Just enough surface to express graph diffusion,
parallel retention, and a cross-entropy training objective:

- arithmetic: add / sub / hadamard / scale, matmul (2-D or batched 3-D),
  bias addition over the last axis, and ``linear`` (a 2-D matmul plus a
  bias in one op);
- shape plumbing: reshape, transpose of the trailing two axes,
  concatenation of any number of tensors in one copy, axis mean, full sum;
- nonlinearities: leaky rectifier, softmax / log-softmax along an axis,
  affine-free group normalization.

Broadcasting is deliberately restricted to scalar-with-tensor; any other
shape mismatch raises. All values are float64 and every value is checked
finite once, where it is made: by :class:`Tensor`, :func:`constant` and
every operation that computes new values, so overflow surfaces as an error
instead of an Inf that poisons a training run 200 steps later. Reshape,
transpose and concat only view or copy values of tensors that were checked
when they were made, so they skip the check, as does :func:`constant` over
a tensor. Tensors are immutable after creation (the underlying numpy buffer
is marked read-only).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

Array = np.ndarray

__all__ = [
    "Tensor",
    "constant",
    "add",
    "sub",
    "hadamard",
    "scale",
    "matmul",
    "add_bias",
    "linear",
    "concat",
    "reshape",
    "transpose",
    "mean_axis",
    "sum_all",
    "softmax",
    "log_softmax",
    "activation",
    "group_normalize",
    "backward",
]


def _check_finite(arr: Array, op: str) -> None:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced a non-finite value")


class Tensor:
    """Immutable float64 array plus the bookkeeping for reverse-mode AD.

    A leaf's ``grad`` accumulates across successive ``backward`` calls (the
    natural fit for full-batch gradient accumulation); callers reset it by
    assigning ``None``. Interior tensors drop theirs during ``backward``.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad: bool = False):
        arr = np.array(values, dtype=np.float64)  # owning copy
        _check_finite(arr, "tensor construction")
        arr.setflags(write=False)
        self.values: Array = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


def _node(values: Array, parents: tuple[Tensor, ...], backward_fn, op: str, check: bool = True) -> Tensor:
    """Wrap an op result; drop the record when no parent needs gradients.

    ``check=False`` is for ops whose values only rearrange their parents'.
    """
    if check:
        _check_finite(values, op)
    out = Tensor.__new__(Tensor)
    values.setflags(write=False)
    out.values = values
    out.grad = None
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = parents
            out._backward = backward_fn
            return out
    out.requires_grad = False
    out._parents = ()
    out._backward = None
    return out


def constant(values) -> Tensor:
    """Read-only, non-recording tensor over ``values``.

    A float64 array is wrapped as a view, not copied; the caller's array
    keeps its own write flag. A :class:`Tensor`'s values are wrapped the
    same way but not checked again: they were checked when it was made.
    Operations whose inputs are all constants record no backward rule.
    """
    if isinstance(values, Tensor):
        return _node(values.values.view(), (), None, "constant", check=False)
    return _node(np.asarray(values, dtype=np.float64).view(), (), None, "constant")


def _to_shape(g: Array, shape: tuple[int, ...]) -> Array:
    # Undo scalar broadcasting; anything else was rejected up front.
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ (only scalar broadcasting is supported)")


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("add", a, b)
    out = np.add(a.values, b.values)

    def bw(g: Array):
        return (
            _to_shape(g, a.shape) if a.requires_grad else None,
            _to_shape(g, b.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("sub", a, b)
    out = np.subtract(a.values, b.values)

    def bw(g: Array):
        return (
            _to_shape(g, a.shape) if a.requires_grad else None,
            _to_shape(-g, b.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), bw, "sub")


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Pointwise product (scalar operands broadcast)."""
    _binary_shapes("hadamard", a, b)
    with np.errstate(all="ignore"):
        out = np.multiply(a.values, b.values)

    def bw(g: Array):
        return (
            _to_shape(g * b.values, a.shape) if a.requires_grad else None,
            _to_shape(g * a.values, b.shape) if b.requires_grad else None,
        )

    return _node(out, (a, b), bw, "hadamard")


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python scalar constant."""
    c = float(c)
    out = a.values * c

    def bw(g: Array):
        return (g * c,)

    return _node(out, (a,), bw, "scale")


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, plain (m,k)@(k,n) or stacked (B,m,k)@(B,k,n)."""
    ok = (
        a.ndim == b.ndim
        and a.ndim in (2, 3)
        and a.shape[-1] == b.shape[-2]
        and (a.ndim == 2 or a.shape[0] == b.shape[0])
    )
    if not ok:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} are incompatible")
    with np.errstate(all="ignore"):
        out = _product(a.values, b.values)

    def bw(g: Array):
        return _product_grads(g, a, b)

    return _node(out, (a, b), bw, "matmul")


def _product_grads(g: Array, a: Tensor, b: Tensor) -> tuple[Array | None, Array | None]:
    """The gradients of ``a @ b`` that its parents need, given the output's ``g``.

    The transposed operands stay strided views: a contiguous copy is
    faster, but the product then takes another summation path and the
    trained bits change.
    """
    return (
        _product(g, b.values.swapaxes(-1, -2)) if a.requires_grad else None,
        _product(a.values.swapaxes(-1, -2), g) if b.requires_grad else None,
    )


def _product(x: Array, y: Array) -> Array:
    """``np.matmul(x, y)``, bit for bit.

    A contraction of length 1 is an outer product: each entry is one
    product, formed here by ``np.multiply`` instead of a GEMM call that
    takes several times as long. Adding 0.0 turns a -0.0 product into the
    +0.0 that a GEMM's zero-started sum gives.
    """
    if x.shape[-1] != 1:
        return np.matmul(x, y)
    out = np.multiply(x, y)
    out += 0.0
    return out


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d bias vector to every row of an (m, d) matrix."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape} are incompatible")
    out = x.values + b.values

    def bw(g: Array):
        return g if x.requires_grad else None, g.sum(axis=0) if b.requires_grad else None

    return _node(out, (x, b), bw, "add_bias")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add_bias(matmul(x, w), b)`` as one op: an (m, k) @ (k, d) product
    plus a length-d bias on every row, with the same numpy expressions."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1 or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} are incompatible")
    with np.errstate(all="ignore"):
        out = _product(x.values, w.values) + b.values

    def bw(g: Array):
        return (*_product_grads(g, x, w), g.sum(axis=0) if b.requires_grad else None)

    return _node(out, (x, w, b), bw, "linear")


# ---------------------------------------------------------------------------
# shape plumbing


def concat(parts: list[Tensor], axis: int) -> Tensor:
    """Join tensors along ``axis`` in one copy; every other axis must agree."""
    first = parts[0]
    axis = _valid_axis("concat", axis, first.ndim)
    for p in parts[1:]:
        if p.ndim != first.ndim or any(
            p.shape[i] != first.shape[i] for i in range(first.ndim) if i != axis
        ):
            raise ShapeError(f"concat: shapes {first.shape} and {p.shape} differ off axis {axis}")
    out = np.concatenate([p.values for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts[:-1]])

    def bw(g: Array):
        return np.split(g, splits, axis=axis)

    return _node(out, tuple(parts), bw, "concat", check=False)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = a.values.reshape(shape)
    old = a.shape

    def bw(g: Array):
        return (g.reshape(old),)

    return _node(out, (a,), bw, "reshape", check=False)


def transpose(a: Tensor) -> Tensor:
    """Swap the trailing two axes (matrix transpose, batched if 3-D)."""
    if a.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected 2-D or 3-D, got {a.shape}")
    out = np.ascontiguousarray(a.values.swapaxes(-1, -2))

    def bw(g: Array):
        return (g.swapaxes(-1, -2),)

    return _node(out, (a,), bw, "transpose", check=False)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    axis = _valid_axis("mean_axis", axis, a.ndim)
    out = a.values.mean(axis=axis)
    n = a.shape[axis]

    def bw(g: Array):
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape) / n,)

    return _node(out, (a,), bw, "mean_axis")


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.values.sum(), dtype=np.float64)

    def bw(g: Array):
        return (np.broadcast_to(g, a.shape),)

    return _node(out, (a,), bw, "sum_all")


# ---------------------------------------------------------------------------
# nonlinearities


def _valid_axis(op: str, axis: int, ndim: int) -> int:
    if not -ndim <= axis < ndim:
        raise UsageError(f"{op}: axis {axis} invalid for a {ndim}-dimensional tensor")
    return axis % ndim


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Max-shifted softmax; slices along ``axis`` sum to one."""
    axis = _valid_axis("softmax", axis, a.ndim)
    with np.errstate(all="ignore"):
        shifted = a.values - a.values.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        p = e / e.sum(axis=axis, keepdims=True)

    def bw(g: Array):
        return (p * (g - (g * p).sum(axis=axis, keepdims=True)),)

    return _node(p, (a,), bw, "softmax")


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _valid_axis("log_softmax", axis, a.ndim)
    with np.errstate(all="ignore"):
        shifted = a.values - a.values.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - lse
        p = np.exp(out)

    def bw(g: Array):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return _node(out, (a,), bw, "log_softmax")


ACTIVATION_SLOPE = 0.01
GROUP_NORM_EPS = 1e-5


def activation(a: Tensor) -> Tensor:
    """Leaky rectifier: identity for x >= 0, ``ACTIVATION_SLOPE * x`` below."""
    out = np.where(a.values >= 0.0, a.values, ACTIVATION_SLOPE * a.values)

    def bw(g: Array):
        return (g * np.where(a.values >= 0.0, 1.0, ACTIVATION_SLOPE),)

    return _node(out, (a,), bw, "activation")


def group_normalize(z: Tensor, num_groups: int) -> Tensor:
    """Normalize each row's channel groups to zero mean, unit variance.

    No learnable affine: the output is exactly
    ``(x - mean) / sqrt(var + GROUP_NORM_EPS)``
    within each of the ``num_groups`` contiguous channel slices of a row.
    """
    if z.ndim != 2:
        raise ShapeError(f"group_normalize: expected (rows, channels), got {z.shape}")
    rows, d = z.shape
    if num_groups < 1 or d % num_groups != 0:
        raise ConfigError(f"group_normalize: {d} channels not divisible into {num_groups} groups")
    gs = d // num_groups
    with np.errstate(all="ignore"):
        x = z.values.reshape(rows, num_groups, gs)
        mu = x.mean(axis=2, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=2, keepdims=True)
        inv = 1.0 / np.sqrt(var + GROUP_NORM_EPS)
        xhat = xc * inv
        out = xhat.reshape(rows, d)

    def bw(g: Array):
        g3 = g.reshape(rows, num_groups, gs)
        gmean = g3.mean(axis=2, keepdims=True)
        proj = (g3 * xhat).mean(axis=2, keepdims=True)
        return ((inv * (g3 - gmean - xhat * proj)).reshape(rows, d),)

    return _node(out, (z,), bw, "group_normalize")


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    ``loss`` must be scalar. Only nodes with a rule enter the topological
    order; leaves are reached as parents. Each rule returns the gradients its
    parents need and None for a parent without ``requires_grad``, which is
    skipped. Nodes are popped off the topological order and
    released as soon as their rule has run: each drops its parents, its rule
    and its ``grad``, so the graph is freed while the pass unwinds, interior
    gradients are not kept, and a second backward through the same nodes is
    a no-op rather than a double count.

    An interior node adopts the first gradient handed to it without a copy.
    Such buffers may be shared (``add`` hands one array to both parents) or
    be views (reshape, transpose, concat), so no gradient is ever written in
    place: accumulation always makes a new array. A leaf copies its first
    gradient, so ``leaf.grad`` owns writable memory.
    """
    if loss.ndim != 0:
        raise UsageError(f"backward: loss must be scalar, got shape {loss.shape}")

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p._backward is not None and id(p) not in seen:
                stack.append((p, False))

    loss.grad = np.ones((), dtype=np.float64) if loss.grad is None else loss.grad + 1.0
    while order:
        node = order.pop()
        fn = node._backward
        if fn is None or node.grad is None:
            continue
        for parent, pg in zip(node._parents, fn(node.grad)):
            if pg is None or not parent.requires_grad:
                continue
            pg = np.asarray(pg, dtype=np.float64)
            if parent.grad is not None:
                parent.grad = parent.grad + pg
            else:
                parent.grad = pg if parent._backward is not None else pg.copy()
        node._parents = ()
        node._backward = None
        node.grad = None
