"""Dense float64 tensors with reverse-mode differentiation.

A small autograd core in the micrograd style, but array-valued. A tensor
that requires gradients carries a *record*: its parents' records, a backward
rule and a gradient slot. A record never holds a :class:`Tensor`: each rule
closes over only the arrays and shapes that it reads, so an op output that
no rule reads is freed as soon as the caller drops it, while the tape lives
on in the records. ``backward(loss)`` replays the records in reverse
topological order. A generic op's rule here computes only the gradients
its parents need, giving None for a parent that does not require gradients
(a constant operand of a product, say); a compound op's rule, such as a
stage of :mod:`mgdpr.model`, gives every parent an array. Either way
``backward`` skips a parent without a record. A rule may return its
gradients as a tuple or yield them one by one, in parent order, because
``backward`` zips them with the parents; a generator rule can so release
each saved array once it has read it. A
parent may be listed more than once, and its gradients then add up in list
order. The record is released while the reverse pass unwinds: once a
node's rule has run, its record drops its parents, its rule (and with it
the saved arrays) and its gradient, so activations and interior gradients
are freed layer by layer and only leaves keep a ``grad``. Tensors that do
not require gradients carry no record, and operations whose inputs carry
none record nothing, so evaluation over :func:`constant` inputs runs
without a tape.

What each rule saves:

- ``matmul`` and ``linear``: each operand, and only when the other
  operand's gradient is needed; ``hadamard`` likewise;
- ``softmax`` and ``log_softmax``: the probabilities; ``group_normalize``:
  the normalized values and the inverse deviations; ``activation``: the
  boolean mask of non-negative inputs;
- ``add``, ``sub``, ``scale``, ``add_bias``, ``reshape``, ``transpose``,
  ``concat``, ``mean_axis`` and ``sum_all``: shapes and constants only.

Just enough surface to express graph diffusion, parallel retention, and a
cross-entropy training objective:

- arithmetic: add / sub / hadamard / scale, matmul (2-D or batched 3-D),
  bias addition over the last axis and ``linear`` (a 2-D matmul plus a
  bias in one op);
- shape plumbing: reshape, transpose of the trailing two axes,
  concatenation of any number of tensors in one copy, axis mean, full sum;
- nonlinearities: leaky rectifier, softmax / log-softmax along an axis,
  affine-free group normalization.

A compound op, such as a whole stage of :mod:`mgdpr.model`, is built from
the same parts as these: :func:`node` records its output, :func:`product`
is every matrix product, :func:`check_finite` checks a value it makes,
:func:`rectify` and :func:`rectifier_pullback` are the rectifier and its
gradient, and :func:`normalize_groups` and :func:`group_norm_pullback` are
group normalization and its gradient, the arithmetic of
:func:`group_normalize` itself.

Large row-wise work uses up to two cores at the bits of one call. Work of
at least 2e7 multiply-adds is split into fixed row blocks
(:func:`row_blocks`) that :func:`run_blocks` runs, silently, on the calling
thread and one pool thread (:class:`RowBlocks`): :func:`product`'s blocks
of about 128 output rows, each one ``np.matmul`` over the whole
contraction, and a stage's blocks of whole stocks, each checking its steps
where it computes them. A layout has an even number of blocks where it can,
their sizes at most one unit apart, so two cores get equal shares. The
blocks depend on the shape alone and no sum is split (BLAS's own threads
split sums, and change the bits), so one core computes the same blocks in
turn, to the same bits. The GEMMs that bound a
reference-width day (N=100, d=256; 1.4e8 to 6.9e8 multiply-adds) and its
stages cross the threshold; no product or stage of a desk-scale day (N=12,
d=32) or of a 100-stock day at d=8 reaches it.

Broadcasting is deliberately restricted to scalar-with-tensor; any other
shape mismatch raises. All values are float64 and every value is checked
finite once, where it is made: by :class:`Tensor`, :func:`constant` and
every operation that computes new values, so overflow surfaces as an error
instead of an Inf that poisons a training run 200 steps later. Two kinds
of output skip the check, because it cannot fail on finite inputs, which
were checked when they were made:

- reshape, transpose and concat only view or copy values, and
  :func:`constant` over a tensor only views them;
- the outputs of ``activation`` (|out| <= |in|), ``softmax`` (each value
  in [0, 1]) and ``group_normalize`` (|x̂| <= sqrt(d / groups) once its
  variance, which is checked, is finite) are bounded by their inputs.

Tensors are immutable after creation (the underlying numpy buffer is
marked read-only).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading

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
    "node",
    "product",
    "serial_product",
    "row_blocks",
    "run_blocks",
    "check_finite",
    "rectify",
    "rectifier_pullback",
    "normalize_groups",
    "group_norm_pullback",
]


def check_finite(arr: Array, op: str) -> None:
    """FloatingPointError naming ``op`` unless every entry of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced a non-finite value")


class _Record:
    """A tensor's entry on the tape: its parents' records (None for a parent
    that does not require gradients), the rule that maps its gradient to
    theirs (None for a leaf) and the gradient summed so far."""

    __slots__ = ("parents", "rule", "grad")

    def __init__(self, parents: tuple, rule):
        self.parents = parents
        self.rule = rule
        self.grad: Array | None = None


class Tensor:
    """Immutable float64 array plus, when it requires gradients, its record.

    A leaf's ``grad`` accumulates across successive ``backward`` calls (the
    natural fit for full-batch gradient accumulation); callers reset it by
    assigning ``None``. Interior tensors drop theirs during ``backward``. A
    tensor that does not require gradients has no gradient: its ``grad``
    reads None and cannot be set to anything else.
    """

    __slots__ = ("values", "_record")

    def __init__(self, values, requires_grad: bool = False):
        _own(self, np.array(values, dtype=np.float64), requires_grad)  # owning copy

    @property
    def requires_grad(self) -> bool:
        return self._record is not None

    @property
    def grad(self) -> Array | None:
        rec = self._record
        return None if rec is None else rec.grad

    @grad.setter
    def grad(self, value: Array | None) -> None:
        rec = self._record
        if rec is not None:
            rec.grad = value
        elif value is not None:
            raise UsageError("grad: a tensor that does not require gradients has none")

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


def _own(t: Tensor, arr: Array, requires_grad: bool) -> Tensor:
    check_finite(arr, "tensor construction")
    arr.setflags(write=False)
    t.values = arr
    t._record = _Record((), None) if requires_grad else None
    return t


def _leaf(arr: Array) -> Tensor:
    """``Tensor(arr, requires_grad=True)`` without its copy: ``arr`` is a
    float64 array that the caller hands over and no one else holds."""
    return _own(Tensor.__new__(Tensor), arr, True)


def node(values: Array, parents: tuple, rule, op: str, check: bool = True) -> Tensor:
    """Wrap an op result; record ``rule`` only when a parent record exists.

    ``parents`` are the input tensors' records, None for an input that does
    not require gradients; ``rule`` maps the output's gradient to theirs,
    in that order. ``check=False`` is for values that cannot be non-finite
    given checked inputs, or that the op has already checked.
    """
    if check:
        check_finite(values, op)
    out = Tensor.__new__(Tensor)
    values.setflags(write=False)
    out.values = values
    for p in parents:
        if p is not None:
            out._record = _Record(parents, rule)
            return out
    out._record = None
    return out


def constant(values) -> Tensor:
    """Read-only, non-recording tensor over ``values``.

    A float64 array is wrapped as a view, not copied; the caller's array
    keeps its own write flag. A :class:`Tensor`'s values are wrapped the
    same way but not checked again: they were checked when it was made.
    Operations whose inputs are all constants record no backward rule.
    """
    if isinstance(values, Tensor):
        return node(values.values.view(), (), None, "constant", check=False)
    return node(np.asarray(values, dtype=np.float64).view(), (), None, "constant")


def _to_shape(g: Array, shape: tuple[int, ...]) -> Array:
    # Undo scalar broadcasting; anything else was rejected up front.
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def _binary_shapes(op: str, a: Tensor, b: Tensor) -> None:
    if a.shape == b.shape or a.ndim == 0 or b.ndim == 0:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ (only scalar broadcasting is supported)")


def _shape_if_needed(t: Tensor) -> tuple[int, ...] | None:
    """``t``'s shape when it requires gradients: all that ``add``'s and
    ``sub``'s rules keep of an operand."""
    return t.shape if t._record is not None else None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("add", a, b)
    with np.errstate(all="ignore"):
        out = np.add(a.values, b.values)
    sa, sb = _shape_if_needed(a), _shape_if_needed(b)

    def rule(g: Array):
        return (
            _to_shape(g, sa) if sa is not None else None,
            _to_shape(g, sb) if sb is not None else None,
        )

    return node(out, (a._record, b._record), rule, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes("sub", a, b)
    with np.errstate(all="ignore"):
        out = np.subtract(a.values, b.values)
    sa, sb = _shape_if_needed(a), _shape_if_needed(b)

    def rule(g: Array):
        return (
            _to_shape(g, sa) if sa is not None else None,
            _to_shape(-g, sb) if sb is not None else None,
        )

    return node(out, (a._record, b._record), rule, "sub")


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Pointwise product (scalar operands broadcast)."""
    _binary_shapes("hadamard", a, b)
    with np.errstate(all="ignore"):
        out = np.multiply(a.values, b.values)
    sa, sb = a.shape, b.shape
    # Each operand is kept only for the other's gradient.
    bv = b.values if a._record is not None else None
    av = a.values if b._record is not None else None

    def rule(g: Array):
        return (
            _to_shape(g * bv, sa) if bv is not None else None,
            _to_shape(g * av, sb) if av is not None else None,
        )

    return node(out, (a._record, b._record), rule, "hadamard")


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a Python scalar constant."""
    c = float(c)
    with np.errstate(all="ignore"):
        out = a.values * c

    def rule(g: Array):
        return (g * c,)

    return node(out, (a._record,), rule, "scale")


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
        out = product(a.values, b.values)
    return node(out, (a._record, b._record), _product_rule(a, b), "matmul")


def _product_rule(a: Tensor, b: Tensor):
    """The rule of ``a @ b``: the gradients its parents need, given the
    output's ``g``. Each operand is kept only for the other's gradient.

    The transposed operands stay strided views: a contiguous copy is
    faster, but the product then takes another summation path and the
    trained bits change.
    """
    bv = b.values if a._record is not None else None
    av = a.values if b._record is not None else None

    def rule(g: Array):
        return (
            product(g, bv.swapaxes(-1, -2)) if bv is not None else None,
            product(av.swapaxes(-1, -2), g) if av is not None else None,
        )

    return rule


def product(x: Array, y: Array) -> Array:
    """``np.matmul(x, y)``, bit for bit.

    A product of at least ``BLOCK_MIN_MACS`` multiply-adds whose output has
    at least two blocks of ``BLOCK_ROWS`` rows (per matrix of a stack) runs
    its row blocks through :func:`run_blocks`, silently, on up to two
    cores; the caller checks what it keeps. Each block is one ``np.matmul``
    of its rows of ``x`` with the whole of ``y``, so every entry is still
    one sum over the whole contraction (partial sums would add up in
    another order). Below the threshold, a hand-off to a second thread
    costs more than it saves, and one call under the caller's error state
    computes the product.
    """
    m = x.shape[-2]
    if x.shape[-1] == 1:
        return serial_product(x, y)
    # Most products have fewer than two blocks of rows: they skip the count.
    if m < 2 * BLOCK_ROWS or (macs := max(x.size * y.shape[-1], y.size * m)) < BLOCK_MIN_MACS:
        return np.matmul(x, y)
    out = np.empty(np.broadcast_shapes(x.shape[:-2], y.shape[:-2]) + (m, y.shape[-1]))

    def block(b: Block) -> None:
        np.matmul(x[..., b.rows, :], y, out=out[..., b.rows, :])

    run_blocks(block, m, 1, macs)
    return out


def serial_product(x: Array, y: Array, out: Array | None = None) -> Array:
    """``np.matmul(x, y, out=out)``, bit for bit, on the calling thread: what
    :func:`product` computes below its threshold, and what a block of a
    stage computes its products with.

    A contraction of length 1 is an outer product: each entry is one
    product, formed here by ``np.multiply`` instead of a GEMM call that
    takes several times as long. Adding 0.0 turns a -0.0 product into the
    +0.0 that a GEMM's zero-started sum gives.
    """
    if x.shape[-1] == 1:
        out = np.multiply(x, y, out=out)
        out += 0.0
        return out
    return np.matmul(x, y, out=out)


# Measured on a 2-core VM with one BLAS thread (OpenBLAS 0.3.31). Blocks of
# 128 rows, and the balanced blocks that row_blocks lays out from them (125
# rows for a 500-row product, 131-132 for 2100 rows), kept every product of
# a training and an evaluated day at N=100 (d=8, 64 and 256) byte-equal to
# one call, with one BLAS thread and with two; 64-row blocks did not with
# two BLAS threads. Two threads against one call (medians of 31 interleaved
# runs): 0.5-0.9x at 2e6-9e6 multiply-adds, 0.96-1.09x at 1.7e7, 1.17x at
# 3.4e7-6.7e7 and 1.47x at 1.4e8, the smallest reference-width product.
BLOCK_ROWS = 128
BLOCK_MIN_MACS = 20_000_000
MAX_WORKERS = 2


def row_blocks(rows: int, unit: int, macs: int) -> list[slice]:
    """The fixed blocks of a row-wise computation of ``macs`` multiply-adds
    over ``rows`` rows, in whole units of ``unit`` rows (a stock's lookback
    window, or one row). As many blocks as ``max(1, BLOCK_ROWS // unit)``
    units fill, rounded up to an even count (so two cores get equal shares)
    but no more than there are units; the units are spread evenly, block i
    starting at unit ⌊i·units/count⌋. Below ``BLOCK_MIN_MACS``, or where
    fewer than two blocks would fill, one block of every row. The layout
    depends on these three numbers alone, never on the core count."""
    units = rows // unit
    count = units // max(1, BLOCK_ROWS // unit)
    if count < 2 or macs < BLOCK_MIN_MACS:
        return [slice(0, rows)]
    count = min(count + count % 2, units)
    starts = [i * units // count * unit for i in range(count)] + [rows]
    return [slice(start, stop) for start, stop in zip(starts, starts[1:])]


def run_blocks(body, rows: int, unit: int, macs: int) -> None:
    """Run ``body(block)`` over the :func:`row_blocks` of ``macs``
    multiply-adds over ``rows`` rows in units of ``unit`` rows, under
    ``np.errstate(all="ignore")``: one block on the calling thread, more on
    the process's :class:`RowBlocks`, which only this enters. A body writes
    ``block.rows`` of arrays the caller allocated and calls
    ``block.check(values, op)`` at each step it checks; once no block runs,
    FloatingPointError names the first step, in body order, that any block
    found non-finite: the step that fails first when the work runs whole, if
    each block's values depend on its own rows alone. A body may call numpy,
    :func:`serial_product` and :func:`rectify`, never :func:`product` or
    :func:`run_blocks` (a block waiting on the pool could wait on itself);
    its temporaries are block-sized."""
    blocks = [Block(b) for b in row_blocks(rows, unit, macs)]
    with np.errstate(all="ignore"):
        if len(blocks) == 1:
            body(blocks[0])
        else:
            _shared_blocks().run(body, blocks)
    failed = [b.failed for b in blocks if b.failed is not None]
    if failed:
        raise FloatingPointError(f"{min(failed)[1]} produced a non-finite value")


class Block:
    """A block of :func:`run_blocks`: its ``rows`` and its first failed
    check's (step, op); the block's later steps go unscanned."""

    __slots__ = ("rows", "step", "failed")

    def __init__(self, rows: slice):
        self.rows, self.step, self.failed = rows, 0, None

    def check(self, values: Array, op: str) -> None:
        if self.failed is None and not np.isfinite(values).all():
            self.failed = (self.step, op)
        self.step += 1


class RowBlocks:
    """Runs fixed blocks on ``workers`` threads: the calling thread and
    ``workers - 1`` pool threads, each taking the next block from one
    shared iterator until none is left. Who runs a block does not change
    its bits. Each pool thread runs in a copy of the caller's context, so
    numpy's error state (a context variable since numpy 2.0) is the caller's."""

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = None
        if workers > 1:
            # Imported here: concurrent.futures loads logging, ≈0.6 MB and
            # ≈14 ms that a process without a large product need not pay.
            from concurrent.futures import ThreadPoolExecutor

            self._pool = ThreadPoolExecutor(workers - 1, "mgdpr-rows")

    def run(self, body, blocks: list[Block]) -> None:
        """``body(b)`` for each of ``blocks``, the blocks shared among the
        threads. The first error of a block is raised in the caller once
        no thread runs a block any more."""
        claim = threading.Lock()
        pending = iter(blocks)

        def work() -> None:
            while True:
                with claim:
                    b = next(pending, None)
                if b is None:
                    return
                body(b)

        helpers = [self._pool.submit(contextvars.copy_context().run, work) for _ in range(self.workers - 1)]
        try:
            work()
        finally:
            # A helper not yet started is cancelled: the caller took every
            # block. Any other is waited for, so no thread writes into the
            # caller's arrays once this returns or raises.
            errors = [f.exception() for f in helpers if not f.cancel()]
        for error in errors:
            if error is not None:
                raise error


_blocks: RowBlocks | None = None
_blocks_lock = threading.Lock()


def _shared_blocks() -> RowBlocks:
    """The process's :class:`RowBlocks`, made on first use, with as many
    workers as cores this process may run on, at most ``MAX_WORKERS``."""
    global _blocks
    with _blocks_lock:
        if _blocks is None:
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            _blocks = RowBlocks(min(MAX_WORKERS, cores))
        return _blocks


def _forget_blocks() -> None:
    """In a forked child: the parent's pool threads do not exist there, so
    work handed to them would never finish. The next blocked run makes a
    new pool."""
    global _blocks, _blocks_lock
    _blocks, _blocks_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_blocks)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a length-d bias vector to every row of an (m, d) matrix."""
    if x.ndim != 2 or b.ndim != 1 or x.shape[1] != b.shape[0]:
        raise ShapeError(f"add_bias: shapes {x.shape} and {b.shape} are incompatible")
    with np.errstate(all="ignore"):
        out = x.values + b.values
    need_x, need_b = x._record is not None, b._record is not None

    def rule(g: Array):
        return g if need_x else None, g.sum(axis=0) if need_b else None

    return node(out, (x._record, b._record), rule, "add_bias")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``add_bias(matmul(x, w), b)`` as one op: an (m, k) @ (k, d) product
    plus a length-d bias on every row, with the same numpy expressions."""
    if x.ndim != 2 or w.ndim != 2 or b.ndim != 1 or x.shape[1] != w.shape[0] or w.shape[1] != b.shape[0]:
        raise ShapeError(f"linear: shapes {x.shape}, {w.shape} and {b.shape} are incompatible")
    with np.errstate(all="ignore"):
        out = product(x.values, w.values) + b.values
    product_rule = _product_rule(x, w)
    need_b = b._record is not None

    def rule(g: Array):
        return (*product_rule(g), g.sum(axis=0) if need_b else None)

    return node(out, (x._record, w._record, b._record), rule, "linear")


# ---------------------------------------------------------------------------
# shape plumbing


def concat(parts: list[Tensor], axis: int) -> Tensor:
    """Join tensors along ``axis`` in one copy; every other axis must agree."""
    if not parts:
        raise UsageError("concat: no tensors to join")
    first = parts[0]
    axis = _valid_axis("concat", axis, first.ndim)
    for p in parts[1:]:
        if p.ndim != first.ndim or any(
            p.shape[i] != first.shape[i] for i in range(first.ndim) if i != axis
        ):
            raise ShapeError(f"concat: shapes {first.shape} and {p.shape} differ off axis {axis}")
    out = np.concatenate([p.values for p in parts], axis=axis)
    splits = np.cumsum([p.shape[axis] for p in parts[:-1]])

    def rule(g: Array):
        return np.split(g, splits, axis=axis)

    return node(out, tuple(p._record for p in parts), rule, "concat", check=False)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if math.prod(shape) != a.size:
        raise ShapeError(f"reshape: cannot view {a.shape} as {shape}")
    out = a.values.reshape(shape)
    old = a.shape

    def rule(g: Array):
        return (g.reshape(old),)

    return node(out, (a._record,), rule, "reshape", check=False)


def transpose(a: Tensor) -> Tensor:
    """Swap the trailing two axes (matrix transpose, batched if 3-D)."""
    if a.ndim not in (2, 3):
        raise ShapeError(f"transpose: expected 2-D or 3-D, got {a.shape}")
    out = np.ascontiguousarray(a.values.swapaxes(-1, -2))

    def rule(g: Array):
        return (g.swapaxes(-1, -2),)

    return node(out, (a._record,), rule, "transpose", check=False)


def mean_axis(a: Tensor, axis: int) -> Tensor:
    axis = _valid_axis("mean_axis", axis, a.ndim)
    with np.errstate(all="ignore"):
        out = a.values.mean(axis=axis)
    shape = a.shape
    n = shape[axis]

    def rule(g: Array):
        return (np.broadcast_to(np.expand_dims(g, axis), shape) / n,)

    return node(out, (a._record,), rule, "mean_axis")


def sum_all(a: Tensor) -> Tensor:
    with np.errstate(all="ignore"):
        out = np.asarray(a.values.sum(), dtype=np.float64)
    shape = a.shape

    def rule(g: Array):
        return (np.broadcast_to(g, shape),)

    return node(out, (a._record,), rule, "sum_all")


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

    def rule(g: Array):
        # p * (g - (g * p).sum(axis)) in one buffer, bit for bit.
        t = np.multiply(g, p)
        s = t.sum(axis=axis, keepdims=True)
        np.subtract(g, s, out=t)
        t *= p
        return (t,)

    return node(p, (a._record,), rule, "softmax", check=False)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _valid_axis("log_softmax", axis, a.ndim)
    with np.errstate(all="ignore"):
        shifted = a.values - a.values.max(axis=axis, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        out = shifted - lse
        p = np.exp(out)

    def rule(g: Array):
        return (g - p * g.sum(axis=axis, keepdims=True),)

    return node(out, (a._record,), rule, "log_softmax")


ACTIVATION_SLOPE = 0.01
GROUP_NORM_EPS = 1e-5


def rectify(x: Array, out: Array, nonnegative: Array) -> None:
    """The leaky rectifier of ``x`` into ``out``, and the boolean mask of
    ``x``'s non-negative entries, all that :func:`rectifier_pullback`
    reads, into ``nonnegative``."""
    np.greater_equal(x, 0.0, out=nonnegative)
    # max(x, slope·x) is x where x >= 0 and slope·x below, to the bit.
    np.multiply(x, ACTIVATION_SLOPE, out=out)
    np.maximum(x, out, out=out)


def rectifier_pullback(nonnegative: Array):
    """The map from the rectifier's output gradient to its input's."""

    def pullback(g: Array) -> Array:
        return g * np.where(nonnegative, 1.0, ACTIVATION_SLOPE)

    return pullback


def activation(a: Tensor) -> Tensor:
    """Leaky rectifier: identity for x >= 0, ``ACTIVATION_SLOPE * x`` below."""
    out, nonnegative = np.empty(a.shape), np.empty(a.shape, dtype=bool)
    rectify(a.values, out, nonnegative)
    pullback = rectifier_pullback(nonnegative)

    def rule(g: Array):
        return (pullback(g),)

    return node(out, (a._record,), rule, "activation", check=False)


def normalize_groups(x: Array, out: Array, inv: Array, check) -> None:
    """Group normalization of the rows of ``x`` into ``out``, a C-contiguous
    array of ``x``'s shape, and the inverse deviations, all that
    :func:`group_norm_pullback` reads besides ``out``, into ``inv``: a
    (rows, groups, 1) array whose shape sets the number of groups.
    ``check(var, "group_normalize")`` sees the variances before they are
    used: an overflowing one would give inv = 0 and silent zeros."""
    rows, groups = inv.shape[:2]
    x3 = x.reshape(rows, groups, x.shape[1] // groups)
    mu = x3.mean(axis=2, keepdims=True)
    xc = x3 - mu
    var = (xc * xc).mean(axis=2, keepdims=True)
    check(var, "group_normalize")
    np.divide(1.0, np.sqrt(var + GROUP_NORM_EPS), out=inv)
    np.multiply(xc, inv, out=out.reshape(xc.shape))


def group_norm_pullback(g: Array, out: Array, inv: Array) -> Array:
    """The gradient of :func:`normalize_groups`' input, given the gradient
    ``g`` of its output ``out`` and its inverse deviations ``inv``."""
    rows, groups = inv.shape[:2]
    g3 = g.reshape(rows, groups, g.shape[1] // groups)
    xhat = out.reshape(g3.shape)
    proj = (g3 * xhat).mean(axis=2, keepdims=True)
    # inv·(g - mean(g) - x̂·proj) in one buffer, bit for bit.
    gx = g3 - g3.mean(axis=2, keepdims=True)
    gx -= xhat * proj
    gx *= inv
    return gx.reshape(g.shape)


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
    out, inv = np.empty((rows, d)), np.empty((rows, num_groups, 1))
    with np.errstate(all="ignore"):
        normalize_groups(z.values, out, inv, check_finite)

    def rule(g: Array):
        return (group_norm_pullback(g, out, inv),)

    return node(out, (z._record,), rule, "group_normalize", check=False)


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into ``grad`` of every requires_grad leaf.

    ``loss`` must be scalar; one without a record (a constant) has no
    gradient, and the call stores nothing. The pass walks records, not
    tensors: only records with a rule enter the topological order; leaf
    records are reached as parents. A generic op's rule gives None for a
    parent without a record; a compound op's rule gives every parent an
    array. Either way a parent without a record is skipped.
    Records are popped off the topological order and released as soon as
    their rule has run: each drops its parents, its rule (with the arrays it
    saved) and its gradient, so the tape is freed while the pass unwinds,
    interior gradients are not kept, and a second backward through the same
    nodes is a no-op rather than a double count. Every rule computes
    silently, under ``np.errstate(all="ignore")``: a gradient that
    overflows reaches its leaf as Inf or NaN, for the caller to check.

    An interior record adopts the first gradient handed to it without a
    copy. Such buffers may be shared (``add`` hands one array to both
    parents) or be views (reshape, transpose, concat), so no gradient is
    ever written in place: accumulation always makes a new array. A leaf
    adopts its first gradient only when the rule has just made it for that
    leaf alone: an array that owns its data, is writeable, is not the
    incoming gradient and was not handed to another parent. It copies any
    other, so ``leaf.grad`` owns writable memory that nothing else holds.
    """
    if loss.ndim != 0:
        raise UsageError(f"backward: loss must be scalar, got shape {loss.shape}")

    root = loss._record
    if root is None:
        return
    root.grad = np.ones((), dtype=np.float64) if root.grad is None else root.grad + 1.0
    order: list[_Record] = []
    seen: set[int] = set()
    stack: list[tuple[_Record, bool]] = [(root, False)]
    while stack:
        rec, expanded = stack.pop()
        if expanded:
            order.append(rec)
            continue
        if id(rec) in seen:
            continue
        seen.add(id(rec))
        stack.append((rec, True))
        for p in rec.parents:
            if p is not None and p.rule is not None and id(p) not in seen:
                stack.append((p, False))

    with np.errstate(all="ignore"):
        while order:
            rec = order.pop()
            rule = rec.rule
            if rule is None or rec.grad is None:
                continue
            g = rec.grad
            handed: list[Array] = []
            for parent, pg in zip(rec.parents, rule(g)):
                if pg is None or parent is None:
                    continue
                pg = np.asarray(pg, dtype=np.float64)
                if parent.grad is not None:
                    parent.grad = parent.grad + pg
                elif parent.rule is not None or _fresh(pg, g, handed):
                    parent.grad = pg
                else:
                    parent.grad = pg.copy()
                handed.append(pg)
            rec.parents = ()
            rec.rule = None
            rec.grad = None


def _fresh(pg: Array, g: Array, handed: list[Array]) -> bool:
    """Whether a rule made ``pg`` for one parent alone: ``pg`` owns
    writable memory and is neither the rule's incoming gradient ``g`` nor
    an array it handed to an earlier parent."""
    return (
        pg.flags.owndata
        and pg.flags.writeable
        and pg is not g
        and not any(pg is h for h in handed)
    )
