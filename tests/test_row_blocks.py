"""Large products and the per-stock work of each layer stage run as fixed
row blocks on up to two threads (``mgdpr.tensor.RowBlocks``), with the
bytes of one call, whatever the number of threads."""

import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from mgdpr import model as M
from mgdpr import tensor as T
from mgdpr.market import align_panel, make_windows
from mgdpr.model import Model, ModelConfig
from mgdpr.synthetic import planted_market
from mgdpr.tensor import Tensor
from mgdpr.training import TrainConfig, evaluate, train
from test_stages import GROUP_NORM_OVERFLOW, STAGES, overflow_cases, run, stage_inputs

# (stocks, lookback, width, layers, steps)
DAYS = {"desk": (12, 21, 32, 2, 2), "cli-pipeline": (100, 21, 8, 1, 2), "n100-d64": (100, 21, 64, 2, 2)}


@pytest.fixture(scope="module")
def pools():
    return {workers: T.RowBlocks(workers) for workers in (1, 2)}


def run_day(shape):
    """One training day and one evaluated day at ``shape``."""
    n, tau, d, layers, steps = shape
    series = planted_market(num_stocks=n, num_days=tau + 3, momentum_lag=3, seed=1)
    samples = make_windows(align_panel(series), tau)
    cfg = ModelConfig(num_stocks=n, lookback=tau, num_layers=layers, expansion_steps=steps, embed_dim=d)
    model = Model.initialized(cfg, seed=0)
    params, _ = train(model, samples[:1], [], TrainConfig(epochs=1))
    evaluate(Model(config=cfg, params=params), samples[1:2])


def day_products(shape, monkeypatch):
    """The operands of every product of a day, one pair per shape and
    stride layout, as the day passed them to ``T.product``."""
    products = {}
    real = T.product

    def spy(x, y):
        products.setdefault((x.shape, x.strides, y.shape, y.strides), (x, y))
        return real(x, y)

    with monkeypatch.context() as patch:
        patch.setattr(T, "product", spy)
        run_day(shape)
    return list(products.values())


def blocked_runs(shape, monkeypatch):
    """The bodies of the block runs of a day, with no pool at its start:
    (qualified names of the bodies, the pool after the day)."""
    bodies = []
    real = T.RowBlocks.run

    def counting(self, body, blocks):
        bodies.append(body.__qualname__)
        return real(self, body, blocks)

    with monkeypatch.context() as patch:
        patch.setattr(T, "_blocks", None)
        patch.setattr(T.RowBlocks, "run", counting)
        run_day(shape)
        return bodies, T._blocks


@pytest.mark.parametrize("day", ["desk", "n100-d64"])
def test_every_product_of_a_day_has_the_one_call_bytes_on_pools_of_one_and_two(day, pools, monkeypatch):
    products = day_products(DAYS[day], monkeypatch)
    assert len(products) > 20
    for x, y in products:
        one_call = np.matmul(x, y).tobytes()
        for workers, pool in pools.items():
            with monkeypatch.context() as patch:
                # Every product of the day as row blocks, however small.
                patch.setattr(T, "BLOCK_MIN_MACS", 0)
                patch.setattr(T, "_blocks", pool)
                assert T.product(x, y).tobytes() == one_call, (workers, x.shape, x.strides, y.shape, y.strides)


@pytest.mark.parametrize("day", ["desk", "cli-pipeline"])
def test_a_small_day_starts_no_pool(day, monkeypatch):
    assert blocked_runs(DAYS[day], monkeypatch) == ([], None)


def test_the_products_and_every_stage_of_a_100_stock_width_64_day_take_the_blocked_path(monkeypatch):
    bodies, pool = blocked_runs(DAYS["n100-d64"], monkeypatch)
    assert isinstance(pool, T.RowBlocks)
    # At least each layer's propagation product, in training and in evaluation.
    assert sum(body == "product.<locals>.block" for body in bodies) >= 4
    # Two layers in training and two in evaluation.
    for stage in STAGES:
        assert bodies.count(f"{stage}.<locals>.block") == 4, stage


@pytest.mark.parametrize("rows", [1, T.BLOCK_ROWS - 1, T.BLOCK_ROWS, 2 * T.BLOCK_ROWS + 1, 5 * T.BLOCK_ROWS + 3])
@pytest.mark.parametrize("batched", [False, True])
def test_every_row_is_computed_once_with_the_one_call_bytes(rows, batched, pools, monkeypatch):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(3, rows, 40) if batched else (rows, 40))
    y = rng.normal(size=(3, 40, 24) if batched else (40, 24))
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)
    for pool in pools.values():
        monkeypatch.setattr(T, "_blocks", pool)
        out = T.product(x, y)
        assert out.shape == np.matmul(x, y).shape
        assert out.tobytes() == np.matmul(x, y).tobytes()


def spans(sizes, unit):
    """(start, stop) row pairs of consecutive blocks of ``sizes`` units."""
    stops = np.cumsum(sizes) * unit
    return list(zip([0, *stops[:-1]], stops))


@pytest.mark.parametrize(
    "rows, unit, blocks",
    [
        (2100, 21, spans([6, 6, 6, 7] * 4, 21)),  # 16 blocks of 6 or 7 stocks
        (2100, 1, spans([131, 131, 131, 132] * 4, 1)),
        (500, 1, spans([125] * 4, 1)),  # the propagation product at reference width
        (600, 200, [(0, 200), (200, 400), (400, 600)]),  # one stock a block: no more blocks than stocks
        (255, 1, [(0, 255)]),  # one block: fewer than two would fit
    ],
)
def test_the_layout_depends_on_the_shape_alone(rows, unit, blocks):
    assert [(b.start, b.stop) for b in T.row_blocks(rows, unit, T.BLOCK_MIN_MACS)] == blocks
    assert T.row_blocks(rows, unit, T.BLOCK_MIN_MACS - 1) == [slice(0, rows)]


@pytest.mark.parametrize("unit", [1, 2, 5, 21, 63, 64, 100, 127, 128, 129, 200, 300])
def test_blocks_cover_every_row_once_in_whole_units_of_sizes_one_unit_apart(unit):
    per_block = max(1, T.BLOCK_ROWS // unit)
    for units in range(1, 600):
        rows = units * unit
        blocks = T.row_blocks(rows, unit, T.BLOCK_MIN_MACS)
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]], rows
        assert blocks[-1].stop == rows, rows
        sizes = [b.stop - b.start for b in blocks]
        assert all(size > 0 and size % unit == 0 for size in sizes), rows
        assert max(sizes) - min(sizes) <= unit, rows
        # One block where fewer than two would fill; else an even count,
        # unless there are fewer units than that.
        assert (len(blocks) > 1) == (units // per_block >= 2), rows
        assert len(blocks) == 1 or len(blocks) % 2 == 0 or len(blocks) == units, rows


def test_more_threads_than_cores_with_fast_switching_lose_no_block(monkeypatch):
    # Every thread claims blocks from one counter; a lost claim would leave
    # a block's rows unwritten. Eight threads, a 1 µs switch interval, 200
    # blocks.
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)
    monkeypatch.setattr(T, "_blocks", T.RowBlocks(8))
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(200 * T.BLOCK_ROWS, 8)), rng.normal(size=(8, 4))
    expected = np.matmul(x, y).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for _ in range(5):
            assert T.product(x, y).tobytes() == expected
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_blocked_product_computes_silently_under_the_callers_raise(workers, pools, monkeypatch):
    # Blocks run under run_blocks' own error state; callers check what
    # they keep. numpy keeps its error state per context, so a pool thread
    # that did not run in a copy of the caller's would warn here.
    monkeypatch.setattr(T, "_blocks", pools[workers])
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)
    big = np.full((64 * T.BLOCK_ROWS, 4), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise"):
            out = T.product(big, big[:4].T.copy())
    assert np.isinf(out).all()


def checked_backward(build, pool, monkeypatch):
    """The leaf of ``build(leaf)``'s loss after ``backward`` under
    warnings-as-errors on ``pool``, and the bodies the pool ran."""
    bodies = []
    real = pool.run

    def counting(body, blocks):
        bodies.append(body.__qualname__)
        return real(body, blocks)

    monkeypatch.setattr(T, "_blocks", pool)
    monkeypatch.setattr(pool, "run", counting)
    leaf, loss = build()
    assert np.isfinite(loss.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        T.backward(loss)
    return leaf, bodies


@pytest.mark.parametrize("workers", [1, 2])
def test_an_overflowing_generic_rule_leaves_a_non_finite_gradient_without_a_warning(workers, pools, monkeypatch):
    def build():
        x = Tensor(np.full(3, 1e-320), requires_grad=True)
        return x, T.scale(T.scale(T.sum_all(x), 1e10), 1e300)  # the loss is 3e-10

    x, _ = checked_backward(build, pools[workers], monkeypatch)
    assert np.isinf(x.grad).all()


@pytest.mark.parametrize("workers", [1, 2])
def test_an_overflowing_blocked_product_in_a_rule_leaves_a_non_finite_gradient_without_a_warning(
    workers, pools, monkeypatch
):
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)

    def build():
        a = Tensor(np.full((4 * T.BLOCK_ROWS, 4), 1e-300), requires_grad=True)
        b = T.constant(np.full((4, 4), 1e300))
        return a, T.scale(T.sum_all(T.matmul(a, b)), 1e10)  # a @ b is 4 everywhere

    a, bodies = checked_backward(build, pools[workers], monkeypatch)
    # The forward product and the rule's g @ b.T, both as row blocks.
    assert bodies == ["product.<locals>.block"] * 2
    assert np.isinf(a.grad).all()


@pytest.mark.parametrize("workers", [1, 2])
def test_a_blocks_error_reaches_the_caller_once_no_thread_runs_a_block(workers):
    ran = []

    def body(b):
        time.sleep(0.001)
        if b.rows.start == 3:
            raise ValueError("block 3 failed")
        ran.append(b.rows.start)

    pool = T.RowBlocks(workers)
    blocks = [T.Block(slice(i, i + 1)) for i in range(8)]
    with pytest.raises(ValueError, match="^block 3 failed$"):
        pool.run(body, blocks)
    done = sorted(ran)
    time.sleep(0.05)
    assert sorted(ran) == done and 3 not in done and {0, 1, 2} <= set(done)
    seen = []
    assert pool.run(seen.append, blocks) is None
    assert sorted(seen, key=lambda b: b.rows.start) == blocks


# ---------------------------------------------------------------------------
# run_blocks: the block protocol of a stage

# Four blocks of 128 rows, blocked on any pool.
ROWS = 4 * T.BLOCK_ROWS
STEPS = ("scaled", "shifted", "squared")


def stepped_body(fail):
    """A body of three checked steps over a row of ones, each overflowing
    at the (block index, step) pairs in ``fail``."""
    ones = np.ones(ROWS)

    def body(b):
        i = b.rows.start // T.BLOCK_ROWS
        for step, op in enumerate(STEPS):
            b.check(ones[b.rows] * (1e308 if (i, step) in fail else 1.0) * 10.0, op)

    return body


@pytest.mark.parametrize("workers", [1, 2])
def test_a_check_raises_the_op_named_at_its_call_site_without_a_warning(workers, pools, monkeypatch):
    monkeypatch.setattr(T, "_blocks", pools[workers])
    ones = np.ones(ROWS)

    def body(b):
        b.check(ones[b.rows], "matmul")
        b.check(ones[b.rows] * 1e308 * 10.0, "named here")  # overflows: no warning under run_blocks
        b.check(ones[b.rows], "add")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="^named here produced a non-finite value$"):
            T.run_blocks(body, ROWS, 1, T.BLOCK_MIN_MACS)
    T.run_blocks(stepped_body(set()), ROWS, 1, T.BLOCK_MIN_MACS)  # every check passes: nothing raised


@pytest.mark.parametrize("workers", [1, 2])
def test_the_raised_step_is_the_first_in_body_order_whichever_block_flagged_it(workers, pools, monkeypatch):
    monkeypatch.setattr(T, "_blocks", pools[workers])
    assert len(T.row_blocks(ROWS, 1, T.BLOCK_MIN_MACS)) == 4
    for early in range(4):
        for late in range(4):
            if early == late:
                continue
            for first in range(len(STEPS) - 1):
                # Block ``early`` fails a later step than block ``late`` does.
                fail = {(early, first + 1), (late, first)} | {(early, len(STEPS) - 1)}
                with pytest.raises(FloatingPointError, match=f"^{STEPS[first]} produced"):
                    T.run_blocks(stepped_body(fail), ROWS, 1, T.BLOCK_MIN_MACS)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_bodys_error_reaches_the_caller_once_no_block_runs(workers, pools, monkeypatch):
    monkeypatch.setattr(T, "_blocks", pools[workers])
    lock, running, ran = threading.Lock(), [0], []

    def body(b):
        with lock:
            running[0] += 1
        try:
            time.sleep(0.002)
            b.check(np.full(1, np.inf), "matmul")  # a failed check does not hide the error
            if b.rows.start == T.BLOCK_ROWS:
                raise ValueError("block 1 failed")
            ran.append(b.rows.start)
        finally:
            with lock:
                running[0] -= 1

    with pytest.raises(ValueError, match="^block 1 failed$"):
        T.run_blocks(body, ROWS, 1, T.BLOCK_MIN_MACS)
    assert running[0] == 0
    done = sorted(ran)
    time.sleep(0.05)
    assert sorted(ran) == done and T.BLOCK_ROWS not in done and 0 in done


def test_a_single_block_runs_on_the_calling_thread_and_starts_no_pool(monkeypatch):
    monkeypatch.setattr(T, "_blocks", None)
    threads, rows = [], []

    def body(b):
        threads.append(threading.current_thread())
        rows.append(b.rows)
        b.check(np.ones(3), "matmul")
        b.check(np.full(3, np.nan), "hadamard")

    T.run_blocks(stepped_body(set()), ROWS, 1, T.BLOCK_MIN_MACS - 1)
    with pytest.raises(FloatingPointError, match="^hadamard produced"):
        T.run_blocks(body, ROWS, 1, T.BLOCK_MIN_MACS - 1)
    assert threads == [threading.current_thread()] and rows == [slice(0, ROWS)]
    assert T._blocks is None


@pytest.mark.skipif(not hasattr(os, "fork"), reason="POSIX only")
def test_a_forked_child_computes_blocked_products_with_a_pool_of_its_own(monkeypatch):
    monkeypatch.setattr(T, "_blocks", T.RowBlocks(2))
    rng = np.random.default_rng(4)
    x, y = rng.normal(size=(8 * T.BLOCK_ROWS, 160)), rng.normal(size=(160, 160))
    assert x.shape[0] * 160 * 160 >= T.BLOCK_MIN_MACS
    expected = T.product(x, y).tobytes()  # the parent's pool thread now exists
    with warnings.catch_warnings():
        # Python 3.12 and later warn that a process with threads forks.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 2
        try:
            code = 0 if T.product(x, y).tobytes() == expected else 1
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's blocked product did not finish within 60 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


# ---------------------------------------------------------------------------
# layer stages


def saved_arrays(rule):
    """The arrays a rule closes over, directly, in a list or tuple, or in a
    function it closes over (the rectifier's pullback)."""
    found = []
    for cell in rule.__closure__ or ():
        value = cell.cell_contents
        if isinstance(value, np.ndarray):
            found.append(value)
        elif isinstance(value, (list, tuple)):
            found += [a for a in value if isinstance(a, np.ndarray)]
        elif callable(value) and getattr(value, "__closure__", None):
            found += saved_arrays(value)
    return found


def stage_bytes(stage, arrays, extra):
    """The bytes of the stage's output and of every array its rule saved."""
    out = getattr(M, stage)(*(Tensor(v, requires_grad=True) for v in arrays.values()), *extra)
    saved = saved_arrays(out._record.rule)
    assert saved
    return [out.values.tobytes()] + [a.tobytes() for a in saved]


@pytest.mark.parametrize("shape", [(100, 21, 64, 5), (100, 21, 256, 5)], ids=["n100-d64", "reference-width"])
@pytest.mark.parametrize("stage", STAGES)
def test_stage_output_and_saved_arrays_have_the_one_block_bytes_on_pools_of_one_and_two(
    stage, shape, pools, monkeypatch
):
    arrays, extra = stage_inputs(stage, shape, seed=11)
    with monkeypatch.context() as patch:
        # Today's expressions on the whole arrays: one block, no pool.
        patch.setattr(T, "BLOCK_MIN_MACS", float("inf"))
        patch.setattr(T, "_blocks", None)
        whole = stage_bytes(stage, arrays, extra)
    for workers, pool in pools.items():
        runs = []
        real = pool.run

        def counting(body, blocks):
            runs.append((body.__qualname__, len(blocks)))
            return real(body, blocks)

        with monkeypatch.context() as patch:
            patch.setattr(T, "_blocks", pool)
            patch.setattr(pool, "run", counting)
            assert stage_bytes(stage, arrays, extra) == whole, workers
        assert (f"{stage}.<locals>.block", 16) in runs, runs


@pytest.mark.parametrize("shape", [(100, 21, 64, 5), (100, 21, 256, 5)], ids=["n100-d64", "reference-width"])
@pytest.mark.parametrize("stage", STAGES)
def test_stage_gradients_have_the_one_block_bytes_on_pools_of_one_and_two(stage, shape, pools, monkeypatch):
    arrays, extra = stage_inputs(stage, shape, seed=12)
    probe = np.random.default_rng(13).normal(size=(shape[0] * shape[1], shape[2]))
    with monkeypatch.context() as patch:
        patch.setattr(T, "BLOCK_MIN_MACS", float("inf"))
        patch.setattr(T, "_blocks", None)
        whole = run(getattr(M, stage), arrays, extra, list(arrays), probe)
    for workers, pool in pools.items():
        runs = []
        real = pool.run

        def counting(body, blocks):
            runs.append((body.__qualname__, len(blocks)))
            return real(body, blocks)

        with monkeypatch.context() as patch:
            patch.setattr(T, "_blocks", pool)
            patch.setattr(pool, "run", counting)
            assert run(getattr(M, stage), arrays, extra, list(arrays), probe) == whole, workers
        if stage == "parallel_retention":
            # The rule runs as the forward's 16 blocks of whole stocks.
            assert ("parallel_retention.<locals>.rule.<locals>.block", 16) in runs, runs


def planted_in_the_last_stock(stage, arrays, n):
    """An overflow case's one-stock inputs as the last of ``n`` stocks
    whose other rows are zero; each stock diffuses only to itself."""
    planted = {}
    for name, value in arrays.items():
        if name in ("state", "z", "retained", "carried"):
            rows = np.zeros((n * value.shape[0], value.shape[1]))
            rows[-value.shape[0] :] = value
            planted[name] = rows
        elif name == "diffusion":
            planted[name] = value * np.eye(n)
        else:
            planted[name] = value
    return planted


def stage_error(stage, arrays, extra):
    with pytest.raises(FloatingPointError) as raised:
        getattr(M, stage)(*(Tensor(v, requires_grad=True) for v in arrays.values()), *extra)
    return str(raised.value)


@pytest.mark.parametrize("stage, op, arrays, extra", overflow_cases())
def test_a_non_finite_value_in_the_last_block_raises_the_op_of_one_block(stage, op, arrays, extra, monkeypatch):
    planted = planted_in_the_last_stock(stage, arrays, 300)
    with monkeypatch.context() as patch:
        patch.setattr(T, "BLOCK_MIN_MACS", float("inf"))
        assert stage_error(stage, planted, extra) == f"{op} produced a non-finite value"
    runs = []
    pool = T.RowBlocks(2)
    real = pool.run

    def counting(body, blocks):
        runs.append(len(blocks))
        return real(body, blocks)

    monkeypatch.setattr(pool, "run", counting)
    monkeypatch.setattr(T, "_blocks", pool)
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)
    assert stage_error(stage, planted, extra) == f"{op} produced a non-finite value"
    assert runs and min(runs) >= 2


def test_an_earlier_step_failing_in_the_last_block_is_raised_before_a_later_step_failing_in_block_0(monkeypatch):
    # Block 0's scores overflow at the decay mask ("hadamard"); the last
    # block's q, k and v overflow first ("matmul").
    n, tau = 300, 2
    z = np.zeros((n * tau, 2))
    z[:tau, 0] = 1e150
    z[-tau:] = 1.5e308
    maps = np.ones((2, 2))
    mask = np.tril(np.full((tau, tau), 1e100))
    monkeypatch.setattr(T, "_blocks", T.RowBlocks(2))
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)
    assert T.row_blocks(n * tau, tau, 0)[0] == slice(0, 150)
    assert stage_error("parallel_retention", {"z": z, "q": maps, "k": maps, "v": maps}, (mask, 1)) == (
        "matmul produced a non-finite value"
    )
    z[-tau:] = 0.0
    assert stage_error("parallel_retention", {"z": z, "q": maps, "k": maps, "v": maps}, (mask, 1)) == (
        "hadamard produced a non-finite value"
    )


@pytest.mark.parametrize(
    "stage, op, arrays, extra", [case for case in overflow_cases() if case[0] == "parallel_retention"]
)
def test_retention_on_a_pool_of_one_names_the_op_of_one_block_when_the_last_stock_overflows(
    stage, op, arrays, extra, pools, monkeypatch
):
    # What test_a_non_finite_value_in_the_last_block_raises_the_op_of_one_block
    # checks on two threads, the group norm's variance included, on one.
    monkeypatch.setattr(T, "_blocks", pools[1])
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)
    assert len(T.row_blocks(300 * arrays["z"].shape[0], arrays["z"].shape[0], 0)) > 1
    assert stage_error(stage, planted_in_the_last_stock(stage, arrays, 300), extra) == (
        f"{op} produced a non-finite value"
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_a_product_failing_in_the_last_block_is_raised_before_a_variance_overflowing_in_block_0(
    workers, pools, monkeypatch
):
    # Block 0's variance overflows; the last block's v, a product, first.
    z = np.zeros((300 * 2, 2))
    z[:2] = GROUP_NORM_OVERFLOW["z"]
    z[-2:] = 1.5e308
    maps = {name: GROUP_NORM_OVERFLOW[name] for name in ("query_map", "key_map", "value_map")}
    extra = (np.tril(np.ones((2, 2))), 1)
    monkeypatch.setattr(T, "_blocks", pools[workers])
    monkeypatch.setattr(T, "BLOCK_MIN_MACS", 0)
    assert stage_error("parallel_retention", {"z": z, **maps}, extra) == "matmul produced a non-finite value"
    z[-2:] = 0.0
    assert stage_error("parallel_retention", {"z": z, **maps}, extra) == "group_normalize produced a non-finite value"
