"""Large products run as fixed row blocks on up to two threads
(``mgdpr.tensor.RowBlocks``) with the bytes of one ``np.matmul`` call,
whatever the number of threads."""

import os
import signal
import sys
import time
import warnings

import numpy as np
import pytest

from mgdpr import tensor as T
from mgdpr.market import align_panel, make_windows
from mgdpr.model import Model, ModelConfig
from mgdpr.synthetic import planted_market
from mgdpr.training import TrainConfig, evaluate, train

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


def blocked_calls(shape, monkeypatch):
    """How many products of a day took the blocked path."""
    calls = []
    real = T.RowBlocks.product

    def counting(self, x, y):
        calls.append((x.shape, y.shape))
        return real(self, x, y)

    with monkeypatch.context() as patch:
        patch.setattr(T.RowBlocks, "product", counting)
        run_day(shape)
    return len(calls)


@pytest.mark.parametrize("day", ["desk", "n100-d64"])
def test_every_product_of_a_day_has_the_one_call_bytes_on_pools_of_one_and_two(day, pools, monkeypatch):
    products = day_products(DAYS[day], monkeypatch)
    assert len(products) > 20
    for x, y in products:
        one_call = np.matmul(x, y).tobytes()
        for workers, pool in pools.items():
            assert pool.product(x, y).tobytes() == one_call, (workers, x.shape, x.strides, y.shape, y.strides)


@pytest.mark.parametrize("day", ["desk", "cli-pipeline"])
def test_no_product_of_a_small_day_takes_the_blocked_path(day, monkeypatch):
    assert blocked_calls(DAYS[day], monkeypatch) == 0


def test_the_large_products_of_a_100_stock_width_64_day_take_the_blocked_path(monkeypatch):
    assert blocked_calls(DAYS["n100-d64"], monkeypatch) > 10


@pytest.mark.parametrize("rows", [1, T.BLOCK_ROWS - 1, T.BLOCK_ROWS, 2 * T.BLOCK_ROWS + 1, 5 * T.BLOCK_ROWS + 3])
@pytest.mark.parametrize("batched", [False, True])
def test_every_row_is_computed_once_with_the_one_call_bytes(rows, batched, pools):
    rng = np.random.default_rng(rows)
    x = rng.normal(size=(3, rows, 40) if batched else (rows, 40))
    y = rng.normal(size=(3, 40, 24) if batched else (40, 24))
    for pool in pools.values():
        out = pool.product(x, y)
        assert out.shape == np.matmul(x, y).shape
        assert out.tobytes() == np.matmul(x, y).tobytes()


def test_more_threads_than_cores_with_fast_switching_lose_no_block():
    # Every thread claims blocks from one counter; a lost claim would leave
    # a block's rows unwritten. Eight threads, a 1 µs switch interval, 200
    # blocks.
    pool = T.RowBlocks(8)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=(200 * T.BLOCK_ROWS, 8)), rng.normal(size=(8, 4))
    expected = np.matmul(x, y).tobytes()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        start = time.monotonic()
        for _ in range(5):
            assert pool.product(x, y).tobytes() == expected
        assert time.monotonic() - start < 60
    finally:
        sys.setswitchinterval(interval)


def test_pool_threads_run_under_the_callers_error_state(pools):
    # numpy keeps its error state per context: a pool thread that ran in
    # its own would warn on the overflow that the caller chose to ignore.
    big = np.full((64 * T.BLOCK_ROWS, 4), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="ignore"):
            out = pools[2].product(big, big[:4].T.copy())
    assert np.isinf(out).all()


def test_error_in_a_block_reaches_the_caller(pools):
    big = np.full((64 * T.BLOCK_ROWS, 4), 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            pools[2].product(big, big[:4].T.copy())


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
