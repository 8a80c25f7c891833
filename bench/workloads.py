"""The three benchmark workloads and the bookkeeping they share.

Every workload generates its input market from the seed with
``mgdpr.synthetic`` before anything is timed, then runs set-up, a fixed
part that the quality metrics come from, and a repeated operation that
adds timing samples until ``--seconds`` of measuring have passed. Each
repetition of that operation does identical work and must give
bit-identical results, which the workload checks.

Library calls go through the module attribute (``training.train``, not a
name imported here) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import signal
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

from mgdpr import cli, graphs, market, synthetic, training
from mgdpr import model as model_mod
from mgdpr.model import Model, ModelConfig
from mgdpr.training import CONSTRAINT_TOLERANCE, TrainConfig

# The library workloads set up SETUP_REPEATS times before measuring and
# SETUPS_PER_REPEAT times in every repetition, so that set-up samples are
# spread over the whole run; their median is the reported set-up time.
SETUP_REPEATS = 5
SETUPS_PER_REPEAT = 3
# A traced run makes at least this many repetitions of its operation, half
# of them traced, for the tracing overhead.
TRACED_REPEATS = 4

# The speed of a shared machine drifts by tens of percent within seconds:
# on the 2-core VM the benchmark was written on it switches between a fast
# and a 1.5x slower state every 2-10 s. A fixed calibration kernel of about
# 2-3 ms measures that speed. It runs CALIBRATION_BRACKET times before and
# after every timed operation and, while an untraced operation runs, from a
# SIGALRM handler every SAMPLE_INTERVAL_S seconds, so that a call of
# several seconds is rescaled by the speed during the call and not only at
# its ends. The handler's time is taken out of the call's wall time, and
# the wall time is rescaled to a machine on which the kernel takes its
# reference time (about its median on that VM). Raw times stay in the run
# record.
CALIBRATION_BRACKET = 3
SAMPLE_INTERVAL_S = 0.1
_rng = np.random.default_rng(0)
_SMALL = _rng.normal(size=(32, 32))
_SQUARE = _rng.normal(size=(256, 256))
_FLOATS = _rng.normal(size=1200).tolist()
_LONG = _rng.normal(size=500_000)


def mixed_kernel() -> None:
    """A fixed mix of the work the library workloads do: small-op dispatch,
    BLAS matmul, float text, a memory-bound elementwise pass."""
    for _ in range(60):
        np.exp(np.matmul(_SMALL, _SMALL) * 1e-3).sum()
    np.matmul(_SQUARE, _SQUARE)
    sum(float(repr(x)) for x in _FLOATS[:500])
    (_LONG * 1.5 + 1.0).sum()


def text_kernel() -> None:
    """Float text round trips, the bulk of the CLI's work on its CSV files."""
    sum(float(repr(x)) for x in _FLOATS)


# Each workload's kernel and its reference time. The CLI commands parse and
# format text; on the reference VM their wall time tracked the text kernel
# one to one (log-log slope 1.0, correlation 0.95-0.98) and the other parts
# of the mixed kernel less closely (slopes 0.2-1.9), so cli-pipeline uses
# the text kernel alone. The mixed kernel's reference is its time with one
# BLAS thread.
KERNELS = {
    "desk-train": (mixed_kernel, 0.0035),
    "wide-step": (mixed_kernel, 0.0035),
    "cli-pipeline": (text_kernel, 0.0017),
}


class SpeedSampler:
    """Times a calibration kernel, also from a timer signal while active."""

    def __init__(self, kernel, reference_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.kernel_s: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.kernel_s.append(self.time_kernel()))

    def time_kernel(self) -> float:
        start = time.perf_counter()
        self.kernel()
        return time.perf_counter() - start

    @contextlib.contextmanager
    def active(self):
        self.kernel_s = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, kernel_s: list[float]) -> float:
        """Work done per second is proportional to 1/kernel time; samples
        evenly spaced in time give the mean speed over their interval."""
        return statistics.mean(self.reference_s / k for k in kernel_s)


# Shapes per workload; "toy" runs the same code at a size that finishes in
# seconds, for the harness smoke test.
SHAPES = {
    "desk-train": {
        "full": dict(
            stocks=12, days=60, held_days=10, lookback=21, embed_dim=32, layers=2, steps=2,
            epochs=30, repeat_epochs=5,
        ),
        "toy": dict(
            stocks=6, days=30, held_days=6, lookback=8, embed_dim=8, layers=1, steps=2,
            epochs=4, repeat_epochs=2,
        ),
    },
    "wide-step": {
        "full": dict(stocks=100, lookback=21, embed_dim=256, layers=8, steps=7, train_days=2, eval_days=2),
        "toy": dict(stocks=8, lookback=8, embed_dim=16, layers=2, steps=2, train_days=2, eval_days=2),
    },
    "cli-pipeline": {
        "full": dict(stocks=100, days=50, lookback=21, embed_dim=8, layers=1, steps=2, epochs=3, val_days=6, test_days=7),
        "toy": dict(stocks=4, days=30, lookback=5, embed_dim=8, layers=1, steps=2, epochs=2, val_days=5, test_days=6),
    },
}

# The planted market of acceptance criterion 7.
MOMENTUM_LAG = 10
MOVE = 0.02
LABEL_NOISE = 0.05
# desk-train uses a larger step than the 2.5e-4 default so that held-out
# accuracy has plateaued within one run's fixed 30 epochs.
DESK_LEARNING_RATE = 3e-3
# An evaluation on desk-train takes about 60 ms, a twentieth of a
# repetition; it is repeated for more samples of it.
DESK_EVAL_REPEATS = 3


class Run:
    """Samples, values, operation counts and checks of one workload run."""

    def __init__(self, seconds: float, kernel, tracer=None):
        self.seconds = seconds
        self.tracer = tracer
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.checks: list[dict] = []
        self.info: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.traced_wall = 0.0
        self.passes = 0
        self.op_walls: dict[bool, list[float]] = {True: [], False: []}
        self.calls: list[dict] = []
        self.sampler = SpeedSampler(*kernel)
        self._tracing = False
        self._measure_start = time.perf_counter()

    def start_measuring(self) -> None:
        self._measure_start = time.perf_counter()

    def more(self, done: int, last_wall: float, minimum: int) -> bool:
        """Whether to start another repetition: at least half of one as long
        as the last must still fit into the run's seconds."""
        if done < minimum:
            return True
        return time.perf_counter() - self._measure_start + last_wall / 2 <= self.seconds

    def traced_turn(self, k: int) -> bool:
        """In a traced run, alternate traced and untraced repetitions."""
        return self.tracer is not None and k % 2 == 0

    def min_repeats(self, untraced: int) -> int:
        return TRACED_REPEATS if self.tracer is not None else untraced

    def call(self, fn, traced: bool = True):
        """Run the operation ``fn()``: returns (calibrated seconds, result).

        ``fn`` looks library functions up when called, so that it calls the
        tracer's wrappers while they are installed.
        """
        self.attempted += 1
        tracing = self.tracer is not None and traced
        # Tracer spans would count the signal handler's time, so traced
        # calls are rescaled by the bracketing kernels only.
        scope = self.tracer.active() if tracing else self.sampler.active()
        kernels = [self.sampler.time_kernel() for _ in range(CALIBRATION_BRACKET)]
        self._tracing = tracing
        try:
            with scope:
                start = time.perf_counter()
                result = fn()
                wall = time.perf_counter() - start
        except Exception:
            self.failed += 1
            raise
        finally:
            self._tracing = False
        sampled = [] if tracing else self.sampler.kernel_s
        wall -= sum(sampled)
        kernels += sampled + [self.sampler.time_kernel() for _ in range(CALIBRATION_BRACKET)]
        speed = self.sampler.speed(kernels)
        self.calls.append({"wall_s": wall, "speed": speed, "in_call_samples": len(sampled), "traced": tracing})
        if tracing:
            self.traced_wall += wall
        return wall * speed, result

    def span(self, name: str):
        return self.tracer.span(name) if self._tracing else contextlib.nullcontext()

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def value(self, name: str, value: float) -> None:
        self.values[name] = float(value)

    def slowdown(self) -> float:
        """Median over the calls of 1/speed (>1: slower than the reference)."""
        return statistics.median(1 / c["speed"] for c in self.calls)

    def results(self) -> dict[str, float]:
        """Median of each sampled metric, plus the single values."""
        out = {name: statistics.median(values) for name, values in self.samples.items()}
        out.update(self.values)
        return out


def _loss_bits(trace) -> list[str]:
    return [float(loss).hex() for _, loss, _ in trace]


def _params_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        a[k].values.tobytes() == b[k].values.tobytes() and a[k].shape == b[k].shape for k in a
    )


def _setup(run: Run, build, traced: bool = True) -> tuple:
    """Run the set-up ``build`` once and record set-up and graph-build times."""
    wall, result = run.call(build, traced)
    run.sample("setup_s", wall)
    run.sample("graph_cmd_s", result[-1] * run.calls[-1]["speed"])
    run.passes += run.tracer is not None and traced
    return result[:-1]


def _library_setup(run: Run, build) -> tuple:
    for _ in range(SETUP_REPEATS):
        result = _setup(run, build)
    return result


def _timed_graphs(run: Run, samples):
    """graphs_for_samples and its wall time, less the speed sampler's."""
    sampled = len(run.sampler.kernel_s)
    start = time.perf_counter()
    built = training.graphs_for_samples(samples)
    wall = time.perf_counter() - start
    return built, wall - sum(run.sampler.kernel_s[sampled:])


def _common_checks(run: Run, mdl: Model, trace, work: Path) -> None:
    """Finite losses, the simplex constraint, and a checkpoint round trip."""
    run.check("loss trace is finite", all(math.isfinite(loss) for _, loss, _ in trace))
    penalty = training.constraint_term(model_mod.mixture_tensors(mdl.params, mdl.config)).item()
    run.check(
        "constraint term below CONSTRAINT_TOLERANCE",
        abs(penalty) < CONSTRAINT_TOLERANCE,
        f"{penalty:.3e}",
    )
    path = work / "checkpoint.bin"
    run.call(lambda: model_mod.save_checkpoint(path, mdl))
    _, loaded = run.call(lambda: model_mod.load_checkpoint(path, mdl.config))
    run.check("checkpoint round trip reproduces the parameters", _params_equal(mdl.params, loaded.params))
    run.value("cache_mb", path.stat().st_size / 1e6)
    path.unlink()


def desk_train(run: Run, seed: int, shape: dict, work: Path) -> None:
    series = synthetic.planted_market(
        num_stocks=shape["stocks"],
        num_days=shape["days"],
        momentum_lag=MOMENTUM_LAG,
        move=MOVE,
        label_noise=LABEL_NOISE,
        seed=seed,
    )
    cfg = ModelConfig(
        num_stocks=shape["stocks"],
        lookback=shape["lookback"],
        num_layers=shape["layers"],
        expansion_steps=shape["steps"],
        embed_dim=shape["embed_dim"],
        num_groups=4,
    )

    def build():
        panel = market.align_panel(series)
        samples = market.make_windows(panel, cfg.lookback)
        cal = panel.calendar
        held = shape["held_days"]
        train_s, _, held_s = market.split_periods(
            samples, (cal[0], cal[-held - 1]), None, (cal[-held], cal[-1])
        )
        built, graph_wall = _timed_graphs(run, samples)
        return train_s, held_s, built, Model.initialized(cfg, seed=seed), graph_wall

    train_s, held_s, built, mdl = _library_setup(run, build)
    run.info["train_days"] = len(train_s)
    run.info["held_out_days"] = len(held_s)
    run.start_measuring()

    # Fixed part: the quality metrics come from one full training run.
    tcfg = TrainConfig(epochs=shape["epochs"], learning_rate=DESK_LEARNING_RATE)
    wall, (_, trace) = run.call(lambda: training.train(mdl, train_s, [], tcfg, graphs=built))
    run.info["main_train_s"] = wall
    wall, train_report = run.call(lambda: training.evaluate(mdl, train_s, built))
    run.sample("eval_days_per_s", len(train_s) / wall)
    wall, held_report = run.call(lambda: training.evaluate(mdl, held_s, built))
    run.sample("eval_days_per_s", len(held_s) / wall)
    run.value("train_loss", trace[-1][1])
    run.value("heldout_acc", held_report.accuracy)
    run.info["train_acc"] = train_report.accuracy
    _common_checks(run, mdl, trace, work)

    # Repetition: set up again, retrain the first epochs from the same
    # initialization and re-evaluate the trained model a few times; training
    # and evaluation must match the fixed part exactly.
    repeat = TrainConfig(epochs=shape["repeat_epochs"], learning_rate=DESK_LEARNING_RATE)
    k, last = 0, 0.0
    while run.more(k, last, minimum=run.min_repeats(1)):
        traced = run.traced_turn(k)
        k += 1
        try:
            for _ in range(SETUPS_PER_REPEAT):
                _setup(run, build, traced)
            fresh = Model.initialized(cfg, seed=seed)
            wall, (_, rtrace) = run.call(
                lambda: training.train(fresh, train_s, [], repeat, graphs=built), traced
            )
            evals = [
                run.call(lambda: training.evaluate(mdl, held_s, built), traced)
                for _ in range(DESK_EVAL_REPEATS)
            ]
        except Exception:
            traceback.print_exc()  # counted as failed by Run.call
            continue
        last = wall + sum(ewall for ewall, _ in evals)
        run.op_walls[traced].append(wall)
        run.sample("train_days_per_s", len(train_s) * repeat.epochs / wall)
        run.sample("train_cmd_s", wall)
        run.check(
            "loss trace bit-identical across repeats",
            _loss_bits(rtrace) == _loss_bits(trace[: repeat.epochs]),
        )
        for ewall, report in evals:
            run.sample("eval_days_per_s", len(held_s) / ewall)
            run.sample("eval_cmd_s", ewall)
            run.check("evaluation identical across repeats", report.to_dict() == held_report.to_dict())


def wide_step(run: Run, seed: int, shape: dict, work: Path) -> None:
    n_train, n_eval = shape["train_days"], shape["eval_days"]
    series = synthetic.planted_market(
        num_stocks=shape["stocks"],
        num_days=shape["lookback"] + n_train + n_eval + 1,
        momentum_lag=MOMENTUM_LAG,
        move=MOVE,
        label_noise=LABEL_NOISE,
        seed=seed,
    )
    cfg = ModelConfig(
        num_stocks=shape["stocks"],
        lookback=shape["lookback"],
        num_layers=shape["layers"],
        expansion_steps=shape["steps"],
        embed_dim=shape["embed_dim"],
    )

    def build():
        panel = market.align_panel(series)
        samples = market.make_windows(panel, cfg.lookback)
        built, graph_wall = _timed_graphs(run, samples)
        return samples[:n_train], samples[n_train:], built, Model.initialized(cfg, seed=seed), graph_wall

    train_s, eval_s, built, mdl = _library_setup(run, build)
    params0 = mdl.params
    tcfg = TrainConfig(epochs=1)

    # Warm-up: the first pass over about 4 GB of fresh buffers pays page
    # faults that a long training run pays once; it is recorded, not sampled.
    wall, (params1, trace) = run.call(lambda: training.train(mdl, train_s, [], tcfg, graphs=built), False)
    run.info["warmup_train_s"] = wall
    trained = Model(config=cfg, params=params1)
    run.value("train_loss", trace[-1][1])
    run.start_measuring()

    first_report = None
    k, last = 0, 0.0
    while run.more(k, last, minimum=run.min_repeats(1)):
        traced = run.traced_turn(k)
        k += 1
        try:
            for _ in range(SETUPS_PER_REPEAT):
                _setup(run, build, traced)
            mdl.params = params0
            wall, (_, rtrace) = run.call(lambda: training.train(mdl, train_s, [], tcfg, graphs=built), traced)
            ewall, report = run.call(lambda: training.evaluate(trained, eval_s, built), traced)
        except Exception:
            traceback.print_exc()  # counted as failed by Run.call
            continue
        last = wall + ewall
        run.op_walls[traced].append(wall)
        run.sample("train_days_per_s", n_train * tcfg.epochs / wall)
        run.sample("train_cmd_s", wall)
        run.sample("eval_days_per_s", n_eval / ewall)
        run.sample("eval_cmd_s", ewall)
        run.check("loss bit-identical across repeats", _loss_bits(rtrace) == _loss_bits(trace))
        if first_report is None:
            first_report = report
            run.value("heldout_acc", report.accuracy)
        run.check("evaluation identical across repeats", report.to_dict() == first_report.to_dict())
    _common_checks(run, trained, trace, work)


def _cache_bytes(ws: Path) -> int:
    files = [p for p in (ws / "cache").rglob("*") if p.is_file()]
    return sum(p.stat().st_size for p in files) + (ws / "out" / "checkpoint.bin").stat().st_size


# The commands of one pipeline. An untraced pipeline repeats the commands
# other than `graph`, which takes a third of it, for more samples of them;
# each repeat rewrites the same panel cache, checkpoint or metrics.json.
# `eval`, the shortest of them, runs twice after each `train`, so that its
# samples are spread over the pipeline. A traced pipeline runs each command
# once, so that the per-pass metrics count one of each.
PIPELINE = ("ingest", "graph", "train", "eval")
SAMPLED_PIPELINE = ("ingest",) * 3 + ("graph",) + ("train", "eval", "eval") * 3
COMMAND_METRIC = {"ingest": "setup_s", "graph": "graph_cmd_s", "train": "train_cmd_s", "eval": "eval_cmd_s"}


def cli_pipeline(run: Run, seed: int, shape: dict, work: Path) -> None:
    series = synthetic.planted_market(
        num_stocks=shape["stocks"],
        num_days=shape["days"],
        momentum_lag=MOMENTUM_LAG,
        move=MOVE,
        label_noise=LABEL_NOISE,
        seed=seed,
    )
    data_dir = work / "data"
    synthetic.write_series_csv(series, data_dir)
    cal = series[0].dates
    val, test = shape["val_days"], shape["test_days"]
    splits = {
        "split.train": [cal[0], cal[-val - test - 1]],
        "split.val": [cal[-val - test], cal[-test - 1]],
        "split.test": [cal[-test], cal[-1]],
    }
    lookback = shape["lookback"]
    windows = market.make_windows(market.align_panel(series), lookback)
    train_s, _, test_s = market.split_periods(
        windows, *(tuple(splits[k]) for k in ("split.train", "split.val", "split.test"))
    )
    run.info["train_days"] = len(train_s)
    run.info["test_days"] = len(test_s)
    run.info["graph_days"] = len(windows)

    def command(name: str, config: Path) -> int:
        with run.span(f"cli.{name}"), contextlib.redirect_stdout(io.StringIO()):
            return cli.main([name, "--config", str(config)])

    run.start_measuring()
    first_metrics = None
    k, last = 0, 0.0
    while run.more(k, last, minimum=run.min_repeats(2)):
        traced = run.traced_turn(k)
        ws = work / f"pipeline{k}"
        k += 1
        config = {
            "market": "planted",
            "paths.data_dir": str(data_dir),
            "paths.cache_dir": str(ws / "cache"),
            "paths.output_dir": str(ws / "out"),
            **splits,
            "model.lookback": lookback,
            "model.num_layers": shape["layers"],
            "model.expansion_steps": shape["steps"],
            "model.embed_dim": shape["embed_dim"],
            "model.num_groups": 4,
            "train.epochs": shape["epochs"],
            "train.seed": seed,
        }
        ws.mkdir(parents=True)
        config_path = ws / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        walls = []
        try:
            for name in PIPELINE if traced else SAMPLED_PIPELINE:
                wall, code = run.call(lambda: command(name, config_path), traced)
                walls.append((name, wall))
                run.check(f"mgdpr {name} exits 0", code == 0, f"exit {code}")
        except Exception:
            traceback.print_exc()  # counted as failed by Run.call
            shutil.rmtree(ws)
            continue
        last = sum(wall for _, wall in walls)
        # The tracing overhead compares one of each command on both sides.
        first: dict[str, float] = {}
        for name, wall in walls:
            first.setdefault(name, wall)
        run.op_walls[traced].append(sum(first.values()))
        run.passes += traced
        for name, wall in walls:
            run.sample(COMMAND_METRIC[name], wall)
            if name == "train":
                run.sample("train_days_per_s", len(train_s) * shape["epochs"] / wall)
            elif name == "eval":
                run.sample("eval_days_per_s", len(test_s) / wall)

        metrics_bytes = (ws / "out" / "metrics.json").read_bytes()
        if first_metrics is None:
            first_metrics = metrics_bytes
            run.value("heldout_acc", json.loads(metrics_bytes)["acc"])
            last_row = (ws / "out" / "trace.csv").read_text().splitlines()[-1]
            run.value("train_loss", float(last_row.split(",")[1]))
            run.value("cache_mb", _cache_bytes(ws) / 1e6)
            _check_cli_outputs(run, ws, config_path, lookback)
        run.check("metrics.json byte-identical across repeats", metrics_bytes == first_metrics)
        shutil.rmtree(ws)


def _check_cli_outputs(run: Run, ws: Path, config_path: Path, lookback: int) -> None:
    """Graph cache and checkpoint of one pipeline against the library."""
    panel = market.read_panel(ws / "cache" / "panel")
    days = list(range(lookback - 1, panel.num_days - 1))
    probe = sorted({days[0], days[len(days) // 2], days[-1]})
    cached = graphs.read_graphs(ws / "cache" / "graphs", days=probe)
    same = all(
        cached[t].matrices.tobytes() == graphs.build_day_graphs(panel, t, lookback).matrices.tobytes()
        for t in probe
    )
    run.check("cached graphs equal build_day_graphs bit for bit", same, f"days {probe}")

    cfg = cli.model_config(cli.load_config(config_path), panel.num_stocks)
    ckpt = ws / "out" / "checkpoint.bin"
    loaded = model_mod.load_checkpoint(ckpt, cfg)
    copy = ws / "checkpoint_copy.bin"
    model_mod.save_checkpoint(copy, loaded)
    reloaded = model_mod.load_checkpoint(copy, cfg)
    run.check(
        "checkpoint round trip reproduces the parameters",
        copy.read_bytes() == ckpt.read_bytes() and _params_equal(loaded.params, reloaded.params),
    )


WORKLOADS = {
    "desk-train": desk_train,
    "wide-step": wide_step,
    "cli-pipeline": cli_pipeline,
}
