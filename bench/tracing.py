"""Outside-in span tracer for the mgdpr benchmark.

The tracer wraps the public entry points of every ``mgdpr`` module in the
namespace the caller reads them from (``mgdpr.tensor.<op>`` for model and
training code, ``mgdpr.model.<stage>`` for the forward pass, and the names
``mgdpr.cli`` and ``mgdpr.training`` import). Nothing inside ``mgdpr`` is
changed: the wrappers are installed only while :meth:`Tracer.active` is
entered and the original functions are restored on exit.

Each call becomes a span (name, start, end, parent) kept in flat in-memory
arrays; :meth:`Tracer.summary` derives per-name calls, inclusive and self
times afterwards. A span's self time is its duration minus the durations
of its direct children, so the self times of all spans plus the time spent
outside any span add up to the traced wall time exactly.
"""

from __future__ import annotations

import importlib
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("tensor", "model", "training", "graphs", "market", "cli")

# The forward ops of mgdpr.tensor that model and training code call.
FORWARD_OPS = (
    "add",
    "sub",
    "hadamard",
    "scale",
    "matmul",
    "add_bias",
    "concat",
    "reshape",
    "transpose",
    "mean_axis",
    "sum_all",
    "softmax",
    "log_softmax",
    "activation",
    "group_normalize",
)

MODEL_STAGES = (
    "forward",
    "init_state",
    "mixture_weights",
    "transition_matrices",
    "diffusion_matrix",
    "diffuse_layer",
    "layer_update",
    "parallel_retention",
    "readout",
    "init_params",
    "save_checkpoint",
    "load_checkpoint",
)

# (namespace module, attribute, span name). A function read from several
# namespaces is wrapped in each of them under one span name.
TARGETS = (
    [("mgdpr.tensor", op, f"tensor.{op}") for op in FORWARD_OPS + ("backward",)]
    + [("mgdpr.model", name, f"model.{name}") for name in MODEL_STAGES]
    + [
        ("mgdpr.cli", "save_checkpoint", "model.save_checkpoint"),
        ("mgdpr.cli", "load_checkpoint", "model.load_checkpoint"),
        ("mgdpr.training", "mixture_tensors", "model.mixture_tensors"),
    ]
    + [
        ("mgdpr.training", name, f"training.{name}")
        for name in ("train", "evaluate", "graphs_for_samples", "cross_entropy_mean", "constraint_term")
    ]
    + [
        ("mgdpr.cli", name, f"training.{name}")
        for name in ("train", "evaluate", "write_metrics_json", "write_trace_csv")
    ]
    + [
        ("mgdpr.graphs", "build_adjacency", "graphs.build_adjacency"),
        ("mgdpr.training", "build_adjacency", "graphs.build_adjacency"),
        ("mgdpr.cli", "build_day_graphs", "graphs.build_day_graphs"),
        ("mgdpr.cli", "write_graphs", "graphs.write_graphs"),
        ("mgdpr.cli", "read_graphs", "graphs.read_graphs"),
    ]
    + [
        ("mgdpr.market", name, f"market.{name}")
        for name in ("align_panel", "make_windows", "split_periods")
    ]
    + [
        ("mgdpr.cli", name, f"market.{name}")
        for name in ("load_csv", "align_panel", "write_panel", "read_panel", "make_windows", "split_periods")
    ]
)

# Spans whose bytes moved through read()/write() system calls are counted.
IO_SPANS = ("graphs.write_graphs", "graphs.read_graphs")


def _proc_io() -> tuple[int, int]:
    """(rchar, wchar) of this process: bytes passed to read() and write()."""
    try:
        with open("/proc/self/io", encoding="ascii") as f:
            fields = dict(line.split(":") for line in f.read().splitlines())
    except OSError:
        return 0, 0
    return int(fields["rchar"]), int(fields["wchar"])


def _fresh_bytes(args, result) -> int:
    """Bytes of an op's output unless it is a view of one of its inputs."""
    values = result.values
    for a in args:
        if hasattr(a, "values") and np.may_share_memory(values, a.values):
            return 0
    return values.nbytes


def _matmul_flop(args) -> int:
    a, b = args[0], args[1]
    batch = a.shape[0] if a.ndim == 3 else 1
    return 2 * batch * a.shape[-2] * a.shape[-1] * b.shape[-1]


class Tracer:
    """In-memory span recorder with install/restore of the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("q")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def root_name(self) -> str:
        """Name of the outermost open span ('' outside any span)."""
        return self.names[self._name[self._stack[0]]] if self._stack else ""

    @contextmanager
    def span(self, name: str):
        """An explicit span around a block, e.g. one CLI command."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        op = name.split(".", 1)[1]
        tensor_op = name.startswith("tensor.") and op != "backward"
        io = name in IO_SPANS

        def wrapper(*args, **kwargs):
            if io:
                before = _proc_io()
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            # Counting happens outside the span so op self times stay clean;
            # its cost shows up in the caller's self time and in the
            # measured tracing overhead.
            if tensor_op:
                self.count("tensor.fwd_out_bytes", _fresh_bytes(args, result))
                if op == "matmul":
                    self.count("tensor.matmul_flop", _matmul_flop(args))
            elif io:
                after = _proc_io()
                self.count(f"{name}.rchar@{self.root_name()}", after[0] - before[0])
                self.count(f"{name}.wchar", after[1] - before[1])
            elif name == "model.save_checkpoint":
                self.count("model.checkpoint_bytes", os.path.getsize(args[0]))
            elif name == "market.load_csv":
                self.count("market.rows_loaded", sum(len(series) for series in result))
            return result

        return wrapper

    @contextmanager
    def active(self):
        """Install every wrapper, run the block, then restore the originals."""
        saved = []
        try:
            for module_name, attr, span_name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> "SpanSummary":
        return SpanSummary(self)


class SpanSummary:
    """Per-name calls, inclusive and self seconds derived from the spans."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.counters = dict(tracer.counters)
        name = np.frombuffer(tracer._name, dtype=np.int64).copy()
        start = np.frombuffer(tracer._start, dtype=np.float64).copy()
        end = np.frombuffer(tracer._end, dtype=np.float64).copy()
        parent = np.frombuffer(tracer._parent, dtype=np.int64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        self._name = name
        self._dur = dur
        self._self = dur - child
        self._parent_name = np.where(nested, name[np.where(nested, parent, 0)], -1)
        self.root_s = float(dur[~nested].sum())
        self.num_spans = int(name.size)

    def _mask(self, name: str, parent: str | None = None):
        if name not in self.names:
            return np.zeros(self._name.shape, dtype=bool)
        mask = self._name == self.names.index(name)
        if parent is not None:
            pid = self.names.index(parent) if parent in self.names else -2
            mask &= self._parent_name == pid
        return mask

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._mask(name, parent).sum())

    def incl(self, name: str, parent: str | None = None) -> float:
        return float(self._dur[self._mask(name, parent)].sum())

    def self_s(self, name: str) -> float:
        return float(self._self[self._mask(name)].sum())

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return float(self._self[np.isin(self._name, ids)].sum())

    def table(self) -> list[dict]:
        """One row per span name: calls, inclusive and self seconds."""
        rows = []
        for i, n in enumerate(self.names):
            mask = self._name == i
            rows.append(
                {
                    "name": n,
                    "calls": int(mask.sum()),
                    "incl_s": float(self._dur[mask].sum()),
                    "self_s": float(self._self[mask].sum()),
                }
            )
        return sorted(rows, key=lambda r: -r["self_s"])


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(s: SpanSummary, traced_wall: float, passes: int, overhead: float) -> dict[str, float]:
    """The per-layer metrics of BENCHMARK.json from one traced run.

    Op and stage metrics are per forward day (train and eval), backward and
    the training loop per training day, evaluation per evaluated day; the
    set-up, cache and CLI metrics are per pass (one library set-up or one
    CLI pipeline). ``model.*_s`` stage times are inclusive of the tensor ops
    they call; ``*.self_s`` and ``*.self_share`` are self times.
    """
    days = s.calls("model.forward")
    train_days = s.calls("model.forward", parent="training.train")
    eval_days = s.calls("model.forward", parent="training.evaluate")
    fwd = "model.forward"
    m: dict[str, float] = {}

    m["tensor.fwd_ops"] = _div(sum(s.calls(f"tensor.{op}") for op in FORWARD_OPS), days)
    for op in FORWARD_OPS:
        m[f"tensor.{op}.calls"] = _div(s.calls(f"tensor.{op}"), days)
        m[f"tensor.{op}.self_s"] = _div(s.self_s(f"tensor.{op}"), days)
    m["tensor.backward_s"] = _div(s.self_s("tensor.backward"), train_days)
    m["tensor.fwd_out_mb"] = _div(s.counters.get("tensor.fwd_out_bytes", 0.0) / 1e6, days)
    flop = s.counters.get("tensor.matmul_flop", 0.0)
    m["tensor.matmul_gflop"] = _div(flop / 1e9, days)
    m["tensor.matmul_gflop_per_s"] = _div(flop / 1e9, s.self_s("tensor.matmul"))

    m["model.train_forward_s"] = _div(s.incl(fwd, parent="training.train"), train_days)
    m["model.eval_forward_s"] = _div(s.incl(fwd, parent="training.evaluate"), eval_days)
    m["model.embed_s"] = _div(s.incl("model.init_state"), days)
    diffusion = sum(
        s.incl(f"model.{name}", parent=fwd)
        for name in ("mixture_weights", "transition_matrices", "diffusion_matrix", "diffuse_layer")
    )
    m["model.diffusion_s"] = _div(diffusion, days)
    retention = s.incl("model.parallel_retention")
    m["model.retention_s"] = _div(retention, days)
    m["model.update_s"] = _div(s.incl("model.layer_update") - retention, days)
    m["model.readout_s"] = _div(s.incl("model.readout"), days)
    saves = s.calls("model.save_checkpoint")
    m["model.checkpoint_save_s"] = _div(s.incl("model.save_checkpoint"), saves)
    m["model.checkpoint_load_s"] = _div(s.incl("model.load_checkpoint"), s.calls("model.load_checkpoint"))
    m["model.checkpoint_mb"] = _div(s.counters.get("model.checkpoint_bytes", 0.0) / 1e6, saves)

    objective = (
        s.incl("training.cross_entropy_mean", parent="training.train")
        + s.incl("training.constraint_term")
        + s.incl("model.mixture_tensors")
    )
    m["training.objective_s"] = _div(objective, train_days)
    m["training.optimizer_s"] = _div(s.self_s("training.train"), train_days)
    m["training.evaluate_s"] = _div(s.self_s("training.evaluate"), eval_days)
    m["training.graphs_for_samples_s"] = _div(s.incl("training.graphs_for_samples"), passes)

    m["graphs.build_s"] = _div(s.self_s("graphs.build_adjacency") + s.self_s("graphs.build_day_graphs"), passes)
    m["graphs.adjacencies_built"] = _div(s.calls("graphs.build_adjacency"), passes)
    written = s.counters.get("graphs.write_graphs.wchar", 0.0)
    read = sum(v for k, v in s.counters.items() if k.startswith("graphs.read_graphs.rchar@"))
    m["graphs.write_s"] = _div(s.incl("graphs.write_graphs"), passes)
    m["graphs.bytes_written"] = _div(written / 1e6, passes)
    m["graphs.read_s"] = _div(s.incl("graphs.read_graphs"), passes)
    m["graphs.bytes_read"] = _div(read / 1e6, passes)
    m["graphs.read_ratio"] = _div(s.counters.get("graphs.read_graphs.rchar@cli.train", 0.0), written)

    m["market.load_csv_s"] = _div(s.incl("market.load_csv"), passes)
    m["market.rows_loaded"] = _div(s.counters.get("market.rows_loaded", 0.0), passes)
    m["market.align_s"] = _div(s.incl("market.align_panel"), passes)
    m["market.write_panel_s"] = _div(s.incl("market.write_panel"), passes)
    m["market.read_panel_s"] = _div(s.incl("market.read_panel"), passes)
    m["market.windows_s"] = _div(s.incl("market.make_windows") + s.incl("market.split_periods"), passes)

    for cmd in ("ingest", "graph", "train", "eval"):
        m[f"cli.{cmd}.self_s"] = _div(s.self_s(f"cli.{cmd}"), passes)

    for layer in LAYERS:
        m[f"{layer}.self_share"] = _div(s.layer_self(layer), traced_wall)
    m["trace.unattributed_share"] = _div(traced_wall - s.root_s, traced_wall)
    m["trace.overhead"] = overhead
    return m
