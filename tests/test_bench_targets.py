"""Every library name the benchmark reads exists in the library.

``bench/tracing.py`` wraps library functions by (module, attribute) name,
and ``bench/workloads.py`` calls library functions and reads attributes of
the objects they return, so renaming or deleting one breaks benchmark runs;
these checks run with the unit tests rather than only with the benchmark's
own smoke tests.
"""

import ast
import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

from mgdpr.market import align_panel, make_windows
from mgdpr.model import Model, ModelConfig
from mgdpr.synthetic import planted_market
from mgdpr.training import TrainConfig, train

BENCH = Path(__file__).resolve().parents[1] / "bench"

# Attributes that bench/workloads.py reads off objects the library returns:
# (module, class, attribute).
RETURNED_ATTRIBUTES = [
    ("mgdpr.graphs", "MultiRelAdjacency", "matrices"),
    ("mgdpr.market", "InstrumentSeries", "dates"),
    ("mgdpr.market", "MarketPanel", "calendar"),
    ("mgdpr.market", "MarketPanel", "num_days"),
    ("mgdpr.market", "MarketPanel", "num_stocks"),
    ("mgdpr.model", "Model", "config"),
    ("mgdpr.model", "Model", "initialized"),
    ("mgdpr.model", "Model", "params"),
    ("mgdpr.tensor", "Tensor", "item"),
    ("mgdpr.tensor", "Tensor", "shape"),
    ("mgdpr.tensor", "Tensor", "values"),
    ("mgdpr.training", "MetricsReport", "accuracy"),
    ("mgdpr.training", "MetricsReport", "to_dict"),
]

# Names in bench/tracing.py's MODEL_STAGES that a run calls once, not once
# per training or evaluation day.
PER_RUN_STAGES = ("init_params", "save_checkpoint", "load_checkpoint")


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def _targets():
    return _tracing().TARGETS


def _workload_names():
    """(module, attribute) for every name bench/workloads.py imports from an
    ``mgdpr`` module or reads as ``<mgdpr module>.<name>``, from its syntax tree."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {
        alias.asname or alias.name: f"mgdpr.{alias.name}"
        for node in imports
        if node.module == "mgdpr"
        for alias in node.names
    }
    names = {
        (node.module, alias.name)
        for node in imports
        if (node.module or "").startswith("mgdpr.")
        for alias in node.names
    }
    names |= {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    return sorted(names)


@pytest.mark.parametrize("module_name, attr, span", _targets(), ids=str)
def test_traced_target_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} (span {span}) is not a library function"


def test_workload_names_are_found():
    names = _workload_names()
    for expected in [
        ("mgdpr.cli", "model_config"),
        ("mgdpr.graphs", "build_day_graphs"),
        ("mgdpr.model", "Model"),
        ("mgdpr.training", "constraint_term"),
    ]:
        assert expected in names


@pytest.mark.parametrize("module_name, attr", _workload_names(), ids=str)
def test_workload_name_resolves(module_name, attr):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr), f"bench/workloads.py reads {module_name}.{attr}, which the library lacks"


@pytest.mark.parametrize("module_name, cls_name, attr", RETURNED_ATTRIBUTES, ids=str)
def test_returned_attribute_resolves(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name)
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    assert attr in fields or hasattr(cls, attr), f"bench/workloads.py reads {cls_name}.{attr}"


def test_a_desk_epoch_calls_every_per_day_model_name_through_the_attribute_the_tracer_wraps(monkeypatch):
    # A traced name that the library stops calling through that attribute
    # (a fold, a rename, a name imported into another module) reads 0 in
    # the benchmark's layer map, and no run fails.
    tracing = _tracing()
    wrapped = [("mgdpr.model", name) for name in tracing.MODEL_STAGES if name not in PER_RUN_STAGES]
    wrapped.append(("mgdpr.training", "mixture_tensors"))
    assert set(wrapped) <= {(module_name, attr) for module_name, attr, _ in tracing.TARGETS}
    calls = dict.fromkeys(wrapped, 0)
    for module_name, attr in wrapped:
        module = importlib.import_module(module_name)

        def counting(*args, _target=(module_name, attr), _fn=getattr(module, attr), **kwargs):
            calls[_target] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, attr, counting)
    samples = make_windows(align_panel(planted_market(num_stocks=12, num_days=25, momentum_lag=10, seed=90)), 21)
    cfg = ModelConfig(num_stocks=12, lookback=21, num_layers=2, expansion_steps=2, embed_dim=32)
    train(Model.initialized(cfg, seed=90), samples[:3], samples[3:], TrainConfig(epochs=1))
    assert [target for target, count in calls.items() if not count] == []
