"""Every function the benchmark tracer wraps exists in the library.

``bench/tracing.py`` wraps library functions by (module, attribute) name,
so renaming or deleting one breaks traced benchmark runs; this check runs
with the unit tests rather than only with the benchmark's own smoke tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets(), ids=str)
def test_traced_target_resolves(module_name, attr, span):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} (span {span}) is not a library function"
