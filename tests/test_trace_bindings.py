"""The benchmark's tracer wraps package functions by module attribute.

bench/spans.py lists every (module, attribute) it replaces; a rename or a
dropped import in the package would make a traced benchmark run fail at
start-up, so each binding must keep resolving to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _bindings():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.SPAN_BINDINGS + spans.COUNT_BINDINGS


@pytest.mark.parametrize("module_name, attr, name", _bindings())
def test_traced_binding_resolves(module_name, attr, name):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({name})"
