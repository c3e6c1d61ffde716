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


def test_the_mi_cache_is_a_dict_whose_clearing_makes_the_next_load_parse_again(monkeypatch):
    # bench/run_bench.py --trace 1 clears presets._mi_cache so that its traced
    # set-up reads the MI CSV again
    from lmsharq import presets

    presets.default_mi_table()
    assert isinstance(presets._mi_cache, dict)
    # a copy, so that the process keeps the table the other tests share
    monkeypatch.setattr(presets, "_mi_cache", dict(presets._mi_cache))
    calls = []
    real = presets.parse_mi_csv

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(presets, "parse_mi_csv", counting)
    kept = presets.default_mi_table()
    assert calls == [] and any(value is kept for value in presets._mi_cache.values())
    presets._mi_cache.clear()
    table = presets.default_mi_table()
    assert table is not kept and presets.default_mi_table() is table
    assert calls == [(presets.assets_dir() / presets.MI_TABLE_ASSET).read_bytes().decode()]
