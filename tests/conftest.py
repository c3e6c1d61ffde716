"""Shared fixtures: shipped assets, calibration CDFs and the full-length
simulation grid that the acceptance tests read their numbers from.

The expensive fixtures are session scoped and lazy, so a unit-test-only
invocation never pays for the 10 minute grid.
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lmsharq import presets
from lmsharq.metrics import RunMetrics
from lmsharq.sim import SCHEMES, SimConfig, calibration_cdf, sweep

SWEEP_ES_DB = tuple(range(7, 14))

# criterion number -> (passed, detail), filled by the acceptance tests
ACCEPTANCE_RESULTS: dict[int, tuple[bool, str]] = {}


@pytest.fixture(scope="session")
def mi_table():
    return presets.default_mi_table()


@pytest.fixture(scope="session")
def code_spec(mi_table):
    return presets.default_code_spec(mi_table)


@pytest.fixture(scope="session")
def its_model():
    return presets.load_environment("its")


@pytest.fixture(scope="session")
def open_model():
    return presets.load_environment("open")


@pytest.fixture(scope="session")
def its_calib_cdf(its_model):
    return calibration_cdf(its_model)


@pytest.fixture(scope="session")
def open_calib_cdf(open_model):
    return calibration_cdf(open_model)


def numpy_simd_path() -> str:
    """The NumPy version and the SIMD extensions it dispatches to. NumPy
    picks its float kernels by CPU feature, so a byte pin holds for one
    NumPy build on one SIMD path; a pin's failure message says which ran."""
    try:
        found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except TypeError:  # a NumPy whose show_config takes no mode
        return f"NumPy {np.__version__}"
    return f"NumPy {np.__version__} on SIMD path {' '.join(found)}"


def run_one(config, model, spec, mi_table):
    """The RunLog of one config, played as a sweep of one."""
    [log] = sweep([config], model, spec=spec, mi_table=mi_table)
    return log


def _grid(env, model, spec, table, schemes, probs="case3"):
    """Full-length runs over the sweep grid; metrics only, logs dropped."""
    base = SimConfig(environment=env, probs_preset=probs)
    out = {}
    for scheme in schemes:
        for es in SWEEP_ES_DB:
            cfg = replace(base, scheme=scheme, es_n0_ref_db=float(es))
            t0 = time.perf_counter()
            log = run_one(cfg, model, spec, table)
            elapsed = time.perf_counter() - t0
            out[scheme, es] = (RunMetrics.from_log(log), elapsed)
    return out


@pytest.fixture(scope="session")
def its_grid(its_model, code_spec, mi_table):
    """(scheme, es_db) -> (RunMetrics, run seconds) on the shadowed track."""
    return _grid("its", its_model, code_spec, mi_table, SCHEMES)


@pytest.fixture(scope="session")
def open_grid(open_model, code_spec, mi_table):
    """(scheme, es_db) -> (RunMetrics, run seconds) on the open track."""
    return _grid("open", open_model, code_spec, mi_table, SCHEMES)


@pytest.fixture(scope="session")
def case_grid(its_model, code_spec, mi_table):
    """(probs preset, es_db) -> RunMetrics for the adaptive scheme."""
    out = {}
    for preset in ("case1", "case2"):
        grid = _grid("its", its_model, code_spec, mi_table, ("adaptive",), probs=preset)
        for (_, es), (m, _) in grid.items():
            out[preset, es] = m
    return out


@pytest.fixture(scope="session")
def fresh_mi_build():
    """A from-scratch default MI table build and its wall-clock seconds."""
    from lmsharq.mi import build_mi_table

    t0 = time.perf_counter()
    table = build_mi_table()
    return table, time.perf_counter() - t0


@pytest.fixture
def acceptance(request):
    """Record one acceptance criterion verdict and assert it."""

    def record(criterion: int, passed: bool, detail: str) -> None:
        ACCEPTANCE_RESULTS[criterion] = (bool(passed), detail)
        assert passed, f"criterion {criterion}: {detail}"

    return record


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "grid: consumes the session-scoped full-length simulation grids"
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[k]
        verdict = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {k:2d}: {verdict}  {detail}")
