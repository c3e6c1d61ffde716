"""Shipped assets and calibrated defaults.

The package bundles two stand-in channel parameter sets ("its" for a
tree-shadowed track, "open" for a mostly clear one), a digitized word
error rate curve for the rate-1/6 mother code, and a cached per-bit MI
table. The asset directory can be overridden with the LMSHARQ_ASSETS
environment variable to swap in real measured parameters.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from lmsharq import fec
from lmsharq.channel import LmsModel, load_model
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec
from lmsharq.mi import MiTable, load_mi_csv

ASSETS_ENV_VAR = "LMSHARQ_ASSETS"
ENVIRONMENTS = ("its", "open")
MI_TABLE_ASSET = "qpsk_mi.csv"
WER_CURVE_ASSET = "turbo_8920_r16_wer.csv"


def assets_dir() -> Path:
    override = os.environ.get(ASSETS_ENV_VAR)
    if override:
        path = Path(override)
        if not path.is_dir():
            raise ConfigError(
                f"{ASSETS_ENV_VAR} points at {override!r}, which is not a directory"
            )
        return path
    return Path(str(resources.files("lmsharq") / "assets"))


def environment_path(name: str) -> Path:
    """Resolve a named environment or pass a file path through."""
    if name in ENVIRONMENTS:
        return assets_dir() / f"{name}.ini"
    return Path(name)


def load_environment(name: str) -> LmsModel:
    return load_model(environment_path(name))


def load_reference_wer() -> list[tuple[float, float]]:
    return fec.load_wer_curve(assets_dir() / WER_CURVE_ASSET)


_mi_cache: dict[str, MiTable] = {}


def default_mi_table() -> MiTable:
    """The MI table of the asset directory.

    A directory without one is an error, not a cue for a Monte Carlo
    rebuild; `lmsharq mi-table --out <dir>/qpsk_mi.csv` writes the default
    table, which reproduces the shipped file bit for bit.
    """
    key = str(assets_dir())
    if key not in _mi_cache:
        path = Path(key) / MI_TABLE_ASSET
        if not path.is_file():
            raise FileNotFoundError(
                f"no MI table at {path}; create it with "
                f"`lmsharq mi-table --out {path}`"
            )
        _mi_cache[key] = load_mi_csv(path)
    return _mi_cache[key]


def default_code_spec(mi_table: MiTable | None = None) -> CodeSpec:
    """Mother code spec with MI requirement calibrated from the WER curve."""
    if mi_table is None:
        mi_table = default_mi_table()
    mi_req = fec.calibrate_mi_req(load_reference_wer(), fec.TARGET_WER, mi_table)
    return CodeSpec(mi_req_per_bit=mi_req)
