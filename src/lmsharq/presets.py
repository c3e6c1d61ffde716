"""Shipped assets and calibrated defaults.

The package bundles two stand-in channel parameter sets ("its" for a
tree-shadowed track, "open" for a mostly clear one), a digitized word
error rate curve for the rate-1/6 mother code, and a cached per-bit MI
table. The name "clear-sky" stands for the unfaded channel, which needs
no file. The asset directory can be overridden with the LMSHARQ_ASSETS
environment variable to swap in real measured parameters.
"""

from __future__ import annotations

import os
from importlib import resources
from pathlib import Path

from lmsharq import fec
from lmsharq.channel import CLEAR_SKY, ClearSky, LmsModel, parse_model
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec, parse_wer_curve
from lmsharq.mi import MiTable, parse_mi_csv

ASSETS_ENV_VAR = "LMSHARQ_ASSETS"
ENVIRONMENTS = ("its", "open")
MI_TABLE_ASSET = "qpsk_mi.csv"
WER_CURVE_ASSET = "turbo_8920_r16_wer.csv"
_PACKAGE_ASSETS = Path(str(resources.files("lmsharq") / "assets"))

# Values kept per kind; each is a few kB. A file's value is keyed by its
# path and bytes, the code spec by the WER curve and the MI table's arrays.
_KEPT = 4
_mi_cache: dict = {}
_model_cache: dict = {}
_wer_cache: dict = {}
_spec_cache: dict = {}


def _kept(cache: dict, key, make):
    """cache[key], made on a miss; the oldest key goes once the cache is full."""
    if key not in cache:
        value = make()
        if len(cache) >= _KEPT:
            del cache[next(iter(cache))]
        cache[key] = value
    return cache[key]


def _parsed(cache: dict, kind: str, parse, path: Path):
    """parse(text) of the file's bytes as read now, kept per (path, bytes):
    the same bytes give the same value with no decode and no parse. Every
    input file is read here; a ValueError of its decode or parse names it."""
    data = path.read_bytes()

    def make():
        try:
            return parse(data.decode())
        except ValueError as exc:
            raise ValueError(f"malformed {kind} file {path}: {exc}") from exc

    return _kept(cache, (str(path), data), make)


def assets_dir() -> Path:
    override = os.environ.get(ASSETS_ENV_VAR)
    if override:
        path = Path(override)
        if not path.is_dir():
            raise ConfigError(
                f"{ASSETS_ENV_VAR} points at {override!r}, which is not a directory"
            )
        return path
    return _PACKAGE_ASSETS


def load_environment(name: str) -> LmsModel | ClearSky:
    """The channel a name stands for: a shipped environment, clear sky or a
    file path. "clear-sky" reads no file, so a file of that name is passed
    as ./clear-sky."""
    if name == "clear-sky":
        return CLEAR_SKY
    path = assets_dir() / f"{name}.ini" if name in ENVIRONMENTS else Path(name)
    return _parsed(_model_cache, "model parameter", parse_model, path)


def load_reference_wer(path=None) -> tuple[tuple[float, float], ...]:
    """The WER curve of the asset directory, or of the file at path."""
    path = Path(path) if path else assets_dir() / WER_CURVE_ASSET
    return _parsed(_wer_cache, "WER curve", parse_wer_curve, path)


def default_mi_table(path=None) -> MiTable:
    """The MI table of the asset directory, or of the file at path.

    A missing table is an error, not a cue for a Monte Carlo rebuild;
    `lmsharq mi-table --out <path>` writes the default table, which
    reproduces the shipped file bit for bit.
    """
    path = Path(path) if path else assets_dir() / MI_TABLE_ASSET
    try:
        return _parsed(_mi_cache, "MI table", parse_mi_csv, path)
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"{exc}; create it with `lmsharq mi-table --out {path}`") from None


def default_code_spec(mi_table: MiTable) -> CodeSpec:
    """Mother code spec with MI requirement calibrated from the WER curve."""
    curve = load_reference_wer()
    key = (curve, mi_table.es_n0_linear.tobytes(), mi_table.mi_per_bit.tobytes())
    return _kept(_spec_cache, key, lambda: CodeSpec(
        mi_req_per_bit=fec.calibrate_mi_req(curve, fec.TARGET_WER, mi_table)))
