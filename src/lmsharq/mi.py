"""Per-bit mutual information of QPSK over AWGN.

The curve is estimated once on an Es/N0 grid by seeded Monte Carlo and
then queried through piecewise-linear interpolation. Values are per
coded bit, i.e. the per-symbol mutual information divided by the number
of bits carried by one symbol.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lmsharq.errors import ConfigError, check_integer

MODULATION_BITS = 2

DEFAULT_MIN_DB = -30.0
DEFAULT_MAX_DB = 20.0
DEFAULT_POINTS = 201  # 0.25 dB spacing over the default range
DEFAULT_SAMPLES = 500_000
DEFAULT_SEED = 20177

MIN_SAMPLES = 10_000
TARGET_STD_ERROR = 1e-3

# samples per block of the MI estimator; its (4, block) work arrays stay
# in cache
_BLOCK = 1 << 14

# unit-energy QPSK constellation
_QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)

CSV_HEADER = ("es_n0_db", "mi_per_bit")


def db_to_linear(value_db):
    return 10.0 ** (np.asarray(value_db, dtype=float) / 10.0)


def linear_to_db(value):
    return 10.0 * np.log10(value)


@dataclass
class MiTable:
    """Tabulated per-bit mutual information on an increasing Es/N0 grid.

    Treated as immutable after construction.
    """

    es_n0_linear: np.ndarray
    mi_per_bit: np.ndarray

    def __post_init__(self):
        self.es_n0_linear = np.asarray(self.es_n0_linear, dtype=float)
        self.mi_per_bit = np.asarray(self.mi_per_bit, dtype=float)
        if self.es_n0_linear.ndim != 1 or self.es_n0_linear.size < 2:
            raise ValueError("grid needs at least two points")
        if self.es_n0_linear.size != self.mi_per_bit.size:
            raise ValueError("grid and mi arrays differ in length")
        if not (np.isfinite(self.es_n0_linear).all() and np.isfinite(self.mi_per_bit).all()):
            raise ValueError("grid and mi values must be finite")
        if np.any(np.diff(self.es_n0_linear) <= 0):
            raise ValueError("es_n0_linear grid must be strictly increasing")
        if np.any(self.mi_per_bit < 0.0) or np.any(self.mi_per_bit > 1.0):
            raise ValueError("mi_per_bit values must lie in [0, 1]")
        if np.any(np.diff(self.mi_per_bit) < 0.0):
            raise ValueError("mi_per_bit must be non-decreasing along the grid")


def _logsumexp_rows(rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """log(sum(exp(rows), axis=0)) of finite rows into `out`; overwrites `rows`.

    Does the float operations of scipy.special.logsumexp's finite path:
    the terms tied for the column maximum leave the sum, the others are
    shifted by that maximum, exponentiated and added in row order, and
    the tie count m comes back in as log1p(s / m) + log(m).
    """
    a_max = np.max(rows, axis=0)
    keep = np.empty(a_max.shape, dtype=bool)
    m = np.full_like(a_max, len(rows))
    for r in rows:
        np.not_equal(r, a_max, out=keep)
        m -= keep
        r -= a_max
        np.exp(r, out=r)
        r *= keep
    s = rows[0]
    for r in rows[1:]:
        s += r
    # m >= 1, so s / m leaves a zero sum at zero
    s /= m
    np.log1p(s, out=out)
    out += np.log(m, out=m)
    out += a_max
    return out


def _mc_mi_per_bit(snr_linear: float, samples: int, rng: np.random.Generator):
    """One grid point: Monte Carlo per-bit MI estimate and its std error."""
    # draw order: symbols, then the real and the imaginary noise parts
    sent = rng.integers(0, 4, size=samples)
    noise = np.empty(samples, dtype=complex)
    noise.real = rng.standard_normal(samples)
    noise.imag = rng.standard_normal(samples)
    noise *= np.sqrt(0.5 / snr_linear)
    per_bit = np.empty(samples)
    # log p(y|x_j) up to a common constant, one row per constellation
    # point, over blocks of samples that stay in cache
    expo = np.empty((_QPSK.size, _BLOCK))
    y = np.empty(_BLOCK, dtype=complex)
    d = np.empty(_BLOCK, dtype=complex)
    noise2 = np.empty(_BLOCK)
    for lo in range(0, samples, _BLOCK):
        hi = min(lo + _BLOCK, samples)
        k = hi - lo
        rows, n2, yb, db = expo[:, :k], noise2[:k], y[:k], d[:k]
        np.abs(noise[lo:hi], out=n2)
        np.square(n2, out=n2)
        np.add(_QPSK.take(sent[lo:hi], out=yb), noise[lo:hi], out=yb)
        for point, r in zip(_QPSK, rows):
            np.abs(np.subtract(yb, point, out=db), out=r)
            np.square(r, out=r)
            np.subtract(n2, r, out=r)
            r *= snr_linear
        out = _logsumexp_rows(rows, per_bit[lo:hi])
        # integrand log2(4) - lse / ln 2 bits per symbol, then per coded bit
        out /= np.log(2.0)
        np.subtract(np.log2(4.0), out, out=out)
        out /= MODULATION_BITS
    return float(np.mean(per_bit)), float(np.std(per_bit) / np.sqrt(samples))


def build_mi_table(
    es_n0_min_db: float = DEFAULT_MIN_DB,
    es_n0_max_db: float = DEFAULT_MAX_DB,
    points: int = DEFAULT_POINTS,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> MiTable:
    """Estimate the per-bit MI curve on a dB grid.

    Deterministic for a fixed seed. Raises ConfigError before any draw
    when the grid, the sample count or the seed is invalid, and after
    the draws when the sample count cannot deliver the target precision.
    """
    check_integer("seed", seed)
    if not np.isfinite([es_n0_min_db, es_n0_max_db]).all():
        raise ConfigError("es_n0_min_db and es_n0_max_db must be finite")
    if not es_n0_min_db < es_n0_max_db:
        raise ConfigError("es_n0_min_db must be below es_n0_max_db")
    if points < 2:
        raise ConfigError("need at least two grid points")
    if samples < MIN_SAMPLES:
        raise ConfigError(f"samples must be at least {MIN_SAMPLES}")
    rng = np.random.default_rng(seed)
    grid_db = np.linspace(es_n0_min_db, es_n0_max_db, points)
    grid_lin = db_to_linear(grid_db)
    mi = np.empty(points)
    worst_se = 0.0
    for i, snr in enumerate(grid_lin):
        mi[i], se = _mc_mi_per_bit(float(snr), samples, rng)
        worst_se = max(worst_se, se)
    if worst_se >= TARGET_STD_ERROR:
        raise ConfigError(
            f"estimator std error {worst_se:.2e} at {samples} samples; raise samples"
        )
    # estimator noise must not break monotonicity on the flat tails
    mi = np.clip(np.maximum.accumulate(mi), 0.0, 1.0)
    return MiTable(es_n0_linear=grid_lin, mi_per_bit=mi)


def mi_of(table: MiTable, es_n0_linear):
    """Per-bit MI at a linear Es/N0, clamped to the table range."""
    x = np.asarray(es_n0_linear, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("es_n0_linear must be positive")
    out = np.interp(x, table.es_n0_linear, table.mi_per_bit)
    return float(out) if np.ndim(es_n0_linear) == 0 else out


def save_mi_csv(table: MiTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for x, y in zip(table.es_n0_linear, table.mi_per_bit):
            writer.writerow([f"{linear_to_db(x):.6g}", f"{y:.6g}"])


def read_csv_pairs(path, header: tuple) -> list[tuple[float, float]]:
    """The number pairs of a two-column CSV file under the given header.

    Blank lines are skipped; any other row that is not two numbers is a
    ValueError naming its line.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise ValueError(f"expected header {','.join(header)} in {path}")
        rows = []
        for row in filter(None, reader):
            try:
                x, y = map(float, row)
            except ValueError:
                raise ValueError(
                    f"line {reader.line_num} of {path}: expected two numbers, got {row}"
                ) from None
            rows.append((x, y))
    return rows


def load_mi_csv(path) -> MiTable:
    rows = read_csv_pairs(path, CSV_HEADER)
    if len(rows) < 2:
        raise ValueError(f"table in {path} has fewer than two rows")
    grid_db = np.array([r[0] for r in rows])
    mi = np.array([r[1] for r in rows])
    return MiTable(es_n0_linear=db_to_linear(grid_db), mi_per_bit=mi)
