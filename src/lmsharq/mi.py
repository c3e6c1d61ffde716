"""Per-bit mutual information of QPSK over AWGN.

The curve is estimated once on an Es/N0 grid by seeded Monte Carlo and
then queried through piecewise-linear interpolation. Values are per
coded bit, i.e. the per-symbol mutual information divided by the number
of bits carried by one symbol.
"""

from __future__ import annotations

import csv
import io
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


@dataclass(frozen=True)
class MiTable:
    """Tabulated per-bit mutual information on an increasing Es/N0 grid.

    Immutable: it keeps its own read-only copies of both arrays, so the
    checks below cannot be undone through the caller's arrays. np.interp
    copies a read-only array on every call, so mi_of reads a private
    writable copy of each.
    """

    es_n0_linear: np.ndarray
    mi_per_bit: np.ndarray

    def __post_init__(self):
        for name in ("es_n0_linear", "mi_per_bit"):
            values = np.array(getattr(self, name), dtype=float)
            object.__setattr__(self, "_interp_" + name, values.copy())
            values.setflags(write=False)
            object.__setattr__(self, name, values)
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
    the tie count m comes back in as log1p(s / m) + log(m). Without a
    tie m is 1 in every column, where s / m and + log(m) change no bit,
    so both are skipped.
    """
    a_max = np.maximum(rows[0], rows[1])
    for r in rows[2:]:
        np.maximum(a_max, r, out=a_max)
    keep = np.not_equal(rows, a_max)
    rows -= a_max
    np.exp(rows, out=rows)
    rows *= keep
    s = rows[0]
    for r in rows[1:]:
        s += r
    # each column has one term equal to its maximum, more only on a tie
    tied = np.count_nonzero(keep) < (len(rows) - 1) * a_max.size
    if tied:
        m = np.subtract(len(rows), np.sum(keep, axis=0), dtype=float)
        s /= m
    np.log1p(s, out=out)
    if tied:
        out += np.log(m, out=m)
    out += a_max
    return out


class _Work:
    """The arrays of one build, refilled at every grid point."""

    def __init__(self, samples: int):
        self.sent = np.empty(samples, dtype=np.intp)
        self.noise_re = np.empty(samples)
        self.noise_im = np.empty(samples)
        self.per_bit = np.empty(samples)
        # one block's buffers
        self.noise = np.empty(_BLOCK, dtype=complex)
        self.y = np.empty(_BLOCK, dtype=complex)
        self.d = np.empty(_BLOCK, dtype=complex)
        self.noise2 = np.empty(_BLOCK)
        self.expo = np.empty((_QPSK.size, _BLOCK))


def _mc_mi_per_bit(snr_linear: float, rng: np.random.Generator, work: _Work):
    """One grid point: Monte Carlo per-bit MI estimate and its std error."""
    samples = work.per_bit.size
    # draw order: symbols, then the real and the imaginary noise parts;
    # drawing in blocks or into `out` leaves the stream unchanged
    for lo in range(0, samples, _BLOCK):
        hi = min(lo + _BLOCK, samples)
        work.sent[lo:hi] = rng.integers(0, 4, size=hi - lo)
    rng.standard_normal(out=work.noise_re)
    rng.standard_normal(out=work.noise_im)
    scale = np.sqrt(0.5 / snr_linear)
    for lo in range(0, samples, _BLOCK):
        hi = min(lo + _BLOCK, samples)
        k = hi - lo
        nb, n2, yb, db = work.noise[:k], work.noise2[:k], work.y[:k], work.d[:k]
        rows = work.expo[:, :k]
        nb.real = work.noise_re[lo:hi]
        nb.imag = work.noise_im[lo:hi]
        nb *= scale
        # log p(y|x_j) up to a common constant, one row per constellation point
        np.abs(nb, out=n2)
        np.square(n2, out=n2)
        np.add(_QPSK.take(work.sent[lo:hi], out=yb), nb, out=yb)
        for point, r in zip(_QPSK, rows):
            np.abs(np.subtract(yb, point, out=db), out=r)
            np.square(r, out=r)
            np.subtract(n2, r, out=r)
            r *= snr_linear
        out = _logsumexp_rows(rows, work.per_bit[lo:hi])
        # integrand log2(4) - lse / ln 2 bits per symbol, then per coded bit
        out /= np.log(2.0)
        np.subtract(np.log2(4.0), out, out=out)
        out /= MODULATION_BITS
    per_bit = work.per_bit
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
    check_integer("points", points, 2)
    check_integer("samples", samples, MIN_SAMPLES)
    if not np.isfinite([es_n0_min_db, es_n0_max_db]).all():
        raise ConfigError("es_n0_min_db and es_n0_max_db must be finite")
    if not es_n0_min_db < es_n0_max_db:
        raise ConfigError("es_n0_min_db must be below es_n0_max_db")
    rng = np.random.default_rng(seed)
    grid_db = np.linspace(es_n0_min_db, es_n0_max_db, points)
    grid_lin = db_to_linear(grid_db)
    mi = np.empty(points)
    work = _Work(samples)
    worst_se = 0.0
    for i, snr in enumerate(grid_lin):
        mi[i], se = _mc_mi_per_bit(float(snr), rng, work)
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
    if not ((0.0 < x) & (x < np.inf)).all():
        raise ValueError("es_n0_linear must be positive and finite")
    out = np.interp(x, table._interp_es_n0_linear, table._interp_mi_per_bit)
    return float(out) if np.ndim(es_n0_linear) == 0 else out


def save_mi_csv(table: MiTable, path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for x, y in zip(table.es_n0_linear, table.mi_per_bit):
            writer.writerow([f"{linear_to_db(x):.6g}", f"{y:.6g}"])


def read_csv_pairs(path, header: tuple, data: bytes | None = None) -> list[tuple[float, float]]:
    """The number pairs of a two-column CSV file under the given header.

    data is the file's content when the caller has read it; path then
    only names the file in errors. Blank lines are skipped; any other row
    that is not two numbers is a ValueError naming its line.
    """
    path = Path(path)
    if data is None:
        data = path.read_bytes()
    reader = csv.reader(io.StringIO(data.decode(), newline=""))
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


def load_mi_csv(path, data: bytes | None = None) -> MiTable:
    rows = read_csv_pairs(path, CSV_HEADER, data)
    if len(rows) < 2:
        raise ValueError(f"table in {path} has fewer than two rows")
    grid_db = np.array([r[0] for r in rows])
    mi = np.array([r[1] for r in rows])
    return MiTable(es_n0_linear=db_to_linear(grid_db), mi_per_bit=mi)
