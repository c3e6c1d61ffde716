"""Per-bit mutual information of QPSK over AWGN.

The curve is estimated once on an Es/N0 grid by seeded Monte Carlo and
then queried through piecewise-linear interpolation. Values are per
coded bit, i.e. the per-symbol mutual information divided by the number
of bits carried by one symbol.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lmsharq.errors import ConfigError, check_db, check_integer

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

# Every standard normal a NumPy Generator draws is below 14 in magnitude:
# its ziggurat's tail draws r + log(1 / U) / r, with r < 3.66 and U at least
# 2^-53. A noise sample n of power 0.5 / snr per part thus has |n|^2 at most
# 392 times that power, and its received point's squared distance to a
# constellation point, at most (|n| + 2)^2 <= 2 |n|^2 + 8, at most 784 times
# it plus 8. Both are floats while the power times this headroom is one.
_NOISE_HEADROOM = 2.0 ** 10

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
    checks below cannot be undone through the caller's arrays. Each grid
    value is a positive, normal float, the rule parse_mi_csv applies to
    its dB values, so the table's buckets (see mi_of) span at most the
    2046 octaves of normal floats. A grid whose slope overflows is
    rejected and a -0.0 MI value kept as 0.0, so mi_of's formula gives
    each grid point its own value.
    """

    es_n0_linear: np.ndarray
    mi_per_bit: np.ndarray

    def __post_init__(self):
        for name in ("es_n0_linear", "mi_per_bit"):
            values = np.array(getattr(self, name), dtype=float) + 0.0  # -0.0 becomes 0.0
            values.setflags(write=False)
            object.__setattr__(self, name, values)
        if self.es_n0_linear.ndim != 1 or self.es_n0_linear.size < 2:
            raise ValueError("grid needs at least two points")
        if self.es_n0_linear.size != self.mi_per_bit.size:
            raise ValueError("grid and mi arrays differ in length")
        if not (np.isfinite(self.es_n0_linear).all() and np.isfinite(self.mi_per_bit).all()):
            raise ValueError("grid and mi values must be finite")
        if not (self.es_n0_linear >= sys.float_info.min).all():
            raise ValueError("es_n0_linear values must be positive, normal floats")
        if np.any(np.diff(self.es_n0_linear) <= 0):
            raise ValueError("es_n0_linear grid must be strictly increasing")
        if np.any(self.mi_per_bit < 0.0) or np.any(self.mi_per_bit > 1.0):
            raise ValueError("mi_per_bit values must lie in [0, 1]")
        if np.any(np.diff(self.mi_per_bit) < 0.0):
            raise ValueError("mi_per_bit must be non-decreasing along the grid")
        object.__setattr__(self, "_segments", _Segments(self.es_n0_linear, self.mi_per_bit))


# A positive float's bits shifted right by this many keep its exponent and
# top 8 mantissa bits: 256 buckets per octave.
_BUCKET_SHIFT = 44


class _Segments:
    """What mi_of reads of a table besides its two arrays.

    Segment j runs from grid point j to grid point j + 1; the last one
    holds only the grid's last point. For each bucket from the first grid
    point's to the last one's, `guide` holds the segment of the bucket's
    smallest float, and a query in the bucket lies at most `steps` grid
    points above that segment's start. `upper[j]` is where segment j ends
    (inf for the last) and `slopes[j]` is numpy.interp's slope of segment j
    (0 for the last); a ValueError if one overflows a float.
    """

    def __init__(self, xp: np.ndarray, fp: np.ndarray):
        self.upper = np.append(xp[1:], np.inf)
        with np.errstate(over="ignore"):  # grid points a few ulps apart: inf, rejected below
            self.slopes = np.append(np.diff(fp) / np.diff(xp), 0.0)
        if np.isinf(self.slopes).any():
            raise ValueError("the MI slope between neighbouring grid points overflows a float")
        bits = xp.view(np.int64)
        buckets = bits >> _BUCKET_SHIFT
        self.first_bucket = int(buckets[0])
        starts = np.arange(buckets[0], buckets[-1] + 1) << _BUCKET_SHIFT
        self.guide = np.maximum(np.searchsorted(xp, starts.view(float), side="right") - 1, 0)
        # grid points above their bucket's smallest float, counted per bucket
        inner = buckets[bits & ((1 << _BUCKET_SHIFT) - 1) != 0]
        self.steps = int(np.unique(inner, return_counts=True)[1].max(initial=0))
        for array in (self.upper, self.slopes, self.guide):
            array.setflags(write=False)
        self.floats = tuple(tuple(a.tolist()) for a in (xp, self.slopes, fp))


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
    """The arrays of one build, refilled at every grid point: one int8
    symbol and one float64 per sample, plus one block's buffers."""

    def __init__(self, samples: int):
        self.sent = np.empty(samples, dtype=np.int8)
        # a point's real noise parts, then block by block its MI per bit
        self.per_bit = np.empty(samples)
        self.noise = np.empty(_BLOCK, dtype=complex)
        self.y = np.empty(_BLOCK, dtype=complex)
        self.d = np.empty(_BLOCK, dtype=complex)
        # a block's imaginary noise parts, then their squared magnitudes
        self.noise2 = np.empty(_BLOCK)
        self.expo = np.empty((_QPSK.size, _BLOCK))


def _mc_mi_per_bit(snr_linear: float, rng: np.random.Generator, work: _Work):
    """One grid point: Monte Carlo per-bit MI estimate and its std error."""
    samples = work.per_bit.size
    # draw order: symbols, then every real and every imaginary noise part;
    # drawing in blocks or into `out` leaves the stream unchanged. The
    # symbols are drawn as int64, as a dtype=int8 draw takes other bits.
    for lo in range(0, samples, _BLOCK):
        hi = min(lo + _BLOCK, samples)
        work.sent[lo:hi] = rng.integers(0, 4, size=hi - lo)
    rng.standard_normal(out=work.per_bit)
    scale = np.sqrt(0.5 / snr_linear)
    for lo in range(0, samples, _BLOCK):
        hi = min(lo + _BLOCK, samples)
        k = hi - lo
        nb, n2, yb, db = work.noise[:k], work.noise2[:k], work.y[:k], work.d[:k]
        rows = work.expo[:, :k]
        nb.real = work.per_bit[lo:hi]
        nb.imag = rng.standard_normal(out=n2)
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
    # the float operations of np.mean and np.std, the deviations in place
    x = work.per_bit
    mean = np.add.reduce(x) / samples
    x -= mean
    np.multiply(x, x, out=x)
    std = np.sqrt(np.add.reduce(x) / samples)
    return float(mean), float(std / np.sqrt(samples))


def build_mi_table(
    es_n0_min_db: float = DEFAULT_MIN_DB,
    es_n0_max_db: float = DEFAULT_MAX_DB,
    points: int = DEFAULT_POINTS,
    samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> MiTable:
    """Estimate the per-bit MI curve on a dB grid.

    Deterministic for a fixed seed. Raises ConfigError before any draw
    when the grid, the sample count or the seed is invalid or more than
    an array can hold, and after the draws when the sample count cannot
    deliver the target precision. Each dB bound's linear Es/N0 must be a
    finite, normal float, and the lowest one's noise power 0.5 / Es/N0
    times 2^10 a float too, so that no squared magnitude the estimator
    forms overflows: the grid starts at -3055.45 dB or above.
    """
    check_integer("seed", seed)
    check_integer("points", points, 2)
    check_integer("samples", samples, MIN_SAMPLES)
    # checked before any array is asked for: the largest hold one float64
    # per grid point or per sample
    for name, count in (("points", points), ("samples", samples)):
        if count > np.iinfo(np.intp).max // 8:
            raise ConfigError(f"{name} {count} is more than an array can hold")
    check_db("es_n0_min_db", es_n0_min_db, error=ConfigError)
    check_db("es_n0_max_db", es_n0_max_db, error=ConfigError)
    if not es_n0_min_db < es_n0_max_db:
        raise ConfigError("es_n0_min_db must be below es_n0_max_db")
    grid_lin = db_to_linear(np.linspace(es_n0_min_db, es_n0_max_db, points))
    if 0.5 / grid_lin[0] > sys.float_info.max / _NOISE_HEADROOM:
        lowest = linear_to_db(0.5 * _NOISE_HEADROOM / sys.float_info.max)
        raise ConfigError(
            f"es_n0_min_db {es_n0_min_db:g} dB is too low: its noise power would overflow"
            f" the estimator's squared magnitudes; the grid must start at {lowest:.6g} dB or above")
    rng = np.random.default_rng(seed)
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
    """Per-bit MI at a linear Es/N0, clamped to the table range.

    numpy.interp's values, bit for bit, without its binary search: a query
    clamped to the grid starts at its bucket's segment j in the table's
    guide, steps up past the grid points at or below it and works out
    slopes[j] * (x - xp[j]) + fp[j] in place: three query-length arrays.
    A query of one value does the same float operations on Python floats,
    with j from a bisection of the grid.
    """
    q = np.asarray(es_n0_linear, dtype=float)
    one = q.ndim == 0
    if not (0.0 < float(q) < math.inf if one else ((0.0 < q) & (q < np.inf)).all()):
        raise ValueError("es_n0_linear must be positive and finite")
    if one:
        xp, slopes, fp = table._segments.floats
        x = min(max(float(q), xp[0]), xp[-1])
        j = bisect.bisect_right(xp, x) - 1
        return slopes[j] * (x - xp[j]) + fp[j]
    xp, fp, seg = table.es_n0_linear, table.mi_per_bit, table._segments
    x = np.clip(q.reshape(-1), xp[0], xp[-1])
    j = seg.guide.take((x.view(np.int64) >> _BUCKET_SHIFT) - seg.first_bucket)
    for _ in range(seg.steps):
        j += x >= seg.upper.take(j)
    x -= xp.take(j)
    x *= seg.slopes.take(j)
    x += fp.take(j)
    return x.reshape(q.shape)


def save_mi_csv(table: MiTable, path) -> None:
    rows = ((f"{linear_to_db(x):.6g}", f"{y:.6g}") for x, y in zip(table.es_n0_linear, table.mi_per_bit))
    write_csv(path, CSV_HEADER, rows)


def write_csv(path, header: tuple, rows) -> None:
    """The CSV file at path: the header row, then each of the rows."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv_pairs(text: str, header: tuple) -> list[tuple[float, float]]:
    """The number pairs of a two-column CSV text under the given header.

    Blank lines are skipped; any other row that is not two numbers is a
    ValueError naming its line, and so is a row the csv module rejects.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = []
    try:
        first = next(reader, None)
        if first is None or tuple(h.strip() for h in first) != header:
            raise ValueError(f"expected header {','.join(header)}")
        for row in filter(None, reader):
            try:
                x, y = map(float, row)
            except ValueError:
                raise ValueError(f"line {reader.line_num} has {row}, expected two numbers") from None
            rows.append((x, y))
    except csv.Error as exc:
        raise ValueError(f"line {reader.line_num}: {exc}") from None
    return rows


def parse_mi_csv(text: str) -> MiTable:
    """The MI table of a CSV text as save_mi_csv writes it."""
    rows = read_csv_pairs(text, CSV_HEADER)
    if len(rows) < 2:
        raise ValueError("the table has fewer than two rows")
    for es_db, _ in rows:
        check_db("es_n0_db", es_db)
    grid_db = np.array([r[0] for r in rows])
    mi = np.array([r[1] for r in rows])
    return MiTable(es_n0_linear=db_to_linear(grid_db), mi_per_bit=mi)
