"""Mutual-information abstraction of the FEC decoder.

The receiver keeps one number per codeword: the per-bit mutual
information accumulated over every coded bit received, as a bit-weighted
mean (mi_update). The codeword is declared decodable once that mean,
weighted by the number of coded bits received, reaches the code's
requirement (is_decodable). The requirement itself is calibrated from a
published word-error-rate curve of the mother code on AWGN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

from lmsharq.errors import ConfigError
from lmsharq.mi import MODULATION_BITS, MiTable, db_to_linear, mi_of, read_csv_pairs

DATA_BITS = 8920
MOTHER_CODEWORD_BITS = 53520
TARGET_WER = 1e-4

WER_CSV_HEADER = ("es_n0_db", "wer")


@dataclass(frozen=True)
class CodeSpec:
    """Mother code geometry plus the calibrated decoding requirement."""

    data_bits: int = DATA_BITS
    mother_codeword_bits: int = MOTHER_CODEWORD_BITS
    mi_req_per_bit: float = 0.25

    def __post_init__(self):
        if self.data_bits <= 0 or self.mother_codeword_bits <= 0:
            raise ValueError("bit counts must be positive")
        if self.mother_codeword_bits % MODULATION_BITS:
            raise ValueError("mother codeword is not a whole number of symbols")
        if not 0.0 < self.mi_req_per_bit < 1.0:
            raise ValueError("mi_req_per_bit must lie in (0, 1)")

    @property
    def rate(self) -> Fraction:
        """Code rate of the mother code."""
        return Fraction(self.data_bits, self.mother_codeword_bits)

    @cached_property
    def mi_budget(self) -> float:
        """Accumulated MI needed before the decoder succeeds."""
        return self.mother_codeword_bits * self.mi_req_per_bit


def mi_update(
    n_total_sent: int, mi_acc_per_bit: float, bits_sent: int, mi_burst: float
) -> tuple[int, float]:
    """Fold one received burst into a codeword's accumulated per-bit MI.

    The burst adds bits_sent coded bits at per-bit MI mi_burst, and the
    accumulator stays their bit-weighted mean. Returns the new
    (n_total_sent, mi_acc_per_bit).
    """
    if bits_sent <= 0:
        raise ValueError("bits_sent must be positive")
    n_new = n_total_sent + bits_sent
    return n_new, (n_total_sent * mi_acc_per_bit + bits_sent * mi_burst) / n_new


def is_decodable(spec: CodeSpec, total_bits_sent: int, mi_acc_per_bit: float) -> bool:
    """Decode test: received-bit-weighted MI reaches the code requirement."""
    if total_bits_sent < 0:
        raise ValueError("total_bits_sent cannot be negative")
    return total_bits_sent * mi_acc_per_bit >= spec.mi_budget


def load_wer_curve(path, data: bytes | None = None) -> list[tuple[float, float]]:
    """Read an (es_n0_db, wer) curve, ordered by increasing Es/N0, from
    the file or from its content `data`."""
    path = Path(path)
    if data is None and not path.exists():
        raise FileNotFoundError(f"WER curve file not found: {path}")
    curve = read_csv_pairs(path, WER_CSV_HEADER, data)
    if len(curve) < 2:
        raise ValueError(f"WER curve in {path} has fewer than two points")
    return curve


def calibrate_mi_req(
    wer_curve: list[tuple[float, float]],
    target_wer: float,
    mi_table: MiTable,
) -> float:
    """Per-bit MI requirement matching a target word error rate.

    The Es/N0 operating point is interpolated on the curve, linearly in
    log10(wer), then converted to per-bit MI through the table.
    """
    if not 0.0 < target_wer < 1.0:
        raise ConfigError(f"target_wer must be a finite number in (0, 1), got {target_wer:g}")
    if len(wer_curve) < 2:
        raise ValueError("wer_curve needs at least two points")
    es = [p[0] for p in wer_curve]
    wer = [p[1] for p in wer_curve]
    if not all(map(math.isfinite, es + wer)):
        raise ValueError("wer_curve values must be finite")
    if any(b <= a for a, b in zip(es, es[1:])):
        raise ValueError("wer_curve must have strictly increasing es_n0_db")
    if any(w <= 0.0 for w in wer):
        raise ValueError("wer values must be positive")
    if any(b >= a for a, b in zip(wer, wer[1:])):
        raise ValueError("wer_curve must be strictly decreasing in wer")
    if not min(wer) <= target_wer <= max(wer):
        raise ValueError(
            f"target_wer {target_wer:g} outside curve range [{min(wer):g}, {max(wer):g}]"
        )
    log_t = math.log10(target_wer)
    for (e0, w0), (e1, w1) in zip(wer_curve, wer_curve[1:]):
        l0, l1 = math.log10(w0), math.log10(w1)
        if l1 <= log_t <= l0:
            frac = 0.0 if l1 == l0 else (log_t - l0) / (l1 - l0)
            es_op_db = e0 + frac * (e1 - e0)
            break
    return float(mi_of(mi_table, float(db_to_linear(es_op_db))))
