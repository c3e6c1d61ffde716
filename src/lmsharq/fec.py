"""Mutual-information abstraction of the FEC decoder.

A codeword is declared decodable once the accumulated per-bit mutual
information, weighted by the number of coded bits received, reaches the
code's requirement. The requirement itself is calibrated from a
published word-error-rate curve of the mother code on AWGN.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from lmsharq.mi import MODULATION_BITS, MiTable, mi_of, db_to_linear

DATA_BITS = 8920
MOTHER_CODEWORD_BITS = 53520
CODE_RATE = Fraction(1, 6)
TARGET_WER = 1e-4

WER_CSV_HEADER = ("es_n0_db", "wer")


@dataclass(frozen=True)
class CodeSpec:
    """Mother code geometry plus the calibrated decoding requirement."""

    data_bits: int = DATA_BITS
    mother_codeword_bits: int = MOTHER_CODEWORD_BITS
    rate: Fraction = CODE_RATE
    mi_req_per_bit: float = 0.25

    def __post_init__(self):
        if self.data_bits <= 0 or self.mother_codeword_bits <= 0:
            raise ValueError("bit counts must be positive")
        if Fraction(self.data_bits, self.mother_codeword_bits) != self.rate:
            raise ValueError("mother codeword length inconsistent with code rate")
        if self.mother_codeword_bits % MODULATION_BITS:
            raise ValueError("mother codeword is not a whole number of symbols")
        if not 0.0 < self.mi_req_per_bit < 1.0:
            raise ValueError("mi_req_per_bit must lie in (0, 1)")

    @property
    def mi_budget(self) -> float:
        """Accumulated MI needed before the decoder succeeds."""
        return self.mother_codeword_bits * self.mi_req_per_bit


def is_decodable(spec: CodeSpec, total_bits_sent: int, mi_acc_per_bit: float) -> bool:
    """Decode test: received-bit-weighted MI reaches the code requirement."""
    if total_bits_sent < 0:
        raise ValueError("total_bits_sent cannot be negative")
    return total_bits_sent * mi_acc_per_bit >= spec.mi_budget


def load_wer_curve(path) -> list[tuple[float, float]]:
    """Read an (es_n0_db, wer) curve, ordered by increasing Es/N0."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"WER curve file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != WER_CSV_HEADER:
            raise ValueError(f"expected header {','.join(WER_CSV_HEADER)} in {path}")
        curve = [(float(r[0]), float(r[1])) for r in reader if r]
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
    if len(wer_curve) < 2:
        raise ValueError("wer_curve needs at least two points")
    es = [p[0] for p in wer_curve]
    wer = [p[1] for p in wer_curve]
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
    else:
        # exact match on an endpoint
        es_op_db = es[wer.index(target_wer)]
    return float(mi_of(mi_table, float(db_to_linear(es_op_db))))
