"""Run-level figures of merit.

All per-codeword statistics are taken over completed codewords only;
codewords cut off by the end of the run are excluded from rates and
delays but their channel use still counts in the efficiency
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lmsharq.errors import DataError
from lmsharq.sim import RunLog, SimConfig


def efficiency(log: RunLog) -> float:
    """Delivered data bits per transmitted channel symbol."""
    if log.total_symbols == 0:
        raise DataError("empty run log: no symbols were transmitted")
    return log.data_bits * log.decoded / log.total_symbols


def delay(n_bits_total: int, n_transmissions: int, config: SimConfig) -> float:
    """HARQ completion delay of a single codeword, in seconds.

    Counts airtime of everything sent for the codeword, one forward
    trip for the decoding burst, and a full round trip for each
    earlier feedback exchange. Link queueing is not part of this
    figure.
    """
    if n_transmissions < 1:
        raise DataError("a decoded codeword has at least one transmission")
    airtime = n_bits_total / config.bit_rate_bps
    return airtime + (2 * (n_transmissions - 1) + 1) * config.t_propag_s


def delay_s(log: RunLog) -> float:
    """Mean completion delay over decoded codewords, in seconds."""
    delays = [
        delay(c.n_total_sent, c.n_transmissions, log.config)
        for c in log.codewords
        if c.decoded
    ]
    if not delays:
        return float("nan")
    return float(np.mean(delays))


def decode_histogram(log: RunLog) -> np.ndarray:
    """Fraction of codewords first decoded at each transmission round.

    Entry k (0-based) is the fraction of completed codewords decoded
    on round k+1. The entries plus the word error rate sum to one.
    """
    bins = np.zeros(log.effective_max_transmissions)
    for c in log.codewords:
        if c.decoded:
            bins[c.n_transmissions - 1] += 1
    if log.generated:
        bins /= log.generated
    return bins


@dataclass(frozen=True)
class RunMetrics:
    """Summary bundle for one run."""

    scheme: str
    es_n0_ref_db: float
    seed: int
    generated: int
    decoded: int
    censored: int
    wer: float
    efficiency_bits_per_symbol: float
    mean_delay_s: float
    decode_fraction_per_transmission: tuple

    @property
    def total_decode_fraction(self) -> float:
        return float(sum(self.decode_fraction_per_transmission))

    @classmethod
    def from_log(cls, log: RunLog) -> "RunMetrics":
        """All figures of a run in one walk over its codewords.

        Equal to the fields of efficiency, delay_s and decode_histogram,
        with the same float operations in the same order.
        """
        if log.total_symbols == 0:
            raise DataError("empty run log: no symbols were transmitted")
        config = log.config
        bit_rate, t_propag = config.bit_rate_bps, config.t_propag_s
        counts = [0] * log.effective_max_transmissions
        delays = []
        for c in log.codewords:
            if c.decoded:
                j = len(c.transmissions)
                if j < 1:
                    raise DataError("a decoded codeword has at least one transmission")
                counts[j - 1] += 1
                delays.append(c.n_total_sent / bit_rate + (2 * (j - 1) + 1) * t_propag)
        n = len(log.codewords)
        decoded = len(delays)
        bins = np.array(counts, dtype=float)
        if n:
            bins /= n
        return cls(
            scheme=config.scheme,
            es_n0_ref_db=config.es_n0_ref_db,
            seed=config.seed,
            generated=n,
            decoded=decoded,
            censored=len(log.censored),
            wer=(n - decoded) / n if n else float("nan"),
            efficiency_bits_per_symbol=log.data_bits * decoded / log.total_symbols,
            mean_delay_s=float(np.mean(delays)) if delays else float("nan"),
            decode_fraction_per_transmission=tuple(bins),
        )
