"""Run-level figures of merit.

All per-codeword statistics are taken over completed codewords only;
codewords cut off by the end of the run are excluded from rates and
delays but their channel use still counts in the efficiency
denominator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lmsharq.errors import ConfigError, DataError
from lmsharq.sim import RunLog, SimConfig


def delay(n_bits_total, n_transmissions, config: SimConfig):
    """HARQ completion delay of a codeword, in seconds.

    Counts airtime of everything sent for the codeword, one forward
    trip for the decoding burst, and a full round trip for each
    earlier feedback exchange. Link queueing is not part of this
    figure. Takes one codeword's counts, or arrays of them elementwise.
    """
    if np.any(np.less(n_transmissions, 1)):
        raise DataError("a decoded codeword has at least one transmission")
    airtime = n_bits_total / config.bit_rate_bps
    return airtime + (2 * (n_transmissions - 1) + 1) * config.t_propag_s


@dataclass(frozen=True)
class RunMetrics:
    """Figures of merit and codeword counts of one run; the run's identity
    is its log's config."""

    generated: int
    decoded: int
    censored: int
    wer: float
    efficiency_bits_per_symbol: float
    mean_delay_s: float
    decode_fraction_per_transmission: tuple

    @classmethod
    def from_log(cls, log: RunLog) -> "RunMetrics":
        """All figures of a run, reduced over its codeword columns.

        delay() runs over the decoded codewords' columns in id order, so
        every figure is the same to the last bit as a per-codeword reduction.
        A log with no symbols comes from a run too short for its first burst,
        which is a ConfigError.
        """
        config = log.config
        if log.total_symbols == 0:
            airtime = log.policy.bits(1) / config.bit_rate_bps
            raise ConfigError(f"empty run log: duration_s {config.duration_s:g} s ends before"
                              f" the first burst's {airtime:g} s of airtime")
        decoded = ~np.isnan(log.decode_time_s)
        rounds = log.n_transmissions[decoded]
        delays = delay(log.n_total_sent[decoded], rounds, config)
        n, n_decoded = log.generated, log.decoded
        bins = np.bincount(rounds - 1, minlength=log.effective_max_transmissions).astype(float)
        if n:
            bins /= n
        return cls(
            generated=n,
            decoded=n_decoded,
            censored=len(log.finished) - n,
            wer=(n - n_decoded) / n if n else float("nan"),
            efficiency_bits_per_symbol=log.data_bits * n_decoded / log.total_symbols,
            mean_delay_s=float(np.mean(delays)) if n_decoded else float("nan"),
            decode_fraction_per_transmission=tuple(bins),
        )
