"""Continuous-time link simulation.

A saturated transmitter keeps the forward link busy with back-to-back
bursts. Each codeword follows stop-and-wait HARQ: after a burst the
receiver's verdict comes back one round-trip later, and the link fills
the gap with bursts of other codewords. Retransmissions whose feedback
has arrived take priority over new codewords.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from lmsharq.channel import (
    AttenuationSeries, EmpiricalCdf, LmsModel, empirical_cdf, generate_series,
)
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec, is_decodable
from lmsharq.mi import MiTable, db_to_linear, mi_of
from lmsharq.schemes import (
    PROB_PRESETS,
    AdaptivePolicy,
    DecodingProbTable,
    SchemeExhausted,
    build_enhanced_table,
    conditional_prob,
    equal_split,
    mi_needed,
    mi_update,  # noqa: F401  bound here for bench/spans.py, which wraps it by name
)

SCHEMES = ("classical", "enhanced", "adaptive")

CALIB_DURATION_S = 3600.0
CALIB_SEED = 90210


@dataclass
class SimConfig:
    """One run of the link simulation, over a QPSK link at bit_rate_bps."""

    scheme: str = "adaptive"
    environment: str = "its"
    es_n0_ref_db: float = 10.0
    t_propag_s: float = 0.25
    bit_rate_bps: float = 5e5
    duration_s: float = 600.0
    max_transmissions: int = 4
    probs_preset: str = "case3"
    seed: int = 1
    clear_sky: bool = False

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")
        if self.t_propag_s < 0.0:
            raise ConfigError("t_propag_s cannot be negative")
        if self.bit_rate_bps <= 0.0:
            raise ConfigError("bit_rate_bps must be positive")
        if self.duration_s <= 0.0:
            raise ConfigError("duration_s must be positive")
        if self.max_transmissions < 1:
            raise ConfigError("max_transmissions must be at least 1")
        if self.probs_preset not in PROB_PRESETS:
            raise ConfigError(f"unknown probability preset {self.probs_preset!r}")

    @property
    def rtt_s(self) -> float:
        """Round trip: the burst's propagation plus its feedback's."""
        return 2.0 * self.t_propag_s


@dataclass
class RunLog:
    """Outcome of one run: per-codeword and per-burst columns plus link totals.

    Codeword columns are indexed by codeword id; ids follow the order of
    each codeword's first burst. finished is False for the codewords cut
    off by the end of the run (their bursts still count in the totals),
    and decode_time_s is NaN for every codeword that did not decode.
    Burst columns are in transmission order; burst_codeword is the id of
    the codeword each burst belongs to.
    """

    config: SimConfig
    n_total_sent: np.ndarray
    mi_acc_per_bit: np.ndarray
    n_transmissions: np.ndarray
    decode_time_s: np.ndarray
    finished: np.ndarray
    burst_start_s: np.ndarray
    burst_bits: np.ndarray
    burst_rho: np.ndarray
    burst_codeword: np.ndarray
    total_bits: int
    total_symbols: int
    effective_max_transmissions: int
    data_bits: int

    @property
    def generated(self) -> int:
        return int(np.count_nonzero(self.finished))

    @property
    def decoded(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.decode_time_s)))


def calibration_cdf(model: LmsModel) -> EmpiricalCdf:
    """Empirical attenuation distribution from a long calibration run."""
    series = generate_series(model, CALIB_DURATION_S, CALIB_SEED)
    return empirical_cdf(series)


def run(
    config: SimConfig,
    model: Optional[LmsModel],
    spec: CodeSpec,
    mi_table: MiTable,
    cdf: Optional[EmpiricalCdf] = None,
) -> RunLog:
    """Simulate one configuration. Deterministic for a fixed config.

    Each burst sees the channel sample active at its start. The per-bit
    MI of every sample and the policy's per-round thresholds are computed
    once per run, with the same float operations as a per-burst mi_of,
    so the results do not depend on the precomputation.
    """
    if config.clear_sky:
        # one unfaded sample that stays active for the whole run
        series = AttenuationSeries(
            time_s=np.zeros(1), rho=np.ones(1), sample_dt_s=config.duration_s
        )
    else:
        if model is None:
            raise ConfigError("a channel model is required unless clear_sky is set")
        series = generate_series(model, config.duration_s, config.seed)
        if series.time_s[-1] + series.sample_dt_s < config.duration_s:
            raise ValueError("attenuation series shorter than the run duration")

    es_n0_lin = float(db_to_linear(config.es_n0_ref_db))

    if config.scheme == "classical":
        policy = equal_split(spec)
    else:
        # only the threshold policies read the attenuation distribution
        if cdf is None:
            cdf = empirical_cdf(series) if config.clear_sky else calibration_cdf(model)
        probs = DecodingProbTable(PROB_PRESETS[config.probs_preset])
        if config.scheme == "enhanced":
            policy = build_enhanced_table(cdf, probs, spec, es_n0_lin, mi_table)
        else:
            policy = AdaptivePolicy(spec, tuple(
                mi_needed(cdf, conditional_prob(probs, j), es_n0_lin, mi_table)[1]
                for j in range(1, min(config.max_transmissions, len(probs)) + 1)
            ))
    horizon = min(config.max_transmissions, len(policy))
    first_bits = policy.bits(1)

    dt = series.sample_dt_s
    mi_samples = mi_of(mi_table, series.rho * series.rho * es_n0_lin).tolist()

    bit_rate = config.bit_rate_bps
    duration = config.duration_s
    t_propag = config.t_propag_s
    rtt = config.rtt_s
    policy_bits = policy.bits
    # Flat columns hold only ints and floats, which the cyclic collector
    # does not track: a run leaves it nothing per burst or codeword to walk.
    n_sent: list[int] = []  # per codeword id
    mi_acc: list[float] = []
    n_tx: list[int] = []
    decode_time: list[float] = []
    burst_start: list[float] = []  # per burst, in transmission order
    burst_bits: list[int] = []
    burst_k: list[int] = []
    burst_cw: list[int] = []
    t = 0.0
    pending: deque = deque()  # (ready_time_s, codeword id, bits_next)
    c = -1  # the codeword whose burst no longer fits, or -1 for a new one

    while True:
        if pending and pending[0][0] <= t:
            _, c, bits = pending.popleft()
        else:
            c, bits = -1, first_bits
        airtime = bits / bit_rate
        if t + airtime > duration:
            break
        if c < 0:
            c = len(n_sent)
            n_sent.append(0)
            mi_acc.append(0.0)
            n_tx.append(0)
            decode_time.append(math.nan)

        k = int(t / dt)  # the sample active at the burst's start
        n_prev = n_sent[c]
        n_new = n_prev + bits
        acc = (n_prev * mi_acc[c] + bits * mi_samples[k]) / n_new
        n_sent[c] = n_new
        mi_acc[c] = acc
        j = n_tx[c] + 1
        n_tx[c] = j
        burst_start.append(t)
        burst_bits.append(bits)
        burst_k.append(k)
        burst_cw.append(c)

        if is_decodable(spec, n_new, acc):
            decode_time[c] = t + airtime + t_propag
        elif j < horizon:
            try:
                bits_next = policy_bits(j + 1, n_new, acc)
            except SchemeExhausted:
                pass
            else:
                pending.append((t + airtime + rtt, c, bits_next))
        t += airtime

    # cut off: every codeword still queued, plus the one the horizon stopped
    finished = np.ones(len(n_sent), dtype=bool)
    finished[[q for _, q, _ in pending]] = False
    if c >= 0:
        finished[c] = False
    total_bits = sum(burst_bits)
    assert total_bits % 2 == 0
    return RunLog(
        config=config,
        n_total_sent=np.array(n_sent, dtype=np.int64),
        mi_acc_per_bit=np.array(mi_acc, dtype=float),
        n_transmissions=np.array(n_tx, dtype=np.int64),
        decode_time_s=np.array(decode_time, dtype=float),
        finished=finished,
        burst_start_s=np.array(burst_start, dtype=float),
        burst_bits=np.array(burst_bits, dtype=np.int64),
        burst_rho=series.rho[np.array(burst_k, dtype=np.intp)],
        burst_codeword=np.array(burst_cw, dtype=np.int64),
        total_bits=total_bits,
        total_symbols=total_bits // 2,
        effective_max_transmissions=horizon,
        data_bits=spec.data_bits,
    )


def sweep(
    base_config: SimConfig,
    es_n0_list_db,
    schemes,
    seeds,
    model: Optional[LmsModel] = None,
    *,
    spec: CodeSpec,
    mi_table: MiTable,
    cdf: Optional[EmpiricalCdf] = None,
) -> list[RunLog]:
    """Cross-product of schemes, Es/N0 points and seeds, in stable order.

    Runs sharing a seed share the channel realization, which makes
    scheme comparisons paired. `model` may be None only for clear sky.
    Without a `cdf`, the calibration CDF of `model` is computed once for
    all runs, unless every scheme is classical and none reads it.
    """
    schemes = tuple(schemes)
    if not base_config.clear_sky:
        if model is None:
            raise ConfigError("a channel model is required unless clear_sky is set")
        if cdf is None and any(s != "classical" for s in schemes):
            cdf = calibration_cdf(model)

    logs = []
    for scheme in schemes:
        for es_db in es_n0_list_db:
            for seed in seeds:
                cfg = replace(
                    base_config, scheme=scheme, es_n0_ref_db=float(es_db), seed=int(seed)
                )
                logs.append(run(cfg, model, spec, mi_table, cdf=cdf))
    return logs
