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
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from lmsharq.channel import (
    AttenuationSeries, EmpiricalCdf, LmsModel, empirical_cdf, generate_series,
)
from lmsharq.errors import ConfigError, check_integer
# is_decodable and mi_update are bound here for bench/spans.py, which wraps them by name
from lmsharq.fec import CodeSpec, is_decodable, mi_update  # noqa: F401
from lmsharq.mi import MODULATION_BITS, MiTable, db_to_linear, mi_of
from lmsharq.schemes import (
    PROB_PRESETS,
    AdaptivePolicy,
    DecodingProbTable,
    StaticBitTable,
    build_enhanced_table,
    conditional_prob,
    equal_split,
    mi_needed,
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
        for name in ("es_n0_ref_db", "t_propag_s", "bit_rate_bps", "duration_s"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite")
        if self.t_propag_s < 0.0:
            raise ConfigError("t_propag_s cannot be negative")
        if self.bit_rate_bps <= 0.0:
            raise ConfigError("bit_rate_bps must be positive")
        if self.duration_s <= 0.0:
            raise ConfigError("duration_s must be positive")
        check_integer("max_transmissions", self.max_transmissions, least=1)
        check_integer("seed", self.seed)
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
    the codeword each burst belongs to. The per-codeword n_total_sent and
    n_transmissions and the link totals are derived from the burst columns.
    policy is the run's derive_policy, and its length is the run's horizon.
    """

    config: SimConfig
    mi_acc_per_bit: np.ndarray
    decode_time_s: np.ndarray
    finished: np.ndarray
    burst_start_s: np.ndarray
    burst_bits: np.ndarray
    burst_rho: np.ndarray
    burst_codeword: np.ndarray
    policy: StaticBitTable | AdaptivePolicy
    data_bits: int

    @cached_property
    def n_total_sent(self) -> np.ndarray:
        # whole-number weights, so the float64 sums are exact
        return np.bincount(self.burst_codeword, weights=self.burst_bits,
                           minlength=len(self.finished)).astype(np.int64)

    @cached_property
    def n_transmissions(self) -> np.ndarray:
        return np.bincount(self.burst_codeword, minlength=len(self.finished)).astype(np.int64)

    @property
    def effective_max_transmissions(self) -> int:
        """The HARQ horizon: max_transmissions, capped by the policy's table."""
        return len(self.policy)

    @property
    def total_bits(self) -> int:
        return int(self.burst_bits.sum())

    @property
    def total_symbols(self) -> int:
        return self.total_bits // MODULATION_BITS

    @property
    def generated(self) -> int:
        return int(np.count_nonzero(self.finished))

    @property
    def decoded(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.decode_time_s)))


@lru_cache(maxsize=2)
def calibration_cdf(model: LmsModel) -> EmpiricalCdf:
    """Empirical attenuation distribution from a long calibration run.

    The 3600 s series at CALIB_SEED depends only on the model, an
    immutable value, so the CDF is kept per process for the two models
    used last. Callers share the read-only EmpiricalCdf, which holds
    8 * 3600 * speed_mps / sample_frame_m bytes: 4.8 MB for the shipped
    environments.
    """
    return empirical_cdf(generate_series(model, CALIB_DURATION_S, CALIB_SEED))


def _clear_sky_series(config: SimConfig) -> AttenuationSeries:
    """One unfaded sample that stays active for the whole run."""
    return AttenuationSeries(rho=np.ones(1), sample_dt_s=config.duration_s)


def derive_policy(
    config: SimConfig,
    model: Optional[LmsModel],
    spec: CodeSpec,
    mi_table: MiTable,
) -> StaticBitTable | AdaptivePolicy:
    """The run's HARQ policy, cut to at most config.max_transmissions rounds.

    Classical IR splits the mother codeword equally. The threshold schemes
    read the attenuation distribution: calibration_cdf(model), or the one
    unfaded sample of clear sky. The notes of an enhanced table concern
    its last round or the one after it, so a table cut shorter has none.
    """
    if config.scheme == "classical":
        policy = equal_split(spec)
    else:
        if config.clear_sky:
            cdf = empirical_cdf(_clear_sky_series(config))
        elif model is None:
            raise ConfigError("a channel model is required unless clear_sky is set")
        else:
            cdf = calibration_cdf(model)
        probs = DecodingProbTable(PROB_PRESETS[config.probs_preset])
        es_n0_lin = float(db_to_linear(config.es_n0_ref_db))
        if config.scheme == "adaptive":
            return AdaptivePolicy(spec, tuple(
                mi_needed(cdf, conditional_prob(probs, j), es_n0_lin, mi_table)[1]
                for j in range(1, len(probs) + 1)[:config.max_transmissions]
            ))
        policy = build_enhanced_table(cdf, probs, spec, es_n0_lin, mi_table)
    if len(policy) > config.max_transmissions:
        policy = StaticBitTable(policy.n_sent[:config.max_transmissions])
    return policy


def _sample_mi(mi_table: MiTable, series: AttenuationSeries, es_n0_lin: float) -> np.ndarray:
    """Per-bit MI of every sample of the series at a linear Es/N0."""
    return mi_of(mi_table, series.rho * series.rho * es_n0_lin)


def run(
    config: SimConfig,
    model: Optional[LmsModel],
    spec: CodeSpec,
    mi_table: MiTable,
    *,
    series: Optional[AttenuationSeries] = None,
    mi_samples: Optional[np.ndarray] = None,
) -> RunLog:
    """Simulate one configuration. Deterministic for a fixed config.

    Each burst sees the channel sample active at its start, and each
    burst's size comes from derive_policy. The per-bit MI of every sample
    and the policy's per-round thresholds are computed once per run, with
    the same float operations as a per-burst mi_of, so the results do not
    depend on the precomputation. A given `series` stands for
    generate_series(model, config.duration_s, config.seed), and given
    `mi_samples` stand for mi_of over the series at the run's Es/N0, one
    float64 per sample.
    """
    if config.clear_sky:
        if series is not None or mi_samples is not None:
            raise ConfigError("a clear-sky run takes no attenuation series or MI samples")
        series = _clear_sky_series(config)
    else:
        if model is None:
            raise ConfigError("a channel model is required unless clear_sky is set")
        if series is None:
            series = generate_series(model, config.duration_s, config.seed)
        # where the last sample ends: time_s[-1] + sample_dt_s, without building time_s
        if (len(series.rho) - 1) * series.sample_dt_s + series.sample_dt_s < config.duration_s:
            raise ValueError("attenuation series shorter than the run duration")
        if mi_samples is not None and (
            not isinstance(mi_samples, np.ndarray) or mi_samples.dtype != np.float64
            or mi_samples.shape != series.rho.shape
        ):
            raise ValueError("mi_samples must be a float64 array with one value per series sample")

    policy = derive_policy(config, model, spec, mi_table)

    dt = series.sample_dt_s
    if mi_samples is None:
        mi_samples = _sample_mi(mi_table, series, float(db_to_linear(config.es_n0_ref_db)))
    mi_at = memoryview(mi_samples)  # indexing yields Python floats

    bit_rate = config.bit_rate_bps
    duration = config.duration_s
    t_propag = config.t_propag_s
    rtt = config.rtt_s
    budget = spec.mi_budget  # the decode test is fec.is_decodable, inline
    policy_bits = policy.bits
    first_bits = policy_bits(1)
    first_airtime = first_bits / bit_rate
    nan = math.nan
    # Flat columns hold only ints and floats, which the cyclic collector
    # does not track: a run leaves it nothing per burst or codeword to walk.
    mi_acc: list[float] = []  # per codeword id
    decode_time: list[float] = []
    burst_bits: list[int] = []  # per burst, in transmission order
    burst_cw: list[int] = []
    t = 0.0
    # (ready_time_s, codeword id, bits_next, round of that burst,
    #  bits sent so far, accumulated MI per bit)
    pending: deque = deque()

    while True:
        if pending and pending[0][0] <= t:
            _, c, bits, j, n_prev, acc = pending.popleft()
            airtime = bits / bit_rate
            if t + airtime > duration:
                break  # c is cut off
            k = int(t / dt)  # the sample active at the burst's start
            n_new = n_prev + bits
            acc = (n_prev * acc + bits * mi_at[k]) / n_new  # fec.mi_update, inline
            mi_acc[c] = acc
        else:
            bits, airtime = first_bits, first_airtime
            if t + airtime > duration:
                c = -1  # a new codeword that does not fit was never started
                break
            k = int(t / dt)
            n_new, j = bits, 1
            # the fold above from n_prev = 0, float operation for float operation
            acc = (0.0 + bits * mi_at[k]) / n_new
            c = len(mi_acc)
            mi_acc.append(acc)
            decode_time.append(nan)
        burst_bits.append(bits)
        burst_cw.append(c)

        if n_new * acc >= budget:
            decode_time[c] = t + airtime + t_propag
        else:
            bits_next = policy_bits(j + 1, n_new, acc)  # 0: the codeword gets no further burst
            if bits_next:
                pending.append((t + airtime + rtt, c, bits_next, j + 1, n_new, acc))
        t += airtime

    # cut off: every codeword still queued, plus the one that no longer fit
    finished = np.ones(len(mi_acc), dtype=bool)
    finished[[entry[1] for entry in pending]] = False
    if c >= 0:
        finished[c] = False
    bits_col = np.array(burst_bits, dtype=np.int64)
    # Bursts go back to back from 0. add.accumulate sums the airtimes in
    # order, as t did, and each burst's sample is int(t / dt) as in the loop.
    burst_start = np.zeros(len(bits_col))
    np.cumsum(bits_col[:-1] / bit_rate, out=burst_start[1:])
    return RunLog(
        config=config,
        mi_acc_per_bit=np.array(mi_acc, dtype=float),
        decode_time_s=np.array(decode_time, dtype=float),
        finished=finished,
        burst_start_s=burst_start,
        burst_bits=bits_col,
        burst_rho=series.rho[(burst_start / dt).astype(np.intp)],
        burst_codeword=np.array(burst_cw, dtype=np.int64),
        policy=policy,
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
) -> list[RunLog]:
    """Cross-product of schemes, Es/N0 points and seeds, in stable order.

    Runs sharing a seed share the channel realization, which makes
    scheme comparisons paired: each seed's series is generated once and
    handed to all of its runs, and its per-sample MI is computed once per
    Es/N0 point and handed to that point's runs of every scheme. `model`
    may be None only for clear sky.
    """
    seeds = [int(seed) for seed in seeds]
    es_n0_list_db = [float(es_db) for es_db in es_n0_list_db]
    # every run's config first, so a bad scheme or Es/N0 fails before any work
    configs = [replace(base_config, scheme=scheme, es_n0_ref_db=es_db, seed=seed)
               for scheme in schemes for es_db in es_n0_list_db for seed in seeds]
    series = dict.fromkeys(seeds)  # clear sky: no series to share
    mi_samples = dict.fromkeys((seed, es_db) for es_db in es_n0_list_db for seed in seeds)
    if not base_config.clear_sky:
        if model is None:
            raise ConfigError("a channel model is required unless clear_sky is set")
        series = {seed: generate_series(model, base_config.duration_s, seed) for seed in series}
        # one float64 per sample and point, held for the whole sweep
        mi_samples = {
            (seed, es_db): _sample_mi(mi_table, series[seed], float(db_to_linear(es_db)))
            for seed, es_db in mi_samples
        }

    return [run(cfg, model, spec, mi_table, series=series[cfg.seed],
                mi_samples=mi_samples[cfg.seed, cfg.es_n0_ref_db]) for cfg in configs]
