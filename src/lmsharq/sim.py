"""Continuous-time link simulation.

A saturated transmitter keeps the forward link busy with back-to-back
bursts. Each codeword follows stop-and-wait HARQ: after a burst the
receiver's verdict comes back one round-trip later, and the link fills
the gap with bursts of other codewords. Retransmissions whose feedback
has arrived take priority over new codewords.
"""

from __future__ import annotations

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
    CodewordState,
    DecodingProbTable,
    SchemeExhausted,
    build_enhanced_table,
    conditional_prob,
    equal_split,
    fold_burst,
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
    """Outcome of one run: per-codeword records plus link totals.

    codewords holds every codeword whose HARQ exchange finished inside
    the horizon; censored holds the ones cut off by the end of the run
    (their bursts still count in the totals).
    """

    config: SimConfig
    codewords: list
    censored: list
    total_bits: int
    total_symbols: int
    effective_max_transmissions: int
    data_bits: int

    @property
    def generated(self) -> int:
        return len(self.codewords)

    @property
    def decoded(self) -> int:
        return sum(1 for c in self.codewords if c.decoded)


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
        if cdf is None:
            cdf = empirical_cdf(series)
    else:
        if model is None:
            raise ConfigError("a channel model is required unless clear_sky is set")
        series = generate_series(model, config.duration_s, config.seed)
        if series.time_s[-1] + series.sample_dt_s < config.duration_s:
            raise ValueError("attenuation series shorter than the run duration")
        if cdf is None:
            cdf = calibration_cdf(model)

    es_n0_lin = float(db_to_linear(config.es_n0_ref_db))
    probs = DecodingProbTable(PROB_PRESETS[config.probs_preset])

    if config.scheme == "classical":
        policy = equal_split(spec)
    elif config.scheme == "enhanced":
        policy = build_enhanced_table(cdf, probs, spec, es_n0_lin, mi_table)
    else:
        policy = AdaptivePolicy(spec, tuple(
            mi_needed(cdf, conditional_prob(probs, j), es_n0_lin, mi_table)[1]
            for j in range(1, min(config.max_transmissions, len(probs)) + 1)
        ))
    horizon = min(config.max_transmissions, len(policy))
    first_bits = policy.bits(CodewordState(id=-1), 1)

    dt = series.sample_dt_s
    rho_samples = series.rho.tolist()
    mi_samples = mi_of(mi_table, series.rho * series.rho * es_n0_lin).tolist()

    t = 0.0
    next_id = 0
    total_bits = 0
    completed: list[CodewordState] = []
    pending: deque = deque()  # (ready_time_s, state, bits_next)
    in_flight: dict[int, CodewordState] = {}

    while True:
        if pending and pending[0][0] <= t:
            _, cw, bits = pending.popleft()
        else:
            cw, bits = None, first_bits
        airtime = bits / config.bit_rate_bps
        if t + airtime > config.duration_s:
            break
        if cw is None:
            cw = in_flight[next_id] = CodewordState(id=next_id)
            next_id += 1

        k = int(t / dt)  # the sample active at the burst's start
        fold_burst(cw, t, bits, rho_samples[k], mi_samples[k])
        total_bits += bits
        j = cw.n_transmissions
        receive_time = t + airtime + config.t_propag_s

        if is_decodable(spec, cw.n_total_sent, cw.mi_acc_per_bit):
            cw.decoded = True
            cw.decode_time_s = receive_time
            completed.append(cw)
            del in_flight[cw.id]
        elif j >= horizon:
            completed.append(cw)
            del in_flight[cw.id]
        else:
            try:
                bits_next = policy.bits(cw, j + 1)
            except SchemeExhausted:
                completed.append(cw)
                del in_flight[cw.id]
            else:
                pending.append((t + airtime + config.rtt_s, cw, bits_next))
        t += airtime

    censored = sorted(in_flight.values(), key=lambda c: c.id)
    completed.sort(key=lambda c: c.id)
    assert total_bits % 2 == 0
    return RunLog(
        config=config,
        codewords=completed,
        censored=censored,
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
    all runs.
    """
    if not base_config.clear_sky:
        if model is None:
            raise ConfigError("a channel model is required unless clear_sky is set")
        if cdf is None:
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
