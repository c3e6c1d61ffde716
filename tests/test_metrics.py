"""Figures of merit, checked on hand-built logs and on full runs."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import run_one
from lmsharq.channel import CLEAR_SKY
from lmsharq.errors import ConfigError, DataError
from lmsharq.metrics import RunMetrics, delay
from lmsharq.schemes import StaticBitTable
from lmsharq.sim import RunLog, SimConfig

CFG = SimConfig(environment="clear-sky", duration_s=30.0)
PEAK_EFFICIENCY = 8920 / 6690


def make_cw(bits_list, decoded=True):
    """One finished codeword: its burst sizes and whether the last decoded."""
    return list(bits_list), decoded


def make_log(codewords, horizon=4):
    """A log of finished codewords whose bursts follow each other in id
    order, under a policy of `horizon` rounds."""
    bits = [b for sizes, _ in codewords for b in sizes]
    owner = [c for c, (sizes, _) in enumerate(codewords) for _ in sizes]
    return RunLog(
        config=CFG,
        mi_acc_per_bit=np.zeros(len(codewords)),
        decode_time_s=np.array([0.1 * len(sizes) if ok else math.nan
                                for sizes, ok in codewords], dtype=float),
        finished=np.ones(len(codewords), dtype=bool),
        burst_start_s=0.1 * np.arange(len(bits), dtype=float),
        burst_bits=np.array(bits, dtype=np.int64),
        burst_rho=np.ones(len(bits)),
        burst_codeword=np.array(owner, dtype=np.int64),
        policy=StaticBitTable((13380,) * horizon),
        data_bits=8920,
    )


# Per-codeword references for RunMetrics.from_log, one figure each.

def decoded_codewords(log):
    """(n_total_sent, n_transmissions) of each decoded codeword, in id order."""
    return [
        (sent, j)
        for sent, j, when, done in zip(log.n_total_sent.tolist(), log.n_transmissions.tolist(),
                                       log.decode_time_s.tolist(), log.finished.tolist())
        if done and not math.isnan(when)
    ]


def efficiency(log):
    """Delivered data bits per transmitted channel symbol."""
    if log.total_symbols == 0:
        raise DataError("empty run log: no symbols were transmitted")
    return log.data_bits * log.decoded / log.total_symbols


def delay_s(log):
    """Mean completion delay over decoded codewords, in seconds."""
    delays = [delay(sent, j, log.config) for sent, j in decoded_codewords(log)]
    if not delays:
        return float("nan")
    return float(np.mean(delays))


def decode_histogram(log):
    """Fraction of finished codewords first decoded at each round."""
    bins = np.zeros(log.effective_max_transmissions)
    for _, j in decoded_codewords(log):
        bins[j - 1] += 1
    if log.generated:
        bins /= log.generated
    return bins


def test_single_codeword_efficiency_is_exact():
    log = make_log([make_cw([13380])])
    assert efficiency(log) == PEAK_EFFICIENCY


def test_nothing_decoded_means_zero_efficiency():
    log = make_log([make_cw([13380], decoded=False)])
    assert efficiency(log) == 0.0


def test_doubling_the_spent_bits_halves_efficiency():
    one = make_log([make_cw([13380])])
    two = make_log([make_cw([13380, 13380])])
    assert efficiency(two) == efficiency(one) / 2.0


def test_empty_log_is_rejected():
    log = make_log([])
    with pytest.raises(DataError, match="empty"):
        efficiency(log)
    # an empty log is a run shorter than its first burst, a configuration mistake
    with pytest.raises(ConfigError, match="empty run log: duration_s 30 s ends before"
                                          " the first burst's 0.02676 s of airtime"):
        RunMetrics.from_log(log)


def test_delay_reference_points():
    assert abs(delay(13380, 1, CFG) - 0.27676) <= 1e-12
    assert abs(delay(53520, 4, CFG) - 1.85704) <= 1e-12


def test_delay_reduces_to_airtime_without_propagation():
    link = SimpleNamespace(bit_rate_bps=5e5, t_propag_s=0.0)
    assert delay(13380, 1, link) == 13380 / 5e5


def test_delay_needs_at_least_one_transmission():
    with pytest.raises(DataError):
        delay(13380, 0, CFG)


def test_mean_delay_is_nan_when_nothing_decodes():
    log = make_log([make_cw([13380], decoded=False)])
    assert math.isnan(delay_s(log))


def test_histogram_of_a_first_round_decode():
    log = make_log([make_cw([13380])])
    bins = decode_histogram(log)
    assert bins.tolist() == [1.0, 0.0, 0.0, 0.0]
    m = RunMetrics.from_log(log)
    assert m.wer == 0.0
    assert sum(m.decode_fraction_per_transmission) == 1.0


def test_summary_bundle_fields():
    log = make_log([make_cw([13380]), make_cw([13380, 6000], decoded=False)])
    m = RunMetrics.from_log(log)
    # the run's identity is its log's config alone
    assert {f.name for f in dataclasses.fields(m)}.isdisjoint({"scheme", "es_n0_ref_db", "seed"})
    assert (m.generated, m.decoded, m.censored) == (2, 1, 0)
    assert m.wer == 0.5
    assert sum(m.decode_fraction_per_transmission) == 0.5
    assert m.mean_delay_s == delay(13380, 1, CFG)


@pytest.mark.grid
def test_decode_fractions_and_wer_partition_the_codewords(its_grid):
    for m, _ in its_grid.values():
        assert abs(sum(m.decode_fraction_per_transmission) + m.wer - 1.0) <= 1e-12


@pytest.mark.grid
def test_fixed_size_bursts_bound_the_mean_delay(its_grid):
    lo = delay(13380, 1, CFG)
    hi = delay(4 * 13380, 4, CFG)
    for (scheme, es), (m, _) in its_grid.items():
        if scheme != "classical":
            continue
        assert lo - 1e-12 <= m.mean_delay_s <= hi + 1e-12


@pytest.mark.grid
def test_classical_delay_falls_as_the_link_improves(its_grid):
    delays = [its_grid["classical", es][0].mean_delay_s for es in range(7, 14)]
    assert all(a > b for a, b in zip(delays, delays[1:]))


@pytest.mark.grid
def test_adaptive_decode_split_is_stable_across_the_sweep(its_grid):
    rounds = zip(
        *(its_grid["adaptive", es][0].decode_fraction_per_transmission
          for es in range(7, 14))
    )
    for values in rounds:
        assert max(values) - min(values) <= 0.1


@pytest.mark.grid
def test_fixed_size_schemes_cannot_beat_the_single_burst_rate(its_grid, open_grid):
    for grid in (its_grid, open_grid):
        for (scheme, es), (m, _) in grid.items():
            if scheme == "classical":
                assert m.efficiency_bits_per_symbol <= PEAK_EFFICIENCY + 1e-9


def test_unfaded_fixed_scheme_hits_the_single_burst_rate(code_spec, mi_table):
    cfg = SimConfig(scheme="classical", environment="clear-sky", duration_s=30.0)
    log = run_one(cfg, CLEAR_SKY, code_spec, mi_table)
    assert log.generated > 500
    assert efficiency(log) == PEAK_EFFICIENCY


def test_efficiency_counts_the_data_bits_of_the_run_code(its_model, code_spec, mi_table):
    from lmsharq.fec import CodeSpec

    half = CodeSpec(4460, 26760, code_spec.mi_req_per_bit)
    cfg = SimConfig(environment="its", es_n0_ref_db=10.0, duration_s=60.0)
    log = run_one(cfg, its_model, half, mi_table)
    m = RunMetrics.from_log(log)
    assert log.decoded > 0
    assert m.efficiency_bits_per_symbol == 4460 * log.decoded / log.total_symbols


def standalone_metrics(log):
    """RunMetrics assembled from the separate figure-of-merit functions."""
    n = log.generated
    return RunMetrics(
        generated=n,
        decoded=log.decoded,
        censored=int(np.count_nonzero(~log.finished)),
        wer=(n - log.decoded) / n if n else float("nan"),
        efficiency_bits_per_symbol=efficiency(log),
        mean_delay_s=delay_s(log),
        decode_fraction_per_transmission=tuple(decode_histogram(log)),
    )


@pytest.mark.parametrize("scheme", ["classical", "enhanced", "adaptive"])
@pytest.mark.parametrize("max_tx", [4, 6])
def test_from_log_equals_the_standalone_metrics(scheme, max_tx, its_model, code_spec,
                                                mi_table):
    cfg = SimConfig(scheme=scheme, environment="its", es_n0_ref_db=8.0, duration_s=120.0,
                    max_transmissions=max_tx)
    log = run_one(cfg, its_model, code_spec, mi_table)
    assert 0 < log.decoded < log.generated
    assert repr(RunMetrics.from_log(log)) == repr(standalone_metrics(log))


def test_from_log_equals_the_standalone_metrics_when_nothing_decodes(code_spec, mi_table):
    cfg = SimConfig(scheme="classical", environment="clear-sky", es_n0_ref_db=-10.0,
                    duration_s=30.0)
    log = run_one(cfg, CLEAR_SKY, code_spec, mi_table)
    assert log.generated > 0 and log.decoded == 0
    m = RunMetrics.from_log(log)
    assert math.isnan(m.mean_delay_s)
    assert repr(m) == repr(standalone_metrics(log))


@pytest.mark.parametrize("codewords", [
    [make_cw([13380]), make_cw([13380, 6000], decoded=False)],
    [make_cw([13380, 13380, 13380]), make_cw([13380]), make_cw([6000, 6000])],
    [make_cw([13380], decoded=False)],
])
def test_from_log_equals_the_standalone_metrics_on_built_logs(codewords):
    log = make_log(codewords)
    assert repr(RunMetrics.from_log(log)) == repr(standalone_metrics(log))
