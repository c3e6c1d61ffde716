"""Event loop behavior: scheduling, causality, decode bookkeeping."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lmsharq.channel import AttenuationSeries, generate_series
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec, is_decodable
from lmsharq.metrics import RunMetrics
from lmsharq.mi import db_to_linear, mi_inverse, mi_of
from lmsharq.sim import SimConfig, run, sweep

TOL = 1e-9


@pytest.fixture(scope="module")
def its_run(its_model, its_calib_cdf, code_spec, mi_table):
    cfg = SimConfig(environment="its", es_n0_ref_db=10.0, duration_s=120.0)
    return run(cfg, its_model, code_spec, mi_table, cdf=its_calib_cdf)


@pytest.fixture(scope="module")
def classical_run(its_model, its_calib_cdf, code_spec, mi_table):
    cfg = SimConfig(
        scheme="classical", environment="its", es_n0_ref_db=10.0, duration_s=120.0
    )
    return run(cfg, its_model, code_spec, mi_table, cdf=its_calib_cdf)


@pytest.fixture(scope="module")
def enhanced_run(its_model, its_calib_cdf, code_spec, mi_table):
    cfg = SimConfig(
        scheme="enhanced", environment="its", es_n0_ref_db=10.0, duration_s=120.0
    )
    return run(cfg, its_model, code_spec, mi_table, cdf=its_calib_cdf)


def all_bursts(log):
    out = []
    for cw in list(log.codewords) + list(log.censored):
        out.extend(cw.transmissions)
    return sorted(out, key=lambda tr: tr.start_time_s)


def test_config_consistency_checks():
    with pytest.raises(ConfigError, match="scheme"):
        SimConfig(scheme="hybrid")
    with pytest.raises(ConfigError):
        SimConfig(duration_s=0.0)
    with pytest.raises(ConfigError):
        SimConfig(max_transmissions=0)
    with pytest.raises(ConfigError, match="preset"):
        SimConfig(probs_preset="case9")
    with pytest.raises(ConfigError, match="negative"):
        SimConfig(t_propag_s=-0.25)


def test_missing_model_is_a_startup_error(code_spec, mi_table):
    with pytest.raises(ConfigError, match="model"):
        run(SimConfig(), None, code_spec, mi_table)


def test_short_series_is_a_data_error(monkeypatch, its_model, code_spec, mi_table):
    import lmsharq.sim as sim_mod

    def stub(model, duration_s, seed):
        return AttenuationSeries(
            time_s=np.array([0.0, 0.1]), rho=np.array([1.0, 1.0]), sample_dt_s=0.1
        )

    monkeypatch.setattr(sim_mod, "generate_series", stub)
    with pytest.raises(ValueError, match="shorter"):
        run(SimConfig(duration_s=60.0), its_model, code_spec, mi_table)


def test_no_fades_decode_on_first_transmission(code_spec, mi_table):
    cfg = SimConfig(clear_sky=True, es_n0_ref_db=10.0, duration_s=30.0)
    log = run(cfg, None, code_spec, mi_table)
    assert log.generated > 500
    assert not log.censored
    assert all(c.decoded and c.n_transmissions == 1 for c in log.codewords)


def test_classical_splits_a_shorter_mother_codeword(code_spec, mi_table):
    spec = CodeSpec(4460, 26760, Fraction(1, 6), code_spec.mi_req_per_bit)
    # a clear link that needs all four quarters of the mother codeword
    es_lin = mi_inverse(mi_table, 1.1 * spec.mi_req_per_bit)
    cfg = SimConfig(scheme="classical", clear_sky=True,
                    es_n0_ref_db=10.0 * math.log10(es_lin), duration_s=30.0)
    log = run(cfg, None, spec, mi_table)
    assert log.generated > 100
    assert all(c.decoded for c in log.codewords)
    sent = {tuple(tr.bits_sent for tr in c.transmissions) for c in log.codewords}
    assert sent == {(6690,) * 4}


def test_saturated_link_uses_the_whole_duration(classical_run):
    cfg = classical_run.config
    expected_bits = cfg.duration_s * cfg.bit_rate_bps
    assert classical_run.total_bits <= expected_bits + TOL
    assert classical_run.total_bits >= expected_bits - 13380
    assert classical_run.total_symbols == classical_run.total_bits // 2


def test_forward_link_never_overlaps(its_run):
    rate = its_run.config.bit_rate_bps
    bursts = all_bursts(its_run)
    total_airtime = 0.0
    for prev, nxt in zip(bursts, bursts[1:]):
        assert nxt.start_time_s >= prev.start_time_s + prev.bits_sent / rate - TOL
    for tr in bursts:
        total_airtime += tr.bits_sent / rate
    assert total_airtime <= its_run.config.duration_s + TOL


def test_feedback_causality(its_run):
    cfg = its_run.config
    for cw in list(its_run.codewords) + list(its_run.censored):
        for prev, nxt in zip(cw.transmissions, cw.transmissions[1:]):
            gap = prev.start_time_s + prev.bits_sent / cfg.bit_rate_bps + cfg.rtt_s
            assert nxt.start_time_s >= gap - TOL


def replayed_decisions(log, spec, mi_table):
    """Re-derive each codeword's decode verdicts from its burst history."""
    es = float(db_to_linear(log.config.es_n0_ref_db))
    for cw in log.codewords:
        acc = 0.0
        n = 0
        verdicts = []
        for tr in cw.transmissions:
            mi = mi_of(mi_table, tr.rho_applied * tr.rho_applied * es)
            n_new = n + tr.bits_sent
            acc = (n * acc + tr.bits_sent * mi) / n_new
            n = n_new
            verdicts.append(is_decodable(spec, n, acc))
        yield cw, verdicts


@pytest.mark.parametrize("which", ["adaptive", "classical"])
def test_decode_verdicts_replay_exactly(which, its_run, classical_run, code_spec, mi_table):
    log = its_run if which == "adaptive" else classical_run
    checked = 0
    for cw, verdicts in replayed_decisions(log, code_spec, mi_table):
        if cw.decoded:
            assert verdicts[-1] is True
            assert not any(verdicts[:-1])
        else:
            assert not any(verdicts)
        checked += 1
    assert checked == log.generated


@pytest.mark.parametrize("which", ["its_run", "classical_run", "enhanced_run"])
def test_bursts_replay_bit_for_bit_from_the_series(which, request, its_model, mi_table):
    """Each burst sees the sample active at its start, and the accumulated
    MI is the fold of a scalar mi_of per burst, to the last bit."""
    log = request.getfixturevalue(which)
    cfg = log.config
    series = generate_series(its_model, cfg.duration_s, cfg.seed)
    es = float(db_to_linear(cfg.es_n0_ref_db))
    for cw in list(log.codewords) + list(log.censored):
        acc, n = 0.0, 0
        for tr in cw.transmissions:
            rho = float(series.rho[int(tr.start_time_s / series.sample_dt_s)])
            assert tr.rho_applied.hex() == rho.hex()
            n_new = n + tr.bits_sent
            acc = (n * acc + tr.bits_sent * mi_of(mi_table, rho * rho * es)) / n_new
            n = n_new
        assert cw.mi_acc_per_bit.hex() == acc.hex()


def test_burst_totals_reconcile(its_run):
    from_bursts = sum(tr.bits_sent for tr in all_bursts(its_run))
    assert from_bursts == its_run.total_bits
    for cw in its_run.codewords:
        assert cw.n_total_sent == sum(tr.bits_sent for tr in cw.transmissions)
    assert its_run.decoded <= its_run.generated


def test_run_is_deterministic(its_model, its_calib_cdf, code_spec, mi_table):
    cfg = SimConfig(environment="its", es_n0_ref_db=9.0, duration_s=60.0)
    a = run(cfg, its_model, code_spec, mi_table, cdf=its_calib_cdf)
    b = run(cfg, its_model, code_spec, mi_table, cdf=its_calib_cdf)
    assert a.total_bits == b.total_bits
    assert [c.n_total_sent for c in a.codewords] == [c.n_total_sent for c in b.codewords]
    assert [c.decoded for c in a.codewords] == [c.decoded for c in b.codewords]


def test_sweep_order_and_single_point_equivalence(code_spec, mi_table):
    base = SimConfig(clear_sky=True, duration_s=30.0)
    logs = sweep(base, [10.0, 11.0], ("adaptive", "classical"), [1],
                 spec=code_spec, mi_table=mi_table)
    stamps = [(lg.config.scheme, lg.config.es_n0_ref_db) for lg in logs]
    assert stamps == [("adaptive", 10.0), ("adaptive", 11.0),
                      ("classical", 10.0), ("classical", 11.0)]
    solo = run(replace(base, scheme="adaptive", es_n0_ref_db=10.0),
               None, code_spec, mi_table)
    assert solo.total_bits == logs[0].total_bits
    assert solo.decoded == logs[0].decoded


@pytest.mark.grid
def test_rare_failures_at_the_low_end_of_the_sweep(its_grid):
    for scheme in ("classical", "enhanced", "adaptive"):
        m, _ = its_grid[scheme, 7]
        assert m.wer <= 1e-2


def test_another_seed_meets_the_same_tolerances(its_model, its_calib_cdf, code_spec, mi_table):
    cfg = SimConfig(environment="its", es_n0_ref_db=10.0, seed=2)
    log = run(cfg, its_model, code_spec, mi_table, cdf=its_calib_cdf)
    m = RunMetrics.from_log(log)
    targets = (0.5, 0.3, 0.1, 0.0999)
    assert m.generated >= 2000
    for got, want in zip(m.decode_fraction_per_transmission, targets):
        assert abs(got - want) <= 0.05
