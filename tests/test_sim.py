"""Event loop behavior: scheduling, causality, decode bookkeeping."""

import contextlib
import gc
import hashlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lmsharq.channel import AttenuationSeries, generate_series
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec, is_decodable
from lmsharq.metrics import RunMetrics
from lmsharq.mi import db_to_linear, mi_inverse, mi_of
from lmsharq.sim import SCHEMES, SimConfig, run, sweep

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


def record_digest(log):
    """sha256 over every per-codeword record of a run, floats as hex."""
    h = hashlib.sha256()
    for tag, codewords in (("done", log.codewords), ("cut", log.censored)):
        for c in codewords:
            when = "-" if c.decode_time_s is None else c.decode_time_s.hex()
            h.update(f"{tag} {c.id} {c.decoded} {c.n_total_sent} "
                     f"{c.mi_acc_per_bit.hex()} {when}\n".encode())
            for tr in c.transmissions:
                h.update(f" {tr.start_time_s.hex()} {tr.bits_sent} "
                         f"{tr.rho_applied.hex()}\n".encode())
    return h.hexdigest()


# Clear sky at -2 dB: a classical codeword needs three of its four bursts.
CLEAR_SKY_ES_DB = -2.0


@contextlib.contextmanager
def quiet_policy_build():
    """Silence the policy builders' expected warnings: a clear-sky CDF is
    one sample, and the enhanced table clamps its last round."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "degenerate channel CDF", UserWarning)
        warnings.filterwarnings("ignore", "transmission .* clamped", UserWarning)
        yield


def record_run(env, scheme, max_tx, spec, table, models, cdfs):
    """One pinned run: 120 s on a channel track, or 30 s of clear sky."""
    if env == "clear":
        cfg = SimConfig(scheme=scheme, clear_sky=True, es_n0_ref_db=CLEAR_SKY_ES_DB,
                        duration_s=30.0, max_transmissions=max_tx)
        model, cdf = None, None
    else:
        cfg = SimConfig(scheme=scheme, environment=env, es_n0_ref_db=10.0,
                        duration_s=120.0, max_transmissions=max_tx)
        model, cdf = models[env], cdfs[env]
    with quiet_policy_build():
        return run(cfg, model, spec, table, cdf=cdf)


RECORD_CASES = [
    (env, scheme, max_tx)
    for env in ("its", "open") for scheme in SCHEMES for max_tx in (1, 4, 6)
] + [("clear", scheme, 4) for scheme in SCHEMES]

# Recorded from the event loop that tracked unfinished codewords in a dict.
RECORD_SHA256 = {
    "its-classical-1": "e47c3682063a21389da3a96a7d1d734fc65f6ff8f9daa270fd1ee1ff728c1330",
    "its-classical-4": "d889c565703284a1b4e23598cfa922815f9cb5939675918fb7fe407f3ecdb2dc",
    "its-classical-6": "d889c565703284a1b4e23598cfa922815f9cb5939675918fb7fe407f3ecdb2dc",
    "its-enhanced-1": "5e03128e559d21c68b248fccca902512fdd20b971d012ed5990cb0fdbf249723",
    "its-enhanced-4": "10623c4021a660e1585a8069bc3e296faa53cf755f9e5e23cf53611884dfede3",
    "its-enhanced-6": "10623c4021a660e1585a8069bc3e296faa53cf755f9e5e23cf53611884dfede3",
    "its-adaptive-1": "5e03128e559d21c68b248fccca902512fdd20b971d012ed5990cb0fdbf249723",
    "its-adaptive-4": "6ac61829327e055e644fee0766bdf75bffdeb1688533fda0c99bc26dcf9269fb",
    "its-adaptive-6": "6ac61829327e055e644fee0766bdf75bffdeb1688533fda0c99bc26dcf9269fb",
    "open-classical-1": "0ae8abde6222f827f98bf8a5518f2d1b88f45875ca1a8d4ded617122de908c6c",
    "open-classical-4": "70d3fc46485b68afd98d2c5ae223556f567a06cc629a8fa1b2561930d83470d6",
    "open-classical-6": "70d3fc46485b68afd98d2c5ae223556f567a06cc629a8fa1b2561930d83470d6",
    "open-enhanced-1": "0de48a5649d56ee7a3a2e5a7ceaa60dd2b68b1fe38b2e19bc310ff91a5151c53",
    "open-enhanced-4": "506b3ebe024d7be2aeed6c68a5da076a4f51219c6718da759a61745b3132496f",
    "open-enhanced-6": "506b3ebe024d7be2aeed6c68a5da076a4f51219c6718da759a61745b3132496f",
    "open-adaptive-1": "0de48a5649d56ee7a3a2e5a7ceaa60dd2b68b1fe38b2e19bc310ff91a5151c53",
    "open-adaptive-4": "9a33510f5b9a79711858970ff677c67db149fe4133ad2164b7ec7a34dcf5fff0",
    "open-adaptive-6": "9a33510f5b9a79711858970ff677c67db149fe4133ad2164b7ec7a34dcf5fff0",
    "clear-classical-4": "14ff274ade9215926109759b5906626f362ceb3ca228ae875152ed30e30b53f3",
    "clear-enhanced-4": "0f94407f9ed61ac3783fc643e9cd480c7e36cb854e5bb4fd3ebd3d55c746392c",
    "clear-adaptive-4": "0f94407f9ed61ac3783fc643e9cd480c7e36cb854e5bb4fd3ebd3d55c746392c",
}


@pytest.fixture(scope="module")
def record_inputs(its_model, open_model, its_calib_cdf, open_calib_cdf):
    return {"its": its_model, "open": open_model}, {"its": its_calib_cdf, "open": open_calib_cdf}


@pytest.mark.parametrize("env, scheme, max_tx", RECORD_CASES)
def test_codeword_records_are_pinned(env, scheme, max_tx, record_inputs, code_spec, mi_table):
    log = record_run(env, scheme, max_tx, code_spec, mi_table, *record_inputs)
    done = [c.id for c in log.codewords]
    cut = [c.id for c in log.censored]
    assert done == sorted(done) and cut == sorted(cut)
    assert sorted(done + cut) == list(range(len(done) + len(cut)))
    assert record_digest(log) == RECORD_SHA256[f"{env}-{scheme}-{max_tx}"]


def count_calls(monkeypatch, name):
    """Count the calls sim.run makes to a function of lmsharq.sim."""
    import lmsharq.sim as sim_mod

    calls = []
    real = getattr(sim_mod, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_mod, name, counting)
    return calls


@pytest.mark.parametrize("scheme", SCHEMES)
def test_only_threshold_policies_calibrate(scheme, monkeypatch, its_model, its_calib_cdf,
                                           code_spec, mi_table):
    cfg = SimConfig(scheme=scheme, environment="its", duration_s=60.0)
    with quiet_policy_build():
        given = run(cfg, its_model, code_spec, mi_table, cdf=its_calib_cdf)
        calls = count_calls(monkeypatch, "calibration_cdf")
        derived = run(cfg, its_model, code_spec, mi_table)
    assert len(calls) == (scheme != "classical")
    assert record_digest(derived) == record_digest(given)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_only_threshold_policies_read_the_clear_sky_cdf(scheme, monkeypatch, code_spec, mi_table):
    calls = count_calls(monkeypatch, "empirical_cdf")
    cfg = SimConfig(scheme=scheme, clear_sky=True, duration_s=5.0)
    with quiet_policy_build():
        run(cfg, None, code_spec, mi_table)
    assert len(calls) == (scheme != "classical")


@pytest.mark.parametrize("schemes, expected", [
    (("classical",), 0),
    (("classical", "adaptive"), 1),
    (SCHEMES, 1),
])
def test_sweep_calibrates_once_and_only_when_needed(schemes, expected, monkeypatch, its_model,
                                                    code_spec, mi_table):
    calls = count_calls(monkeypatch, "calibration_cdf")
    base = SimConfig(environment="its", duration_s=5.0)
    with quiet_policy_build():
        logs = sweep(base, [10.0], schemes, [1], its_model, spec=code_spec, mi_table=mi_table)
    assert len(logs) == len(schemes)
    assert len(calls) == expected


def set_collector(enabled):
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_state(enabled, code_spec, mi_table):
    was = gc.isenabled()
    try:
        set_collector(enabled)
        run(SimConfig(scheme="classical", clear_sky=True, duration_s=5.0), None, code_spec, mi_table)
        assert gc.isenabled() is enabled
    finally:
        set_collector(was)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_survives_a_raising_loop(enabled, monkeypatch, code_spec, mi_table):
    import lmsharq.sim as sim_mod

    def broken(*args):
        raise RuntimeError("decoder failed")

    monkeypatch.setattr(sim_mod, "is_decodable", broken)
    was = gc.isenabled()
    try:
        set_collector(enabled)
        with pytest.raises(RuntimeError, match="decoder failed"):
            run(SimConfig(scheme="classical", clear_sky=True, duration_s=5.0), None, code_spec, mi_table)
        assert gc.isenabled() is enabled
    finally:
        set_collector(was)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("env, max_tx", [("its", 1), ("its", 4), ("its", 6), ("clear", 4)])
def test_a_run_leaves_no_cyclic_garbage(scheme, env, max_tx, record_inputs, code_spec, mi_table):
    """sim.run pauses the collector during its loop; that is only safe
    while a run makes no reference cycles for it to find."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        log = record_run(env, scheme, max_tx, code_spec, mi_table, *record_inputs)
        assert log.codewords
        del log
        assert gc.collect() == 0
    finally:
        set_collector(was)
