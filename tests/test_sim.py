"""Event loop behavior: scheduling, causality, decode bookkeeping."""

import copy
import gc
import hashlib
import inspect
import math
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chain_oracle import chain_schedule
from conftest import numpy_simd_path, run_one
from oracles import bisection_mi_inverse
from lmsharq.channel import (
    CLEAR_SKY, AttenuationSeries, EmpiricalCdf, LmsModel, LooParams, generate_series,
)
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec, is_decodable, mi_update
from lmsharq.metrics import RunMetrics
from lmsharq.mi import db_to_linear, mi_of
from lmsharq.schemes import StaticBitTable
from lmsharq.sim import (
    CALIB_DURATION_S, CALIB_SEED, SCHEMES, SimConfig, calibration_cdf, derive_policy, run,
    sample_mi, sweep,
)

TOL = 1e-9


@pytest.fixture(scope="module")
def its_run(its_model, code_spec, mi_table):
    cfg = SimConfig(environment="its", es_n0_ref_db=10.0, duration_s=120.0)
    return run_one(cfg, its_model, code_spec, mi_table)


@pytest.fixture(scope="module")
def classical_run(its_model, code_spec, mi_table):
    cfg = SimConfig(
        scheme="classical", environment="its", es_n0_ref_db=10.0, duration_s=120.0
    )
    return run_one(cfg, its_model, code_spec, mi_table)


@pytest.fixture(scope="module")
def enhanced_run(its_model, code_spec, mi_table):
    cfg = SimConfig(
        scheme="enhanced", environment="its", es_n0_ref_db=10.0, duration_s=120.0
    )
    return run_one(cfg, its_model, code_spec, mi_table)


def bursts_by_codeword(log):
    """Each codeword's bursts as (start_s, bits, rho) tuples, in id order."""
    order = np.argsort(log.burst_codeword, kind="stable")
    bursts = list(zip(log.burst_start_s[order].tolist(), log.burst_bits[order].tolist(),
                      log.burst_rho[order].tolist()))
    out, at = [], 0
    for n in log.n_transmissions.tolist():
        out.append(bursts[at:at + n])
        at += n
    return out


# every RunLog column, with the dtype it has even when the run sent nothing
RUNLOG_COLUMNS = {
    "n_total_sent": np.int64, "mi_acc_per_bit": np.float64, "n_transmissions": np.int64,
    "decode_time_s": np.float64, "finished": np.bool_, "burst_start_s": np.float64,
    "burst_bits": np.int64, "burst_rho": np.float64, "burst_codeword": np.int64,
}


def assert_same_log(got, want):
    """Every column byte for byte, NaNs included, and every link total."""
    for name in RUNLOG_COLUMNS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("total_bits", "total_symbols", "effective_max_transmissions", "data_bits",
                 "policy"):
        assert getattr(got, name) == getattr(want, name), name


def test_a_config_cannot_change_after_its_checks():
    cfg = SimConfig(duration_s=30.0)
    with pytest.raises(FrozenInstanceError):
        cfg.scheme = "hybrid"
    assert cfg.scheme == "adaptive"
    # a changed copy goes through the checks again, and a config is a dict key
    with pytest.raises(ConfigError, match="scheme"):
        replace(cfg, scheme="hybrid")
    assert {cfg: 1}[replace(cfg, seed=1)] == 1


def test_a_bit_table_cannot_change_after_its_checks():
    # a sweep plays one policy on every seed
    table = StaticBitTable((13380, 13380))
    with pytest.raises(FrozenInstanceError):
        table.n_sent = (0,)
    assert table.n_sent == (13380, 13380)


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


def make_config(through_replace, **fields):
    """SimConfig(**fields), or the fields replaced into a default config as
    lmsharq sweep and figures build each run's config."""
    return replace(SimConfig(), **fields) if through_replace else SimConfig(**fields)


@pytest.mark.parametrize("through_replace", [False, True])
@pytest.mark.parametrize("name, value, message", [
    ("seed", -1, "seed cannot be negative"),
    ("seed", 1.0, "seed must be an integer"),
    ("seed", 1.5, "seed must be an integer"),
    ("seed", True, "seed must be an integer"),
    ("seed", "1", "seed must be an integer"),
    ("max_transmissions", 2.5, "max_transmissions must be an integer"),
    ("max_transmissions", 4.0, "max_transmissions must be an integer"),
    ("max_transmissions", True, "max_transmissions must be an integer"),
])
def test_seed_and_max_transmissions_are_whole_numbers(name, value, message, through_replace):
    with pytest.raises(ConfigError, match=message):
        make_config(through_replace, **{name: value})


def test_numpy_integers_are_whole_numbers():
    cfg = SimConfig(seed=np.int64(0), max_transmissions=np.int32(2))
    assert (cfg.seed, cfg.max_transmissions) == (0, 2)


@pytest.mark.parametrize("through_replace", [False, True])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["es_n0_ref_db", "t_propag_s", "bit_rate_bps", "duration_s"])
def test_non_finite_config_values_are_rejected(name, value, through_replace):
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
        make_config(through_replace, **{name: value})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("through_replace", [False, True])
@pytest.mark.parametrize("es_db", [4000.0, 3090.0, -3090.0, -4000.0])
def test_an_es_n0_with_no_normal_linear_value_is_rejected(es_db, through_replace):
    # 10^309 overflows and 10^-309 is subnormal; neither may warn on the way
    linear = {4000.0: "inf", 3090.0: "inf", -3090.0: "1e-309", -4000.0: "0"}[es_db]
    with pytest.raises(ConfigError, match=re.escape(
            f"es_n0_ref_db {es_db:g} dB is out of range: its linear value {linear}"
            " is not a finite, normal float")):
        make_config(through_replace, es_n0_ref_db=es_db)


@pytest.mark.filterwarnings("error")
def test_an_es_n0_at_the_edge_of_the_normal_range_is_accepted():
    assert SimConfig(es_n0_ref_db=3080.0).es_n0_ref_db == 3080.0
    assert SimConfig(es_n0_ref_db=-3070.0).es_n0_ref_db == -3070.0


def test_missing_model_is_a_startup_error(code_spec, mi_table):
    with pytest.raises(ConfigError, match="model"):
        run_one(SimConfig(), None, code_spec, mi_table)
    for scheme in ("enhanced", "adaptive"):
        with pytest.raises(ConfigError, match="model"):
            derive_policy(SimConfig(scheme=scheme), None, code_spec, mi_table)
    # the classical table reads no channel
    assert len(derive_policy(SimConfig(scheme="classical"), None, code_spec, mi_table)) == 4


def test_short_series_is_a_data_error(monkeypatch, its_model, code_spec, mi_table):
    import lmsharq.sim as sim_mod

    def stub(model, duration_s, seed):
        return AttenuationSeries(rho=np.array([1.0, 1.0]), sample_dt_s=0.1)

    calibration_cdf(its_model)  # memoised, so the policy reads no stubbed series
    monkeypatch.setattr(sim_mod, "generate_series", stub)
    with pytest.raises(ValueError, match="shorter"):
        run_one(SimConfig(duration_s=60.0), its_model, code_spec, mi_table)


def test_a_short_given_series_is_the_same_data_error(its_model, code_spec, mi_table):
    cfg = SimConfig(duration_s=60.0)
    series = generate_series(its_model, 59.9, 1)
    policy = derive_policy(cfg, its_model, code_spec, mi_table)
    with pytest.raises(ValueError, match="attenuation series shorter than the run duration"):
        run(cfg, code_spec, policy, series, sample_mi(mi_table, series, cfg.es_n0_ref_db))


@pytest.mark.parametrize("bad", ["float32", "short", "long"])
def test_given_mi_samples_are_float64_with_one_value_per_sample(bad, its_model, code_spec,
                                                                 mi_table):
    cfg = SimConfig(duration_s=30.0)
    series = generate_series(its_model, 30.0, 1)
    mi = mi_of(mi_table, series.rho * series.rho * float(db_to_linear(10.0)))
    mi = {"float32": mi.astype(np.float32), "short": mi[:-1], "long": np.append(mi, mi[-1])}[bad]
    with pytest.raises(ValueError, match="float64 array with one value per series sample"):
        run(cfg, code_spec, derive_policy(cfg, its_model, code_spec, mi_table), series, mi)


def test_a_clear_sky_run_takes_a_series_and_mi_samples_like_any_run(code_spec, mi_table):
    cfg = SimConfig(environment="clear-sky", es_n0_ref_db=CLEAR_SKY_ES_DB, duration_s=30.0)
    policy = derive_policy(cfg, CLEAR_SKY, code_spec, mi_table)
    short = generate_series(CLEAR_SKY, 29.9, 1)
    with pytest.raises(ValueError, match="attenuation series shorter than the run duration"):
        run(cfg, code_spec, policy, short, sample_mi(mi_table, short, cfg.es_n0_ref_db))
    series = generate_series(CLEAR_SKY, cfg.duration_s, cfg.seed)
    with pytest.raises(ValueError, match="float64 array with one value per series sample"):
        run(cfg, code_spec, policy, series, np.ones(2))


def test_run_takes_five_positional_inputs_and_nothing_else():
    params = inspect.signature(run).parameters.values()
    assert [p.name for p in params] == ["config", "spec", "policy", "series", "mi_samples"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in params)


# A hand-built schedule at 8 bits/s: a 4-bit first burst takes 0.5 s, a 2-bit
# retransmission 0.25 s, and the feedback is in 1 s after a burst ends.
# Sample 0 (up to 2.375 s) carries 0.25 bits of MI per bit, sample 1 a full
# bit. The budget of 8 * 0.25 = 2 takes a first burst in sample 1, or a
# first burst in sample 0 and its retransmission in sample 1. Every time and
# every accumulated MI is a binary fraction, so each one is exact.
HAND_BUILT = dict(
    # per burst
    start=[0.0, 0.5, 1.0, 1.5, 1.75, 2.25, 2.5, 2.75],
    bits=[4, 4, 4, 2, 4, 2, 2, 4],
    codeword=[0, 1, 2, 0, 3, 1, 2, 4],
    rho=[0.5] * 6 + [1.0] * 2,
    # per codeword. Codewords 0 and 1 spend both their rounds in sample 0
    # and stop undecoded: codeword 1's retransmission ends in sample 1 but
    # starts in sample 0. Codeword 2 decodes on its retransmission, and
    # codeword 4 on its first burst. The retransmissions of codewords 0 and
    # 2 start the moment their feedback is in.
    mi_acc=[0.25, 0.25, 0.5, 0.25, 1.0],
    decode_time=[math.nan, math.nan, 3.25, math.nan, 3.75],
    finished=[True, True, True, False, True],
)


@pytest.mark.parametrize("duration_s, bursts", [
    # codeword 3's retransmission, due at 3.25 s, would end at 3.5 s
    (3.4, 8),
    # codeword 4's first burst would end at 3.25 s, so it never starts,
    # and codeword 3 is cut off in the queue
    (3.2, 7),
])
def test_a_hand_built_schedule_plays_burst_by_burst(duration_s, bursts, monkeypatch):
    calls = [count_calls(monkeypatch, name)
             for name in ("generate_series", "derive_policy", "calibration_cdf", "faded_mi")]
    cfg = SimConfig(scheme="classical", environment="hand-built", t_propag_s=0.5,
                    bit_rate_bps=8.0, duration_s=duration_s)
    spec = CodeSpec(data_bits=4, mother_codeword_bits=8, mi_req_per_bit=0.25)
    policy = StaticBitTable((4, 2))
    series = AttenuationSeries(rho=np.array([0.5, 1.0]), sample_dt_s=2.375)
    log = run(cfg, spec, policy, series, np.array([0.25, 1.0]))

    assert calls == [[], [], [], []]  # the schedule alone
    assert log.burst_start_s.tolist() == HAND_BUILT["start"][:bursts]
    assert log.burst_bits.tolist() == HAND_BUILT["bits"][:bursts]
    assert log.burst_codeword.tolist() == HAND_BUILT["codeword"][:bursts]
    assert log.burst_rho.tolist() == HAND_BUILT["rho"][:bursts]
    n = max(HAND_BUILT["codeword"][:bursts]) + 1
    assert log.mi_acc_per_bit.tolist() == HAND_BUILT["mi_acc"][:n]
    assert np.array_equal(log.decode_time_s, HAND_BUILT["decode_time"][:n], equal_nan=True)
    assert log.finished.tolist() == HAND_BUILT["finished"][:n]
    assert log.policy is policy and log.data_bits == 4


def test_no_fades_decode_on_first_transmission(code_spec, mi_table):
    cfg = SimConfig(environment="clear-sky", es_n0_ref_db=10.0, duration_s=30.0)
    log = run_one(cfg, CLEAR_SKY, code_spec, mi_table)
    assert log.generated > 500
    assert log.finished.all()
    assert log.decoded == log.generated
    assert (log.n_transmissions == 1).all()


def test_classical_splits_a_shorter_mother_codeword(code_spec, mi_table):
    spec = CodeSpec(4460, 26760, code_spec.mi_req_per_bit)
    # a clear link that needs all four quarters of the mother codeword
    es_lin = bisection_mi_inverse(mi_table, 1.1 * spec.mi_req_per_bit)
    cfg = SimConfig(scheme="classical", environment="clear-sky",
                    es_n0_ref_db=10.0 * math.log10(es_lin), duration_s=30.0)
    log = run_one(cfg, CLEAR_SKY, spec, mi_table)
    assert log.generated > 100
    assert log.decoded == log.generated
    sent = {tuple(b for _, b, _ in bursts)
            for bursts, done in zip(bursts_by_codeword(log), log.finished) if done}
    assert sent == {(6690,) * 4}


def test_a_codeword_that_meets_the_budget_exactly_decodes(code_spec, mi_table):
    """The loop's inline decode test is fec.is_decodable's >=, at equality too."""
    quarter = code_spec.mother_codeword_bits // 4
    mi = mi_of(mi_table, float(db_to_linear(CLEAR_SKY_ES_DB)))
    reached = quarter * ((0.0 + quarter * mi) / quarter)  # after one classical burst
    spec = replace(code_spec, mi_req_per_bit=reached / code_spec.mother_codeword_bits)
    assert spec.mi_budget == reached and is_decodable(spec, quarter, reached / quarter)
    cfg = SimConfig(scheme="classical", environment="clear-sky", es_n0_ref_db=CLEAR_SKY_ES_DB,
                    duration_s=5.0)
    log = run_one(cfg, CLEAR_SKY, spec, mi_table)
    assert log.generated > 100 and (log.n_transmissions == 1).all()
    # one ulp more and the first burst falls short
    spec = replace(spec, mi_req_per_bit=math.nextafter(spec.mi_req_per_bit, 1.0))
    log = run_one(cfg, CLEAR_SKY, spec, mi_table)
    assert log.finished.any() and (log.n_transmissions[log.finished] == 2).all()


def test_saturated_link_uses_the_whole_duration(classical_run):
    cfg = classical_run.config
    expected_bits = cfg.duration_s * cfg.bit_rate_bps
    assert classical_run.total_bits <= expected_bits + TOL
    assert classical_run.total_bits >= expected_bits - 13380


def test_forward_link_never_overlaps(its_run):
    rate = its_run.config.bit_rate_bps
    starts = its_run.burst_start_s.tolist()
    bits = its_run.burst_bits.tolist()
    assert starts == sorted(starts)
    total_airtime = 0.0
    for i in range(1, len(starts)):
        assert starts[i] >= starts[i - 1] + bits[i - 1] / rate - TOL
    for b in bits:
        total_airtime += b / rate
    assert total_airtime <= its_run.config.duration_s + TOL


def test_feedback_causality(its_run):
    cfg = its_run.config
    for bursts in bursts_by_codeword(its_run):
        for (t0, b0, _), (t1, _, _) in zip(bursts, bursts[1:]):
            assert t1 >= t0 + b0 / cfg.bit_rate_bps + cfg.rtt_s - TOL


def replayed_decisions(log, spec, mi_table):
    """Re-derive each codeword's decode verdicts from its burst history."""
    es = float(db_to_linear(log.config.es_n0_ref_db))
    for c, bursts in enumerate(bursts_by_codeword(log)):
        if not log.finished[c]:
            continue
        n, acc = 0, 0.0
        verdicts = []
        for _, bits, rho in bursts:
            n, acc = mi_update(n, acc, bits, mi_of(mi_table, rho * rho * es))
            verdicts.append(is_decodable(spec, n, acc))
        yield not math.isnan(log.decode_time_s[c]), verdicts


@pytest.mark.parametrize("which", ["adaptive", "classical", "enhanced"])
def test_decode_verdicts_replay_exactly(which, request, code_spec, mi_table):
    """The loop's inline decode test gives fec.is_decodable's verdict on
    every burst of every scheme."""
    log = request.getfixturevalue("its_run" if which == "adaptive" else f"{which}_run")
    checked = 0
    for decoded, verdicts in replayed_decisions(log, code_spec, mi_table):
        if decoded:
            assert verdicts[-1] is True
            assert not any(verdicts[:-1])
        else:
            assert not any(verdicts)
        checked += 1
    assert checked == log.generated


@pytest.mark.parametrize("which", ["its_run", "classical_run", "enhanced_run"])
def test_bursts_replay_bit_for_bit_from_the_series(which, request, its_model, mi_table):
    """Each burst sees the sample active at its start, and the accumulated
    MI is the fec.mi_update fold of a scalar mi_of per burst, to the last bit."""
    log = request.getfixturevalue(which)
    cfg = log.config
    series = generate_series(its_model, cfg.duration_s, cfg.seed)
    es = float(db_to_linear(cfg.es_n0_ref_db))
    for c, bursts in enumerate(bursts_by_codeword(log)):
        acc, n = 0.0, 0
        for start, bits, rho_applied in bursts:
            rho = float(series.rho[int(start / series.sample_dt_s)])
            assert rho_applied.hex() == rho.hex()
            n, acc = mi_update(n, acc, bits, mi_of(mi_table, rho * rho * es))
        assert float(log.mi_acc_per_bit[c]).hex() == acc.hex()


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("env", ["its", "clear"])
def test_bursts_follow_the_recorded_policy(env, scheme, record_models, code_spec, mi_table):
    """Each burst's size is the log's policy applied to what its codeword
    had received before it, folded through fec.mi_update."""
    log = record_run(env, scheme, 4, code_spec, mi_table, record_models)
    assert log.policy == derive_policy(log.config, record_models[env], code_spec, mi_table)
    es = float(db_to_linear(log.config.es_n0_ref_db))
    rounds, stopped = [], 0
    for bursts, finished, decoded in zip(bursts_by_codeword(log), log.finished.tolist(),
                                         (~np.isnan(log.decode_time_s)).tolist()):
        n, acc = 0, 0.0
        for j, (_, bits, rho) in enumerate(bursts, start=1):
            assert bits == log.policy.bits(j, n, acc)
            n, acc = mi_update(n, acc, bits, mi_of(mi_table, rho * rho * es))
        rounds.append(len(bursts))
        if finished and not decoded:
            # the loop stops an undecoded codeword where its policy answers 0
            assert log.policy.bits(len(bursts) + 1, n, acc) == 0
            stopped += 1
    assert len(rounds) == len(log.finished) > 100
    # clear sky decodes a threshold scheme's first burst, the shadowed track does not
    assert max(rounds) > 1 if env == "its" or scheme == "classical" else max(rounds) == 1
    assert stopped > 0 if env == "its" else stopped == 0


def test_a_policy_is_cut_to_the_horizon(its_model, code_spec, mi_table):
    def policy(scheme, max_tx):
        cfg = SimConfig(scheme=scheme, environment="its", max_transmissions=max_tx)
        return derive_policy(cfg, its_model, code_spec, mi_table)

    assert policy("classical", 2) == StaticBitTable((13380, 13380))
    assert policy("classical", 6) == StaticBitTable((13380,) * 4)
    assert [len(policy("adaptive", k)) for k in (1, 3, 4, 6)] == [1, 3, 4, 4]
    assert policy("adaptive", 2).mi_needed_per_bit == policy("adaptive", 4).mi_needed_per_bit[:2]
    # case3 on its clamps the enhanced table's fourth round, which a horizon
    # of three cuts off with its note
    full = policy("enhanced", 4)
    assert len(full) == 4 and full.notes == (
        f"transmission 4 clamped to the {full.n_sent[-1]} bits left of the mother codeword;"
        " table ends there",)
    assert policy("enhanced", 6) == full
    assert policy("enhanced", 3) == StaticBitTable(full.n_sent[:3])
    assert policy("adaptive", 4).notes == ()


def test_burst_totals_reconcile(its_run):
    assert sum(its_run.burst_bits.tolist()) == its_run.total_bits
    for sent, bursts in zip(its_run.n_total_sent.tolist(), bursts_by_codeword(its_run)):
        assert sent == sum(b for _, b, _ in bursts)
    assert its_run.decoded <= its_run.generated


def test_run_is_deterministic(its_model, code_spec, mi_table):
    cfg = SimConfig(environment="its", es_n0_ref_db=9.0, duration_s=60.0)
    a = run_one(cfg, its_model, code_spec, mi_table)
    b = run_one(cfg, its_model, code_spec, mi_table)
    assert a.total_bits == b.total_bits
    assert a.n_total_sent.tolist() == b.n_total_sent.tolist()
    assert a.finished.tolist() == b.finished.tolist()
    assert np.isnan(a.decode_time_s).tolist() == np.isnan(b.decode_time_s).tolist()


def configs_of(base, es_n0_list_db, schemes, seeds):
    """The scheme x Es/N0 x seed configs of lmsharq sweep, in its order."""
    return [replace(base, scheme=scheme, es_n0_ref_db=es_db, seed=seed)
            for scheme in schemes for es_db in es_n0_list_db for seed in seeds]


def test_sweep_order_and_single_point_equivalence(code_spec, mi_table):
    base = SimConfig(environment="clear-sky", duration_s=30.0)
    configs = configs_of(base, [10.0, 11.0], ("adaptive", "classical"), [1])
    logs = sweep(configs, CLEAR_SKY, spec=code_spec, mi_table=mi_table)
    assert [lg.config for lg in logs] == configs
    stamps = [(lg.config.scheme, lg.config.es_n0_ref_db) for lg in logs]
    assert stamps == [("adaptive", 10.0), ("adaptive", 11.0),
                      ("classical", 10.0), ("classical", 11.0)]
    solo = run_one(replace(base, scheme="adaptive", es_n0_ref_db=10.0),
               CLEAR_SKY, code_spec, mi_table)
    assert_same_log(logs[0], solo)


@pytest.mark.grid
def test_rare_failures_at_the_low_end_of_the_sweep(its_grid):
    for scheme in ("classical", "enhanced", "adaptive"):
        m, _ = its_grid[scheme, 7]
        assert m.wer <= 1e-2


def test_another_seed_meets_the_same_tolerances(its_model, code_spec, mi_table):
    cfg = SimConfig(environment="its", es_n0_ref_db=10.0, seed=2)
    log = run_one(cfg, its_model, code_spec, mi_table)
    m = RunMetrics.from_log(log)
    targets = (0.5, 0.3, 0.1, 0.0999)
    assert m.generated >= 2000
    for got, want in zip(m.decode_fraction_per_transmission, targets):
        assert abs(got - want) <= 0.05


def record_digest(log):
    """sha256 over every per-codeword record of a run, floats as hex:
    the finished codewords in id order, then the cut-off ones."""
    bursts = bursts_by_codeword(log)
    sent = log.n_total_sent.tolist()
    acc = log.mi_acc_per_bit.tolist()
    when = log.decode_time_s.tolist()
    h = hashlib.sha256()
    for tag, done in (("done", True), ("cut", False)):
        for c in np.flatnonzero(log.finished == done).tolist():
            decoded = not math.isnan(when[c])
            at = when[c].hex() if decoded else "-"
            h.update(f"{tag} {c} {decoded} {sent[c]} {acc[c].hex()} {at}\n".encode())
            for start, bits, rho in bursts[c]:
                h.update(f" {start.hex()} {bits} {rho.hex()}\n".encode())
    return h.hexdigest()


# Clear sky at -2 dB: a classical codeword needs three of its four bursts.
CLEAR_SKY_ES_DB = -2.0


def record_run(env, scheme, max_tx, spec, table, models):
    """One pinned run: 120 s on a channel track at 10 dB, or 30 s of clear sky."""
    clear = env == "clear"
    cfg = SimConfig(scheme=scheme, environment="clear-sky" if clear else env,
                    es_n0_ref_db=CLEAR_SKY_ES_DB if clear else 10.0,
                    duration_s=30.0 if clear else 120.0, max_transmissions=max_tx)
    return run_one(cfg, models[env], spec, table)


RECORD_CASES = [
    (env, scheme, max_tx)
    for env in ("its", "open") for scheme in SCHEMES for max_tx in (1, 4, 6)
] + [("clear", scheme, 4) for scheme in SCHEMES]

# Recorded on x86-64 with NumPy 2.4 on SIMD path X86_V3 X86_V4 AVX512_ICL
# AVX512_SPR, from the event loop that tracked unfinished codewords in a dict.
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
def record_models(its_model, open_model):
    return {"its": its_model, "open": open_model, "clear": CLEAR_SKY}


@pytest.mark.parametrize("env, scheme, max_tx", RECORD_CASES)
def test_codeword_records_are_pinned(env, scheme, max_tx, record_models, code_spec, mi_table):
    log = record_run(env, scheme, max_tx, code_spec, mi_table, record_models)
    n = len(log.finished)
    assert all(len(col) == n for col in (
        log.n_total_sent, log.mi_acc_per_bit, log.n_transmissions, log.decode_time_s))
    # ids are handed out in order of first burst, and every codeword has one
    firsts = np.unique(log.burst_codeword, return_index=True)[1]
    assert firsts.tolist() == sorted(firsts.tolist()) and len(firsts) == n
    assert record_digest(log) == RECORD_SHA256[f"{env}-{scheme}-{max_tx}"], numpy_simd_path()


def count_calls(monkeypatch, name):
    """Count the calls made through a function's lmsharq.sim binding."""
    import lmsharq.sim as sim_mod

    calls = []
    real = getattr(sim_mod, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(sim_mod, name, counting)
    return calls


@pytest.mark.parametrize("scheme", SCHEMES)
def test_only_threshold_policies_calibrate(scheme, monkeypatch, its_model, code_spec, mi_table):
    cfg = SimConfig(scheme=scheme, environment="its", duration_s=60.0)
    first = run_one(cfg, its_model, code_spec, mi_table)
    calls = count_calls(monkeypatch, "calibration_cdf")
    again = run_one(cfg, its_model, code_spec, mi_table)  # from the memoised CDF
    assert len(calls) == (scheme != "classical")
    assert record_digest(again) == record_digest(first)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_only_threshold_policies_read_the_clear_sky_cdf(scheme, monkeypatch, code_spec, mi_table):
    calls = count_calls(monkeypatch, "calibration_cdf")
    cfg = SimConfig(scheme=scheme, environment="clear-sky", duration_s=5.0)
    run_one(cfg, CLEAR_SKY, code_spec, mi_table)
    assert len(calls) == (scheme != "classical")


@pytest.mark.parametrize("schemes, expected", [
    (("classical",), 0),
    (("classical", "adaptive"), 1),
    (SCHEMES, 1),
])
def test_sweep_calibrates_once_and_only_when_needed(schemes, expected, its_model,
                                                    code_spec, mi_table):
    calibration_cdf.cache_clear()
    base = SimConfig(environment="its", duration_s=5.0)
    logs = sweep(configs_of(base, [10.0], schemes, [1]), its_model, spec=code_spec,
                 mi_table=mi_table)
    assert len(logs) == len(schemes)
    # each miss generates one 3600 s calibration series
    assert calibration_cdf.cache_info().misses == expected


def test_a_model_is_calibrated_once(monkeypatch, its_model):
    first = calibration_cdf(its_model)
    calls = count_calls(monkeypatch, "generate_series")
    assert calibration_cdf(its_model) is first
    # the memo is keyed by the parameters, not by the model object
    assert calibration_cdf(copy.deepcopy(its_model)) is first
    assert calls == []


def test_a_calibration_cdf_is_read_only(its_model):
    cdf = calibration_cdf(its_model)
    with pytest.raises(ValueError, match="read-only"):
        cdf.sorted_rho[0] = 0.0
    with pytest.raises(FrozenInstanceError):
        cdf.sorted_rho = np.ones(3)


def _scale(name, factor, state=None):
    def change(model):
        if state is None:
            return replace(model, **{name: getattr(model, name) * factor})
        states = list(model.states)
        states[state] = replace(states[state], **{name: getattr(states[state], name) * factor})
        return replace(model, states=tuple(states))
    return change


def _reverse_first_row(model):
    first, *rest = model.transition_matrix
    return replace(model, transition_matrix=(first[::-1], *rest))


MODEL_CHANGES = {
    **{f"state{k}-{name}": _scale(name, factor, state=k)
       for k in range(3) for name, factor in (("alpha_db", 0.5), ("psi_db", 1.5), ("mp_db", 2.0))},
    "transition_matrix": _reverse_first_row,
    "state_frame_m": _scale("state_frame_m", 2.0),
    "sample_frame_m": _scale("sample_frame_m", 2.0),
    "speed_mps": _scale("speed_mps", 0.5),
}


@pytest.mark.parametrize("field", sorted(MODEL_CHANGES))
def test_a_model_changed_in_place_is_calibrated_again(field, its_model):
    """A model cannot change in place. A copy with one field that
    generate_series reads replaced gives the CDF of its own series."""
    before = calibration_cdf(its_model)
    model = MODEL_CHANGES[field](its_model)
    got = calibration_cdf(model)
    want = EmpiricalCdf(generate_series(model, CALIB_DURATION_S, CALIB_SEED).rho)
    assert got.sorted_rho.tobytes() == want.sorted_rho.tobytes()
    assert got.sorted_rho.tobytes() != before.sorted_rho.tobytes()


def small_model(alpha_db):
    """A model whose calibration takes 3600 samples: one per 5 m at 5 m/s."""
    return LmsModel(states=tuple(LooParams(alpha_db, 1.0, -10.0) for _ in range(3)),
                    transition_matrix=np.full((3, 3), 1.0 / 3.0),
                    state_frame_m=5.0, sample_frame_m=5.0, speed_mps=5.0)


def test_the_least_recently_used_calibration_is_evicted(monkeypatch):
    cap = calibration_cdf.cache_info().maxsize
    models = [small_model(-float(k)) for k in range(cap + 1)]
    calls = count_calls(monkeypatch, "generate_series")
    first = [calibration_cdf(m) for m in models[:cap]]
    assert len(calls) == cap
    assert calibration_cdf(models[0]) is first[0]  # now the most recently used
    calibration_cdf(models[-1])
    assert calibration_cdf.cache_info().currsize == cap
    assert len(calls) == cap + 1
    assert calibration_cdf(models[0]) is first[0]
    assert len(calls) == cap + 1
    again = calibration_cdf(models[1])  # evicted, so computed again
    assert len(calls) == cap + 2
    assert again is not first[1]
    assert again.sorted_rho.tobytes() == first[1].sorted_rho.tobytes()
    assert calibration_cdf.cache_info().currsize == cap


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_run_shorter_than_its_first_burst_is_empty(scheme, its_model, code_spec, mi_table):
    cfg = SimConfig(scheme=scheme, environment="its", duration_s=0.01)
    log = run_one(cfg, its_model, code_spec, mi_table)
    for name, dtype in RUNLOG_COLUMNS.items():
        col = getattr(log, name)
        assert col.shape == (0,) and col.dtype == dtype, name
    assert log.total_bits == log.total_symbols == log.generated == 0


def its_sweep(its_model, code_spec, mi_table):
    """Two seeds by three schemes by two Es/N0 points on the shadowed track."""
    base = SimConfig(environment="its", duration_s=20.0)
    return sweep(configs_of(base, [8.0, 12.0], SCHEMES, [3, 4]), its_model,
                 spec=code_spec, mi_table=mi_table)


def test_a_sweep_generates_one_series_per_seed(monkeypatch, its_model, code_spec, mi_table):
    calibration_cdf(its_model)  # memoised, so the runs generate no calibration series
    series_calls = count_calls(monkeypatch, "generate_series")
    run_calls = count_calls(monkeypatch, "run")
    logs = its_sweep(its_model, code_spec, mi_table)
    assert len(series_calls) == 2
    # one call per run through the module binding, which the benchmark wraps
    assert len(run_calls) == len(logs) == 12


def test_a_sweep_maps_each_series_to_mi_once(monkeypatch, its_model, code_spec, mi_table):
    import lmsharq.sim as sim_mod

    mapped = []
    real = sim_mod.faded_mi

    def mapping(table, rho, es_n0_ref_linear):
        mapped.append(np.size(rho))
        return real(table, rho, es_n0_ref_linear)

    monkeypatch.setattr(sim_mod, "faded_mi", mapping)
    run_calls = count_calls(monkeypatch, "run")
    logs = its_sweep(its_model, code_spec, mi_table)
    # one map per seed and Es/N0 point, shared by the three schemes
    samples = len(generate_series(its_model, 20.0, 3).rho)
    assert mapped == [samples] * 4
    assert len(run_calls) == len(logs) == 12


def test_a_sweep_derives_one_policy_per_scheme_and_point(monkeypatch, its_model, code_spec,
                                                        mi_table):
    policy_calls = count_calls(monkeypatch, "derive_policy")
    run_calls = count_calls(monkeypatch, "run")
    logs = its_sweep(its_model, code_spec, mi_table)
    # three schemes by two points, each played on both seeds
    assert len(policy_calls) == 6
    assert len(run_calls) == len(logs) == 12
    for first, second in zip(logs[::2], logs[1::2]):
        assert (first.config.seed, second.config.seed) == (3, 4)
        assert second.policy is first.policy


def test_a_sweep_shares_a_series_within_one_seed_and_duration(monkeypatch, its_model, code_spec,
                                                              mi_table):
    calibration_cdf(its_model)  # memoised, so the runs generate no calibration series
    base = SimConfig(environment="its", duration_s=5.0)
    configs = [base, replace(base, scheme="classical"), replace(base, duration_s=6.0),
               replace(base, seed=2), replace(base, es_n0_ref_db=12.0), base]
    calls = {name: count_calls(monkeypatch, name)
             for name in ("generate_series", "sample_mi", "derive_policy", "run")}
    logs = sweep(configs, its_model, spec=code_spec, mi_table=mi_table)
    # series per (seed, duration_s), MI maps per (seed, duration_s, Es/N0),
    # policies per config with its seed set to 0, and one run per config given
    assert {name: len(made) for name, made in calls.items()} == {
        "generate_series": 3, "sample_mi": 4, "derive_policy": 4, "run": 6}
    assert [log.config for log in logs] == configs
    for log in logs:
        assert_same_log(log, run_one(log.config, its_model, code_spec, mi_table))


def test_a_sweep_log_carries_the_policy_of_its_config(its_model, code_spec, mi_table):
    clear = SimConfig(environment="clear-sky", duration_s=5.0, max_transmissions=2)
    logs = its_sweep(its_model, code_spec, mi_table) + sweep(
        configs_of(clear, [CLEAR_SKY_ES_DB, 10.0], SCHEMES, [1, 2]), CLEAR_SKY, spec=code_spec,
        mi_table=mi_table)
    for log in logs:
        model = CLEAR_SKY if log.config.environment == "clear-sky" else its_model
        assert log.policy == derive_policy(log.config, model, code_spec, mi_table)
        assert log.effective_max_transmissions == len(log.policy)


def test_sweep_runs_equal_standalone_runs(its_model, code_spec, mi_table):
    for log in its_sweep(its_model, code_spec, mi_table):
        solo = run_one(log.config, its_model, code_spec, mi_table)
        assert_same_log(log, solo)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_long_run_leaves_the_collector_almost_nothing(scheme, its_model, code_spec, mi_table):
    """A run keeps its records in columns of untracked ints and floats, so
    it adds a handful of collector-tracked objects, not one per burst."""
    cfg = SimConfig(scheme=scheme, environment="its", duration_s=600.0)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        log = run_one(cfg, its_model, code_spec, mi_table)
        added = len(gc.get_objects()) - before
    finally:
        if was:
            gc.enable()
    assert len(log.burst_bits) > 20_000
    assert added < 1000


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("env, max_tx", [("its", 1), ("its", 4), ("its", 6), ("clear", 4)])
def test_a_run_leaves_no_cyclic_garbage(scheme, env, max_tx, record_models, code_spec, mi_table):
    """Refcounting alone frees everything a run made once its log is dropped."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        log = record_run(env, scheme, max_tx, code_spec, mi_table, record_models)
        assert log.generated
        del log
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    scheme=st.sampled_from(SCHEMES),
    max_tx=st.integers(min_value=1, max_value=6),
    clear_sky=st.booleans(),
    duration_s=st.floats(min_value=0.5, max_value=3.0),
    es_db=st.floats(min_value=-2.0, max_value=13.0),
    half_data_bits=st.integers(min_value=200, max_value=4460),
    inverse_rate=st.integers(min_value=2, max_value=6),
    mi_req=st.floats(min_value=0.1, max_value=0.6),
)
def test_schedule_invariants_hold_on_the_columns(scheme, max_tx, clear_sky, duration_s, es_db,
                                                 half_data_bits, inverse_rate, mi_req,
                                                 its_model, mi_table):
    data_bits = 2 * half_data_bits
    spec = CodeSpec(data_bits, inverse_rate * data_bits, mi_req)
    model = CLEAR_SKY if clear_sky else its_model
    cfg = SimConfig(scheme=scheme, environment="clear-sky" if clear_sky else "its",
                    es_n0_ref_db=es_db, duration_s=duration_s, max_transmissions=max_tx)
    log = run_one(cfg, model, spec, mi_table)
    rate, rtt = cfg.bit_rate_bps, cfg.rtt_s
    start = log.burst_start_s.tolist()
    bits = log.burst_bits.tolist()
    owner = log.burst_codeword.tolist()
    n = len(log.finished)

    # the saturated link sends back to back, so bursts never overlap
    assert start[:1] in ([], [0.0])
    for i in range(1, len(start)):
        assert start[i] == start[i - 1] + bits[i - 1] / rate
    if start:
        assert start[-1] + bits[-1] / rate <= duration_s
    # a retransmission waits for the feedback of its codeword's previous burst;
    # the per-codeword totals are folded burst by burst on the way
    last = {}
    sent, count = [0] * n, [0] * n
    for s, b, c in zip(start, bits, owner):
        if c in last:
            s0, b0 = last[c]
            assert s >= s0 + b0 / rate + rtt
        last[c] = (s, b)
        sent[c] += b
        count[c] += 1
    assert sorted(last) == list(range(n))

    assert log.n_total_sent.tolist() == sent
    assert log.n_transmissions.tolist() == count
    assert log.n_transmissions.max(initial=0) <= log.effective_max_transmissions <= max_tx
    assert log.total_bits == sum(bits) == 2 * log.total_symbols

    series = generate_series(model, duration_s, cfg.seed)
    k = [int(s / series.sample_dt_s) for s in start]
    assert log.burst_rho.tolist() == series.rho[k].tolist()

    if log.generated:
        m = RunMetrics.from_log(log)
        assert abs(sum(m.decode_fraction_per_transmission) + m.wer - 1.0) <= 1e-12
        assert m.censored == n - log.generated


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    bit_rate=st.floats(min_value=1e3, max_value=1e6),
    # classical splits the mother codeword equally at these symbol counts
    symbols=st.one_of(st.integers(1, 3), st.integers(1, 500).map(lambda q: 4 * q)),
    max_tx=st.integers(min_value=1, max_value=6),
    # rtt / a: 0, a whole number, or anything, moved by a few ulps of t_propag_s
    lag=st.one_of(st.just(0.0), st.integers(1, 30).map(float), st.floats(0.0, 30.0)),
    ulps=st.integers(min_value=-2, max_value=2),
    slots=st.floats(min_value=0.5, max_value=300.0),
    samples_per_slot=st.floats(min_value=0.05, max_value=20.0),
    mi_req=st.floats(min_value=0.05, max_value=0.95),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_classical_run_plays_the_chain_oracles_schedule(bit_rate, symbols, max_tx, lag, ulps,
                                                          slots, samples_per_slot, mi_req, seed,
                                                          mi_table):
    spec = CodeSpec(symbols, 2 * symbols, mi_req)
    cfg = SimConfig(scheme="classical", environment="clear-sky", bit_rate_bps=bit_rate,
                    max_transmissions=max_tx)
    policy = derive_policy(cfg, CLEAR_SKY, spec, mi_table)
    a = policy.n_sent[0] / bit_rate
    t_propag = lag * a / 2.0
    for _ in range(abs(ulps)):
        t_propag = float(np.nextafter(t_propag, math.copysign(math.inf, ulps)))
    cfg = replace(cfg, t_propag_s=max(t_propag, 0.0), duration_s=slots * a)
    dt = a / samples_per_slot
    rng = np.random.default_rng(seed)
    series = AttenuationSeries(rho=rng.random(math.ceil(slots * samples_per_slot) + 1), sample_dt_s=dt)
    mi_samples = rng.random(series.rho.size)

    columns = chain_schedule(cfg, spec, policy, dt, mi_samples)
    # the float slot clock can bring two verdicts into one slot near a whole
    # rtt / a, where a backlog can form and the chains do not hold
    assume(columns is not None)
    start, owner, acc, decode_time, finished = columns
    log = run(cfg, spec, policy, series, mi_samples)
    assert log.burst_start_s.tolist() == start
    assert log.burst_bits.tolist() == [policy.n_sent[0]] * len(start)
    assert log.burst_codeword.tolist() == owner
    assert log.burst_rho.tolist() == [series.rho[int(t / dt)] for t in start]
    assert log.mi_acc_per_bit.tolist() == acc
    assert np.array_equal(log.decode_time_s, decode_time, equal_nan=True)
    assert log.finished.tolist() == finished
