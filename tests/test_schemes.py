"""Burst sizing policies."""

import gc
import re
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmsharq.channel import EmpiricalCdf, generate_series, quantile
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec
from lmsharq.mi import MODULATION_BITS, MiTable, db_to_linear, mi_of
from lmsharq.schemes import (
    CLASSICAL_ROUNDS,
    ENHANCED_TABLE_DRAWS,
    ENHANCED_TABLE_SEED,
    PROB_PRESETS,
    AdaptivePolicy,
    DecodingProbTable,
    StaticBitTable,
    _DRAWS,
    _ceil_to_symbol,
    _enhanced_draws,
    build_enhanced_table,
    conditional_prob,
    equal_split,
    mi_needed,
)


@pytest.fixture(scope="module")
def small_cdf(its_model):
    return EmpiricalCdf(generate_series(its_model, 100.0, seed=5).rho)


def test_probability_table_validation():
    with pytest.raises(ValueError, match="empty"):
        DecodingProbTable(())
    with pytest.raises(ValueError, match="\\(0, 1\\]"):
        DecodingProbTable((0.0, 0.5))
    with pytest.raises(ValueError, match="\\(0, 1\\]"):
        DecodingProbTable((1.5,))
    with pytest.raises(ValueError, match="at most 1"):
        DecodingProbTable((0.7, 0.7))


def test_preset_probabilities_sum_to_projected_success_rate():
    for name in ("case1", "case2", "case3"):
        assert abs(sum(PROB_PRESETS[name]) - 0.9999) < 1e-12


def test_bit_table_validation():
    with pytest.raises(ValueError, match="empty"):
        StaticBitTable(())
    with pytest.raises(ValueError, match="positive"):
        StaticBitTable((13380, 0))


def test_equal_split_preset_covers_the_mother_codeword():
    table = equal_split(CodeSpec())
    assert table.n_sent == (13380, 13380, 13380, 13380)
    assert sum(table.n_sent) == 53520


@pytest.mark.parametrize("spec, expected", [
    (CodeSpec(), (13380,) * 4),
    (CodeSpec(4460, 26760), (6690,) * 4),
    (CodeSpec(8922, 53532), (13384, 13384, 13382, 13382)),
    (CodeSpec(9, 54), (14, 14, 14, 12)),
    (CodeSpec(1, 6), (2, 2, 2)),
])
def test_equal_split_is_whole_symbols_of_the_mother_codeword(spec, expected):
    bits = equal_split(spec).n_sent
    assert bits == expected
    symbols = spec.mother_codeword_bits // MODULATION_BITS
    assert all(b % MODULATION_BITS == 0 for b in bits)
    assert max(bits) - min(bits) <= MODULATION_BITS
    assert list(bits) == sorted(bits, reverse=True)
    assert sum(bits) == symbols * MODULATION_BITS
    assert len(bits) == min(CLASSICAL_ROUNDS, symbols)


def test_conditional_probabilities_exact():
    case3 = DecodingProbTable(PROB_PRESETS["case3"])
    for j, expected in zip((1, 2, 3, 4), (0.5, 0.6, 0.5, 0.999)):
        assert conditional_prob(case3, j) == pytest.approx(expected, abs=1e-12)
    assert conditional_prob(DecodingProbTable(PROB_PRESETS["case1"]), 1) == 0.9999
    case2 = DecodingProbTable(PROB_PRESETS["case2"])
    assert conditional_prob(case2, 2) == pytest.approx(0.9998, abs=1e-12)


def test_conditional_probability_domain_errors():
    table = DecodingProbTable(PROB_PRESETS["case3"])
    with pytest.raises(ValueError):
        conditional_prob(table, 0)
    with pytest.raises(ValueError):
        conditional_prob(table, 5)
    saturated = DecodingProbTable((1.0, 1e-12))
    with pytest.raises(ValueError, match="sum to 1"):
        conditional_prob(saturated, 2)


def test_threshold_tracks_the_quantile(small_cdf, mi_table):
    es = float(db_to_linear(10.0))
    rho, mi = mi_needed(small_cdf, 0.999, es, mi_table)
    assert rho == quantile(small_cdf, 1.0 - 0.999)
    assert mi == mi_of(mi_table, rho * rho * es)
    rho_easy, _ = mi_needed(small_cdf, 1e-9, es, mi_table)
    assert rho_easy == small_cdf.sorted_rho[-1]


def test_threshold_monotone_in_probability(small_cdf, mi_table):
    es = float(db_to_linear(10.0))
    rng = np.random.default_rng(22)
    ps = np.sort(rng.uniform(0.001, 0.999, size=100))
    rows = [mi_needed(small_cdf, float(p), es, mi_table) for p in ps]
    rhos = [r for r, _ in rows]
    mis = [m for _, m in rows]
    assert np.all(np.diff(rhos) <= 0.0)
    assert np.all(np.diff(mis) <= 0.0)


def test_threshold_domain_and_degenerate_warning(small_cdf, mi_table):
    es = float(db_to_linear(10.0))
    with pytest.raises(ValueError):
        mi_needed(small_cdf, 0.0, es, mi_table)
    with pytest.raises(ValueError):
        mi_needed(small_cdf, 1.0, es, mi_table)
    # a one-value CDF, as clear sky builds, has a well-defined quantile
    flat = EmpiricalCdf(sorted_rho=np.array([0.7]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, _ = mi_needed(flat, 0.5, es, mi_table)
    assert rho == 0.7


def test_sizing_clamps_to_the_remaining_budget():
    spec = CodeSpec(mi_req_per_bit=0.9)
    # raw need (48168 - 6690) / 0.8 = 51847.5, above the 40140 left
    assert AdaptivePolicy(spec, (0.8,)).bits(1, 13380, 0.5) == 40140


def test_sizing_of_a_fresh_codeword_at_unit_threshold():
    spec = CodeSpec(mi_req_per_bit=0.9)
    assert AdaptivePolicy(spec, (1.0,)).bits(1) == _ceil_to_symbol(53520 * 0.9)
    assert AdaptivePolicy(spec, (1.0,)).bits(1, 0, 0.0) == 48168


def test_sizing_answers_0_once_the_mother_code_is_spent():
    spec = CodeSpec(mi_req_per_bit=0.9)
    assert AdaptivePolicy(spec, (0.5,)).bits(1, 53520, 0.2) == 0
    # less than one symbol left is spent too
    assert AdaptivePolicy(spec, (0.5,)).bits(1, 53519, 0.2) == 0
    assert AdaptivePolicy(spec, (0.5,)).bits(1, 53518, 0.2) == MODULATION_BITS


def test_sizing_rejects_bad_inputs():
    spec = CodeSpec(mi_req_per_bit=0.9)
    with pytest.raises(ValueError):
        AdaptivePolicy(spec, (0.0,)).bits(1)
    with pytest.raises(ValueError):
        AdaptivePolicy(spec, (-0.5,))
    # a policy without rounds would answer bits(1) == 0, a first burst of no airtime
    with pytest.raises(ValueError, match="threshold table is empty"):
        AdaptivePolicy(spec, ())


@settings(derandomize=True, deadline=None)
@given(
    sent=st.integers(min_value=0, max_value=26_758).map(lambda s: 2 * s),
    acc=st.floats(min_value=0.0, max_value=0.4),
    mi=st.floats(min_value=0.01, max_value=1.0),
)
def test_sizing_is_positive_even_and_within_budget(sent, acc, mi):
    spec = CodeSpec(mi_req_per_bit=0.243)
    bits = AdaptivePolicy(spec, (mi,)).bits(1, sent, acc)
    assert bits >= 2
    assert bits % 2 == 0
    assert bits <= spec.mother_codeword_bits - sent


def test_sizing_is_pure():
    spec = CodeSpec(mi_req_per_bit=0.243)
    policy = AdaptivePolicy(spec, (0.5,))
    assert policy.bits(1, 13380, 0.2) == policy.bits(1, 13380, 0.2)


def test_fixed_table_lookup():
    table = equal_split(CodeSpec())
    assert [table.bits(j) for j in (1, 2, 3, 4)] == [13380] * 4
    assert table.bits(2, 13380, 0.9) == 13380
    assert table.bits(5) == 0
    with pytest.raises(ValueError):
        table.bits(0)


@pytest.mark.parametrize(
    "policy",
    [
        equal_split(CodeSpec()),
        AdaptivePolicy(CodeSpec(mi_req_per_bit=0.243), (0.9, 0.5, 0.3, 0.1)),
    ],
    ids=["static", "adaptive"],
)
def test_policies_reject_rounds_outside_their_table(policy):
    assert len(policy) == 4
    with pytest.raises(ValueError, match="starts at 1"):
        policy.bits(0)
    assert policy.bits(5) == 0
    assert policy.bits(5, 13380, 0.1) == 0


def test_offline_table_without_channel_uncertainty(mi_table, code_spec):
    clear = EmpiricalCdf(sorted_rho=np.array([1.0]))
    probs = DecodingProbTable(PROB_PRESETS["case3"])
    es = float(db_to_linear(10.0))
    table = build_enhanced_table(clear, probs, code_spec, es, mi_table)
    n_1 = _ceil_to_symbol(code_spec.mi_budget / mi_of(mi_table, es))
    assert table.n_sent[0] == n_1
    assert table.n_sent[1:] == (2, 2, 2)


def test_offline_table_single_shot_fallback(its_calib_cdf, mi_table, code_spec):
    # a one-transmission target through the deepest fades cannot fit
    probs = DecodingProbTable(PROB_PRESETS["case1"])
    es = float(db_to_linear(7.0))
    table = build_enhanced_table(its_calib_cdf, probs, code_spec, es, mi_table)
    assert table.n_sent == (code_spec.mother_codeword_bits,)
    assert table.notes == ("first transmission needs the whole mother codeword; table is the"
                           " single-shot fallback",)


def test_offline_table_clamps_the_last_stage(its_calib_cdf, mi_table, code_spec):
    probs = DecodingProbTable(PROB_PRESETS["case3"])
    es = float(db_to_linear(7.0))
    table = build_enhanced_table(its_calib_cdf, probs, code_spec, es, mi_table)
    assert len(table.n_sent) == 4
    assert table.notes == (f"transmission 4 clamped to the {table.n_sent[-1]} bits left of the"
                           " mother codeword; table ends there",)
    assert sum(table.n_sent) == code_spec.mother_codeword_bits
    assert all(v > 0 and v % 2 == 0 for v in table.n_sent)


def test_offline_table_structure_and_determinism(small_cdf, mi_table, code_spec):
    probs = DecodingProbTable(PROB_PRESETS["case3"])
    es = float(db_to_linear(10.0))
    a = build_enhanced_table(small_cdf, probs, code_spec, es, mi_table)
    b = build_enhanced_table(small_cdf, probs, code_spec, es, mi_table)
    assert a.n_sent == b.n_sent
    assert 1 <= len(a.n_sent) <= len(probs.p)
    assert sum(a.n_sent) <= code_spec.mother_codeword_bits
    assert all(v > 0 and v % 2 == 0 for v in a.n_sent)


def _reference_enhanced_table(cdf, probs, spec, es_n0_ref_linear, mi_table):
    """build_enhanced_table as first written: rng.choice over the sample
    values, mi_of over the draws, and a fresh np.mean for every test.
    Each limit the build meets is a note on the table."""
    budget = spec.mi_budget
    _, m_1 = mi_needed(cdf, conditional_prob(probs, 1), es_n0_ref_linear, mi_table)
    n_1 = _ceil_to_symbol(budget / m_1)
    if n_1 >= spec.mother_codeword_bits:
        return StaticBitTable((spec.mother_codeword_bits,), (
            "first transmission needs the whole mother codeword; table is the"
            " single-shot fallback",))
    entries = [n_1]
    total = n_1
    notes = []
    rng = np.random.default_rng(ENHANCED_TABLE_SEED)
    draws = rng.choice(cdf.sorted_rho, size=(ENHANCED_TABLE_DRAWS, len(probs.p)))
    mi_draws = np.asarray(mi_of(mi_table, draws * draws * es_n0_ref_linear))
    acc = mi_draws[:, 0] * n_1
    cum_target = probs.p[0]
    for j in range(2, len(probs.p) + 1):
        cum_target += probs.p[j - 1]
        remaining = spec.mother_codeword_bits - total
        if remaining < MODULATION_BITS:
            notes.append(f"mother codeword exhausted before transmission {j}; table ends")
            break
        col = mi_draws[:, j - 1]
        if np.mean(acc + remaining * col >= budget) < cum_target:
            notes.append(f"transmission {j} clamped to the {remaining} bits left of the"
                         " mother codeword; table ends there")
            entries.append(remaining)
            total += remaining
            break
        lo, hi = 0, remaining // MODULATION_BITS
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if np.mean(acc + mid * MODULATION_BITS * col >= budget) >= cum_target:
                hi = mid
            else:
                lo = mid
        bits = max(hi, 1) * MODULATION_BITS
        entries.append(bits)
        total += bits
        acc = acc + bits * col
    return StaticBitTable(tuple(entries), tuple(notes))


@pytest.mark.parametrize("short", [False, True], ids=["default", "short"])
@pytest.mark.parametrize("env", ["its", "open"])
def test_enhanced_tables_of_random_probabilities_equal_the_reference(
    env, short, request, code_spec, mi_table
):
    cdf = request.getfixturevalue(f"{env}_calib_cdf")
    spec = CodeSpec(4460, 26760, code_spec.mi_req_per_bit) if short else code_spec
    rng = np.random.default_rng([ENHANCED_TABLE_SEED, short, env == "open"])
    for _ in range(10):
        weights = rng.uniform(0.05, 1.0, size=rng.integers(2, 6))
        probs = DecodingProbTable(weights / weights.sum() * rng.uniform(0.3, 0.9999))
        es_db = rng.uniform(-3.0, 18.0)
        args = (cdf, probs, spec, float(db_to_linear(es_db)), mi_table)
        assert build_enhanced_table(*args) == _reference_enhanced_table(*args), (probs, es_db)


@pytest.mark.parametrize("short", [False, True], ids=["default", "short"])
@pytest.mark.parametrize("preset", ["case1", "case2", "case3"])
@pytest.mark.parametrize("env", ["its", "open"])
def test_enhanced_table_equals_the_reference(env, preset, short, request, code_spec, mi_table):
    cdf = request.getfixturevalue(f"{env}_calib_cdf")
    spec = code_spec
    if short:
        spec = CodeSpec(4460, 26760, code_spec.mi_req_per_bit)
    probs = DecodingProbTable(PROB_PRESETS[preset])
    for es_db in range(-2, 17):
        args = (cdf, probs, spec, float(db_to_linear(float(es_db))), mi_table)
        assert build_enhanced_table(*args) == _reference_enhanced_table(*args), es_db


# Per-bit MI of 0.5 or 1 at every draw (rho 0.5, 1, 1, 2 at Es/N0 4), so
# every accumulated total is exact. At the 0.5 quantile the first burst
# is 13380 bits with MI 1: a quarter of the draws then hold 6690 of the
# 13380 budget, and those whose second burst sees MI 1 reach the budget
# itself at exactly 3345 symbols; the others need 6690.
DYADIC_TABLE = MiTable(es_n0_linear=np.array([1.0, 4.0]), mi_per_bit=np.array([0.5, 1.0]))
DYADIC_CDF = EmpiricalCdf(sorted_rho=np.array([0.5, 1.0, 1.0, 2.0]))
DYADIC_SPEC = CodeSpec(mi_req_per_bit=0.25)


def test_enhanced_table_counts_a_draw_that_meets_the_budget_exactly():
    probs = DecodingProbTable(PROB_PRESETS["case3"])
    args = (DYADIC_CDF, probs, DYADIC_SPEC, 4.0, DYADIC_TABLE)
    got = build_enhanced_table(*args)
    assert got == _reference_enhanced_table(*args)
    assert DYADIC_SPEC.mi_budget == 13380.0
    assert got.n_sent[:2] == (13380, 6690)


def test_enhanced_table_divides_the_count_by_the_number_of_draws():
    draws = np.random.default_rng(ENHANCED_TABLE_SEED).choice(
        DYADIC_CDF.sorted_rho, size=(ENHANCED_TABLE_DRAWS, 2))
    # the draws decoded once the second burst is 3345 symbols
    k = int(np.count_nonzero((draws[:, 0] >= 1.0) | (draws[:, 1] >= 1.0)))
    n = ENHANCED_TABLE_DRAWS
    # a cumulative target k / n misses and k / (n - 1) would meet
    target = (k / n + k / (n - 1)) / 2
    probs = DecodingProbTable((0.5, target - 0.5))
    args = (DYADIC_CDF, probs, DYADIC_SPEC, 4.0, DYADIC_TABLE)
    got = build_enhanced_table(*args)
    assert got == _reference_enhanced_table(*args)
    assert got == StaticBitTable((13380, 13380))


def test_enhanced_table_gives_one_symbol_to_a_stage_the_earlier_bursts_meet():
    # three quarters of the draws decode on the first burst alone
    probs = DecodingProbTable((0.5, 0.2))
    args = (DYADIC_CDF, probs, DYADIC_SPEC, 4.0, DYADIC_TABLE)
    got = build_enhanced_table(*args)
    assert got == _reference_enhanced_table(*args)
    assert got == StaticBitTable((13380, MODULATION_BITS))


# The lowest sample falls below the grid, whose first MI is 0: a quarter of
# the draws per round carry no MI, and the 1/16 with none in either round
# never decode. Those that decoded on the first burst and draw 0 MI in the
# second sit exactly on the budget.
ZERO_MI_TABLE = MiTable(es_n0_linear=np.array([1.0, 4.0]), mi_per_bit=np.array([0.0, 1.0]))
ZERO_MI_CDF = EmpiricalCdf(sorted_rho=np.array([0.25, 1.0, 1.0, 2.0]))


@pytest.mark.parametrize(
    "second, expected",
    [
        (0.4, StaticBitTable((13380, 13380))),
        (0.45, StaticBitTable((13380, 40140), ("transmission 2 clamped to the 40140 bits"
                                               " left of the mother codeword; table ends there",))),
    ],
)
def test_enhanced_table_never_decodes_a_draw_without_mi(second, expected):
    probs = DecodingProbTable((0.5, second))
    args = (ZERO_MI_CDF, probs, DYADIC_SPEC, 4.0, ZERO_MI_TABLE)
    got = build_enhanced_table(*args)
    assert got == _reference_enhanced_table(*args)
    assert got == expected


# Half the mother codeword at twice the MI per bit: the budget stays 13380
# bits, and so does the remainder after a first burst of 13380. A draw that
# fails the first burst had MI 0 and needs all of the remainder at MI 1, so
# the second stage decodes 3/4 of the draws below the whole remainder and
# 15/16 at it. With one sample of three below the grid, 44514 draws decode
# at the whole remainder, and a target one float above 44514 / 50000 needs
# one more.
THIRD_ZERO_CDF = EmpiricalCdf(sorted_rho=np.array([0.25, 1.0, 2.0]))
CLAMPED = ("transmission 2 clamped to the 13380 bits left of the mother codeword;"
           " table ends there",)
# a third stage finds nothing left of the mother codeword after the 0.43 case's two
EXHAUSTED = ("mother codeword exhausted before transmission 3; table ends",)


@pytest.mark.parametrize(
    "cdf, later, notes",
    [
        (ZERO_MI_CDF, (0.43,), ()),
        (ZERO_MI_CDF, (0.44,), CLAMPED),
        (THIRD_ZERO_CDF, (44514 / ENHANCED_TABLE_DRAWS - 0.5,), ()),
        (THIRD_ZERO_CDF, (np.nextafter(44514 / ENHANCED_TABLE_DRAWS, 1.0) - 0.5,), CLAMPED),
        (ZERO_MI_CDF, (0.43, 0.01), EXHAUSTED),
    ],
    ids=["0.43", "0.44", "count", "one-float-above", "exhausted"],
)
def test_enhanced_table_clamps_a_stage_only_the_whole_remainder_misses(cdf, later, notes):
    probs = DecodingProbTable((0.5, *later))
    args = (cdf, probs, CodeSpec(8920, 26760, 0.5), 4.0, ZERO_MI_TABLE)
    got = build_enhanced_table(*args)
    assert got == _reference_enhanced_table(*args)
    assert got == StaticBitTable((13380, 13380), notes)


# 37525 of the draws decode on the first burst, the next ones at 3345 symbols
# and all of them by 6690, with 20070 symbols left.
@pytest.mark.parametrize(
    "cum_target, expected",
    [
        # a sum above 1, which the table's tolerance admits and no share meets
        (1.0 + 1e-10, StaticBitTable((13380, 40140), ("transmission 2 clamped to the 40140 bits"
                                                      " left of the mother codeword; table ends there",))),
        # a target whose product with 50000 rounds to 37525, one decode short
        (float(np.nextafter(0.7505, 1.0)), StaticBitTable((13380, 3345 * MODULATION_BITS))),
    ],
    ids=["sum-above-1", "one-float-above-a-share"],
)
def test_enhanced_table_starts_its_search_at_the_count_of_decodes_the_target_needs(
    cum_target, expected
):
    probs = DecodingProbTable((0.5, cum_target - 0.5))
    args = (DYADIC_CDF, probs, DYADIC_SPEC, 4.0, DYADIC_TABLE)
    with mock.patch.object(np, "count_nonzero", wraps=np.count_nonzero) as decode_tests:
        got = build_enhanced_table(*args)
    # a search from another count steps there one symbol per decode test
    assert decode_tests.call_count <= 3
    assert got == _reference_enhanced_table(*args)
    assert got == expected


def test_enhanced_table_ignores_which_draws_were_cached_before(
    small_cdf, its_calib_cdf, open_calib_cdf, code_spec, mi_table
):
    # four CDFs at two round counts each; the second pass, in the other
    # order, reads every one's draws as the first pass kept them
    es = float(db_to_linear(10.0))
    inputs = [
        (cdf, DecodingProbTable(PROB_PRESETS[preset]), spec, e, table)
        for cdf, spec, e, table in (
            (small_cdf, code_spec, es, mi_table),
            (its_calib_cdf, code_spec, es, mi_table),
            (open_calib_cdf, code_spec, es, mi_table),
            (DYADIC_CDF, DYADIC_SPEC, 4.0, DYADIC_TABLE),
        )
        for preset in ("case1", "case2", "case3")
    ]
    cases = [(args, _reference_enhanced_table(*args)) for args in inputs]
    _DRAWS.clear()
    for order in (cases, cases[::-1]):
        for args, expected in order:
            assert build_enhanced_table(*args) == expected
    cdfs = (small_cdf, its_calib_cdf, open_calib_cdf, DYADIC_CDF)
    assert len(_DRAWS) == len(cdfs) and all(cdf in _DRAWS for cdf in cdfs)
    # its and open hold as many samples, and each keeps its own draws
    assert its_calib_cdf.sorted_rho.size == open_calib_cdf.sorted_rho.size
    assert not np.array_equal(_DRAWS[its_calib_cdf][4], _DRAWS[open_calib_cdf][4])
    for cdf in cdfs:
        assert sorted(_DRAWS[cdf]) == [2, 4]
        for rounds, kept in _DRAWS[cdf].items():
            assert _enhanced_draws(cdf, rounds) is kept
            assert kept.shape == (rounds, ENHANCED_TABLE_DRAWS) and not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 0


def test_enhanced_draws_live_as_long_as_their_cdf():
    cdf = EmpiricalCdf(DYADIC_CDF.sorted_rho)
    build_enhanced_table(cdf, DecodingProbTable(PROB_PRESETS["case3"]), DYADIC_SPEC, 4.0,
                         DYADIC_TABLE)
    kept = weakref.ref(_DRAWS[cdf][4])
    count = len(_DRAWS)
    del cdf
    gc.collect()
    assert kept() is None and len(_DRAWS) == count - 1


def test_enhanced_table_sizes_a_boundary_on_a_whole_symbol_count():
    # MI 0.437, 0.637 and 1 at the three samples; the first burst is 21006
    # bits. The draws that fail it and then see MI 0.637 decode at
    # (13380 - 0.437 * 21006) / (2 * 0.637) = 3297 symbols in real numbers,
    # and the float decode test meets the budget there too, while a float
    # estimate of that quotient rounds just above it.
    table = MiTable(es_n0_linear=np.array([1.0, 4.0, 16.0]), mi_per_bit=np.array([0.437, 0.637, 1.0]))
    probs = DecodingProbTable((0.5, 0.4))
    args = (DYADIC_CDF, probs, DYADIC_SPEC, 4.0, table)
    got = build_enhanced_table(*args)
    assert got == _reference_enhanced_table(*args)
    assert got == StaticBitTable((21006, 3297 * MODULATION_BITS))


# 54000 samples: neither the first nor the last is any draw's first-round
# sample, and both are some draw's later-round sample. Every other sample
# is 1, MI 1 at Es/N0 4, so every draw decodes on the first burst and the
# build maps no later round.
DRAWN_LATE = 54_000


def _one_odd_sample(odd: float, at: int) -> EmpiricalCdf:
    rho = np.ones(DRAWN_LATE)
    rho[at] = odd
    # the draws' sample indices, as the reference draws them
    picks = np.random.default_rng(ENHANCED_TABLE_SEED).choice(
        DRAWN_LATE, size=(ENHANCED_TABLE_DRAWS, 4))
    assert not np.isin(at, picks[:, 0]) and np.isin(at, picks[:, 1:])
    return EmpiricalCdf(rho)


def test_enhanced_table_rejects_a_drawn_sample_whose_faded_value_overflows():
    # 1e154 ** 2 is a float, and four times it is not
    cdf = _one_odd_sample(1e154, DRAWN_LATE - 1)
    args = (cdf, DecodingProbTable(PROB_PRESETS["case3"]), DYADIC_SPEC, 4.0, DYADIC_TABLE)
    with pytest.raises(ConfigError, match=re.escape(
            "es_n0_ref_db 6.0206 dB is too high for the channel: rho * rho * Es/N0"
            " overflows a float at rho 1e+154")):
        build_enhanced_table(*args)
    # the reference's faded values overflow to inf, which mi_of rejects
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="positive and finite"):
        _reference_enhanced_table(*args)


def test_enhanced_table_rejects_a_drawn_sample_whose_faded_value_is_0():
    cdf = _one_odd_sample(0.0, 0)
    args = (cdf, DecodingProbTable(PROB_PRESETS["case3"]), DYADIC_SPEC, 4.0, DYADIC_TABLE)
    for build in (build_enhanced_table, _reference_enhanced_table):
        with pytest.raises(ValueError, match="es_n0_linear must be positive and finite"):
            build(*args)
