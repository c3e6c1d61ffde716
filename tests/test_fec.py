"""Decode threshold and its calibration from a word error rate curve."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmsharq.fec import CodeSpec, calibrate_mi_req, is_decodable, load_wer_curve
from lmsharq.mi import db_to_linear, mi_of


def spec_with(mi_req: float) -> CodeSpec:
    return CodeSpec(mi_req_per_bit=mi_req)


def test_code_geometry_is_validated():
    spec = spec_with(0.9)
    assert spec.mother_codeword_bits == 53520
    assert spec.data_bits == 8920
    assert spec.rate == Fraction(1, 6)
    assert CodeSpec(2, 10, 0.25).rate == Fraction(1, 5)
    with pytest.raises(ValueError):
        CodeSpec(mi_req_per_bit=0.0)
    with pytest.raises(ValueError):
        CodeSpec(mi_req_per_bit=1.0)


def test_code_spec_is_frozen():
    """A frozen spec keeps its cached MI budget valid."""
    spec = spec_with(0.9)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.mi_req_per_bit = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.mother_codeword_bits = 26760
    assert spec.mi_budget == 53520 * 0.9


def test_mother_codeword_is_whole_symbols():
    with pytest.raises(ValueError, match="symbols"):
        CodeSpec(1, 5, 0.25)


def test_budget_is_bits_times_requirement():
    assert spec_with(0.9).mi_budget == 53520 * 0.9


def test_nothing_received_never_decodes():
    assert not is_decodable(spec_with(0.9), 0, 1.0)


def test_decode_boundary_is_inclusive():
    spec = spec_with(0.9)
    assert is_decodable(spec, spec.mother_codeword_bits, spec.mi_req_per_bit)


def test_decode_below_threshold():
    # 40000 * 0.8 = 32000 accumulated against a budget of 48168
    assert not is_decodable(spec_with(0.9), 40_000, 0.8)


def test_negative_bit_count_rejected():
    with pytest.raises(ValueError):
        is_decodable(spec_with(0.9), -1, 0.5)


@settings(derandomize=True, deadline=None)
@given(
    bits=st.integers(min_value=0, max_value=53_520),
    acc=st.floats(min_value=0.0, max_value=1.0),
    extra_bits=st.integers(min_value=0, max_value=10_000),
    extra_acc=st.floats(min_value=0.0, max_value=0.3),
)
def test_decodability_is_monotone(bits, acc, extra_bits, extra_acc):
    spec = spec_with(0.243)
    if is_decodable(spec, bits, acc):
        assert is_decodable(spec, bits + extra_bits, acc)
        assert is_decodable(spec, bits, min(acc + extra_acc, 1.0))


def test_calibration_hits_an_exact_curve_point(mi_table):
    from lmsharq import presets

    curve = presets.load_reference_wer()
    exact = [e for e, w in curve if w == 1e-4]
    assert len(exact) == 1
    mi_req = calibrate_mi_req(curve, 1e-4, mi_table)
    assert mi_req == mi_of(mi_table, float(db_to_linear(exact[0])))
    assert 0.0 < mi_req < 1.0


def test_calibration_interpolates_log_linearly(mi_table):
    # symmetric decades around 1e-4, so the crossing is the midpoint by hand
    curve = [(-4.0, 1e-3), (-3.8, 1e-5)]
    mi_req = calibrate_mi_req(curve, 1e-4, mi_table)
    assert mi_req == pytest.approx(mi_of(mi_table, float(db_to_linear(-3.9))), rel=1e-12)


def test_calibration_rejects_out_of_range_targets(mi_table):
    curve = [(-4.0, 1e-3), (-3.8, 1e-5)]
    with pytest.raises(ValueError, match="outside curve range"):
        calibrate_mi_req(curve, 1e-7, mi_table)
    with pytest.raises(ValueError, match="outside curve range"):
        calibrate_mi_req(curve, 0.5, mi_table)


def test_calibration_rejects_non_monotone_curves(mi_table):
    with pytest.raises(ValueError, match="strictly increasing"):
        calibrate_mi_req([(-4.0, 1e-3), (-4.0, 1e-5)], 1e-4, mi_table)
    with pytest.raises(ValueError, match="strictly decreasing"):
        calibrate_mi_req([(-4.0, 1e-3), (-3.8, 1e-2)], 1e-3, mi_table)
    with pytest.raises(ValueError, match="positive"):
        calibrate_mi_req([(-4.0, 1e-3), (-3.8, 0.0)], 1e-3, mi_table)
    with pytest.raises(ValueError, match="two points"):
        calibrate_mi_req([(-4.0, 1e-3)], 1e-3, mi_table)


def test_wer_curve_loading(tmp_path):
    good = tmp_path / "wer.csv"
    good.write_text("es_n0_db,wer\n-4.0,1e-3\n-3.8,1e-5\n")
    assert load_wer_curve(good) == [(-4.0, 1e-3), (-3.8, 1e-5)]
    with pytest.raises(FileNotFoundError):
        load_wer_curve(tmp_path / "missing.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n-4.0,1e-3\n-3.8,1e-5\n")
    with pytest.raises(ValueError, match="header"):
        load_wer_curve(bad)
    short = tmp_path / "short.csv"
    short.write_text("es_n0_db,wer\n-4.0,1e-3\n")
    with pytest.raises(ValueError, match="two points"):
        load_wer_curve(short)


def test_default_spec_lands_in_the_open_interval(code_spec):
    assert 0.0 < code_spec.mi_req_per_bit < 1.0


def test_mi_requirement_tracks_wer_target(mi_table):
    from lmsharq import presets

    curve = presets.load_reference_wer()
    lax = calibrate_mi_req(curve, 1e-2, mi_table)
    strict = calibrate_mi_req(curve, 1e-5, mi_table)
    assert lax < strict


def test_undecodable_state_demands_more_bits(mi_table, code_spec):
    # consistency between the decode test and the adaptive sizing rule
    from lmsharq.schemes import AdaptivePolicy

    if not is_decodable(code_spec, 13_380, 0.5):
        assert AdaptivePolicy(code_spec, (0.8,)).bits(1, 13_380, 0.5) > 0
