"""Markov-switched Loo channel: generation, CDF and quantile behavior."""

import dataclasses
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import numpy_simd_path
from oracles import counting_quantile_check
from lmsharq.channel import (
    _BLOCK,
    CLEAR_SKY,
    AttenuationSeries,
    ClearSky,
    _chain,
    _markov_walk,
    EmpiricalCdf,
    LmsModel,
    LooParams,
    generate_series,
    quantile,
)
from lmsharq.errors import ConfigError
from lmsharq import presets
from lmsharq.presets import load_environment
from lmsharq.sim import calibration_cdf

IDENTITY = np.eye(3)


def _sample_loo(params: LooParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw envelope samples |direct + diffuse| for one state."""
    direct_db = rng.normal(params.alpha_db, params.psi_db, size)
    direct = 10.0 ** (direct_db / 20.0)
    sigma = np.sqrt(10.0 ** (params.mp_db / 10.0) / 2.0)
    diffuse = sigma * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return np.abs(direct + diffuse)


def _cdf_eval(cdf: EmpiricalCdf, x: float) -> float:
    """Fraction of samples less than or equal to x."""
    n = cdf.sorted_rho.size
    return float(np.searchsorted(cdf.sorted_rho, x, side="right")) / n


def single_state_model(params: LooParams) -> LmsModel:
    return LmsModel(states=(params,) * 3, transition_matrix=IDENTITY)


def test_loo_params_require_positive_spread():
    with pytest.raises(ValueError):
        LooParams(alpha_db=-4.0, psi_db=0.0, mp_db=-15.0)


@pytest.mark.parametrize("name", ["alpha_db", "psi_db", "mp_db"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_loo_params_must_be_finite(name, value):
    fields = {"alpha_db": -4.0, "psi_db": 1.0, "mp_db": -15.0, name: value}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        LooParams(**fields)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name, value, what", [
    ("alpha_db", 7000.0, "amplitude"), ("alpha_db", 6170.0, "amplitude"),
    ("alpha_db", -6160.0, "amplitude"), ("mp_db", 4000.0, "power"), ("mp_db", 3083.0, "power"),
    ("mp_db", -3080.0, "power"),
])
def test_loo_params_reject_a_db_value_with_no_normal_linear_value(name, value, what):
    # 10^(alpha_db / 20) and 10^(mp_db / 10) overflow or fall below the normal floats
    fields = {"alpha_db": -4.0, "psi_db": 1.0, "mp_db": -15.0, name: value}
    with pytest.raises(ValueError, match=f"{name} {value:g} dB is out of range: its linear {what}"):
        LooParams(**fields)


@pytest.mark.filterwarnings("error")
def test_loo_params_accept_db_values_at_the_edge_of_the_normal_range():
    for alpha_db, mp_db in ((6160.0, 3080.0), (-6150.0, -3076.0)):
        assert LooParams(alpha_db, 1.0, mp_db).alpha_db == alpha_db


@pytest.mark.parametrize("name", ["state_frame_m", "sample_frame_m", "speed_mps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_model_geometry_must_be_positive_and_finite(name, value):
    s = (LooParams(-4.0, 1.0, -15.0),) * 3
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        LmsModel(states=s, transition_matrix=IDENTITY, **{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_transition_probabilities_must_be_finite(value):
    s = (LooParams(-4.0, 1.0, -15.0),) * 3
    with pytest.raises(ValueError, match="transition probabilities must be finite"):
        LmsModel(states=s, transition_matrix=[[value, 0.5, 0.5], [0, 1, 0], [0, 0, 1]])


def test_a_model_is_an_immutable_value(its_model):
    for owner in (its_model, its_model.states[0]):
        for field in dataclasses.fields(owner):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(owner, field.name, getattr(owner, field.name))
    with pytest.raises(TypeError):
        its_model.transition_matrix[0][0] = 1.0
    # a model built from an array equals one built from the same rows
    rows = np.asarray(its_model.transition_matrix)
    same = dataclasses.replace(its_model, transition_matrix=rows)
    assert same == its_model and hash(same) == hash(its_model)
    assert dataclasses.replace(its_model, speed_mps=1.0) != its_model


def test_model_validation():
    s = (LooParams(-4.0, 1.0, -15.0),) * 3
    bad_rows = np.array([[0.5, 0.5, 0.1], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(ValueError, match="sum to 1"):
        LmsModel(states=s, transition_matrix=bad_rows)
    with pytest.raises(ValueError, match="non-negative"):
        LmsModel(states=s, transition_matrix=np.array([[1.5, -0.5, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError, match="three states"):
        LmsModel(states=s[:2], transition_matrix=IDENTITY)
    with pytest.raises(ValueError, match="3x3"):
        LmsModel(states=s, transition_matrix=np.eye(2))
    with pytest.raises(ValueError):
        LmsModel(states=s, transition_matrix=IDENTITY, sample_frame_m=6.0, state_frame_m=5.0)
    with pytest.raises(ValueError, match="state_frame_m 5.05 is not a whole number of sample_frame_m 0.1"):
        LmsModel(states=s, transition_matrix=IDENTITY, state_frame_m=5.05)
    with pytest.raises(ValueError, match="their ratio is inf"):
        LmsModel(states=s, transition_matrix=IDENTITY, sample_frame_m=1e-10, state_frame_m=1e300)


def test_stationary_is_a_fixed_point(its_model):
    pi = its_model.stationary()
    assert pi.shape == (3,)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(pi @ its_model.transition_matrix, pi, atol=1e-12)


def test_generation_is_deterministic_per_seed(its_model):
    a = generate_series(its_model, 20.0, seed=4)
    b = generate_series(its_model, 20.0, seed=4)
    c = generate_series(its_model, 20.0, seed=5)
    assert np.array_equal(a.rho, b.rho)
    assert np.array_equal(a.state, b.state)
    assert not np.array_equal(a.rho, c.rho)


# sha256 of rho.tobytes() and state.tobytes() for 60 s at seed 1, recorded
# on x86-64 with NumPy 2.4 on SIMD path X86_V3 X86_V4 AVX512_ICL AVX512_SPR
# before generate_series was rewritten to work in place. Any change to the
# draw order or the float operations shows here.
SERIES_DIGESTS = {
    "its": (
        "0cc5a03aafb476237cbcedbee3432f36e87f38450865e17be896623bad38bef2",
        "7dd9c464c7f55069b61429eaab68f6c9067c64e2566c40b78b408f7ac9a259d2",
    ),
    "open": (
        "041f32b28cc1371e5f9e8bb92be934e1fab1700df6dc5d5df25552154863bb69",
        "1731fe34121ddad3d44d6114b2f70ef4a64dfae71ccf34d3a79c35a3938728a4",
    ),
}


@pytest.mark.parametrize("env", sorted(SERIES_DIGESTS))
def test_series_bytes_are_pinned(env, its_model, open_model):
    model = its_model if env == "its" else open_model
    series = generate_series(model, 60.0, seed=1)
    got = (
        hashlib.sha256(series.rho.tobytes()).hexdigest(),
        hashlib.sha256(series.state.tobytes()).hexdigest(),
    )
    assert got == SERIES_DIGESTS[env], numpy_simd_path()


# sha256 of calibration_cdf(...).sorted_rho.tobytes() at the default
# calibration seed and duration (3600 s, 600k samples), recorded on x86-64
# with NumPy 2.4 on SIMD path X86_V3 X86_V4 AVX512_ICL AVX512_SPR from the
# per-epoch generator loop.
CALIBRATION_DIGESTS = {
    "its": "0dffcb5b8a221a5998f9138426cf06ccfb489dea5f441e6724ee4256937b94a4",
    "open": "42d1a55e83250c6809a98ee4cbce0317f0317342f8bf5fb3f8b6ca0dfce54985",
}


@pytest.mark.parametrize("env", sorted(CALIBRATION_DIGESTS))
def test_calibration_bytes_are_pinned(env, its_calib_cdf, open_calib_cdf):
    cdf = its_calib_cdf if env == "its" else open_calib_cdf
    got = hashlib.sha256(cdf.sorted_rho.tobytes()).hexdigest()
    assert got == CALIBRATION_DIGESTS[env], numpy_simd_path()


def reference_walk(cum, u, first):
    """One searchsorted per epoch, as the chain was first written."""
    states = np.empty(len(u), dtype=np.int64)
    states[0] = first
    for k in range(1, len(u)):
        states[k] = int(np.searchsorted(cum[states[k - 1]], u[k]))
    return states


def whole_array_series(model, n, seed):
    """rho and state of an n-sample series from the generator as it was
    with whole-array draws: every parameter spread per sample with
    np.repeat, and the diffuse part one complex128 array."""
    rng = np.random.default_rng(seed)
    k = min(model.samples_per_epoch, n)
    cum_stationary, cum_rows, psi_db, alpha_db, sigma = _chain(model)
    u = rng.random(-(-n // k))
    states = reference_walk(cum_rows, u, int(np.searchsorted(cum_stationary, u[0])))

    def per_sample(values):
        return np.repeat(values[states], k)[:n]

    direct = rng.standard_normal(n)
    direct *= per_sample(psi_db)
    direct += per_sample(alpha_db)
    direct /= 20.0
    np.power(10.0, direct, out=direct)
    diffuse = np.empty(n, dtype=np.complex128)
    diffuse.real = rng.standard_normal(n)
    diffuse.imag = rng.standard_normal(n)
    diffuse *= per_sample(sigma)
    diffuse += direct
    return np.abs(diffuse), np.repeat(states, k)[:n]


@pytest.mark.parametrize("env", ["its", "open"])
def test_the_diffuse_blocks_give_the_whole_array_series(env, its_model, open_model):
    model = its_model if env == "its" else open_model
    # a sample spacing of 1 s, so n s is n samples of the model's k = 50 per epoch
    model = dataclasses.replace(model, speed_mps=model.sample_frame_m)
    k = model.samples_per_epoch
    assert k == 50 and _BLOCK % 16 == 0 and _BLOCK % k
    # below k (one epoch of n samples), k, and about one and two block ends:
    # the last four end in a short epoch, and past one block an epoch spans two
    for n in [k - 13, k, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + k - 1]:
        series = generate_series(model, float(n), seed=n)
        rho, state = whole_array_series(model, n, seed=n)
        assert np.array_equal(series.rho, rho), n
        assert series.state.dtype == np.int64 and np.array_equal(series.state, state), n
        assert len(series.epoch_state) == -(-n // min(k, n))


def test_a_series_peaks_near_two_float64_arrays(its_model):
    generate_series(its_model, 1.0, seed=1)
    tracemalloc.start()
    try:
        series = generate_series(its_model, 3600.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole-array generator peaked at 32.5 bytes per sample
    assert peak <= 20 * len(series.rho)


def test_a_walk_of_one_sample_per_epoch_peaks_under_34_bytes_per_sample(its_model):
    equal = dataclasses.replace(its_model, state_frame_m=0.1)  # one sample per state epoch
    generate_series(equal, 1.0, seed=1)
    tracemalloc.start()
    try:
        series = generate_series(equal, 600.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a walk over Python lists of successors and states peaked at 48, and
    # at 40 while the epoch uniforms stayed alive beside the series
    assert peak <= 34 * len(series.rho)


def test_a_calibration_adds_at_most_12_mb_at_its_peak(its_model, its_calib_cdf):
    fresh = calibration_cdf.__wrapped__  # past the kept CDFs
    tracemalloc.start()
    try:
        cdf = fresh(its_model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(cdf.sorted_rho, its_calib_cdf.sorted_rho)
    # the whole-array generator peaked at 19.5 MB
    assert peak <= 12e6


# rows of small integer weights: zero entries, and unit rows that are
# absorbing when the one sits on the diagonal
weight_rows = st.lists(st.integers(0, 3), min_size=3, max_size=3).filter(any)


@settings(max_examples=200, deadline=None)
@given(
    rows=st.lists(weight_rows, min_size=3, max_size=3),
    first=st.integers(0, 2),
    n_epochs=st.integers(1, 400),
    seed=st.integers(0, 2**32 - 1),
)
def test_markov_walk_matches_per_step_search(rows, first, n_epochs, seed):
    weights = np.array(rows, dtype=float)
    cum = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    rng = np.random.default_rng(seed)
    u = rng.random(n_epochs)
    # draws that land exactly on a row's cumulative probability test side="left"
    edges = cum[cum < 1.0]
    if edges.size:
        ties = rng.random(n_epochs) < 0.2
        u[ties] = rng.choice(edges, size=int(ties.sum()))
    got = _markov_walk(cum, u, first)
    assert got.dtype == np.int64
    assert np.array_equal(got, reference_walk(cum, u, first))


def reference_states(model, k, n, seed):
    """The state column of an n-sample series: one per-step Markov decision
    for each of ceil(n / k) epoch draws, each held for k samples."""
    u = np.random.default_rng(seed).random(-(-n // k))
    first = int(np.searchsorted(np.cumsum(model.stationary()), u[0]))
    states = reference_walk(np.cumsum(model.transition_matrix, axis=1), u, first)
    return np.repeat(states, k)[:n]


def its_copy_with_frames(tmp_path, sample_frame_m, state_frame_m):
    """The model of a copy of its.ini with the two frames replaced."""
    text = (presets.assets_dir() / "its.ini").read_text()
    text = text.replace("state_frame_m = 5.0", f"state_frame_m = {state_frame_m}")
    text = text.replace("sample_frame_m = 0.1", f"sample_frame_m = {sample_frame_m}")
    path = tmp_path / "frames.ini"
    path.write_text(text)
    return load_environment(str(path))


@pytest.mark.parametrize("sample_frame_m, state_frame_m, k", [(0.3, 0.9, 3), (0.1, 0.1, 1)])
def test_each_state_epoch_spans_whole_samples(sample_frame_m, state_frame_m, k, tmp_path):
    # the float rule float(i) * sample_frame_m // state_frame_m put 3 of every
    # 9 samples in the wrong epoch at 0.3 / 0.9, and left some epochs empty at 0.1 / 0.1
    model = its_copy_with_frames(tmp_path, sample_frame_m, state_frame_m)
    state = generate_series(model, 60.0, seed=1).state
    n = len(state)
    assert np.array_equal(state, np.repeat(state[::k], k)[:n])
    assert np.array_equal(state, reference_states(model, k, n, seed=1))
    assert model.samples_per_epoch == k


@settings(max_examples=100, deadline=None, derandomize=True)
@given(k=st.integers(1, 200), n=st.integers(1, 3000), sample_frame_m=st.sampled_from([0.1, 0.07, 1.0]))
def test_state_epochs_are_blocks_of_k_samples(k, n, sample_frame_m, its_model):
    # speed_mps = sample_frame_m makes the sample spacing 1 s, so n s is n samples
    model = dataclasses.replace(its_model, state_frame_m=k * sample_frame_m,
                                sample_frame_m=sample_frame_m, speed_mps=sample_frame_m)
    state = generate_series(model, float(n), seed=n).state
    assert len(state) == n
    assert np.array_equal(state, np.repeat(state[::k], k)[:n])
    assert np.array_equal(state, reference_states(model, k, n, seed=n))
    assert model.samples_per_epoch == k


def test_a_state_epoch_longer_than_the_series_is_one_decision(its_model):
    model = dataclasses.replace(its_model, state_frame_m=1e15)  # 10^16 samples per epoch
    series = generate_series(model, 5.0, seed=1)
    assert len(series.state) == 834
    # one epoch holds all 834 samples
    assert np.array_equal(series.state, reference_states(model, 834, 834, seed=1))


def test_a_models_chain_constants_are_kept_read_only(its_model):
    constants = _chain(its_model)
    assert _chain(dataclasses.replace(its_model)) is constants  # an equal model
    for array in constants:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    cum_stationary, cum_rows, psi_db, alpha_db, sigma = constants
    assert np.array_equal(cum_stationary, np.cumsum(its_model.stationary()))
    assert np.array_equal(cum_rows, np.cumsum(its_model.transition_matrix, axis=1))
    assert psi_db.tolist() == [s.psi_db for s in its_model.states]
    assert alpha_db.tolist() == [s.alpha_db for s in its_model.states]
    assert sigma.tolist() == [math.sqrt(10.0 ** (s.mp_db / 10.0) / 2.0) for s in its_model.states]


def test_empirical_cdf_makes_one_copy_and_leaves_the_series_alone(its_model):
    series = generate_series(its_model, 60.0, seed=3)
    before = series.rho.copy()
    tracemalloc.start()
    try:
        cdf = EmpiricalCdf(series.rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * series.rho.nbytes
    assert not np.shares_memory(cdf.sorted_rho, series.rho)
    assert np.array_equal(series.rho, before)
    assert np.array_equal(cdf.sorted_rho, np.sort(before))


def test_duration_covers_the_travelled_distance(its_model):
    series = generate_series(its_model, 600.0, seed=1)
    distance_m = len(series.rho) * its_model.sample_frame_m
    assert abs(distance_m - 10_000.0) <= its_model.sample_frame_m
    assert series.time_s[-1] + series.sample_dt_s >= 600.0


@pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0, -1.0])
def test_a_bad_duration_is_rejected(its_model, duration_s):
    with pytest.raises(ValueError, match="duration_s must be positive and finite"):
        generate_series(its_model, duration_s, seed=1)


def test_identity_matrix_is_absorbing(its_model):
    for k in range(3):
        # every row is e_k, so the chain starts in state k and stays there
        model = LmsModel(states=its_model.states, transition_matrix=np.tile(IDENTITY[k], (3, 1)))
        series = generate_series(model, 120.0, seed=6)
        assert np.all(series.state == k)
        ref = _sample_loo(model.states[k], len(series.rho), np.random.default_rng(31337))
        assert stats.ks_2samp(series.rho, ref).pvalue > 0.01


def test_direct_ray_mean_matches_configured_alpha():
    # negligible multipath leaves the log-normal direct ray exposed
    params = LooParams(alpha_db=-4.0, psi_db=1.0, mp_db=-60.0)
    series = generate_series(single_state_model(params), 300.0, seed=7)
    mean_db = float(np.mean(20.0 * np.log10(series.rho)))
    assert mean_db == pytest.approx(params.alpha_db, abs=0.2)


def test_state_occupancy_matches_stationary_distribution(its_model):
    # 3000 s is 10000 state epochs at the default geometry
    series = generate_series(its_model, 3000.0, seed=12)
    pi = its_model.stationary()
    occupancy = np.bincount(series.state, minlength=3) / len(series.state)
    assert np.all(np.abs(occupancy - pi) <= 0.02)


def test_per_state_loo_marginals(its_model):
    series = generate_series(its_model, 3000.0, seed=12)
    rng = np.random.default_rng(31337)
    for k, params in enumerate(its_model.states):
        got = series.rho[series.state == k]
        got = got[:20_000]
        ref = _sample_loo(params, got.size, rng)
        assert stats.ks_2samp(got, ref).pvalue > 0.01


def test_constant_series_gives_a_step_cdf():
    series = AttenuationSeries(rho=np.ones(3), sample_dt_s=1.0)
    assert series.time_s.tolist() == [0.0, 1.0, 2.0]
    cdf = EmpiricalCdf(series.rho)
    assert _cdf_eval(cdf, 1.0) == 1.0
    assert _cdf_eval(cdf, 1.0 - 1e-9) == 0.0
    for q in (0.0, 0.3, 1.0):
        assert quantile(cdf, q) == 1.0


def test_cdf_rejects_empty_input():
    with pytest.raises(ValueError):
        EmpiricalCdf(sorted_rho=np.array([]))


def test_cdf_at_median_sample(its_calib_cdf):
    n = its_calib_cdf.sorted_rho.size
    x = float(its_calib_cdf.sorted_rho[n // 2])
    assert _cdf_eval(its_calib_cdf, x) == pytest.approx(0.5, abs=2.0 / n + 1e-9)


def test_generated_cdf_is_monotone_and_reaches_fades(its_calib_cdf):
    r = its_calib_cdf.sorted_rho
    assert np.all(np.diff(r) >= 0.0)
    assert r[0] < 1.0  # fades below the clear-sky level exist
    probes = np.linspace(r[0], r[-1], 50)
    values = [_cdf_eval(its_calib_cdf, float(x)) for x in probes]
    assert np.all(np.diff(values) >= 0.0)


def test_open_track_fades_less_than_shadowed_track(its_calib_cdf, open_calib_cdf):
    assert quantile(open_calib_cdf, 0.5) > quantile(its_calib_cdf, 0.5)
    assert quantile(open_calib_cdf, 0.05) > quantile(its_calib_cdf, 0.05)


def test_quantile_endpoints_and_domain(its_calib_cdf):
    r = its_calib_cdf.sorted_rho
    assert quantile(its_calib_cdf, 0.0) == r[0]
    assert quantile(its_calib_cdf, 1.0) == r[-1]
    with pytest.raises(ValueError):
        quantile(its_calib_cdf, -0.1)
    with pytest.raises(ValueError):
        quantile(its_calib_cdf, 1.1)


def test_quantile_cdf_round_trip(its_calib_cdf):
    rng = np.random.default_rng(13)
    r = its_calib_cdf.sorted_rho
    for q in rng.uniform(0.001, 0.999, size=200):
        x = quantile(its_calib_cdf, float(q))
        assert _cdf_eval(its_calib_cdf, x) >= q
        idx = int(np.searchsorted(r, x, side="left")) - 1
        if idx >= 0:
            assert _cdf_eval(its_calib_cdf, float(r[idx])) < q


def test_quantile_against_counting_oracle(its_model):
    series = generate_series(its_model, 100.0, seed=14)
    cdf = EmpiricalCdf(series.rho)
    rng = np.random.default_rng(424242)
    q = rng.random(1000)
    claimed = np.array([quantile(cdf, float(v)) for v in q])
    fractions = counting_quantile_check(cdf.sorted_rho, q, claimed)
    assert np.all(fractions >= q - 0.01)
    assert np.all(fractions <= q + 0.01)


def test_series_csv_export(tmp_path, its_model):
    series = generate_series(its_model, 2.0, seed=16)
    out = tmp_path / "series.csv"
    series.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "time_s,rho_db"
    assert len(lines) == len(series.rho) + 1
    t, rho_db = lines[1].split(",")
    assert float(t) == 0.0
    assert float(rho_db) == pytest.approx(20.0 * np.log10(series.rho[0]), rel=1e-4)


# sha256 of the 600 s export at seed 1, recorded when times were written
# with six significant digits; below 1000 s ten digits write the same bytes
SERIES_CSV_600_SHA256 = "2cfe6af93ff079974c10e435488459b50873245ac35f50e800a49606287cdf7b"


def test_series_csv_bytes_are_pinned(tmp_path, its_model):
    out = tmp_path / "series.csv"
    generate_series(its_model, 600.0, seed=1).to_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SERIES_CSV_600_SHA256


def test_series_csv_times_stay_distinct_past_1000_s(tmp_path, its_model):
    series = generate_series(its_model, 1200.0, seed=1)
    out = tmp_path / "series.csv"
    series.to_csv(out)
    times = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert len(times) == len(set(times)) == len(series.rho)
    assert np.abs(np.array(times, dtype=float) - series.time_s).max() < 1e-9


def test_model_file_loading(tmp_path, its_model):
    assert len(its_model.states) == 3
    assert np.allclose(np.asarray(its_model.transition_matrix).sum(axis=1), 1.0, atol=1e-9)
    with pytest.raises(FileNotFoundError):
        load_environment(str(tmp_path / "nope.ini"))
    broken = tmp_path / "broken.ini"
    broken.write_text("[state.1]\nalpha_db = -4.0\n")
    with pytest.raises(ValueError, match="malformed"):
        load_environment(str(broken))


def test_a_model_file_without_sections_is_malformed(tmp_path):
    headless = tmp_path / "headless.ini"
    headless.write_text("alpha_db = -4.0\n")
    with pytest.raises(ValueError, match="malformed model parameter file"):
        load_environment(str(headless))


@pytest.mark.parametrize("seed", [1, 2])
def test_clear_sky_is_one_unfaded_sample_for_the_whole_duration(seed):
    series = generate_series(CLEAR_SKY, 30.0, seed)
    assert series.rho.tolist() == [1.0] and series.sample_dt_s == 30.0
    # a value, so equal and hashable like a model
    assert ClearSky() == CLEAR_SKY and hash(ClearSky()) == hash(CLEAR_SKY)


@pytest.mark.parametrize("model", [None, "its"])
def test_a_series_needs_a_channel_model(model):
    with pytest.raises(ConfigError, match="a channel model is required"):
        generate_series(model, 5.0, 1)
