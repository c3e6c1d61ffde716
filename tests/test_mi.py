"""Per-bit MI table: construction and interpolation."""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from conftest import numpy_simd_path
from oracles import ORACLE_MI_PER_BIT, ORACLE_POINTS_DB, bisection_mi_inverse
from lmsharq import mi
from lmsharq.errors import ConfigError
from lmsharq.mi import (
    MiTable,
    _logsumexp_rows,
    build_mi_table,
    db_to_linear,
    linear_to_db,
    mi_of,
    parse_mi_csv,
    save_mi_csv,
)


def test_table_rejects_malformed_grids():
    good = np.array([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        MiTable(es_n0_linear=np.array([1.0, 1.0, 2.0]), mi_per_bit=np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError):
        MiTable(es_n0_linear=good, mi_per_bit=np.array([0.1, 0.3, 0.2]))
    with pytest.raises(ValueError):
        MiTable(es_n0_linear=good, mi_per_bit=np.array([0.1, 0.2, 1.2]))
    with pytest.raises(ValueError):
        MiTable(es_n0_linear=good, mi_per_bit=np.array([0.1, 0.2]))
    with pytest.raises(ValueError):
        MiTable(es_n0_linear=np.array([1.0]), mi_per_bit=np.array([0.1]))


def test_table_keeps_its_own_read_only_arrays():
    grid, values = np.array([1.0, 2.0]), np.array([0.1, 0.2])
    table = MiTable(es_n0_linear=grid, mi_per_bit=values)
    grid[1], values[0] = 0.5, np.nan
    assert mi_of(table, 1.5) == pytest.approx(0.15)
    for array in (table.es_n0_linear, table.mi_per_bit):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


# the ends of the MI table's Es/N0 range, 10 ** (dB / 10) as a build makes them
LINEAR_RANGE = 10.0 ** (np.array(mi.ES_N0_RANGE_DB) / 10.0)
OUTSIDE_LINEAR_RANGE = "es_n0_linear .* is outside 1e-20 to 1e\\+20"


@pytest.mark.parametrize("value", [0.0, -1.0, 5e-324, sys.float_info.min / 2])
def test_table_rejects_a_grid_value_that_is_not_a_positive_normal_float(value):
    # each lies below the Es/N0 range; save_mi_csv would write 0 and -1 as -inf and nan
    with pytest.raises(ValueError, match=OUTSIDE_LINEAR_RANGE):
        MiTable(es_n0_linear=np.array([value, 1.0, 2.0]), mi_per_bit=np.array([0.1, 0.2, 0.3]))
    table = MiTable(np.array([LINEAR_RANGE[0], 1.0, 2.0]), np.array([0.1, 0.2, 0.3]))
    assert mi_of(table, LINEAR_RANGE[0]) == 0.1


def test_table_takes_a_grid_up_to_either_end_of_the_es_n0_range():
    # one ulp beyond either end is rejected, the end itself is kept
    for grid in ([np.nextafter(LINEAR_RANGE[0], 0.0), 1.0], [1.0, np.nextafter(LINEAR_RANGE[1], np.inf)]):
        with pytest.raises(ValueError, match=OUTSIDE_LINEAR_RANGE):
            MiTable(np.array(grid), np.array([0.0, 1.0]))
    table = MiTable(LINEAR_RANGE, np.array([0.0, 1.0]))
    assert mi_of(table, LINEAR_RANGE).tolist() == [0.0, 1.0]


@st.composite
def tables_and_queries(draw):
    """A grid, MI values and queries that probe np.interp's rules on them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lo_db = draw(st.floats(*mi.ES_N0_RANGE_DB))
    hi_db = draw(st.floats(lo_db, mi.ES_N0_RANGE_DB[1]))
    points = [10.0 ** (rng.uniform(lo_db, hi_db, draw(st.integers(2, 300))) / 10.0)]
    # several grid points inside one bucket: one bucket start, random low bits
    for _ in range(draw(st.integers(0, 3))):
        start = (points[0][:1].view(np.int64) >> mi._BUCKET_SHIFT) << mi._BUCKET_SHIFT
        low_bits = rng.integers(0, 1 << mi._BUCKET_SHIFT, draw(st.integers(2, 6)))
        points.append((start + low_bits).view(float))
    if draw(st.booleans()):
        # grid points a few ulps above the range's lower end: slopes near
        # 6.6e35, the steepest a table can hold, unless the MI values tie
        ulps = rng.integers(0, 64, draw(st.integers(2, 5)))
        points.append((LINEAR_RANGE[:1].view(np.int64) + ulps).view(float))
    if draw(st.integers(0, 4)) == 0:
        # a grid point beyond the range: one ulp or far beyond either end
        points.append([draw(st.sampled_from([
            np.nextafter(LINEAR_RANGE[0], 0.0), np.nextafter(LINEAR_RANGE[1], np.inf),
            5e-324, sys.float_info.min, 1e300]))])
    xp = np.unique(np.concatenate(points))
    assume(xp.size >= 2)
    fp = np.sort(rng.uniform(0.0, 1.0, xp.size))
    if draw(st.booleans()):
        fp = np.round(fp, 1)  # ties: flat segments, 0 and 1 at the ends
    if draw(st.booleans()):
        fp[0] = -0.0

    inside = np.exp(rng.uniform(np.log(xp[0]), np.log(xp[-1]), 50))
    starts = (inside.view(np.int64) >> mi._BUCKET_SHIFT << mi._BUCKET_SHIFT).view(float)
    with np.errstate(over="ignore"):  # beyond the grid, inf and 0 are dropped below
        beyond = np.concatenate([xp[0] * rng.uniform(0.0, 1.0, 5), xp[-1] / rng.uniform(0.0, 1.0, 5)])
    queries = np.concatenate([
        xp, np.nextafter(xp, 0.0), np.nextafter(xp, np.inf),
        # bucket starts and the floats just below them
        starts, np.nextafter(starts, 0.0),
        inside, beyond, [5e-324, sys.float_info.max],
    ])
    queries = queries[(0.0 < queries) & (queries < np.inf)]
    order = draw(st.sampled_from(["sorted", "unsorted", "reversed"]))
    if order == "sorted":
        queries.sort()
    elif order == "unsorted":
        rng.shuffle(queries)
    else:
        queries = np.sort(queries)[::-1]
    return xp, fp, queries


def _same_bits(got, expected):
    return np.shape(got) == np.shape(expected) and np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@given(tables_and_queries())
@settings(derandomize=True, deadline=None, max_examples=300)
def test_mi_of_equals_np_interp_bit_for_bit(case):
    xp, fp, queries = case
    if xp[0] < LINEAR_RANGE[0] or xp[-1] > LINEAR_RANGE[1]:
        with pytest.raises(ValueError, match=OUTSIDE_LINEAR_RANGE):
            MiTable(xp, fp)
        return
    table = MiTable(xp, fp)
    assert np.isfinite(table._segments.slopes).all()
    xp, fp = table.es_n0_linear, table.mi_per_bit
    got = mi_of(table, queries)
    assert _same_bits(got, np.interp(queries, xp, fp))
    assert ((fp[0] <= got) & (got <= fp[-1])).all()
    if queries.size % 2 == 0:
        grid = queries.reshape(2, -1)
        assert _same_bits(mi_of(table, grid), np.interp(grid, xp, fp))
    for q in queries[:: max(1, queries.size // 8)]:
        got = mi_of(table, float(q))
        assert isinstance(got, float) and _same_bits(np.float64(got), np.interp(q, xp, fp))
        assert _same_bits(mi_of(table, np.asarray(q)), np.interp(q, xp, fp))


def test_a_lookup_traces_at_most_26_bytes_per_query(mi_table):
    queries = db_to_linear(np.random.default_rng(4).uniform(-35.0, 25.0, 100_000))
    mi_of(mi_table, queries)
    tracemalloc.start()
    try:
        mi_of(mi_table, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # three float64 or int64 arrays of the query's length and a step's
    # bool mask; the lookup that kept the difference beside fp[j] traced 32.0
    assert peak <= 26 * queries.size


def test_build_rejects_bad_configuration():
    with pytest.raises(ConfigError):
        build_mi_table(es_n0_min_db=5.0, es_n0_max_db=-5.0)
    with pytest.raises(ConfigError):
        build_mi_table(points=1)
    with pytest.raises(ConfigError):
        build_mi_table(samples=100)


@pytest.mark.parametrize("kwargs, message", [
    (dict(seed=-1), "seed cannot be negative"),
    (dict(seed=np.int64(-1)), "seed cannot be negative"),
    (dict(seed=1.0), "seed must be an integer"),
    (dict(seed=True), "seed must be an integer"),
    (dict(es_n0_max_db=np.inf), "finite"),
    (dict(es_n0_min_db=np.nan), "finite"),
    (dict(es_n0_min_db=-np.inf), "finite"),
    (dict(points=3.5), "points must be an integer"),
    (dict(points=True), "points must be an integer"),
    (dict(points=np.int64(1)), "points must be at least 2"),
    (dict(samples=20000.0), "samples must be an integer"),
    (dict(samples=True), "samples must be an integer"),
    (dict(samples=np.int64(100)), "samples must be at least 10000"),
    # more elements than np.intp holds, and more float64 bytes than it counts
    (dict(samples=10**20), "samples 100000000000000000000 is more than an array can hold"),
    (dict(samples=2 * 10**18), "samples 2000000000000000000 is more than an array can hold"),
    (dict(samples=np.iinfo(np.intp).max // 8 + 1), "samples 1152921504606846976 is more than"),
    (dict(points=10**20), "points 100000000000000000000 is more than an array can hold"),
    (dict(points=np.int64(2 * 10**18)), "points 2000000000000000000 is more than an array can hold"),
    # finite in dB but outside the Es/N0 range: a lowest point whose linear
    # Es/N0 is 0, one whose noise power overflows the estimator's squares,
    # one where symbol plus noise rounds to the symbol, and one above 200 dB
    # where the estimate of an MI of 1 reads 0.999894
    (dict(es_n0_min_db=-4000.0, es_n0_max_db=-3069.0, points=2),
     "es_n0_min_db -4000.0 and es_n0_max_db -3069.0 must be finite, increasing and within the MI"
     " table's range, -200 to 200 dB"),
    (dict(es_n0_min_db=-3076.0, es_n0_max_db=-3075.9999, points=50), "-200 to 200 dB"),
    (dict(es_n0_min_db=3000.0, es_n0_max_db=3001.0, points=2), "-200 to 200 dB"),
    (dict(es_n0_min_db=290.0, es_n0_max_db=300.0, points=2), "-200 to 200 dB"),
    (dict(es_n0_min_db=-200.0, es_n0_max_db=np.nextafter(200.0, np.inf), points=2), "-200 to 200 dB"),
    # three points that save_mi_csv writes as 19, 19 and 19
    (dict(es_n0_min_db=19.0, es_n0_max_db=19.00001, points=3),
     "3 points from 19.0 to 19.00001 dB do not stay increasing at the 6 digits the MI table's CSV"
     " keeps"),
], ids=["negative", "numpy-negative", "float", "bool", "inf-max", "nan-min", "-inf-min",
        "float-points", "bool-points", "numpy-one-point", "float-samples", "bool-samples",
        "numpy-few-samples", "huge-samples", "samples-bytes", "samples-one-past",
        "huge-points", "numpy-points-bytes", "zero-linear-min", "noise-overflow-min",
        "noise-rounded-away", "above-range", "one-ulp-above", "csv-collapses"])
def test_build_checks_seed_and_bounds_before_drawing(kwargs, message, monkeypatch):
    def no_draw(*args):
        raise AssertionError("allocated or drew samples")

    monkeypatch.setattr(mi, "_Work", no_draw)
    monkeypatch.setattr(mi, "_mc_mi_per_bit", no_draw)
    with pytest.raises(ConfigError, match=message):
        build_mi_table(**{"points": 3, **kwargs})


@pytest.mark.parametrize("lo_db, hi_db, expected", [(199.0, 200.0, 1.0), (-200.0, -199.0, 0.0)])
def test_a_build_reaches_either_end_of_the_es_n0_range(lo_db, hi_db, expected, tmp_path):
    table = build_mi_table(lo_db, hi_db, 2, 10_000, 1)
    assert table.es_n0_linear.tolist() == db_to_linear([lo_db, hi_db]).tolist()
    assert np.abs(table.mi_per_bit - expected).max() < 1e-6
    path = tmp_path / "mi.csv"
    save_mi_csv(table, path)
    back = parse_mi_csv(path.read_text())
    assert back.es_n0_linear.tolist() == table.es_n0_linear.tolist()
    assert np.abs(back.mi_per_bit - expected).max() < 1e-6
    if expected == 1.0:
        assert back.mi_per_bit.tolist() == [1.0, 1.0]  # 0.999999 at 250 dB


def test_build_takes_numpy_integer_seeds():
    # NumPy integers are as good as int for the grid size and sample count too
    a = build_mi_table(es_n0_min_db=19.0, es_n0_max_db=20.0, points=2, samples=20_000, seed=11)
    b = build_mi_table(es_n0_min_db=19.0, es_n0_max_db=20.0, points=np.int64(2),
                       samples=np.int64(20_000), seed=np.int64(11))
    assert np.array_equal(a.mi_per_bit, b.mi_per_bit)


def test_build_flags_insufficient_precision():
    # mid-curve points have high per-sample variance; 10k samples cannot
    # reach the 1e-3 standard error gate
    with pytest.raises(ConfigError, match="std error"):
        build_mi_table(es_n0_min_db=0.0, es_n0_max_db=1.0, points=3, samples=10_000)


def test_build_deterministic_for_fixed_seed():
    # saturated region, so the sample count stays small and cheap
    a = build_mi_table(es_n0_min_db=19.0, es_n0_max_db=20.0, points=5, samples=20_000, seed=11)
    b = build_mi_table(es_n0_min_db=19.0, es_n0_max_db=20.0, points=5, samples=20_000, seed=11)
    assert np.array_equal(a.es_n0_linear, b.es_n0_linear)
    assert np.array_equal(a.mi_per_bit, b.mi_per_bit)


def _tie_rows(rng, ties):
    """Rows whose column maximum is shared by exactly `ties` of the four."""
    rows = rng.normal(scale=3.0, size=(4, 5000))
    top = rows.max(axis=0) + rng.uniform(0.0, 2.0, size=5000)
    for col in range(rows.shape[1]):
        rows[rng.permutation(4)[:ties], col] = top[col]
    return rows


@pytest.mark.parametrize("case", ["random", "wide", "tie2", "tie3", "tie4", "underflow", "tie2-underflow",
                                  "one-tied-column"])
def test_logsumexp_rows_matches_scipy_bit_for_bit(case):
    rng = np.random.default_rng(12)
    if case == "random":
        rows = rng.normal(scale=5.0, size=(4, 20000))
    elif case == "one-tied-column":
        # one tie in a block without others must still take the tie path
        rows = rng.normal(scale=5.0, size=(4, 20000))
        rows[[1, 3], 7777] = rows[:, 7777].max() + 0.5
        assert np.count_nonzero((rows == rows.max(axis=0)).sum(axis=0) > 1) == 1
    elif case == "wide":
        rows = rng.normal(scale=1e3, size=(4, 20000))
    elif case.startswith("tie"):
        rows = _tie_rows(rng, int(case[3]))
        assert np.all((rows == rows.max(axis=0)).sum(axis=0) == int(case[3]))
    else:
        # every term but the maximum's underflows to 0 in exp(a - a_max)
        rows = rng.uniform(-2000.0, -1000.0, size=(4, 5000))
        rows[0] = rng.normal(size=5000)
        if case == "tie2-underflow":
            rows[2] = rows[0]
    expected = logsumexp(rows.T, axis=1)
    got = _logsumexp_rows(rows.copy(), np.empty(rows.shape[1]))
    assert got.tobytes() == expected.tobytes()


def _reference_build(es_n0_min_db, es_n0_max_db, points, samples, seed):
    """build_mi_table done the plain way: whole-array draws, one complex
    noise array per point and scipy's logsumexp over the four rows."""
    rng = np.random.default_rng(seed)
    grid = db_to_linear(np.linspace(es_n0_min_db, es_n0_max_db, points))
    qpsk = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)
    means, std_errors = [], []
    for snr in map(float, grid):
        sent = rng.integers(0, 4, size=samples)
        noise = np.empty(samples, dtype=complex)
        noise.real = rng.standard_normal(samples)
        noise.imag = rng.standard_normal(samples)
        noise *= np.sqrt(0.5 / snr)
        y = qpsk[sent] + noise
        expo = (np.abs(noise) ** 2)[:, None] - np.abs(y[:, None] - qpsk) ** 2
        expo *= snr
        per_bit = (np.log2(4.0) - logsumexp(expo, axis=1) / np.log(2.0)) / mi.MODULATION_BITS
        means.append(np.mean(per_bit))
        std_errors.append(float(np.std(per_bit) / np.sqrt(samples)))
    assert max(std_errors) < mi.TARGET_STD_ERROR
    return MiTable(grid, np.clip(np.maximum.accumulate(means), 0.0, 1.0)), std_errors


@pytest.mark.parametrize("samples", [10_000, 16_384, 16_385, 3 * 16_384 + 7])
def test_build_matches_the_plain_reference_bit_for_bit(samples, monkeypatch):
    # four points per build, so every point after the first reuses the
    # build's arrays; 10-13 dB keeps 10k samples inside the precision
    # gate, and below the saturation where every sample scores exactly 1
    args = (10.0, 13.0, 4, samples, 5)
    std_errors = []
    estimate = mi._mc_mi_per_bit

    def spy(*point):
        mean, se = estimate(*point)
        std_errors.append(se)
        return mean, se

    monkeypatch.setattr(mi, "_mc_mi_per_bit", spy)
    got = build_mi_table(*args)
    expected, expected_std_errors = _reference_build(*args)
    assert np.all(got.mi_per_bit < 1.0)
    assert got.es_n0_linear.tobytes() == expected.es_n0_linear.tobytes()
    assert got.mi_per_bit.tobytes() == expected.mi_per_bit.tobytes()
    # the in-place deviations give np.std's bits
    assert np.array(std_errors).tobytes() == np.array(expected_std_errors).tobytes()


def test_a_build_traces_at_most_12_bytes_per_sample():
    build_mi_table(19.0, 20.0, 2, 20_000, 3)
    tracemalloc.start()
    try:
        build_mi_table(19.0, 20.0, 2, 1_000_000, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # int64 symbols and whole real and imaginary noise arrays beside the
    # MI array, plus np.std's deviations, traced 41.4
    assert peak <= 12 * 1_000_000


# sha256 of es_n0_linear.tobytes() + mi_per_bit.tobytes() for three
# default-grid points mid-curve at seed 1, recorded on x86-64 with NumPy 2.4
# on SIMD path X86_V3 X86_V4 AVX512_ICL AVX512_SPR from the estimator that
# called scipy.special.logsumexp. Any change to the draw order or the float
# operations shows here.
MI_SLICE_DIGEST = "6cab1c705174dec16cc8365cb9d1916f4d4afcabfe8d0b7526afbd9cfa651bf5"


def test_mi_slice_bytes_are_pinned():
    table = build_mi_table(es_n0_min_db=-0.25, es_n0_max_db=0.25, points=3, seed=1)
    got = hashlib.sha256(table.es_n0_linear.tobytes() + table.mi_per_bit.tobytes()).hexdigest()
    assert got == MI_SLICE_DIGEST, numpy_simd_path()


def test_curve_limits(mi_table):
    assert mi_of(mi_table, float(db_to_linear(-30.0))) < 0.01
    assert mi_of(mi_table, float(db_to_linear(10.0))) >= 0.99


def test_eleven_point_oracle_agreement(mi_table):
    got = np.array([mi_of(mi_table, float(db_to_linear(d))) for d in ORACLE_POINTS_DB])
    assert np.max(np.abs(got - np.array(ORACLE_MI_PER_BIT))) < 3e-3


def test_query_at_grid_point_returns_grid_value(mi_table):
    for i in (0, 40, 120, 200):
        assert mi_of(mi_table, float(mi_table.es_n0_linear[i])) == mi_table.mi_per_bit[i]


def test_query_at_midpoint_is_arithmetic_mean(mi_table):
    x0, x1 = mi_table.es_n0_linear[100:102]
    y0, y1 = mi_table.mi_per_bit[100:102]
    got = mi_of(mi_table, 0.5 * (x0 + x1))
    assert got == pytest.approx(0.5 * (y0 + y1), rel=1e-12)


def test_unit_attenuation_changes_nothing(mi_table):
    es = float(db_to_linear(8.0))
    rho = 1.0
    assert mi_of(mi_table, rho * rho * es) == mi_of(mi_table, es)


def test_out_of_range_queries_clamp(mi_table):
    assert mi_of(mi_table, 1e-9) == mi_table.mi_per_bit[0]
    assert mi_of(mi_table, 1e9) == mi_table.mi_per_bit[-1]


def test_nonpositive_query_is_a_domain_error(mi_table):
    with pytest.raises(ValueError):
        mi_of(mi_table, 0.0)
    with pytest.raises(ValueError):
        mi_of(mi_table, -1.0)


def test_monotone_over_random_pairs(mi_table):
    rng = np.random.default_rng(8)
    x = db_to_linear(rng.uniform(-40.0, 30.0, size=(1000, 2)))
    lo = np.minimum(x[:, 0], x[:, 1])
    hi = np.maximum(x[:, 0], x[:, 1])
    assert np.all(mi_of(mi_table, lo) <= mi_of(mi_table, hi))


def test_bounded_for_any_positive_input(mi_table):
    rng = np.random.default_rng(9)
    x = db_to_linear(rng.uniform(-60.0, 60.0, size=1000))
    y = mi_of(mi_table, x)
    assert np.all(y >= 0.0) and np.all(y <= 1.0)


def test_inverse_near_saturation_knee(mi_table):
    # the 0.99 crossing sits just below 9 dB on the measured curve
    knee_db = float(linear_to_db(bisection_mi_inverse(mi_table, 0.99)))
    assert 8.5 <= knee_db <= 11.0


def test_csv_round_trip(tmp_path, mi_table):
    path = tmp_path / "mi.csv"
    save_mi_csv(mi_table, path)
    loaded = parse_mi_csv(path.read_text())
    assert np.allclose(loaded.es_n0_linear, mi_table.es_n0_linear, rtol=1e-5)
    assert np.allclose(loaded.mi_per_bit, mi_table.mi_per_bit, atol=1e-6)


def test_csv_load_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("x,y\n0,0.1\n1,0.2\n")
    with pytest.raises(ValueError, match="header"):
        parse_mi_csv(bad_header.read_text())
    short = tmp_path / "short.csv"
    short.write_text("es_n0_db,mi_per_bit\n0,0.5\n")
    with pytest.raises(ValueError, match="two rows"):
        parse_mi_csv(short.read_text())


@pytest.mark.parametrize("row", ["-29", "-29,0.1,0.2", "-29,", "-29,x"])
def test_csv_rows_must_be_two_numbers(row, tmp_path):
    path = tmp_path / "mi.csv"
    path.write_text(f"es_n0_db,mi_per_bit\n-30,0.01\n\n{row}\n-28,0.02\n")
    with pytest.raises(ValueError, match="line 4 .* two numbers"):
        parse_mi_csv(path.read_text())


@pytest.mark.parametrize("grid, mi", [
    ([1.0, 2.0, 4.0], [0.1, np.nan, 0.3]),
    ([1.0, 2.0, 4.0], [0.1, 0.2, np.inf]),
    ([1.0, 2.0, np.inf], [0.1, 0.2, 0.3]),
    ([1.0, np.nan, 4.0], [0.1, 0.2, 0.3]),
])
def test_table_rejects_non_finite_values(grid, mi):
    with pytest.raises(ValueError, match="finite"):
        MiTable(es_n0_linear=np.array(grid), mi_per_bit=np.array(mi))


def test_shipped_table_reproducible_from_default_build(mi_table, fresh_mi_build, tmp_path):
    table, _ = fresh_mi_build
    from lmsharq import presets

    rebuilt = tmp_path / "rebuilt.csv"
    save_mi_csv(table, rebuilt)
    shipped = presets.assets_dir() / presets.MI_TABLE_ASSET
    assert rebuilt.read_bytes() == shipped.read_bytes()
