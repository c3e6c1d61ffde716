"""Per-bit MI table: construction and interpolation."""

import hashlib

import numpy as np
import pytest
from scipy.special import logsumexp

from oracles import ORACLE_MI_PER_BIT, ORACLE_POINTS_DB, bisection_mi_inverse
from lmsharq import mi
from lmsharq.errors import ConfigError
from lmsharq.mi import (
    MiTable,
    _logsumexp_rows,
    build_mi_table,
    db_to_linear,
    linear_to_db,
    load_mi_csv,
    mi_of,
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


@pytest.mark.parametrize("query", [1.5, np.array([1.2, 1.7])], ids=["scalar", "vector"])
def test_interp_gets_arrays_it_need_not_copy(query, monkeypatch):
    """np.interp copies a grid or value array that is not a writable,
    C-contiguous float64 array, so mi_of hands it private writable copies
    and leaves the public arrays read-only."""
    table = MiTable(es_n0_linear=np.array([1.0, 2.0]), mi_per_bit=np.array([0.1, 0.2]))
    received = []
    interp = np.interp

    def spy(x, xp, fp, *args, **kwargs):
        received.append((xp, fp))
        return interp(x, xp, fp, *args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    assert mi_of(table, query) == pytest.approx(0.1 * np.asarray(query))
    [(xp, fp)] = received
    for given, public in ((xp, table.es_n0_linear), (fp, table.mi_per_bit)):
        assert given.dtype == np.float64
        assert given.flags.writeable and given.flags.c_contiguous and given.flags.aligned
        assert np.array_equal(given, public)
        assert not np.shares_memory(given, public)
        assert not public.flags.writeable


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
], ids=["negative", "numpy-negative", "float", "bool", "inf-max", "nan-min", "-inf-min",
        "float-points", "bool-points", "numpy-one-point", "float-samples", "bool-samples",
        "numpy-few-samples"])
def test_build_checks_seed_and_bounds_before_drawing(kwargs, message, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(mi, "_mc_mi_per_bit", no_draw)
    with pytest.raises(ConfigError, match=message):
        build_mi_table(**{"points": 3, **kwargs})


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
    means, worst_se = [], 0.0
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
        worst_se = max(worst_se, float(np.std(per_bit) / np.sqrt(samples)))
    assert worst_se < mi.TARGET_STD_ERROR
    return MiTable(grid, np.clip(np.maximum.accumulate(means), 0.0, 1.0))


@pytest.mark.parametrize("samples", [10_000, 16_384, 16_385, 3 * 16_384 + 7])
def test_build_matches_the_plain_reference_bit_for_bit(samples):
    # four points per build, so every point after the first reuses the
    # build's arrays; 10-13 dB keeps 10k samples inside the precision
    # gate, and below the saturation where every sample scores exactly 1
    args = (10.0, 13.0, 4, samples, 5)
    got, expected = build_mi_table(*args), _reference_build(*args)
    assert np.all(got.mi_per_bit < 1.0)
    assert got.es_n0_linear.tobytes() == expected.es_n0_linear.tobytes()
    assert got.mi_per_bit.tobytes() == expected.mi_per_bit.tobytes()


# sha256 of es_n0_linear.tobytes() + mi_per_bit.tobytes() for three
# default-grid points mid-curve at seed 1, recorded on x86-64 with NumPy 2.4
# from the estimator that called scipy.special.logsumexp. Any change to the
# draw order or the float operations shows here.
MI_SLICE_DIGEST = "6cab1c705174dec16cc8365cb9d1916f4d4afcabfe8d0b7526afbd9cfa651bf5"


def test_mi_slice_bytes_are_pinned():
    table = build_mi_table(es_n0_min_db=-0.25, es_n0_max_db=0.25, points=3, seed=1)
    got = hashlib.sha256(table.es_n0_linear.tobytes() + table.mi_per_bit.tobytes()).hexdigest()
    assert got == MI_SLICE_DIGEST


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
    loaded = load_mi_csv(path)
    assert np.allclose(loaded.es_n0_linear, mi_table.es_n0_linear, rtol=1e-5)
    assert np.allclose(loaded.mi_per_bit, mi_table.mi_per_bit, atol=1e-6)


def test_csv_load_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("x,y\n0,0.1\n1,0.2\n")
    with pytest.raises(ValueError, match="header"):
        load_mi_csv(bad_header)
    short = tmp_path / "short.csv"
    short.write_text("es_n0_db,mi_per_bit\n0,0.5\n")
    with pytest.raises(ValueError, match="two rows"):
        load_mi_csv(short)


@pytest.mark.parametrize("row", ["-29", "-29,0.1,0.2", "-29,", "-29,x"])
def test_csv_rows_must_be_two_numbers(row, tmp_path):
    path = tmp_path / "mi.csv"
    path.write_text(f"es_n0_db,mi_per_bit\n-30,0.01\n\n{row}\n-28,0.02\n")
    with pytest.raises(ValueError, match="line 4 .* two numbers"):
        load_mi_csv(path)


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
