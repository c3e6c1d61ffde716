"""Command-line behavior: parsing, exit codes, CSV outputs."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lmsharq.cli import MAX_ES_POINTS, _parse_es_list, build_parser, main
from lmsharq.errors import ConfigError
from lmsharq.sim import SimConfig

EXPECTED_SWEEP_HEADER = [
    "scheme", "environment", "es_n0_db", "efficiency", "mean_delay_s",
    "p1", "p2", "p3", "p4", "wer", "seed",
]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_es_list_single_value():
    assert _parse_es_list("10") == [10.0]


def test_es_list_comma_separated():
    assert _parse_es_list("7,10,13") == [7.0, 10.0, 13.0]


def test_es_list_inclusive_range():
    assert _parse_es_list("7:13:2") == [7.0, 9.0, 11.0, 13.0]
    assert _parse_es_list("1:2:0.5") == [1.0, 1.5, 2.0]
    # -0.9 + 3 * 0.3 is -1.1e-16, which rounds to -0.0; str tells the zeros apart
    assert [str(x) for x in _parse_es_list("-0.9:1:0.3")] == [
        "-0.9", "-0.6", "-0.3", "0.0", "0.3", "0.6", "0.9"]


@pytest.mark.parametrize("text", ["7:13", "13:7:1", "7:8:0", "7:8:-1", "a:b:c", "nan:13:1",
                                  "7:nan:1", "7:13:nan", "7:inf:1", "-inf:7:1", "7:13:inf"])
def test_es_list_rejects_bad_ranges(text):
    with pytest.raises((ConfigError, ValueError)):
        _parse_es_list(text)


@pytest.mark.parametrize("text, message", [
    ("10:11:1e-16", "Es/N0 range step 1e-16 dB is below 1e-9 dB"),
    ("1e17:1e17:1", "Es/N0 range start 1e+17 dB is out of range: its linear value inf"
                    " is not a finite, normal float"),
    ("7:4000:1", "Es/N0 range stop 4000 dB is out of range: its linear value inf"
                 " is not a finite, normal float"),
])
def test_an_es_range_whose_step_cannot_move_is_a_configuration_error(text, message, tmp_path,
                                                                     capsys):
    # each step adds less than half an ulp to x, or repeats a rounded point
    assert main(["sweep", "--esn0", text, "--out", str(tmp_path / "sweep.csv")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("text, points", [("0:9.9999:1e-4", 100_000), ("0:10:1e-4", 100_001),
                                          ("0:0.99999:1e-5", 100_000), ("0:1:1e-5", 100_001),
                                          # a running sum x += step drifts on these
                                          ("0:2000:0.1", 20_001), ("0:2469.13578:0.123456789", 20_001)])
def test_an_es_range_is_counted_as_its_points_are_made(text, points):
    assert MAX_ES_POINTS == 100_000
    if points > MAX_ES_POINTS:
        with pytest.raises(ConfigError, match=f"has {points} points, more than 100000"):
            _parse_es_list(text)
    else:
        got = _parse_es_list(text)
        step = float(text.split(":")[2])
        assert len(got) == points
        assert got[0] == 0.0 and got[-1] == round((points - 1) * step, 9)


def _limit_address_space():
    limit = 512 << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _main_in_a_capped_child(argv) -> subprocess.CompletedProcess:
    """main(argv) in a child process with 512 MiB of address space and a timeout."""
    import lmsharq

    src = str(Path(lmsharq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run(
        [sys.executable, "-c", f"import sys; from lmsharq.cli import main; sys.exit(main({argv!r}))"],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=_limit_address_space)


def test_an_es_range_of_more_points_than_the_bound_fails_before_making_them(tmp_path):
    # 3e12 points would take about 100 TB as a list of floats: the capped
    # child fails fast for a parser that makes the points before it counts them
    child = _main_in_a_capped_child(
        ["sweep", "--esn0", "0:3000:1e-9", "--out", str(tmp_path / "sweep.csv")])
    assert (child.returncode, child.stderr) == (2, (
        "configuration error: Es/N0 range '0:3000:1e-9' has 3000000000002 points,"
        " more than 100000\n"))
    assert not any(tmp_path.iterdir())


MAX_TX_ERROR = ("configuration error: max_transmissions {} is more than the 26760 symbols of"
                " the mother codeword, one per burst at least\n")


def test_max_transmissions_above_the_mother_codewords_symbols_fails_before_any_series(
        monkeypatch, capsys):
    argv = ["run", "--scheme", "classical", "--env", "open", "--esn0", "10", "--duration-s", "5",
            "--max-transmissions"]
    # one symbol per burst, the most bursts a policy could send
    assert main(argv + ["26760"]) == 0
    capsys.readouterr()
    from lmsharq import sim

    def no_series(*args):
        raise AssertionError("a series was generated before max_transmissions was checked")

    monkeypatch.setattr(sim, "generate_series", no_series)
    assert main(argv + ["26761"]) == 2
    assert capsys.readouterr() == ("", MAX_TX_ERROR.format(26761))


def test_a_sweep_of_more_transmissions_than_symbols_fails_before_its_rows(tmp_path):
    # a sweep row holds one p column per transmission asked for: 1e8 of them
    # would take gigabytes, so the capped child fails fast for a check that
    # comes after the rows
    out = tmp_path / "sweep.csv"
    child = _main_in_a_capped_child(
        ["sweep", "--schemes", "classical", "--env", "open", "--esn0", "10", "--duration-s", "5",
         "--max-transmissions", "100000000", "--out", str(out)])
    assert (child.returncode, child.stderr) == (2, MAX_TX_ERROR.format(100000000))
    assert not out.exists()


def test_help_exits_cleanly(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "lmsharq" in capsys.readouterr().out


@pytest.mark.parametrize("sub", ["mi-table", "calibrate", "channel", "run", "sweep", "figures"])
def test_subcommand_help_exits_cleanly(sub, capsys):
    with pytest.raises(SystemExit) as exc:
        main([sub, "--help"])
    assert exc.value.code == 0
    assert f"lmsharq {sub}" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "--esn0", "10", "--profile", "geo-baseline"],
    ["sweep", "--static", "classical-equal"],
    ["run", "--esn0", "10", "--clear-sky"],
], ids=["run-profile", "sweep-static", "run-clear-sky"])
def test_removed_options_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_figure_is_a_usage_error(capsys):
    code = main(["figures", "--which", "nonexistent"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_degenerate_table_request_is_a_usage_error(tmp_path, capsys):
    code = main(["mi-table", "--points", "1", "--out", str(tmp_path / "t.csv")])
    assert code == 2


@pytest.mark.parametrize("option, count", [
    ("--samples", "100000000000000000000"), ("--samples", "2000000000000000000"),
    ("--points", "100000000000000000000"), ("--points", "2000000000000000000"),
])
def test_an_mi_table_larger_than_an_array_holds_is_a_usage_error(option, count, tmp_path, capsys):
    # checked before any array is asked for, so the test allocates nothing
    out = tmp_path / "t.csv"
    assert main(["mi-table", option, count, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: {option[2:]} {count} is more than an array can hold\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bounds", [
    "--min-db -4000 --max-db -3069 --points 2",
    "--min-db -3076 --max-db -3075.9999 --points 50",
    # symbol plus noise rounds to the symbol; unchecked, a "raise samples" verdict
    "--min-db 3000 --max-db 3001 --points 2",
    # the scaled squares overflow; unchecked, a RuntimeWarning
    "--min-db 3000 --max-db 3080 --points 2",
    # unchecked, an MI of 1 written as 0.999894 and 0.999999
    "--min-db 290 --max-db 300 --points 2",
    "--min-db 250 --max-db 251 --points 2",
], ids=["zero-linear-min", "noise-overflow-min", "rounded-away", "squares-overflow",
        "below-one-at-290", "below-one-at-250"])
def test_an_mi_grid_the_estimator_cannot_draw_on_is_a_usage_error(bounds, tmp_path, capsys):
    # before any draw: no RuntimeWarning (an error here) and no file
    out = tmp_path / "t.csv"
    assert main(["mi-table", *bounds.split(), "--samples", "10000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: es_n0_min_db") and "range, -200 to 200 dB" in err
    assert not out.exists()


def test_mi_table_writes_only_a_grid_its_csv_keeps_increasing(tmp_path, capsys):
    # 19, 19.000005 and 19.00001 dB are all written as 19, which no table can read back
    out = tmp_path / "fine.csv"
    argv = ["mi-table", "--min-db", "19", "--points", "3", "--samples", "10000", "--out", str(out)]
    assert main([*argv, "--max-db", "19.00001"]) == 2
    assert "do not stay increasing at the 6 digits" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv, "--max-db", "19.001"]) == 0
    assert main(["calibrate", "--mi-table", str(out)]) == 0


# --min-db and --max-db values: ordinary ones, and odd ones: each end of the
# MI table's Es/N0 range and one ulp either side, above the range where an
# unchecked build writes an MI of 1 below 1, huge, and non-finite text
ORDINARY_DB = st.floats(-50.0, 250.0)
ODD_DB = st.sampled_from(
    [float(np.nextafter(end, end + side)) for end in (-200.0, 200.0) for side in (-1, 0, 1)]
    + [250.0, 290.0, 300.0, 3000.0, 3001.0, 3080.0, -4000.0, 1e300, -1e300, np.nan, np.inf, -np.inf])


@st.composite
def mi_table_argvs(draw):
    lo = draw(ORDINARY_DB | ODD_DB)
    # the top: drawn alike, or a step above the bottom, some too fine for the CSV's 6 digits
    hi = draw(ORDINARY_DB | ODD_DB | st.sampled_from([1e-9, 1e-5, 0.01, 1.0, 80.0]).map(lo.__add__))
    return [f"--min-db={lo!r}", f"--max-db={hi!r}", f"--points={draw(st.integers(2, 4))}",
            "--samples=10000", f"--seed={draw(st.integers(0, 2**32 - 1))}"]


@settings(derandomize=True, deadline=None, max_examples=100)
@example(argv=["--min-db=19.0", "--max-db=19.00001", "--points=3", "--samples=10000", "--seed=20177"])
@example(argv=["--min-db=3000.0", "--max-db=3080.0", "--points=2", "--samples=10000", "--seed=20177"])
@example(argv=["--min-db=290.0", "--max-db=300.0", "--points=2", "--samples=10000", "--seed=20177"])
@given(argv=mi_table_argvs())
def test_mi_table_exits_0_with_a_table_it_reads_back_or_2_with_no_file(argv, tmp_path_factory):
    from lmsharq import presets

    out = tmp_path_factory.mktemp("mi") / "t.csv"
    err = io.StringIO()
    # a RuntimeWarning is an error here, so it fails the test as a traceback would
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["mi-table", *argv, "--out", str(out)])
    assert code in (0, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert not out.exists()
        return
    table = presets.default_mi_table(out)
    assert ((0.0 <= table.mi_per_bit) & (table.mi_per_bit <= 1.0)).all()
    # where the MI is 1, the file says so
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert all(mi == "1" for es_db, mi in rows if float(es_db) >= 20.0)


def test_missing_environment_maps_to_exit_three(tmp_path, capsys):
    out = tmp_path / "series.csv"
    code = main(["channel", "--env", "desert", "--duration-s", "1", "--out", str(out)])
    assert code == 3
    assert "missing file or asset" in capsys.readouterr().err


def test_missing_mi_table_is_an_error_not_a_rebuild(tmp_path, monkeypatch, capsys):
    from lmsharq import mi, presets

    for name in ("its.ini", presets.WER_CURVE_ASSET):
        (tmp_path / name).write_bytes((presets.assets_dir() / name).read_bytes())

    def no_rebuild(*args, **kwargs):
        raise AssertionError("the MI table was rebuilt")

    monkeypatch.setattr(mi, "build_mi_table", no_rebuild)
    monkeypatch.setattr(presets, "build_mi_table", no_rebuild, raising=False)
    monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(tmp_path))
    code = main(["run", "--esn0", "10", "--duration-s", "1"])
    assert code == 3
    assert f"lmsharq mi-table --out {tmp_path / presets.MI_TABLE_ASSET}" in capsys.readouterr().err


def test_malformed_curve_maps_to_exit_four(tmp_path, capsys):
    bad = tmp_path / "curve.csv"
    bad.write_text("foo,bar\n1,2\n")
    code = main(["calibrate", "--wer-curve", str(bad)])
    assert code == 4
    assert "invalid data" in capsys.readouterr().err


@pytest.mark.parametrize("target, code", [
    ("-1", 2), ("nan", 2), ("0", 2), ("1.5", 2), ("1e-12", 4),
])
def test_a_calibration_target_outside_0_1_is_a_configuration_error(target, code, capsys):
    # a probability inside (0, 1) that the curve does not reach stays bad data
    assert main(["calibrate", "--target-wer", target]) == code
    err = capsys.readouterr().err
    assert err.startswith("configuration error" if code == 2 else "invalid data")


@pytest.mark.parametrize("option, header", [
    ("--mi-table", "es_n0_db,mi_per_bit"), ("--wer-curve", "es_n0_db,wer"),
])
def test_a_row_that_is_not_two_numbers_exits_four(option, header, tmp_path, capsys):
    bad = tmp_path / "rows.csv"
    bad.write_text(f"{header}\n-30,0.01\n-29\n")
    assert main(["calibrate", option, str(bad)]) == 4
    assert "line 3" in capsys.readouterr().err


def test_a_non_finite_mi_table_exits_four(tmp_path, monkeypatch, capsys):
    from lmsharq import presets

    for asset in presets.assets_dir().iterdir():
        lines = asset.read_text().splitlines()
        if asset.name == presets.MI_TABLE_ASSET:
            lines = ["15,nan" if line.startswith("15,") else line for line in lines]
            assert "15,nan" in lines
        (tmp_path / asset.name).write_text("\n".join(lines) + "\n")
    monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(tmp_path))
    assert main("run --scheme classical --env open --esn0 13 --duration-s 60".split()) == 4
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    "sweep --esn0 abc", "sweep --esn0 7:x:1", "sweep --esn0 7::1", "sweep --seeds x",
    "sweep --seeds 1.5", "figures --which eff-its --esn0 abc",
    "figures --which cases-its --esn0 7:x:1", "figures --which eff-its --esn0 ,",
    "sweep --esn0 ,",
])
def test_a_malformed_list_is_a_configuration_error(args, tmp_path, capsys):
    out = ["--out-dir", str(tmp_path)] if args.startswith("figures") else [
        "--out", str(tmp_path / "sweep.csv")]
    assert main(args.split() + out) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_run_output_is_reproducible(tmp_path, capsys):
    csv_path = tmp_path / "codewords.csv"
    argv = [
        "run", "--esn0", "10", "--duration-s", "60", "--seed", "7",
        "--codewords-csv", str(csv_path),
    ]
    assert main(argv) == 0
    first_out = capsys.readouterr().out
    first_bytes = csv_path.read_bytes()
    assert main(argv) == 0
    assert capsys.readouterr().out == first_out
    assert csv_path.read_bytes() == first_bytes
    assert "scheme = adaptive" in first_out
    assert "efficiency_bits_per_symbol = " in first_out


def test_run_options_leave_every_other_config_field_unset():
    args = build_parser().parse_args(["run", "--esn0", "10"])
    given = {f.name: getattr(args, f.name, None) for f in dataclasses.fields(SimConfig)}
    assert given == {**dict.fromkeys(given), "es_n0_ref_db": 10.0}


def test_a_run_prints_the_same_bytes_with_its_defaults_spelled_out(capsys):
    argv = ["run", "--esn0", "10", "--duration-s", "30"]
    assert main(argv) == 0
    short = capsys.readouterr()
    d = SimConfig()
    assert main(argv + ["--scheme", d.scheme, "--env", d.environment, "--probs", d.probs_preset,
                        "--seed", str(d.seed), "--max-transmissions", str(d.max_transmissions)]) == 0
    assert capsys.readouterr() == short


def test_sweep_writes_the_tidy_layout(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--env", "its", "--duration-s", "30",
        "--esn0", "10", "--seeds", "1,2", "--out", str(out),
    ])
    assert code == 0
    header, rows = read_csv(out)
    assert header == EXPECTED_SWEEP_HEADER
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["classical"] * 2 + ["enhanced"] * 2 + ["adaptive"] * 2
    assert [r[-1] for r in rows] == ["1", "2"] * 3
    for r in rows:
        assert r[1] == "its"
        assert float(r[2]) == 10.0
        assert 0.0 <= float(r[3]) <= 2.0
        fractions = [float(x) for x in r[5:9]]
        assert abs(sum(fractions) + float(r[9]) - 1.0) <= 1e-5


def test_figure_preset_covers_every_scheme(tmp_path):
    code = main(["figures", "--which", "eff-its", "--esn0", "10:10:1",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    header, rows = read_csv(tmp_path / "eff-its.csv")
    assert header == EXPECTED_SWEEP_HEADER
    assert sorted(r[0] for r in rows) == ["adaptive", "classical", "enhanced"]


def test_cases_figure_calibrates_once(tmp_path):
    from lmsharq.sim import calibration_cdf

    calibration_cdf.cache_clear()
    code = main(["figures", "--which", "cases-its", "--esn0", "10",
                 "--out-dir", str(tmp_path)])
    assert code == 0
    # one miss: one 3600 s calibration series for the three presets
    assert calibration_cdf.cache_info().misses == 1
    # recorded while every probability preset still calibrated on its own
    assert hashlib.sha256((tmp_path / "cases-its.csv").read_bytes()).hexdigest() == (
        "b51cfc2aa4cba41a1a5ff9e20fa3aaf063298a44a5d5b2670c55e9be75405c4d"
    )


def test_the_cases_figure_plays_every_preset_as_one_sweep(tmp_path, monkeypatch):
    from lmsharq import presets, sim

    sim.calibration_cdf(presets.load_environment("its"))  # memoised: no calibration below
    calls = []

    def counted(name):
        real = getattr(sim, name)

        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("generate_series", "sample_mi"):
        monkeypatch.setattr(sim, name, counted(name))
    assert main(["figures", "--which", "cases-its", "--esn0", "10",
                 "--out-dir", str(tmp_path)]) == 0
    # one series and one MI map for the three presets, where a sweep each made three
    assert calls == ["generate_series", "sample_mi"]
    header, rows = read_csv(tmp_path / "cases-its.csv")
    assert header == EXPECTED_SWEEP_HEADER + ["probs"]
    want = []
    for preset in ("case1", "case2", "case3"):
        out = tmp_path / f"{preset}.csv"
        assert main(["sweep", "--schemes", "adaptive", "--esn0", "10", "--probs", preset,
                     "--out", str(out)]) == 0
        want += [row + [preset] for row in read_csv(out)[1]]
    assert rows == want


# sha256 of `lmsharq run --codewords-csv` files, recorded from the event loop
# that kept one state object per codeword; the second run ends with 10
# codewords cut off, which the file leaves out.
CODEWORDS_CSV_SHA256 = {
    ("adaptive", "its", "10", "7"):
        "c02b95bc97854a7375833017c96a8ecaf1f38e6a37e4a6d189bb619180ada1bc",
    ("classical", "its", "7", "3"):
        "6b02cee4a3543a6f9042b3d0a96f4d52c6fa5fd25eb4395ce217218d5fdad254",
}


@pytest.mark.parametrize("scheme, env, esn0, seed", sorted(CODEWORDS_CSV_SHA256))
def test_codewords_csv_bytes_are_pinned(scheme, env, esn0, seed, tmp_path, capsys):
    out = tmp_path / "codewords.csv"
    assert main(["run", "--scheme", scheme, "--env", env, "--esn0", esn0, "--seed", seed,
                 "--duration-s", "60", "--codewords-csv", str(out)]) == 0
    assert "censored = " in capsys.readouterr().out
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == CODEWORDS_CSV_SHA256[scheme, env, esn0, seed]


CAPPED_RUN_STDOUT = """\
scheme = classical
environment = open
es_n0_db = 8
seed = 1
generated = 16590
decoded = 16590
censored = 8
wer = 0
efficiency_bits_per_symbol = 0.986575
mean_delay_s = 0.46165
p1 = 0.649186
p2 = 0.350633
p3 = 0.000180832
p4 = 0
"""


def test_run_notes_the_capped_horizon_on_stderr(tmp_path, capsys):
    out = tmp_path / "codewords.csv"
    argv = ["run", "--scheme", "classical", "--env", "open", "--esn0", "8",
            "--max-transmissions", "6"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == CAPPED_RUN_STDOUT
    assert captured.err == (
        "note: max_transmissions 6 capped at 4 by the policy table in 1 of 1 runs\n"
    )
    assert main(argv + ["--codewords-csv", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4cb466064ff023c709bbd99e1bafcb9050332873952ef29329ae7564d9a94542"
    )


def test_sweep_notes_the_capped_horizon_on_stderr(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--env", "open", "--esn0", "8", "--max-transmissions", "6",
                 "--duration-s", "60", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == f"wrote 3 rows to {out}\n"
    assert captured.err == (
        "note: max_transmissions 6 capped at 4 by the policy table in 3 of 3 runs\n"
    )
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "e98bcafc7f0e183197ffb65b9ec462e4c16a05484532f0f08510524e57e9d19b"
    )


def test_an_uncapped_run_writes_no_note(capsys):
    assert main(["run", "--scheme", "classical", "--env", "open", "--esn0", "8",
                 "--duration-s", "5"]) == 0
    assert capsys.readouterr().err == ""


ENHANCED_RUN_STDOUT = """\
scheme = enhanced
environment = its
es_n0_db = 10
seed = 1
generated = 1365
decoded = 1360
censored = 7
wer = 0.003663
efficiency_bits_per_symbol = 0.808785
mean_delay_s = 0.736566
p1 = 0.47033
p2 = 0.293773
p3 = 0.107692
p4 = 0.124542
"""


def test_run_notes_the_clamped_round_on_stderr(capsys):
    """The enhanced table's clamp reaches the user as a note, not a warning."""
    assert main("run --scheme enhanced --env its --esn0 10 --duration-s 60".split()) == 0
    captured = capsys.readouterr()
    assert captured.out == ENHANCED_RUN_STDOUT
    assert captured.err == ("note: transmission 4 clamped to the 30424 bits left of the"
                            " mother codeword; table ends there\n")


@pytest.mark.parametrize("max_tx, err", [
    ("3", ""),
    ("6", "note: transmission 4 clamped to the 30424 bits left of the mother codeword;"
          " table ends there\n"
          "note: max_transmissions 6 capped at 4 by the policy table in 1 of 1 runs\n"),
], ids=["cut", "capped"])
def test_a_note_follows_the_table_the_run_uses(max_tx, err, capsys):
    assert main(["run", "--scheme", "enhanced", "--env", "its", "--esn0", "10",
                 "--duration-s", "5", "--max-transmissions", max_tx]) == 0
    assert capsys.readouterr().err == err


def test_sweep_writes_each_distinct_note_once(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--schemes", "enhanced,adaptive", "--env", "its", "--esn0", "7,10",
                 "--seeds", "1,2", "--duration-s", "5", "--out", str(out)]) == 0
    assert capsys.readouterr().err == (
        "note: transmission 4 clamped to the 20860 bits left of the mother codeword;"
        " table ends there\n"
        "note: transmission 4 clamped to the 30424 bits left of the mother codeword;"
        " table ends there\n"
    )


@pytest.mark.parametrize("args", [
    "run --esn0 10 --duration-s 5 --seed -1",
    "run --esn0 10 --duration-s 5 --seed -1 --env clear-sky",
    "channel --duration-s 5 --seed -1",
    "sweep --esn0 10 --duration-s 5 --seeds=-1",
    "figures --which eff-its --esn0 10 --seed -1",
    "mi-table --points 3 --seed -1",
])
def test_a_negative_seed_is_a_configuration_error(args, tmp_path, capsys):
    out = {"run": [], "figures": ["--out-dir", str(tmp_path)]}.get(
        args.split()[0], ["--out", str(tmp_path / "out.csv")])
    assert main(args.split() + out) == 2
    assert "configuration error: seed cannot be negative" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, code", [
    ("run --scheme classical --esn0 nan --duration-s 5", 2), ("run --esn0 inf --duration-s 5", 2),
    ("run --esn0=-inf --duration-s 5", 2), ("run --esn0 10 --duration-s nan", 2),
    ("run --esn0 10 --duration-s inf", 2), ("sweep --schemes classical --esn0 nan --duration-s 5", 2),
    ("sweep --esn0 10 --duration-s inf", 2), ("channel --duration-s nan", 4),
    ("channel --duration-s inf", 4), ("mi-table --points 3 --max-db inf", 2),
    ("mi-table --points 3 --min-db nan", 2),
    # finite in dB, but the linear Es/N0 overflows or underflows
    ("run --esn0 4000 --duration-s 5", 2), ("run --esn0=-4000 --duration-s 5", 2),
    ("sweep --esn0 10,4000 --duration-s 5", 2),
])
def test_non_finite_inputs_exit_with_their_code(args, code, tmp_path, capsys):
    out = tmp_path / "out.csv"
    extra = [] if args.startswith("run") else ["--out", str(out)]
    assert main(args.split() + extra) == code
    assert "finite" in capsys.readouterr().err and not out.exists()


def test_a_clear_sky_run_is_labelled_clear_sky(capsys):
    assert main("run --scheme classical --env clear-sky --esn0 10 --duration-s 5".split()) == 0
    assert "environment = clear-sky" in capsys.readouterr().out.splitlines()


# sha256 of stdout + stderr and of the --codewords-csv file of
# `run --scheme <scheme> --esn0 -2 --duration-s 30 --codewords-csv codewords.csv`,
# recorded while clear sky was the --clear-sky flag rather than an environment
CLEAR_SKY_RUN_SHA256 = {
    "classical": ("445252b83cf4356af9a1d73d3a9843a3b98b2af8014fbb6a9edd85cd6772126b",
                  "766c47781f1615fc13b6f0686ff5407c72fa947d57b2198a6bccf83f1975b974"),
    "enhanced": ("5131eafe597e5b703fdd03c0f99e58fd3a06159a9efd9df55b247f6800602a23",
                 "7e98a73af38853d1abe55ef15b562731900068cfa4720a0d7ad88a83222c9263"),
    "adaptive": ("620b40cf63aafac33ec41b3c80c8be1b8de5a2f9f05b50e4b073c7b1e67f889e",
                 "7e98a73af38853d1abe55ef15b562731900068cfa4720a0d7ad88a83222c9263"),
}


@pytest.mark.parametrize("scheme", sorted(CLEAR_SKY_RUN_SHA256))
def test_a_clear_sky_run_is_pinned(scheme, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--env", "clear-sky", "--scheme", scheme, "--esn0", "-2",
                 "--duration-s", "30", "--codewords-csv", "codewords.csv"]) == 0
    captured = capsys.readouterr()
    digests = (hashlib.sha256((captured.out + captured.err).encode()).hexdigest(),
               hashlib.sha256((tmp_path / "codewords.csv").read_bytes()).hexdigest())
    assert digests == CLEAR_SKY_RUN_SHA256[scheme]


def test_a_clear_sky_environment_reads_no_file(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clear-sky").write_text("not a model file\n")
    assert main("channel --env clear-sky --duration-s 5 --out series.csv".split()) == 0
    assert (tmp_path / "series.csv").read_bytes() == b"time_s,rho_db\r\n0,0\r\n"
    # the file of that name is reached through its path, and it does not parse
    assert main("channel --env ./clear-sky --duration-s 5 --out series.csv".split()) == 4
    assert "malformed model parameter file clear-sky" in capsys.readouterr().err


def edited_its(tmp_path, key, value, state=1):
    """A copy of its.ini whose first `key` line from [state.<state>] on is `key = value`."""
    from lmsharq import presets

    lines = (presets.assets_dir() / "its.ini").read_text().splitlines()
    section = lines.index(f"[state.{state}]")
    at = next(i for i in range(section, len(lines)) if lines[i].split("=")[0].strip() == key)
    lines[at] = f"{key} = {value}"
    env = tmp_path / "edited.ini"
    env.write_text("\n".join(lines) + "\n")
    return str(env)


@pytest.mark.parametrize("key, value", [("speed_mps", "inf"), ("row1", "nan 0.5 0.5")])
def test_a_non_finite_environment_file_exits_four(key, value, tmp_path, capsys):
    env = edited_its(tmp_path, key, value)
    assert main(["run", "--env", env, "--esn0", "10", "--duration-s", "5"]) == 4
    assert "finite" in capsys.readouterr().err


OVERFLOW_ERRORS = {
    "amplitude": "malformed model parameter file {env}: alpha_db 7000 dB is out of range: its"
                 " linear amplitude inf is not a finite, normal float",
    "power": "malformed model parameter file {env}: mp_db 4000 dB is out of range: its linear"
             " power inf is not a finite, normal float",
    "rho": "rho overflows a float in 63 of 5000 samples: the model's dB values are out of range",
    "es_n0": "es_n0_linear must be positive and finite",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("state, key, value, what", [
    (1, "alpha_db", "7000", "amplitude"), (2, "mp_db", "4000", "power"),
    (1, "psi_db", "3000", "rho"), (2, "mp_db", "3080", "es_n0"),
])
def test_an_environment_file_whose_db_value_overflows_exits_four(state, key, value, what,
                                                                 tmp_path, capsys):
    # Finite in dB, but 10^(7000 / 20) and 10^(4000 / 10) overflow a float. So do a
    # direct ray 10^(3000 z / 20) for a normal draw z above 2.1, and rho * rho * Es/N0
    # where a 3080 dB multipath power makes rho about 10^154.
    env = edited_its(tmp_path, key, value, state)
    assert main(["run", "--env", env, "--esn0", "10", "--duration-s", "30"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"invalid data: {OVERFLOW_ERRORS[what].format(env=env)}\n"


@pytest.mark.filterwarnings("error")
def test_a_channel_series_that_overflows_exits_four(tmp_path, capsys):
    env = edited_its(tmp_path, "psi_db", "3000")
    out = tmp_path / "series.csv"
    assert main(["channel", "--env", env, "--duration-s", "30", "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"invalid data: {OVERFLOW_ERRORS['rho']}\n"
    assert not out.exists()


def test_a_run_too_large_for_memory_is_a_configuration_error(monkeypatch, capsys):
    from lmsharq import sim

    def out_of_memory(*args):
        # what NumPy raises for a 1e9 s series, without allocating it
        raise MemoryError("Unable to allocate 24.8 GiB for an array with shape"
                          " (3333333333,) and data type float64")

    monkeypatch.setattr(sim, "generate_series", out_of_memory)
    assert main(["run", "--esn0", "10", "--duration-s", "1e9"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: the run does not fit in memory: Unable to allocate 24.8 GiB"
        " for an array with shape (3333333333,) and data type float64\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, duration, spacing, count", [
    ("run --esn0 10 --duration-s 1e300", "1e+300", "0.006", "1.66667e+302"),
    ("sweep --esn0 10 --duration-s 1e300 --out {dir}/sweep.csv", "1e+300", "0.006", "1.66667e+302"),
    ("channel --duration-s 1e300 --out {dir}/series.csv", "1e+300", "0.006", "1.66667e+302"),
    # 1e-300 m at 1e10 m/s is a subnormal spacing, and 5 s over it is inf samples
    ("run --env {dir}/tiny.ini --esn0 10 --duration-s 5", "5", "1e-310", "inf"),
    # fewer samples than np.intp holds, but 8 bytes each for the float64 arrays
    ("run --env {dir}/equal.ini --esn0 10 --duration-s 1e16", "1e+16", "0.006", "1.66667e+18"),
], ids=["run", "sweep", "channel", "tiny-spacing", "bytes"])
def test_a_series_with_more_samples_than_an_array_holds_is_a_configuration_error(
        argv, duration, spacing, count, tmp_path, capsys):
    from lmsharq import presets

    lines = (presets.assets_dir() / "its.ini").read_text().splitlines()
    for name, geometry in [
        ("tiny.ini", {"state_frame_m": "1e-299", "sample_frame_m": "1e-300", "speed_mps": "1e10"}),
        ("equal.ini", {"state_frame_m": "0.1"}),
    ]:
        (tmp_path / name).write_text("".join(
            f"{key} = {geometry[key]}\n" if key in geometry else f"{line}\n"
            for line, key in ((line, line.split("=")[0].strip()) for line in lines)))
    # checked before any array is asked for, so the test allocates nothing
    assert main(argv.format(dir=tmp_path).split()) == 2
    assert capsys.readouterr().err == (
        f"configuration error: duration_s {duration} s at a sample spacing of {spacing} s"
        f" is {count} samples, more than an array can hold\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["equal.ini", "tiny.ini"]


def test_a_run_with_no_burst_is_an_empty_log_error(capsys):
    # a 10 ms run ends before the adaptive scheme's first 29.5 ms burst would
    assert main(["run", "--esn0", "10", "--duration-s", "0.01"]) == 2
    assert capsys.readouterr().err == (
        "configuration error: empty run log: duration_s 0.01 s ends before"
        " the first burst's 0.029512 s of airtime\n")


def test_a_sweep_shorter_than_its_first_burst_is_a_configuration_error(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--esn0", "10", "--duration-s", "0.01", "--out", str(out)]) == 2
    assert "configuration error: empty run log: duration_s 0.01 s" in capsys.readouterr().err
    assert not out.exists()


# Each output option pointed into a directory that does not exist (exit 3),
# at an existing directory, or under a regular file (both exit 2). The work
# each command would do first is stubbed to fail the test.
MISSING_OUTPUT_ARGS = {
    "run-codewords-csv": "run --esn0 10 --duration-s 5 --codewords-csv {missing}/cw.csv",
    "channel-out": "channel --duration-s 5 --out {missing}/s.csv",
    "channel-cdf-out": "channel --duration-s 5 --out s.csv --cdf-out {missing}/c.csv",
    "sweep-out": "sweep --esn0 10 --duration-s 5 --out {missing}/sweep.csv",
    "figures-out-dir": "figures --which eff-its --esn0 10 --out-dir {missing}",
    "mi-table-out": "mi-table --out {missing}/x.csv",
}
UNWRITABLE_OUTPUT_ARGS = {
    "run-codewords-csv-is-a-directory": "run --esn0 10 --duration-s 5 --codewords-csv {folder}",
    "channel-out-is-a-directory": "channel --duration-s 5 --out {folder}",
    "channel-cdf-out-is-a-directory": "channel --duration-s 5 --out s.csv --cdf-out {folder}",
    "sweep-out-is-a-directory": "sweep --esn0 10 --duration-s 5 --out {folder}",
    "mi-table-out-is-a-directory": "mi-table --out {folder}",
    "run-codewords-csv-under-a-file": "run --esn0 10 --duration-s 5 --codewords-csv {plain}/cw.csv",
    "channel-out-under-a-file": "channel --duration-s 5 --out {plain}/s.csv",
    "channel-cdf-out-under-a-file": "channel --duration-s 5 --out s.csv --cdf-out {plain}/c.csv",
    "sweep-out-under-a-file": "sweep --esn0 10 --duration-s 5 --out {plain}/sweep.csv",
    "figures-out-dir-is-a-file": "figures --which eff-its --esn0 10 --out-dir {plain}",
    "mi-table-out-under-a-file": "mi-table --out {plain}/x.csv",
}


@pytest.fixture
def no_work(monkeypatch):
    from lmsharq import cli

    def fail(*args, **kwargs):
        raise AssertionError("work started before the outputs were checked")

    for name in ("run", "sweep", "generate_series", "build_mi_table"):
        monkeypatch.setattr(cli, name, fail)


@pytest.mark.parametrize("args", MISSING_OUTPUT_ARGS.values(), ids=MISSING_OUTPUT_ARGS.keys())
def test_a_missing_output_directory_exits_three_before_any_work(args, tmp_path, monkeypatch, capsys, no_work):
    monkeypatch.chdir(tmp_path)
    missing = tmp_path / "missing"
    assert main(args.format(missing=missing).split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"missing file or asset: output directory {missing} does not exist\n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args", UNWRITABLE_OUTPUT_ARGS.values(), ids=UNWRITABLE_OUTPUT_ARGS.keys())
def test_an_output_that_cannot_be_a_file_exits_two_before_any_work(args, tmp_path, monkeypatch, capsys, no_work):
    monkeypatch.chdir(tmp_path)
    folder, plain = tmp_path / "folder", tmp_path / "plain"
    folder.mkdir()
    plain.write_text("kept\n")
    assert main(args.format(folder=folder, plain=plain).split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    problem = (f"output file {folder} is a directory" if "{folder}" in args
               else f"output directory {plain} is not a directory")
    assert captured.err == f"configuration error: {problem}\n"
    assert sorted(tmp_path.iterdir()) == [folder, plain]
    assert not any(folder.iterdir()) and plain.read_text() == "kept\n"


RUN_ARGV = "run --scheme enhanced --env its --esn0 10 --duration-s 60".split()


def test_a_repeated_run_builds_no_parser(monkeypatch, capsys):
    from lmsharq import cli

    assert main(RUN_ARGV) == 0
    first = capsys.readouterr()

    def no_build(*args, **kwargs):
        raise AssertionError("the parser was built again")

    monkeypatch.setattr(cli, "build_parser", no_build)
    monkeypatch.setattr(argparse, "ArgumentParser", no_build)
    assert main(RUN_ARGV) == 0
    assert capsys.readouterr() == first


def test_switching_the_asset_directory_reads_the_new_one(tmp_path, monkeypatch, capsys):
    from lmsharq import presets

    # the same curve, 1 dB to the right, asks for more MI per bit
    shipped = presets.load_reference_wer()
    for name, curve in (("a", shipped), ("b", [(es + 1.0, wer) for es, wer in shipped])):
        (tmp_path / name).mkdir()
        (tmp_path / name / presets.MI_TABLE_ASSET).write_bytes(
            (presets.assets_dir() / presets.MI_TABLE_ASSET).read_bytes())
        (tmp_path / name / presets.WER_CURVE_ASSET).write_text(
            "es_n0_db,wer\n" + "".join(f"{es!r},{wer!r}\n" for es, wer in curve))
    printed = []
    for name in ("a", "b", "a"):
        monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(tmp_path / name))
        assert main(["calibrate"]) == 0
        printed.append(capsys.readouterr().out)
    monkeypatch.delenv(presets.ASSETS_ENV_VAR)
    assert main(["calibrate"]) == 0
    assert printed[0] == printed[2] == capsys.readouterr().out
    assert float(printed[1].split()[-1]) > float(printed[0].split()[-1])


@pytest.mark.parametrize("named", [False, True], ids=["given-by-path", "named-in-an-asset-directory"])
def test_an_environment_file_edited_between_calls_is_read_again(named, tmp_path, monkeypatch, capsys):
    from lmsharq import presets

    lines = (presets.assets_dir() / "its.ini").read_text().splitlines()
    if named:
        monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(tmp_path))
    env = tmp_path / "its.ini"
    env.write_text("\n".join(lines) + "\n")
    argv = ["channel", "--env", "its" if named else str(env), "--duration-s", "5",
            "--out", str(tmp_path / "s.csv")]
    assert main(argv) == 0
    at = next(i for i, line in enumerate(lines) if line.split("=")[0].strip() == "speed_mps")
    lines[at] = "speed_mps = inf"
    env.write_text("\n".join(lines) + "\n")
    assert main(argv) == 4
    assert "finite" in capsys.readouterr().err


def shipped_assets(directory):
    """A new directory holding a copy of each shipped asset file."""
    from lmsharq import presets

    directory.mkdir()
    for asset in presets.assets_dir().iterdir():
        (directory / asset.name).write_bytes(asset.read_bytes())
    return directory


def shift_db(text):
    """A two-column CSV with its first column, in dB, 1 dB higher."""
    head, *rows = text.splitlines()
    return "\n".join([head] + [f"{float(x) + 1.0!r},{y}" for x, y in (r.split(",") for r in rows)]) + "\n"


# asset: (an edit that changes the output, the command that reads it)
ASSET_EDITS = {
    "its.ini": (lambda text: text.replace("alpha_db = -4.0", "alpha_db = -6.0"),
                "run --esn0 10 --duration-s 30"),
    "turbo_8920_r16_wer.csv": (shift_db, "calibrate"),
    "qpsk_mi.csv": (shift_db, "calibrate"),
}


@pytest.mark.parametrize("asset", sorted(ASSET_EDITS))
def test_an_asset_edited_between_calls_is_read_again(asset, tmp_path, monkeypatch, capsys):
    from lmsharq import presets

    edit, argv = ASSET_EDITS[asset]
    live = shipped_assets(tmp_path / "live")
    monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(live))
    assert main(argv.split()) == 0
    before = capsys.readouterr().out
    (live / asset).write_text(edit((live / asset).read_text()))
    assert main(argv.split()) == 0
    after = capsys.readouterr().out
    # the edited files in a directory no call has read yet
    monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(shipped_assets(tmp_path / "fresh")))
    (tmp_path / "fresh" / asset).write_bytes((live / asset).read_bytes())
    assert main(argv.split()) == 0
    assert after == capsys.readouterr().out != before


ASSET_LOADS = {
    "its.ini": ("parse_model", lambda presets: presets.load_environment("its")),
    "turbo_8920_r16_wer.csv": ("parse_wer_curve", lambda presets: presets.load_reference_wer()),
    "qpsk_mi.csv": ("parse_mi_csv", lambda presets: presets.default_mi_table()),
}


def count_preset_calls(monkeypatch, presets, name):
    """The first argument of each call presets makes to `name` ("fec.x" for one of fec's)."""
    module = presets.fec if name.startswith("fec.") else presets
    name = name.removeprefix("fec.")
    real, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("asset", sorted(ASSET_LOADS))
def test_an_assets_bytes_are_parsed_once_however_often_it_is_loaded(asset, tmp_path, monkeypatch):
    from lmsharq import presets

    parser, load = ASSET_LOADS[asset]
    live = shipped_assets(tmp_path / "live")
    monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(live))
    calls = count_preset_calls(monkeypatch, presets, parser)
    first = load(presets)
    assert all(load(presets) is first for _ in range(5))
    assert calls == [(live / asset).read_bytes().decode()]
    shipped = (live / asset).read_bytes()
    (live / asset).write_text(ASSET_EDITS[asset][0](shipped.decode()))
    edited = load(presets)
    assert edited is not first
    assert load(presets) is edited and len(calls) == 2
    # the same bytes again give the same value, parsed once
    (live / asset).write_bytes(shipped)
    assert load(presets) is first and len(calls) == 2


# asset: an edit that leaves it malformed
ASSET_BREAKS = {
    "its.ini": lambda text: text.replace("[state.1]", "[state.9]"),
    "turbo_8920_r16_wer.csv": lambda text: text.replace("es_n0_db", "es_n0"),
    "qpsk_mi.csv": lambda text: text.replace("es_n0_db", "es_n0"),
}


@pytest.mark.parametrize("asset", sorted(ASSET_BREAKS))
def test_a_malformed_asset_names_its_own_path_on_every_load(asset, tmp_path, monkeypatch):
    from lmsharq import presets

    _, load = ASSET_LOADS[asset]
    for name in ("a", "b"):
        broken = shipped_assets(tmp_path / name) / asset
        broken.write_text(ASSET_BREAKS[asset](broken.read_text()))
        monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(tmp_path / name))
        for _ in range(2):
            with pytest.raises(ValueError) as error:
                load(presets)
            assert str(broken) in str(error.value)


def test_the_code_spec_is_calibrated_once_per_curve_and_table(monkeypatch):
    from lmsharq import presets
    from lmsharq.mi import MiTable

    monkeypatch.setattr(presets, "_spec_cache", {})
    calls = count_preset_calls(monkeypatch, presets, "fec.calibrate_mi_req")
    table = presets.default_mi_table()
    spec = presets.default_code_spec(table)
    same = MiTable(es_n0_linear=table.es_n0_linear.copy(), mi_per_bit=table.mi_per_bit)
    assert presets.default_code_spec(same) is spec and len(calls) == 1
    shifted = MiTable(es_n0_linear=table.es_n0_linear * 1.25, mi_per_bit=table.mi_per_bit)
    assert presets.default_code_spec(shifted).mi_req_per_bit < spec.mi_req_per_bit
    assert len(calls) == 2


@pytest.mark.parametrize("argv", [
    "calibrate --wer-curve {folder}", "calibrate --mi-table {folder}",
    "run --env {folder} --esn0 10 --duration-s 5",
])
def test_a_directory_given_as_an_input_file_exits_four(argv, tmp_path, capsys):
    folder = tmp_path / "folder"
    folder.mkdir()
    assert main(argv.format(folder=folder).split()) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid data") and str(folder) in err


@pytest.mark.parametrize("asset", sorted(ASSET_EDITS))
def test_a_directory_in_place_of_an_asset_exits_four(asset, tmp_path, monkeypatch, capsys):
    from lmsharq import presets

    assets = shipped_assets(tmp_path / "assets")
    (assets / asset).unlink()
    (assets / asset).mkdir()
    monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(assets))
    assert main(ASSET_EDITS[asset][1].split()) == 4
    err = capsys.readouterr().err
    assert err.startswith("invalid data") and str(assets / asset) in err


# input: (the command that reads it, {fault: the file's bytes from the shipped asset's})
INPUT_FAULTS = {
    "its.ini": ("run --env {path} --esn0 10 --duration-s 5", {
        "non-utf-8": lambda shipped: shipped + b"# \xff\n",
        "non-numeric": lambda shipped: shipped.replace(b"alpha_db = -4.0", b"alpha_db = x"),
        "own-check": lambda shipped: shipped.replace(b"psi_db = 1.0", b"psi_db = -1.0"),
        # 5.05 m is 50.5 samples of 0.1 m
        "non-whole-frames": lambda shipped: shipped.replace(b"state_frame_m = 5.0",
                                                            b"state_frame_m = 5.05"),
    }),
    "turbo_8920_r16_wer.csv": ("calibrate --wer-curve {path}", {
        "non-utf-8": lambda shipped: b"es_n0_db,wer\n\xff\n",
        "non-numeric": lambda shipped: shipped.replace(b"9.2e-01", b"x"),
        "own-check": lambda shipped: shipped.replace(b"9.2e-01", b"1e-9"),
        "csv-field-limit": lambda shipped: shipped + b"-1," + b"9" * 200_000 + b"\n",
        # 10^(4000 / 10) overflows a float
        "db-overflow": lambda shipped: b"es_n0_db,wer\n-5,0.5\n4000,0.00001\n",
    }),
    "qpsk_mi.csv": ("calibrate --mi-table {path}", {
        "non-utf-8": lambda shipped: b"es_n0_db,mi_per_bit\n\xff\n",
        "non-numeric": lambda shipped: shipped.replace(b"0.000742668", b"x"),
        "own-check": lambda shipped: shipped.replace(b"0.000742668", b"1.5"),
        "csv-field-limit": lambda shipped: shipped + b"-1," + b"9" * 200_000 + b"\n",
        "db-overflow": lambda shipped: shipped + b"4000,1\n",
        # grid points 1e-11 dB apart near the smallest normal float, where the
        # slope would overflow: below the MI table's Es/N0 range
        "slope-overflow": lambda shipped: b"es_n0_db,mi_per_bit\n-3070,0\n-3069.99999999999,0.5\n10,1\n",
        "above-range": lambda shipped: shipped + b"200.0001,1\n",
    }),
}


@pytest.mark.parametrize("asset, fault", [(asset, fault) for asset, (_, faults) in INPUT_FAULTS.items()
                                          for fault in faults])
def test_every_fault_of_an_input_files_bytes_exits_four_naming_the_file(asset, fault, tmp_path, capsys):
    from lmsharq import presets

    argv, faults = INPUT_FAULTS[asset]
    path = tmp_path / asset
    path.write_bytes(faults[fault]((presets.assets_dir() / asset).read_bytes()))
    for _ in range(2):  # a fault is not kept: the second call reports it again
        assert main(argv.format(path=path).split()) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid data: malformed ") and f" file {path}: " in captured.err


@pytest.mark.parametrize("option, asset, parser", [
    ("--wer-curve", "turbo_8920_r16_wer.csv", "parse_wer_curve"),
    ("--mi-table", "qpsk_mi.csv", "parse_mi_csv"),
])
def test_a_file_given_to_calibrate_is_parsed_once_per_content(option, asset, parser, tmp_path,
                                                              monkeypatch, capsys):
    from lmsharq import presets

    given = tmp_path / asset
    given.write_bytes((presets.assets_dir() / asset).read_bytes())
    calls = count_preset_calls(monkeypatch, presets, parser)
    argv = ["calibrate", option, str(given)]
    assert main(argv) == 0 and main(argv) == 0
    first = capsys.readouterr().out
    assert calls == [given.read_bytes().decode()]
    given.write_text(shift_db(given.read_text()))
    assert main(argv) == 0 and main(argv) == 0
    assert len(calls) == 2 and calls[1] == given.read_bytes().decode()
    assert capsys.readouterr().out != first * 2


@pytest.mark.parametrize("asset", sorted(ASSET_EDITS))
def test_an_input_file_that_cannot_be_read_exits_three_naming_it(asset, tmp_path, monkeypatch, capsys):
    from lmsharq import presets

    assets = shipped_assets(tmp_path / "assets")
    monkeypatch.setenv(presets.ASSETS_ENV_VAR, str(assets))
    real = Path.read_bytes

    def read_bytes(path):
        if path.name == asset:
            raise PermissionError(13, "Permission denied", str(path))
        return real(path)

    monkeypatch.setattr(Path, "read_bytes", read_bytes)
    assert main(ASSET_EDITS[asset][1].split()) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"file not accessible: [Errno 13] Permission denied: '{assets / asset}'\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scheme, duration", [
    ("classical", "30"), ("adaptive", "30"), ("enhanced", "5"),
])
def test_an_esn0_that_overflows_with_the_channel_is_a_configuration_error(scheme, duration, capsys):
    # 3080 dB is 1e308, a normal float, so SimConfig accepts it; rho * rho * Es/N0
    # overflows where rho exceeds about 1.34: in a 30 s open series, and among the
    # calibration samples an enhanced table draws
    argv = ["run", "--env", "open", "--scheme", scheme, "--esn0", "3080", "--duration-s", duration]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("configuration error: es_n0_ref_db 3080 dB is too high for the channel")


def test_an_option_of_one_call_does_not_reach_the_next(tmp_path, capsys):
    out = tmp_path / "cw.csv"
    assert main(RUN_ARGV + ["--codewords-csv", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    assert main(RUN_ARGV) == 0
    assert "codewords" not in capsys.readouterr().out
    assert not any(tmp_path.iterdir())


def test_a_repeated_in_process_run_prints_what_a_fresh_process_prints(capsys):
    import lmsharq

    src = str(Path(lmsharq.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    env.pop("LMSHARQ_ASSETS", None)
    fresh = subprocess.run([sys.executable, "-m", "lmsharq.cli", *RUN_ARGV], env=env,
                           capture_output=True, check=True).stdout
    for _ in range(2):
        assert main(RUN_ARGV) == 0
        assert capsys.readouterr().out.encode() == fresh
