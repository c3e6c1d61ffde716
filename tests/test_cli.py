"""Command-line behavior: parsing, exit codes, CSV outputs."""

import csv
import hashlib

import pytest

from lmsharq.cli import _parse_es_list, main
from lmsharq.errors import ConfigError

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


@pytest.mark.parametrize("text", ["7:13", "13:7:1", "7:8:0", "7:8:-1", "a:b:c", "nan:13:1",
                                  "7:nan:1", "7:13:nan", "7:inf:1", "-inf:7:1", "7:13:inf"])
def test_es_list_rejects_bad_ranges(text):
    with pytest.raises((ConfigError, ValueError)):
        _parse_es_list(text)


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
], ids=["run-profile", "sweep-static"])
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
    "run --esn0 10 --duration-s 5 --seed -1 --clear-sky",
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


@pytest.mark.parametrize("args, code", [
    ("run --scheme classical --esn0 nan --duration-s 5", 2), ("run --esn0 inf --duration-s 5", 2),
    ("run --esn0=-inf --duration-s 5", 2), ("run --esn0 10 --duration-s nan", 2),
    ("run --esn0 10 --duration-s inf", 2), ("sweep --schemes classical --esn0 nan --duration-s 5", 2),
    ("sweep --esn0 10 --duration-s inf", 2), ("channel --duration-s nan", 4),
    ("channel --duration-s inf", 4), ("mi-table --points 3 --max-db inf", 2),
    ("mi-table --points 3 --min-db nan", 2),
])
def test_non_finite_inputs_exit_with_their_code(args, code, tmp_path, capsys):
    out = tmp_path / "out.csv"
    extra = [] if args.startswith("run") else ["--out", str(out)]
    assert main(args.split() + extra) == code
    assert "finite" in capsys.readouterr().err and not out.exists()


def test_a_clear_sky_run_is_labelled_clear_sky(capsys):
    assert main("run --scheme classical --clear-sky --env open --esn0 10 --duration-s 5".split()) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "environment = clear-sky" in lines and not any("open" in line for line in lines)


@pytest.mark.parametrize("key, value", [("speed_mps", "inf"), ("row1", "nan 0.5 0.5")])
def test_a_non_finite_environment_file_exits_four(key, value, tmp_path, capsys):
    from lmsharq import presets

    lines = (presets.assets_dir() / "its.ini").read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.split("=")[0].strip() == key)
    lines[at] = f"{key} = {value}"
    env = tmp_path / "edited.ini"
    env.write_text("\n".join(lines) + "\n")
    assert main(["run", "--env", str(env), "--esn0", "10", "--duration-s", "5"]) == 4
    assert "finite" in capsys.readouterr().err


def test_a_run_with_no_burst_is_an_empty_log_error(capsys):
    # a 10 ms run ends before the first 26.8 ms burst would
    assert main(["run", "--esn0", "10", "--duration-s", "0.01"]) == 4
    assert "empty run log" in capsys.readouterr().err
