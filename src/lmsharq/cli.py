"""Command-line front end.

Subcommands build the MI table, calibrate the decoding requirement,
export channel realizations, and drive single runs or sweeps whose
tidy CSV output is meant to be plotted directly.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import math
import sys
from pathlib import Path

import numpy as np

from lmsharq import metrics, presets
from lmsharq.channel import EmpiricalCdf, generate_series
from lmsharq.errors import ConfigError, check_integer
from lmsharq.fec import TARGET_WER, calibrate_mi_req, load_wer_curve
from lmsharq.mi import (
    DEFAULT_MAX_DB,
    DEFAULT_MIN_DB,
    DEFAULT_POINTS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    build_mi_table,
    load_mi_csv,
    save_mi_csv,
)
from lmsharq.schemes import PROB_PRESETS
from lmsharq.sim import SCHEMES, SimConfig, derive_policy, run, sample_mi, sweep

# The options that name an output file; `figures --out-dir` names a directory.
OUTPUT_FILES = ("out", "cdf_out", "codewords_csv")

SWEEP_HEADER = ("scheme", "environment", "es_n0_db", "efficiency", "mean_delay_s")


def _fmt(value) -> str:
    return format(float(value), ".6g")


def _numbers(parts, kind, text: str) -> list:
    """Each part as a number of the given kind; one that does not parse is a ConfigError."""
    try:
        return [kind(p) for p in parts]
    except ValueError:
        raise ConfigError(f"expected numbers, got {text!r}") from None


def _parse_es_list(text: str) -> list[float]:
    """Accept '10', '7,10,13' or 'start:stop:step' (stop inclusive); never empty."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"expected start:stop:step, got {text!r}")
        start, stop, step = _numbers(parts, float, text)
        if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
            raise ConfigError(f"bad Es/N0 range {text!r}")
        out = []
        x = start
        while x <= stop + 1e-9:
            out.append(round(x, 9))
            x += step
        return out
    out = _numbers([p for p in text.split(",") if p], float, text)
    if not out:
        raise ConfigError(f"no Es/N0 values in {text!r}")
    return out


def _config(args, **fields) -> SimConfig:
    """The run's config from the options given and the fields named;
    SimConfig fills in the rest."""
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(SimConfig)
             if getattr(args, f.name, None) is not None}
    return SimConfig(**given, **fields)


def _prepared(config: SimConfig):
    mi_table = presets.default_mi_table()
    spec = presets.default_code_spec(mi_table)
    return presets.load_environment(config.environment), spec, mi_table


def _write_rows(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _metric_row(log, n_bins: int) -> list[str]:
    config = log.config
    m = metrics.RunMetrics.from_log(log)
    fractions = list(m.decode_fraction_per_transmission)[:n_bins]
    fractions += [0.0] * (n_bins - len(fractions))
    return (
        [config.scheme, config.environment, _fmt(config.es_n0_ref_db), _fmt(m.efficiency_bits_per_symbol), _fmt(m.mean_delay_s)]
        + [_fmt(f) for f in fractions]
        + [_fmt(m.wer), str(config.seed)]
    )


def _notes(requested: int, logs) -> None:
    """The runs' policy notes on stderr, each distinct one once, then one
    line when a policy's table held runs below max_transmissions."""
    for note in dict.fromkeys(note for lg in logs for note in lg.policy.notes):
        print(f"note: {note}", file=sys.stderr)
    capped = [lg.effective_max_transmissions for lg in logs
              if lg.effective_max_transmissions < requested]
    if capped:
        lo, hi = min(capped), max(capped)
        at = str(lo) if lo == hi else f"{lo} to {hi}"
        print(f"note: max_transmissions {requested} capped at {at} by the policy table"
              f" in {len(capped)} of {len(logs)} runs", file=sys.stderr)


def _sweep_header(n_bins: int):
    return SWEEP_HEADER + tuple(f"p{j}" for j in range(1, n_bins + 1)) + ("wer", "seed")


def cmd_mi_table(args) -> int:
    table = build_mi_table(args.min_db, args.max_db, args.points, args.samples, args.seed)
    save_mi_csv(table, args.out)
    print(f"wrote {len(table.es_n0_linear)} grid points to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    curve = load_wer_curve(args.wer_curve) if args.wer_curve else presets.load_reference_wer()
    table = load_mi_csv(args.mi_table) if args.mi_table else presets.default_mi_table()
    mi_req = calibrate_mi_req(curve, args.target_wer, table)
    print(f"target_wer = {_fmt(args.target_wer)}")
    print(f"mi_req_per_bit = {_fmt(mi_req)}")
    return 0


def cmd_channel(args) -> int:
    check_integer("seed", args.seed)
    model = presets.load_environment(args.environment)
    series = generate_series(model, args.duration_s, args.seed)
    series.to_csv(args.out)
    print(f"wrote {len(series.rho)} samples to {args.out}")
    if args.cdf_out:
        cdf = EmpiricalCdf(series.rho)
        n = len(cdf.sorted_rho)
        rows = (
            (_fmt(20.0 * math.log10(r)), _fmt((i + 1) / n))
            for i, r in enumerate(cdf.sorted_rho)
        )
        _write_rows(Path(args.cdf_out), ("rho_db", "cdf"), rows)
        print(f"wrote {n} CDF points to {args.cdf_out}")
    return 0


def cmd_run(args) -> int:
    config = _config(args)
    model, spec, mi_table = _prepared(config)
    series = generate_series(model, config.duration_s, config.seed)
    policy = derive_policy(config, model, spec, mi_table)
    log = run(config, spec, policy, series, sample_mi(mi_table, series, config.es_n0_ref_db))
    _notes(config.max_transmissions, [log])
    m = metrics.RunMetrics.from_log(log)
    print(f"scheme = {config.scheme}")
    print(f"environment = {config.environment}")
    print(f"es_n0_db = {_fmt(config.es_n0_ref_db)}")
    print(f"seed = {config.seed}")
    print(f"generated = {m.generated}")
    print(f"decoded = {m.decoded}")
    print(f"censored = {m.censored}")
    print(f"wer = {_fmt(m.wer)}")
    print(f"efficiency_bits_per_symbol = {_fmt(m.efficiency_bits_per_symbol)}")
    print(f"mean_delay_s = {_fmt(m.mean_delay_s)}")
    for j, frac in enumerate(m.decode_fraction_per_transmission, start=1):
        print(f"p{j} = {_fmt(frac)}")
    if args.codewords_csv:
        # every codeword has a burst, so the sorted unique ids are 0..n-1
        _, first_burst = np.unique(log.burst_codeword, return_index=True)
        ids = np.flatnonzero(log.finished)
        rows = (
            (c, int(not math.isnan(when)), j, sent, _fmt(start),
             "" if math.isnan(when) else _fmt(when))
            for c, j, sent, start, when in zip(
                ids.tolist(),
                log.n_transmissions[ids].tolist(),
                log.n_total_sent[ids].tolist(),
                log.burst_start_s[first_burst[ids]].tolist(),
                log.decode_time_s[ids].tolist(),
            )
        )
        _write_rows(
            Path(args.codewords_csv),
            ("codeword_id", "decoded", "n_transmissions", "total_bits", "first_start_s", "decode_time_s"),
            rows,
        )
        print(f"wrote {log.generated} codewords to {args.codewords_csv}")
    return 0


def cmd_sweep(args) -> int:
    config = _config(args)
    schemes = [s for s in args.schemes.split(",") if s]
    es_list = _parse_es_list(args.esn0)
    seeds = _numbers([s for s in args.seeds.split(",") if s], int, args.seeds)
    if not schemes or not seeds:
        raise ConfigError("schemes and seeds must both be non-empty")
    model, spec, mi_table = _prepared(config)
    logs = sweep(config, es_list, schemes, seeds, model, spec=spec, mi_table=mi_table)
    _notes(config.max_transmissions, logs)
    n_bins = config.max_transmissions
    # every row before the file, so a run that fails its metrics leaves no CSV
    rows = [_metric_row(lg, n_bins) for lg in logs]
    _write_rows(Path(args.out), _sweep_header(n_bins), rows)
    print(f"wrote {len(logs)} rows to {args.out}")
    return 0


FIGURES = {
    "eff-its": dict(env="its", schemes=("classical", "enhanced", "adaptive")),
    "eff-open": dict(env="open", schemes=("classical", "enhanced", "adaptive")),
    "cases-its": dict(env="its", schemes=("adaptive",), probs=("case1", "case2", "case3")),
}
# The efficiency sweep carries the delay column too; the alias keeps its file name.
FIGURES["delay-its"] = FIGURES["eff-its"]


def cmd_figures(args) -> int:
    if args.which not in FIGURES:
        raise ConfigError(f"unknown figure preset {args.which!r}, expected one of {sorted(FIGURES)}")
    recipe = FIGURES[args.which]
    out = Path(args.out_dir) / f"{args.which}.csv"
    es_list = _parse_es_list(args.esn0)
    base = _config(args, environment=recipe["env"])
    model, spec, mi_table = _prepared(base)
    n_bins = base.max_transmissions
    # a figure over probability presets carries each row's preset in an extra column
    probs = recipe.get("probs")
    rows, logs = [], []
    for preset in probs or (base.probs_preset,):
        point = sweep(dataclasses.replace(base, probs_preset=preset), es_list, recipe["schemes"],
                      [base.seed], model, spec=spec, mi_table=mi_table)
        logs += point
        rows += (_metric_row(log, n_bins) + ([preset] if probs else []) for log in point)
    _notes(n_bins, logs)
    _write_rows(out, _sweep_header(n_bins) + (("probs",) if probs else ()), rows)
    print(f"wrote {len(rows)} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lmsharq",
        description="Link-level HARQ simulator for land-mobile-satellite channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mi-table", help="build the per-bit MI table and save it as CSV")
    p.add_argument("--out", default="qpsk_mi.csv")
    p.add_argument("--min-db", type=float, default=DEFAULT_MIN_DB)
    p.add_argument("--max-db", type=float, default=DEFAULT_MAX_DB)
    p.add_argument("--points", type=int, default=DEFAULT_POINTS)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_mi_table)

    p = sub.add_parser("calibrate", help="derive the per-bit MI requirement from a WER curve")
    p.add_argument("--wer-curve", help="CSV curve; defaults to the shipped one")
    p.add_argument("--mi-table", help="MI table CSV; defaults to the shipped one")
    p.add_argument("--target-wer", type=float, default=TARGET_WER)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("channel", help="generate an attenuation series and export it")
    p.add_argument("--env", dest="environment", default=SimConfig.environment)
    p.add_argument("--duration-s", type=float, default=SimConfig.duration_s)
    p.add_argument("--seed", type=int, default=SimConfig.seed)
    p.add_argument("--out", default="series.csv")
    p.add_argument("--cdf-out")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("run", help="one simulation run, metrics on stdout")
    # the options that set a SimConfig field have its name and no default
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--env", dest="environment")
    p.add_argument("--esn0", dest="es_n0_ref_db", type=float, required=True)
    p.add_argument("--probs", dest="probs_preset", choices=sorted(PROB_PRESETS))
    p.add_argument("--seed", type=int)
    p.add_argument("--duration-s", type=float)
    p.add_argument("--max-transmissions", type=int)
    p.add_argument("--codewords-csv", help="also write one CSV row per codeword")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="cross-product of schemes and Es/N0 points, tidy CSV")
    p.add_argument("--schemes", default="classical,enhanced,adaptive")
    p.add_argument("--esn0", default="7:13:1")
    p.add_argument("--env", dest="environment")
    p.add_argument("--seeds", default="1")
    p.add_argument("--probs", dest="probs_preset", choices=sorted(PROB_PRESETS))
    p.add_argument("--duration-s", type=float)
    p.add_argument("--max-transmissions", type=int)
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figures", help="write the CSV behind one of the standard plots")
    p.add_argument("--which", required=True)
    p.add_argument("--esn0", default="7:13:1")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_figures)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and kept for the process."""
    return build_parser()


def _check_outputs(args) -> None:
    """Every output can be written where it is named, checked before any work."""
    files = [Path(path) for path in (getattr(args, name, None) for name in OUTPUT_FILES) if path]
    for path in files:
        if path.is_dir():
            raise ConfigError(f"output file {path} is a directory")
    dirs = [path.parent for path in files]
    if getattr(args, "out_dir", None):
        dirs.append(Path(args.out_dir))
    for directory in dirs:
        if not directory.exists():
            raise FileNotFoundError(f"output directory {directory} does not exist")
        if not directory.is_dir():
            raise ConfigError(f"output directory {directory} is not a directory")


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"configuration error: the run does not fit in memory: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file or asset: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IsADirectoryError) as exc:  # a directory where a file is read
        print(f"invalid data: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
