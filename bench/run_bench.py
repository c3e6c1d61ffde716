"""Benchmark of the lmsharq simulator: three workloads, checked outputs.

Run from the root of a source checkout (no install needed):

    python3 bench/run_bench.py --workload sweep-long --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, with
op times in units of a reference loop timed beside the ops;
``--trace 1`` measures the same ops untraced and then traced, and reports
the per-layer metrics. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names and
units come from ``BENCHMARK.json`` at the checkout root. Provenance,
metrics and (traced) spans also go to ``bench/out/``. See
``bench/README.md`` for the workloads and what each metric means.
"""

from time import perf_counter

T0 = perf_counter()

import os  # noqa: E402

# Numeric libraries read these when they are first imported.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# Benchmark the shipped assets, whatever the caller's environment says.
os.environ.pop("LMSHARQ_ASSETS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("sweep-long", "cli-short", "mi-table")
DEFAULT_SEED = 1
SETUP_SAMPLES = 7  # this process plus six fresh interpreters
MIN_PASSES = 3  # each op is timed at least three times

SCHEMES = ("classical", "enhanced", "adaptive")
ENVS = ("its", "open")
# The ends of the figure range. A third point would make each op so long
# that few repeats fit in a run, and the fastest of them would still drift.
SWEEP_ESN0 = (7.0, 13.0)
SWEEP_DURATION_S = 600.0  # SimConfig default
RUN_DURATION_S = 60.0
MI_SLICE_POINTS = 3
ORACLE_TOL = 3e-3  # acceptance criterion C1
ROUNDING_TOL = 1e-5  # CLI and CSV floats carry six significant digits
# Each reference loop takes about 20 ms on an idle 2 GHz x86-64 core:
# long enough to time, short next to the 0.15 to 1.1 s simulation runs
# and MI builds it sits beside.
INTERPRETER_ITERATIONS = 10_000
VECTOR_SAMPLES = 100_000

# Bound in import_package(); the harness calls through module attributes
# so that the traced run sees its wrappers.
cli = mi = presets = sim = None
ORACLE_POINTS_DB = ORACLE_MI_PER_BIT = None


def import_package():
    global cli, mi, presets, sim, ORACLE_POINTS_DB, ORACLE_MI_PER_BIT
    if cli is not None:
        return
    init = SRC / "lmsharq" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"no lmsharq sources at {init}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(ROOT / "tests")]
    from lmsharq import cli, mi, presets, sim  # noqa: F811
    from oracles import ORACLE_MI_PER_BIT, ORACLE_POINTS_DB  # noqa: F811

    if Path(cli.__file__).resolve().parent != init.parent.resolve():
        raise SystemExit(f"imported lmsharq from {cli.__file__}, not from {init.parent}")


# ---------------------------------------------------------------- inputs


def make_ops(workload: str, seed: int) -> list[dict]:
    """One pass of the workload; the timed section repeats it."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "sweep-long":
        return [
            {"kind": "sweep", "env": env, "esn0": list(SWEEP_ESN0), "seed": rng.randrange(1, 2**31)}
            for env in ENVS
        ]
    if workload == "cli-short":
        # Every scheme and environment twice, once below and once above
        # 10 dB, so that each pass carries the same mix.
        cells = [(s, e, high) for s in SCHEMES for e in ENVS for high in (0, 1)]
        rng.shuffle(cells)
        return [
            {
                "kind": "run",
                "scheme": s,
                "env": e,
                "esn0": 7.0 + 0.25 * rng.randrange(12 * high, 12 * high + 12 + high),
                "seed": rng.randrange(1, 2**31),
            }
            for s, e, high in cells
        ]
    # mi-table: one slice of the default grid around each oracle point,
    # at a random position inside the slice.
    step = (mi.DEFAULT_POINTS - 1) // (len(ORACLE_POINTS_DB) - 1)
    ops = []
    for k in range(len(ORACLE_POINTS_DB)):
        first = k * step - rng.randrange(MI_SLICE_POINTS)
        first = min(max(first, 0), mi.DEFAULT_POINTS - MI_SLICE_POINTS)
        ops.append({"kind": "mi", "first": first, "oracle": k, "seed": rng.randrange(1, 2**31)})
    return ops


def op_work(op: dict) -> float:
    """Simulated link seconds, or MI grid points, that one op produces."""
    if op["kind"] == "sweep":
        return len(SCHEMES) * len(op["esn0"]) * SWEEP_DURATION_S
    if op["kind"] == "run":
        return RUN_DURATION_S
    return MI_SLICE_POINTS


def cli_args(op: dict) -> list[str]:
    if op["kind"] == "sweep":
        return [
            "sweep", "--schemes", ",".join(SCHEMES), "--esn0", ",".join(map(str, op["esn0"])),
            "--env", op["env"], "--seeds", str(op["seed"]), "--out", str(OUT / "sweep.csv"),
        ]
    return [
        "run", "--scheme", op["scheme"], "--env", op["env"], "--esn0", str(op["esn0"]),
        "--seed", str(op["seed"]), "--duration-s", str(RUN_DURATION_S),
    ]


def mi_grid_db(first: int) -> tuple[float, float]:
    step = (mi.DEFAULT_MAX_DB - mi.DEFAULT_MIN_DB) / (mi.DEFAULT_POINTS - 1)
    lo = mi.DEFAULT_MIN_DB + first * step
    return lo, lo + (MI_SLICE_POINTS - 1) * step


# ----------------------------------------------------------------- setup


@dataclass
class Context:
    ops: list
    data_bits: int
    logs: list = field(default_factory=list)  # RunLogs of the op in progress, see capture_logs


def setup(workload: str, seed: int) -> Context:
    """Imports, asset and MI-CSV load, environment parse, op generation."""
    import_package()
    table = presets.default_mi_table()
    spec = presets.default_code_spec(table)
    for env in ENVS:
        presets.load_environment(env)
    return Context(make_ops(workload, seed), spec.data_bits)


def interpreter_loop(n: int = INTERPRETER_ITERATIONS) -> float:
    """Fixed work in the event loop's mix: integer hashing, dict updates,
    float sums and scalar ``np.interp`` calls."""
    xs = np.linspace(1.0, 2.0, 201)
    ys = np.log(xs)
    table: dict = {}
    x, acc = 1, 0.0
    for _ in range(n):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        k = x & 255
        v = float(np.interp(np.asarray(1.0 + k / 256.0, dtype=float), xs, ys))
        table[k] = table.get(k, 0.0) + v
        acc += table[k] if k & 1 else -0.5 * v
    return acc


def vector_loop(n: int = VECTOR_SAMPLES) -> float:
    """Fixed work in the MI kernel's mix: complex arrays, distances to the
    four QPSK points, exp, log and a row reduction."""
    y = np.exp(1j * np.linspace(0.0, 50.0, n))
    points = np.exp(1j * np.pi * np.array([0.25, 0.75, 1.25, 1.75]))
    d2 = np.abs(y[:, None] - points[None, :]) ** 2
    return float(np.log(np.exp(-d2).sum(axis=1)).mean())


def mixed_loop() -> float:
    """Half of each loop, for ``lmsharq run``: about two thirds of its time
    is the calibration series (array draws plus a per-epoch Python loop),
    the rest the event loop."""
    return interpreter_loop(INTERPRETER_ITERATIONS // 2) + vector_loop(VECTOR_SAMPLES // 2)


# The reference loop that each op kind is measured against.
REFERENCE = {"sweep": interpreter_loop, "run": mixed_loop, "mi": vector_loop}


class HostSpeed:
    """Times a reference loop right before each simulation run or MI build,
    and at the end of each op.

    The loop's run time says how fast this core runs such code at that
    moment. ``samples`` holds the loop times taken during the op in
    progress; the caller clears it before each op. Off in traced runs,
    whose spans must cover only the package's own work.
    """

    def __init__(self):
        self.enabled = False
        self.loop = interpreter_loop  # REFERENCE of the op in progress
        self.samples: list[float] = []

    def sample(self) -> None:
        if self.enabled:
            t = perf_counter()
            self.loop()
            self.samples.append(perf_counter() - t)


SPEED = HostSpeed()


def capture_logs(ctx: Context) -> None:
    """Keep each RunLog of the op in progress, for the efficiency check.

    Also takes a host-speed sample before each run, so that an op of
    several runs is sampled throughout.
    """

    def wrap(fn):
        def run(*args, **kwargs):
            SPEED.sample()
            log = fn(*args, **kwargs)
            ctx.logs.append(log)
            return log

        return run

    cli.run = wrap(cli.run)
    sim.run = wrap(sim.run)


def setup_seconds(workload: str, seed: int, main_sample: float) -> list[float]:
    """This process's set-up time plus that of fresh interpreters."""
    samples = [main_sample]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


# ------------------------------------------------------------ run and check


def run_op(op: dict):
    if op["kind"] == "mi":
        lo, hi = mi_grid_db(op["first"])
        SPEED.sample()
        return mi.build_mi_table(lo, hi, MI_SLICE_POINTS, mi.DEFAULT_SAMPLES, op["seed"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_args(op))
    return code, out.getvalue()


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=ROUNDING_TOL, abs_tol=1e-12)


def _check_outcome(fields: dict, log, ctx: Context, n_bins: int) -> list[str]:
    """p1..pN + wer = 1 and efficiency = data_bits * decoded / symbols."""
    problems = []
    fractions = [float(fields[f"p{j}"]) for j in range(1, n_bins + 1)]
    if abs(sum(fractions) + float(fields["wer"]) - 1.0) > ROUNDING_TOL:
        problems.append(f"p1..p{n_bins} + wer = {sum(fractions) + float(fields['wer'])!r}")
    want = ctx.data_bits * log.decoded / log.total_symbols
    if not _close(float(fields["efficiency"]), want):
        problems.append(f"efficiency {fields['efficiency']} != {want!r}")
    return problems


def check_sweep(op: dict, result, ctx: Context) -> tuple[str, list[str]]:
    code, stdout = result
    data = (OUT / "sweep.csv").read_bytes()
    (OUT / "sweep.csv").unlink()  # so that a later op cannot pass on a stale file
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    expect = [(s, es) for s in SCHEMES for es in op["esn0"]]
    problems = [] if code == 0 else [f"exit code {code}"]
    if len(rows) != len(expect) or len(ctx.logs) != len(expect):
        return hashlib.sha256(data).hexdigest(), problems + [f"{len(rows)} rows, {len(ctx.logs)} runs"]
    for row, log, (scheme, es) in zip(rows, ctx.logs, expect):
        if (row["scheme"], row["environment"], float(row["es_n0_db"]), int(row["seed"])) != (
            scheme, op["env"], es, op["seed"],
        ):
            problems.append(f"row {row} out of order")
        problems += _check_outcome(row, log, ctx, log.config.max_transmissions)
    return hashlib.sha256(data).hexdigest(), problems


def check_run(op: dict, result, ctx: Context) -> tuple[str, list[str]]:
    code, stdout = result
    fields = dict(line.split(" = ", 1) for line in stdout.splitlines() if " = " in line)
    problems = [] if code == 0 else [f"exit code {code}"]
    if len(ctx.logs) != 1:
        return hashlib.sha256(stdout.encode()).hexdigest(), problems + [f"{len(ctx.logs)} runs"]
    log = ctx.logs[0]
    expect = {
        "scheme": op["scheme"], "environment": op["env"], "seed": str(op["seed"]),
        "generated": str(log.generated), "decoded": str(log.decoded),
    }
    for key, want in expect.items():
        if fields.get(key) != want:
            problems.append(f"{key} = {fields.get(key)!r}, expected {want!r}")
    fields["efficiency"] = fields.get("efficiency_bits_per_symbol", "nan")
    problems += _check_outcome(fields, log, ctx, log.effective_max_transmissions)
    return hashlib.sha256(stdout.encode()).hexdigest(), problems


def check_mi(op: dict, table, ctx: Context) -> tuple[str, list[str]]:
    lo, hi = mi_grid_db(op["first"])
    grid_db = 10.0 * np.log10(table.es_n0_linear)
    problems = []
    if not np.allclose(grid_db, np.linspace(lo, hi, MI_SLICE_POINTS), rtol=0.0, atol=1e-9):
        problems.append(f"grid {grid_db} is not the slice {lo}..{hi} dB")
    at = int(np.argmin(np.abs(grid_db - ORACLE_POINTS_DB[op["oracle"]])))
    gap = abs(float(table.mi_per_bit[at]) - ORACLE_MI_PER_BIT[op["oracle"]])
    if gap >= ORACLE_TOL:
        problems.append(f"MI at {grid_db[at]:g} dB is {gap:.2e} off the oracle")
    digest = hashlib.sha256(table.es_n0_linear.tobytes() + table.mi_per_bit.tobytes()).hexdigest()
    return digest, problems


CHECKS = {"sweep": check_sweep, "run": check_run, "mi": check_mi}


@dataclass
class Phase:
    """Outcome of repeating the workload's pass."""

    latencies: dict = field(default_factory=dict)  # op index -> seconds, one per pass
    relative: dict = field(default_factory=dict)  # op index -> op time / reference-loop time, one per pass
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    warnings: int = 0
    problems: list = field(default_factory=list)

    def op_relative(self) -> list[float]:
        """Each op's median time over the passes, in reference-loop times."""
        return [statistics.median(v) for v in self.relative.values()]

    @property
    def op_seconds(self) -> float:
        return sum(map(sum, self.latencies.values()))


def run_passes(ctx: Context, digests: dict, golden, until_s: float = 0.0, min_passes: int = 1, call=run_op) -> Phase:
    """Closed loop over whole passes.

    Runs ``min_passes`` passes, then more while the next one is expected
    to end within ``until_s`` of the start. Every op is checked; an op
    that raises or fails a check counts as failed. The same op must give
    the same digest on every pass and, at the default seed, the digest
    recorded in ``golden.json``.
    """
    phase = Phase()
    start = perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        while True:
            pass_start = perf_counter()
            for i, op in enumerate(ctx.ops):
                ctx.logs.clear()
                SPEED.loop = REFERENCE[op["kind"]]
                SPEED.samples.clear()
                phase.attempted += 1
                t = perf_counter()
                try:
                    result = call(op)
                    SPEED.sample()  # so that every op ends with a sample too
                    took = perf_counter() - t - sum(SPEED.samples)
                    digest, problems = CHECKS[op["kind"]](op, result, ctx)
                except Exception as exc:  # a failing op is a result, not a crash
                    phase.failed += 1
                    phase.problems.append(f"op {i}: raised {exc!r}")
                    continue
                phase.latencies.setdefault(i, []).append(took)
                if SPEED.samples:
                    phase.relative.setdefault(i, []).append(took / statistics.fmean(SPEED.samples))
                if digests.setdefault(i, digest) != digest:
                    problems.append("output differs from an earlier pass")
                if golden is not None and golden[i] != {"op": op, "sha256": digest}:
                    problems.append("output differs from golden.json")
                if problems:
                    phase.failed += 1
                    phase.problems += [f"op {i}: {p}" for p in problems]
            phase.passes += 1
            now = perf_counter()
            if phase.passes >= min_passes and now + (now - pass_start) - start > until_s:
                break
    ctx.logs.clear()
    phase.warnings = sum(issubclass(w.category, UserWarning) for w in caught)
    return phase


# --------------------------------------------------------------- reporting


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def provenance(args) -> dict:
    sources = sorted(p for p in (SRC / "lmsharq").rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    tree = hashlib.sha256()
    for p in sources:
        tree.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": tree.hexdigest(),
        "assets_sha256": {p.name: _sha256(p) for p in sorted(presets.assets_dir().iterdir()) if p.is_file()},
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def percentile_line(phase: Phase) -> str:
    """Median over all op latencies, plus p90/p99 where ten samples lie beyond."""
    latencies = [x for v in phase.latencies.values() for x in v]
    if not latencies:
        return "op latency: no op returned"
    n = len(latencies)
    parts = [f"n = {n}", f"p50 = {statistics.median(latencies):.4f} s"]
    for q in (90, 99):
        if n * (100 - q) / 100 >= 10:
            parts.append(f"p{q} = {statistics.quantiles(latencies, n=100)[q - 1]:.4f} s")
    return "op latency: " + ", ".join(parts)


def end_to_end(ctx: Context, phase: Phase, setup_samples: list) -> dict:
    per_op = phase.op_relative() or [0.0]
    wall = sum(per_op)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_ref": wall,
        "work_per_ref": sum(map(op_work, ctx.ops)) / wall if wall else 0.0,
        "op_p50_ref": statistics.median(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": 1.0 - phase.failed / phase.attempted,
    }


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SystemExit(f"missing {path}")
    return json.loads(path.read_text())


def load_golden(workload: str, seed: int):
    if seed != DEFAULT_SEED:
        return None
    return json.loads(GOLDEN.read_text())["workloads"][workload]


def record_golden() -> None:
    """Write the default-seed digests of one pass of every workload."""
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    first = setup(WORKLOADS[0], DEFAULT_SEED)
    capture_logs(first)
    for workload in WORKLOADS:
        ctx = replace(first, ops=make_ops(workload, DEFAULT_SEED))
        digests: dict = {}
        phase = run_passes(ctx, digests, None)
        if phase.failed:
            raise SystemExit("\n".join(phase.problems))
        out["workloads"][workload] = [{"op": op, "sha256": digests[i]} for i, op in enumerate(ctx.ops)]
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {GOLDEN}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help="print this interpreter's set-up time")
    parser.add_argument("--record-golden", action="store_true", help="rewrite golden.json from this checkout")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    spec = load_spec()
    ctx = setup(args.workload, args.seed)
    setup_sample = perf_counter() - T0
    if args.setup_probe:
        print(setup_sample)
        return 0
    capture_logs(ctx)
    golden = load_golden(args.workload, args.seed)
    digests: dict = {}
    record = {"provenance": provenance(args)}

    if args.trace:
        plain = run_passes(ctx, digests, golden, until_s=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        tracer.op_id = "setup"
        presets._mi_cache.clear()  # so the traced set-up reads the MI CSV again
        tracer.span("op", setup)(args.workload, args.seed)
        traced_op = tracer.span("op", run_op)
        op_ids = itertools.count()

        def call(op):
            tracer.op_id = next(op_ids)
            return traced_op(op)

        traced = run_passes(ctx, digests, golden, min_passes=plain.passes, call=call)
        mi_samples = sum(MI_SLICE_POINTS * mi.DEFAULT_SAMPLES for op in ctx.ops if op["kind"] == "mi")
        metrics = tracer.layer_metrics(
            mi_samples * traced.passes, traced.warnings, traced.op_seconds / plain.op_seconds
        )
        wanted = spec["per_layer"]
        phases = (plain, traced)
        record["spans"] = tracer.spans
        record["calls"] = dict(tracer.calls)
    else:
        samples = setup_seconds(args.workload, args.seed, setup_sample)
        SPEED.enabled = True
        plain = run_passes(ctx, digests, golden, until_s=args.seconds, min_passes=MIN_PASSES)
        SPEED.enabled = False
        metrics = end_to_end(ctx, plain, samples)
        wanted = spec["end_to_end"]
        phases = (plain,)
        record["setup_samples_s"] = samples
        record["latencies_s"] = plain.latencies
        record["relative"] = plain.relative
        print(percentile_line(plain))
        raw_wall = sum(statistics.median(v) for v in plain.latencies.values())
        print(f"pass wall time: {raw_wall:.4f} s (sum of each op's median, not normalised)")

    if set(metrics) != {m["name"] for m in wanted}:
        raise SystemExit(f"measured {sorted(metrics)}, BENCHMARK.json lists {sorted(m['name'] for m in wanted)}")
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [p for ph in phases for p in ph.problems]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record.update(result=result, problems=problems)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    for name, value in record["provenance"].items():
        print(f"{name} = {value}")
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
