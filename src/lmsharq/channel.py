"""Three-state land-mobile-satellite attenuation model.

A first-order Markov chain switches between Loo-distributed states as
the terminal travels, one state decision per state frame. Within a
state, each sample of the direct-path amplitude ratio rho is drawn as
the envelope of a log-normal direct ray plus a Rayleigh diffuse
component. The empirical distribution of a long series drives the
quantile queries used by the HARQ policies.
"""

from __future__ import annotations

import configparser
import csv
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from lmsharq.errors import ConfigError

ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class LooParams:
    """Loo distribution parameters for one propagation state.

    alpha_db: mean of the direct-ray amplitude in dB.
    psi_db:   standard deviation of the direct-ray amplitude in dB.
    mp_db:    average multipath power in dB relative to unblocked LOS.
    """

    alpha_db: float
    psi_db: float
    mp_db: float

    def __post_init__(self):
        for name in ("alpha_db", "psi_db", "mp_db"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.psi_db <= 0.0:
            raise ValueError("psi_db must be positive")
        # generate_series raises 10 to alpha_db / 20 and to mp_db / 10
        for name, per, what in (("alpha_db", 20.0, "amplitude"), ("mp_db", 10.0, "power")):
            db = getattr(self, name)
            with np.errstate(over="ignore", under="ignore"):
                linear = float(np.power(10.0, db / per))
            if not sys.float_info.min <= linear < math.inf:
                raise ValueError(f"{name} {db:g} dB is out of range: its linear {what} {linear:g}"
                                 " is not a finite, normal float")


@dataclass(frozen=True)
class LmsModel:
    """Markov-switched three-state Loo channel along a travelled path.

    An immutable value: the transition matrix is kept as three row tuples,
    so equal parameters make equal, hashable models. To vary one field,
    use dataclasses.replace.
    """

    states: tuple
    transition_matrix: tuple
    state_frame_m: float = 5.0
    sample_frame_m: float = 0.1
    speed_mps: float = 60.0 / 3.6

    def __post_init__(self):
        states = tuple(self.states)
        if len(states) != 3:
            raise ValueError("model requires exactly three states")
        mat = np.asarray(self.transition_matrix, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError("transition matrix must be 3x3")
        if not np.isfinite(mat).all():
            raise ValueError("transition probabilities must be finite")
        if np.any(mat < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        if np.any(np.abs(mat.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError("transition matrix rows must each sum to 1")
        for name in ("state_frame_m", "sample_frame_m", "speed_mps"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.sample_frame_m > self.state_frame_m:
            raise ValueError("sample_frame_m cannot exceed state_frame_m")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition_matrix", tuple(map(tuple, mat.tolist())))

    def stationary(self) -> np.ndarray:
        """Stationary state distribution of the transition matrix."""
        p = np.asarray(self.transition_matrix)
        a = np.vstack([p.T - np.eye(3), np.ones(3)])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()


@dataclass(frozen=True)
class ClearSky:
    """The unfaded channel: rho is 1 at every instant."""


CLEAR_SKY = ClearSky()


@dataclass
class AttenuationSeries:
    """Sampled direct-path amplitude ratio rho along the path."""

    rho: np.ndarray
    sample_dt_s: float
    state: np.ndarray | None = None

    def __post_init__(self):
        if len(self.rho) == 0:
            raise ValueError("series is empty")

    @property
    def time_s(self) -> np.ndarray:
        """Time of each sample: sample i at i * sample_dt_s."""
        return np.arange(len(self.rho), dtype=np.float64) * self.sample_dt_s

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("time_s", "rho_db"))
            rho_db = 20.0 * np.log10(self.rho)
            for t, r in zip(self.time_s, rho_db):
                # ten digits keep times 1 ms apart distinct below 10^7 s
                writer.writerow([f"{t:.10g}", f"{r:.6g}"])


@dataclass(frozen=True)
class EmpiricalCdf:
    """Sorted sample view used for probability and quantile queries.

    Immutable: it keeps its own sorted copy of the samples, read-only, so
    one CDF can be shared by every caller.
    """

    sorted_rho: np.ndarray

    def __post_init__(self):
        samples = np.sort(np.asarray(self.sorted_rho, dtype=float))
        if samples.size == 0:
            raise ValueError("cannot build a CDF from an empty sample set")
        samples.setflags(write=False)
        object.__setattr__(self, "sorted_rho", samples)


def _markov_walk(cum: np.ndarray, u: np.ndarray, first: int) -> np.ndarray:
    """States of a chain that starts in `first` and then, at epoch k, moves
    from state s to searchsorted(cum[s], u[k]).

    Each row's successor of every epoch comes from one vectorised
    searchsorted, with the same comparisons as a per-step call, so the
    walk itself only follows Python lists.
    """
    succ = [np.searchsorted(row, u).tolist() for row in cum]
    states = [first]
    s = first
    for k in range(1, len(u)):
        s = succ[s][k]
        states.append(s)
    return np.array(states, dtype=np.int64)


@lru_cache(maxsize=8)
def _chain(model: LmsModel):
    """The model's constants that generate_series reads: the cumulative
    stationary vector, the cumulative transition rows and the per-state
    psi_db, alpha_db and diffuse sigma arrays, read-only."""
    mp_lin = 10.0 ** (np.array([s.mp_db for s in model.states]) / 10.0)
    constants = (
        np.cumsum(model.stationary()),
        np.cumsum(model.transition_matrix, axis=1),
        np.array([s.psi_db for s in model.states]),
        np.array([s.alpha_db for s in model.states]),
        np.sqrt(mp_lin / 2.0),
    )
    for a in constants:
        a.setflags(write=False)
    return constants


@lru_cache(maxsize=8)
def _epoch_counts(n_samples: int, sample_frame_m: float, state_frame_m: float) -> np.ndarray:
    """Number of samples in each state epoch, read-only: the process keeps
    the counts of the last eight argument triples.

    Sample i belongs to epoch float(i) * sample_frame_m // state_frame_m,
    which never decreases with i. Each epoch e >= 1 therefore starts at the
    first sample whose epoch reaches e, and that sample lies within one of
    ceil(e * state_frame_m / sample_frame_m). The same float operations are
    evaluated on a window around that estimate only, so the counts equal
    those of the full per-sample division.
    """

    def epoch(i):
        x = np.asarray(i, dtype=np.float64) * sample_frame_m
        x //= state_frame_m
        return x

    n_epochs = int(epoch(n_samples - 1)) + 1
    e = np.arange(1, n_epochs, dtype=np.float64)
    guess = np.ceil(e * state_frame_m / sample_frame_m).astype(np.int64)
    window = guess[:, None] + np.arange(-2, 3)
    below = epoch(window) < e[:, None]
    if below[:, -1].any() or not below[:, 0].all():
        raise RuntimeError("epoch boundary outside its search window")
    starts = guess - 2 + below.sum(axis=1)
    counts = np.diff(starts, prepend=0, append=n_samples)
    counts.setflags(write=False)
    return counts


def generate_series(
    model: LmsModel | ClearSky,
    duration_s: float,
    seed: int,
) -> AttenuationSeries:
    """Generate a rho series covering duration_s of travel.

    One Markov decision per state frame, one Loo draw per sample frame.
    Deterministic for a fixed seed. The chain starts from its stationary
    distribution. Clear sky is one unfaded sample that stays active for
    the whole duration, whatever the seed.
    """
    if not 0.0 < duration_s < np.inf:
        raise ValueError("duration_s must be positive and finite")
    if isinstance(model, ClearSky):
        return AttenuationSeries(rho=np.ones(1), sample_dt_s=duration_s)
    if not isinstance(model, LmsModel):
        raise ConfigError(f"a channel model is required, got {model!r}")
    rng = np.random.default_rng(seed)
    dt = model.sample_frame_m / model.speed_mps
    n_samples = int(np.ceil(duration_s / dt))
    counts = _epoch_counts(n_samples, model.sample_frame_m, model.state_frame_m)
    cum_stationary, cum_rows, psi_db, alpha_db, sigma = _chain(model)

    u = rng.random(len(counts))
    first = int(np.searchsorted(cum_stationary, u[0]))
    states = _markov_walk(cum_rows, u, first)

    def per_sample(values):
        return np.repeat(values[states], counts)

    # Long calibration series make every n_samples array count, so
    # temporaries are freed as soon as they are used and updated in place.
    # Generator.normal(alpha, psi) is alpha + psi * standard_normal.
    direct = rng.standard_normal(n_samples)
    direct *= per_sample(psi_db)
    direct += per_sample(alpha_db)
    direct /= 20.0
    with np.errstate(over="ignore"):  # an overflow leaves inf, rejected below
        np.power(10.0, direct, out=direct)

    # diffuse = sigma * (re + 1j * im), real part drawn first
    diffuse = np.empty(n_samples, dtype=np.complex128)
    draw = rng.standard_normal(n_samples)
    diffuse.real = draw
    rng.standard_normal(out=draw)
    diffuse.imag = draw
    del draw
    diffuse *= per_sample(sigma)
    diffuse += direct
    del direct
    # np.abs, not np.hypot: the two can differ in the last bit
    rho = np.abs(diffuse)
    del diffuse
    overflows = np.count_nonzero(~np.isfinite(rho))
    if overflows:
        raise ValueError(f"rho overflows a float in {overflows} of {n_samples} samples:"
                         " the model's dB values are out of range")
    return AttenuationSeries(rho=rho, sample_dt_s=dt, state=np.repeat(states, counts))


def quantile(cdf: EmpiricalCdf, q: float) -> float:
    """Smallest sample whose empirical CDF reaches q (lower quantile)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    n = cdf.sorted_rho.size
    k = int(np.ceil(q * n)) - 1
    k = min(max(k, 0), n - 1)
    return float(cdf.sorted_rho[k])


def load_model(path, data: bytes | None = None) -> LmsModel:
    """Read a model parameter file (INI format, see shipped assets), or
    parse its content `data`; path then only names the file in errors."""
    path = Path(path)
    if data is None:
        if not path.exists():
            raise FileNotFoundError(f"model parameter file not found: {path}")
        data = path.read_bytes()
    parser = configparser.ConfigParser()
    try:
        parser.read_string(data.decode(), source=str(path))
        states = tuple(
            LooParams(
                alpha_db=parser.getfloat(f"state.{k}", "alpha_db"),
                psi_db=parser.getfloat(f"state.{k}", "psi_db"),
                mp_db=parser.getfloat(f"state.{k}", "mp_db"),
            )
            for k in (1, 2, 3)
        )
        rows = [
            [float(v) for v in parser.get("markov", f"row{k}").split()] for k in (1, 2, 3)
        ]
        geometry = parser["geometry"]
        return LmsModel(
            states=states,
            transition_matrix=rows,
            state_frame_m=float(geometry["state_frame_m"]),
            sample_frame_m=float(geometry["sample_frame_m"]),
            speed_mps=float(geometry["speed_mps"]),
        )
    except (configparser.Error, KeyError, IndexError) as exc:
        raise ValueError(f"malformed model parameter file {path}: {exc}") from exc
