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
import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from lmsharq.errors import ConfigError, check_db
from lmsharq.mi import write_csv

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
        check_db("alpha_db", self.alpha_db, 20.0, "amplitude")
        check_db("mp_db", self.mp_db, 10.0, "power")


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
        ratio = self.state_frame_m / self.sample_frame_m
        if not (ratio < math.inf and abs(ratio - round(ratio)) <= 1e-9 * ratio):
            raise ValueError(f"state_frame_m {self.state_frame_m:g} is not a whole number of"
                             f" sample_frame_m {self.sample_frame_m:g}: their ratio is {ratio:.12g}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "transition_matrix", tuple(map(tuple, mat.tolist())))

    @property
    def samples_per_epoch(self) -> int:
        """The whole number of sample frames in one state frame."""
        return round(self.state_frame_m / self.sample_frame_m)

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
    """Sampled direct-path amplitude ratio rho along the path.

    A generated series also keeps the Markov state of each state epoch,
    epoch e holding samples e * samples_per_epoch onwards; the last epoch
    may be cut short by the end of the series.
    """

    rho: np.ndarray
    sample_dt_s: float
    epoch_state: np.ndarray | None = None
    samples_per_epoch: int = 1

    def __post_init__(self):
        if len(self.rho) == 0:
            raise ValueError("series is empty")

    @property
    def time_s(self) -> np.ndarray:
        """Time of each sample: sample i at i * sample_dt_s."""
        return np.arange(len(self.rho), dtype=np.float64) * self.sample_dt_s

    @property
    def state(self) -> np.ndarray | None:
        """Markov state of each sample: that of the epoch that holds it."""
        if self.epoch_state is None:
            return None
        return np.repeat(self.epoch_state, self.samples_per_epoch)[:len(self.rho)]

    def to_csv(self, path) -> None:
        # ten digits keep times 1 ms apart distinct below 10^7 s
        rows = ((f"{t:.10g}", f"{r:.6g}") for t, r in zip(self.time_s, 20.0 * np.log10(self.rho)))
        write_csv(path, ("time_s", "rho_db"), rows)


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
    walk itself only follows bytes, one per epoch and row.
    """
    succ = [np.searchsorted(row, u).astype(np.uint8).tobytes() for row in cum]
    states = bytearray(len(u))
    s = states[0] = first
    for k in range(1, len(u)):
        s = states[k] = succ[s][k]
    return np.frombuffer(states, dtype=np.uint8).astype(np.int64)


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


# Samples per block of the diffuse part: a multiple of 16, so each block
# starts where a vector of NumPy's whole-array SIMD kernels would.
_BLOCK = 1 << 14


def _per_epoch(ufunc, x, values, k, start=0):
    """x = ufunc(x, values[e]) in place for the samples of each epoch e,
    where x holds samples start, start + 1, ... and epoch e spans samples
    e * k to e * k + k - 1. The whole epochs in x go through one
    (epochs, k) view; an epoch cut by either end of x takes a scalar."""
    head = min(-start % k, len(x))
    e = -(-start // k)  # the first epoch that starts in x
    if head:
        ufunc(x[:head], values[e - 1], out=x[:head])
    whole = (len(x) - head) // k
    body = x[head:head + whole * k].reshape(whole, k)
    ufunc(body, values[e:e + whole, None], out=body)
    tail = x[head + whole * k:]
    if len(tail):
        ufunc(tail, values[e + whole], out=tail)


def generate_series(
    model: LmsModel | ClearSky,
    duration_s: float,
    seed: int,
) -> AttenuationSeries:
    """Generate a rho series covering duration_s of travel.

    One Markov decision per state frame, one Loo draw per sample frame:
    each state epoch spans the model's samples_per_epoch samples.
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
    count = duration_s / dt
    # checked before any array is asked for: the largest hold one float64
    # per sample, and the complex128 buffer at most _BLOCK samples
    if not count <= np.iinfo(np.intp).max // 8:
        raise ConfigError(f"duration_s {duration_s:g} s at a sample spacing of {dt:g} s is"
                          f" {count:g} samples, more than an array can hold")
    n_samples = int(np.ceil(count))
    k = min(model.samples_per_epoch, n_samples)
    cum_stationary, cum_rows, psi_db, alpha_db, sigma = _chain(model)

    u = rng.random(-(-n_samples // k))
    first = int(np.searchsorted(cum_stationary, u[0]))
    states = _markov_walk(cum_rows, u, first)
    del u  # one float64 per sample when k = 1

    # Long calibration series make every n_samples array count, so the
    # series is built in two of them, the direct ray and the diffuse part's
    # real parts, and the imaginary parts go by block.
    # Generator.normal(alpha, psi) is alpha + psi * standard_normal.
    direct = rng.standard_normal(n_samples)
    _per_epoch(np.multiply, direct, psi_db[states], k)
    _per_epoch(np.add, direct, alpha_db[states], k)
    direct /= 20.0
    with np.errstate(over="ignore"):  # an overflow leaves inf, rejected below
        np.power(10.0, direct, out=direct)

    # direct + sigma * (re + 1j * im), with every real part drawn before the
    # first imaginary part. Each part is scaled as a float: the complex
    # product with sigma + 0j rounds to the same values.
    rho = rng.standard_normal(n_samples)
    epoch_sigma = sigma[states]
    _per_epoch(np.multiply, rho, epoch_sigma, k)
    rho += direct
    del direct
    diffuse = np.empty(min(n_samples, _BLOCK), dtype=np.complex128)
    for start in range(0, n_samples, _BLOCK):
        block = rho[start:start + _BLOCK]
        imag = rng.standard_normal(len(block))
        _per_epoch(np.multiply, imag, epoch_sigma, k, start)
        buf = diffuse[:len(block)]
        buf.real = block
        buf.imag = imag
        # np.abs, not np.hypot: the two can differ in the last bit
        np.abs(buf, out=block)
    overflows = np.count_nonzero(~np.isfinite(rho))
    if overflows:
        raise ValueError(f"rho overflows a float in {overflows} of {n_samples} samples:"
                         " the model's dB values are out of range")
    return AttenuationSeries(rho=rho, sample_dt_s=dt, epoch_state=states, samples_per_epoch=k)


def quantile(cdf: EmpiricalCdf, q: float) -> float:
    """Smallest sample whose empirical CDF reaches q (lower quantile)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    n = cdf.sorted_rho.size
    k = int(np.ceil(q * n)) - 1
    k = min(max(k, 0), n - 1)
    return float(cdf.sorted_rho[k])


def parse_model(text: str) -> LmsModel:
    """The model of a parameter file's text (INI format, see shipped assets)."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        states = tuple(
            LooParams(**{f.name: parser.getfloat(f"state.{k}", f.name) for f in fields(LooParams)})
            for k in (1, 2, 3)
        )
        rows = [[float(v) for v in parser.get("markov", f"row{k}").split()] for k in (1, 2, 3)]
        geometry = {name: parser.getfloat("geometry", name)
                    for name in ("state_frame_m", "sample_frame_m", "speed_mps")}
        return LmsModel(states=states, transition_matrix=rows, **geometry)
    except configparser.Error as exc:
        raise ValueError(exc) from exc
