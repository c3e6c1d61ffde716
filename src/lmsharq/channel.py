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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-9


@dataclass
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
        if self.psi_db <= 0.0:
            raise ValueError("psi_db must be positive")


@dataclass
class LmsModel:
    """Markov-switched three-state Loo channel along a travelled path."""

    states: tuple
    transition_matrix: np.ndarray
    state_frame_m: float = 5.0
    sample_frame_m: float = 0.1
    speed_mps: float = 60.0 / 3.6

    def __post_init__(self):
        self.states = tuple(self.states)
        if len(self.states) != 3:
            raise ValueError("model requires exactly three states")
        mat = np.asarray(self.transition_matrix, dtype=float)
        if mat.shape != (3, 3):
            raise ValueError("transition matrix must be 3x3")
        if np.any(mat < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        if np.any(np.abs(mat.sum(axis=1) - 1.0) > ROW_SUM_TOL):
            raise ValueError("transition matrix rows must each sum to 1")
        self.transition_matrix = mat
        if self.state_frame_m <= 0.0 or self.sample_frame_m <= 0.0:
            raise ValueError("frame lengths must be positive")
        if self.sample_frame_m > self.state_frame_m:
            raise ValueError("sample_frame_m cannot exceed state_frame_m")
        if self.speed_mps <= 0.0:
            raise ValueError("speed_mps must be positive")

    def stationary(self) -> np.ndarray:
        """Stationary state distribution of the transition matrix."""
        p = self.transition_matrix
        a = np.vstack([p.T - np.eye(3), np.ones(3)])
        b = np.array([0.0, 0.0, 0.0, 1.0])
        pi, *_ = np.linalg.lstsq(a, b, rcond=None)
        pi = np.clip(pi, 0.0, None)
        return pi / pi.sum()


@dataclass
class AttenuationSeries:
    """Sampled direct-path amplitude ratio rho along the path."""

    time_s: np.ndarray
    rho: np.ndarray
    sample_dt_s: float
    state: np.ndarray | None = None

    def __post_init__(self):
        if len(self.time_s) != len(self.rho):
            raise ValueError("time and rho arrays differ in length")
        if len(self.rho) == 0:
            raise ValueError("series is empty")

    def rho_at(self, t_s: float) -> float:
        """Sample value active at time t_s (uniform cadence assumed)."""
        idx = int(t_s / self.sample_dt_s)
        if idx < 0:
            raise ValueError("time must be non-negative")
        if idx >= len(self.rho):
            raise ValueError("time beyond the generated series")
        return float(self.rho[idx])

    def to_csv(self, path) -> None:
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("time_s", "rho_db"))
            rho_db = 20.0 * np.log10(self.rho)
            for t, r in zip(self.time_s, rho_db):
                writer.writerow([f"{t:.6g}", f"{r:.6g}"])


@dataclass
class EmpiricalCdf:
    """Sorted sample view used for probability and quantile queries."""

    sorted_rho: np.ndarray

    def __post_init__(self):
        samples = np.sort(np.asarray(self.sorted_rho, dtype=float))
        if samples.size == 0:
            raise ValueError("cannot build a CDF from an empty sample set")
        self.sorted_rho = samples


def sample_loo(params: LooParams, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw envelope samples |direct + diffuse| for one state."""
    direct_db = rng.normal(params.alpha_db, params.psi_db, size)
    direct = 10.0 ** (direct_db / 20.0)
    sigma = np.sqrt(10.0 ** (params.mp_db / 10.0) / 2.0)
    diffuse = sigma * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return np.abs(direct + diffuse)


def generate_series(
    model: LmsModel,
    duration_s: float,
    seed: int,
    initial_state: int | None = None,
) -> AttenuationSeries:
    """Generate a rho series covering duration_s of travel.

    One Markov decision per state frame, one Loo draw per sample frame.
    Deterministic for a fixed seed. The chain starts from its stationary
    distribution unless initial_state pins it.
    """
    if duration_s <= 0.0:
        raise ValueError("duration_s must be positive")
    rng = np.random.default_rng(seed)
    dt = model.sample_frame_m / model.speed_mps
    n_samples = int(np.ceil(duration_s / dt))
    # sample index -> state epoch index, by distance travelled
    epoch_of = np.arange(n_samples, dtype=np.float64)
    epoch_of *= model.sample_frame_m
    epoch_of //= model.state_frame_m
    epoch_of = epoch_of.astype(np.int64)
    n_epochs = int(epoch_of[-1]) + 1

    cum = np.cumsum(model.transition_matrix, axis=1)
    states = np.empty(n_epochs, dtype=np.int64)
    u = rng.random(n_epochs)
    if initial_state is None:
        states[0] = int(np.searchsorted(np.cumsum(model.stationary()), u[0]))
    else:
        if not 0 <= initial_state < 3:
            raise ValueError("initial_state must be 0, 1 or 2")
        states[0] = initial_state
    for k in range(1, n_epochs):
        states[k] = int(np.searchsorted(cum[states[k - 1]], u[k]))

    # Long calibration series make every n_samples array count, so
    # temporaries are freed as soon as they are used and updated in place.
    per_sample_state = states[epoch_of]
    del epoch_of
    alpha = np.array([s.alpha_db for s in model.states])[per_sample_state]
    psi = np.array([s.psi_db for s in model.states])[per_sample_state]
    direct = rng.normal(alpha, psi)
    del alpha, psi
    direct /= 20.0
    np.power(10.0, direct, out=direct)
    mp_lin = 10.0 ** (np.array([s.mp_db for s in model.states]) / 10.0)
    sigma = np.sqrt(mp_lin / 2.0)[per_sample_state]

    # diffuse = sigma * (re + 1j * im), real part drawn first
    diffuse = np.empty(n_samples, dtype=np.complex128)
    draw = rng.standard_normal(n_samples)
    diffuse.real = draw
    rng.standard_normal(out=draw)
    diffuse.imag = draw
    del draw
    diffuse *= sigma
    del sigma
    diffuse += direct
    del direct
    # np.abs, not np.hypot: the two can differ in the last bit
    rho = np.abs(diffuse)
    del diffuse

    time_s = np.arange(n_samples, dtype=np.float64)
    time_s *= dt
    return AttenuationSeries(time_s=time_s, rho=rho, sample_dt_s=dt, state=per_sample_state)


def empirical_cdf(series: AttenuationSeries) -> EmpiricalCdf:
    return EmpiricalCdf(sorted_rho=np.array(series.rho, dtype=float))


def cdf_eval(cdf: EmpiricalCdf, x: float) -> float:
    """Fraction of samples less than or equal to x."""
    n = cdf.sorted_rho.size
    return float(np.searchsorted(cdf.sorted_rho, x, side="right")) / n


def quantile(cdf: EmpiricalCdf, q: float) -> float:
    """Smallest sample whose empirical CDF reaches q (lower quantile)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    n = cdf.sorted_rho.size
    k = int(np.ceil(q * n)) - 1
    k = min(max(k, 0), n - 1)
    return float(cdf.sorted_rho[k])


def load_model(path) -> LmsModel:
    """Read a model parameter file (INI format, see shipped assets)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model parameter file not found: {path}")
    parser = configparser.ConfigParser()
    parser.read(path)
    try:
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
            transition_matrix=np.array(rows),
            state_frame_m=float(geometry["state_frame_m"]),
            sample_frame_m=float(geometry["sample_frame_m"]),
            speed_mps=float(geometry["speed_mps"]),
        )
    except (configparser.Error, KeyError, IndexError) as exc:
        raise ValueError(f"malformed model parameter file {path}: {exc}") from exc
