"""HARQ retransmission policies.

Three ways to size the redundancy bursts of one codeword:

* a fixed bit table, equal split of the mother codeword (classical IR),
* a bit table optimized offline from the channel statistics so that
  each transmission aims at a predefined decoding probability,
* a receiver-driven adaptive policy that sizes every retransmission
  from the measured accumulated mutual information and the same
  predefined decoding probabilities.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from lmsharq.channel import EmpiricalCdf, quantile
from lmsharq.errors import ConfigError
from lmsharq.fec import CodeSpec
from lmsharq.mi import MiTable, linear_to_db, mi_of, MODULATION_BITS

PROB_PRESETS = {
    "case1": (0.9999,),
    "case2": (0.5, 0.4999),
    "case3": (0.5, 0.3, 0.1, 0.0999),
}

# Classical IR sends the mother codeword in this many equal bursts.
CLASSICAL_ROUNDS = 4

PROB_SUM_TOL = 1e-9

# Offline sizing of the statically optimized table draws channel samples
# with a fixed seed so the same inputs always give the same table.
ENHANCED_TABLE_SEED = 618033
ENHANCED_TABLE_DRAWS = 50_000


@dataclass
class DecodingProbTable:
    """Unconditional probabilities of first decoding at each transmission."""

    p: tuple

    def __post_init__(self):
        self.p = tuple(float(v) for v in self.p)
        if not self.p:
            raise ValueError("probability table is empty")
        if any(not 0.0 < v <= 1.0 for v in self.p):
            raise ValueError("each probability must lie in (0, 1]")
        if sum(self.p) > 1.0 + PROB_SUM_TOL:
            raise ValueError("probabilities must sum to at most 1")

    def __len__(self):
        return len(self.p)


@dataclass(frozen=True)
class StaticBitTable:
    """Bits to send at each transmission for a table-driven policy.

    notes holds the limits its builder met, one sentence each. Immutable,
    so one table can be played by every run of a sweep.
    """

    n_sent: tuple
    notes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n_sent", tuple(int(v) for v in self.n_sent))
        if not self.n_sent:
            raise ValueError("bit table is empty")
        if any(v <= 0 for v in self.n_sent):
            raise ValueError("bit counts must be positive")

    def __len__(self):
        return len(self.n_sent)

    def bits(self, j: int, n_total_sent: int = 0, mi_acc_per_bit: float = 0.0) -> int:
        """Bits of transmission j, whatever the codeword has received; 0 past the table."""
        if j < 1:
            raise ValueError("transmission index starts at 1")
        return self.n_sent[j - 1] if j <= len(self.n_sent) else 0


def equal_split(spec: CodeSpec) -> StaticBitTable:
    """Classical table: the mother codeword in CLASSICAL_ROUNDS whole-symbol bursts.

    When the symbols do not divide evenly, the earlier bursts carry one
    more. A code shorter than CLASSICAL_ROUNDS symbols gets fewer bursts.
    """
    base, extra = divmod(spec.mother_codeword_bits // MODULATION_BITS, CLASSICAL_ROUNDS)
    symbols = (base + (j < extra) for j in range(CLASSICAL_ROUNDS))
    return StaticBitTable(tuple(n * MODULATION_BITS for n in symbols if n))


def conditional_prob(table: DecodingProbTable, j: int) -> float:
    """Decoding probability of transmission j given all earlier ones failed."""
    if not 1 <= j <= len(table.p):
        raise ValueError(f"transmission index {j} outside table of {len(table.p)}")
    prefix = sum(table.p[: j - 1])
    if prefix >= 1.0:
        raise ValueError("probabilities before index j already sum to 1")
    return table.p[j - 1] / (1.0 - prefix)


def faded_mi(mi_table: MiTable, rho, es_n0_ref_linear: float):
    """mi_of(mi_table, rho * rho * es_n0_ref_linear): the per-bit MI of a burst
    faded by rho. Where that Es/N0 overflows a float but rho * rho does not, the
    reference Es/N0 is too high for the channel: a ConfigError. An overflowing
    rho * rho stays inf, which mi_of rejects as invalid data."""
    with np.errstate(over="ignore"):
        es_n0 = rho * rho * es_n0_ref_linear
        if np.isinf(es_n0).any() and np.isfinite(rho * rho).all():
            raise ConfigError(
                f"es_n0_ref_db {float(linear_to_db(es_n0_ref_linear)):g} dB is too high for the channel:"
                f" rho * rho * Es/N0 overflows a float at rho {float(np.max(rho)):g}")
    return mi_of(mi_table, es_n0)


def mi_needed(
    cdf: EmpiricalCdf,
    p_j: float,
    es_n0_ref_linear: float,
    mi_table: MiTable,
) -> tuple[float, float]:
    """Attenuation threshold and per-bit MI to decode with probability p_j.

    The threshold is the channel quantile exceeded with probability p_j.
    Returns (rho_needed, mi_needed_per_bit).
    """
    if not 0.0 < p_j < 1.0:
        raise ValueError("p_j must lie in (0, 1)")
    rho_needed = quantile(cdf, 1.0 - p_j)
    return rho_needed, faded_mi(mi_table, rho_needed, es_n0_ref_linear)


def _ceil_to_symbol(bits: float) -> int:
    symbols = math.ceil(bits / MODULATION_BITS)
    return max(symbols, 1) * MODULATION_BITS


@dataclass(frozen=True)
class AdaptivePolicy:
    """Adaptive sizing against per-round MI thresholds fixed for a run.

    mi_needed_per_bit[j - 1] is the threshold of transmission j, from
    mi_needed at that round's conditional decoding probability.
    """

    spec: CodeSpec
    mi_needed_per_bit: tuple
    notes = ()  # deriving thresholds meets no limit; a StaticBitTable's may

    def __post_init__(self):
        if not self.mi_needed_per_bit:
            raise ValueError("threshold table is empty")
        if any(m <= 0.0 for m in self.mi_needed_per_bit):
            raise ValueError("mi_needed_per_bit must be positive")

    def __len__(self):
        return len(self.mi_needed_per_bit)

    def bits(self, j: int, n_total_sent: int = 0, mi_acc_per_bit: float = 0.0) -> int:
        """Bits of transmission j so the MI deficit closes at its threshold.

        n_total_sent and mi_acc_per_bit describe what the undecoded
        codeword has received so far. Whole symbols only, at least one
        symbol, never more than what is left of the mother codeword. 0 past
        the last threshold or once less than a symbol of it is left.
        """
        if j < 1:
            raise ValueError("transmission index starts at 1")
        spec = self.spec
        remaining = spec.mother_codeword_bits - n_total_sent
        if j > len(self.mi_needed_per_bit) or remaining < MODULATION_BITS:
            return 0
        deficit = spec.mi_budget - n_total_sent * mi_acc_per_bit
        return min(_ceil_to_symbol(deficit / self.mi_needed_per_bit[j - 1]), remaining)


@functools.lru_cache(maxsize=3)
def _enhanced_draws(n_samples: int, rounds: int) -> np.ndarray:
    """The seeded draws of the enhanced table over n_samples sorted samples.

    The draws are those of rng.choice over the samples, taken as sample
    indices, so they depend on the sample count and the number of rounds
    only. Returns each draw's sample index, one row per transmission, as
    int32: half of what a fresh process first touches here and what an
    entry keeps (800 kB at four rounds). The array is read-only: every
    caller shares it.
    """
    rng = np.random.default_rng(ENHANCED_TABLE_SEED)
    picks = rng.choice(n_samples, size=(ENHANCED_TABLE_DRAWS, rounds))
    draws = np.ascontiguousarray(picks.T, dtype=np.int32)
    draws.setflags(write=False)
    return draws


def build_enhanced_table(
    cdf: EmpiricalCdf,
    probs: DecodingProbTable,
    spec: CodeSpec,
    es_n0_ref_linear: float,
    mi_table: MiTable,
) -> StaticBitTable:
    """Offline bit table aiming at the predefined decoding probabilities.

    Entry sizes are fixed before any transmission starts, so unlike the
    adaptive rule they cannot react to the receiver's measured MI. The
    first entry is sized exactly like a fresh adaptive codeword, from
    the attenuation quantile of its target probability. Every later
    entry is the smallest even bit count whose probability of
    cumulative decoding, over independent draws from the channel
    distribution, reaches the cumulative target of its stage. A stage
    that cannot reach its target with the bits left of the mother
    codeword is clamped to that remainder and ends the table. The table's
    notes say so, and say when the first entry needs the whole mother
    codeword or nothing is left for a later one.
    """
    budget = spec.mi_budget
    _, m_1 = mi_needed(cdf, conditional_prob(probs, 1), es_n0_ref_linear, mi_table)
    n_1 = _ceil_to_symbol(budget / m_1)
    if n_1 >= spec.mother_codeword_bits:
        return StaticBitTable(n_sent=(spec.mother_codeword_bits,), notes=(
            "first transmission needs the whole mother codeword; table is the"
            " single-shot fallback",
        ))
    if len(probs.p) == 1:
        return StaticBitTable(n_sent=(n_1,))
    entries = [n_1]

    # The faded drawn samples' extremes raise what any drawn sample would:
    # the samples are sorted, and fading keeps their order.
    draws = _enhanced_draws(cdf.sorted_rho.size, len(probs.p))
    rho = cdf.sorted_rho
    faded_mi(mi_table, rho.take([draws.min(), draws.max()]), es_n0_ref_linear)

    # Only the draws still undecoded are carried from stage to stage: a
    # decoded draw's accumulated MI only grows, so it meets every later
    # target and counts as one of the `decoded`.
    acc = faded_mi(mi_table, rho.take(draws[0]), es_n0_ref_linear) * n_1
    alive = np.flatnonzero(acc < budget)
    acc = acc.take(alive)

    cum_target = probs.p[0]
    for j, picks in enumerate(draws[1:], start=2):
        cum_target += probs.p[j - 1]
        remaining = spec.mother_codeword_bits - sum(entries)
        if remaining < MODULATION_BITS:
            return StaticBitTable(n_sent=tuple(entries), notes=(
                f"mother codeword exhausted before transmission {j}; table ends",))
        row = faded_mi(mi_table, rho.take(picks.take(alive)), es_n0_ref_linear)
        decoded = ENHANCED_TABLE_DRAWS - alive.size

        def meets(symbols: int) -> bool:
            # np.mean of the mask over every draw, bit for bit: a float64 sum
            # of 0s and 1s is exact
            decodes = acc + symbols * MODULATION_BITS * row >= budget
            return (decoded + np.count_nonzero(decodes)) / ENHANCED_TABLE_DRAWS >= cum_target

        # The entry is the fewest symbols that meet the target, at least one;
        # past `most`, the stage is clamped. Start from the draws' own symbol
        # counts, estimated in floats, at the fewest decodes whose share,
        # divided as in meets, reaches the target (past `most` if none does),
        # and step to the boundary: more symbols only make the target easier.
        # The decoded draws need 0 symbols, the fewest of all; an undecoded
        # draw with no MI this round needs inf.
        most = remaining // MODULATION_BITS
        at = bisect.bisect_left(range(1, ENHANCED_TABLE_DRAWS + 1), cum_target,
                                key=lambda count: count / ENHANCED_TABLE_DRAWS)
        if at < decoded:
            estimate = 0.0
        elif at < ENHANCED_TABLE_DRAWS:
            with np.errstate(divide="ignore"):
                per_draw = (budget - acc) / (MODULATION_BITS * row)
            estimate = np.partition(per_draw, at - decoded)[at - decoded]
        else:
            estimate = math.inf
        symbols = max(math.ceil(min(estimate, most + 1)), 1)
        while symbols > 1 and meets(symbols - 1):
            symbols -= 1
        while symbols <= most and not meets(symbols):
            symbols += 1
        bits = min(symbols * MODULATION_BITS, remaining)
        entries.append(bits)
        if symbols > most:
            return StaticBitTable(n_sent=tuple(entries), notes=(
                f"transmission {j} clamped to the {remaining} bits left of the"
                " mother codeword; table ends there",))
        acc += bits * row
        undecoded = acc < budget
        alive, acc = alive[undecoded], acc[undecoded]
    return StaticBitTable(n_sent=tuple(entries))
