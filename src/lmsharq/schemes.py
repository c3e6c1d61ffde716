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

import functools
import math
from dataclasses import dataclass

import numpy as np

from lmsharq.channel import EmpiricalCdf, quantile
from lmsharq.fec import CodeSpec
from lmsharq.mi import MiTable, mi_of, MODULATION_BITS

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


@dataclass
class StaticBitTable:
    """Bits to send at each transmission for a table-driven policy.

    notes holds the limits its builder met, one sentence each.
    """

    n_sent: tuple
    notes: tuple = ()

    def __post_init__(self):
        self.n_sent = tuple(int(v) for v in self.n_sent)
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
    return rho_needed, mi_of(mi_table, rho_needed * rho_needed * es_n0_ref_linear)


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
def _enhanced_draws(n_samples: int, rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """The seeded draws of the enhanced table over n_samples sorted samples.

    The draws are those of rng.choice over the samples, taken as sample
    indices, so they depend on the sample count and the number of rounds
    only. Returns the distinct indices drawn, in increasing order, and
    the position of every draw among them, one row per transmission.
    Both arrays are read-only: every caller shares them.
    """
    rng = np.random.default_rng(ENHANCED_TABLE_SEED)
    picks = rng.choice(n_samples, size=(ENHANCED_TABLE_DRAWS, rounds))
    drawn = np.zeros(n_samples, dtype=bool)
    drawn[picks] = True
    picked = np.flatnonzero(drawn)
    # int32 halves both what a fresh process first touches here and what
    # an entry keeps (1.5 MB at 600k samples and four rounds); np.take
    # reads such indices about as fast as intp ones.
    rank = np.empty(n_samples, dtype=np.int32)
    rank[picked] = np.arange(picked.size, dtype=np.int32)
    positions = np.ascontiguousarray(rank[picks].T)
    picked = picked.astype(np.int32)
    picked.setflags(write=False)
    positions.setflags(write=False)
    return picked, positions


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
    total = n_1
    notes = ()

    # The drawn samples stay sorted, and np.interp is several times faster
    # on sorted input; each draw then reads its own: mi_of over the draws,
    # bit for bit.
    picked, positions = _enhanced_draws(cdf.sorted_rho.size, len(probs.p))
    rho = cdf.sorted_rho.take(picked)
    mi_draws = mi_of(mi_table, rho * rho * es_n0_ref_linear).take(positions)
    acc = mi_draws[0] * n_1
    # Work buffers for the decode test of every draw. Counting the draws
    # that decode and dividing once is np.mean of the mask, bit for bit:
    # a float64 sum of zeros and ones is exact.
    total_mi = np.empty(ENHANCED_TABLE_DRAWS)
    decodes = np.empty(ENHANCED_TABLE_DRAWS, dtype=bool)

    def decode_fraction(row: np.ndarray, extra_bits: int) -> float:
        np.multiply(extra_bits, row, out=total_mi)
        np.add(acc, total_mi, out=total_mi)
        np.greater_equal(total_mi, budget, out=decodes)
        return np.count_nonzero(decodes) / ENHANCED_TABLE_DRAWS

    cum_target = probs.p[0]
    for j in range(2, len(probs.p) + 1):
        cum_target += probs.p[j - 1]
        remaining = spec.mother_codeword_bits - total
        if remaining < MODULATION_BITS:
            notes = (f"mother codeword exhausted before transmission {j}; table ends",)
            break
        row = mi_draws[j - 1]
        if decode_fraction(row, remaining) < cum_target:
            notes = (f"transmission {j} clamped to the {remaining} bits left of the"
                     " mother codeword; table ends there",)
            entries.append(remaining)
            total += remaining
            break
        # The entry is the fewest symbols in [1, most] whose decode
        # fraction meets the target; a stage whose target the earlier
        # bursts already meet gets one symbol. The target is met once
        # `need` draws decode, so start from the need-th smallest of the
        # draws' own symbol counts, estimated in floats, and step to the
        # exact boundary with the decode test, which only gets easier as
        # the burst grows. A draw that already decodes counts as 0, also
        # with no MI this round (0 / 0). np.sort, not np.partition: those
        # draws are many and tie at 0, and introselect is slow on ties.
        most = remaining // MODULATION_BITS
        need = math.ceil(cum_target * ENHANCED_TABLE_DRAWS)
        while need / ENHANCED_TABLE_DRAWS < cum_target:
            need += 1
        while (need - 1) / ENHANCED_TABLE_DRAWS >= cum_target:
            need -= 1
        with np.errstate(divide="ignore", invalid="ignore"):
            per_draw = np.fmax((budget - acc) / (MODULATION_BITS * row), 0.0)
        estimate = np.sort(per_draw)[need - 1]
        symbols = max(math.ceil(min(estimate, most)), 1)
        while symbols > 1 and decode_fraction(row, (symbols - 1) * MODULATION_BITS) >= cum_target:
            symbols -= 1
        while symbols < most and decode_fraction(row, symbols * MODULATION_BITS) < cum_target:
            symbols += 1
        bits = symbols * MODULATION_BITS
        entries.append(bits)
        total += bits
        acc += bits * row
    return StaticBitTable(n_sent=tuple(entries), notes=notes)
