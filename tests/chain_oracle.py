"""Classical HARQ as interleaved chains: a schedule oracle with no event queue.

With equal bursts of airtime a, burst s goes out at slot s, back to back,
and its verdict is in at the first slot that starts no earlier than
t_s + a + rtt. When no two verdicts come in at one slot, no backlog ever
forms, and the schedule has a closed form: slot s carries the
retransmission of the burst whose verdict it sees if that codeword is
undecoded with rounds left, and otherwise starts a new codeword. So the
link is a set of independent chains, one per lag. The slot clock adds
airtimes as the link's clock does; the rest shares nothing with sim.run.
"""

from __future__ import annotations

import bisect
import math

from lmsharq.fec import is_decodable, mi_update


def chain_schedule(config, spec, policy, sample_dt_s, mi_samples):
    """(burst_start_s, burst_codeword, mi_acc_per_bit, decode_time_s,
    finished) of a run of an equal-burst table, as lists; None when two
    verdicts come in at one slot, where the chains do not hold."""
    bits, rounds = policy.n_sent[0], len(policy)
    assert policy.n_sent == (bits,) * rounds, "the chains need equal bursts"
    a = bits / config.bit_rate_bps
    start, t = [], 0.0  # every slot whose burst ends within the run
    while t + a <= config.duration_s:
        start.append(t)
        t += a
    # the first slot that starts once each burst's verdict is in
    verdict_at = [bisect.bisect_left(start, t + a + config.rtt_s) for t in start]
    if any(r == r_next < len(start) for r, r_next in zip(verdict_at, verdict_at[1:])):
        return None
    sees = dict(zip(verdict_at, range(len(start))))  # slot -> the burst whose verdict it sees
    owner, sent, acc, decode_time = [], [], [], []
    for s, t in enumerate(start):
        c = owner[sees[s]] if s in sees else -1
        if c < 0 or not math.isnan(decode_time[c]) or sent[c] == rounds * bits:
            c = len(sent)  # a new codeword
            sent.append(0)
            acc.append(0.0)
            decode_time.append(math.nan)
        sent[c], acc[c] = mi_update(sent[c], acc[c], bits, mi_samples[int(t / sample_dt_s)])
        if is_decodable(spec, sent[c], acc[c]):
            decode_time[c] = t + a + config.t_propag_s
        owner.append(c)
    # an undecoded codeword with rounds left when the run ends is cut off
    finished = [not math.isnan(d) or n == rounds * bits for d, n in zip(decode_time, sent)]
    return start, owner, acc, decode_time, finished
