"""Adaptive-sender analysis: lane flagging, pool shrinkage, and delay bounds.

A sender that permanently stops contacting lanes whose tickets go unredeemed
turns every withheld bundle into a burned cartel lane.  With a multi-slot
horizon this collapses the relevant delay event to a first-slot deficit and
shrinks the cartel's effective fraction slot over slot.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .geometry import ContactSchedule, SystemInstance, cartel_lane_count
from .probability import (
    DiscreteDistribution,
    MCEstimate,
    binomial_pmf_vector,
    cartel_contact_law,
)

__all__ = [
    "q_rat_first_slot",
    "ratchet_multi_slot_delay",
    "honest_miss_delay_bound",
]


def q_rat_first_slot(schedule: ContactSchedule, n: int, beta) -> float:
    """Delay probability when withholding is confined to slot one.

    Flagged lanes never see another ticket, so the attack must beat the
    schedule's recovery slack with the first slot's contacts alone:
    P[A_1 > delta_rec] under the single-slot contact law.
    """
    law = cartel_contact_law(n, beta, schedule.first_slot_contacts)
    return DiscreteDistribution.from_law(law).tail_gt(schedule.delta_rec)


def ratchet_multi_slot_delay(
    instance: SystemInstance,
    beta,
    spread_policy: Sequence[int],
    trials: int,
    seed: int,
) -> MCEstimate:
    """Monte-Carlo delay frequency for a withholding spread under the ratchet.

    ``spread_policy[t-1]`` caps how many bundles the cartel withholds in slot
    ``t``; it withholds ``min(cap, contacts)`` and each withheld bundle flags
    its lane out of the pool.  Requires a multi-slot horizon; with t* = 1
    there is no later slot for the ratchet to protect.  All trials run at
    once: each slot is one hypergeometric draw per trial on that trial's
    eligible pool.
    """
    if instance.t_star < 2:
        raise ValueError("ratchet analysis needs t_star >= 2")
    if len(spread_policy) < instance.t_star:
        raise ValueError(f"spread policy must cover {instance.t_star} slots")
    if any(w < 0 for w in spread_policy):
        raise ValueError("spread policy entries must be nonnegative")
    if trials < 1:
        raise ValueError("need at least one trial")

    n, m, delta, t_star = instance.n, instance.m, instance.delta, instance.t_star
    marked = cartel_lane_count(n, beta)

    # One stream per estimate, keyed [seed, 0] like the contact stream of
    # simulator.estimate_delay.  Slot one's draw does not depend on the spread
    # or on kappa, so for a given seed it is shared across both.
    rng = np.random.default_rng([seed, 0])
    pool_n = np.full(trials, n, dtype=np.int64)
    pool_cartel = np.full(trials, marked, dtype=np.int64)
    withheld = np.zeros(trials, dtype=np.int64)
    for t in range(t_star):
        if pool_n.min() < m:
            raise ValueError(
                f"eligible pool shrank below m={m}; instance too small for the spread"
            )
        a = rng.hypergeometric(pool_cartel, pool_n - pool_cartel, m)
        w = np.minimum(spread_policy[t], a)
        withheld += w
        pool_n -= w
        pool_cartel -= w
    hits = int(np.count_nonzero(withheld > delta))
    return MCEstimate.from_counts(hits, trials)


def honest_miss_delay_bound(
    schedule: ContactSchedule,
    epsilon: float,
    withheld_law: DiscreteDistribution,
) -> float:
    """Delay bound when honest lanes miss redemptions at rate ``epsilon``.

    Honest misses add an independent Bin(M, epsilon) of lost bundles on top of
    the strategic withholding law, where M is the schedule's planned contact
    total by the horizon: P[W + Bin(M, eps) > delta_rec].  Bin(M, 0) is the
    point mass at 0, so at ``epsilon == 0`` this is the law's own tail.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    if epsilon == 0.0:
        return withheld_law.tail_gt(schedule.delta_rec)
    total = schedule.total_by_horizon
    combined = withheld_law.convolve(binomial_pmf_vector(total, epsilon))
    return combined.tail_gt(schedule.delta_rec)
