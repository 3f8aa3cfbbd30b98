"""Adaptive-sender analysis: lane flagging, pool shrinkage, and delay bounds.

A sender that permanently stops contacting lanes whose tickets go unredeemed
turns every withheld bundle into a burned cartel lane.  With a multi-slot
horizon this collapses the relevant delay event to a first-slot deficit and
shrinks the cartel's effective fraction slot over slot.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

import numpy as np

from .geometry import ContactSchedule, SystemInstance, cartel_lane_count
from .probability import DiscreteDistribution, MCEstimate, binomial_pmf_vector

if TYPE_CHECKING:
    from .simulator import AdversaryPolicy

__all__ = [
    "ratchet_multi_slot_delay",
    "honest_miss_delay_bound",
]


def ratchet_multi_slot_delay(
    instance: SystemInstance,
    beta,
    policy: AdversaryPolicy,
    trials: int,
    seed: int,
) -> MCEstimate:
    """Monte-Carlo delay frequency for an adversary policy under the ratchet.

    Slot ``t`` withholds ``policy.withhold(t, contacts, W, ...)`` bundles and
    each flags its lane out of the pool.  Only cartel lanes are flagged, so a
    path's whole state is its withheld count W: slot ``t`` draws from a pool
    of a - W cartel and n - a honest lanes.  Requires a multi-slot horizon;
    with t* = 1 there is no later slot for the ratchet to protect.  All
    trials run at once, one draw per trial per slot.
    """
    if instance.t_star < 2:
        raise ValueError("ratchet analysis needs t_star >= 2")
    if trials < 1:
        raise ValueError("need at least one trial")

    n, m = instance.n, instance.m
    marked = cartel_lane_count(n, beta)

    # One stream per estimate, keyed [seed, 0] like the contact stream of
    # simulator.estimate_delay; a random policy draws from it after each
    # slot's contacts.  Slot one's draw depends on neither the policy nor
    # kappa, so for a given seed it is shared across both.
    rng = np.random.default_rng([seed, 0])
    withheld = np.zeros(trials, dtype=np.int64)
    for t in range(1, instance.t_star + 1):
        if n - withheld.max() < m:
            raise ValueError(f"eligible pool shrank below m={m}; instance too small")
        contacts = rng.hypergeometric(marked - withheld, n - marked, m)
        withheld += policy.withhold(t, contacts, withheld, instance, rng)
    hits = int(np.count_nonzero(withheld > instance.delta))
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
    point mass at 0, so at ``epsilon == 0`` this is the law's own tail; with
    the first slot's contact law that is the ratchet tail
    q_rat = P[A_1 > delta_rec].  The convolved law depends on (W, M, eps) and
    not on kappa, so it is built once and its exact suffix sums serve every
    kappa of a horizon.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must lie in [0, 1)")
    if epsilon == 0.0:
        return withheld_law.tail_gt(schedule.delta_rec)
    combined = _with_misses(
        withheld_law.offset, withheld_law.masses.tobytes(), schedule.total_by_horizon, epsilon
    )
    return combined.tail_gt(schedule.delta_rec)


@functools.lru_cache(maxsize=8)  # a sweep reads one law per horizon t*, for each of its kappas
def _with_misses(offset: int, masses: bytes, total: int, epsilon: float) -> DiscreteDistribution:
    """The law W + Bin(total, epsilon), keyed by W's value: laws are unhashable."""
    withheld_law = DiscreteDistribution(offset, np.frombuffer(masses))
    return withheld_law.convolve(binomial_pmf_vector(total, epsilon))
