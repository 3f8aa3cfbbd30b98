"""Adaptive-sender analysis: lane flagging, pool shrinkage, and delay bounds.

A sender that permanently stops contacting lanes whose tickets go unredeemed
turns every withheld bundle into a burned cartel lane, shrinking the cartel's
effective fraction slot over slot.  q_rat = P[A_1 > delta_rec] is the
first-slot deficit tail.  The sender never compensates withheld symbols, so
full withholding keeps adding to the deficit after slot one; ``sweep-ratchet``
estimates it with ``simulator.estimate_delay(..., ratchet=True)``.
"""

from __future__ import annotations

import functools

import numpy as np

from .geometry import ContactSchedule
from .probability import DiscreteDistribution, binomial_pmf_vector

__all__ = ["honest_miss_delay_bound"]


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
