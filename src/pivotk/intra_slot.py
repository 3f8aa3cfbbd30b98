"""Within-slot decode races: feasibility tails, sealing deadlines, MEV bounds.

Even under full inclusion the cartel may receive the last ``r`` bundles it
needs inside the final slot and decode before sealing.  This module bounds
that residual risk; nothing here depends on the bounty mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import SystemInstance
from .probability import DiscreteDistribution, cartel_contact_law

__all__ = [
    "RaceModel",
    "q_micro",
    "rho_bar",
    "rho_floors",
    "g_inc_upper",
    "g_inc_floor",
]


@dataclass(frozen=True)
class RaceModel:
    """Timing pipeline for a within-slot decode attempt (the config's ``race`` block).

    A bundle arriving at time ``T_arr`` is actionable only if
    ``T_arr + reaction_time <= seal_deadline``: the cartel must decode and
    propagate its action before the slot seals.  Arrivals are exponential at
    ``rate``, conditioned on landing by the deadline.
    """

    slot_duration: float = 1.0
    seal_deadline: float = 1.0
    reaction_time: float = 0.1
    rate: float = 4.0

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("rate must be positive")
        if not self.slot_duration > 0:
            raise ValueError("slot_duration must be positive")
        if not 0 < self.seal_deadline <= self.slot_duration:
            raise ValueError("seal_deadline must lie in (0, slot_duration]")
        if not self.reaction_time >= 0:
            raise ValueError("reaction_time must be nonnegative")
        if not 1.0 - math.exp(-self.rate * self.seal_deadline) > 0:
            raise ValueError(
                "rate * seal_deadline is too small: 1 - exp(-rate * seal_deadline) rounds "
                "to 0, so raise rate or seal_deadline"
            )

    @property
    def p(self) -> float:
        """Per-bundle probability of arriving early enough to act on.

        (1 - e^(-rate c)) / (1 - e^(-rate d)) for the cutoff c = d - reaction
        time before the deadline d; 0 when the reaction time uses up the window.
        Both differences are taken with ``expm1``, which keeps their digits
        when rate * d is small.
        """
        cutoff = self.seal_deadline - self.reaction_time
        if cutoff <= 0:
            return 0.0
        total = math.expm1(-self.rate * self.seal_deadline)
        return min(math.expm1(-self.rate * cutoff) / total, 1.0)


def q_micro(instance: SystemInstance, beta) -> float:
    """Feasibility tail of the within-slot race under full inclusion.

    The cartel needs all of the last ``r = m - delta`` bundles of the final
    slot to land on its lanes: P[A >= r] for one slot's contact draw.
    """
    law = cartel_contact_law(instance.n, beta, instance.m)
    return DiscreteDistribution.from_law(law).tail_ge(instance.r)


# Each received bundle independently beats the sealing deadline with
# probability p = race.p.  Both race figures are closed forms in p, computed on
# its exact ratio P/Q and rounded once by CPython's int / int.


def rho_bar(m: int, race: RaceModel) -> float:
    """1 - (1 - p)^m: P[at least one of m cartel bundles is actionable].

    P[Bin(a, p) >= r] grows with a and shrinks with r, so this is its sup
    over the feasible cells 1 <= r <= a <= m.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    num, den = race.p.as_integer_ratio()
    return (den**m - (den - num) ** m) / den**m


def rho_floors(r_max: int, race: RaceModel) -> tuple[float, ...]:
    """p^r for r = 0..r_max: P[all r of r cartel bundles are actionable].

    One pass multiplies the exact powers up, so each r costs one big-integer
    step rather than a fresh power.
    """
    if r_max < 0:
        raise ValueError("r_max must be nonnegative")
    num, den = race.p.as_integer_ratio()
    out, top, bottom = [1.0], 1, 1
    for _ in range(r_max):
        top, bottom = top * num, bottom * den
        out.append(top / bottom)
    return tuple(out)


def g_inc_upper(instance: SystemInstance, tail: float, rho_bar: float, gamma: float) -> float:
    """Bound the within-slot MEV weight by feasibility times conditional success.

    rho_bar * gamma^(t*-1) * tail, with ``tail`` the race's feasibility tail
    P[A >= r], the figure :func:`q_micro` computes.
    """
    for name, v in (("rho_bar", rho_bar), ("tail", tail)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    return rho_bar * gamma ** (instance.t_star - 1) * tail


def g_inc_floor(
    instance: SystemInstance, rho_floor: float, p_visibility: float, gamma: float
) -> float:
    """Floor on the within-slot MEV weight that no settlement rule removes.

    ``p_visibility`` is P[V >= r] for the caller's pre-seal visibility model;
    by default callers use V equal to the final slot's cartel contact count.
    """
    for name, v in (("rho_floor", rho_floor), ("p_visibility", p_visibility)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1]")
    return gamma ** (instance.t_star - 1) * rho_floor * p_visibility
