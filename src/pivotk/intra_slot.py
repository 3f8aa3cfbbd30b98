"""Within-slot decode races: feasibility tails, sealing deadlines, MEV bounds.

Even under full inclusion the cartel may receive the last ``r`` bundles it
needs inside the final slot and decode before sealing.  This module bounds
that residual risk; nothing here depends on the bounty mechanism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .geometry import SystemInstance, cartel_lane_count
from .probability import (
    binomial_tail_ge,
    cartel_contact_law,
    hypergeom_tail_ge,
    kl_divergence,
    log_comb,
)

__all__ = [
    "RaceModel",
    "q_micro",
    "rho_deadline",
    "worst_case_rho",
    "g_inc_upper",
    "g_inc_floor",
    "WithinSlotUpper",
]


@dataclass(frozen=True)
class RaceModel:
    """Timing pipeline for a within-slot decode attempt.

    A bundle arriving at time ``T_arr`` is actionable only if
    ``T_arr + reaction_time <= seal_deadline``: the cartel must decode and
    propagate its action before the slot seals.  ``arrival_cdf`` maps a time in
    ``[0, seal_deadline]`` to the probability a bundle has arrived by then.
    """

    slot_duration: float
    seal_deadline: float
    reaction_time: float
    arrival_cdf: Callable[[float], float]

    def __post_init__(self) -> None:
        if self.slot_duration <= 0:
            raise ValueError("slot_duration must be positive")
        if not 0 < self.seal_deadline <= self.slot_duration:
            raise ValueError("seal_deadline must lie in (0, slot_duration]")
        if self.reaction_time < 0:
            raise ValueError("reaction_time must be nonnegative")

    @property
    def p(self) -> float:
        """Per-bundle probability of arriving early enough to act on."""
        cutoff = self.seal_deadline - self.reaction_time
        if cutoff <= 0:
            return 0.0
        val = float(self.arrival_cdf(cutoff))
        if not 0.0 <= val <= 1.0 + 1e-12:
            raise ValueError(f"arrival CDF returned {val} outside [0, 1]")
        return min(val, 1.0)

    @classmethod
    def exponential(
        cls,
        slot_duration: float,
        seal_deadline: float,
        reaction_time: float,
        rate: float,
        renormalize: bool = True,
    ) -> "RaceModel":
        """Exponential arrivals truncated to the sealing window.

        With ``renormalize=True`` the CDF is conditioned on arrival within the
        window (mass 1 at the deadline); with ``renormalize=False`` the raw
        ``1 - exp(-rate*t)`` is used and late bundles simply never count.
        """
        if rate <= 0:
            raise ValueError("rate must be positive")
        total = 1.0 - math.exp(-rate * seal_deadline)

        def cdf(t: float) -> float:
            t = min(max(t, 0.0), seal_deadline)
            raw = 1.0 - math.exp(-rate * t)
            return raw / total if renormalize else raw

        return cls(slot_duration, seal_deadline, reaction_time, cdf)

    @classmethod
    def piecewise_linear(
        cls,
        slot_duration: float,
        seal_deadline: float,
        reaction_time: float,
        knots: list[tuple[float, float]],
    ) -> "RaceModel":
        """User-supplied CDF as (time, probability) knots, linearly interpolated."""
        pts = sorted(knots)
        if not pts:
            raise ValueError("need at least one knot")
        if any(p1 > p2 for (_, p1), (_, p2) in zip(pts, pts[1:])):
            raise ValueError("CDF knots must be nondecreasing in probability")

        def cdf(t: float) -> float:
            if t <= pts[0][0]:
                return pts[0][1] if t == pts[0][0] else 0.0
            for (t1, p1), (t2, p2) in zip(pts, pts[1:]):
                if t <= t2:
                    if t2 == t1:
                        return p2
                    return p1 + (p2 - p1) * (t - t1) / (t2 - t1)
            return pts[-1][1]

        return cls(slot_duration, seal_deadline, reaction_time, cdf)


def q_micro(instance: SystemInstance, beta) -> float:
    """Feasibility tail of the within-slot race under full inclusion.

    The cartel needs all of the last ``r = m - delta`` bundles of the final
    slot to land on its lanes: P[A >= r] for one slot's contact draw.
    """
    law = cartel_contact_law(instance.n, beta, instance.m)
    return hypergeom_tail_ge(law, instance.r)


def rho_deadline(a: int, r: int, race: RaceModel) -> float:
    """P[the r-th of a cartel bundles is actionable before sealing].

    Each of the ``a`` received bundles independently beats the deadline with
    probability ``race.p``; success needs at least ``r`` of them to.
    """
    if a < 0:
        raise ValueError("a must be nonnegative")
    if r < 1:
        raise ValueError("r must be at least 1")
    return binomial_tail_ge(a, race.p, r)


def worst_case_rho(race: RaceModel, m: int) -> tuple[float, int, int]:
    """Supremum of the race success probability over the feasible grid.

    Scans a in [r, m], r in [1, m] and returns (value, a, r).  For monotone
    arrival models the supremum sits at (a=m, r=1); the grid scan also covers
    non-monotone user-supplied CDFs, for which the reported value is a
    discrete-grid supremum only.
    """
    best = (0.0, m, 1)
    for r in range(1, m + 1):
        for a in range(r, m + 1):
            v = rho_deadline(a, r, race)
            if v > best[0]:
                best = (v, a, r)
    return best


@dataclass(frozen=True)
class WithinSlotUpper:
    """Upper bound on the discounted within-slot MEV weight.

    ``value`` is rho_bar * gamma^(t*-1) * P[A >= r].  ``kl_alternative`` is the
    closed-form exponent bound exp(-m D(r/m || beta)) when r/m > beta, and
    ``knife_edge_exact``/``knife_edge_beta_power`` give the exact full-hit
    probability and its beta^m cap when the slack is zero.
    """

    value: float
    feasibility_tail: float
    kl_alternative: float | None
    knife_edge_exact: float | None
    knife_edge_beta_power: float | None


def g_inc_upper(
    instance: SystemInstance, beta, rho_bar: float, gamma: float
) -> WithinSlotUpper:
    """Bound the within-slot MEV weight by feasibility times conditional success."""
    if not 0.0 <= rho_bar <= 1.0:
        raise ValueError("rho_bar must lie in [0, 1]")
    marked = cartel_lane_count(instance.n, beta)
    tail = q_micro(instance, beta)
    value = rho_bar * gamma ** (instance.t_star - 1) * tail

    beta_frac = marked / instance.n
    ratio = instance.r / instance.m
    kl_alt = None
    if 0.0 < beta_frac < 1.0 and ratio > beta_frac:
        kl_alt = math.exp(-instance.m * kl_divergence(ratio, beta_frac))

    knife_exact = knife_power = None
    if instance.knife_edge:
        lc = log_comb(marked, instance.m) - log_comb(instance.n, instance.m)
        knife_exact = math.exp(lc) if lc != float("-inf") else 0.0
        knife_power = beta_frac**instance.m

    return WithinSlotUpper(value, tail, kl_alt, knife_exact, knife_power)


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
