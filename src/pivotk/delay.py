"""Delay probabilities for static-sender withholding policies.

The delay event is a bundle deficit: inclusion slips past the honest horizon
exactly when withheld bundles exceed the slack.  Full withholding is the
worst case over all dynamic policies, so its exact law anchors everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .geometry import SystemInstance, cartel_share
from .probability import cartel_contact_law, chernoff_tail_bound, contact_sums

__all__ = [
    "DelayRegime",
    "DelayReport",
    "kl_delay_bound",
    "exact_q0",
    "knife_edge_q0",
    "fluid_delay_report",
    "SweepRow",
    "sawtooth_sweep",
]


def exact_q0(instance: SystemInstance, beta) -> float:
    """P[delay] under full withholding: the cumulative contact law past the slack.

    Computed from the exact convolution of t* single-slot draws, then a strict
    tail at the slack: P[S > delta].
    """
    law = cartel_contact_law(instance.n, beta, instance.m)
    return contact_sums(law, instance.t_star)[-1].tail_gt(instance.delta)


def knife_edge_q0(instance: SystemInstance, beta) -> float:
    """Closed form at zero slack: one cartel contact anywhere forces delay.

    1 - P[A = 0]^t*, with P[A = 0] = C(n - a, m) / C(n, m) the no-contact
    probability of a single slot, evaluated on exact integers and rounded
    once.  Only valid on knife-edge instances; must agree with exact_q0.
    """
    if instance.delta != 0:
        raise ValueError("closed form applies only when the slack is zero")
    law = cartel_contact_law(instance.n, beta, instance.m)
    total = math.comb(law.population, law.draws) ** instance.t_star
    none = math.comb(law.population - law.successes, law.draws) ** instance.t_star
    return (total - none) / total


class DelayRegime(Enum):
    """Where the required interception density sits relative to the cartel share."""

    DELAY_RARE = "delay_rare"  # theta_w > beta: delay needs an upper-tail excursion
    DELAY_LIKELY = "delay_likely"  # theta_w < beta: staying on time is the excursion
    IMPOSSIBLE = "impossible"  # theta_w >= 1: not enough bundle mass to intercept
    DEGENERATE = "degenerate"  # theta_w == beta: no one-sided exponent applies


@dataclass(frozen=True)
class DelayReport:
    """Exact delay probability with its large-deviation bound and regime.

    In DELAY_RARE the bound caps the delay probability itself; in
    DELAY_LIKELY it caps the complement.  Degenerate and impossible regimes
    carry no bound.
    """

    exact_probability: float
    kl_bound: float | None
    regime: DelayRegime
    theta_w: float


def kl_delay_bound(
    t_star: int, m: int, theta: float, beta_frac: float
) -> tuple[DelayRegime, float | None]:
    """The regime of delay density ``theta`` against the cartel share, and its KL bound.

    exp(-t* m D(theta || beta_frac)) caps the delay probability in DELAY_RARE
    (theta above the share) and the on-time probability in DELAY_LIKELY
    (theta below it).  DEGENERATE, with no bound, when the share is 0 or 1 or
    theta equals it.
    """
    if not 0.0 < beta_frac < 1.0 or theta == beta_frac:
        return DelayRegime.DEGENERATE, None
    regime = DelayRegime.DELAY_RARE if theta > beta_frac else DelayRegime.DELAY_LIKELY
    return regime, chernoff_tail_bound(t_star, m, theta, beta_frac)


def fluid_delay_report(instance: SystemInstance, beta, w: float) -> DelayReport:
    """Delay report for the fluid approximation of partial withholding.

    Under inclusion rate ``w`` the withheld mass is (1-w) of the cartel's
    contacts, so delay means S > delta/(1-w).  This is not the binomial
    thinning of ``StationaryW(w)``, which includes each bundle independently.
    The threshold comparison is done in exact rational arithmetic; the strict
    event never depends on a float rounding at the boundary.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError("w must lie in [0, 1); w = 1 never delays")
    law = cartel_contact_law(instance.n, beta, instance.m)
    beta_frac = cartel_share(instance.n, beta)
    tm = instance.t_star * instance.m

    one_minus_w = Fraction(1) - Fraction.from_float(float(w))
    threshold = Fraction(instance.delta) / one_minus_w  # delay iff S > threshold
    theta_w = float(threshold / tm)

    if threshold >= tm:
        return DelayReport(0.0, None, DelayRegime.IMPOSSIBLE, theta_w)

    exact = contact_sums(law, instance.t_star)[-1].tail_ge(math.floor(threshold) + 1)
    regime, bound = kl_delay_bound(instance.t_star, instance.m, theta_w, beta_frac)
    return DelayReport(exact, bound, regime, theta_w)


@dataclass(frozen=True)
class SweepRow:
    kappa: int
    t_star: int
    delta: int
    q0: float
    q_rat: float
    q_micro: float
    knife_edge: bool


def sawtooth_sweep(
    n: int, m: int, beta, kappa_range: Iterable[int]
) -> list[SweepRow]:
    """Per-threshold delay panorama: exact q0, first-slot ratchet tail, race tail.

    One row per distinct decode threshold, ordered by kappa.  The t-slot
    contact sums are built once, up to the largest horizon in the range; the
    ratchet tail P[S_1 > delta] and the race tail P[S_1 >= r] read the first.
    Knife edges (m | kappa) are flagged; there the ratchet tail coincides with
    the single-contact event and the race tail collapses to the all-cartel draw.
    """
    kappas = sorted(set(int(k) for k in kappa_range))
    if not kappas:
        raise ValueError("kappa range is empty")
    instances = [SystemInstance.from_kappa(n, m, kappa) for kappa in kappas]
    law = cartel_contact_law(n, beta, m)
    sums = contact_sums(law, max(inst.t_star for inst in instances))
    return [
        SweepRow(
            kappa=inst.kappa,
            t_star=inst.t_star,
            delta=inst.delta,
            q0=sums[inst.t_star - 1].tail_gt(inst.delta),
            q_rat=sums[0].tail_gt(inst.delta),
            q_micro=sums[0].tail_ge(inst.r),
            knife_edge=inst.knife_edge,
        )
        for inst in instances
    ]
