"""Closed-form incentive quantities: shares, IC thresholds, coalition bounds.

Sign conventions: margins are reported as computed, including negative ones.
Infeasibility is a finding, not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from .geometry import SystemInstance, cartel_share, check_keys, json_field
from .probability import cartel_contact_law, shortfall_tails

__all__ = [
    "EconParams",
    "pi_share",
    "ICCheck",
    "ic_stationary_check",
    "ic_stationary_profile",
    "KnifeEdgeThreshold",
    "knife_edge_bounty_threshold",
    "coalition_sufficient_bounty",
    "coalition_loss_floor",
    "equal_share",
    "phi_threshold",
    "sender_ir_bound",
    "InclusionTimeLaw",
    "distribution_of_T0",
    "bounty_proxies",
]


# Each mode's econ keys, in the order to_config writes them.  A block holds its
# mode's keys and none of the other mode's.  Byte sizes are JSON integers,
# every other key a number.
_ECON_KEYS = {
    "normalized": ("fee", "alpha_v", "alpha", "gamma", "bounty", "bundle_price"),
    "bytes": (
        "header_bytes", "metadata_bytes", "symbol_bytes", "per_byte_price", "proposer_share",
        "alpha", "value", "gamma", "bounty",
    ),
}
# Every key once, in the order of EconParams' fields after ``mode``, with its
# JSON kind and its name in messages.
_ECON_FIELDS = tuple(
    (key, int if key.endswith("_bytes") else float, f"econ.{key}")
    for key in dict.fromkeys(_ECON_KEYS["normalized"] + _ECON_KEYS["bytes"])
)
# Per mode: what its messages call the other mode's keys, and those keys.
_EXCLUDED = {
    mode: (label, [key for key in _ECON_KEYS[other] if key not in _ECON_KEYS[mode]])
    for mode, other, label in (
        ("normalized", "bytes", "byte-model"),
        ("bytes", "normalized", "normalized-mode"),
    )
}
# What an econ block may hold; the other mode's keys fail in __post_init__.
_ECON_ACCEPTED = ("mode", *(key for key, _, _ in _ECON_FIELDS))
_NONNEGATIVE = {
    "fee", "bundle_price", "bounty", "header_bytes", "metadata_bytes", "symbol_bytes",
    "per_byte_price",
}


@dataclass(frozen=True, slots=True)
class EconParams:
    """Fee, bounty, and discount economics for one transaction.

    Two modes, each with its keys in ``_ECON_KEYS`` and none of the
    other's.  The byte model derives the per-bundle price from sizes,
    ``bundle_price_at(s) = per_byte_price * (header_bytes + s *
    (metadata_bytes + symbol_bytes))``, and the proposer keeps the share
    ``proposer_share`` of it.  The normalized mode fixes the proposer fee per
    included bundle directly (the tables' unit-fee convention), gives the MEV
    at risk as ``alpha_v`` and carries an explicit ``bundle_price`` for
    fee-share questions.  Each attribute holds its config key's value as
    given; the other mode's attributes are None.
    """

    mode: str
    fee: float | None = None
    alpha_v: float | None = None
    alpha: float | None = None
    gamma: float | None = None
    bounty: float | None = None
    bundle_price: float | None = None
    header_bytes: int | None = None
    metadata_bytes: int | None = None
    symbol_bytes: int | None = None
    per_byte_price: float | None = None
    proposer_share: float | None = None
    value: float | None = None

    def __post_init__(self) -> None:
        """Every check of an econ block; each comparison fails on NaN."""
        keys = _ECON_KEYS.get(self.mode) if isinstance(self.mode, str) else None
        if keys is None:
            raise ValueError(f"econ.mode must be 'normalized' or 'bytes', got {self.mode!r}")
        for key in keys:
            x = getattr(self, key)
            if x is None:
                raise TypeError(f"missing field {key!r}")
            if key in _NONNEGATIVE and not x >= 0:
                raise ValueError(f"econ.{key} must be nonnegative")
        label, excluded = _EXCLUDED[self.mode]
        for key in excluded:
            if getattr(self, key) is not None:
                raise ValueError(f"econ: {self.mode} mode excludes {label} field {key!r}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("econ.gamma must lie in (0, 1)")
        if self.mode == "normalized":
            if not 0.0 < self.alpha <= 1.0:
                raise ValueError("econ.alpha must lie in (0, 1] to recover v from alpha_v")
            if not self.alpha_v > 0:
                raise ValueError("econ.alpha_v must be positive")
            if not math.isfinite(self.alpha_v / self.alpha):
                raise ValueError(
                    f"econ.alpha_v / econ.alpha, the transaction value, must be finite; "
                    f"got {self.alpha_v!r} / {self.alpha!r}"
                )
        else:
            if not 0.0 <= self.alpha <= 1.0:
                raise ValueError("econ.alpha must lie in [0, 1]")
            if not self.value > 0:
                raise ValueError("econ.value must be positive")
            if not 0.0 <= self.proposer_share <= 1.0:
                raise ValueError("econ.proposer_share must lie in [0, 1]")

    @classmethod
    def normalized(
        cls,
        fee: float,
        alpha_v: float,
        gamma: float,
        bounty: float = 0.0,
        alpha: float = 1.0,
        bundle_price: float | None = None,
    ) -> "EconParams":
        """Unit-fee economics: proposer fee set directly, MEV given as alpha*v."""
        return cls(
            mode="normalized",
            fee=fee,
            alpha_v=alpha_v,
            alpha=alpha,
            gamma=gamma,
            bounty=bounty,
            bundle_price=fee if bundle_price is None else bundle_price,
        )

    @property
    def mev_exposure(self) -> float:
        """alpha * v, the value at risk from an early decode."""
        if self.mode == "normalized":
            return self.alpha_v
        return self.alpha * self.value

    @property
    def mev_exposure_keys(self) -> str:
        """The config keys ``mev_exposure`` is read from, as messages name them."""
        return "econ.alpha_v" if self.mode == "normalized" else "econ.alpha * econ.value"

    @property
    def transaction_value(self) -> float:
        """v, the transaction's value; alpha_v / alpha in normalized mode."""
        if self.mode == "normalized":
            return self.alpha_v / self.alpha
        return self.value

    def bundle_bytes(self, s: int) -> int | None:
        if self.mode == "normalized":
            return None
        return self.header_bytes + s * (self.metadata_bytes + self.symbol_bytes)

    def bundle_price_at(self, s: int) -> float:
        """The price of one bundle of ``s`` symbols; ValueError if it is not finite."""
        if self.mode == "normalized":
            return self.bundle_price
        try:
            price = self.per_byte_price * self.bundle_bytes(s)
        except OverflowError:  # a byte count beyond the float range
            price = math.inf
        if not math.isfinite(price):
            raise ValueError(
                f"econ: the bundle price econ.per_byte_price * (econ.header_bytes + "
                f"s * (econ.metadata_bytes + econ.symbol_bytes)) must be finite at s={s}"
            )
        return price

    def proposer_fee(self, s: int) -> float:
        if self.mode == "normalized":
            return self.fee
        return self.proposer_share * self.bundle_price_at(s)

    def to_config(self) -> dict:
        return {"mode": self.mode, **{key: getattr(self, key) for key in _ECON_KEYS[self.mode]}}

    @classmethod
    def from_config(cls, obj: dict[str, Any]) -> "EconParams":
        """Parse an econ block, the schema :meth:`to_config` writes.

        The one parser for config files and replayed trace lines; it fills no
        default.  A missing ``mode`` raises KeyError, a missing field of the
        mode TypeError, and a malformed or out-of-range one ValueError.
        """
        if not isinstance(obj, dict):
            raise TypeError(f"econ must be an object, got {type(obj).__name__}")
        check_keys(obj, _ECON_ACCEPTED, "econ")
        return cls(
            obj["mode"],
            *[
                json_field(obj[key], name, kind=kind) if key in obj else None
                for key, kind, name in _ECON_FIELDS
            ],
        )


def pi_share(w: float, beta: float) -> float:
    """Cartel's long-run share of included bundles at inclusion rate w.

    Bernoulli-thinning benchmark: each cartel bundle is included with
    probability w, honest bundles always, giving w*beta / (1 - beta + w*beta).
    """
    if not 0.0 <= w <= 1.0:
        raise ValueError("w must lie in [0, 1]")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    return w * beta / (1.0 - beta + w * beta)


@dataclass(frozen=True)
class ICCheck:
    """One point of the stationary sufficient condition for full inclusion."""

    w: float
    lhs: float  # forfeited bounty share gap times B
    rhs: float  # MEV option at this w
    margin: float

    @property
    def satisfied(self) -> bool:
        return self.margin >= 0.0


def ic_stationary_check(
    instance: SystemInstance, beta, econ: EconParams, w: float, q_w: float
) -> ICCheck:
    """Check (beta - pi(w) - m/kappa) * B >= alpha*v * q_w at one inclusion rate.

    The fee gap is dropped, so this is conservative; a negative margin means
    the bounty alone does not cover the delay option at this w.
    """
    if not 0.0 <= w < 1.0:
        raise ValueError("the check compares full inclusion against w < 1")
    bf = cartel_share(instance.n, beta)
    share = pi_share(w, bf) if w > 0 else 0.0
    lhs = (bf - share - instance.m / instance.kappa) * econ.bounty
    rhs = econ.mev_exposure * q_w
    return ICCheck(w=w, lhs=lhs, rhs=rhs, margin=lhs - rhs)


def ic_stationary_profile(
    instance: SystemInstance,
    beta,
    econ: EconParams,
    q_of_w: Callable[[float], float],
    grid_points: int = 101,
) -> tuple[list[ICCheck], ICCheck]:
    """Sweep the stationary IC condition over a w grid; the worst margin rules.

    The condition quantifies over every w in [0, 1); no closed-form minimizer
    exists, so it is evaluated pointwise on ``grid_points`` equispaced rates.
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    checks = []
    for i in range(grid_points):
        w = i / grid_points  # covers [0, 1), endpoint excluded
        checks.append(ic_stationary_check(instance, beta, econ, w, q_of_w(w)))
    worst = min(checks, key=lambda c: c.margin)
    return checks, worst


@dataclass(frozen=True)
class KnifeEdgeThreshold:
    """Bounty threshold for zero-slack instances, with its revenue decomposition.

    At the threshold the three deterrence terms exactly offset the MEV
    option.  ``net_fee_sacrifice`` can be negative when the extra slot's fee
    windfall exceeds the withheld bundle's fee.
    """

    bounty_min: float
    net_fee_sacrifice: float
    bounty_discount_loss: float
    lost_pivotal_share: float
    mev_option: float


def knife_edge_bounty_threshold(
    instance: SystemInstance, beta, econ: EconParams, q0: float
) -> KnifeEdgeThreshold:
    """Minimum bounty deterring the one-bundle deviation at zero slack.

    B >= q0 (alpha*v - f/gamma + beta*m*f) /
         ((1-gamma)*beta + gamma*(1-beta)*q0/kappa)

    A nonpositive numerator means fees alone already deter; the threshold is
    then reported as computed (nonpositive), never clamped.
    """
    if instance.delta != 0:
        raise ValueError("threshold applies only to zero-slack instances")
    bf = cartel_share(instance.n, beta)
    g = econ.gamma
    f = econ.proposer_fee(instance.s)
    kappa, t_star, m = instance.kappa, instance.t_star, instance.m

    denom = (1.0 - g) * bf + g * (1.0 - bf) * q0 / kappa
    if denom <= 0.0:
        raise ValueError("degenerate economics: threshold denominator is zero")
    b_min = q0 * (econ.mev_exposure - f / g + bf * m * f) / denom

    return KnifeEdgeThreshold(
        bounty_min=b_min,
        net_fee_sacrifice=q0 * (g ** (t_star - 1) * f - g**t_star * bf * m * f),
        bounty_discount_loss=g**t_star * (1.0 - g) * bf * b_min,
        lost_pivotal_share=g ** (t_star + 1) * (1.0 - bf) * q0 / kappa * b_min,
        mev_option=econ.mev_exposure * g**t_star * q0,
    )


def coalition_sufficient_bounty(
    instance: SystemInstance, econ: EconParams
) -> float | None:
    """Bounty making every delay-inducing coalition run at an aggregate loss.

    kappa * max(0, alpha*v*gamma^t* - (delta+1)*f) for positive slack.  At
    zero slack the attack is unilateral and the decomposition does not apply;
    returns None.
    """
    if instance.delta == 0:
        return None
    f = econ.proposer_fee(instance.s)
    shortfall = econ.mev_exposure * econ.gamma**instance.t_star - (instance.delta + 1) * f
    return instance.kappa * max(0.0, shortfall)


def coalition_loss_floor(c: int, instance: SystemInstance, econ: EconParams) -> float:
    """Minimum direct revenue a coalition burns by withholding c bundles.

    c*f in fees, plus B/kappa for each of the (c - delta)+ deletions that
    necessarily land inside the pivotal prefix.
    """
    if c < 0:
        raise ValueError("withheld count must be nonnegative")
    f = econ.proposer_fee(instance.s)
    pivotal_hits = max(0, c - instance.delta)
    return c * f + pivotal_hits * econ.bounty / instance.kappa


def equal_share(econ: EconParams, instance: SystemInstance) -> float:
    """Per-member MEV under even splitting across the minimal coalition.

    alpha*v*gamma^t* / (delta+1): the discounted MEV pie divided by the
    minimum number of withheld bundles any successful delay needs.
    """
    return econ.mev_exposure * econ.gamma**instance.t_star / (instance.delta + 1)


def phi_threshold(
    instance: SystemInstance, beta, econ: EconParams, q0: float
) -> float:
    """Proposer fee share above which fees alone deter full withholding.

    phi* = alpha*v*gamma^t* * q0 * (1-gamma) / (c*L(s)*beta*m*(1-gamma^t*)).
    Values above 1 mean no feasible share suffices and a bounty is required.
    """
    bf = cartel_share(instance.n, beta)
    price = econ.bundle_price_at(instance.s)
    if price <= 0 or bf <= 0:
        raise ValueError("need positive bundle price and cartel fraction")
    g = econ.gamma
    numer = econ.mev_exposure * g**instance.t_star * q0 * (1.0 - g)
    denom = price * bf * instance.m * (1.0 - g**instance.t_star)
    return numer / denom


def sender_ir_bound(
    instance: SystemInstance,
    econ: EconParams,
    q0: float,
    expected_discount_T0: float,
) -> float:
    """Largest bounty a rational sender would post, worst-case cartel response.

    v*(gamma^t* - E[gamma^T(0)]) + alpha*v*gamma^t* * q0: the delay cost plus
    the MEV loss that full inclusion eliminates, both priced against full
    withholding.
    """
    g_star = econ.gamma**instance.t_star
    return (
        econ.transaction_value * (g_star - expected_discount_T0)
        + econ.mev_exposure * g_star * q0
    )


@dataclass(frozen=True)
class InclusionTimeLaw:
    """Law of the inclusion slot T under full withholding, as tails up to a cap.

    ``tails[i]`` is P[T > t_star + i] for t_star + i = t*..cap; T >= t*
    surely, and ``residual_mass`` = P[T > cap] is below 1e-12.
    """

    t_star: int
    tails: tuple[float, ...]

    @property
    def residual_mass(self) -> float:
        return self.tails[-1]

    def delay_probability(self) -> float:
        """P[T > t*], the full-withholding delay probability ``exact_q0``."""
        return self.tails[0]

    def expected_discount(self, gamma: float) -> float:
        """E[gamma^T] over T <= cap, as the sum of gamma^t P[T = t].

        P[T = t] = P[T > t-1] - P[T > t], with P[T > t* - 1] = 1; the residual
        adds below 1e-12 * gamma^cap.
        """
        pmf = [above - tail for above, tail in zip((1.0, *self.tails), self.tails)]
        return math.fsum(gamma ** (self.t_star + i) * p for i, p in enumerate(pmf))


def distribution_of_T0(instance: SystemInstance, beta) -> InclusionTimeLaw:
    """Exact inclusion-time law under full withholding, from the contact-sum tails.

    Only honest contacts accumulate on-chain, so T > t exactly when the
    cartel's cumulative contacts exceed the rest: P[T > t] = P[S_t > t m - kappa],
    read by :func:`shortfall_tails` from the sums ``contact_sums`` builds, and
    at t* that is ``exact_q0``.  The tail is tested at the caps
    max(t*+8, 2t*), 2x that, 4x that, ..., and the law ends at the first cap
    whose tail is below 1e-12.
    """
    law = cartel_contact_law(instance.n, beta, instance.m)
    t_star = instance.t_star
    tails: list[float] = []
    cap = max(t_star + 8, 2 * t_star)
    for t, tail in enumerate(shortfall_tails(law, instance.kappa, t_star), t_star):
        tails.append(tail)
        if t == cap:
            if tail < 1e-12:
                break
            # Every drawn lane is the cartel's, so no honest bundle ever
            # arrives and every tail is 1.
            if cap > 65536 * t_star or law.support_min == instance.m:
                raise ValueError("inclusion-time law does not concentrate; check parameters")
            cap *= 2
    return InclusionTimeLaw(t_star=t_star, tails=tuple(tails))


def bounty_proxies(
    instance: SystemInstance, beta, econ: EconParams, q0: float, q_rat: float
) -> tuple[float, float]:
    """Monolithic bounty proxies (alpha*v/beta) * q for static and ratchet delays.

    Conservative expected-value pricing that ignores fees and discounting.
    """
    bf = cartel_share(instance.n, beta)
    if bf <= 0:
        raise ValueError("need a positive cartel fraction")
    scale = econ.mev_exposure / bf
    return scale * q0, scale * q_rat
