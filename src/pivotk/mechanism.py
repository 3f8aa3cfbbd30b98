"""Pivotal-bundle bounty rule: allocations and rank weights.

The bounty budget is split over the first kappa included bundles in
resolution order, ``(slot, lane)`` ascending, which is the order the
simulator writes a trace's rows in and the order a replayed trace's rows are
checked to have.  Later bundles are redundant for decoding and earn nothing.
Payments are exact rationals so that the budget conservation invariant holds
to the last bit.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from functools import cached_property
from typing import Literal, Sequence

__all__ = [
    "Owner",
    "DecodeNotReached",
    "PivotalAllocation",
    "pivotal_allocation",
    "WeightRule",
    "removal_floor",
    "MinimaxReport",
    "minimax_certificate",
    "cartel_prefix_count",
]

Owner = Literal["honest", "cartel"]


class DecodeNotReached(Exception):
    """Raised when fewer bundles than the decode threshold were included."""


@dataclass(frozen=True)
class PivotalAllocation:
    """Payments over the decoding prefix.

    ``owners`` are the first kappa included bundles' owners in resolution
    order.  Each of the first kappa-1 carries s fresh symbol indices and earns
    ``full``; the final bundle contributes only the r_idx indices still
    missing and earns ``last``, pro rata.  Payments sum to exactly the budget.
    """

    owners: tuple[Owner, ...]
    r_idx: int
    full: Fraction
    last: Fraction
    budget: Fraction

    @property
    def kappa(self) -> int:
        return len(self.owners)

    @property
    def payments(self) -> tuple[Fraction, ...]:
        """The payment of each rank, 1 to kappa."""
        return (self.full,) * (self.kappa - 1) + (self.last,)

    @property
    def total_paid(self) -> Fraction:
        return self.full * (self.kappa - 1) + self.last

    def paid_to(self, owner: Owner) -> Fraction:
        share = self.owners[:-1].count(owner) * self.full
        return share + self.last if self.owners[-1] == owner else share


def pivotal_allocation(owners: Sequence[Owner], K: int, s: int, B) -> PivotalAllocation:
    """Split budget ``B`` over the decoding prefix of an inclusion list.

    ``owners`` lists the included bundles' owners in resolution order.  Each
    symbol index in the first K pays B/K; a full bundle therefore earns
    s*B/K and the final, possibly partial, bundle earns r_idx*B/K.  Raises
    :class:`DecodeNotReached` when the list is shorter than the bundle
    threshold.
    """
    if K < 1 or s < 1:
        raise ValueError("K and s must be positive")
    kappa = -(-K // s)
    r_idx = K - (kappa - 1) * s
    if len(owners) < kappa:
        raise DecodeNotReached(f"decode needs {kappa} bundles, only {len(owners)} included")
    budget = Fraction(B)
    per_index = budget / K
    return PivotalAllocation(tuple(owners[:kappa]), r_idx, per_index * s, per_index * r_idx, budget)


class WeightRule:
    """A budget-capped rank-based payment rule over the pivotal prefix.

    ``weights[j]`` is the budget fraction paid to the bundle of rank j+1;
    weights are nonnegative rationals summing to one.  A rule is held as
    integers, its numerators in rank order over one common scale.
    :meth:`from_weights` builds that form directly, and ``weights`` is derived
    from it when first read; a rule given ``weights`` derives the integers
    from them instead.  Rules are immutable and compare, hash and print by
    ``weights``.
    """

    def __init__(self, weights: tuple[Fraction, ...]) -> None:
        object.__setattr__(self, "weights", tuple(weights))
        self._check()

    def _check(self) -> None:
        scale, nums = self._ints
        if not nums:
            raise ValueError("need at least one rank")
        if min(nums) < 0:
            raise ValueError("weights must be nonnegative")
        if sum(nums) != scale:
            raise ValueError(f"weights sum to {sum(self.weights)}, not 1")

    @cached_property
    def weights(self) -> tuple[Fraction, ...]:
        scale, nums = self._ints
        return tuple(Fraction(num, scale) for num in nums)

    @cached_property
    def _ints(self) -> tuple[int, tuple[int, ...]]:
        """``(L, nums)``: L is the weights' least common denominator and nums
        their numerators over L, in rank order.

        Computed on first use unless :meth:`from_weights` stored it, so a rule
        built without ``__init__`` is still checked against its actual weights.
        """
        ratios = [w.as_integer_ratio() for w in self.weights]
        scale = math.lcm(*(den for _, den in ratios))
        return scale, tuple(num * (scale // den) for num, den in ratios)

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(L, nums)`` as in ``_ints`` with nums sorted ascending."""
        scale, nums = self._ints
        return scale, tuple(sorted(nums))

    @property
    def kappa(self) -> int:
        return len(self._ints[1])

    @property
    def is_uniform(self) -> bool:
        scale, nums = self._scaled
        return nums[0] * self.kappa == scale == nums[-1] * self.kappa

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.weights,))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(weights={self.weights!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @classmethod
    def uniform(cls, kappa: int) -> "WeightRule":
        return cls(tuple(Fraction(1, kappa) for _ in range(kappa)))

    @classmethod
    def from_weights(cls, raw: Sequence) -> "WeightRule":
        ws = list(raw)
        # Anything but all-int weights (floats, Fractions, numpy scalars) is
        # brought to integers over the common denominator of its Fractions.
        if not all(isinstance(w, int) for w in ws):
            fracs = [Fraction(w) for w in ws]
            den = math.lcm(*(f.denominator for f in fracs))
            ws = [f.numerator * (den // f.denominator) for f in fracs]
        total = sum(ws)
        if total <= 0:
            raise ValueError("weights must have positive total")
        g = math.gcd(*ws)
        rule = cls.__new__(cls)
        rule.__dict__["_ints"] = (total // g, tuple([w // g for w in ws]))
        rule._check()
        return rule

    @classmethod
    def slot_decayed(cls, kappa: int, decay) -> "WeightRule":
        """Earlier ranks paid more, scaled by decay^(rank-1) and renormalized.

        Mixes rank and time effects; provided for experimentation only, with
        no deterrence analysis attached.
        """
        d = Fraction(decay)
        if not 0 < d <= 1:
            raise ValueError("decay must lie in (0, 1]")
        return cls.from_weights([d**j for j in range(kappa)])


def removal_floor(rule: WeightRule, d: int) -> Fraction:
    """Minimum budget fraction forfeited by deleting any d pivotal ranks.

    An attacker targets the d cheapest ranks, so the floor is the sum of the
    d smallest weights.
    """
    if not 1 <= d <= rule.kappa:
        raise ValueError(f"d={d} outside [1, {rule.kappa}]")
    scale, nums = rule._scaled
    return Fraction(sum(nums[:d]), scale)


@dataclass(frozen=True)
class MinimaxReport:
    """Outcome of checking the uniform rule's worst-case-forfeiture optimality."""

    kappa: int
    d: int
    ceiling: Fraction
    rules_checked: int
    violations: tuple[int, ...]  # indices with floor above the ceiling
    false_equalities: tuple[int, ...]  # non-uniform rules attaining the ceiling

    @property
    def passed(self) -> bool:
        return not self.violations and not self.false_equalities


def minimax_certificate(
    kappa: int, d: int, trial_rules: Sequence[WeightRule]
) -> MinimaxReport:
    """Certify d/kappa as the exact removal-floor ceiling over trial rules.

    Every rule must satisfy floor <= d/kappa, with equality only for the
    uniform rule; all comparisons are exact rational arithmetic.
    """
    if not 1 <= d <= kappa:
        raise ValueError(f"d={d} outside [1, {kappa}]")
    violations = []
    false_eq = []
    for i, rule in enumerate(trial_rules):
        if rule.kappa != kappa:
            raise ValueError(f"rule {i} has {rule.kappa} ranks, expected {kappa}")
        # floor = sum(nums[:d]) / L against the ceiling d / kappa, cross-multiplied
        scale, nums = rule._scaled
        floor_scaled = sum(nums[:d]) * kappa
        if floor_scaled > d * scale:
            violations.append(i)
        elif floor_scaled == d * scale and not rule.is_uniform:
            false_eq.append(i)
    return MinimaxReport(
        kappa=kappa,
        d=d,
        ceiling=Fraction(d, kappa),
        rules_checked=len(trial_rules),
        violations=tuple(violations),
        false_equalities=tuple(false_eq),
    )


def cartel_prefix_count(owners: Sequence[Owner], kappa: int) -> int:
    """How many of the first kappa included bundles belong to the cartel."""
    return owners[:kappa].count("cartel")
