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
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

__all__ = [
    "Owner",
    "DecodeNotReached",
    "PivotalAllocation",
    "pivotal_allocation",
    "pivotal_share",
    "WeightRule",
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
    missing and earns ``last``, pro rata.  What the two owners are paid sums
    to exactly the budget.
    """

    owners: tuple[Owner, ...]
    r_idx: int
    full: Fraction
    last: Fraction
    budget: Fraction

    def paid_to(self, owner: Owner) -> Fraction:
        owns_final = self.owners[-1] == owner
        return pivotal_share(self.owners.count(owner), owns_final, self.full, self.last)


def pivotal_share(count: int, owns_final: bool, full, last):
    """What the holder of ``count`` of the first kappa ranks is paid.

    Ranks 1..kappa-1 pay ``full`` each and rank kappa pays ``last``;
    ``owns_final`` says whether rank kappa is among the holder's.  In symbol
    indices (``full = s``, ``last = r_idx``) this is the holder's pivotal
    index count I = s*count - (s - r_idx)*[owns rank kappa], and its bounty
    share is B*I/K.
    """
    return (count - 1) * full + last if owns_final else count * full


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


@dataclass(frozen=True)
class WeightRule:
    """A budget-capped rank-based payment rule over the pivotal prefix.

    ``nums[j] / scale`` is the budget fraction paid to the bundle of rank
    j+1: nonnegative integer numerators over one positive scale, summing to
    it.  Both are divided by their gcd on construction, so equal weights
    compare and hash equal.  ``weights`` derives the rationals on each read.
    """

    scale: int
    nums: tuple[int, ...]

    def __post_init__(self) -> None:
        scale, nums = self.scale, tuple(self.nums)
        if not nums:
            raise ValueError("need at least one rank")
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        if min(nums) < 0:
            raise ValueError("weights must be nonnegative")
        if sum(nums) != scale:
            raise ValueError(f"weights sum to {Fraction(sum(nums), scale)}, not 1")
        g = math.gcd(scale, *nums)
        object.__setattr__(self, "scale", scale // g)
        object.__setattr__(self, "nums", tuple([num // g for num in nums]) if g > 1 else nums)

    @property
    def weights(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, self.scale) for num in self.nums)

    @property
    def kappa(self) -> int:
        return len(self.nums)

    @property
    def is_uniform(self) -> bool:
        return min(self.nums) * self.kappa == self.scale == max(self.nums) * self.kappa

    @classmethod
    def uniform(cls, kappa: int) -> "WeightRule":
        return cls(kappa, (1,) * kappa)

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
        return cls(total, tuple(ws))


@dataclass(frozen=True)
class MinimaxReport:
    """Outcome of checking the uniform rule's worst-case-forfeiture optimality."""

    violations: tuple[int, ...]  # indices with floor above the ceiling
    false_equalities: tuple[int, ...]  # non-uniform rules attaining the ceiling

    @property
    def passed(self) -> bool:
        return not self.violations and not self.false_equalities


def minimax_certificate(
    kappa: int, d: int, trial_rules: Sequence[WeightRule]
) -> MinimaxReport:
    """Certify d/kappa as the exact removal-floor ceiling over trial rules.

    A rule's removal floor is the least budget fraction forfeited by deleting
    any d pivotal ranks: an attacker targets the d cheapest, so it is the sum
    of the d smallest weights.
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
        # floor = (d smallest nums) / scale against the ceiling d / kappa, cross-multiplied
        floor_scaled = sum(sorted(rule.nums)[:d]) * kappa
        if floor_scaled > d * rule.scale:
            violations.append(i)
        elif floor_scaled == d * rule.scale and not rule.is_uniform:
            false_eq.append(i)
    return MinimaxReport(violations=tuple(violations), false_equalities=tuple(false_eq))


def cartel_prefix_count(owners: Sequence[Owner], kappa: int) -> int:
    """How many of the first kappa included bundles belong to the cartel."""
    return owners[:kappa].count("cartel")
