"""Pivotal-bundle bounty rule: resolution order, allocations, and rank weights.

The bounty budget is split over the first kappa admissibly included bundles
in the deterministic resolution order; later bundles are redundant for
decoding and earn nothing.  Payments are exact rationals so that the budget
conservation invariant holds to the last bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Literal, Sequence

__all__ = [
    "Owner",
    "BundleRecord",
    "DecodeNotReached",
    "resolve_order",
    "PaymentEntry",
    "PivotalAllocation",
    "pivotal_allocation",
    "pivotal_cartel_share",
    "WeightRule",
    "removal_floor",
    "MinimaxReport",
    "minimax_certificate",
    "cartel_prefix_count",
    "ticket_hash_of",
]

Owner = Literal["honest", "cartel"]


def ticket_hash_of(ticket_id) -> int:
    """Deterministic 64-bit mix of an opaque ticket identifier.

    Stands in for a cryptographic hash in the resolution order; all the order
    needs is determinism across processes and collision-freeness in practice.
    """
    payload = repr(ticket_id).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


@dataclass(frozen=True)
class BundleRecord:
    """One bundle occurrence as seen by the settlement layer."""

    slot: int
    lane: int
    ticket_id: object
    owner: Owner
    admissible: bool = True

    @property
    def ticket_hash(self) -> int:
        return ticket_hash_of(self.ticket_id)


class DecodeNotReached(Exception):
    """Raised when fewer bundles than the decode threshold were included."""


def resolve_order(records: Iterable[BundleRecord]) -> list[BundleRecord]:
    """Admissible records in deterministic resolution order.

    The order is by ``(slot, lane)``, with the ticket hash breaking ties
    inside a cell; a record alone in its cell is never hashed.
    Non-admissible occurrences are ignored entirely, so stuffing the history
    with copied or unticketed bundles cannot move anyone's rank.  Each ticket
    is redeemable once: only its first admissible occurrence in the order
    survives.  Distinct tickets that collide in the full sort key
    ``(slot, lane, ticket_hash)`` are rejected rather than tie-broken
    arbitrarily.
    """
    cells: dict[tuple, list[BundleRecord]] = {}
    for rec in records:
        if rec.admissible:
            cells.setdefault((rec.slot, rec.lane), []).append(rec)
    seen_tickets: set = set()
    out = []
    for cell in sorted(cells):
        group = cells[cell]
        # A record alone in its cell has no tie to break, so it goes unhashed.
        keyed = (
            sorted(((rec.ticket_hash, rec) for rec in group), key=itemgetter(0))
            if len(group) > 1
            else [(None, group[0])]
        )
        hashes: set = set()
        for h, rec in keyed:
            if rec.ticket_id in seen_tickets:
                continue
            if h in hashes:
                raise ValueError(
                    "distinct tickets collide in the resolution order at "
                    f"{(rec.slot, rec.lane, h)}"
                )
            hashes.add(h)
            seen_tickets.add(rec.ticket_id)
            out.append(rec)
    return out


@dataclass(frozen=True)
class PaymentEntry:
    rank: int
    lane: int
    owner: Owner
    index_count: int
    payment: Fraction


def _exact_sum(payments: Iterable[Fraction]) -> Fraction:
    """Exact sum of rationals, accumulated in integers over their common
    denominator rather than one Fraction addition per term."""
    ratios = [p.as_integer_ratio() for p in payments]
    scale = math.lcm(*(den for _, den in ratios))
    return Fraction(sum(num * (scale // den) for num, den in ratios), scale)


@dataclass(frozen=True)
class PivotalAllocation:
    """Per-bundle payments over the decoding prefix.

    The first kappa-1 bundles each carry s fresh symbol indices; the final
    prefix bundle contributes only the r_idx indices still missing, and is
    paid pro rata.  Payments always sum to exactly the budget.
    """

    entries: tuple[PaymentEntry, ...]
    kappa: int
    r_idx: int
    budget: Fraction

    @property
    def total_paid(self) -> Fraction:
        return _exact_sum(e.payment for e in self.entries)

    def paid_to(self, owner: Owner) -> Fraction:
        return _exact_sum(e.payment for e in self.entries if e.owner == owner)

    def to_json_rows(self) -> str:
        rows = [
            {
                "rank": e.rank,
                "lane": e.lane,
                "owner": e.owner,
                "payment_numerator": e.payment.numerator,
                "payment_denominator": e.payment.denominator,
            }
            for e in self.entries
        ]
        return json.dumps(rows)


def _pivotal_payments(
    K: int, s: int, budget: Fraction, included: int
) -> tuple[int, int, Fraction, Fraction]:
    """``(kappa, r_idx, full, last)`` of the pivotal rule for ``included`` bundles.

    Each symbol index in the first K pays budget/K: a full bundle carries s
    of them and earns ``full``, the final, possibly partial, bundle carries
    r_idx and earns ``last``.  Raises :class:`DecodeNotReached` when fewer
    than kappa bundles were included.
    """
    if K < 1 or s < 1:
        raise ValueError("K and s must be positive")
    kappa = -(-K // s)
    r_idx = K - (kappa - 1) * s
    if included < kappa:
        raise DecodeNotReached(f"decode needs {kappa} bundles, only {included} included")
    per_index = budget / K
    return kappa, r_idx, per_index * s, per_index * r_idx


def pivotal_allocation(
    ordered: Sequence[BundleRecord], K: int, s: int, B
) -> PivotalAllocation:
    """Split budget ``B`` over the decoding prefix of an ordered inclusion list.

    Each symbol index in the first K pays B/K; a full bundle therefore earns
    s*B/K and the final, possibly partial, bundle earns r_idx*B/K.  Raises
    :class:`DecodeNotReached` when the list is shorter than the bundle
    threshold.
    """
    budget = Fraction(B)
    # Two exact payments, shared by every entry that earns them.
    kappa, r_idx, full, last = _pivotal_payments(K, s, budget, len(ordered))
    entries = [
        PaymentEntry(rank, rec.lane, rec.owner, s, full)
        for rank, rec in enumerate(ordered[: kappa - 1], start=1)
    ]
    final = ordered[kappa - 1]
    entries.append(PaymentEntry(kappa, final.lane, final.owner, r_idx, last))
    return PivotalAllocation(tuple(entries), kappa, r_idx, budget)


def pivotal_cartel_share(owners: Sequence[Owner], K: int, s: int, B) -> Fraction:
    """The cartel's part of the pivotal allocation, counted from owners alone.

    ``owners`` lists the included bundles' owners in resolution order.  The
    result is ``pivotal_allocation(ordered, K, s, B).paid_to("cartel")``
    without a payment entry: one full payment per cartel bundle among the
    first kappa-1, plus the final payment if the kappa-th bundle is the
    cartel's.
    """
    kappa, _, full, last = _pivotal_payments(K, s, Fraction(B), len(owners))
    share = cartel_prefix_count(owners, kappa - 1) * full
    return share + last if owners[kappa - 1] == "cartel" else share


@dataclass(frozen=True)
class WeightRule:
    """A budget-capped rank-based payment rule over the pivotal prefix.

    ``weights[j]`` is the budget fraction paid to the bundle of rank j+1;
    weights are nonnegative rationals summing to one.
    """

    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("need at least one rank")
        scale, nums = self._scaled
        if nums[0] < 0:
            raise ValueError("weights must be nonnegative")
        if sum(nums) != scale:
            raise ValueError(f"weights sum to {sum(self.weights)}, not 1")

    @cached_property
    def _scaled(self) -> tuple[int, tuple[int, ...]]:
        """``(L, nums)``: L is the weights' least common denominator and nums
        their numerators over L, sorted ascending.

        Computed on first use rather than stored, so a rule built without
        ``__init__`` is still checked against its actual weights.
        """
        ratios = [w.as_integer_ratio() for w in self.weights]
        scale = math.lcm(*(den for _, den in ratios))
        return scale, tuple(sorted(num * (scale // den) for num, den in ratios))

    @property
    def kappa(self) -> int:
        return len(self.weights)

    @property
    def is_uniform(self) -> bool:
        scale, nums = self._scaled
        return nums[0] * self.kappa == scale == nums[-1] * self.kappa

    @classmethod
    def uniform(cls, kappa: int) -> "WeightRule":
        return cls(tuple(Fraction(1, kappa) for _ in range(kappa)))

    @classmethod
    def from_weights(cls, raw: Sequence) -> "WeightRule":
        ws = list(raw)
        # All-int weights normalize with one integer sum; anything else
        # (floats, Fractions, numpy scalars) goes through Fraction first.
        if not all(isinstance(w, int) for w in ws):
            ws = [Fraction(w) for w in ws]
        total = sum(ws)
        if total <= 0:
            raise ValueError("weights must have positive total")
        return cls(tuple(Fraction(w, total) for w in ws))

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
