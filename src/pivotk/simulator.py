"""Pathwise Monte-Carlo engine over the lane-contact process.

Traces are bit-reproducible from (instance, policy, seed).  Contact draws and
policy randomness come from separate streams so that dominance checks can
share contact paths across policies (common random numbers) while policies
keep their own noise.
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .geometry import SystemInstance, cartel_lane_count, json_field
from .incentives import EconParams
from .mechanism import Owner, cartel_prefix_count, pivotal_share
from .probability import MCEstimate

__all__ = [
    "AdversaryPolicy",
    "FullInclude",
    "FullWithhold",
    "StationaryW",
    "MinimalSabotage",
    "RatchetSpread",
    "Scripted",
    "policy_from_config",
    "policy_from_spec",
    "SlotRecord",
    "Trace",
    "run_trace",
    "estimate_delay",
    "PayoffBreakdown",
    "payoff_of_trace",
    "SabotageReport",
    "minimal_sabotage_exhaustive",
    "prefix_monotonicity_exhaustive",
    "PathwiseReport",
    "verify_pathwise_theorems",
    "trace_to_json",
    "trace_from_json_with_econ",
]

HORIZON_CAP_FACTOR = 64  # traces never run past this many horizons
PATTERN_LIMIT = 1 << 16  # the sabotage oracle skips paths with more withholding sets

_CONTACT_STREAM = 0
_POLICY_STREAM = 1


@dataclass(frozen=True)
class AdversaryPolicy:
    """How many of the cartel's contacted bundles to withhold, slot by slot.

    ``withhold`` is the one decision rule.  It works element-wise, so
    ``contacts`` and ``withheld_so_far`` may be ints (one trace) or numpy
    arrays (one entry per sample path); ``instance`` is the geometry and
    ``rng`` the policy's own stream.

    Each kind is a frozen dataclass whose fields are its config keys after
    ``kind`` and its spec argument, so policies compare and hash by value.
    ``draws`` says whether the kind reads ``rng``; :func:`run_trace` builds
    the policy stream only for a kind that does.
    """

    name = "abstract"
    draws = True

    def withhold(self, t: int, contacts, withheld_so_far, instance: SystemInstance, rng):
        """Bundles withheld in slot ``t`` out of ``contacts`` received."""
        raise NotImplementedError

    def include_flags(self, t, contacts, withheld_so_far, instance, rng) -> list[bool]:
        """Decisions over one slot's cartel lanes in lane order; the lowest are withheld."""
        k = int(self.withhold(t, contacts, withheld_so_far, instance, rng))
        return [False] * k + [True] * (contacts - k)

    def to_config(self) -> dict:
        """The policy's config block: its kind, then each field, a tuple as a list."""
        obj = {"kind": self.name}
        for f in fields(self):
            value = getattr(self, f.name)
            obj[f.name] = list(value) if isinstance(value, tuple) else value
        return obj


@dataclass(frozen=True)
class FullInclude(AdversaryPolicy):
    name = "full_include"
    draws = False

    def withhold(self, t, contacts, withheld_so_far, instance, rng):
        return np.zeros_like(contacts)


@dataclass(frozen=True)
class FullWithhold(AdversaryPolicy):
    name = "full_withhold"
    draws = False

    def withhold(self, t, contacts, withheld_so_far, instance, rng):
        return contacts


@dataclass(frozen=True)
class StationaryW(AdversaryPolicy):
    """Each received bundle is included independently with probability w."""

    w: float
    name = "stationary_w"

    def __post_init__(self):
        if not 0.0 <= self.w <= 1.0:
            raise ValueError("w must lie in [0, 1]")

    def withhold(self, t, contacts, withheld_so_far, instance, rng):
        return contacts - rng.binomial(contacts, self.w)

    def include_flags(self, t, contacts, withheld_so_far, instance, rng):
        # a coin per lane, so the withheld lanes are random, not the lowest
        return (rng.random(contacts) < self.w).tolist()


@dataclass(frozen=True)
class MinimalSabotage(AdversaryPolicy):
    """Withhold the first slack+1 bundles before the horizon, include the rest."""

    name = "minimal_sabotage"
    draws = False

    def withhold(self, t, contacts, withheld_so_far, instance, rng):
        if t > instance.t_star:
            return np.zeros_like(contacts)
        return np.minimum(contacts, np.maximum(instance.delta + 1 - withheld_so_far, 0))


@dataclass(frozen=True)
class RatchetSpread(AdversaryPolicy):
    """Withhold at most caps[t-1] bundles in slot t; include everything later."""

    caps: tuple[int, ...]
    name = "ratchet_spread"
    draws = False

    def __post_init__(self):
        if any(c < 0 for c in self.caps):
            raise ValueError("caps must be nonnegative")

    def withhold(self, t, contacts, withheld_so_far, instance, rng):
        cap = self.caps[t - 1] if t <= len(self.caps) else 0
        return np.minimum(contacts, cap)


@dataclass(frozen=True)
class Scripted(AdversaryPolicy):
    """Include exactly min(script[t-1], contacts) bundles in slot t."""

    includes: tuple[int, ...]
    name = "scripted"
    draws = False

    def __post_init__(self):
        if any(x < 0 for x in self.includes):
            raise ValueError("inclusion counts must be nonnegative")

    def withhold(self, t, contacts, withheld_so_far, instance, rng):
        if t > len(self.includes):
            return np.zeros_like(contacts)
        return np.maximum(contacts - self.includes[t - 1], 0)


_POLICY_KINDS = {
    cls.name: cls
    for cls in (FullInclude, FullWithhold, StationaryW, MinimalSabotage, RatchetSpread, Scripted)
}


def policy_from_config(obj: dict) -> AdversaryPolicy:
    """The policy a ``to_config`` block names; each field is read by its declared type.

    A ``float`` must be a JSON number, a ``tuple[int, ...]`` an array of JSON integers.
    """
    kind = obj["kind"]
    if not (isinstance(kind, str) and kind in _POLICY_KINDS):
        raise ValueError(f"unknown policy kind {kind!r}")
    cls = _POLICY_KINDS[kind]
    return cls(*(  # annotations are strings in this module
        json_field(obj[f.name], f.name, kind=float) if f.type == "float"
        else tuple(json_field(x, f"{f.name}[{i}]") for i, x in enumerate(obj[f.name]))
        for f in fields(cls)
    ))


_SPEC_FORMS = (
    "full_include, full_withhold, minimal_sabotage, stationary_w:W with "
    "0 <= W <= 1, ratchet_spread:C1,C2,... or scripted:X1,X2,... with "
    "nonnegative integers"
)


def policy_from_spec(spec: str) -> AdversaryPolicy:
    """A policy from its command-line form, ``kind`` or ``kind:arg``.

    ``arg`` is the kind's one field, if any: a number or comma-separated
    integers.  Any malformed spec raises ValueError naming the accepted forms.
    """
    kind, sep, arg = spec.partition(":")
    obj = {"kind": kind}
    try:
        for f in fields(_POLICY_KINDS.get(kind, AdversaryPolicy)):
            obj[f.name] = float(arg) if f.type == "float" else [int(x) for x in arg.split(",")]
        policy = policy_from_config(obj)
        if sep and obj.keys() == {"kind"}:
            raise ValueError(f"{kind} takes no argument")
        return policy
    except ValueError as exc:
        raise ValueError(f"bad policy {spec!r} ({exc}); accepted forms: {_SPEC_FORMS}") from exc


@dataclass(frozen=True)
class SlotRecord:
    contacts_cartel: int
    contacts_honest: int
    included_cartel: int


InclusionRow = tuple[int, int, Owner]  # (slot, lane, owner) of one included bundle


@dataclass(frozen=True)
class Trace:
    """One sample path: contacts, decisions, resolution order, and outcome.

    ``inclusion_order`` holds one ``(slot, lane, owner)`` row per included
    bundle in resolution order: slots ascend, lanes ascend within a slot, and
    no ``(slot, lane)`` cell holds two bundles.

    The outcome fields follow from ``slots`` and ``inclusion_order``, so they
    are computed here, never passed in.  The inclusion time T is the first
    slot whose included bundles bring the total to kappa (None if none does),
    and a decoded trace ends by slot max(T, t*) + 1.  W counts the cartel
    bundles withheld through slot t* (0 if the trace stops before it), a
    trace is delayed when W exceeds the slack, truncated when it never
    decoded, and the pivotal cartel count is the cartel's rows among the
    first kappa (None when there are fewer).  Raises ValueError, naming
    ``slots``, for a decoded trace that runs on.
    """

    instance: SystemInstance
    cartel_lanes: int
    policy: AdversaryPolicy
    seed: int
    slots: tuple[SlotRecord, ...]
    inclusion_order: tuple[InclusionRow, ...]
    inclusion_time: int | None = field(init=False)
    withheld_at_horizon: int = field(init=False)
    pivotal_cartel_count: int | None = field(init=False)
    delayed: bool = field(init=False)
    truncated: bool = field(init=False)

    def __post_init__(self):
        instance, slots = self.instance, self.slots
        t_star, kappa = instance.t_star, instance.kappa
        inclusion_time = None
        included = 0
        for t, s in enumerate(slots, start=1):
            included += s.contacts_honest + s.included_cartel
            if included >= kappa:
                inclusion_time = t
                break
        if inclusion_time is not None and len(slots) > max(inclusion_time, t_star) + 1:
            raise ValueError(
                f"slots must end by slot {max(inclusion_time, t_star) + 1}, one past the later of "
                f"the inclusion slot {inclusion_time} and t*={t_star}; got {len(slots)} slots"
            )
        withheld = (
            sum([s.contacts_cartel - s.included_cartel for s in slots[:t_star]])
            if len(slots) >= t_star
            else 0
        )
        owners = [owner for _, _, owner in self.inclusion_order[:kappa]]
        pivotal = cartel_prefix_count(owners, kappa) if len(owners) == kappa else None
        object.__setattr__(self, "inclusion_time", inclusion_time)
        object.__setattr__(self, "withheld_at_horizon", withheld)
        object.__setattr__(self, "pivotal_cartel_count", pivotal)
        object.__setattr__(self, "delayed", withheld > instance.delta)
        object.__setattr__(self, "truncated", inclusion_time is None)


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (list, tuple)):
        return [int(s) for s in seed]
    return [int(seed)]


def _lane_path(n: int, m: int, marked: int, rng: np.random.Generator, slots: int):
    """The cartel's lane set and a lazy iterator over the first ``slots`` slots' contacts.

    Lanes are numbered 1..n.  The cartel set is drawn first; each slot then
    contacts the first m entries of a fresh permutation, yielded as a sorted
    list of ints.
    """
    cartel_set = frozenset((rng.permutation(n)[:marked] + 1).tolist())
    lanes = (np.sort(rng.permutation(n)[:m] + 1).tolist() for _ in range(slots))
    return cartel_set, lanes


def _policy_stream(policy: AdversaryPolicy, key: list[int]):
    """The policy's own generator at ``key``, built only for a kind that draws."""
    return np.random.default_rng(key) if policy.draws else None


def run_trace(
    instance: SystemInstance, beta, policy: AdversaryPolicy, seed
) -> Trace:
    """Simulate one transaction to one slot past inclusion (or the cap).

    Contacts are drawn per slot by taking the first m entries of a lane
    permutation, so specific lane identities are recorded.  The cartel's lane
    set is itself drawn uniformly per trace: lane ids order bundles within a
    slot in the resolution order, so a fixed cartel block (say lanes
    1..beta*n) would systematically front-run the pivotal prefix.
    """
    marked = cartel_lane_count(instance.n, beta)
    key = _seed_list(seed)
    contact_rng = np.random.default_rng(key + [_CONTACT_STREAM])
    policy_rng = _policy_stream(policy, key + [_POLICY_STREAM])
    cartel_set, slot_lanes = _lane_path(
        instance.n, instance.m, marked, contact_rng, HORIZON_CAP_FACTOR * instance.t_star
    )
    return _replay(
        instance, cartel_set, slot_lanes, policy, policy_rng, key[0] if len(key) == 1 else key
    )


def _replay(
    instance: SystemInstance,
    cartel_set: frozenset,
    slot_lanes,
    policy: AdversaryPolicy,
    policy_rng,
    seed,
) -> Trace:
    """Run one path's slots through the policy's decisions to a finished trace.

    ``slot_lanes`` yields each slot's sorted contacted lanes; a path that runs
    out of slots before decoding ends as a truncated trace.  Walking each
    slot's lanes in order appends the included bundles already in resolution
    order, one bundle per ``(slot, lane)`` cell.
    """
    kappa, t_star = instance.kappa, instance.t_star
    slots: list[SlotRecord] = []
    rows: list[InclusionRow] = []
    included_total = 0
    withheld_so_far = 0
    inclusion_time: int | None = None

    for t, lanes in enumerate(slot_lanes, start=1):
        cartel = [l for l in lanes if l in cartel_set]
        flags = policy.include_flags(t, len(cartel), withheld_so_far, instance, policy_rng)
        if len(flags) != len(cartel):
            raise ValueError("policy returned wrong number of decisions")
        x = sum(flags)
        withheld_so_far += len(cartel) - x

        decisions = iter(flags)  # one per cartel lane, in lane order
        for lane in lanes:
            if lane not in cartel_set:
                rows.append((t, lane, "honest"))
            elif next(decisions):
                rows.append((t, lane, "cartel"))
        honest = len(lanes) - len(cartel)
        slots.append(SlotRecord(len(cartel), honest, x))
        included_total += honest + x

        if inclusion_time is None and included_total >= kappa:
            inclusion_time = t
        if inclusion_time is not None and t >= max(inclusion_time, t_star) + 1:
            break

    trace = Trace(
        instance=instance,
        cartel_lanes=len(cartel_set),
        policy=policy,
        seed=seed,
        slots=tuple(slots),
        inclusion_order=tuple(rows),
    )
    if inclusion_time is not None and (inclusion_time > t_star) != trace.delayed:
        raise RuntimeError(
            "delay/deficit equivalence violated: "
            f"T={inclusion_time}, t*={t_star}, W={trace.withheld_at_horizon}, "
            f"delta={instance.delta}"
        )
    return trace


def _withheld_at_horizon(
    instance: SystemInstance, beta, policies, trials: int, key: list[int], ratchet: bool
) -> list[np.ndarray]:
    """Pre-horizon withheld counts W on ``trials`` paths, one array per (policy, key) pair.

    The one Monte-Carlo slot loop.  Each slot draws every path's cartel
    contacts at once from the contact stream ``key + [0]``, then adds each
    policy's ``withhold`` to that policy's W; a policy that draws reads its
    own stream at its key.  The delay event depends only on W, so lane
    identities are not drawn.  The static sender contacts m of a cartel and
    n - a honest lanes every slot, so one draw per slot serves every policy
    (common random numbers).  The ratchet flags each withheld lane out of
    the pool: slot t draws from a - W cartel and n - a honest lanes, so it
    runs one policy, whose W sets the pool.
    """
    n, m = instance.n, instance.m
    marked = cartel_lane_count(n, beta)
    rng = np.random.default_rng(key + [_CONTACT_STREAM])
    streams = [(policy, _policy_stream(policy, policy_key)) for policy, policy_key in policies]
    withheld = [np.zeros(trials, dtype=np.int64) for _ in streams]
    for t in range(1, instance.t_star + 1):
        pool = marked
        if ratchet:
            (pool_withheld,) = withheld
            most = int(pool_withheld.max())
            if n - most < m:
                raise ValueError(f"eligible pool shrank below m={m}; instance too small")
            if most:  # a scalar pool draws the same variates, faster
                pool = marked - pool_withheld
        contacts = rng.hypergeometric(pool, n - marked, m, size=trials)
        for w, (policy, policy_rng) in zip(withheld, streams):
            w += policy.withhold(t, contacts, w, instance, policy_rng)
    return withheld


def estimate_delay(
    instance: SystemInstance,
    beta,
    policy: AdversaryPolicy,
    trials: int,
    seed,
    ratchet: bool = False,
) -> MCEstimate:
    """Monte-Carlo delay frequency for a policy under the static sender or the ratchet.

    With ``ratchet`` the sender stops contacting every lane whose bundle was
    withheld, which needs a multi-slot horizon: with t* = 1 there is no
    later slot for the ratchet to protect.  Slot one's draw depends on
    neither the policy nor kappa, so for a given seed it is shared across
    both, and across the two senders.
    """
    if ratchet and instance.t_star < 2:
        raise ValueError("ratchet analysis needs t_star >= 2")
    if trials < 1:
        raise ValueError("need at least one trial")
    key = _seed_list(seed)
    pairs = [(policy, key + [_POLICY_STREAM])]
    (withheld,) = _withheld_at_horizon(instance, beta, pairs, trials, key, ratchet)
    return MCEstimate.from_counts(int(np.count_nonzero(withheld > instance.delta)), trials)


@dataclass(frozen=True)
class PayoffBreakdown:
    """Cartel revenue split: discounted fees, bounty share, and the MEV option.

    ``total`` is fee + bounty + MEV.  It is a field, not derived, so that a
    payoff read back from a trace line keeps the total that was stored.
    """

    fee_revenue: float
    bounty_revenue: float
    mev_option: float
    total: float


def payoff_of_trace(trace: Trace, econ: EconParams) -> PayoffBreakdown:
    """Cartel payoff of a finished trace.

    Fees: gamma^(t-1) * f per included cartel bundle, up to the inclusion
    slot.  Bounty: the cartel's share of the pivotal allocation
    (:func:`_bounty_share`), discounted to the inclusion slot; zero if
    decoding never happened or the bounty is 0.  MEV option: alpha*v*gamma^t*
    on delayed paths.
    """
    inst = trace.instance
    f = econ.proposer_fee(inst.s)
    g = econ.gamma
    horizon = (
        trace.inclusion_time if trace.inclusion_time is not None else len(trace.slots)
    )
    fee = math.fsum(
        g ** (t - 1) * f * rec.included_cartel
        for t, rec in enumerate(trace.slots, start=1)
        if t <= horizon
    )

    bounty = 0.0
    count = trace.pivotal_cartel_count  # None when fewer than kappa rows
    if econ.bounty > 0 and trace.inclusion_time is not None and count is not None:
        owns_final = trace.inclusion_order[inst.kappa - 1][2] == "cartel"
        bounty = g**trace.inclusion_time * _bounty_share(inst, count, owns_final, econ.bounty)

    mev = econ.mev_exposure * g**inst.t_star if trace.delayed else 0.0
    return PayoffBreakdown(fee, bounty, mev, fee + bounty + mev)


def _bounty_share(instance: SystemInstance, count: int, owns_final: bool, B) -> float:
    """B*I/K for the holder of ``count`` pivotal ranks, I its pivotal index count.

    I is :func:`~pivotk.mechanism.pivotal_share` in symbol indices.  The
    share is rounded once from integers, ``p*I / (q*K)`` with ``p/q = B``,
    as ``float(pivotal_allocation(...).paid_to(owner))`` rounds the exact
    Fraction, so the two agree bit for bit.
    """
    p, q = B.as_integer_ratio()
    return p * pivotal_share(count, owns_final, instance.s, instance.r_idx) / (q * instance.K)


# --- serialization ---------------------------------------------------------

_PAYOFF_FIELDS = ("fee_revenue", "bounty_revenue", "mev_option", "total")
_OUTCOME_FIELDS = (
    "inclusion_time", "withheld_at_horizon", "pivotal_cartel_count", "delayed", "truncated"
)


def trace_to_json(trace: Trace, payoff: PayoffBreakdown, econ: EconParams) -> str:
    """One trace as a single JSON line, replayable and diffable.

    Embedding the econ block alongside the payoff makes the line
    self-contained: a replay recomputes the payoff from the same inputs and
    must reproduce the stored floats exactly.
    """
    obj = {
        "format": 1,
        "instance": trace.instance.to_config(),
        "cartel_lanes": trace.cartel_lanes,
        "policy": trace.policy.to_config(),
        "seed": trace.seed,
        "slots": [
            [s.contacts_cartel, s.contacts_honest, s.included_cartel]
            for s in trace.slots
        ],
        "inclusion_order": trace.inclusion_order,  # rows are written as arrays
        "inclusion_time": trace.inclusion_time,
        "withheld_at_horizon": trace.withheld_at_horizon,
        "pivotal_cartel_count": trace.pivotal_cartel_count,
        "delayed": trace.delayed,
        "truncated": trace.truncated,
        "payoff": {name: getattr(payoff, name) for name in _PAYOFF_FIELDS},
        "econ": econ.to_config(),
    }
    # built fresh from tuples, dicts and scalars, so it holds no cycle to check
    return json.dumps(obj, separators=(",", ":"), check_circular=False)


def trace_from_json_with_econ(line: str) -> tuple[Trace, PayoffBreakdown, EconParams]:
    """Read back a :func:`trace_to_json` line with its stored payoff and econ.

    This is the one schema of a trace line: every input field must have the
    type and range :func:`trace_to_json` writes, the ``inclusion_order`` rows
    must be in resolution order, each slot's row counts must agree with its
    ``slots`` row, and each outcome field must equal, in value and JSON type,
    the one :class:`Trace` computes from the slots and rows.  Raises KeyError
    for a missing field and ValueError, naming the field, for a bad value or
    for a line without the payoff and econ blocks a replay checks.
    """
    obj = json.loads(line)
    if not isinstance(obj, dict) or obj.get("format") != 1 or type(obj["format"]) is not int:
        raise ValueError("not a trace record of format 1")

    inst_obj = obj["instance"]
    if not isinstance(inst_obj, dict):
        raise ValueError(f"instance must be an object, got {inst_obj!r}")
    try:
        instance = SystemInstance.from_config(inst_obj)
    except ValueError as exc:
        raise ValueError(f"instance: {exc}") from exc
    n, m = instance.n, instance.m
    cartel_lanes = json_field(obj["cartel_lanes"], "cartel_lanes", 0, n)

    block = obj["policy"]
    try:
        policy = policy_from_config(block)
        canonical = policy.to_config() == block
    except (KeyError, TypeError, ValueError):
        canonical = False
    if not canonical:
        raise ValueError(f"policy must be a policy block as simulate writes it, got {block!r}")

    seed = obj["seed"]
    if not (
        (type(seed) is int and seed >= 0)
        or (type(seed) is list and len(seed) > 1 and all(type(x) is int and x >= 0 for x in seed))
    ):
        raise ValueError(f"seed must be an integer >= 0 or a list of two or more, got {seed!r}")

    raw_slots = obj["slots"]
    if type(raw_slots) is not list or not raw_slots:
        raise ValueError(f"slots must be a nonempty array, got {raw_slots!r}")
    for t, row in enumerate(raw_slots, start=1):
        if not (
            type(row) is list and len(row) == 3 and all(type(v) is int for v in row)
            and 0 <= row[2] <= row[0] <= cartel_lanes and row[1] >= 0 and row[0] + row[1] == m
        ):
            raise ValueError(
                f"slots row {t} must be [cartel contacts, honest contacts, included cartel] "
                f"with contacts summing to m={m}, got {row!r}"
            )
    horizon = len(raw_slots)

    raw_order = obj["inclusion_order"]
    if type(raw_order) is not list:
        raise ValueError(f"inclusion_order must be an array, got {raw_order!r}")
    order = []
    last_slot = last_lane = 0
    for i, row in enumerate(raw_order, start=1):
        if type(row) is not list or len(row) != 3:
            raise ValueError(f"inclusion_order row {i} must be [slot, lane, owner], got {row!r}")
        slot, lane, owner = row
        if not (
            type(slot) is int and 1 <= slot <= horizon
            and type(lane) is int and 1 <= lane <= n
            and owner in ("honest", "cartel")
        ):
            raise ValueError(
                f"inclusion_order row {i} must be [slot in [1, {horizon}], lane in [1, {n}], "
                f"'honest' or 'cartel'], got {row!r}"
            )
        if slot < last_slot or (slot == last_slot and lane <= last_lane):
            raise ValueError(
                f"inclusion_order row {i} {row!r} must come after "
                f"[{last_slot}, {last_lane}]: rows ascend in (slot, lane)"
            )
        last_slot, last_lane = slot, lane
        order.append((slot, lane, owner))
    # The rows ascend, so slot t's rows run from the first row of slot >= t
    # to the first of slot >= t+1.
    owners = [owner for _, _, owner in order]
    starts = [bisect_left(order, (t,)) for t in range(1, horizon + 2)]
    for t, (_, honest, x) in enumerate(raw_slots, start=1):
        rows = starts[t] - starts[t - 1]
        cartel = owners[starts[t - 1] : starts[t]].count("cartel")
        if rows != honest + x or cartel != x:
            raise ValueError(
                f"inclusion_order must hold {honest + x} rows in slot {t}, {x} of them "
                f"cartel, as slots row {t} gives; got {rows} with {cartel} cartel"
            )

    trace = Trace(
        instance=instance,
        cartel_lanes=cartel_lanes,
        policy=policy,
        seed=seed,
        slots=tuple(SlotRecord(*row) for row in raw_slots),
        inclusion_order=tuple(order),
    )
    for name in _OUTCOME_FIELDS:
        stored, value = obj[name], getattr(trace, name)
        if not (type(stored) is type(value) and stored == value):  # true != 1, 1.0 != 1
            raise ValueError(
                f"{name} must be {json.dumps(value)} by the slots and inclusion_order "
                f"fields, got {json.dumps(stored)}"
            )

    if "payoff" not in obj or "econ" not in obj:
        raise ValueError(
            "no stored payoff and econ to check (write traces with pivotk simulate)"
        )
    p = obj["payoff"]
    if not isinstance(p, dict):
        raise ValueError(f"payoff must be an object, got {p!r}")
    values = [p[name] for name in _PAYOFF_FIELDS]
    for name, value in zip(_PAYOFF_FIELDS, values):
        if type(value) is not float:
            raise ValueError(f"payoff.{name} must be a float, got {value!r}")
    econ = EconParams.from_config(obj["econ"])
    econ.bundle_price_at(instance.s)  # must be finite at the trace's s
    return trace, PayoffBreakdown(*values), econ


# --- theorem verification --------------------------------------------------


@dataclass(frozen=True)
class SabotageReport:
    """Exhaustive check that optimal delay-inducing deviations are minimal."""

    paths_checked: int
    paths_with_delay_option: int
    paths_skipped: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass(frozen=True)
class _WithholdPattern(AdversaryPolicy):
    """Include flags per slot, in lane order, for the first slots; include the rest."""

    flags: tuple[tuple[bool, ...], ...]
    draws = False

    def include_flags(self, t, contacts, withheld_so_far, instance, rng):
        return self.flags[t - 1] if t <= len(self.flags) else (True,) * contacts


def minimal_sabotage_exhaustive(
    instance: SystemInstance, beta, econ: EconParams, paths: int, seed
) -> SabotageReport:
    """Enumerate every withholding pattern on sampled paths.

    For each sampled contact path, all subsets of pre-horizon cartel bundles
    are tried as withholding sets.  Each delay-achieving subset is replayed
    like :func:`run_trace` and priced by :func:`payoff_of_trace`; every payoff
    maximizer must withhold exactly slack+1 bundles.  The theorem's premise
    is a positive proposer fee: at fee 0 extra withholding can cost nothing,
    and the oracle reports the resulting ties as violations.  Paths with more
    than ``PATTERN_LIMIT`` subsets are skipped and counted.
    """
    if paths < 1:
        raise ValueError("need at least one path")
    if instance.t_star * instance.m > 18:
        raise ValueError("exhaustive enumeration is limited to t* * m <= 18")
    if instance.s != 1:
        raise ValueError("enumeration assumes single-symbol bundles (s = 1)")

    marked = cartel_lane_count(instance.n, beta)
    t_star, delta = instance.t_star, instance.delta
    key = _seed_list(seed)
    with_delay = 0
    skipped = 0
    violations = 0

    for path_idx in range(paths):
        path_key = key + [_CONTACT_STREAM, path_idx]
        rng = np.random.default_rng(path_key)
        # At most the t*m pre-horizon contacts are withheld and t*m >= kappa,
        # so the t* slots after the horizon reach decoding: T <= 2t*, and a
        # replay stops by slot 2t*+1.
        cartel_set, lanes = _lane_path(instance.n, instance.m, marked, rng, 2 * t_star + 1)
        slot_lanes = list(lanes)
        counts = [sum(lane in cartel_set for lane in slot) for slot in slot_lanes[:t_star]]
        c = sum(counts)
        if c <= delta:
            continue  # no delay-achieving pattern exists on this path
        if 1 << c > PATTERN_LIMIT:
            skipped += 1
            continue
        with_delay += 1

        best_payoff = -math.inf
        best_cardinalities: set[int] = set()
        for mask in range(1 << c):
            w_count = bin(mask).count("1")
            if w_count <= delta:
                continue  # not delay-achieving
            flags, rest = [], mask
            for count in counts:
                flags.append(tuple(not rest >> i & 1 for i in range(count)))
                rest >>= count
            policy = _WithholdPattern(tuple(flags))
            trace = _replay(instance, cartel_set, slot_lanes, policy, None, path_key)
            payoff = payoff_of_trace(trace, econ).total

            if payoff > best_payoff + 1e-12:
                best_payoff = payoff
                best_cardinalities = {w_count}
            elif abs(payoff - best_payoff) <= 1e-12:
                best_cardinalities.add(w_count)

        if best_cardinalities != {delta + 1}:
            violations += 1

    return SabotageReport(
        paths_checked=paths,
        paths_with_delay_option=with_delay,
        paths_skipped=skipped,
        violations=violations,
    )


def prefix_monotonicity_exhaustive(kappa: int, extra: int = 2) -> int:
    """Exhaustively verify that inserting cartel bundles never shrinks the prefix count.

    All owner sequences of length kappa+extra and all ways to insert one or
    two cartel bundles are enumerated; returns the number of cases checked.
    Raises on any violation.

    A sequence is a bit pattern, bit i set when position i is the cartel's.
    :func:`cartel_prefix_count` is called once on each distinct sequence of
    length kappa+extra, +1 and +2, and every case compares two of those
    counts, looked up by the pattern before and after the insertion.
    """
    if not 1 <= kappa <= 6:
        raise ValueError(f"kappa={kappa} outside 1..6, the range exhaustive enumeration covers")
    if extra < 0:
        raise ValueError(f"extra={extra} is negative: it must be >= 0")
    length = kappa + extra
    # seqs[k][bits] is the length+k sequence with pattern bits: product() runs
    # its last position fastest, so reversing each tuple puts bit i at position i
    seqs = [
        [list(seq[::-1]) for seq in itertools.product(("honest", "cartel"), repeat=n)]
        for n in range(length, length + 3)
    ]
    counts = [np.array([cartel_prefix_count(seq, kappa) for seq in group]) for group in seqs]
    spots = [
        case for k in (1, 2) for case in itertools.combinations_with_replacement(range(length + 1), k)
    ]
    bits = np.arange(1 << length)
    first, second = np.array(spots[length + 1 :]).T  # the two-bundle cases
    once = _insert_cartel(bits, np.arange(length + 1)[:, None])
    twice = _insert_cartel(_insert_cartel(bits, first[:, None]), second[:, None] + 1)
    after = np.concatenate([counts[1][once], counts[2][twice]])
    drops = after < counts[0]
    if drops.any():
        # the first violation in (sequence, case) order
        bad_bits, row = divmod(int(np.argmax(drops.T)), len(spots))
        raise AssertionError(
            f"prefix count dropped after insertion: seq={seqs[0][bad_bits]}, "
            f"spots={spots[row]}"
        )
    return drops.size


def _insert_cartel(bits: np.ndarray, at) -> np.ndarray:
    """Patterns with a set bit inserted at position ``at``, higher bits moved up one."""
    return bits + (bits >> at << at) + (1 << at)


@dataclass(frozen=True)
class PathwiseReport:
    """Outcome of the pathwise dominance check."""

    dominance_paths: int
    dominance_violations: int

    @property
    def passed(self) -> bool:
        return self.dominance_violations == 0


def verify_pathwise_theorems(
    instance: SystemInstance,
    beta,
    trials: int,
    seed,
    policies: Sequence[AdversaryPolicy] | None = None,
) -> PathwiseReport:
    """Check the pathwise dominance on one instance.

    On shared contact paths, no policy's delay indicator may exceed full
    withholding's, with zero violations allowed.  Minimal sabotage and prefix
    monotonicity are checked on their own by
    :func:`minimal_sabotage_exhaustive` and
    :func:`prefix_monotonicity_exhaustive`.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if policies is None:
        policies = [
            FullInclude(),
            StationaryW(0.25),
            StationaryW(0.5),
            StationaryW(0.75),
            MinimalSabotage(),
        ]
    key = _seed_list(seed)
    pairs = [(FullWithhold(), None)] + [
        (policy, key + [_POLICY_STREAM, idx]) for idx, policy in enumerate(policies)
    ]
    baseline, *withheld = _withheld_at_horizon(instance, beta, pairs, trials, key, False)
    baseline_delayed = baseline > instance.delta
    violations = sum(
        int(np.count_nonzero((w > instance.delta) & ~baseline_delayed)) for w in withheld
    )
    return PathwiseReport(dominance_paths=trials, dominance_violations=violations)
