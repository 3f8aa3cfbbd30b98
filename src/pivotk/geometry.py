"""Dissemination geometry: decode thresholds, horizons, slack, and schedules."""

from __future__ import annotations

import bisect
import difflib
import itertools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

__all__ = [
    "SystemInstance",
    "ContactSchedule",
    "cartel_lane_count",
    "cartel_share",
    "json_field",
    "check_keys",
]


_FLOAT_MAX = sys.float_info.max


def json_field(value, field: str, lo=None, hi=None, kind: type = int):
    """``value`` if it is a JSON integer (``kind=int``) or number (``kind=float``).

    It must also lie in [lo, hi] where those bounds are given.  JSON booleans
    are neither integers nor numbers, a number must be finite (Python's
    ``json`` reads ``NaN`` and ``Infinity``, which JSON does not have), and an
    accepted number comes back as a float.  Raises ValueError naming ``field``.
    """
    if type(value) is kind or (kind is float and type(value) is int):
        if kind is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
            raise ValueError(f"{field} must be a finite number, got {value!r}")
        if (lo is None or value >= lo) and (hi is None or value <= hi):
            return kind(value)
    want = "an integer" if kind is int else "a number"
    if hi is not None:
        want += f" in [{lo}, {hi}]"
    elif lo is not None:
        want += f" >= {lo}"
    raise ValueError(f"{field} must be {want}, got {value!r}")


def check_keys(block: Mapping, accepted: Sequence[str], name: str | None) -> None:
    """Raise ValueError on the first key of ``block`` not in ``accepted``.

    The message names the block ``name`` (None for the top level), the key
    and the closest accepted key, if one is close.
    """
    for key in block:
        if key not in accepted:
            close = difflib.get_close_matches(key, accepted, n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ValueError(f"{name + ': ' if name else ''}unknown key {key!r}{hint}")


def cartel_lane_count(n: int, beta) -> int:
    """The integer cartel lane count ``beta * n``.

    ``beta`` may be a float or Fraction; the product must be integral (to
    within 1e-9 for floats) because the contact law needs a whole number of
    marked lanes.  Non-integral products are rejected with the nearest legal
    cartel size in the message.
    """
    if isinstance(beta, Fraction):
        exact = beta * n
        if exact.denominator != 1:
            nearest = int(round(float(exact)))
            raise ValueError(
                f"beta*n = {exact} is not an integer; nearest integral cartel "
                f"size is {nearest} lanes (beta = {Fraction(nearest, n)})"
            )
        count = int(exact)
    else:
        raw = float(beta) * n
        count = int(round(raw))
        if abs(raw - count) > 1e-9:
            raise ValueError(
                f"beta*n = {raw} is not an integer; nearest integral cartel "
                f"size is {count} lanes (beta = {count}/{n})"
            )
    if not 0 <= count <= n:
        raise ValueError(f"cartel size {count} outside [0, {n}]")
    return count


def cartel_share(n: int, beta) -> float:
    """The cartel's lane share ``cartel_lane_count(n, beta) / n``, the beta every rule uses."""
    return cartel_lane_count(n, beta) / n


@dataclass(frozen=True)
class SystemInstance:
    """Static dissemination geometry for one transaction.

    ``n`` lanes, ``m`` contacted per slot, ``s`` symbols per bundle, decode
    threshold ``K`` symbols.  Derived quantities:

    * ``kappa``   - bundles needed, ceil(K/s)
    * ``t_star``  - honest inclusion horizon, ceil(kappa/m)
    * ``delta``   - slack at the horizon, t_star*m - kappa, in [0, m-1]
    * ``r``       - bundles still needed entering the final slot, m - delta
    * ``r_idx``   - pivotal symbol indices carried by the final bundle,
      K - (kappa-1)*s, in [1, s]
    """

    n: int
    m: int
    s: int
    K: int
    kappa: int = field(init=False, repr=False)
    t_star: int = field(init=False, repr=False)
    delta: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("n", "m", "s", "K"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.m > self.n:
            raise ValueError(f"m={self.m} exceeds lane count n={self.n}")
        kappa = -(-self.K // self.s)
        t_star = -(-kappa // self.m)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "t_star", t_star)
        object.__setattr__(self, "delta", t_star * self.m - kappa)

    @property
    def r(self) -> int:
        return self.m - self.delta

    @property
    def r_idx(self) -> int:
        return self.K - (self.kappa - 1) * self.s

    @property
    def knife_edge(self) -> bool:
        return self.delta == 0

    @classmethod
    def from_kappa(cls, n: int, m: int, kappa: int) -> "SystemInstance":
        """Single-symbol bundles: K = kappa, s = 1."""
        return cls(n=n, m=m, s=1, K=kappa)

    def to_config(self) -> dict:
        """Primitive fields only; derived values are always recomputed."""
        return {"n": self.n, "m": self.m, "s": self.s, "K": self.K}

    @classmethod
    def from_config(cls, obj: Mapping) -> "SystemInstance":
        """The instance :meth:`to_config` wrote; each field must be a JSON integer."""
        return cls(n=obj["n"], m=obj["m"], s=obj["s"], K=obj["K"])


@dataclass(frozen=True)
class ContactSchedule:
    """A finite per-slot contact plan reaching the decode threshold.

    ``per_slot_contacts[t-1]`` lanes are contacted in slot ``t``.  The horizon
    is the first slot whose cumulative contact count reaches ``kappa``; the
    recovery slack is whatever the plan over-delivers by then, which is the
    deficit a first-slot withholder must exceed once flagged lanes are routed
    around.
    """

    per_slot_contacts: tuple[int, ...]
    kappa: int
    t_star: int = field(init=False, repr=False)
    total_by_horizon: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not self.per_slot_contacts:
            raise ValueError("schedule is empty")
        if any(c < 0 for c in self.per_slot_contacts):
            raise ValueError("per-slot contact counts must be nonnegative")
        cumulative = list(itertools.accumulate(self.per_slot_contacts))
        if cumulative[-1] < self.kappa:
            raise ValueError(
                f"schedule delivers {cumulative[-1]} contacts, never reaching kappa={self.kappa}"
            )
        # Counts are nonnegative, so the running totals never fall.
        t = bisect.bisect_left(cumulative, self.kappa)
        object.__setattr__(self, "t_star", t + 1)
        object.__setattr__(self, "total_by_horizon", cumulative[t])

    @property
    def delta_rec(self) -> int:
        """The recovery slack: contacts planned by the horizon beyond kappa."""
        return self.total_by_horizon - self.kappa

    @classmethod
    def static(cls, instance: SystemInstance) -> "ContactSchedule":
        """The fixed-m sender truncated at its horizon."""
        return cls((instance.m,) * instance.t_star, instance.kappa)
