"""Exact and bounded probability computations for the lane-contact process.

Everything here is exact (big-integer slot laws, compensated summation) or an
explicit bound (binomial KL exponents).  Sampling lives in :mod:`pivotk.simulator`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field
from typing import Literal

import numpy as np

from .geometry import cartel_lane_count

__all__ = [
    "HypergeomLaw",
    "DiscreteDistribution",
    "cartel_contact_law",
    "contact_sums",
    "kl_divergence",
    "chernoff_tail_bound",
    "binomial_pmf_vector",
    "MCEstimate",
]

NEG_INF = float("-inf")

# Log-factorial cache for the binomial law: append-only, entries never mutated
# after being written.  Values near n=10^4 are ~8e4, where a single double
# quantizes at ~1.5e-11; the table therefore keeps each ln(n!) as a
# compensated (hi, lo) pair and log_comb subtracts with error-free
# transforms, rounding to a double only at the end.
_LOG_FACT_HI: list[float] = [0.0, 0.0]
_LOG_FACT_LO: list[float] = [0.0, 0.0]


def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _grow_log_fact(n: int) -> None:
    while len(_LOG_FACT_HI) <= n:
        k = len(_LOG_FACT_HI)
        s, e = _two_sum(_LOG_FACT_HI[k - 1], math.log(k))
        lo = _LOG_FACT_LO[k - 1] + e
        hi, lo = _two_sum(s, lo)
        _LOG_FACT_HI.append(hi)
        _LOG_FACT_LO.append(lo)


def log_comb(n: int, k: int) -> float:
    """ln C(n, k) with compensated cancellation; -inf outside 0 <= k <= n."""
    if k < 0 or k > n:
        return NEG_INF
    _grow_log_fact(n)
    hi, lo = _LOG_FACT_HI[n], _LOG_FACT_LO[n]
    for idx in (k, n - k):
        s, e = _two_sum(hi, -_LOG_FACT_HI[idx])
        lo = lo + e - _LOG_FACT_LO[idx]
        hi, lo = _two_sum(s, lo)
    return hi + lo


@dataclass(frozen=True)
class HypergeomLaw:
    """Number of marked lanes hit when drawing ``draws`` of ``population`` lanes.

    ``successes`` of the ``population`` lanes are marked (the cartel's lanes);
    one slot's contact count follows this law.
    """

    population: int
    successes: int
    draws: int

    def __post_init__(self) -> None:
        if self.population <= 0:
            raise ValueError("population must be positive")
        if not 0 <= self.successes <= self.population:
            raise ValueError(
                f"successes={self.successes} outside [0, population={self.population}]"
            )
        if not 0 <= self.draws <= self.population:
            raise ValueError(
                f"draws={self.draws} outside [0, population={self.population}]"
            )

    @property
    def support_min(self) -> int:
        return max(0, self.draws + self.successes - self.population)

    @property
    def support_max(self) -> int:
        return min(self.draws, self.successes)

    @property
    def mean(self) -> float:
        return self.draws * self.successes / self.population


# The fast mass check sums the masses in numpy blocks of at most this many
# entries.  In any order, a sum of k terms is off by at most gamma_(k-1) =
# (k-1)u / (1 - (k-1)u) times the sum of their magnitudes, u = 2**-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 4); gamma_1023 < 2**-43.
_MASS_BLOCK = 1024


# A law that stores no tails reads each tail from its bulk: the entries from
# the first to the last whose |mass| is at least cut, 2**-120 of the largest
# |mass| rounded up to a power of two (so n * cut is exact for any count n).
# The flanks outside the bulk hold thousands of masses down to 1e-320 at
# n = 10 000, which make math.fsum slow.  Even 2e4 of them add less than
# 2e4 * 2**-119 of the peak, below half an ulp of any tail above 6e-16 of it.
_TAIL_BULK = 2.0**-120


def _fsum_residual(values: tuple[float, ...]) -> tuple[float, float]:
    """(f, r): f = fsum(values), and r = fsum(values, -f), their exact sum minus f rounded."""
    f = math.fsum(values)
    return f, math.fsum((*values, -f))


def _total_mass_fault(total: float) -> str | None:
    """Why a law of total mass ``total`` is rejected, or None if it is not.

    The doubles this accepts form an interval, [1 - 1e-12, 1 + 1e-12].
    """
    if math.isnan(total):
        return "probability mass is NaN"
    if abs(total - 1.0) > 1e-12:
        return f"total mass {total} deviates from 1 by more than 1e-12"
    return None


def _mass_surely_ok(x: np.ndarray) -> bool:
    """True only if the masses ``x`` pass the fsum mass check; False: undecided.

    For masses >= 0, each numpy block sum is within a relative gamma_1023 <
    2**-43 of its exact value, so the exact total s is within F * 2**-42 of the
    fsum F of the block sums when F lies in [0.5, 2]; the spare factor 2 covers
    the roundings of F and of F +- F * 2**-42.  math.fsum(x) is s correctly
    rounded and rounding is monotone, so if both ends of that interval pass,
    fsum(x) passes too.
    """
    if not x.size or not x.min() >= 0.0:  # a NaN fails the comparison
        return False
    with np.errstate(over="ignore"):  # an infinite block sum fails the range test
        blocks = np.add.reduceat(x, np.arange(0, x.size, _MASS_BLOCK))
    total = math.fsum(blocks.tolist())
    if not 0.5 <= total <= 2.0:
        return False
    err = total * 2.0**-42
    return _total_mass_fault(total - err) is None and _total_mass_fault(total + err) is None


@dataclass(frozen=True)
class DiscreteDistribution:
    """An integer-supported distribution as ``offset`` plus a mass vector.

    ``masses[i]`` is the probability of the value ``offset + i``; the total
    mass must be 1 within 1e-12.  ``tails[i]``, when given, is
    P[X >= offset + i] and is read in place of a sum over the masses; a value
    past the last entry has tail 0.

    The law also holds its masses as one read-only float64 array, ``_array``,
    which is not a field.  A caller that already has that array (``convolve``)
    passes it as ``_array`` and the law keeps it instead of building its own.
    """

    offset: int
    masses: tuple[float, ...]
    tails: tuple[float, ...] | None = field(default=None, compare=False, repr=False)
    _array: InitVar[np.ndarray | None] = None

    def __post_init__(self, _array: np.ndarray | None) -> None:
        if _array is None:
            _array = np.array(self.masses, dtype=np.float64)
        _array.flags.writeable = False
        object.__setattr__(self, "_array", _array)
        if _mass_surely_ok(_array):
            return
        if self.masses and min(self.masses) < -1e-15:
            raise ValueError("negative probability mass")
        # min() above skips a negative mass that follows a NaN; fsum does not.
        fault = _total_mass_fault(math.fsum(self.masses))
        if fault is not None:
            raise ValueError(fault)

    @classmethod
    def from_law(cls, law: HypergeomLaw) -> "DiscreteDistribution":
        """The slot law with correctly rounded masses and upper tails (cached)."""
        return _slot_law(law)

    @property
    def support_max(self) -> int:
        return self.offset + len(self.masses) - 1

    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def pmf(self, k: int) -> float:
        i = k - self.offset
        if 0 <= i < len(self.masses):
            return self.masses[i]
        return 0.0

    def mean(self) -> float:
        return math.fsum(m * (self.offset + i) for i, m in enumerate(self.masses))

    def tail_ge(self, r: int) -> float:
        """P[X >= r]: the stored tail, else ``math.fsum`` of the masses clamped into [0, 1].

        Without stored tails the value is ``math.fsum(masses[i:])``, the
        correctly rounded sum, bit for bit; :meth:`_bulk_tail` usually finds it
        from the bulk alone.  The tail at or below the offset is 1.  The
        represented mass may be off from 1 by up to the 1e-12 the constructor
        allows, so an unclamped sum could read just above 1.
        """
        i = max(r - self.offset, 0)
        if i == 0:
            return 1.0
        if self.tails is not None:
            return self.tails[i] if i < len(self.tails) else 0.0
        tail = self._bulk_tail(i)
        if tail is None:
            tail = math.fsum(self.masses[i:])
        return min(1.0, max(0.0, tail))

    @functools.cached_property
    def _bulk(self) -> tuple[int, int, float, float, float]:
        """(lo, hi, cut, f, r): the first and last index whose |mass| is >= cut
        (see _TAIL_BULK), and ``_fsum_residual`` of the bulk masses[lo:hi + 1],
        which every tail read at an index up to lo shares."""
        mag = np.abs(self._array)
        cut = math.ldexp(_TAIL_BULK, math.frexp(float(mag.max()))[1])
        idx = np.flatnonzero(mag >= cut)
        lo, hi = int(idx[0]), int(idx[-1])
        return lo, hi, cut, *_fsum_residual(self.masses[lo : hi + 1])

    def _bulk_tail(self, i: int) -> float | None:
        """``math.fsum(self.masses[i:])`` read from the bulk alone, or None: undecided.

        With f and r the ``_fsum_residual`` of the slice's bulk part, the exact
        sum of that part is within |r| + ulp(r) of f, and the n_small entries of
        the slice outside the bulk add less than n_small * cut in magnitude.
        When that error bound is below half the gap from f down to its lower
        neighbour (the smaller of f's two gaps, as at a power of two), the
        exact slice sum lies strictly inside f's rounding interval, so the
        correctly rounded fsum of the whole slice is f.  The bound is summed
        with fsum, whose rounding is monotone, so it never reads low.
        """
        lo, hi, cut, f, r = self._bulk
        if i > hi:
            return None
        if i > lo:
            f, r = _fsum_residual(self.masses[i : hi + 1])
        if not f > 0.0:
            return None
        n_small = max(lo - i, 0) + len(self.masses) - 1 - hi
        err = math.fsum((abs(r), math.ulp(r), n_small * cut))
        return f if err < (f - math.nextafter(f, 0.0)) / 2 else None

    def tail_gt(self, r: int) -> float:
        """P[X > r]."""
        return self.tail_ge(r + 1)

    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        out = np.convolve(self._array, other._array)
        return DiscreteDistribution(self.offset + other.offset, tuple(out.tolist()), _array=out)


@functools.lru_cache(maxsize=64)  # a command reads one or two laws many times
def _slot_law(law: HypergeomLaw) -> DiscreteDistribution:
    """Every mass N_k / C(n, m) and upper tail of ``law`` from exact integers.

    N_k = C(a, k) C(n - a, m - k) counts the draws that hit k of the a marked
    lanes.  One pass from the top of the support down steps N_k by the ratio
    recurrences C(a, k-1) = C(a, k) k / (a-k+1) and C(b, m-k+1) = C(b, m-k)
    (b-m+k) / (m-k+1) for b = n - a, each division exact, and keeps a running
    suffix sum, so only a few big integers are alive at once.  CPython's
    int / int is correctly rounded: each mass and each tail is the double
    nearest its exact value.  The trailing entries whose tail rounds to 0.0 are
    dropped; their masses round to 0.0 as well.
    """
    n, a, m = law.population, law.successes, law.draws
    b = n - a
    lo, hi = law.support_min, law.support_max
    total = math.comb(n, m)
    count = math.comb(a, hi) * math.comb(b, m - hi)
    suffix = 0
    masses: list[float] = []
    tails: list[float] = []
    for k in range(hi, lo - 1, -1):
        suffix += count
        masses.append(count / total)
        tails.append(suffix / total)
        count = count * (k * (b - m + k)) // ((a - k + 1) * (m - k + 1))
    assert suffix == total, "slot law counts do not sum to C(n, m)"
    # Tails fall as k grows, so the zero tails are the run at the top.
    keep = len(tails) - tails.count(0.0)
    return DiscreteDistribution(lo, tuple(masses[::-1][:keep]), tails=tuple(tails[::-1][:keep]))


def cartel_contact_law(n: int, beta, draws: int) -> HypergeomLaw:
    """One slot's cartel contact count: ``draws`` of ``n`` lanes, ``beta * n`` marked.

    Every exact delay, ratchet and race figure is a tail of this law or of its
    t-slot sums (:func:`contact_sums`); this is the one place the cartel size
    is turned into a contact law.
    """
    return HypergeomLaw(n, cartel_lane_count(n, beta), draws)


def contact_sums(law: HypergeomLaw, t: int) -> tuple[DiscreteDistribution, ...]:
    """Exact laws of S_1..S_t, the sums of 1..t independent draws from ``law``.

    ``S_k`` is the cartel's cumulative contact count after ``k`` slots, built as
    ``S_{k-1}`` convolved with ``S_1``; one call serves every horizon up to ``t``.
    """
    if t < 1:
        raise ValueError("need at least one draw")
    sums = [DiscreteDistribution.from_law(law)]
    for _ in range(t - 1):
        sums.append(sums[-1].convolve(sums[0]))
    return tuple(sums)


def kl_divergence(theta: float, beta: float) -> float:
    """Bernoulli relative entropy D(theta || beta) in nats.

    Conventions: 0 ln 0 = 0, so D(0||b) = ln(1/(1-b)) and D(1||b) = ln(1/b).
    ``beta`` must be interior; the divergence is infinite at the endpoints.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"reference probability beta={beta} must lie in (0, 1)")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta={theta} outside [0, 1]")
    acc = 0.0
    if theta > 0.0:
        acc += theta * math.log(theta / beta)
    if theta < 1.0:
        acc += (1.0 - theta) * math.log((1.0 - theta) / (1.0 - beta))
    return acc


def chernoff_tail_bound(
    t: int, m: int, theta: float, beta: float, side: Literal["upper", "lower"]
) -> float:
    """exp(-t m D(theta||beta)), the binomial KL exponent for a t-slot sum.

    ``side="upper"`` bounds P[S/(tm) >= theta] and requires theta > beta;
    ``side="lower"`` bounds P[S/(tm) <= theta] and requires theta < beta.
    theta == beta is allowed on either side and gives the vacuous bound 1.
    """
    if t < 1 or m < 1:
        raise ValueError("t and m must be positive")
    if side == "upper":
        if theta < beta:
            raise ValueError("upper-tail bound needs theta >= beta")
    elif side == "lower":
        if theta > beta:
            raise ValueError("lower-tail bound needs theta <= beta")
    else:
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    return math.exp(-t * m * kl_divergence(theta, beta))


def log_binomial_pmf(n: int, p: float, k: int) -> float:
    if k < 0 or k > n:
        return NEG_INF
    if p == 0.0:
        return 0.0 if k == 0 else NEG_INF
    if p == 1.0:
        return 0.0 if k == n else NEG_INF
    return log_comb(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)


def binomial_pmf_vector(n: int, p: float) -> DiscreteDistribution:
    """The Bin(n, p) law on [0, n]; Bin(n, 0) is the point mass at 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p == 0.0:
        return DiscreteDistribution(0, (1.0,))
    masses = tuple(
        math.exp(lp) if (lp := log_binomial_pmf(n, p, k)) != NEG_INF else 0.0
        for k in range(n + 1)
    )
    return DiscreteDistribution(0, masses)


@dataclass(frozen=True)
class MCEstimate:
    """Monte-Carlo event frequency with a 95% Wilson score interval (Wilson 1927).

    ``stderr`` is the plug-in binomial standard error sqrt(p(1-p)/trials).
    Unlike p +- 1.96 stderr, the Wilson interval stays non-degenerate when no
    trial (or every trial) hits.  The bounds are clamped so that
    0 <= ci_low <= frequency <= ci_high <= 1, with ci_low exactly 0 at zero
    hits and ci_high exactly 1 when every trial hits.
    """

    frequency: float
    stderr: float
    ci_low: float
    ci_high: float
    trials: int

    @classmethod
    def from_counts(cls, hits: int, trials: int) -> "MCEstimate":
        p = hits / trials
        var = p * (1.0 - p) / trials
        z = 1.96
        k = z * z / trials
        centre = (p + k / 2) / (1 + k)
        half = z / (1 + k) * math.sqrt(var + k / (4 * trials))
        return cls(
            frequency=p,
            stderr=math.sqrt(var),
            ci_low=0.0 if hits == 0 else min(p, max(0.0, centre - half)),
            ci_high=1.0 if hits == trials else max(p, min(1.0, centre + half)),
            trials=trials,
        )
