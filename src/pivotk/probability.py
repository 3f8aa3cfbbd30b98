"""Exact and bounded probability computations for the lane-contact process.

Everything here is exact (big-integer slot laws, compensated summation) or an
explicit bound (binomial KL exponents).  Sampling lives in :mod:`pivotk.simulator`.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from .geometry import cartel_lane_count

__all__ = [
    "HypergeomLaw",
    "DiscreteDistribution",
    "cartel_contact_law",
    "contact_sums",
    "shortfall_tails",
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


# The fast mass check sums the masses in numpy blocks of at most this many
# entries.  In any order, a sum of k terms is off by at most gamma_(k-1) =
# (k-1)u / (1 - (k-1)u) times the sum of their magnitudes, u = 2**-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 4); gamma_1023 < 2**-43.
_MASS_BLOCK = 1024

# Every double is an integer multiple of 2**-1074, the least subnormal.
_ULP_SCALE = 2**1074


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


@dataclass(frozen=True, eq=False)
class DiscreteDistribution:
    """An integer-supported distribution as ``offset`` plus a mass vector.

    ``masses[i]`` is the probability of the value ``offset + i``; the total
    mass must be 1 within 1e-12.  The constructor takes any sequence of floats
    and stores it as one read-only float64 array.  ``tails[i]``, when given,
    is P[X >= offset + i]; a value past the last entry has tail 0.  Without
    it, the first tail read builds the same kind of table from exact suffix
    sums (:attr:`_tails`), so every tail is one lookup in one float64 array.
    """

    offset: int
    masses: np.ndarray
    tails: Sequence[float] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        masses = np.array(self.masses, dtype=np.float64)
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)
        if _mass_surely_ok(masses):
            return
        values = masses.tolist()
        if values and min(values) < -1e-15:
            raise ValueError("negative probability mass")
        # min() above skips a negative mass that follows a NaN; fsum does not.
        fault = _total_mass_fault(math.fsum(values))
        if fault is not None:
            raise ValueError(fault)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteDistribution):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.masses, other.masses)

    @classmethod
    def from_law(cls, law: HypergeomLaw) -> "DiscreteDistribution":
        """The slot law with correctly rounded masses and upper tails (cached)."""
        return _slot_law(law)

    @property
    def support_max(self) -> int:
        return self.offset + len(self.masses) - 1

    def tail_ge(self, r: int) -> float:
        """P[X >= r]: the stored tail, else ``math.fsum`` of the masses clamped into [0, 1].

        Without stored tails the value is ``math.fsum(masses[i:])``, the
        correctly rounded sum, bit for bit, read from :attr:`_tails`.  The
        tail at or below the offset is 1.  The represented mass may be off
        from 1 by up to the 1e-12 the constructor allows, so an unclamped sum
        could read just above 1.
        """
        i = max(r - self.offset, 0)
        if i == 0:
            return 1.0
        tails = self._tails
        return tails[i] if i < len(tails) else 0.0

    @functools.cached_property
    def _tails(self) -> Sequence[float]:
        """``tails``, else P[X >= offset + i] for i up to the last nonzero mass,
        one float64 array built from exact suffix sums on the first tail read.

        The suffix sums of the masses times 2**1074 are exact integers: every
        double is an integer multiple of 2**-1074, so this is a fixed-point
        accumulator over the whole double range (Kulisch & Miranker, 1981).
        ``np.frexp`` splits each mass into a 53-bit integer mantissa and a
        shift; a subnormal's mantissa is shifted right first, which drops only
        zero bits.  CPython's int / int rounds ``sum / 2**1074`` correctly, as
        math.fsum does, and each sum is dropped once it is rounded, so no big
        integer outlives the build.  The zero runs below the first and above
        the last nonzero mass add nothing; the tails below the first repeat
        its tail.
        """
        if self.tails is not None:
            return self.tails
        nonzero = np.flatnonzero(self.masses)
        lo, hi = int(nonzero[0]), int(nonzero[-1])
        mant, exp = np.frexp(self.masses[lo : hi + 1][::-1])
        shift = exp + (1074 - 53)
        ints = np.ldexp(mant, 53 + np.minimum(shift, 0)).astype(np.int64)
        shifts = np.maximum(shift, 0)
        sums = itertools.accumulate(map(operator.lshift, ints.tolist(), shifts.tolist()))
        tails = np.empty(hi + 1)
        tails[lo:] = np.fromiter(map(_ULP_SCALE.__rtruediv__, sums), np.float64, hi - lo + 1)[::-1]
        tails[:lo] = tails[lo]
        return array("d", tails.clip(0.0, 1.0).tobytes())

    def tail_gt(self, r: int) -> float:
        """P[X > r]."""
        return self.tail_ge(r + 1)

    def convolve(self, other: "DiscreteDistribution") -> "DiscreteDistribution":
        return DiscreteDistribution(self.offset + other.offset, np.convolve(self.masses, other.masses))


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
    return DiscreteDistribution(lo, masses[::-1][:keep], tails=array("d", tails[::-1][:keep]))


def cartel_contact_law(n: int, beta, draws: int) -> HypergeomLaw:
    """One slot's cartel contact count: ``draws`` of ``n`` lanes, ``beta * n`` marked.

    Every exact delay, ratchet and race figure is a tail of this law or of its
    t-slot sums (:func:`contact_sums`); this is the one place the cartel size
    is turned into a contact law.
    """
    return HypergeomLaw(n, cartel_lane_count(n, beta), draws)


@functools.lru_cache(maxsize=8)  # a command or bench round reads at most a few laws
def _chain(law: HypergeomLaw) -> list[DiscreteDistribution]:
    """S_1, S_2, ... of ``law`` as built so far; :func:`contact_sums` extends it."""
    return [DiscreteDistribution.from_law(law)]


def contact_sums(law: HypergeomLaw, t: int) -> tuple[DiscreteDistribution, ...]:
    """Exact laws of S_1..S_t, the sums of 1..t independent draws from ``law``.

    ``S_k`` is the cartel's cumulative contact count after ``k`` slots, built as
    ``S_{k-1}`` convolved with ``S_1``.  Each S_k is built once per process:
    the sums are kept in one extend-only chain per law, and a later call reads
    them, tail tables included, with no convolution.

    Retention: the cache keeps the chains of the 8 laws read last, each up to
    the largest ``t`` asked of it.  S_k holds k w + 1 masses, w the width of
    S_1's support, and once a tail of it is read at most as many float tails,
    so a chain to horizon t holds at most (t^2 w + t (w + 2)) * 8 bytes.
    Measured: 0.3 MB at n = 10 000, m = 2 000, t = 6 with every tail table
    built, and 0.8 MB of masses at n = 100, m = 20, t = 100.
    """
    if t < 1:
        raise ValueError("need at least one draw")
    chain = _chain(law)
    while len(chain) < t:
        chain.append(chain[-1].convolve(chain[0]))
    return tuple(chain[:t])


def shortfall_tails(law: HypergeomLaw, kappa: int, t: int) -> Iterator[float]:
    """P[S_u > u d - kappa] for u = t, t + 1, ..., with d = ``law.draws``.

    That is the chance that fewer than ``kappa`` of the u d draws of u slots
    miss the marked lanes.  S_t comes from :func:`contact_sums`, and so does
    each later S_u that its chain already holds.  Past that, each S_u is
    convolved from the last and dropped after one tail read, so the chain
    never grows past t.  That read is ``math.fsum`` of the masses clamped into
    [0, 1], the bits :meth:`DiscreteDistribution.tail_ge` reads, and builds
    no tail table.  Once u times S_1's top value is at most u d - kappa, no
    later sum can exceed its threshold (d >= S_1's top value), and the rest
    are 0.0 with no convolution.
    """
    slot = DiscreteDistribution.from_law(law)
    for u in itertools.count(t):
        r = u * law.draws - kappa + 1
        if u * slot.support_max < r:
            yield from itertools.repeat(0.0)
        if u <= max(t, len(_chain(law))):
            s_u = contact_sums(law, u)[-1]
            yield s_u.tail_ge(r)
        else:
            s_u = s_u.convolve(slot)
            i = r - s_u.offset
            yield 1.0 if i <= 0 else min(1.0, max(0.0, math.fsum(s_u.masses[i:].tolist())))


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
    # D >= 0 (Gibbs' inequality), but near theta == beta the two rounded
    # terms can cancel to a value just below 0.
    return max(acc, 0.0)


def chernoff_tail_bound(t: int, m: int, theta: float, beta: float) -> float:
    """exp(-t m D(theta||beta)), the binomial KL exponent for a t-slot sum.

    It bounds P[S/(tm) >= theta] when theta > beta and P[S/(tm) <= theta]
    when theta < beta; theta == beta gives the vacuous bound 1.
    """
    if t < 1 or m < 1:
        raise ValueError("t and m must be positive")
    return math.exp(-t * m * kl_divergence(theta, beta))


def log_binomial_pmf(n: int, p: float, k: int) -> float:
    if k < 0 or k > n:
        return NEG_INF
    if p == 0.0:
        return 0.0 if k == 0 else NEG_INF
    if p == 1.0:
        return 0.0 if k == n else NEG_INF
    return log_comb(n, k) + k * math.log(p) + (n - k) * math.log1p(-p)


# exp rounds every log-mass below about -745.13 to 0.0.  The margin of 0.87
# covers the rounding error of the computed log-masses many times over: it is
# a few ulps of terms of magnitude below 1e5, about 1e-11.
_LOG_UNDERFLOW = -746.0


def binomial_pmf_vector(n: int, p: float) -> DiscreteDistribution:
    """The Bin(n, p) law on [0, n]; Bin(n, 0) is the point mass at 0.

    The log-masses are concave in k, so the masses that do not underflow form
    one run around the mode.  Only that run is evaluated, walking outward from
    the mode until the log-mass falls below ``_LOG_UNDERFLOW``; the rest are
    0.0, as exp would give them.  The vector keeps all n + 1 entries, since
    ``np.convolve``'s bits depend on its length.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p={p} outside [0, 1]")
    if p == 0.0:
        return DiscreteDistribution(0, (1.0,))
    masses = [0.0] * (n + 1)
    mode = min(int((n + 1) * p), n)
    for ks in (range(mode, n + 1), range(mode - 1, -1, -1)):
        for k in ks:
            lp = log_binomial_pmf(n, p, k)
            if lp < _LOG_UNDERFLOW:
                break
            masses[k] = math.exp(lp)
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
