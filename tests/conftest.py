"""Shared fixtures and independent reference implementations.

The reference paths here are deliberately naive: big-integer rationals and
exhaustive enumeration.  They validate the production code without sharing
any arithmetic with it.
"""

from __future__ import annotations

import itertools
import math
import os
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import settings

from pivotk.delay import DelayRegime
from pivotk.geometry import SystemInstance, cartel_lane_count
from pivotk.probability import MCEstimate, cartel_contact_law, contact_sums, kl_divergence
from pivotk.simulator import PayoffBreakdown

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failure prints the blob that replays it locally (@reproduce_failure).
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def exact_hypergeom_pmf(population: int, successes: int, draws: int, k: int) -> Fraction:
    """Hypergeometric PMF as an exact rational; usable up to population ~200."""
    if k < max(0, draws + successes - population) or k > min(draws, successes):
        return Fraction(0)
    return Fraction(
        comb(successes, k) * comb(population - successes, draws - k),
        comb(population, draws),
    )


def exact_hypergeom_tail_ge(population: int, successes: int, draws: int, r: int) -> Fraction:
    hi = min(draws, successes)
    return sum(
        (exact_hypergeom_pmf(population, successes, draws, k) for k in range(max(r, 0), hi + 1)),
        Fraction(0),
    )


def enumerate_hypergeom_pmf(population: int, successes: int, draws: int, k: int) -> Fraction:
    """PMF by brute-force enumeration of every draw subset (population <= 12)."""
    assert population <= 12, "enumeration oracle is exponential"
    marked = set(range(successes))
    total = 0
    hits = 0
    for subset in itertools.combinations(range(population), draws):
        total += 1
        if sum(1 for x in subset if x in marked) == k:
            hits += 1
    return Fraction(hits, total)


def exact_convolved_tail_gt(
    population: int, successes: int, draws: int, t: int, threshold: int
) -> Fraction:
    """P[S_t > threshold] by exact rational convolution."""
    base = [
        exact_hypergeom_pmf(population, successes, draws, k)
        for k in range(0, min(draws, successes) + 1)
    ]
    acc = [Fraction(1)]
    for _ in range(t):
        nxt = [Fraction(0)] * (len(acc) + len(base) - 1)
        for i, a in enumerate(acc):
            if a == 0:
                continue
            for j, b in enumerate(base):
                nxt[i + j] += a * b
        acc = nxt
    return sum(acc[threshold + 1 :], Fraction(0))


def exact_ratchet_tail_gt(
    population: int, successes: int, draws: int, spread, threshold: int
) -> Fraction:
    """P[W > threshold] for the ratchet's withheld count W, by exact rational DP.

    The state is W.  Slot t draws a ~ Hypergeom(population - W,
    successes - W, draws) from the pool left after W lanes were flagged, and
    the cartel withholds min(spread[t], a) of it.
    """
    law = {0: Fraction(1)}
    for cap in spread:
        nxt: dict[int, Fraction] = {}
        for w, p in law.items():
            for a in range(0, min(draws, successes - w) + 1):
                q = exact_hypergeom_pmf(population - w, successes - w, draws, a)
                if q:
                    step = w + min(cap, a)
                    nxt[step] = nxt.get(step, Fraction(0)) + p * q
        law = nxt
    return sum((p for w, p in law.items() if w > threshold), Fraction(0))


def reference_ratchet_estimate(instance, beta, spread, trials: int, seed: int) -> MCEstimate:
    """The ratchet Monte Carlo for withholding caps ``spread``, on two pool arrays.

    This is the original caps-tuple form of ``estimate_delay(...,
    ratchet=True)``.  Each trial keeps its eligible pool size and its cartel
    lanes in that pool.  Slot t draws a ~ Hypergeom(cartel, pool - cartel, m)
    from the stream ``[seed, 0]``, and the cartel withholds
    min(spread[t-1], a), each withheld lane leaving both counts.  A spread
    shorter than t* withholds nothing after it.
    """
    n, m = instance.n, instance.m
    rng = np.random.default_rng([seed, 0])
    pool_n = np.full(trials, n, dtype=np.int64)
    pool_cartel = np.full(trials, cartel_lane_count(n, beta), dtype=np.int64)
    withheld = np.zeros(trials, dtype=np.int64)
    for t in range(instance.t_star):
        if pool_n.min() < m:
            raise ValueError(f"eligible pool shrank below m={m}")
        a = rng.hypergeometric(pool_cartel, pool_n - pool_cartel, m)
        w = np.minimum(spread[t] if t < len(spread) else 0, a)
        withheld += w
        pool_n -= w
        pool_cartel -= w
    return MCEstimate.from_counts(int(np.count_nonzero(withheld > instance.delta)), trials)


def exact_distribution_of_T0(instance, beta, slots: int) -> tuple[list[Fraction], Fraction]:
    """(P[T = t] for t = 1..slots, P[T > slots]) by exact rational DP.

    T is the inclusion slot under full withholding: slot t adds m - A_t
    honest bundles, A_t ~ Hypergeom(n, beta*n, m) independently, and T is the
    first slot whose running honest count reaches kappa.  The state is that
    count, kept only while it is below kappa.
    """
    n, m, kappa = instance.n, instance.m, instance.kappa
    marked = cartel_lane_count(n, beta)
    honest = {m - a: exact_hypergeom_pmf(n, marked, m, a) for a in range(min(m, marked) + 1)}
    alive = {0: Fraction(1)}
    hit = []
    for _ in range(slots):
        nxt: dict[int, Fraction] = {}
        reached = Fraction(0)
        for u, pu in alive.items():
            for h, ph in honest.items():
                if u + h >= kappa:
                    reached += pu * ph
                elif ph:
                    nxt[u + h] = nxt.get(u + h, Fraction(0)) + pu * ph
        hit.append(reached)
        alive = nxt
    return hit, sum(alive.values(), Fraction(0))


def exact_inclusion_tails(instance, beta, floor: Fraction = Fraction(1, 10**30)) -> list[Fraction]:
    """Exact P[T > t] for t = t*, t* + 1, ..., up to the first one below ``floor``.

    T is the inclusion slot under full withholding, and T > t exactly when
    S_t, the cartel's contacts in t slots, exceeds t m - kappa.  S_t has the
    integer counts of the t-fold convolution of N_k = C(a, k) C(n - a, m - k)
    over C(n, m)^t.  Each convolution is one big-integer product: a list of
    counts packed w bytes apart (Kronecker substitution), with w wide enough
    for any count of the product, so no coefficient carries into the next.
    """
    n, m, kappa = instance.n, instance.m, instance.kappa
    a = cartel_lane_count(n, beta)
    lo, hi = max(0, m + a - n), min(m, a)
    total = comb(n, m)
    row = [0] * lo + [comb(a, k) * comb(n - a, m - k) for k in range(lo, hi + 1)]
    counts, tails, t = row, [], 1
    while not tails or tails[-1] >= floor:
        if t > 1:
            w = (total**t).bit_length() // 8 + 1

            def pack(values):
                return int.from_bytes(b"".join(v.to_bytes(w, "little") for v in values), "little")

            size = len(counts) + len(row) - 1
            raw = (pack(counts) * pack(row)).to_bytes(size * w, "little")
            counts = [int.from_bytes(raw[i * w : (i + 1) * w], "little") for i in range(size)]
        if t >= instance.t_star:
            tails.append(Fraction(sum(counts[max(t * m - kappa + 1, 0) :]), total**t))
        t += 1
    return tails


def reference_distribution_of_T0(instance, beta) -> tuple[list[float], float]:
    """(P[T = t] for t = t*..cap, P[T > cap]) of the inclusion slot by a scalar DP.

    This is the original honest-count ``incentives.distribution_of_T0``
    (automatic cap only): a triple loop over cap x kappa x support that
    reruns from slot 1 each time the cap doubles.
    """
    slot = contact_sums(cartel_contact_law(instance.n, beta, instance.m), 1)[0]
    h_lo = instance.m - slot.support_max
    h_pmf = slot.masses.tolist()[::-1]
    kappa, t_star = instance.kappa, instance.t_star

    def run(cap: int) -> tuple[list[float], float]:
        alive = [0.0] * kappa  # index u: P[sum of honest so far = u, T not yet hit]
        alive[0] = 1.0
        hit: list[float] = []
        for _ in range(cap):
            nxt = [0.0] * kappa
            reached = 0.0
            for u, pu in enumerate(alive):
                if pu == 0.0:
                    continue
                for i, ph in enumerate(h_pmf):
                    if ph == 0.0:
                        continue
                    v = u + h_lo + i
                    if v >= kappa:
                        reached += pu * ph
                    else:
                        nxt[v] += pu * ph
            hit.append(reached)
            alive = nxt
        return hit, math.fsum(alive)

    cap = max(t_star + 8, 2 * t_star)
    while True:
        hit, residual = run(cap)
        if residual < 1e-12:
            break
        if cap > 65536 * instance.t_star:
            raise ValueError("inclusion-time law does not concentrate; check parameters")
        cap *= 2

    assert all(p == 0.0 for p in hit[: t_star - 1])
    return hit[t_star - 1 :], residual


def knife_edge_grid():
    """(instance, beta) pairs at zero slack: n from 5 to 10 000, every cartel size class."""
    for n in (5, 7, 10, 20, 37, 100, 101, 1000, 2500, 10000):
        for marked in sorted({0, 1, n // 5, n // 2, n - 1, n}):
            for m in sorted({1, 2, 3, n // 4, n // 2, n} - {0}):
                for t_star in (1, 2, 3):
                    yield SystemInstance.from_kappa(n, m, m * t_star), marked / n


def reference_sabotage_report(instance, beta, econ, paths, seed):
    """(paths_with_delay_option, paths_skipped, violations) by a standalone enumerator.

    Draws each path's lanes from the stream ``seed + [0, path_idx]`` exactly
    as the simulator does (cartel set first, then the first m entries of a
    fresh permutation per slot), enumerates every subset of pre-horizon
    cartel bundles as a withholding set, and prices each delay-achieving
    subset with its own slot loop and the s = 1 bounty g**T * j * B / kappa.
    A path violates the theorem when its payoff maximizers do not all
    withhold exactly delta + 1 bundles.
    """
    assert instance.s == 1
    marked = cartel_lane_count(instance.n, beta)
    n, m = instance.n, instance.m
    kappa, t_star, delta = instance.kappa, instance.t_star, instance.delta
    f = econ.proposer_fee(1)
    g = econ.gamma
    key = list(seed) if isinstance(seed, (list, tuple)) else [seed]
    with_delay = skipped = violations = 0
    for path_idx in range(paths):
        rng = np.random.default_rng(key + [0, path_idx])
        cartel_set = {int(l) for l in rng.permutation(n)[:marked] + 1}
        slot_lanes = []

        def lanes_of(t):
            while len(slot_lanes) < t:
                slot_lanes.append(sorted(int(l) for l in rng.permutation(n)[:m] + 1))
            return slot_lanes[t - 1]

        positions = [
            (t, lane) for t in range(1, t_star + 1) for lane in lanes_of(t) if lane in cartel_set
        ]
        c = len(positions)
        if c <= delta:
            continue
        if c > 16:  # more than 2**16 withholding sets
            skipped += 1
            continue
        with_delay += 1
        best = -math.inf
        best_sizes: set[int] = set()
        for mask in range(1 << c):
            withheld = {positions[i] for i in range(c) if mask >> i & 1}
            if len(withheld) <= delta:
                continue
            owners = []
            fee = 0.0
            included = 0
            t = 0
            while included < kappa:
                t += 1
                x_t = 0
                for lane in lanes_of(t):
                    is_cartel = lane in cartel_set
                    if t <= t_star and is_cartel and (t, lane) in withheld:
                        continue
                    owners.append("cartel" if is_cartel else "honest")
                    included += 1
                    x_t += is_cartel
                fee += g ** (t - 1) * f * x_t
            j = owners[:kappa].count("cartel")
            payoff = fee + g**t * j * econ.bounty / kappa + econ.mev_exposure * g**t_star
            if payoff > best + 1e-12:
                best, best_sizes = payoff, {len(withheld)}
            elif abs(payoff - best) <= 1e-12:
                best_sizes.add(len(withheld))
        if best_sizes != {delta + 1}:
            violations += 1
    return with_delay, skipped, violations


def reference_prefix_monotonicity(kappa, count, extra=2):
    """The prefix battery by list insertion, one ``count`` call per case.

    Every owner sequence of length kappa+extra gets one or two cartel
    bundles inserted at every combination of spots, and ``count(aug, kappa)``
    is compared with ``count(seq, kappa)``.  Returns the number of cases, or
    raises AssertionError naming the first case whose count dropped.
    """
    length = kappa + extra
    checked = 0
    for bits in range(1 << length):
        seq = ["cartel" if bits >> i & 1 else "honest" for i in range(length)]
        base = count(seq, kappa)
        for k_insert in (1, 2):
            for spots in itertools.combinations_with_replacement(range(length + 1), k_insert):
                aug = list(seq)
                for offset, pos in enumerate(sorted(spots)):
                    aug.insert(pos + offset, "cartel")
                if count(aug, kappa) < base:
                    raise AssertionError(
                        f"prefix count dropped after insertion: seq={seq}, spots={spots}"
                    )
                checked += 1
    return checked


def reference_resolution_order(rows):
    """Inclusion rows ``(slot, lane, owner)`` in resolution order, by the full key.

    Sorts by ``(slot, lane)`` and keeps one bundle per cell, the first given.
    """
    cells = {}
    for row in rows:
        cells.setdefault((row[0], row[1]), row)
    return [cells[cell] for cell in sorted(cells)]


def reference_payoff_of_trace(trace, econ) -> PayoffBreakdown:
    """Cartel payoff with the bounty summed rank by rank.

    The trace's rows are put in resolution order by
    :func:`reference_resolution_order`; each cartel rank among the first
    kappa earns ``Fraction(B) / K`` per symbol index it carries, s for ranks
    below kappa and r_idx for rank kappa.  Fees and the MEV option are
    computed as in ``payoff_of_trace``, so every field must agree with it
    exactly.
    """
    inst = trace.instance
    f = econ.proposer_fee(inst.s)
    g = econ.gamma
    horizon = trace.inclusion_time if trace.inclusion_time is not None else len(trace.slots)
    fee = math.fsum(
        g ** (t - 1) * f * rec.included_cartel
        for t, rec in enumerate(trace.slots, start=1)
        if t <= horizon
    )
    order = reference_resolution_order(trace.inclusion_order)
    bounty = 0.0
    if econ.bounty > 0 and trace.inclusion_time is not None and len(order) >= inst.kappa:
        share = Fraction(0)
        for rank, (_, _, owner) in enumerate(order[: inst.kappa], start=1):
            index_count = inst.s if rank < inst.kappa else inst.r_idx
            if owner == "cartel":
                share += Fraction(econ.bounty) / inst.K * index_count
        bounty = g**trace.inclusion_time * float(share)
    mev = econ.mev_exposure * g**inst.t_star if trace.delayed else 0.0
    return PayoffBreakdown(fee, bounty, mev, fee + bounty + mev)


def _sided_chernoff_bound(t, m, theta, beta, side):
    """exp(-t m D(theta||beta)) for the named tail, refusing the wrong side of beta."""
    if (side == "upper" and theta < beta) or (side == "lower" and theta > beta):
        raise ValueError(f"{side}-tail bound on the wrong side of beta: theta={theta}")
    return math.exp(-t * m * kl_divergence(theta, beta))


def reference_fluid_bound(t_star, m, theta_w, beta_frac):
    """``fluid_delay_report``'s regime and KL bound, each tail's side picked by hand."""
    if not 0.0 < beta_frac < 1.0:
        return DelayRegime.DEGENERATE, None
    if theta_w > beta_frac:
        bound = _sided_chernoff_bound(t_star, m, theta_w, beta_frac, "upper")
        return DelayRegime.DELAY_RARE, bound
    if theta_w < beta_frac:
        bound = _sided_chernoff_bound(t_star, m, theta_w, beta_frac, "lower")
        return DelayRegime.DELAY_LIKELY, bound
    return DelayRegime.DEGENERATE, None


def reference_no_delay_upper(instance, beta) -> float:
    """The lower-tail bound on staying on time, or 1 unless the slack fraction is below beta."""
    beta_frac = cartel_lane_count(instance.n, beta) / instance.n
    frac = instance.delta / (instance.t_star * instance.m)
    if not 0.0 < beta_frac < 1.0 or frac >= beta_frac:
        return 1.0
    return _sided_chernoff_bound(instance.t_star, instance.m, frac, beta_frac, "lower")


def reference_bound_dominance(n, m, beta, rows) -> list[int]:
    """Kappas whose sweep row breaks a KL bound, one instance per row.

    The upper-tail bound must cap q0 where the slack fraction exceeds beta,
    and :func:`reference_no_delay_upper` must cap 1 - q0 everywhere, both
    within 1e-12.
    """
    failures = []
    beta_frac = cartel_lane_count(n, beta) / n
    for row in rows:
        inst = SystemInstance.from_kappa(n, m, row.kappa)
        theta0 = inst.delta / (inst.t_star * inst.m)
        if 0.0 < beta_frac < 1.0 and theta0 > beta_frac:
            bound = _sided_chernoff_bound(inst.t_star, inst.m, theta0, beta_frac, "upper")
            if row.q0 > bound + 1e-12:
                failures.append(row.kappa)
        if (1.0 - row.q0) > reference_no_delay_upper(inst, beta) + 1e-12:
            failures.append(row.kappa)
    return failures


@pytest.fixture(scope="session")
def table_instances() -> dict[int, SystemInstance]:
    """The five headline operating points: n=100, m=20, kappa in the table."""
    return {k: SystemInstance.from_kappa(100, 20, k) for k in (10, 20, 30, 50, 100)}


@pytest.fixture(scope="session")
def beta() -> float:
    return 0.2
