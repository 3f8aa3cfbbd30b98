"""Shared fixtures and independent reference implementations.

The reference paths here are deliberately naive: big-integer rationals and
exhaustive enumeration.  They validate the production log-space code without
sharing any arithmetic with it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

import pytest

from pivotk.geometry import SystemInstance


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


@pytest.fixture(scope="session")
def table_instances() -> dict[int, SystemInstance]:
    """The five headline operating points: n=100, m=20, kappa in the table."""
    return {k: SystemInstance.from_kappa(100, 20, k) for k in (10, 20, 30, 50, 100)}


@pytest.fixture(scope="session")
def beta() -> float:
    return 0.2
