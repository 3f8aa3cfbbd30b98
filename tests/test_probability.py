"""Probability kernel: exact laws, convolutions, and large-deviation bounds."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pivotk import delay, incentives
from pivotk.geometry import SystemInstance
from pivotk.probability import (
    NEG_INF,
    DiscreteDistribution,
    HypergeomLaw,
    MCEstimate,
    _chain,
    _mass_surely_ok,
    binomial_pmf_vector,
    cartel_contact_law,
    chernoff_tail_bound,
    contact_sums,
    kl_divergence,
    log_binomial_pmf,
    shortfall_tails,
)

from conftest import (
    enumerate_hypergeom_pmf,
    exact_convolved_tail_gt,
    exact_hypergeom_pmf,
    exact_hypergeom_tail_ge,
)

TABLE_LAW = HypergeomLaw(100, 20, 20)


def hypergeom_pmf(law, k):
    """P[X = k], read off the slot law's ``offset`` and ``masses``; 0 off its support."""
    dist = DiscreteDistribution.from_law(law)
    i = k - dist.offset
    return dist.masses[i].item() if 0 <= i < dist.masses.size else 0.0


def hypergeom_tail_ge(law, r):
    return DiscreteDistribution.from_law(law).tail_ge(r)


def binomial_tail_ge(n, p, r):
    return binomial_pmf_vector(n, p).tail_ge(r)


class TestHypergeomPmf:
    def test_out_of_support_is_zero(self):
        assert hypergeom_pmf(TABLE_LAW, 21) == 0.0

    def test_no_marked_lanes_all_mass_at_zero(self):
        law = HypergeomLaw(100, 0, 20)
        assert hypergeom_pmf(law, 0) == 1.0

    def test_small_law_against_enumeration(self):
        # All C(5,2)=10 draws; 6 contain exactly one of the two marked lanes.
        assert hypergeom_pmf(HypergeomLaw(5, 2, 2), 1) == pytest.approx(0.6, abs=1e-15)
        assert enumerate_hypergeom_pmf(5, 2, 2, 1) == Fraction(6, 10)

    def test_invalid_law_rejected(self):
        with pytest.raises(ValueError):
            HypergeomLaw(10, 11, 5)
        with pytest.raises(ValueError):
            HypergeomLaw(10, 5, 11)
        with pytest.raises(ValueError):
            HypergeomLaw(0, 0, 0)

    @pytest.mark.parametrize("population,successes,draws", [
        (5, 2, 2), (8, 3, 4), (10, 5, 5), (12, 6, 7), (12, 1, 11), (9, 9, 3),
    ])
    def test_matches_exhaustive_enumeration(self, population, successes, draws):
        for k in range(0, draws + 1):
            expected = enumerate_hypergeom_pmf(population, successes, draws, k)
            assert hypergeom_pmf(
                HypergeomLaw(population, successes, draws), k
            ) == pytest.approx(float(expected), rel=1e-13, abs=1e-300)

    @pytest.mark.parametrize("population,successes,draws", [
        (100, 20, 20), (200, 50, 30), (150, 75, 75), (200, 1, 200),
    ])
    def test_matches_exact_rationals(self, population, successes, draws):
        law = HypergeomLaw(population, successes, draws)
        for k in range(law.support_min, law.support_max + 1):
            expected = float(exact_hypergeom_pmf(population, successes, draws, k))
            assert hypergeom_pmf(law, k) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("population,successes,draws", [
        (100, 20, 20), (1000, 200, 50), (10_000, 2_000, 100),
    ])
    def test_pmf_sums_to_one(self, population, successes, draws):
        law = HypergeomLaw(population, successes, draws)
        total = math.fsum(
            hypergeom_pmf(law, k) for k in range(law.support_min, law.support_max + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(
        population=st.integers(1, 60),
        successes=st.integers(0, 60),
        draws=st.integers(0, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_pmf_sums_to_one_property(self, population, successes, draws):
        successes = min(successes, population)
        draws = min(draws, population)
        law = HypergeomLaw(population, successes, draws)
        total = math.fsum(
            hypergeom_pmf(law, k) for k in range(law.support_min, law.support_max + 1)
        )
        assert abs(total - 1.0) < 1e-12

    @pytest.mark.parametrize("population", [37, 100, 1000, 10_000])
    def test_reversed_cartel_masses_are_the_honest_pmf(self, population):
        # A slot's honest contact count is draws - A, so the honest law is the
        # cartel law read backwards; the two must agree bit for bit.
        for marked in (0, population // 5, population // 3, population - 1):
            for draws in (1, population // 5, population // 2):
                law = HypergeomLaw(population, marked, draws)
                honest = HypergeomLaw(population, population - marked, draws)
                assert draws - law.support_max == honest.support_min
                for k in range(law.support_min, law.support_max + 1):
                    assert hypergeom_pmf(law, k) == hypergeom_pmf(honest, draws - k)


class TestHypergeomTail:
    def test_table_values(self):
        assert float(hypergeom_tail_ge(TABLE_LAW, 11)) == pytest.approx(8.0e-5, rel=0.05)
        assert float(hypergeom_tail_ge(TABLE_LAW, 20)) == pytest.approx(1.9e-21, rel=0.05)

    def test_single_point_tail_is_inverse_binomial(self):
        assert float(hypergeom_tail_ge(TABLE_LAW, 20)) == pytest.approx(
            1.0 / math.comb(100, 20), rel=1e-12
        )

    def test_full_mass_at_zero(self):
        assert hypergeom_tail_ge(TABLE_LAW, 0) == 1.0
        assert hypergeom_tail_ge(TABLE_LAW, -3) == 1.0

    def test_against_exact_rationals(self):
        for r in range(0, 22):
            expected = float(exact_hypergeom_tail_ge(100, 20, 20, r))
            assert hypergeom_tail_ge(TABLE_LAW, r) == expected

    def test_monotone_in_threshold(self):
        values = [float(hypergeom_tail_ge(TABLE_LAW, r)) for r in range(0, 22)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_monotone_in_successes(self):
        values = [
            float(hypergeom_tail_ge(HypergeomLaw(100, s, 20), 5)) for s in range(0, 101)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


def assert_row_correctly_rounded(law):
    """Every mass and tail of the row is the double nearest its exact value.

    The reference steps C(a, k) and C(n - a, m - k) upward from the bottom of
    the support, each factor on its own, and takes each tail as an exact
    suffix sum; ``count / total`` is the correctly rounded
    ``float(Fraction(count, total))``.
    """
    dist = DiscreteDistribution.from_law(law)
    n, a, m = law.population, law.successes, law.draws
    b = n - a
    lo, hi = law.support_min, law.support_max
    total = math.comb(n, m)
    c_a, c_b = math.comb(a, lo), math.comb(b, m - lo)
    counts = []
    for k in range(lo, hi + 1):
        counts.append(c_a * c_b)
        c_a, c_b = c_a * (a - k) // (k + 1), c_b * (m - k) // (b - m + k + 1)
    suffixes = list(accumulate(reversed(counts)))[::-1]
    assert suffixes[0] == total
    assert counts[-1] == math.comb(a, hi) * math.comb(b, m - hi)
    for k, count, suffix in zip(range(lo, hi + 1), counts, suffixes):
        assert hypergeom_pmf(law, k) == count / total, k
        assert dist.tail_ge(k) == suffix / total, k
    assert dist.tail_ge(lo - 1) == 1.0
    assert dist.tail_ge(hi + 1) == 0.0


_rng = random.Random(20261018)
ROW_LAWS = [
    (12000, 2400, 2400),
    (10000, 2000, 2000),
    (1000, 200, 200),
    (37, 7, 20),
    (12000, 0, 500),  # no marked lanes
    (12000, 600, 0),  # no draws
    (12000, 3000, 12000),  # every lane drawn: single point
    (12000, 12000, 700),  # every lane marked: single point
    (5000, 4999, 4999),
    (1, 0, 1),
    (1, 1, 1),
] + [
    (n, _rng.randint(0, n), _rng.randint(0, n))
    for n in (12, 100, 999, 4321, 12000)
    for _ in range(3)
]


class TestLawRow:
    """The exact slot row against a per-point big-integer reference."""

    @pytest.mark.parametrize("population,successes,draws", ROW_LAWS)
    def test_bit_identical_to_scalar_path(self, population, successes, draws):
        assert_row_correctly_rounded(HypergeomLaw(population, successes, draws))

    def test_every_small_law_is_correctly_rounded(self):
        laws = 0
        for n in range(1, 41):
            for a in range(n + 1):
                for m in range(n + 1):
                    assert_row_correctly_rounded(HypergeomLaw(n, a, m))
                    laws += 1
        assert laws == sum((n + 1) ** 2 for n in range(1, 41))

    def test_sampled_laws_up_to_200_are_correctly_rounded(self):
        rng = random.Random(20261019)
        for _ in range(200):
            n = rng.randint(41, 200)
            assert_row_correctly_rounded(HypergeomLaw(n, rng.randint(0, n), rng.randint(0, n)))

    def test_rows_drop_only_tails_that_round_to_zero(self):
        # n <= 1 000 keeps every entry; at n = 10 000 the top 933 of 2 001
        # entries have exact tails below half the least subnormal.
        for n, kept in ((100, 21), (1000, 201), (10000, 1068)):
            law = HypergeomLaw(n, n // 5, n // 5)
            dist = DiscreteDistribution.from_law(law)
            assert len(dist.masses) == len(dist.tails) == kept
            assert dist.tails[-1] > 0.0
        total = math.comb(10000, 2000)
        dropped = sum(math.comb(2000, k) * math.comb(8000, 2000 - k) for k in range(1068, 2001))
        assert dropped / total == 0.0

    def test_slot_law_is_cached(self):
        law = HypergeomLaw(1000, 200, 200)
        assert DiscreteDistribution.from_law(law) is DiscreteDistribution.from_law(law)


def exact_sum_counts(law: HypergeomLaw, t_max: int):
    """(counts, denominator) of S_1..S_t_max by exact integer convolution.

    ``counts[s] / denominator`` is P[S_t = s]; the slot counts are
    C(a, k) C(n - a, m - k) over C(n, m), for a law whose support starts at 0.
    """
    n, a, m = law.population, law.successes, law.draws
    base = [math.comb(a, k) * math.comb(n - a, m - k) for k in range(law.support_max + 1)]
    acc = [1]
    for t in range(1, t_max + 1):
        nxt = [0] * (len(acc) + len(base) - 1)
        for i, x in enumerate(acc):
            for j, y in enumerate(base):
                nxt[i + j] += x * y
        acc = nxt
        yield acc, math.comb(n, m) ** t


class TestConvolution:
    def test_identity_at_one_draw(self):
        dist = contact_sums(TABLE_LAW, 1)[-1]
        assert dist.offset == 0
        assert dist.masses.tolist() == [float(exact_hypergeom_pmf(100, 20, 20, k)) for k in range(21)]

    def test_two_slot_tail_reference_value(self):
        dist = contact_sums(TABLE_LAW, 2)[-1]
        assert dist.tail_gt(10) == pytest.approx(0.136, abs=5e-4)

    def test_three_slot_tail_reference_value(self):
        dist = contact_sums(TABLE_LAW, 3)[-1]
        assert dist.tail_gt(10) == pytest.approx(0.699, abs=5e-4)

    @pytest.mark.parametrize("t", [1, 2, 3, 5])
    def test_mean_is_additive(self, t):
        dist = contact_sums(TABLE_LAW, t)[-1]
        values = np.arange(dist.offset, dist.support_max + 1)
        slot_mean = TABLE_LAW.draws * TABLE_LAW.successes / TABLE_LAW.population
        assert math.fsum((values * dist.masses).tolist()) == pytest.approx(t * slot_mean, abs=1e-9)

    @pytest.mark.parametrize("t", [1, 2, 4, 6])
    def test_mass_conserved(self, t):
        masses = contact_sums(TABLE_LAW, t)[-1].masses
        assert math.fsum(masses.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_draw_count_rejected(self):
        with pytest.raises(ValueError):
            contact_sums(TABLE_LAW, 0)

    def test_support_bounds(self):
        dist = contact_sums(TABLE_LAW, 3)[-1]
        assert dist.offset == 0
        assert dist.support_max == 60

    def test_cartel_contact_law(self):
        assert cartel_contact_law(100, 0.2, 20) == TABLE_LAW
        with pytest.raises(ValueError, match="beta = 12/100"):
            cartel_contact_law(100, 0.123, 20)

    def test_one_sum_per_slot(self):
        sums = contact_sums(TABLE_LAW, 4)
        assert len(sums) == 4
        assert [s.support_max for s in sums] == [20, 40, 60, 80]
        assert sums[0] == DiscreteDistribution.from_law(TABLE_LAW)

    @pytest.mark.parametrize("n,t_max,ulps", [(100, 6, 5), (1000, 4, 5)])
    def test_tails_within_ulps_of_exact_convolution(self, n, t_max, ulps):
        # Every t-slot tail above 1e-290 lies within ``ulps`` units in the
        # last place of the exact tail; tails are compared on exact integers.
        # Measured worst cases: 4.16 ulps at n = 100 (the top tail of S_6, a
        # six-fold product), 1.88 at n = 1 000.
        law = HypergeomLaw(n, n // 5, n // 5)
        exact_sums = exact_sum_counts(law, t_max)
        for t, (dist, (counts, denom)) in enumerate(zip(contact_sums(law, t_max), exact_sums), 1):
            suffix = 0
            for s in range(len(counts) - 1, -1, -1):
                suffix += counts[s]
                exact = suffix / denom
                if exact <= 1e-290:
                    continue
                err = abs(Fraction(dist.tail_ge(s)) - Fraction(suffix, denom))
                assert err <= ulps * Fraction(math.ulp(exact)), (t, s)

    @pytest.mark.parametrize("population,draws", [(20, 5), (37, 7), (100, 10)])
    @pytest.mark.parametrize("share", [0.0, 0.2, 0.5, 1.0])
    def test_tails_match_exact_rational_convolution(self, population, draws, share):
        successes = round(share * (population - 1))
        sums = contact_sums(HypergeomLaw(population, successes, draws), 4)
        for t, dist in enumerate(sums, start=1):
            for threshold in range(-1, t * draws + 1):
                exact = exact_convolved_tail_gt(population, successes, draws, t, threshold)
                assert dist.tail_gt(threshold) == pytest.approx(float(exact), abs=1e-12)


def count_convolutions(monkeypatch) -> list[int]:
    """Patch DiscreteDistribution.convolve to count its calls; returns the counter."""
    calls = [0]
    convolve = DiscreteDistribution.convolve

    def counted(self, other):
        calls[0] += 1
        return convolve(self, other)

    monkeypatch.setattr(DiscreteDistribution, "convolve", counted)
    return calls


class TestContactSumChain:
    """contact_sums builds each S_t once per law and keeps it in one chain."""

    @pytest.mark.parametrize("n", [100, 1000, 10000])
    @pytest.mark.parametrize("beta", [0.2, 0.35])
    def test_cached_chain_equals_fresh_convolutions(self, n, beta):
        _chain.cache_clear()
        law = cartel_contact_law(n, beta, n // 5)
        short = contact_sums(law, 2)
        sums = contact_sums(law, 6)  # extends the cached chain from S_2
        assert sums[:2] == short and all(a is b for a, b in zip(sums, short))
        fresh = [DiscreteDistribution.from_law(law).masses]
        for _ in range(5):
            fresh.append(np.convolve(fresh[-1], fresh[0]))
        for dist, masses in zip(sums, fresh):
            assert [x.hex() for x in dist.masses.tolist()] == [x.hex() for x in masses.tolist()]

    def test_second_call_convolves_nothing(self, monkeypatch):
        _chain.cache_clear()
        n, m = 1000, 200
        cap = 10  # distribution_of_T0's first cap at t* = 2
        calls_of = {
            "contact_sums": lambda: contact_sums(cartel_contact_law(n, 0.2, m), cap),
            "exact_q0": lambda: delay.exact_q0(SystemInstance.from_kappa(n, m, 990), 0.2),
            "sawtooth_sweep": lambda: delay.sawtooth_sweep(n, m, 0.2, range(150, 650, 7)),
            "fluid_delay_report": lambda: delay.fluid_delay_report(
                SystemInstance.from_kappa(n, m, 550), 0.2, 0.1
            ),
            "distribution_of_T0": lambda: incentives.distribution_of_T0(
                SystemInstance.from_kappa(n, m, 350), 0.2
            ),
        }
        calls = count_convolutions(monkeypatch)
        for call in calls_of.values():
            call()
        assert calls[0] == cap - 1  # each of S_2..S_10 once
        for name, call in calls_of.items():
            before = calls[0]
            assert call() == call(), name
            assert calls[0] == before, name

    def test_sums_past_the_horizon_stay_transient(self, monkeypatch):
        # At t* = 100 the law reads S_100..S_200; the chain keeps S_1..S_100,
        # and every call convolves only the sums past it.
        _chain.cache_clear()
        inst = SystemInstance.from_kappa(100, 20, 2000)
        law = cartel_contact_law(100, 0.2, 20)
        first = incentives.distribution_of_T0(inst, 0.2)
        assert inst.t_star == 100 and len(first.tails) == 101
        assert len(_chain(law)) == 100
        calls = count_convolutions(monkeypatch)
        assert incentives.distribution_of_T0(inst, 0.2) == first
        assert calls[0] == 100 and len(_chain(law)) == 100
        for t in range(100, 106):
            tail = contact_sums(law, t)[-1].tail_gt(t * inst.m - inst.kappa)
            assert first.tails[t - 100].hex() == tail.hex(), t

    @pytest.mark.parametrize(
        "law, kappa, t",
        [
            (HypergeomLaw(30, 25, 10), 30, 3),  # support from 5: tails of 1 past t
            (HypergeomLaw(100, 20, 20), 10, 1),
            (HypergeomLaw(1000, 200, 200), 350, 2),
            (HypergeomLaw(10_000, 2_000, 2_000), 1_000, 1),  # all 0.0 from u = 2
        ],
    )
    def test_shortfall_tails_read_past_the_chain_as_tail_gt(self, law, kappa, t):
        _chain.cache_clear()
        got = list(itertools.islice(shortfall_tails(law, kappa, t), 10))
        assert len(_chain(law)) == t
        want = [contact_sums(law, u)[-1].tail_gt(u * law.draws - kappa) for u in range(t, t + 10)]
        assert [x.hex() for x in got] == [x.hex() for x in want]

    def test_retained_sums_keep_one_float_tail_array(self):
        _chain.cache_clear()
        sums = contact_sums(cartel_contact_law(10_000, 0.2, 2_000), 6)
        for dist in sums:
            dist.tail_gt(1_000)
            assert dist._tails.typecode == "d"
            assert set(vars(dist)) == {"offset", "masses", "tails", "_tails"}
        assert _chain.cache_info().maxsize == 8


class TestDiscreteDistribution:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            DiscreteDistribution(0, (0.5, 0.4))  # short of 1
        with pytest.raises(ValueError):
            DiscreteDistribution(0, (0.5, 0.6))  # above 1
        with pytest.raises(ValueError):
            DiscreteDistribution(0, (-0.1, 1.1))

    def test_negativity_threshold(self):
        with pytest.raises(ValueError, match=r"^negative probability mass$"):
            DiscreteDistribution(0, (1.0, -2e-15))
        assert DiscreteDistribution(0, (1.0, -1e-16)).masses.tolist() == [1.0, -1e-16]

    def test_nan_mass_rejected(self):
        for masses in ((math.nan,), (math.nan, -5.0, 1.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                DiscreteDistribution(0, masses)

    def test_empty_masses(self):
        with pytest.raises(ValueError, match=r"^total mass 0\.0 deviates from 1"):
            DiscreteDistribution(0, ())

    def test_convolve_returns_plain_floats(self):
        law = DiscreteDistribution.from_law(HypergeomLaw(1000, 200, 200))
        twice = law.convolve(law)
        raw = np.convolve(law.masses, law.masses).tolist()
        assert twice.masses.dtype == np.float64
        assert twice.masses.tolist() == raw
        assert (twice.offset, twice.support_max) == (0, len(raw) - 1)

    def test_tails_clamped_into_unit_interval(self):
        # Both laws pass the 1e-12 mass check; their raw tail sums do not
        # lie in [0, 1].
        assert DiscreteDistribution(0, (0.5, 0.5 + 5e-13)).tail_ge(0) == 1.0
        assert DiscreteDistribution(0, (1.0, -1e-16)).tail_gt(0) == 0.0


def reference_mass_check(masses):
    """The mass check as a plain min() and math.fsum, before the numpy fast path."""
    if masses and min(masses) < -1e-15:
        raise ValueError("negative probability mass")
    total = math.fsum(masses)
    if math.isnan(total):
        raise ValueError("probability mass is NaN")
    if abs(total - 1.0) > 1e-12:
        raise ValueError(f"total mass {total} deviates from 1 by more than 1e-12")


def check_outcome(check, *args):
    """None if ``check(*args)`` passes, else the type and message it raised."""
    try:
        check(*args)
    except Exception as exc:  # noqa: BLE001 - any outcome must match
        return type(exc), str(exc)
    return None


@st.composite
def mass_vectors(draw):
    """Masses over 1e-320..1 whose total sits near 1 or 1 +- 1e-12, with faults.

    One entry carries most of the mass and is set so that the total lands
    within a few ulps of a boundary of the check, or in the band around it.
    NaN, infinite, negative and huge entries go at random positions.
    """
    n = draw(
        st.one_of(
            st.integers(0, 8),
            st.sampled_from([1023, 1024, 1025, 2048, 2049, 9000, 9001, 20_000]),
            st.integers(0, 20_000),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = 10.0 ** rng.uniform(-320.0, 0.0, size=n)
    if n:
        target = draw(st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12]))
        target += draw(st.one_of(st.just(0.0), st.floats(-2e-12, 2e-12)))
        big = int(rng.integers(n))
        x[big] = 0.0
        rest = math.fsum(x)
        if rest > 0.0:
            x = x / rest * (draw(st.floats(0.0, 0.9)) * target)
        x[big] = target - math.fsum(x)
        ulps = draw(st.integers(-4, 4))
        for _ in range(abs(ulps)):
            x[big] = math.nextafter(x[big], math.copysign(math.inf, ulps))
    masses = x.tolist()
    faults = st.sampled_from([math.nan, math.inf, -math.inf, -5.0, -2e-15, -1e-15, -1e-16, 1e308])
    for value in draw(st.lists(faults, max_size=3 if n else 0)):
        masses[draw(st.integers(0, n - 1))] = value
    return tuple(masses)


class TestMassCheck:
    """The numpy fast path decides exactly as min() and math.fsum do."""

    @settings(max_examples=200, deadline=None)
    @given(masses=mass_vectors())
    def test_matches_fsum_rule(self, masses):
        assert check_outcome(DiscreteDistribution, 0, masses) == check_outcome(
            reference_mass_check, masses
        )

    @pytest.mark.parametrize(
        "masses, message",
        [
            # min() keeps a leading NaN and never sees the -5.0; it skips a trailing one.
            ((math.nan, -5.0, 1.0), "probability mass is NaN"),
            ((1.0, -5.0, math.nan), "negative probability mass"),
        ],
    )
    def test_min_order_quirk(self, masses, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DiscreteDistribution(0, masses)

    def test_undecided_band_takes_fsum_path(self):
        # Within 1e-12 of 1 but too close to the edge for the block-sum bound.
        for masses in ((1.0 - 9e-13,), (0.5, 0.5 + 9e-13)):
            assert not _mass_surely_ok(np.array(masses))
            assert DiscreteDistribution(0, masses).masses.tolist() == list(masses)
        with pytest.raises(ValueError, match=r"deviates from 1 by more than 1e-12$"):
            DiscreteDistribution(0, (1.0 + 1.1e-12,))

    def test_contact_sums_take_fast_path(self):
        for law in contact_sums(cartel_contact_law(10_000, 0.2, 2_000), 6):
            assert _mass_surely_ok(law.masses)

    def test_array_mirrors_masses_outside_eq_and_repr(self):
        # masses is one read-only float64 array; eq compares offset and
        # masses, and the stored tails stay outside eq and repr.
        law = DiscreteDistribution.from_law(TABLE_LAW)
        twice = law.convolve(law)
        for d in (law, twice):
            assert d.masses.dtype == np.float64
            assert not d.masses.flags.writeable
            assert "tails" not in repr(d)
            assert d == DiscreteDistribution(d.offset, d.masses.tolist())
            assert d != DiscreteDistribution(d.offset + 1, d.masses)
        assert law.tails is not None and twice.tails is None
        assert law == DiscreteDistribution(law.offset, law.masses)
        given = np.array(law.masses)
        assert DiscreteDistribution(law.offset, given).masses is not given
        assert given.flags.writeable


def assert_tails_are_fsum(dist, indices=None):
    """tail_ge reads the clamped math.fsum of the masses from each index, bit for bit."""
    masses = dist.masses.tolist()
    for i in range(len(masses) + 2) if indices is None else indices:
        want = 1.0 if i == 0 else min(1.0, max(0.0, math.fsum(masses[i:])))
        assert dist.tail_ge(dist.offset + i).hex() == want.hex(), i


def flank(rng, cut, size):
    """``size`` entries below ``cut``: zeros, subnormals, values just under it, random."""
    values = np.stack(
        [
            np.zeros(size),
            5e-324 * rng.integers(1, 2**20, size=size),
            np.full(size, math.nextafter(cut, 0.0)),
            cut * rng.uniform(0.0, 1.0, size=size),
            10.0 ** rng.uniform(-320.0, math.log10(cut), size=size),
        ]
    )[rng.integers(0, 5, size=size), np.arange(size)]
    return (values * rng.choice([-1.0, 1.0], size=size)).tolist()


@st.composite
def tail_vectors(draw):
    """Masses whose tails probe the rounding of ``tail_ge``.

    The last core entries are a double ``head`` and a dyadic ``nudge`` of a
    quarter-ulp multiple, so the slice from ``head`` on sums to a power of
    two (1.0 included), to a double next to one, or to the midpoint between
    two doubles.  Random masses in front carry the rest of the unit mass,
    with zeros and subnormals among them, and flanks of entries below a cut
    2**-120 of the largest core |mass| (zeros, subnormals, values just under
    it, either sign) sit at both ends.  An upper flank's entries can tip a
    midpoint either way.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    top = draw(
        st.one_of(
            st.sampled_from([1.0, 0.5, 0.25, 2.0**-30, 2.0**-90, 2.0**-110]),
            st.floats(2.0**-110, 1.0),
        )
    )
    head = draw(st.sampled_from([top, math.nextafter(top, 0.0)]))
    nudge = draw(st.integers(-3, 4)) * math.ulp(top) / 4
    body = []
    if top < 1.0:
        body = 10.0 ** rng.uniform(-40.0, 0.0, size=draw(st.integers(1, 30)))
        body = (body / math.fsum(body) * (1.0 - top)).tolist()
        for _ in range(draw(st.integers(0, 3))):
            body.insert(draw(st.integers(0, len(body))), draw(st.sampled_from([0.0, 5e-324, 1e-310])))
    core = [*body, head, nudge]
    cut = math.ldexp(2.0**-120, math.frexp(max(map(abs, core)))[1])
    sizes = st.one_of(st.integers(0, 6), st.sampled_from([50, 300]))
    return tuple(flank(rng, cut, draw(sizes)) + core + flank(rng, cut, draw(sizes)))


TAIL_BETAS = (0.1, 0.2, 0.5)  # cartel shares of the contact-sum tail checks


class TestTailPath:
    """Tails of laws without stored tails equal math.fsum bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(masses=tail_vectors())
    def test_matches_fsum_at_every_index(self, masses):
        assert_tails_are_fsum(DiscreteDistribution(0, masses))

    @pytest.mark.parametrize(
        "masses",
        [
            (1.0,),
            (1.0 - 1e-13,),
            (0.0, 1.0),
            (1.0, -1e-16),
            (5e-324, 1e-310, 1.0, 1e-300, 5e-324, 0.0),
            # The slice from index 1 sums to 1 - 2**-54, the midpoint below
            # 1.0 (a tie that rounds to 1.0); the flank's -2**-200 moves it
            # under the midpoint, so fsum reads the double below 1.0.
            (0.0, 0.5, 0.5 - 2.0**-54, -(2.0**-200)),
            # Entries just under 2**-119, far above half an ulp of 2**-100,
            # change the sum of the slice from 2**-100 on.
            (1.0, 2.0**-100, *[math.nextafter(2.0**-119, 0.0)] * 3),
            # Zero runs at both ends, which the suffix table skips.
            (0.0, 0.0, 0.0, 0.25, 0.0, 0.75, 0.0, 0.0),
            # The least mass the check accepts; the tails past 0.5 + 1e-15
            # sum below zero and read 0.0.
            (0.0, 0.5, 0.5 + 1e-15, -1e-15, 0.0, 5e-324),
        ],
    )
    def test_edge_laws(self, masses):
        assert_tails_are_fsum(DiscreteDistribution(0, masses))

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_contact_sums_n100_every_index(self, t):
        for beta in TAIL_BETAS:
            assert_tails_are_fsum(contact_sums(cartel_contact_law(100, beta, 20), t)[-1])

    @pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
    def test_contact_sums_n1000_every_index(self, t):
        for beta in TAIL_BETAS:
            assert_tails_are_fsum(contact_sums(cartel_contact_law(1_000, beta, 200), t)[-1])

    def test_contact_sums_n10000_sample(self):
        for beta in TAIL_BETAS:
            for dist in contact_sums(cartel_contact_law(10_000, beta, 2_000), 6)[1:]:
                assert_tails_are_fsum(dist, range(0, len(dist.masses) + 2, 97))


class TestKlDivergence:
    def test_identical_arguments(self):
        assert kl_divergence(0.2, 0.2) == 0.0

    def test_boundary_convention(self):
        assert kl_divergence(1.0, 0.2) == pytest.approx(math.log(5.0), rel=1e-12)
        assert kl_divergence(0.0, 0.2) == pytest.approx(-math.log(0.8), rel=1e-12)

    def test_interior_value(self):
        assert kl_divergence(0.5, 0.2) == pytest.approx(0.22315, abs=1e-5)

    def test_reference_endpoints_rejected(self):
        with pytest.raises(ValueError):
            kl_divergence(0.5, 0.0)
        with pytest.raises(ValueError):
            kl_divergence(0.5, 1.0)

    @given(
        theta=st.floats(0.0, 1.0),
        beta=st.floats(0.01, 0.99),
    )
    @example(theta=0.01, beta=0.010000000000000002)  # the terms cancel to -2.2e-18 unclamped
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, theta, beta):
        assert kl_divergence(theta, beta) >= 0.0


class TestChernoffBound:
    def test_equal_arguments_give_vacuous_bound(self):
        assert chernoff_tail_bound(3, 20, 0.2, 0.2) == 1.0

    def test_composes_with_divergence(self):
        expected = math.exp(-20 * kl_divergence(0.55, 0.2))
        assert chernoff_tail_bound(1, 20, 0.55, 0.2) == pytest.approx(expected)

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_dominates_exact_upper_tail(self, t):
        """exp(-tmD) caps P[S_t/(tm) >= theta] wherever theta > beta."""
        dist = contact_sums(TABLE_LAW, t)[-1]
        tm = t * 20
        for threshold in range(0, tm + 1):
            theta = threshold / tm
            if theta <= 0.2:
                continue
            exact = dist.tail_ge(threshold)
            bound = chernoff_tail_bound(t, 20, theta, 0.2)
            assert exact <= bound + 1e-12

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_dominates_exact_lower_tail(self, t):
        dist = contact_sums(TABLE_LAW, t)[-1]
        tm = t * 20
        for threshold in range(0, tm + 1):
            theta = threshold / tm
            if theta >= 0.2:
                continue
            exact = 1.0 - dist.tail_ge(threshold + 1)  # P[S <= threshold]
            bound = chernoff_tail_bound(t, 20, theta, 0.2)
            assert exact <= bound + 1e-12


class TestScipyCrossCheck:
    """scipy.stats as a second independent oracle beside the rational path."""

    def test_hypergeom_pmf_and_tails(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for population, successes, draws in [(100, 20, 20), (500, 125, 60)]:
            law = HypergeomLaw(population, successes, draws)
            ref = scipy_stats.hypergeom(population, successes, draws)
            for k in range(law.support_min, law.support_max + 1):
                assert hypergeom_pmf(law, k) == pytest.approx(float(ref.pmf(k)), rel=1e-9)
            for r in range(law.support_min, law.support_max + 1):
                assert hypergeom_tail_ge(law, r) == pytest.approx(float(ref.sf(r - 1)), rel=1e-9)

    def test_binomial_tail(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        for n, p in [(20, 0.2), (63, 0.91), (7, 0.005)]:
            ref = scipy_stats.binom(n, p)
            for r in range(0, n + 1):
                assert float(binomial_tail_ge(n, p, r)) == pytest.approx(
                    float(ref.sf(r - 1)), rel=1e-9, abs=1e-300
                )


class TestBinomialTail:
    def test_threshold_at_or_below_zero(self):
        assert binomial_tail_ge(5, 0.3, 0) == 1.0
        assert binomial_tail_ge(5, 0.3, -2) == 1.0

    def test_empty_trials(self):
        assert binomial_tail_ge(0, 0.3, 1) == 0.0

    def test_three_coin_flips(self):
        # 8 equally likely outcomes; 4 have at least two heads.
        assert float(binomial_tail_ge(3, 0.5, 2)) == pytest.approx(0.5, rel=1e-12)

    def test_pmf_vector_total(self):
        masses = binomial_pmf_vector(40, 0.37).masses
        assert math.fsum(masses.tolist()) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_p(self):
        assert binomial_tail_ge(5, 0.0, 1) == 0.0
        assert binomial_tail_ge(5, 1.0, 5) == 1.0

    @pytest.mark.parametrize("n", [1, 20, 2_000, 10_000])
    @pytest.mark.parametrize("p", [1e-4, 0.01, 0.3, 0.5, 0.99, 1.0])
    def test_pmf_vector_evaluates_only_the_nonzero_run(self, n, p):
        # Every mass equals exp of its log-mass, zeros included, as when all
        # n + 1 log-masses were evaluated.
        full = [
            math.exp(lp) if (lp := log_binomial_pmf(n, p, k)) != NEG_INF else 0.0
            for k in range(n + 1)
        ]
        got = binomial_pmf_vector(n, p).masses.tolist()
        assert [x.hex() for x in got] == [x.hex() for x in full]

    def test_zero_p_is_a_point_mass(self):
        assert binomial_pmf_vector(7, 0.0) == DiscreteDistribution(0, (1.0,))
        assert binomial_pmf_vector(0, 0.0) == DiscreteDistribution(0, (1.0,))

    @pytest.mark.parametrize("n, total", [(20, 20), (100, 60), (1000, 400)])
    def test_zero_p_convolution_keeps_every_mass(self, n, total):
        # The point mass gives back the law's masses bit for bit, as the
        # padded vector (1, 0, ..., 0) did, and every tail with them.
        law = contact_sums(cartel_contact_law(n, 0.2, n // 5), 1)[0]
        point = law.convolve(binomial_pmf_vector(total, 0.0))
        padded = law.convolve(DiscreteDistribution(0, (1.0,) + (0.0,) * total))
        assert point.masses.tolist() == law.masses.tolist()
        assert padded.masses[: len(law.masses)].tolist() == law.masses.tolist()
        assert not padded.masses[len(law.masses):].any()
        for r in range(-1, law.support_max + 2):
            assert point.tail_gt(r).hex() == padded.tail_gt(r).hex()


class TestMCEstimate:
    @pytest.mark.parametrize("trials", [1, 200, 10_000])
    def test_wilson_bounds_ordered_and_exact_at_the_ends(self, trials):
        for hits in sorted({0, 1, trials - 1, trials}):
            est = MCEstimate.from_counts(hits, trials)
            p = hits / trials
            assert est.frequency == p
            assert est.stderr == math.sqrt(p * (1 - p) / trials)
            assert 0.0 <= est.ci_low <= est.frequency <= est.ci_high <= 1.0
            assert (est.ci_low == 0.0) == (hits == 0)
            assert (est.ci_high == 1.0) == (hits == trials)

    @pytest.mark.parametrize("trials", [1, 200, 10_000])
    def test_zero_hits_keep_a_nondegenerate_upper_bound(self, trials):
        # Wilson's upper bound at zero hits is z^2 / (n + z^2).
        est = MCEstimate.from_counts(0, trials)
        assert est.ci_high == pytest.approx(1.96**2 / (trials + 1.96**2), rel=1e-12)
        assert MCEstimate.from_counts(trials, trials).ci_low == pytest.approx(
            1.0 - est.ci_high, rel=1e-12
        )

    @pytest.mark.parametrize("hits,trials", [(1, 200), (37, 200), (199, 200), (5_000, 10_000)])
    def test_interior_bounds_solve_the_score_equation(self, hits, trials):
        # The Wilson bounds are the roots of (p_hat - q)^2 = z^2 q (1 - q) / n.
        est = MCEstimate.from_counts(hits, trials)
        p = hits / trials
        for q in (est.ci_low, est.ci_high):
            assert (p - q) ** 2 == pytest.approx(1.96**2 * q * (1 - q) / trials, rel=1e-9)
