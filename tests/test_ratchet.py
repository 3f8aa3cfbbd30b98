"""Adaptive-sender ratchet: first-slot tails, multi-slot spreads, honest misses."""

from __future__ import annotations

import inspect
import math

import pytest

from pivotk.config import AnalysisConfig
from pivotk.delay import exact_q0, sawtooth_sweep
from pivotk.geometry import ContactSchedule, SystemInstance
from pivotk.probability import (
    DiscreteDistribution,
    HypergeomLaw,
    binomial_pmf_vector,
    cartel_contact_law,
    contact_sums,
)
from pivotk.ratchet import _with_misses, honest_miss_delay_bound
from pivotk.simulator import (
    FullWithhold,
    MinimalSabotage,
    RatchetSpread,
    StationaryW,
    estimate_delay,
    estimate_ratchet_full_withhold,
)

from conftest import exact_ratchet_tail_gt, reference_ratchet_estimate

# Largest allowed distance between a Monte-Carlo frequency and the exact
# ratchet law, in binomial standard errors sqrt(p(1-p)/trials) of the exact p.
Z_TOL = 4.0


def even_spread(delta: int, t_star: int) -> tuple[int, ...]:
    """Caps that spread the minimal need delta + 1 as evenly as they can over t* slots."""
    base, extra = divmod(delta + 1, t_star)
    return tuple(base + (1 if i < extra else 0) for i in range(t_star))


def contact_law_dist(n=100, marked=20, m=20):
    return DiscreteDistribution.from_law(HypergeomLaw(n, marked, m))


def sweep_q_rat(beta, kappas):
    """q_rat of the static schedules, read off the sweep at n = 100, m = 20."""
    return {row.kappa: row.q_rat for row in sawtooth_sweep(100, 20, beta, kappas)}


class TestFirstSlotTail:
    def test_two_slot_operating_point(self, beta):
        assert sweep_q_rat(beta, [30])[30] == pytest.approx(8.0e-5, rel=5e-3)

    def test_knife_edge_single_contact_suffices(self, table_instances, beta):
        schedule = ContactSchedule.static(table_instances[100])
        assert schedule.delta_rec == 0
        assert sweep_q_rat(beta, [100])[100] == pytest.approx(0.993, abs=5e-4)

    def test_improves_on_static_for_multi_slot(self, beta):
        # strict improvement everywhere the horizon is multi-slot with slack
        q_rats = sweep_q_rat(beta, range(21, 121))
        for kappa in range(21, 121):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            if inst.t_star < 2:
                continue
            q_rat = q_rats[kappa]
            q0 = float(exact_q0(inst, beta))
            assert q_rat <= q0 + 1e-15
            if not inst.knife_edge:
                assert q_rat < q0

    def test_coincides_for_single_slot(self, beta):
        q_rats = sweep_q_rat(beta, range(1, 21))
        for kappa in range(1, 21):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            assert q_rats[kappa] == pytest.approx(float(exact_q0(inst, beta)), rel=1e-12)


class TestMultiSlotRatchet:
    def test_single_slot_horizon_rejected(self, table_instances, beta):
        with pytest.raises(ValueError):
            estimate_delay(table_instances[10], beta, RatchetSpread((1,)), 10, 0, ratchet=True)

    def test_no_withholding_never_delays(self, table_instances, beta):
        inst = table_instances[30]
        est = estimate_delay(inst, beta, RatchetSpread((0, 0)), 500, 1, ratchet=True)
        assert est.frequency == 0.0

    def test_bounded_by_static_exact(self, table_instances, beta):
        inst = table_instances[30]
        q0 = float(exact_q0(inst, beta))
        for spread in [(20, 0), (11, 0), (6, 5), (4, 4), (0, 20)]:
            est = estimate_delay(inst, beta, RatchetSpread(spread), 2000, 7, ratchet=True)
            assert est.frequency <= q0 + 3 * max(est.stderr, 1e-4)

    def test_all_first_slot_spread_matches_first_slot_tail(self, beta):
        # With delta=2 the first-slot tail is large enough for MC to see.
        inst = SystemInstance.from_kappa(100, 20, 38)
        q_rat = sweep_q_rat(beta, [38])[38]
        est = estimate_delay(inst, beta, RatchetSpread((20, 0)), 4000, 11, ratchet=True)
        assert est.ci_low - 0.02 <= q_rat <= est.ci_high + 0.02

    @pytest.mark.parametrize("kappa", [30, 33, 35, 38, 55])
    def test_matches_exact_ratchet_law(self, beta, kappa):
        inst = SystemInstance.from_kappa(100, 20, kappa)
        pad = (0,) * (inst.t_star - 2)
        trials = 200_000
        for spread in [(20, 0) + pad, (6, 5) + pad, even_spread(inst.delta, inst.t_star)]:
            exact = float(exact_ratchet_tail_gt(100, 20, 20, spread, inst.delta))
            est = estimate_delay(inst, beta, RatchetSpread(spread), trials, 2026, ratchet=True)
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(est.frequency - exact) <= Z_TOL * se, (spread, exact, est)

    def test_full_withholding_dominates_the_fixed_spreads(self):
        # Exact: at every multi-slot kappa of the default sweep, withholding
        # everything in every slot (caps m, ..., m) delays at least as often
        # as withholding only slot one's contacts or the minimal need spread
        # evenly over t* slots.
        m, marked = 20, 20
        for kappa in range(21, 121):
            inst = SystemInstance.from_kappa(100, m, kappa)
            full = exact_ratchet_tail_gt(100, marked, m, (m,) * inst.t_star, inst.delta)
            for spread in [(m,), even_spread(inst.delta, inst.t_star)]:
                other = exact_ratchet_tail_gt(100, marked, m, spread, inst.delta)
                assert full >= other, (kappa, spread)

    def test_first_slot_draws_shared_across_kappas(self, beta):
        # With everything withheld in slot one a trial hits iff its first
        # draw exceeds delta.  One seed gives every kappa the same first
        # draws, so the hits can only grow as delta shrinks with kappa.
        freqs = [
            estimate_delay(
                SystemInstance.from_kappa(100, 20, kappa),
                beta,
                RatchetSpread((20, 0)),
                2000,
                5,
                ratchet=True,
            ).frequency
            for kappa in range(21, 40)
        ]
        assert freqs == sorted(freqs)

    def test_reproducible(self, table_instances, beta):
        policy = RatchetSpread((6, 5))
        a = estimate_delay(table_instances[30], beta, policy, 300, 42, ratchet=True)
        b = estimate_delay(table_instances[30], beta, policy, 300, 42, ratchet=True)
        assert a == b

    @pytest.mark.parametrize("kappa", [38, 40, 55, 58, 75, 78, 95, 98])
    def test_policy_estimate_matches_two_array_reference(self, beta, kappa):
        # t* = 2..5 at delta 0, 2 and 5; the caps cover all-in-slot-one, the
        # even spread, and a spread shorter than t* that stops withholding.
        inst = SystemInstance.from_kappa(100, 20, kappa)
        spreads = [
            (20,),
            even_spread(inst.delta, inst.t_star),
            even_spread(inst.delta, inst.t_star - 1),
        ]
        for spread in spreads:
            for seed in range(20):
                est = estimate_delay(inst, beta, RatchetSpread(spread), 500, seed, ratchet=True)
                ref = reference_ratchet_estimate(inst, beta, spread, 500, seed)
                assert est == ref, (spread, seed)

    @pytest.mark.parametrize("kappa", [38, 58, 79, 100])
    def test_both_senders_share_one_draw_order(self, beta, kappa):
        # Withholding only in slot t* shrinks the pool after the last draw,
        # so the ratchet and the static sender see the same contacts and
        # must give the same estimate.  kappa 38..100 runs t* = 2..5.
        inst = SystemInstance.from_kappa(100, 20, kappa)
        last_slot_only = RatchetSpread((0,) * (inst.t_star - 1) + (inst.m,))
        for seed in range(5):
            ratchet = estimate_delay(inst, beta, last_slot_only, 1000, seed, ratchet=True)
            static = estimate_delay(inst, beta, last_slot_only, 1000, seed)
            assert ratchet == static, seed
            assert ratchet.frequency > 0.0  # the comparison sees hits

    @pytest.mark.parametrize("kappa", [30, 38, 58, 79])
    def test_full_withhold_is_every_cap_at_m(self, beta, kappa):
        inst = SystemInstance.from_kappa(100, 20, kappa)
        for seed in range(5):
            full = estimate_delay(inst, beta, FullWithhold(), 1000, seed, ratchet=True)
            caps = RatchetSpread((inst.m,) * inst.t_star)
            assert full == estimate_delay(inst, beta, caps, 1000, seed, ratchet=True)

    @pytest.mark.parametrize("policy", [StationaryW(0.5), MinimalSabotage()], ids=lambda p: p.name)
    def test_random_and_stateful_policies_give_valid_estimates(self, beta, policy):
        for kappa in (30, 38, 58):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            est = estimate_delay(inst, beta, policy, 1000, 3, ratchet=True)
            assert 0.0 <= est.ci_low <= est.frequency <= est.ci_high <= 1.0

    def test_pool_below_m_rejected(self):
        # n = 30, m = 20 and a cartel of 15: withholding more than ten
        # first-slot contacts leaves fewer than m eligible lanes for slot two.
        inst = SystemInstance.from_kappa(30, 20, 25)
        with pytest.raises(ValueError, match="below m=20"):
            estimate_delay(inst, 0.5, FullWithhold(), 200, 0, ratchet=True)
        with pytest.raises(ValueError, match="below m=20"):
            estimate_ratchet_full_withhold([inst], 0.5, 200, 0)


class TestOnePassFullWithhold:
    @pytest.mark.parametrize(
        "n, m, kappas, trials",
        [
            # the default sweep's multi-slot kappas
            (100, 20, range(21, 121), 200),
            # the n = 1 000 band of the sweep-ratchet-eps-n1000 golden
            (1000, 200, range(201, 1001), 50),
            # t* = 2..5 at n = 10 000; 6 000 and 10 000 are knife edges (kappa = t* m)
            (10_000, 2000, [3500, 6000, 7001, 10_000], 200),
        ],
        ids=["default", "n1000", "n10000"],
    )
    def test_equals_one_estimate_per_kappa(self, n, m, kappas, trials):
        cfg = AnalysisConfig.default()
        instances = [SystemInstance.from_kappa(n, m, kappa) for kappa in kappas]
        shared = estimate_ratchet_full_withhold(instances, cfg.beta, trials, cfg.seed)
        assert shared == [
            estimate_delay(inst, cfg.beta, FullWithhold(), trials, cfg.seed, ratchet=True)
            for inst in instances
        ]
        assert any(est.frequency > 0.0 for est in shared)  # the comparison sees hits
        # the instances may come in any order
        backwards = estimate_ratchet_full_withhold(instances[::-1], cfg.beta, trials, cfg.seed)
        assert backwards == shared[::-1]

    def test_takes_no_policy(self, table_instances, beta):
        # A policy that reads the instance, such as minimal sabotage (t* and
        # delta), withholds differently at each kappa, so one pass cannot
        # serve them all: the estimator has no parameter to pass one through.
        assert "policy" not in inspect.signature(estimate_ratchet_full_withhold).parameters
        with pytest.raises(TypeError, match="policy"):
            estimate_ratchet_full_withhold(
                [table_instances[30]], beta, 50, 0, policy=MinimalSabotage()
            )

    def test_single_slot_kappa_rejected(self, table_instances, beta):
        with pytest.raises(ValueError, match="t_star >= 2"):
            estimate_ratchet_full_withhold([table_instances[30], table_instances[20]], beta, 50, 0)

    def test_instances_must_share_the_pool(self, table_instances, beta):
        # one pass draws from one n and one m
        other = SystemInstance.from_kappa(200, 20, 30)
        with pytest.raises(ValueError, match="share n and m"):
            estimate_ratchet_full_withhold([table_instances[30], other], beta, 50, 0)

    def test_no_instances_give_no_estimates(self, beta):
        assert estimate_ratchet_full_withhold([], beta, 50, 0) == []


class TestHonestMissBound:
    def test_zero_rate_reduces_to_first_slot_tail(self, beta):
        q_rats = sweep_q_rat(beta, (25, 30, 38, 50))
        for kappa in (25, 30, 38, 50):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            schedule = ContactSchedule.static(inst)
            law = contact_law_dist()
            bound = honest_miss_delay_bound(schedule, 0.0, law)
            assert bound.hex() == q_rats[kappa].hex()

    @pytest.mark.parametrize(
        "n, kappas",
        [
            (20, range(1, 9)),
            (100, range(1, 41)),
            (1000, range(1, 401)),
            (10_000, range(2001, 4001, 40)),  # 50 spread deltas
        ],
        ids=["n20", "n100", "n1000", "n10000"],
    )
    def test_zero_rate_is_the_law_tail_bit_for_bit(self, n, kappas):
        # kappa 1..2m runs delta_rec over every slack 0..m-1, at t* = 1 and 2.
        # Bin(M, 0) convolves to the law's own masses, and the bound is the
        # law's correctly rounded tail C(n, m)^-1 sum_{k > delta_rec} N_k.
        m = n // 5
        law = contact_sums(cartel_contact_law(n, 0.2, m), 1)[0]
        total = math.comb(n, m)
        counts = [math.comb(m, k) * math.comb(n - m, m - k) for k in range(m + 1)]
        for kappa in kappas:
            schedule = ContactSchedule.static(SystemInstance.from_kappa(n, m, kappa))
            point = binomial_pmf_vector(schedule.total_by_horizon, 0.0)
            assert law.convolve(point).masses.tolist() == law.masses.tolist()
            exact = sum(counts[schedule.delta_rec + 1 :]) / total
            assert honest_miss_delay_bound(schedule, 0.0, law).hex() == exact.hex()

    def test_nondecreasing_in_miss_rate(self, table_instances):
        schedule = ContactSchedule.static(table_instances[30])
        law = contact_law_dist()
        values = [
            honest_miss_delay_bound(schedule, eps, law)
            for eps in (0.0, 0.005, 0.01, 0.05, 0.2, 0.5)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_small_miss_rate_bracketed(self, table_instances, beta):
        schedule = ContactSchedule.static(table_instances[30])
        law = contact_law_dist()
        lo = honest_miss_delay_bound(schedule, 0.0, law)
        mid = honest_miss_delay_bound(schedule, 0.01, law)
        hi = honest_miss_delay_bound(schedule, 0.05, law)
        assert lo < mid < hi

    def test_certain_misses_saturate(self, table_instances):
        schedule = ContactSchedule.static(table_instances[30])
        law = contact_law_dist()
        assert honest_miss_delay_bound(schedule, 0.999, law) > 0.999999

    def test_nondecreasing_in_withholding_law(self, table_instances):
        schedule = ContactSchedule.static(table_instances[30])
        # point masses at increasing withheld counts dominate stochastically
        values = [
            honest_miss_delay_bound(
                schedule, 0.01, DiscreteDistribution(w, (1.0,))
            )
            for w in (0, 4, 8, 12, 16, 20)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "n, kappas",
        [(1000, range(1, 1001)), (10_000, range(2001, 10_001, 40))],
        ids=["n1000", "n10000-t2-5"],
    )
    def test_positive_rate_is_the_convolved_tail_bit_for_bit(self, n, kappas):
        # One reference law S_1 + Bin(t* m, 0.01) per horizon, built here
        # independently of the bound's own per-horizon law.
        m = n // 5
        law = contact_sums(cartel_contact_law(n, 0.2, m), 1)[0]
        reference = {}
        for kappa in kappas:
            inst = SystemInstance.from_kappa(n, m, kappa)
            if inst.t_star not in reference:
                misses = binomial_pmf_vector(inst.t_star * m, 0.01)
                reference[inst.t_star] = law.convolve(misses)
            exact = reference[inst.t_star].tail_gt(inst.delta)
            schedule = ContactSchedule.static(inst)
            assert honest_miss_delay_bound(schedule, 0.01, law).hex() == exact.hex(), kappa

    def test_equal_laws_built_separately_give_the_same_bound(self, table_instances):
        schedule = ContactSchedule.static(table_instances[30])
        law = contact_law_dist()
        twin = DiscreteDistribution(law.offset, law.masses.tolist())
        shifted = DiscreteDistribution(law.offset + 1, law.masses.tolist())
        for eps in (0.01, 0.05):
            bound = honest_miss_delay_bound(schedule, eps, law)
            assert honest_miss_delay_bound(schedule, eps, twin).hex() == bound.hex()
            assert honest_miss_delay_bound(schedule, eps, shifted) > bound

    def test_one_convolved_law_per_horizon(self):
        # kappa 21..40 share t* = 2: one law is built, the other 19 read it.
        _with_misses.cache_clear()
        law = contact_law_dist()
        for kappa in range(21, 41):
            schedule = ContactSchedule.static(SystemInstance.from_kappa(100, 20, kappa))
            honest_miss_delay_bound(schedule, 0.01, law)
        info = _with_misses.cache_info()
        assert (info.misses, info.hits) == (1, 19)

    def test_invalid_rate_rejected(self, table_instances):
        schedule = ContactSchedule.static(table_instances[30])
        with pytest.raises(ValueError):
            honest_miss_delay_bound(schedule, 1.0, contact_law_dist())
