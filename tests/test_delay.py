"""Delay analysis: exact full-withholding law, fluid regimes, and bounds."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from pivotk.delay import (
    DelayRegime,
    exact_q0,
    fluid_delay_report,
    kl_delay_bound,
    knife_edge_q0,
    sawtooth_sweep,
)
from pivotk.config import AnalysisConfig
from pivotk.geometry import ContactSchedule, SystemInstance, cartel_lane_count
from pivotk.intra_slot import q_micro
from pivotk.probability import DiscreteDistribution, cartel_contact_law, kl_divergence
from pivotk.ratchet import honest_miss_delay_bound

from conftest import (
    exact_convolved_tail_gt,
    knife_edge_grid,
    reference_fluid_bound,
    reference_no_delay_upper,
)


def _hex(bound):
    return None if bound is None else bound.hex()


def _slack_bound(inst, beta):
    """kl_delay_bound at the full-withholding slack fraction delta / (t* m)."""
    beta_frac = cartel_lane_count(inst.n, beta) / inst.n
    return kl_delay_bound(inst.t_star, inst.m, inst.delta / (inst.t_star * inst.m), beta_frac)


class TestExactQ0:
    def test_table_rows(self, table_instances, beta):
        expected = {10: 8.0e-5, 20: 0.993, 30: 0.136, 50: 0.699}
        for kappa, value in expected.items():
            q0 = float(exact_q0(table_instances[kappa], beta))
            assert q0 == pytest.approx(value, rel=5e-3)

    def test_deep_horizon_close_to_one(self, table_instances, beta):
        q0 = float(exact_q0(table_instances[100], beta))
        assert q0 > 1 - 1e-4
        assert q0 < 1.0

    def test_no_cartel(self, table_instances):
        assert float(exact_q0(table_instances[30], 0.0)) == 0.0

    def test_against_exact_rational_convolution(self, beta):
        inst = SystemInstance.from_kappa(50, 10, 23)  # t*=3, delta=7
        expected = float(exact_convolved_tail_gt(50, 10, 10, 3, 7))
        assert float(exact_q0(inst, beta)) == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_cartel_fraction(self):
        inst = SystemInstance.from_kappa(100, 20, 30)
        values = [float(exact_q0(inst, k / 100)) for k in range(0, 101, 5)]
        # slack of 1e-12 absorbs convolution rounding where q0 saturates at 1
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_ten_thousand_lanes_at_six_slots(self):
        # S_6 of the exact slot law passes the 1e-12 mass check at n = 10 000.
        inst = SystemInstance.from_kappa(10_000, 2000, 11_900)
        assert (inst.t_star, inst.delta) == (6, 100)
        assert exact_q0(inst, 0.2) == 1.0
        knife = SystemInstance.from_kappa(10_000, 2000, 12_000)
        assert abs(exact_q0(knife, 0.2) - knife_edge_q0(knife, 0.2)) <= 1e-12

    def test_never_above_one_at_scale(self):
        # The float-convolved laws here carry excess mass inside the 1e-12
        # mass check; unclamped, q0 read 1 + 2.3e-14 at kappa=200.
        for kappa in (200, 600):
            assert 0.0 <= exact_q0(SystemInstance.from_kappa(1000, 200, kappa), 0.2) <= 1.0
        rows = sawtooth_sweep(1000, 200, 0.2, range(190, 610, 10))
        assert all(0.0 <= r.q0 <= 1.0 and 0.0 <= r.q_rat <= 1.0 for r in rows)


class TestKnifeEdgeClosedForm:
    def test_single_slot_value(self, table_instances, beta):
        assert float(knife_edge_q0(table_instances[20], beta)) == pytest.approx(
            0.993, abs=5e-4
        )

    def test_rejects_positive_slack(self, table_instances, beta):
        with pytest.raises(ValueError):
            knife_edge_q0(table_instances[30], beta)

    def test_no_cartel(self, table_instances):
        assert float(knife_edge_q0(table_instances[20], 0.0)) == 0.0

    def test_agrees_with_exact_law(self, beta):
        # every knife edge is just "at least one contact by the horizon"
        for n, m in [(100, 20), (100, 10), (1000, 50), (60, 6)]:
            for t_star in (1, 2, 5):
                inst = SystemInstance.from_kappa(n, m, m * t_star)
                closed = float(knife_edge_q0(inst, beta))
                exact = float(exact_q0(inst, beta))
                assert abs(closed - exact) <= 1e-12

    def test_deep_horizon_strictly_below_one(self, table_instances, beta):
        assert float(knife_edge_q0(table_instances[100], beta)) < 1.0

    def test_slot_law_value_is_correctly_rounded(self):
        # 1 - P[A = 0]^t* with P[A = 0] = C(n - a, m) / C(n, m)
        cases = 0
        for inst, beta in knife_edge_grid():
            marked = cartel_lane_count(inst.n, beta)
            p0 = Fraction(math.comb(inst.n - marked, inst.m), math.comb(inst.n, inst.m))
            assert knife_edge_q0(inst, beta) == float(1 - p0**inst.t_star), (inst, beta)
            cases += 1
        assert cases > 300


class TestFluidDelayReport:
    def test_zero_slack_is_delay_likely_for_every_rate(self, table_instances, beta):
        inst = table_instances[20]
        knife = float(knife_edge_q0(inst, beta))
        for w in (0.0, 0.3, 0.7, 0.99):
            report = fluid_delay_report(inst, beta, w)
            assert report.regime is DelayRegime.DELAY_LIKELY
            assert report.theta_w == 0.0
            assert report.exact_probability == pytest.approx(knife, rel=1e-12)

    def test_impossible_regime(self, table_instances, beta):
        inst = table_instances[30]  # delta=10, t*m=40
        report = fluid_delay_report(inst, beta, 0.8)  # threshold 50 > 40
        assert report.regime is DelayRegime.IMPOSSIBLE
        assert report.exact_probability == 0.0
        assert report.kl_bound is None

    def test_full_withholding_matches_exact_q0(self, table_instances, beta):
        inst = table_instances[30]
        report = fluid_delay_report(inst, beta, 0.0)
        assert report.exact_probability == pytest.approx(0.136, abs=5e-4)
        assert report.regime is DelayRegime.DELAY_RARE
        expected_bound = math.exp(-40 * kl_divergence(0.25, 0.2))
        assert report.kl_bound == pytest.approx(expected_bound, rel=1e-12)
        assert report.exact_probability <= report.kl_bound

    def test_bound_sides(self, table_instances, beta):
        inst = table_instances[30]
        for w in [i / 20 for i in range(20)]:
            report = fluid_delay_report(inst, beta, w)
            if report.regime is DelayRegime.DELAY_RARE:
                assert report.exact_probability <= report.kl_bound + 1e-12
            elif report.regime is DelayRegime.DELAY_LIKELY:
                assert 1.0 - report.exact_probability <= report.kl_bound + 1e-12

    def test_exact_nonincreasing_in_w(self, table_instances, beta):
        inst = table_instances[30]
        values = [
            fluid_delay_report(inst, beta, w).exact_probability
            for w in [i / 50 for i in range(50)]
        ]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_strict_threshold_boundary(self, beta):
        # delta=10, w=0.5 puts the threshold exactly at 20: the event is S > 20,
        # so the mass at 20 must not count.
        inst = SystemInstance.from_kappa(100, 20, 30)
        report = fluid_delay_report(inst, beta, 0.5)
        from pivotk.probability import HypergeomLaw, contact_sums

        dist = contact_sums(HypergeomLaw(100, 20, 20), 2)[-1]
        assert report.exact_probability == pytest.approx(dist.tail_ge(21), rel=1e-12)

    def test_full_inclusion_rejected(self, table_instances, beta):
        with pytest.raises(ValueError):
            fluid_delay_report(table_instances[30], beta, 1.0)

    def test_degenerate_regime_carries_no_bound(self, beta):
        # delta/(t* m) = 8/40 hits the cartel fraction exactly
        inst = SystemInstance.from_kappa(100, 20, 32)
        report = fluid_delay_report(inst, beta, 0.0)
        assert report.regime is DelayRegime.DEGENERATE
        assert report.kl_bound is None
        assert 0.0 < report.exact_probability < 1.0


class TestNoDelayUpper:
    # In DELAY_LIKELY, kl_delay_bound at the slack fraction caps the on-time
    # probability 1 - q0 under full withholding.
    def test_dominates_on_time_probability(self, beta):
        likely = 0
        for kappa in range(1, 121):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            regime, bound = _slack_bound(inst, beta)
            if regime is not DelayRegime.DELAY_LIKELY:
                continue
            likely += 1
            on_time = 1.0 - float(exact_q0(inst, beta))
            assert on_time <= bound + 1e-12
        assert likely > 0

    def test_vacuous_when_slack_fraction_large(self, beta):
        inst = SystemInstance.from_kappa(100, 20, 10)  # delta/(t*m) = 0.5 > beta
        assert _slack_bound(inst, beta)[0] is DelayRegime.DELAY_RARE

    def test_vanishes_at_deep_horizons(self, beta):
        inst = SystemInstance.from_kappa(100, 20, 1200)
        regime, bound = _slack_bound(inst, beta)
        assert regime is DelayRegime.DELAY_LIKELY
        assert bound < 1e-40


class TestKlDelayBound:
    def test_three_regimes(self):
        assert kl_delay_bound(2, 20, 0.25, 0.2) == (
            DelayRegime.DELAY_RARE, math.exp(-40 * kl_divergence(0.25, 0.2))
        )
        assert kl_delay_bound(2, 20, 0.05, 0.2) == (
            DelayRegime.DELAY_LIKELY, math.exp(-40 * kl_divergence(0.05, 0.2))
        )
        for theta, beta_frac in [(0.2, 0.2), (0.25, 0.0), (0.25, 1.0)]:
            assert kl_delay_bound(2, 20, theta, beta_frac) == (DelayRegime.DEGENERATE, None)

    def test_matches_the_side_explicit_rules_bit_for_bit(self):
        # fluid_delay_report and the on-time bound (kl_delay_bound in
        # DELAY_LIKELY, else 1) against the rules that picked each tail by
        # hand; n = 100, m = 20, kappa 32, w = 0 puts delta/(t* m) = 8/40 on
        # beta 0.2 exactly.
        seen = set()
        for n in (10, 20, 50, 100):
            for m in (n // 5, n // 2):
                for kappa in range(1, 3 * m + 1):
                    inst = SystemInstance.from_kappa(n, m, kappa)
                    for beta in (0.0, 0.2, 0.5):
                        beta_frac = cartel_lane_count(n, beta) / n
                        regime, bound = _slack_bound(inst, beta)
                        on_time = bound if regime is DelayRegime.DELAY_LIKELY else 1.0
                        assert on_time.hex() == reference_no_delay_upper(inst, beta).hex(), (
                            inst, beta,
                        )
                        for w in (0.0, 0.25, 0.5, 0.75):
                            report = fluid_delay_report(inst, beta, w)
                            if report.regime is DelayRegime.IMPOSSIBLE:
                                continue
                            want = reference_fluid_bound(inst.t_star, m, report.theta_w, beta_frac)
                            got = (report.regime, _hex(report.kl_bound))
                            assert got == (want[0], _hex(want[1])), (inst, beta, w)
                            seen.add((report.regime, beta, report.theta_w == beta_frac))
        assert {
            (DelayRegime.DEGENERATE, 0.0, False),
            (DelayRegime.DEGENERATE, 0.2, True),
            (DelayRegime.DELAY_RARE, 0.2, False),
            (DelayRegime.DELAY_LIKELY, 0.2, False),
        } <= seen


class TestSawtoothSweep:
    def test_knife_edges_flagged(self, beta):
        rows = sawtooth_sweep(100, 20, beta, range(1, 121))
        assert [r.kappa for r in rows if r.knife_edge] == [20, 40, 60, 80, 100, 120]

    def test_q0_nondecreasing_within_period(self, beta):
        rows = sawtooth_sweep(100, 20, beta, range(1, 121))
        for a, b in zip(rows, rows[1:]):
            if a.t_star == b.t_star:
                assert a.q0 <= b.q0 + 1e-15

    def test_ratchet_coincides_for_single_slot(self, beta):
        rows = sawtooth_sweep(100, 20, beta, range(1, 21))
        for row in rows:
            assert row.t_star == 1
            assert row.q_rat == pytest.approx(row.q0, rel=1e-12)

    @pytest.mark.parametrize("n", [100, 1000])
    def test_q0_is_q_rat_on_single_slot_rows(self, n, beta):
        # Both read the one slot law's correctly rounded tail.
        m = n // 5
        rows = sawtooth_sweep(n, m, beta, range(1, m + 1))
        assert [r.t_star for r in rows] == [1] * m
        assert [r.q0 for r in rows] == [r.q_rat for r in rows]

    @pytest.mark.parametrize("config", ["default", "n1000"])
    def test_single_slot_tails_match_their_functions(self, config):
        # The sweep reads both tails off S_1; the honest-miss bound at
        # epsilon 0 and q_micro build a schedule and a contact law of their own.
        if config == "default":
            cfg = AnalysisConfig.default()
            n, m, beta = cfg.instance.n, cfg.instance.m, cfg.beta
            kappas = range(cfg.sweep_min, cfg.sweep_max + 1)
        else:
            n, m, beta, kappas = 1000, 200, 0.2, range(1, 1001)
        rows = sawtooth_sweep(n, m, beta, kappas)
        assert [r.kappa for r in rows] == list(kappas)
        law = DiscreteDistribution.from_law(cartel_contact_law(n, beta, m))
        for row in rows:
            inst = SystemInstance.from_kappa(n, m, row.kappa)
            q_rat = honest_miss_delay_bound(ContactSchedule.static(inst), 0.0, law)
            assert row.q_rat.hex() == q_rat.hex(), row.kappa
            assert row.q_micro.hex() == q_micro(inst, beta).hex(), row.kappa

    def test_empty_range_rejected(self, beta):
        with pytest.raises(ValueError):
            sawtooth_sweep(100, 20, beta, [])

    def test_row_shape(self, beta):
        rows = sawtooth_sweep(100, 20, beta, [30])
        assert len(rows) == 1
        assert (rows[0].kappa, rows[0].t_star, rows[0].delta) == (30, 2, 10)
