"""Instance geometry: thresholds, horizons, slack sawtooth, schedules."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotk.geometry import (
    ContactSchedule,
    SystemInstance,
    cartel_lane_count,
)


class TestDeriveInstance:
    def test_single_slot_with_slack(self):
        inst = SystemInstance(100, 20, 1, 10)
        assert (inst.kappa, inst.t_star, inst.delta, inst.r) == (10, 1, 10, 10)
        assert not inst.knife_edge

    def test_single_slot_knife_edge(self):
        inst = SystemInstance(100, 20, 1, 20)
        assert (inst.kappa, inst.t_star, inst.delta) == (20, 1, 0)
        assert inst.knife_edge

    def test_two_slot(self):
        inst = SystemInstance(100, 20, 1, 30)
        assert (inst.kappa, inst.t_star, inst.delta) == (30, 2, 10)

    def test_partial_final_bundle(self):
        inst = SystemInstance(100, 20, 4, 10)
        assert inst.kappa == 3
        assert inst.r_idx == 2  # 10 - 2*4
        full = SystemInstance(100, 20, 4, 12)
        assert full.r_idx == 4  # divisible case: final bundle fully pivotal

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemInstance(10, 11, 1, 5)
        with pytest.raises(ValueError):
            SystemInstance(10, 0, 1, 5)
        with pytest.raises(ValueError):
            SystemInstance(10, 5, 1, 0)

    def test_config_round_trip(self):
        inst = SystemInstance(100, 20, 4, 10)
        assert SystemInstance.from_config(inst.to_config()) == inst
        assert set(inst.to_config()) == {"n", "m", "s", "K"}

    def test_slack_sawtooth(self):
        m = 20
        prev = None
        for kappa in range(1, 10 * m + 1):
            inst = SystemInstance.from_kappa(100, m, kappa)
            assert inst.r + inst.delta == m
            assert (inst.delta == 0) == (kappa % m == 0)
            if prev is not None:
                if kappa % m == 1:  # new slot opened: slack resets to m-1
                    assert inst.delta == m - 1
                else:
                    assert inst.delta == prev.delta - 1
            prev = inst

    @given(n=st.integers(1, 500), m=st.integers(1, 500), kappa=st.integers(1, 2000))
    @settings(max_examples=200, deadline=None)
    def test_derived_identities(self, n, m, kappa):
        m = min(m, n)
        inst = SystemInstance.from_kappa(n, m, kappa)
        assert inst.t_star == -(-kappa // m)
        assert 0 <= inst.delta < m
        assert inst.delta == inst.t_star * m - kappa
        assert inst.r == inst.kappa - (inst.t_star - 1) * m


class TestContactSchedule:
    def test_uniform_matches_static_instance(self):
        inst = SystemInstance(100, 20, 1, 30)
        schedule = ContactSchedule((20,) * 4, kappa=30)
        assert schedule.t_star == inst.t_star
        assert schedule.delta_rec == inst.delta
        assert ContactSchedule.static(inst).delta_rec == inst.delta

    def test_two_slot_recovery(self):
        schedule = ContactSchedule((20, 20), kappa=30)
        assert schedule.t_star == 2
        assert schedule.total_by_horizon == 40
        assert schedule.delta_rec == 10

    def test_over_contacting_single_slot(self):
        schedule = ContactSchedule((25,), kappa=20)
        assert schedule.t_star == 1
        assert schedule.delta_rec == 5

    def test_unreachable_threshold_rejected(self):
        with pytest.raises(ValueError):
            ContactSchedule((5, 5), kappa=11)
        with pytest.raises(ValueError):
            ContactSchedule((), kappa=1)

    def test_slack_strictly_below_final_slot_contacts(self):
        schedule = ContactSchedule((3, 0, 7, 10), kappa=12)
        assert schedule.t_star == 4
        assert 0 <= schedule.delta_rec < 10


class TestCartelLaneCount:
    def test_float_fraction(self):
        assert cartel_lane_count(100, 0.2) == 20

    def test_exact_fraction(self):
        assert cartel_lane_count(100, Fraction(1, 5)) == 20
        assert cartel_lane_count(3, Fraction(1, 3)) == 1

    def test_non_integral_rejected_with_suggestion(self):
        with pytest.raises(ValueError, match="nearest integral cartel size is 21"):
            cartel_lane_count(100, 0.207)
        with pytest.raises(ValueError, match="nearest"):
            cartel_lane_count(10, Fraction(1, 3))

    def test_bounds(self):
        assert cartel_lane_count(10, 0.0) == 0
        assert cartel_lane_count(10, 1.0) == 10
