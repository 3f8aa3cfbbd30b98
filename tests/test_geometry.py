"""Instance geometry: thresholds, horizons, slack sawtooth, schedules."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotk.geometry import (
    ContactSchedule,
    SystemInstance,
    cartel_lane_count,
    cartel_share,
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

    def test_derived_fields_match_closed_forms(self):
        for m in (1, 3, 20):
            for s in (1, 2, 3, 7):
                for K in range(1, 8 * m * s + 2):
                    inst = SystemInstance(100, m, s, K)
                    kappa = -(-K // s)
                    t_star = -(-kappa // m)
                    delta = t_star * m - kappa
                    assert (inst.kappa, inst.t_star, inst.delta) == (kappa, t_star, delta)
                    assert (inst.r, inst.r_idx) == (m - delta, K - (kappa - 1) * s)
                    assert inst.knife_edge == (delta == 0)

    def test_replace_recomputes_derived_fields(self):
        inst = SystemInstance(100, 20, 3, 30)
        moved = dataclasses.replace(inst, K=90)
        assert (moved.kappa, moved.t_star, moved.delta) == (30, 2, 10)
        assert moved == SystemInstance(100, 20, 3, 90)
        assert dataclasses.replace(moved, K=30) == inst

    def test_repr_shows_primary_fields_only(self):
        assert repr(SystemInstance(100, 20, 3, 30)) == "SystemInstance(n=100, m=20, s=3, K=30)"

    def test_derived_fields_cannot_be_passed(self):
        with pytest.raises(TypeError):
            SystemInstance(100, 20, 1, 30, kappa=30)
        with pytest.raises(TypeError):
            SystemInstance(n=100, m=20, s=1, K=30, t_star=2)

    @given(n=st.integers(1, 500), m=st.integers(1, 500), kappa=st.integers(1, 2000))
    @settings(max_examples=200, deadline=None)
    def test_derived_identities(self, n, m, kappa):
        m = min(m, n)
        inst = SystemInstance.from_kappa(n, m, kappa)
        assert inst.t_star == -(-kappa // m)
        assert 0 <= inst.delta < m
        assert inst.delta == inst.t_star * m - kappa
        assert inst.r == inst.kappa - (inst.t_star - 1) * m


def slot_by_slot_horizon(per_slot_contacts, kappa):
    """(t_star, total_by_horizon, delta_rec) from a running sum, slot by slot."""
    acc = 0
    for t, c in enumerate(per_slot_contacts, start=1):
        acc += c
        if acc >= kappa:
            return t, acc, acc - kappa
    raise AssertionError("threshold never reached")


class TestContactSchedule:
    @pytest.mark.parametrize(
        "per_slot, kappa",
        [
            ((0, 0, 5, 0, 9), 5),
            ((0, 0, 5, 0, 9), 6),
            ((0, 20), 1),
            ((3, 0, 0, 0, 7, 10), 11),
            ((50,), 1),
            ((50, 50, 50), 51),
            ((7, 7, 7), 21),
        ],
    )
    def test_horizon_matches_slot_by_slot_sum(self, per_slot, kappa):
        schedule = ContactSchedule(per_slot, kappa)
        got = (schedule.t_star, schedule.total_by_horizon, schedule.delta_rec)
        assert got == slot_by_slot_horizon(per_slot, kappa)

    @given(per_slot=st.lists(st.integers(0, 30), min_size=1, max_size=8), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_horizon_matches_slot_by_slot_sum_random(self, per_slot, data):
        if sum(per_slot) == 0:
            per_slot = [*per_slot, 1]
        kappa = data.draw(st.integers(1, sum(per_slot)))
        schedule = ContactSchedule(tuple(per_slot), kappa)
        got = (schedule.t_star, schedule.total_by_horizon, schedule.delta_rec)
        assert got == slot_by_slot_horizon(per_slot, kappa)

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
        assert repr(schedule) == "ContactSchedule(per_slot_contacts=(20, 20), kappa=30)"

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

    def test_share_is_lane_count_over_n(self):
        assert cartel_share(100, 0.2) == 0.2
        # a beta within the 1e-9 tolerance names the same 20 lanes and the same share
        assert cartel_share(100, 0.2000000000001) == 0.2
        assert cartel_share(3, Fraction(1, 3)) == 1 / 3
        assert cartel_share(10, 0.0) == 0.0
        with pytest.raises(ValueError, match="nearest integral cartel size is 21"):
            cartel_share(100, 0.207)
