"""Instance geometry: thresholds, horizons, slack sawtooth, the static schedule."""

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
    """The static schedule's t* * m and delta, cross-checked by a running sum."""

    @pytest.mark.parametrize(
        "n, m, kappas",
        [
            (100, 20, range(1, 121)),  # the default sweep; knife edges at multiples of 20
            (7, 1, range(1, 8)),  # one lane a slot: every kappa is a knife edge
            (1000, 200, range(1, 1001)),
            (10_000, 2000, [1, 1999, 2000, 2001, 3500, 6000, 7001, 9999, 10_000]),
        ],
        ids=["n100", "m1", "n1000", "n10000"],
    )
    def test_horizon_matches_slot_by_slot_sum(self, n, m, kappas):
        for kappa in kappas:
            inst = SystemInstance.from_kappa(n, m, kappa)
            schedule = ContactSchedule.static(inst)
            got = (inst.t_star, schedule.total_by_horizon, schedule.delta_rec)
            assert got == slot_by_slot_horizon((m,) * inst.t_star, kappa), kappa

    @given(n=st.integers(1, 10_000), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_horizon_matches_slot_by_slot_sum_random(self, n, data):
        m = data.draw(st.integers(1, n))
        s = data.draw(st.integers(1, 8))
        inst = SystemInstance(n, m, s, data.draw(st.integers(1, 3 * n * s)))
        schedule = ContactSchedule.static(inst)
        got = (inst.t_star, schedule.total_by_horizon, schedule.delta_rec)
        assert got == slot_by_slot_horizon((m,) * inst.t_star, inst.kappa)

    def test_two_slot_recovery(self):
        schedule = ContactSchedule.static(SystemInstance(100, 20, 1, 30))
        assert (schedule.total_by_horizon, schedule.delta_rec) == (40, 10)


class TestCartelLaneCount:
    def test_float_fraction(self):
        assert cartel_lane_count(100, 0.2) == 20

    def test_exact_fraction(self):
        assert cartel_lane_count(100, Fraction(1, 5)) == 20
        assert cartel_lane_count(3, Fraction(1, 3)) == 1

    @pytest.mark.parametrize("n", [1, 3, 7, 10, 100, 997, 1000, 10_000])
    def test_integral_fraction_counts_as_its_exact_product(self, n):
        # float(beta) * n lands within the 1e-9 tolerance of every integral k
        for k in range(n + 1):
            assert cartel_lane_count(n, Fraction(k, n)) == k

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
