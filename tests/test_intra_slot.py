"""Within-slot race: feasibility tails, sealing deadlines, MEV bound sandwich."""

from __future__ import annotations

import decimal
import math
import re
from fractions import Fraction

import pytest

from pivotk.delay import DelayRegime, kl_delay_bound
from pivotk.geometry import SystemInstance, cartel_lane_count, cartel_share
from pivotk.intra_slot import (
    RaceModel,
    g_inc_floor,
    g_inc_upper,
    q_micro,
    rho_bar,
    rho_floors,
)
from pivotk.probability import kl_divergence

from conftest import knife_edge_grid


def exp_race(seal=1.0, reaction=0.1, rate=4.0, slot=None):
    return RaceModel(slot or seal, seal, reaction, rate)


def renormalized_exponential_p(slot, seal, reaction, rate):
    """The per-bundle probability as a callable arrival CDF.

    The CDF is 1 - e^(-rate t) over its value at the deadline, with t clamped
    into [0, seal] and both differences taken with ``math.expm1``, read at the
    cutoff seal - reaction and clamped to at most 1.
    """
    total = math.expm1(-rate * seal)

    def cdf(t):
        t = min(max(t, 0.0), seal)
        return math.expm1(-rate * t) / total

    cutoff = seal - reaction
    return 0.0 if cutoff <= 0 else min(float(cdf(cutoff)), 1.0)


def exact_binomial_tail_ge(a: int, p: Fraction, r: int) -> Fraction:
    return sum(
        (math.comb(a, k) * p**k * (1 - p) ** (a - k) for k in range(r, a + 1)), Fraction(0)
    )


class TestQMicro:
    def test_table_values(self, table_instances, beta):
        assert float(q_micro(table_instances[10], beta)) == pytest.approx(6.5e-4, rel=5e-3)
        assert float(q_micro(table_instances[20], beta)) == pytest.approx(1.9e-21, rel=5e-2)
        assert float(q_micro(table_instances[30], beta)) == pytest.approx(6.5e-4, rel=5e-3)

    def test_knife_edge_needs_every_contact(self, table_instances, beta):
        assert float(q_micro(table_instances[20], beta)) == pytest.approx(
            1.0 / math.comb(100, 20), rel=1e-12
        )

    def test_complementary_to_delay_risk(self, beta):
        # races get easier exactly where the slack protects against delay
        max_slack = SystemInstance.from_kappa(100, 20, 21)  # delta = 19, r = 1
        knife = SystemInstance.from_kappa(100, 20, 40)  # delta = 0, r = 20
        assert float(q_micro(max_slack, beta)) >= float(q_micro(knife, beta))


class TestRhoDeadline:
    """The two deadline closed forms: rho_bar = 1 - (1 - p)^m and rho_floors[r] = p^r."""

    def test_no_reaction_window(self):
        race = exp_race(seal=1.0, reaction=1.2)
        assert race.p == 0.0
        assert rho_bar(5, race) == 0.0
        assert rho_floors(5, race) == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_infeasible_deficit(self):
        # with no cartel bundle in the slot nothing can beat the deadline
        assert rho_bar(0, exp_race()) == 0.0
        assert rho_bar(0, exp_race(reaction=0.0)) == 0.0

    def test_exponential_two_bundle_race(self):
        # long window: truncation mass is negligible, p = 1 - e^{-1}
        race = RaceModel(40.0, 40.0, 39.0, 1.0)
        p = 1.0 - math.exp(-1.0)
        assert race.p == pytest.approx(p, rel=1e-12)
        assert rho_bar(2, race) == pytest.approx(1.0 - (1.0 - p) ** 2, rel=1e-9)
        assert rho_bar(2, race) == pytest.approx(0.8647, abs=5e-5)
        assert rho_floors(2, race)[2] == pytest.approx(p * p, rel=1e-15)

    def test_monotone_in_contacts_and_deficit(self):
        # both forms round one exact value each, so monotonicity holds exactly
        race = exp_race()
        by_m = [rho_bar(m, race) for m in range(0, 15)]
        assert all(x <= y for x, y in zip(by_m, by_m[1:]))
        by_r = rho_floors(10, race)
        assert all(x >= y for x, y in zip(by_r, by_r[1:]))

    def test_monotone_in_reaction_time(self):
        races = [exp_race(reaction=t) for t in (0.0, 0.2, 0.5, 0.9)]
        for values in ([rho_bar(10, race) for race in races], [rho_floors(3, race)[3] for race in races]):
            assert all(x >= y for x, y in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="m must be nonnegative"):
            rho_bar(-1, exp_race())
        with pytest.raises(ValueError, match="r_max must be nonnegative"):
            rho_floors(-1, exp_race())

    @pytest.mark.parametrize("reaction,rate", [(0.1, 4.0), (0.9, 0.5), (0.999, 0.01), (0.0, 4.0)])
    def test_rho_floors_are_exact_powers(self, reaction, rate):
        race = exp_race(reaction=reaction, rate=rate)
        floors = rho_floors(2000, race)
        assert len(floors) == 2001
        for r in (0, 1, 2, 3, 17, 200, 1999, 2000):
            assert floors[r] == float(Fraction(race.p) ** r)


class TestRaceSupremum:
    """``sweep-race`` takes rho_bar(m): P[Bin(a, p) >= r] at its sup over 1 <= r <= a <= m."""

    P_GRID = [Fraction(0), Fraction(1, 1000), Fraction(1, 7), Fraction(1, 2), Fraction(5, 6),
              Fraction(999, 1000), Fraction(1)]

    @pytest.mark.parametrize("p", P_GRID, ids=str)
    def test_exact_argmax_is_full_contacts_single_deficit(self, p):
        for m in range(1, 13):
            values = {
                (a, r): exact_binomial_tail_ge(a, p, r)
                for r in range(1, m + 1)
                for a in range(r, m + 1)
            }
            assert max(values.values()) == values[(m, 1)]
            assert values[(m, 1)] == 1 - (1 - p) ** m

    @pytest.mark.parametrize(
        "race",
        [exp_race(), exp_race(reaction=0.9, rate=0.5), exp_race(reaction=0.999, rate=0.01),
         exp_race(reaction=0.0), exp_race(reaction=1.0)],
        ids=["default", "tight", "tiny-p", "p-one", "p-zero"],
    )
    def test_rho_bar_matches_closed_form(self, race):
        for m in (1, 2, 3, 20, 200, 1999, 2000):
            assert rho_bar(m, race) == float(1 - (1 - Fraction(race.p)) ** m)


class TestMevBounds:
    def test_zero_conditional_success(self, table_instances, beta):
        inst = table_instances[30]
        assert g_inc_upper(inst, q_micro(inst, beta), 0.0, 0.99) == 0.0

    def test_unit_normalization_recovers_feasibility_tail(self, table_instances, beta):
        inst = table_instances[30]
        tail = q_micro(inst, beta)
        assert g_inc_upper(inst, tail, 1.0, 1.0) == tail

    def test_kl_alternative_present_when_deficit_fraction_large(self, table_instances, beta):
        inst = table_instances[30]  # r/m = 0.5 > beta
        regime, bound = kl_delay_bound(1, inst.m, inst.r / inst.m, cartel_share(inst.n, beta))
        assert regime is DelayRegime.DELAY_RARE
        assert bound == pytest.approx(math.exp(-20 * kl_divergence(0.5, 0.2)), rel=1e-12)
        assert q_micro(inst, beta) <= bound

    def test_knife_edge_exact_and_power_bound(self, table_instances, beta):
        inst = table_instances[20]  # r = m = 20: every contact lands on a cartel lane
        tail = q_micro(inst, beta)
        assert tail == float(Fraction(1, math.comb(100, 20)))
        assert tail <= cartel_share(inst.n, beta) ** inst.m

    def test_knife_edge_exact_is_correctly_rounded(self):
        # at zero slack r = m, so P[A >= r] = P[A = m] = C(a, m) / C(n, m),
        # which the exact share power (a/n)^m caps
        cases = 0
        for inst, beta in knife_edge_grid():
            marked = cartel_lane_count(inst.n, beta)
            exact = Fraction(math.comb(marked, inst.m), math.comb(inst.n, inst.m))
            assert q_micro(inst, beta) == float(exact), (inst, beta)
            assert exact <= Fraction(marked, inst.n) ** inst.m, (inst, beta)
            cases += 1
        assert cases > 300

    @pytest.mark.parametrize("n", [100, 1_000])
    @pytest.mark.parametrize("beta", [0.2, 0.5])
    def test_kl_bound_caps_race_tail_on_grid(self, n, beta):
        m = n // 5
        share = cartel_share(n, beta)
        checked = 0
        for kappa in range(1, 3 * m + 1):
            inst = SystemInstance.from_kappa(n, m, kappa)
            if not inst.r / m > share:
                continue
            regime, bound = kl_delay_bound(1, m, inst.r / m, share)
            assert regime is DelayRegime.DELAY_RARE, kappa
            assert q_micro(inst, beta) <= bound, kappa
            checked += 1
        assert checked > m

    def test_floor_zero_without_visibility(self, table_instances):
        assert g_inc_floor(table_instances[30], 0.5, 0.0, 0.99) == 0.0

    def test_sandwich(self, table_instances, beta):
        inst = table_instances[30]
        race = exp_race()
        tail = q_micro(inst, beta)
        upper = g_inc_upper(inst, tail, rho_bar(inst.m, race), 0.99)
        floor = g_inc_floor(inst, rho_floors(inst.r, race)[inst.r], tail, 0.99)
        assert floor <= upper + 1e-15

    def test_degenerate_sandwich_closes(self, table_instances, beta):
        inst = table_instances[30]
        tail = q_micro(inst, beta)
        upper = g_inc_upper(inst, tail, 0.7, 0.99)
        floor = g_inc_floor(inst, 0.7, tail, 0.99)
        assert floor == pytest.approx(upper, rel=1e-12)

    @pytest.mark.parametrize(
        "rho, tail, name",
        [(1.5, 0.5, "rho_bar"), (-0.1, 0.5, "rho_bar"),
         (0.5, math.nan, "tail"), (0.5, 1.5, "tail")],
    )
    def test_upper_inputs_range_checked(self, table_instances, rho, tail, name):
        with pytest.raises(ValueError, match=f"{name} must lie in \\[0, 1\\]"):
            g_inc_upper(table_instances[30], tail, rho, 0.99)


class TestRaceModelValidation:
    def test_defaults_are_the_config_defaults(self):
        assert RaceModel() == RaceModel(1.0, 1.0, 0.1, 4.0)

    def test_bad_windows_rejected(self):
        for timings, message in [
            # a seal after the slot's end, then a zero seal deadline
            ((1.0, 1.5, 0.1, 2.0), "seal_deadline must lie in (0, slot_duration]"),
            ((1.0, 0.0, 0.1, 2.0), "seal_deadline must lie in (0, slot_duration]"),
            ((1.0, 1.0, -0.1, 2.0), "reaction_time must be nonnegative"),
            ((1.0, 1.0, 0.1, 0.0), "rate must be positive"),
            ((0.0, 1.0, 0.1, 2.0), "slot_duration must be positive"),
            ((1.0, 1.0, 0.1, math.nan), "rate must be positive"),
            ((1.0, 1.0, math.nan, 2.0), "reaction_time must be nonnegative"),
            # positive timings whose arrival-law normaliser rounds to 0
            ((1.0, 1.0, 0.0, 1e-300), "1 - exp(-rate * seal_deadline) rounds to 0"),
            ((1e-300, 1e-300, 0.0, 1.0), "1 - exp(-rate * seal_deadline) rounds to 0"),
        ]:
            with pytest.raises(ValueError, match=re.escape(message)):
                RaceModel(*timings)

    def test_renormalized_cdf_reaches_one_at_deadline(self):
        assert RaceModel(1.0, 1.0, 0.0, 2.0).p == pytest.approx(1.0, rel=1e-12)

    def test_p_is_the_renormalized_exponential_bit_for_bit(self):
        cases = 0
        for slot, seal in ((1.0, 1.0), (2.0, 1.5), (12.0, 4.0), (40.0, 40.0), (1e-3, 1e-3)):
            for frac in (0.0, 1e-9, 0.1, 0.25, 0.5, 0.9, 0.999999, 1.0, 1.2):
                for rate in (1e-6, 0.01, 0.5, 1.0, 4.0, 37.5, 1e3):
                    timings = (slot, seal, frac * seal, rate)
                    got = RaceModel(*timings).p
                    assert got.hex() == renormalized_exponential_p(*timings).hex(), timings
                    cases += 1
        assert cases == 315

    @pytest.mark.parametrize("rate", [1e-9, 1e-12, 1e-15])
    def test_p_keeps_its_digits_at_small_rates(self, rate):
        # (1 - e^(-rate/2)) / (1 - e^(-rate)) = 1 / (1 + e^(-rate/2)), read to
        # 40 digits; two cancelling 1 - exp differences lost up to 11 % here.
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            exact = float(1 / (1 + (-decimal.Decimal(rate) / 2).exp()))
        got = RaceModel(1.0, 1.0, 0.5, rate).p
        assert abs(got - exact) <= math.ulp(exact)
        if rate == 1e-9:
            assert got == 0.500000000125
