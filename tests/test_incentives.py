"""Incentive closed forms: shares, IC thresholds, coalition bounds, the T0 law, bounty proxies."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotk.delay import exact_q0, fluid_delay_report
from pivotk.geometry import SystemInstance
from pivotk.incentives import (
    EconParams,
    bounty_proxies,
    coalition_loss_floor,
    coalition_sufficient_bounty,
    distribution_of_T0,
    equal_share,
    ic_stationary_check,
    ic_stationary_profile,
    knife_edge_bounty_threshold,
    phi_threshold,
    pi_share,
    sender_ir_bound,
)

from conftest import (
    exact_distribution_of_T0,
    exact_inclusion_tails,
    reference_distribution_of_T0,
)

PAPER_ECON = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99)


BYTE_BLOCK = {
    "mode": "bytes",
    "header_bytes": 100,
    "metadata_bytes": 10,
    "symbol_bytes": 40,
    "per_byte_price": 0.01,
    "proposer_share": 0.5,
    "alpha": 0.5,
    "value": 200.0,
    "gamma": 0.99,
    "bounty": 0.0,
}

normalized_blocks = st.fixed_dictionaries(
    {
        "mode": st.just("normalized"),
        "fee": st.floats(0.0, 1e6),
        "alpha_v": st.floats(1e-9, 1e9),
        "alpha": st.floats(1e-6, 1.0),
        "gamma": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "bounty": st.floats(0.0, 1e9),
        "bundle_price": st.floats(0.0, 1e6),
    }
)
byte_blocks = st.fixed_dictionaries(
    {
        "mode": st.just("bytes"),
        "header_bytes": st.integers(0, 10**6),
        "metadata_bytes": st.integers(0, 10**6),
        "symbol_bytes": st.integers(0, 10**6),
        "per_byte_price": st.floats(0.0, 1e3),
        "proposer_share": st.floats(0.0, 1.0),
        "alpha": st.floats(0.0, 1.0),
        "value": st.floats(1e-9, 1e12),
        "gamma": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "bounty": st.floats(0.0, 1e9),
    }
)


class TestEconParams:
    def test_normalized_fields(self):
        assert PAPER_ECON.proposer_fee(1) == 1.0
        assert PAPER_ECON.mev_exposure == 100.0
        assert PAPER_ECON.bundle_price_at(1) == 1.0

    def test_byte_model_fee(self):
        econ = EconParams.from_config(BYTE_BLOCK)
        assert econ.bundle_bytes(4) == 100 + 4 * 50
        assert econ.bundle_price_at(4) == pytest.approx(3.0)
        assert econ.proposer_fee(4) == pytest.approx(1.5)
        assert econ.mev_exposure == pytest.approx(100.0)

    def test_mode_exclusivity(self):
        reason = "econ: normalized mode excludes byte-model field 'header_bytes'"
        with pytest.raises(ValueError, match=reason):
            EconParams(
                mode="normalized",
                fee=1.0,
                alpha_v=1.0,
                alpha=1.0,
                gamma=0.99,
                bounty=0.0,
                bundle_price=1.0,
                header_bytes=10,
            )

    def test_config_round_trip(self):
        for econ in (
            PAPER_ECON,
            EconParams.from_config({**BYTE_BLOCK, "bounty": 3.0}),
        ):
            assert EconParams.from_config(econ.to_config()) == econ

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(normalized_blocks, byte_blocks))
    def test_echo_repeats_the_block(self, block):
        assert EconParams.from_config(block).to_config() == block

    def test_normalized_keeps_alpha_v_as_given(self):
        # alpha * (alpha_v / alpha) is 945.3300000000002 here
        econ = EconParams.normalized(fee=1.0, alpha_v=945.33, gamma=0.99, alpha=0.9)
        assert econ.mev_exposure == econ.to_config()["alpha_v"] == 945.33
        assert econ.transaction_value == 945.33 / 0.9

    @pytest.mark.parametrize(
        "kwargs, reason",
        [
            ({"fee": -1.0}, "econ.fee must be nonnegative"),
            ({"bundle_price": -0.5}, "econ.bundle_price must be nonnegative"),
            ({"bounty": -1.0}, "econ.bounty must be nonnegative"),
            ({"alpha_v": -5.0}, "econ.alpha_v must be positive"),
            ({"alpha": 0.0}, "econ.alpha must lie in (0, 1]"),
            ({"gamma": 1.0}, "econ.gamma must lie in (0, 1)"),
        ],
        ids=["fee", "bundle_price", "bounty", "alpha_v", "alpha", "gamma"],
    )
    def test_normalized_checks_what_the_parser_checks(self, kwargs, reason):
        args = {"fee": 1.0, "alpha_v": 100.0, "gamma": 0.99, **kwargs}
        with pytest.raises(ValueError, match=re.escape(reason)):
            EconParams.normalized(**args)
        block = {**EconParams.normalized(1.0, 100.0, 0.99).to_config(), **kwargs}
        with pytest.raises(ValueError, match=re.escape(reason)):
            EconParams.from_config(block)

    @pytest.mark.parametrize(
        "block", [PAPER_ECON.to_config(), BYTE_BLOCK], ids=["normalized", "bytes"]
    )
    def test_nan_fails_every_range_check(self, block):
        for key, value in block.items():
            if type(value) is float:
                with pytest.raises(ValueError, match=re.escape(f"econ.{key} must")):
                    EconParams(**{**block, key: math.nan})


class TestShares:
    def test_pi_share_endpoints(self):
        assert pi_share(1.0, 0.2) == pytest.approx(0.2)
        assert pi_share(0.0, 0.2) == 0.0

    def test_pi_share_interior(self):
        assert pi_share(0.5, 0.2) == pytest.approx(0.1 / 0.9)


class TestStationaryIC:
    def test_no_bounty_fails_under_positive_threat(self, table_instances, beta):
        econ = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99, bounty=0.0)
        check = ic_stationary_check(table_instances[100], beta, econ, 0.0, q_w=0.993)
        assert not check.satisfied

    def test_no_threat_and_positive_gap_holds(self, table_instances, beta):
        econ = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99, bounty=10.0)
        check = ic_stationary_check(table_instances[100], beta, econ, 0.0, q_w=0.0)
        assert check.satisfied

    def test_reference_point(self, table_instances, beta):
        econ = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99, bounty=600.0)
        check = ic_stationary_check(table_instances[100], beta, econ, 0.0, q_w=0.993)
        assert check.lhs == pytest.approx(0.0, abs=1e-9)
        assert check.rhs == pytest.approx(99.3)
        assert not check.satisfied

    def test_gap_negative_when_slack_term_exceeds_beta(self, beta):
        small = SystemInstance.from_kappa(100, 20, 10)  # m/kappa = 2 > beta
        econ = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99, bounty=50.0)
        for w in (0.0, 0.5, 0.9):
            assert ic_stationary_check(small, beta, econ, w, q_w=0.0).lhs < 0

    def test_monotone_in_bounty_when_gap_positive(self, beta):
        # At kappa=200 the share gap beta - pi(w) - m/kappa stays positive up
        # to w = 4/9; below that, raising the bounty only helps.
        inst = SystemInstance.from_kappa(100, 20, 200)
        q_w = float(exact_q0(inst, beta))
        margins = []
        for bounty in (0.0, 500.0, 1000.0, 5000.0):
            econ = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99, bounty=bounty)
            margins.append(ic_stationary_check(inst, beta, econ, 0.2, q_w).margin)
        assert all(a < b for a, b in zip(margins, margins[1:]))

    def test_profile_reports_worst_margin(self, beta):
        inst = SystemInstance.from_kappa(100, 20, 200)
        econ = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99, bounty=1000.0)
        checks, worst = ic_stationary_profile(
            inst, beta, econ, lambda w: fluid_delay_report(inst, beta, w).exact_probability
        )
        assert len(checks) == 101
        assert worst.margin == min(c.margin for c in checks)


class TestKnifeEdgeThreshold:
    def test_single_slot_operating_point(self, table_instances, beta):
        inst = table_instances[20]
        q0 = float(exact_q0(inst, beta))
        out = knife_edge_bounty_threshold(inst, beta, PAPER_ECON, q0)
        assert out.bounty_min == pytest.approx(2475, rel=0.01)
        assert abs(out.bounty_min - 2500) / 2500 < 0.05

    def test_five_slot_operating_point(self, table_instances, beta):
        inst = table_instances[100]
        out = knife_edge_bounty_threshold(inst, beta, PAPER_ECON, q0=0.993)
        assert out.bounty_min == pytest.approx(10370, rel=0.01)
        assert abs(out.bounty_min - 10000) / 10000 < 0.05
        exact = knife_edge_bounty_threshold(
            inst, beta, PAPER_ECON, float(exact_q0(inst, beta))
        )
        assert abs(exact.bounty_min - 10000) / 10000 < 0.05

    def test_decomposition_balances_at_threshold(self, table_instances, beta):
        inst = table_instances[20]
        q0 = float(exact_q0(inst, beta))
        out = knife_edge_bounty_threshold(inst, beta, PAPER_ECON, q0)
        deterrent = out.net_fee_sacrifice + out.bounty_discount_loss + out.lost_pivotal_share
        assert deterrent == pytest.approx(out.mev_option, rel=1e-9)

    def test_fees_alone_sufficient_gives_nonpositive(self, beta):
        # Needs beta*m*gamma < 1 so the windfall does not swamp the fee, and
        # alpha*v below f/gamma - beta*m*f; then no bounty is required.
        inst = SystemInstance.from_kappa(100, 4, 4)
        cheap = EconParams.normalized(fee=1.0, alpha_v=0.1, gamma=0.99)
        q0 = float(exact_q0(inst, beta))
        out = knife_edge_bounty_threshold(inst, beta, cheap, q0)
        assert out.bounty_min <= 0.0

    def test_positive_slack_rejected(self, table_instances, beta):
        with pytest.raises(ValueError):
            knife_edge_bounty_threshold(table_instances[30], beta, PAPER_ECON, 0.1)

    def test_monotonicities(self, beta):
        # nondecreasing in alpha*v and q0; nonincreasing in kappa
        inst20 = SystemInstance.from_kappa(100, 20, 20)
        by_av = [
            knife_edge_bounty_threshold(
                inst20, beta, EconParams.normalized(1.0, av, 0.99), 0.993
            ).bounty_min
            for av in (10, 50, 100, 500)
        ]
        assert all(a <= b for a, b in zip(by_av, by_av[1:]))
        by_q0 = [
            knife_edge_bounty_threshold(inst20, beta, PAPER_ECON, q).bounty_min
            for q in (0.2, 0.5, 0.9, 0.993)
        ]
        assert all(a <= b for a, b in zip(by_q0, by_q0[1:]))
        # Deeper knife edges need larger bounties: the per-position share
        # B/kappa thins out as kappa grows, so the threshold rises (the
        # single-slot point needs ~2.5k while the five-slot point needs ~10k).
        by_kappa = [
            knife_edge_bounty_threshold(
                SystemInstance.from_kappa(100, 20, 20 * t), beta, PAPER_ECON, 0.993
            ).bounty_min
            for t in (1, 2, 3, 5)
        ]
        assert all(a <= b for a, b in zip(by_kappa, by_kappa[1:]))


class TestCoalitionBounds:
    def test_reference_rows(self, table_instances, beta):
        assert coalition_sufficient_bounty(table_instances[10], PAPER_ECON) == pytest.approx(880.0)
        assert coalition_sufficient_bounty(table_instances[30], PAPER_ECON) == pytest.approx(2610.3)
        assert coalition_sufficient_bounty(table_instances[50], PAPER_ECON) == pytest.approx(4301.495)

    def test_knife_edge_not_applicable(self, table_instances):
        assert coalition_sufficient_bounty(table_instances[20], PAPER_ECON) is None
        assert coalition_sufficient_bounty(table_instances[100], PAPER_ECON) is None

    def test_zero_fee_limit(self, table_instances):
        econ = EconParams.normalized(fee=0.0, alpha_v=100.0, gamma=0.99)
        inst = table_instances[10]
        expected = inst.kappa * 100.0 * 0.99**inst.t_star
        assert coalition_sufficient_bounty(inst, econ) == pytest.approx(expected)

    def test_large_fee_floors_at_zero(self, table_instances):
        econ = EconParams.normalized(fee=50.0, alpha_v=100.0, gamma=0.99)
        assert coalition_sufficient_bounty(table_instances[10], econ) == 0.0

    def test_loss_floor(self, table_instances):
        inst = table_instances[30]  # delta=10, kappa=30
        econ = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99, bounty=30.0)
        assert coalition_loss_floor(0, inst, econ) == 0.0
        assert coalition_loss_floor(7, inst, econ) == pytest.approx(7.0)
        assert coalition_loss_floor(11, inst, econ) == pytest.approx(11.0 + 1.0)
        assert coalition_loss_floor(15, inst, econ) == pytest.approx(15.0 + 5.0)

    def test_equal_share_rows(self, table_instances):
        expected = {10: 9.0, 20: 99.0, 30: 8.91, 50: 8.8209, 100: 95.099}
        for kappa, value in expected.items():
            assert equal_share(PAPER_ECON, table_instances[kappa]) == pytest.approx(
                value, rel=1e-3
            )


class TestPhiThreshold:
    def test_zero_threat(self, table_instances, beta):
        assert phi_threshold(table_instances[30], beta, PAPER_ECON, 0.0) == 0.0

    def test_linear_in_exposure(self, table_instances, beta):
        inst = table_instances[30]
        one = phi_threshold(inst, beta, EconParams.normalized(1.0, 1.0, 0.99), 0.136)
        hundred = phi_threshold(inst, beta, EconParams.normalized(1.0, 100.0, 0.99), 0.136)
        assert hundred == pytest.approx(100 * one)

    def test_reference_point_infeasible(self, table_instances, beta):
        value = phi_threshold(table_instances[30], beta, PAPER_ECON, 0.136)
        assert value == pytest.approx(1.6746, rel=1e-3)
        assert value > 1.0

    def test_single_slot_no_singularity(self, table_instances, beta):
        value = phi_threshold(table_instances[20], beta, PAPER_ECON, 0.993)
        assert math.isfinite(value) and value > 0


def _random_t0_instance(seed: int) -> tuple[SystemInstance, float]:
    """A seeded instance with n in [5, 1000], s in {1, 2, 3}, t* in 1..4."""
    rng = random.Random(f"T0-bits:{seed}")
    n = int(round(5 * 200 ** rng.random()))
    m = rng.randint(1, n)
    s = rng.choice((1, 2, 3))
    cartel = 0 if seed % 8 == 0 else rng.randint(1, n // 2)
    t_star = rng.randint(1, 4)
    kappa = rng.randint((t_star - 1) * m + 1, t_star * m)
    return SystemInstance(n=n, m=m, s=s, K=kappa * s - rng.randint(0, s - 1)), cartel / n


_T0_BIT_CASES = [_random_t0_instance(seed) for seed in range(96)] + [
    # kappa below one slot's minimum honest count (20 - 4 = 16): T = 1 surely.
    (SystemInstance.from_kappa(20, 20, 12), 0.2),
    (SystemInstance.from_kappa(100, 20, 40), 0.2),  # knife edge, t* = 2
    (SystemInstance.from_kappa(10_000, 2_000, 980), 0.2),  # bench's n = 10 000, t* = 1 op
    # t* = 5 with 933 underflowed zero masses in the slot row.
    (SystemInstance.from_kappa(10_000, 2_000, 9_000), 0.2),
]


def _pmf(tails):
    """P[T = t] for t = t*..cap from the tails P[T > t], with P[T > t* - 1] = 1."""
    return [above - tail for above, tail in zip((1, *tails), tails)]


class TestInclusionTimeLaw:
    @pytest.mark.parametrize("case", range(len(_T0_BIT_CASES)))
    def test_bit_identical_to_reference_dp(self, case):
        """q0 bit for bit; the cap as the honest-count DP's, each mass within 1e-13."""
        inst, beta = _T0_BIT_CASES[case]
        got = distribution_of_T0(inst, beta)
        assert got.delay_probability().hex() == exact_q0(inst, beta).hex()
        ref_masses, ref_residual = reference_distribution_of_T0(inst, beta)
        assert got.t_star == inst.t_star
        assert len(got.tails) == len(ref_masses)
        for p, ref in zip(_pmf(got.tails), ref_masses):
            assert abs(p - ref) <= 1e-13
        assert abs(got.residual_mass - ref_residual) <= 1e-13

    @pytest.mark.parametrize(
        "n, kappa", [(100, 10), (100, 30), (100, 100), (1000, 100), (1000, 450), (1000, 950)]
    )
    def test_within_1e15_of_exact_tails(self, n, kappa):
        inst = SystemInstance.from_kappa(n, n // 5, kappa)
        got = distribution_of_T0(inst, 0.2)
        exact = exact_inclusion_tails(inst, 0.2)  # down to a tail below 1e-30
        assert len(exact) <= len(got.tails)
        exact_pmf = _pmf(exact)
        for i, p in enumerate(_pmf(got.tails)):
            # Past the exact tails, P[T = t] lies in [0, exact[-1]].
            err = abs(p - exact_pmf[i]) if i < len(exact) else abs(p) + exact[-1]
            assert err <= 1e-15, inst.t_star + i
        gamma = Fraction(0.99)
        exact_discount = sum(gamma ** (inst.t_star + i) * p for i, p in enumerate(exact_pmf))
        # The terms past the exact tails add at most exact[-1].
        assert abs(got.expected_discount(0.99) - exact_discount) <= 1e-15 + exact[-1]

    @pytest.mark.parametrize("t_star, delta", [(1, 1), (2, 1), (3, 1), (4, 1), (2, 0)])
    @pytest.mark.parametrize("share", [0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_matches_exact_rational_oracle(self, n, share, t_star, delta):
        m = n // 2
        inst = SystemInstance.from_kappa(n, m, t_star * m - delta)
        got = distribution_of_T0(inst, share)
        slots = inst.t_star + len(got.tails) - 1
        exact, residual = exact_distribution_of_T0(inst, share, slots)
        assert sum(exact) + residual == 1
        assert exact[: inst.t_star - 1] == [0] * (inst.t_star - 1)
        tol = slots * 1e-12
        for p, q in zip(_pmf(got.tails), exact[inst.t_star - 1 :]):
            assert abs(p - q) <= tol
        gamma = 0.99
        exact_discount = sum(Fraction(gamma) ** t * p for t, p in enumerate(exact, start=1))
        assert abs(got.expected_discount(gamma) - exact_discount) <= tol
        assert abs(got.residual_mass - residual) <= tol

    def test_no_cartel_point_mass(self, table_instances):
        law = distribution_of_T0(table_instances[30], 0.0)
        assert law.delay_probability() == 0.0
        assert law.residual_mass == 0.0

    def test_delay_probability_matches_exact_q0(self, table_instances, beta):
        for kappa in (10, 20, 30, 50, 100):
            inst = table_instances[kappa]
            law = distribution_of_T0(inst, beta)
            assert law.delay_probability() == pytest.approx(
                float(exact_q0(inst, beta)), abs=1e-12
            )

    def test_no_mass_before_horizon(self, table_instances, beta):
        law = distribution_of_T0(table_instances[50], beta)
        assert law.t_star == table_instances[50].t_star

    def test_residual_negligible(self, table_instances, beta):
        law = distribution_of_T0(table_instances[100], beta)
        assert law.residual_mass < 1e-9

    def test_full_cartel_does_not_concentrate(self):
        # Every lane is cartel, so no honest bundle ever arrives.
        with pytest.raises(ValueError, match="does not concentrate"):
            distribution_of_T0(SystemInstance.from_kappa(5, 2, 3), 1.0)

    def test_ir_bound_composition(self, table_instances, beta):
        inst = table_instances[30]
        q0 = float(exact_q0(inst, beta))
        law = distribution_of_T0(inst, beta)
        bound = sender_ir_bound(inst, PAPER_ECON, q0, law.expected_discount(PAPER_ECON.gamma))
        _, b_ratchet = bounty_proxies(inst, beta, PAPER_ECON, q0, 8.0e-5)
        assert bound > b_ratchet  # the ratchet-priced bounty is IR-affordable

    def test_ir_bound_degenerate(self, table_instances):
        inst = table_instances[30]
        g_star = PAPER_ECON.gamma**inst.t_star
        assert sender_ir_bound(inst, PAPER_ECON, 0.0, g_star) == pytest.approx(0.0)

    def test_ir_bound_monotone_in_exposure(self, table_instances):
        inst = table_instances[30]
        values = [
            sender_ir_bound(inst, EconParams.normalized(1.0, av, 0.99), 0.136, 0.97)
            for av in (1.0, 10.0, 100.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestBountyProxies:
    def test_reference_values(self, table_instances, beta):
        q0_10 = float(exact_q0(table_instances[10], beta))
        b_static, _ = bounty_proxies(table_instances[10], beta, PAPER_ECON, q0_10, q0_10)
        assert b_static == pytest.approx(0.04, rel=5e-3)
        q0_50 = float(exact_q0(table_instances[50], beta))
        b_static, _ = bounty_proxies(table_instances[50], beta, PAPER_ECON, q0_50, 8.0e-5)
        assert round(b_static) == 350

    def test_mid_tier_ratchet_cost(self, table_instances, beta):
        econ = EconParams.normalized(fee=1.0, alpha_v=50.0, gamma=0.99)
        _, b_ratchet = bounty_proxies(
            table_instances[30], beta, econ, 0.136, 7.996483334308243e-05
        )
        assert b_ratchet == pytest.approx(0.02, rel=5e-3)
        assert b_ratchet / 50.0 == pytest.approx(4.0e-4, rel=5e-3)
