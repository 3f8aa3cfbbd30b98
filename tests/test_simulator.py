"""Pathwise simulator: traces, policies, payoffs, and theorem verification."""

from __future__ import annotations

import itertools
import json
import math
import pathlib
from dataclasses import dataclass, field, fields

import numpy as np
import pytest

from pivotk import simulator
from pivotk.delay import exact_q0
from pivotk.geometry import SystemInstance, cartel_lane_count
from pivotk.incentives import EconParams
from pivotk.mechanism import cartel_prefix_count, pivotal_allocation
from pivotk.simulator import (
    AdversaryPolicy,
    FullInclude,
    FullWithhold,
    MinimalSabotage,
    RatchetSpread,
    Scripted,
    SlotRecord,
    StationaryW,
    Trace,
    _bounty_share,
    _replay,
    estimate_delay,
    minimal_sabotage_exhaustive,
    payoff_of_trace,
    policy_from_config,
    policy_from_spec,
    prefix_monotonicity_exhaustive,
    run_trace,
    trace_from_json_with_econ,
    trace_to_json,
    verify_pathwise_theorems,
)

from conftest import (
    reference_inclusion_time,
    reference_payoff_of_trace,
    reference_prefix_monotonicity,
    reference_resolution_order,
    reference_sabotage_report,
)
from test_reachability import POLICY_SPECS

GOLDEN = pathlib.Path(__file__).parent / "golden"
OUTCOME_FIELDS = [
    "inclusion_time", "withheld_at_horizon", "pivotal_cartel_count", "delayed", "truncated"
]
PRIMARY_FIELDS = ["instance", "cartel_lanes", "policy", "seed", "slots", "inclusion_order"]
PATHS = 8  # sample paths per oracle cross-check run
SMALL = SystemInstance.from_kappa(20, 5, 12)  # t*=3, delta=3
ECON = EconParams.normalized(fee=1.0, alpha_v=40.0, gamma=0.95, bounty=24.0)


def _count_honest(owners, kappa):
    return owners[:kappa].count("honest")


def _count_parity(owners, kappa):
    return owners[:kappa].count("cartel") % 2


def _count_after_first(owners, kappa):
    return owners[1 : kappa + 1].count("cartel")


def _count_dropping_at_the_end(owners, kappa):
    # one less once the list is long and ends honest, cartel: with extra = 2 the
    # first drop needs a second cartel bundle inserted at the very end
    count = owners[:kappa].count("cartel")
    return count - 1 if len(owners) > kappa + 3 and owners[-2:] == ["honest", "cartel"] else count


# Prefix-count rules that inserting a cartel bundle can shrink.
NON_MONOTONE_COUNTS = [_count_honest, _count_parity, _count_after_first, _count_dropping_at_the_end]


def _outcome(run):
    """A battery's case count, or the message of the AssertionError it raised."""
    try:
        return run()
    except AssertionError as err:
        return str(err)


# n = 20 and 100, a knife edge (kappa = t*·m, slack 0) and an s = 3 instance
# whose K = 34 leaves a partial final bundle
DECODE_INSTANCES = {
    "n20": SMALL,
    "n100": SystemInstance.from_kappa(100, 20, 37),
    "knife-edge": SystemInstance.from_kappa(100, 20, 40),
    "s3-partial": SystemInstance(n=20, m=5, s=3, K=34),
}


class TestDecodeRule:
    """T is the slot of the kappa-th inclusion row."""

    @pytest.mark.parametrize("spec", POLICY_SPECS)
    @pytest.mark.parametrize("inst", DECODE_INSTANCES.values(), ids=DECODE_INSTANCES)
    def test_kappa_th_row_gives_the_slot_count_inclusion_time(self, inst, spec):
        policy = policy_from_spec(spec)
        for seed in range(40):
            trace = run_trace(inst, 0.2, policy, seed=seed)
            T = reference_inclusion_time(trace.slots, inst.kappa)
            assert trace.inclusion_time == T, seed
            assert T is not None and not trace.truncated, seed
            assert len(trace.slots) == max(T, inst.t_star) + 1, seed
            assert (T > inst.t_star) == (trace.withheld_at_horizon > inst.delta), seed

    def test_fewer_than_kappa_rows_never_decode(self):
        # SMALL has kappa 12 and t* 3; two slots hold 4 + 5 rows, lanes 1 and 6
        # are the cartel's, and the script withholds lane 1 and includes lane 6
        slots = (SlotRecord(1, 4, 0), SlotRecord(1, 4, 1))
        rows = [(1, lane, "honest") for lane in range(2, 6)]
        rows += [(2, 6, "cartel")] + [(2, lane, "honest") for lane in range(7, 11)]
        trace = Trace(
            instance=SMALL, cartel_lanes=2, policy=Scripted((0, 1)), seed=0,
            slots=slots, inclusion_order=tuple(rows),
        )
        assert trace.inclusion_time is None and trace.pivotal_cartel_count is None
        assert trace.truncated
        payoff = payoff_of_trace(trace, ECON)
        assert ECON.bounty > 0 and payoff.bounty_revenue == 0.0
        assert payoff == reference_payoff_of_trace(trace, ECON)


class TestRunTrace:
    def test_bit_identical_reproduction(self, beta):
        a = run_trace(SMALL, 0.25, StationaryW(0.5), seed=123)
        b = run_trace(SMALL, 0.25, StationaryW(0.5), seed=123)
        assert a == b

    def test_full_inclusion_never_delays(self):
        for seed in range(25):
            trace = run_trace(SMALL, 0.25, FullInclude(), seed=seed)
            assert trace.inclusion_time == SMALL.t_star
            assert not trace.delayed
            assert trace.withheld_at_horizon == 0

    def test_knife_edge_single_contact_delays(self, beta):
        inst = SystemInstance.from_kappa(100, 20, 20)
        for seed in range(25):
            trace = run_trace(inst, beta, FullWithhold(), seed=seed)
            cartel_contacts = sum(s.contacts_cartel for s in trace.slots[: inst.t_star])
            assert trace.delayed == (cartel_contacts >= 1)

    def test_minimal_sabotage_withholds_exactly_the_slack_plus_one(self):
        for seed in range(40):
            trace = run_trace(SMALL, 0.25, MinimalSabotage(), seed=seed)
            available = sum(s.contacts_cartel for s in trace.slots[: SMALL.t_star])
            assert trace.withheld_at_horizon == min(SMALL.delta + 1, available)

    def test_deficit_threshold_equivalence(self):
        for seed in range(60):
            trace = run_trace(SMALL, 0.25, StationaryW(0.3), seed=seed)
            if trace.truncated:
                continue
            assert trace.delayed == (trace.inclusion_time > SMALL.t_star)
            assert trace.delayed == (trace.withheld_at_horizon > SMALL.delta)

    def test_conservation_invariants(self):
        for seed in range(30):
            trace = run_trace(SMALL, 0.25, StationaryW(0.4), seed=seed)
            cartel_contacts = sum(s.contacts_cartel for s in trace.slots[: SMALL.t_star])
            assert trace.withheld_at_horizon <= cartel_contacts
            assert len(trace.inclusion_order) >= SMALL.kappa
            assert trace.pivotal_cartel_count is not None
            assert 0 <= trace.pivotal_cartel_count <= SMALL.kappa

    def test_scripted_clips_to_contacts(self):
        trace = run_trace(SMALL, 0.25, Scripted((0, 100, 0)), seed=3)
        for t, slot in enumerate(trace.slots, start=1):
            assert 0 <= slot.included_cartel <= slot.contacts_cartel
            if t == 2:
                assert slot.included_cartel == slot.contacts_cartel
            elif t <= 3:
                assert slot.included_cartel == 0

    def test_ratchet_spread_policy(self):
        trace = run_trace(SMALL, 0.25, RatchetSpread((1, 1, 1)), seed=4)
        for t, slot in enumerate(trace.slots, start=1):
            if t <= 3:
                withheld = slot.contacts_cartel - slot.included_cartel
                assert withheld == min(1, slot.contacts_cartel)

    def test_policy_config_round_trip(self):
        for policy in (
            FullInclude(),
            FullWithhold(),
            StationaryW(0.3),
            MinimalSabotage(),
            RatchetSpread((2, 1)),
            Scripted((3, 0)),
        ):
            rebuilt = policy_from_config(policy.to_config())
            assert rebuilt.to_config() == policy.to_config()
            # policies compare and hash by value, not by identity
            assert rebuilt == policy
            assert hash(rebuilt) == hash(policy)


DETERMINISTIC_POLICIES = {
    "full_include": FullInclude(),
    "full_withhold": FullWithhold(),
    "minimal_sabotage": MinimalSabotage(),
    "ratchet_spread:2,1,1": RatchetSpread((2, 1, 1)),
    "ratchet_spread:1": RatchetSpread((1,)),
    "scripted:1,0,2": Scripted((1, 0, 2)),
    "scripted:0": Scripted((0,)),
}


class TestPolicyAgreement:
    @pytest.mark.parametrize("name", list(DETERMINISTIC_POLICIES))
    @pytest.mark.parametrize("kappa", [10, 12, 14])
    def test_trace_matches_vectorized_count(self, name, kappa):
        # the per-lane decisions of run_trace and the element-wise rule that
        # estimate_delay steps over an array of paths must withhold the same
        # number on the same path
        policy = DETERMINISTIC_POLICIES[name]
        inst = SystemInstance.from_kappa(20, 5, kappa)
        traces = [run_trace(inst, 0.25, policy, seed=seed) for seed in range(30)]
        contacts = np.array(
            [[s.contacts_cartel for s in trace.slots[: inst.t_star]] for trace in traces],
            dtype=np.int64,
        )
        withheld = np.zeros(len(traces), dtype=np.int64)
        for t in range(1, inst.t_star + 1):
            withheld += policy.withhold(t, contacts[:, t - 1], withheld, inst, None)
        assert withheld.tolist() == [trace.withheld_at_horizon for trace in traces]


class TestEstimateDelay:
    def test_no_cartel_never_delays(self):
        est = estimate_delay(SMALL, 0.0, FullWithhold(), 500, seed=0)
        assert est.frequency == 0.0

    def test_matches_exact_within_three_stderr(self, beta):
        for kappa in (20, 30, 50):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            q0 = float(exact_q0(inst, beta))
            est = estimate_delay(inst, beta, FullWithhold(), 20_000, seed=kappa)
            tol = 3 * max(est.stderr, math.sqrt(q0 * (1 - q0) / est.trials))
            assert abs(est.frequency - q0) <= tol

    def test_partial_withholding_dominated(self, beta):
        inst = SystemInstance.from_kappa(100, 20, 30)
        full = estimate_delay(inst, beta, FullWithhold(), 20_000, seed=9)
        half = estimate_delay(inst, beta, StationaryW(0.5), 20_000, seed=9)
        combined = 3 * (full.stderr + half.stderr + 1e-4)
        assert half.frequency <= full.frequency + combined

    def test_every_dynamic_policy_below_exact_worst_case(self, beta):
        # full withholding is the worst case: each policy's MC frequency must
        # sit within sampling error of (or below) the exact baseline
        policies = [
            StationaryW(0.25),
            StationaryW(0.5),
            StationaryW(0.75),
            MinimalSabotage(),
            RatchetSpread((4, 4)),
            Scripted((2, 2)),
        ]
        for kappa in (20, 30, 50):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            q0 = float(exact_q0(inst, beta))
            for policy in policies:
                est = estimate_delay(inst, beta, policy, 20_000, seed=[13, kappa])
                assert est.frequency <= q0 + 3 * max(est.stderr, 1e-4), (
                    f"kappa={kappa}, policy={policy.to_config()}"
                )

    def test_reproducible(self, beta):
        inst = SystemInstance.from_kappa(100, 20, 30)
        a = estimate_delay(inst, beta, StationaryW(0.5), 1000, seed=5)
        b = estimate_delay(inst, beta, StationaryW(0.5), 1000, seed=5)
        assert a == b


class TestPayoffs:
    def test_full_inclusion_bounty_concentrates_on_share(self):
        # MC mean of the bounty equals gamma^t* * beta * B up to noise
        inst = SystemInstance.from_kappa(20, 5, 12)
        trials = 3000
        total = 0.0
        sq = 0.0
        for seed in range(trials):
            trace = run_trace(inst, 0.25, FullInclude(), seed=seed)
            value = payoff_of_trace(trace, ECON).bounty_revenue
            total += value
            sq += value * value
        mean = total / trials
        var = max(sq / trials - mean * mean, 0.0)
        stderr = math.sqrt(var / trials)
        expected = ECON.gamma**inst.t_star * 0.25 * ECON.bounty
        assert abs(mean - expected) <= 3 * stderr

    def test_full_withholding_earns_no_fees(self):
        trace = run_trace(SMALL, 0.25, FullWithhold(), seed=8)
        payoff = payoff_of_trace(trace, ECON)
        assert payoff.fee_revenue == 0.0
        assert payoff.mev_option > 0 or not trace.delayed

    def test_no_bounty_mode(self):
        trace = run_trace(SMALL, 0.25, FullInclude(), seed=2)
        econ0 = EconParams.normalized(fee=1.0, alpha_v=40.0, gamma=0.95, bounty=0.0)
        assert payoff_of_trace(trace, econ0).bounty_revenue == 0.0

    def test_single_symbol_bounty_is_the_closed_form(self):
        # For s = 1 the pivotal payment is g**T * j * B / kappa.
        policies = [FullInclude(), FullWithhold(), StationaryW(0.4), MinimalSabotage()]
        for kappa in (5, 9, 12):
            inst = SystemInstance.from_kappa(20, 5, kappa)
            for seed in range(25):
                trace = run_trace(inst, 0.25, policies[seed % 4], seed=seed)
                T, j = trace.inclusion_time, trace.pivotal_cartel_count
                expected = ECON.gamma**T * j * ECON.bounty / kappa
                assert abs(payoff_of_trace(trace, ECON).bounty_revenue - expected) <= 1e-12

    def test_total_is_sum_of_parts(self):
        trace = run_trace(SMALL, 0.25, MinimalSabotage(), seed=6)
        p = payoff_of_trace(trace, ECON)
        assert p.total == pytest.approx(p.fee_revenue + p.bounty_revenue + p.mev_option)


BOUNTY_BUDGETS = [5e-324, 1e-300, 0.1, 24.0, 1e300]


class TestBountyShare:
    def test_matches_the_allocation_bit_for_bit(self):
        # the integer share is the allocation's exact share, rounded once;
        # every owner sequence, so the cartel holds rank kappa in half of them
        for s, kappa in itertools.product(range(1, 7), range(1, 5)):
            for owners in itertools.product(("honest", "cartel"), repeat=kappa + 1):
                count = owners[:kappa].count("cartel")
                owns_final = owners[kappa - 1] == "cartel"
                for r_idx in range(1, s + 1):  # r_idx < s: a partial final bundle
                    K = (kappa - 1) * s + r_idx
                    inst = SystemInstance(n=kappa + 1, m=kappa + 1, s=s, K=K)
                    for B in BOUNTY_BUDGETS:
                        share = _bounty_share(inst, count, owns_final, B)
                        exact = pivotal_allocation(owners, K, s, B).paid_to("cartel")
                        assert share.hex() == float(exact).hex(), (s, K, owners, B)


SIX_POLICIES = [
    "full_include",
    "full_withhold",
    "stationary_w:0.5",
    "minimal_sabotage",
    "ratchet_spread:2,1,1",
    "scripted:1,0,2",
]
ROW_INSTANCES = {
    20: SystemInstance.from_kappa(20, 5, 12),
    100: SystemInstance.from_kappa(100, 20, 37),
    1000: SystemInstance.from_kappa(1000, 200, 397),
}


@dataclass(frozen=True)
class _CoinPerSlot(AdversaryPolicy):
    """A drawing kind defined outside the module; it records what it was handed."""

    seen: list = field(default_factory=list, compare=False)
    name = "coin_per_slot"

    def withhold(self, t, contacts, withheld_so_far, instance, rng):
        self.seen.append(rng)
        return contacts - rng.binomial(contacts, 0.5)


class TestPolicyStreams:
    @pytest.fixture
    def generators(self, monkeypatch):
        """The seeds of every generator built while the test runs."""
        built, real = [], np.random.default_rng
        monkeypatch.setattr(
            np.random, "default_rng", lambda seed=None: built.append(seed) or real(seed)
        )
        return built

    @pytest.mark.parametrize("spec", SIX_POLICIES)
    def test_one_generator_unless_the_kind_draws(self, generators, spec):
        run_trace(SMALL, 0.25, policy_from_spec(spec), seed=[5, 2])
        expected = [[5, 2, 0], [5, 2, 1]] if spec.startswith("stationary_w") else [[5, 2, 0]]
        assert generators == expected

    @pytest.mark.parametrize("ratchet", [False, True], ids=["static", "ratchet"])
    @pytest.mark.parametrize("spec", SIX_POLICIES)
    def test_estimate_builds_the_policy_stream_only_when_the_kind_draws(
        self, generators, spec, ratchet
    ):
        estimate_delay(SMALL, 0.25, policy_from_spec(spec), 50, seed=[5, 2], ratchet=ratchet)
        expected = [[5, 2, 0], [5, 2, 1]] if spec.startswith("stationary_w") else [[5, 2, 0]]
        assert generators == expected

    def test_a_drawing_subclass_keeps_its_stream(self, generators):
        policy = _CoinPerSlot()
        trace = run_trace(SMALL, 0.25, policy, seed=9)
        assert generators == [[9, 0], [9, 1]]
        assert policy.seen and all(isinstance(rng, np.random.Generator) for rng in policy.seen)
        assert trace == run_trace(SMALL, 0.25, _CoinPerSlot(), seed=9)

    @pytest.mark.parametrize("name", list(DETERMINISTIC_POLICIES))
    def test_deterministic_kinds_ignore_the_stream(self, name):
        # the trace a deterministic kind makes without a stream is the one it
        # makes when handed the stream run_trace used to build
        policy = DETERMINISTIC_POLICIES[name]
        marked = cartel_lane_count(SMALL.n, 0.25)
        cap = simulator.HORIZON_CAP_FACTOR * SMALL.t_star
        for seed in range(10):
            rng = np.random.default_rng([seed, 0])
            cartel_set, lanes = simulator._lane_path(SMALL.n, SMALL.m, marked, rng, cap)
            with_stream = _replay(
                SMALL, cartel_set, lanes, policy, np.random.default_rng([seed, 1]), seed
            )
            assert run_trace(SMALL, 0.25, policy, seed=seed) == with_stream


class TestInclusionRows:
    """``_replay`` writes its rows in resolution order; cross-checked against
    the full-key reference order of the same rows shuffled."""

    @pytest.mark.parametrize("policy", SIX_POLICIES)
    @pytest.mark.parametrize("n", list(ROW_INSTANCES))
    def test_rows_are_the_resolution_order(self, policy, n):
        inst = ROW_INSTANCES[n]
        rng = np.random.default_rng(n)
        for seed in range(4 if n == 1000 else 12):
            trace = run_trace(inst, 0.2, policy_from_spec(policy), seed=[seed, n])
            rows = list(trace.inclusion_order)
            shuffled = [rows[i] for i in rng.permutation(len(rows))]
            assert reference_resolution_order(shuffled) == rows
            included = sum(slot.contacts_honest + slot.included_cartel for slot in trace.slots)
            assert len(rows) == included

    @pytest.mark.parametrize(
        "inst",
        [SMALL, SystemInstance(n=20, m=5, s=3, K=35), SystemInstance(n=100, m=20, s=4, K=146)],
        ids=["s1", "s3-partial", "s4-partial"],
    )
    def test_payoff_matches_entry_sum_reference(self, inst):
        econ = EconParams.normalized(fee=0.5, alpha_v=40.0, gamma=0.97, bounty=37.3)
        for seed in range(40):
            policy = policy_from_spec(SIX_POLICIES[seed % len(SIX_POLICIES)])
            trace = run_trace(inst, 0.25 if inst.n == 20 else 0.2, policy, seed=seed)
            assert payoff_of_trace(trace, econ) == reference_payoff_of_trace(trace, econ)


class TestSerialization:
    def test_round_trip_with_exact_payoff_replay(self):
        policies = [policy_from_spec(spec) for spec in SIX_POLICIES]
        for policy, seed in itertools.product(policies, range(10)):
            trace = run_trace(SMALL, 0.25, policy, seed=seed)
            payoff = payoff_of_trace(trace, ECON)
            line = trace_to_json(trace, payoff, econ=ECON)
            loaded, stored, econ = trace_from_json_with_econ(line)
            assert loaded == trace
            fresh = payoff_of_trace(loaded, econ)
            assert fresh.fee_revenue == stored.fee_revenue
            assert fresh.bounty_revenue == stored.bounty_revenue
            assert fresh.mev_option == stored.mev_option

    @pytest.mark.parametrize("slots", [1, 3], ids=["before-horizon", "at-horizon"])
    def test_truncated_trace_round_trips(self, slots):
        # A path whose slots run out before decoding; lanes 1..5 are the cartel's.
        path = [[1, 2, 7, 8, 9]] * slots
        trace = _replay(SMALL, frozenset(range(1, 6)), iter(path), FullWithhold(), None, 0)
        assert trace.truncated and trace.inclusion_time is None
        assert trace.withheld_at_horizon == (2 * SMALL.t_star if slots >= SMALL.t_star else 0)
        assert trace.pivotal_cartel_count is None
        loaded, stored, _ = trace_from_json_with_econ(
            trace_to_json(trace, payoff_of_trace(trace, ECON), ECON)
        )
        assert loaded == trace
        assert payoff_of_trace(loaded, ECON) == stored


    def test_outcome_fields_are_computed_not_passed(self):
        assert [f.name for f in fields(Trace) if not f.init] == OUTCOME_FIELDS
        trace = run_trace(SMALL, 0.25, StationaryW(0.5), seed=7)
        primary = {name: getattr(trace, name) for name in PRIMARY_FIELDS}
        assert Trace(**primary) == trace
        with pytest.raises(TypeError):
            Trace(**primary, delayed=True)

    @pytest.mark.parametrize("golden", ["simulate.jsonl", "simulate-n1000.jsonl"])
    def test_golden_outcome_fields_follow_from_primary_fields(self, golden):
        lines = (GOLDEN / golden).read_text().splitlines()
        for i, line in enumerate(lines, start=1):
            obj = json.loads(line)
            trace = Trace(
                instance=SystemInstance.from_config(obj["instance"]),
                cartel_lanes=obj["cartel_lanes"],
                policy=policy_from_config(obj["policy"]),
                seed=obj["seed"],
                slots=tuple(SlotRecord(*row) for row in obj["slots"]),
                inclusion_order=tuple(tuple(row) for row in obj["inclusion_order"]),
            )
            for name in OUTCOME_FIELDS:
                value, stored = getattr(trace, name), obj[name]
                assert (type(value), value) == (type(stored), stored), (golden, i, name)


class TestTheoremBattery:
    def test_prefix_monotonicity_exhaustive(self):
        # Raises on any violation; the case counts pin the enumeration's size.
        cases = [prefix_monotonicity_exhaustive(kappa) for kappa in range(1, 7)]
        assert cases == [112, 320, 864, 2240, 5632, 13824]
        with pytest.raises(ValueError):
            prefix_monotonicity_exhaustive(7)

    @pytest.mark.parametrize("kappa", [0, -1, -3, 7])
    def test_prefix_battery_rejects_kappa_outside_range(self, kappa):
        with pytest.raises(ValueError, match=rf"^kappa={kappa} outside 1\.\.6, "):
            prefix_monotonicity_exhaustive(kappa)

    def test_prefix_battery_catches_a_non_monotone_count(self, monkeypatch):
        monkeypatch.setattr(simulator, "cartel_prefix_count", _count_honest)
        want = r"seq=\['honest', 'honest', 'honest'\], spots=\(0,\)$"
        with pytest.raises(AssertionError, match=want):
            prefix_monotonicity_exhaustive(1)

    @pytest.mark.parametrize("count", [cartel_prefix_count] + NON_MONOTONE_COUNTS)
    @pytest.mark.parametrize("kappa", range(1, 7))
    def test_prefix_battery_matches_list_insert_reference(self, monkeypatch, kappa, count):
        # Same case count when every case holds, same first failing case when one fails.
        want = _outcome(lambda: reference_prefix_monotonicity(kappa, count))
        monkeypatch.setattr(simulator, "cartel_prefix_count", count)
        assert _outcome(lambda: prefix_monotonicity_exhaustive(kappa)) == want
        # every non-monotone rule is caught; at kappa = 1 the parity is the count
        caught = isinstance(want, str)
        assert caught == (count is not cartel_prefix_count and (count, kappa) != (_count_parity, 1))

    def test_dominance_and_sabotage_on_reference_instance(self):
        inst = SystemInstance.from_kappa(10, 3, 6)  # t*=2, delta=0, t*m=6
        econ = EconParams.normalized(fee=1.0, alpha_v=30.0, gamma=0.9, bounty=12.0)
        assert verify_pathwise_theorems(inst, 0.3, trials=4000, seed=17) == 0
        sabotage = minimal_sabotage_exhaustive(inst, 0.3, econ, paths=20, seed=[17, 2])
        assert sabotage.passed
        assert sabotage.paths_with_delay_option > 0

    def test_dominance_counts_a_policy_that_outwithholds_full_withholding(self, monkeypatch):
        # A rule that withholds one bundle more than it received each slot is
        # delayed on every path, so it violates dominance exactly on the paths
        # where full withholding is not delayed; the contact draws are the ones
        # estimate_delay reads at the same seed.
        @dataclass(frozen=True)
        class OneTooMany(AdversaryPolicy):
            draws = False

            def withhold(self, t, contacts, withheld_so_far, instance, rng):
                return contacts + 1

        inst = SystemInstance.from_kappa(10, 3, 6)  # t*=2, delta=0
        full = estimate_delay(inst, 0.3, FullWithhold(), 4000, 17)
        policies = (*simulator.DOMINANCE_POLICIES, OneTooMany())
        monkeypatch.setattr(simulator, "DOMINANCE_POLICIES", policies)
        violations = verify_pathwise_theorems(inst, 0.3, trials=4000, seed=17)
        assert violations == round(4000 * (1 - full.frequency)) > 0

    def test_sabotage_with_positive_slack(self):
        inst = SystemInstance.from_kappa(10, 3, 5)  # t*=2, delta=1
        econ = EconParams.normalized(fee=1.0, alpha_v=30.0, gamma=0.9, bounty=12.0)
        report = minimal_sabotage_exhaustive(inst, 0.3, econ, paths=30, seed=23)
        assert report.passed

    def test_sabotage_oracle_can_fail_without_a_proposer_fee(self):
        """The theorem's premise is a positive proposer fee.

        With fee 0 an included cartel bundle earns nothing before decoding, so
        withholding more than delta + 1 can cost the cartel nothing and tie the
        minimal deviation: the oracle must then report violations.
        """
        inst = SystemInstance.from_kappa(10, 3, 6)
        econ = EconParams.normalized(fee=0.0, alpha_v=30.0, gamma=0.9, bounty=12.0)
        report = minimal_sabotage_exhaustive(inst, 0.3, econ, paths=25, seed=[20260809, 13])
        assert report.violations == 6
        assert not report.passed

    @pytest.mark.parametrize(
        "n,m,kappa",
        [(10, 2, k) for k in range(2, 7)]
        + [(10, 3, k) for k in range(3, 10)]
        + [(12, 4, k) for k in range(4, 9)],
    )
    def test_sabotage_matches_reference_enumerator(self, n, m, kappa):
        inst = SystemInstance.from_kappa(n, m, kappa)
        econs = [
            EconParams.normalized(fee=1.0, alpha_v=30.0, gamma=0.9, bounty=12.0),
            EconParams.normalized(fee=0.5, alpha_v=4.0, gamma=0.99, bounty=40.0),
            EconParams.normalized(fee=0.0, alpha_v=30.0, gamma=0.9, bounty=12.0),
        ]
        for beta in (0.25, 0.3, 0.5):
            if (beta * n) % 1:
                continue  # the cartel must be a whole number of lanes
            for econ in econs:
                for seed in range(12):
                    key = [seed, n, m, kappa]
                    report = minimal_sabotage_exhaustive(inst, beta, econ, paths=PATHS, seed=key)
                    got = (report.paths_with_delay_option, report.paths_skipped, report.violations)
                    assert got == reference_sabotage_report(inst, beta, econ, PATHS, key)

    def test_empty_runs_rejected(self):
        inst = SystemInstance.from_kappa(10, 3, 6)
        with pytest.raises(ValueError, match="at least one trial"):
            verify_pathwise_theorems(inst, 0.3, trials=0, seed=1)
        with pytest.raises(ValueError, match="at least one path"):
            minimal_sabotage_exhaustive(inst, 0.3, ECON, paths=0, seed=1)

    def test_sabotage_rejects_oversized_instances(self):
        big = SystemInstance.from_kappa(100, 20, 30)
        with pytest.raises(ValueError):
            minimal_sabotage_exhaustive(big, 0.2, ECON, paths=1, seed=0)
