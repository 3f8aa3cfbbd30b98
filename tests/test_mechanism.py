"""Pivotal bounty rule: ordering, allocation conservation, minimax weights."""

from __future__ import annotations

import dataclasses
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotk import mechanism
from pivotk.mechanism import (
    BundleRecord,
    DecodeNotReached,
    WeightRule,
    minimax_certificate,
    pivotal_allocation,
    pivotal_cartel_share,
    removal_floor,
    resolve_order,
    ticket_hash_of,
)


def rec(slot, lane, ticket=None, owner="honest", admissible=True):
    return BundleRecord(slot, lane, ticket or (0, slot, lane), owner, admissible)


# Rules whose weights have unequal denominators, some with zero weights.
UNEQUAL_DENOMINATOR_RULES = [
    WeightRule.slot_decayed(5, Fraction(2, 3)),
    WeightRule((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    WeightRule((Fraction(0), Fraction(1, 3), Fraction(2, 3))),
    WeightRule((Fraction(0), Fraction(0), Fraction(1))),
    WeightRule((Fraction(1, 10), Fraction(0), Fraction(3, 7), Fraction(0), Fraction(33, 70))),
]


def reference_floor(rule, d):
    return sum(sorted(rule.weights)[:d], Fraction(0))


def reference_resolve_order(records):
    """The full-key resolution order, kept as an oracle for ``resolve_order``.

    Sorts admissible records by ``(slot, lane, ticket_hash)``, keeps each
    ticket's first occurrence and rejects distinct tickets whose full keys
    collide.  Hashes through ``mechanism.ticket_hash_of`` so that a patched
    hash reaches the oracle too.
    """
    keyed = [
        ((r.slot, r.lane, mechanism.ticket_hash_of(r.ticket_id)), r)
        for r in records
        if r.admissible
    ]
    keyed.sort(key=lambda pair: pair[0])
    seen, keys, out = set(), set(), []
    for key, r in keyed:
        if r.ticket_id in seen:
            continue
        if key in keys:
            raise ValueError(f"distinct tickets collide in the resolution order at {key}")
        keys.add(key)
        seen.add(r.ticket_id)
        out.append(r)
    return out


def order_outcome(resolve, records):
    """Identities of the resolved records, or the error message."""
    try:
        return [id(r) for r in resolve(records)]
    except ValueError as exc:
        return str(exc)


def random_records(rng):
    """Records on a small (slot, lane) grid: ties, repeated tickets at other
    positions, and non-admissible copies all occur often."""
    records = []
    for _ in range(rng.randint(0, 14)):
        slot, lane = rng.randint(1, 3), rng.randint(1, 3)
        ticket = rng.choice([(0, slot, lane), f"t{rng.randint(0, 5)}"])
        owner = rng.choice(["honest", "cartel"])
        records.append(BundleRecord(slot, lane, ticket, owner, rng.random() < 0.8))
    return records


def unnormalized_rule(kappa):
    """Every weight 2/kappa, built without running ``__init__``'s checks."""
    bad = WeightRule.__new__(WeightRule)
    object.__setattr__(bad, "weights", tuple(Fraction(2, kappa) for _ in range(kappa)))
    return bad


class TestResolveOrder:
    def test_duplicate_ticket_dropped(self):
        first = rec(1, 2, ticket="t1")
        dup = rec(3, 9, ticket="t1")
        assert resolve_order([dup, first]) == [first]

    def test_sorted_admissible_input_is_identity(self):
        records = [rec(1, 1), rec(1, 5), rec(2, 3)]
        assert resolve_order(records) == records

    def test_order_is_input_permutation_invariant(self):
        records = [rec(2, 7), rec(1, 9), rec(1, 2), rec(3, 1), rec(2, 2)]
        expected = sorted(records, key=lambda r: (r.slot, r.lane, r.ticket_hash))
        for perm in itertools.permutations(records):
            assert resolve_order(perm) == expected

    def test_non_admissible_ignored(self):
        keep = [rec(1, 3), rec(2, 4)]
        noise = [rec(1, 1, admissible=False), rec(1, 9, ticket="copy", admissible=False)]
        assert resolve_order(noise + keep) == keep

    def test_hash_tiebreak_within_cell(self):
        a = rec(1, 1, ticket="aaa")
        b = rec(1, 1, ticket="bbb")
        expected_first = min(a, b, key=lambda r: r.ticket_hash)
        assert resolve_order([a, b])[0] == expected_first

    def test_distinct_tickets_with_colliding_keys_rejected(self):
        class Opaque:
            def __init__(self, tag):
                self.tag = tag

            def __repr__(self):  # identical reprs force identical hashes
                return "opaque-ticket"

        a = rec(1, 1, ticket=Opaque("a"))
        b = rec(1, 1, ticket=Opaque("b"))
        with pytest.raises(ValueError, match="collide"):
            resolve_order([a, b])

    def test_matches_full_key_oracle(self):
        rng = random.Random(11)
        for _ in range(2000):
            records = random_records(rng)
            expected = order_outcome(reference_resolve_order, records)
            assert order_outcome(resolve_order, records) == expected

    def test_forced_collision_matches_oracle(self, monkeypatch):
        monkeypatch.setattr(mechanism, "ticket_hash_of", lambda ticket_id: 7)
        rng = random.Random(12)
        raised = 0
        for _ in range(2000):
            records = random_records(rng)
            expected = order_outcome(reference_resolve_order, records)
            assert order_outcome(resolve_order, records) == expected
            raised += isinstance(expected, str)
        assert raised > 100
        a, b = rec(2, 3, ticket="a"), rec(2, 3, ticket="b")
        with pytest.raises(ValueError, match=r"collide in the resolution order at \(2, 3, 7\)"):
            resolve_order([a, b])

    def test_only_tied_cells_are_hashed(self, monkeypatch):
        hashed = []

        def counting_hash(ticket_id, real=mechanism.ticket_hash_of):
            hashed.append(ticket_id)
            return real(ticket_id)

        monkeypatch.setattr(mechanism, "ticket_hash_of", counting_hash)
        lone = [rec(slot, lane) for slot in (1, 2) for lane in (4, 1, 3)]
        assert resolve_order(lone) == sorted(lone, key=lambda r: (r.slot, r.lane))
        assert hashed == []
        tied = [rec(2, 2, ticket=t) for t in ("x", "y", "z")]
        resolve_order(lone + tied)
        assert sorted(hashed) == ["x", "y", "z"]

    def test_hash_is_deterministic(self):
        assert ticket_hash_of((0, 1, 2)) == ticket_hash_of((0, 1, 2))
        assert ticket_hash_of((0, 1, 2)) != ticket_hash_of((0, 1, 3))


class TestPivotalAllocation:
    def test_divisible_uniform_payments(self):
        ordered = [rec(1, lane) for lane in range(1, 8)]
        alloc = pivotal_allocation(ordered, K=10, s=2, B=1)
        assert alloc.kappa == 5
        assert [e.payment for e in alloc.entries] == [Fraction(1, 5)] * 5
        assert alloc.total_paid == 1

    def test_partial_final_bundle(self):
        ordered = [rec(1, lane) for lane in range(1, 5)]
        alloc = pivotal_allocation(ordered, K=10, s=4, B=1)
        assert alloc.kappa == 3
        assert alloc.r_idx == 2
        assert [float(e.payment) for e in alloc.entries] == [0.4, 0.4, 0.2]
        assert alloc.total_paid == 1

    def test_decode_not_reached(self):
        ordered = [rec(1, lane) for lane in range(1, 3)]
        with pytest.raises(DecodeNotReached):
            pivotal_allocation(ordered, K=3, s=1, B=5)

    def test_bundles_beyond_threshold_unpaid(self):
        ordered = [rec(1, lane) for lane in range(1, 10)]
        alloc = pivotal_allocation(ordered, K=4, s=1, B=8)
        assert len(alloc.entries) == 4
        assert {e.lane for e in alloc.entries} == {1, 2, 3, 4}

    def test_conservation_randomized(self):
        rng = random.Random(7)
        for _ in range(300):
            s = rng.randint(1, 9)
            kappa = rng.randint(1, 25)
            K = (kappa - 1) * s + rng.randint(1, s)
            B = rng.randint(1, 10**6)
            ordered = [rec(1, lane) for lane in range(1, kappa + rng.randint(1, 4))]
            alloc = pivotal_allocation(ordered, K, s, B)
            assert alloc.total_paid == Fraction(B)

    @pytest.mark.parametrize("kind", [int, float, Fraction])
    def test_payments_exact_over_grid(self, kind):
        for K, s in itertools.product(range(1, 13), range(1, 6)):
            kappa = -(-K // s)
            ordered = [rec(1, lane) for lane in range(1, kappa + 2)]
            for raw in (1, 7, 250):
                # Floats such as 0.1 and Fractions such as 7/3 are not whole.
                B = {int: raw, float: raw / 10, Fraction: Fraction(raw, 3)}[kind]
                alloc = pivotal_allocation(ordered, K, s, B)
                assert [e.index_count for e in alloc.entries] == [s] * (kappa - 1) + [
                    K - (kappa - 1) * s
                ]
                for e in alloc.entries:
                    assert e.payment == Fraction(B) / K * e.index_count
                assert alloc.total_paid == Fraction(B)

    def test_conservation_reads_the_entries(self):
        ordered = [rec(1, 1, owner="cartel"), rec(1, 2), rec(1, 3, owner="cartel")]
        alloc = pivotal_allocation(ordered, 7, 3, 10)
        assert alloc.total_paid == alloc.budget
        for i, e in enumerate(alloc.entries):
            bumped = dataclasses.replace(e, payment=e.payment + Fraction(1, 10**12))
            entries = alloc.entries[:i] + (bumped,) + alloc.entries[i + 1 :]
            faulty = dataclasses.replace(alloc, entries=entries)
            assert faulty.total_paid != faulty.budget
            assert faulty.paid_to(e.owner) == alloc.paid_to(e.owner) + Fraction(1, 10**12)

    def test_insensitive_to_non_admissible_stuffing(self):
        ordered = [rec(1, lane) for lane in range(1, 6)]
        stuffed = resolve_order(
            ordered + [rec(1, 1, ticket="x", admissible=False) for _ in range(10)]
        )
        base = pivotal_allocation(ordered, 5, 1, 7)
        again = pivotal_allocation(stuffed, 5, 1, 7)
        assert base == again

    def test_json_rows(self):
        ordered = [rec(1, 1, owner="cartel"), rec(1, 2)]
        alloc = pivotal_allocation(ordered, 2, 1, 3)
        rows = json.loads(alloc.to_json_rows())
        assert rows[0] == {
            "rank": 1,
            "lane": 1,
            "owner": "cartel",
            "payment_numerator": 3,
            "payment_denominator": 2,
        }

    def test_cartel_share(self):
        ordered = [rec(1, 1, owner="cartel"), rec(1, 2), rec(1, 3, owner="cartel")]
        alloc = pivotal_allocation(ordered, 3, 1, 9)
        assert alloc.paid_to("cartel") == 6
        assert alloc.paid_to("honest") == 3


class TestCartelShare:
    """``pivotal_cartel_share`` counts owners; ``paid_to`` sums the entries."""

    @pytest.mark.parametrize("kind", [int, float, Fraction])
    def test_matches_entry_sum(self, kind):
        rng = random.Random(11)
        for _ in range(400):
            s = rng.randint(1, 6)
            kappa = rng.randint(1, 20)
            K = (kappa - 1) * s + rng.randint(1, s)  # partial final bundle when < s
            raw = rng.randint(1, 10**6)
            B = {int: raw, float: raw / 7, Fraction: Fraction(raw, 7)}[kind]
            p = rng.random()
            length = kappa + rng.randint(0, 3)
            owners = ["cartel" if rng.random() < p else "honest" for _ in range(length)]
            ordered = [rec(1, lane, owner=o) for lane, o in enumerate(owners, start=1)]
            share = pivotal_cartel_share(owners, K, s, B)
            assert share == pivotal_allocation(ordered, K, s, B).paid_to("cartel")

    def test_partial_final_bundle(self):
        # K = 10, s = 4: kappa 3, the final bundle carries r_idx = 2 indices.
        assert pivotal_cartel_share(["cartel", "honest", "cartel"], 10, 4, 1) == Fraction(6, 10)
        assert pivotal_cartel_share(["honest", "cartel", "honest", "cartel"], 10, 4, 1) == Fraction(2, 5)
        assert pivotal_cartel_share(["honest"] * 3, 10, 4, 1) == 0

    def test_decode_not_reached(self):
        with pytest.raises(DecodeNotReached, match="decode needs 3 bundles, only 2 included"):
            pivotal_cartel_share(["cartel", "cartel"], 3, 1, 5)
        with pytest.raises(ValueError, match="K and s must be positive"):
            pivotal_cartel_share(["cartel"], 1, 0, 5)


class TestWeightRules:
    def test_uniform_floor(self):
        rule = WeightRule.uniform(12)
        for d in range(1, 13):
            assert removal_floor(rule, d) == Fraction(d, 12)

    def test_concentrated_rule_floor_zero(self):
        rule = WeightRule.from_weights([1, 0, 0, 0])
        assert removal_floor(rule, 1) == 0

    def test_floor_matches_subset_minimum(self):
        rng = random.Random(3)
        for _ in range(50):
            raw = [rng.randint(0, 20) for _ in range(5)]
            if sum(raw) == 0:
                raw[0] = 1
            rule = WeightRule.from_weights(raw)
            brute = min(
                sum(subset, Fraction(0))
                for subset in itertools.combinations(rule.weights, 2)
            )
            assert removal_floor(rule, 2) == brute

    def test_out_of_range_rejected(self):
        rule = WeightRule.uniform(4)
        with pytest.raises(ValueError):
            removal_floor(rule, 0)
        with pytest.raises(ValueError):
            removal_floor(rule, 5)

    def test_rejects_unnormalized_or_negative(self):
        with pytest.raises(ValueError, match=r"^weights sum to 5/6, not 1$"):
            WeightRule((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError, match=r"^weights must be nonnegative$"):
            WeightRule((Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError, match=r"^weights must be nonnegative$"):
            WeightRule((Fraction(1, 2), Fraction(-1, 3)))  # checked before the sum
        with pytest.raises(ValueError, match=r"^need at least one rank$"):
            WeightRule(())

    @pytest.mark.parametrize("rule", UNEQUAL_DENOMINATOR_RULES)
    def test_floor_matches_fraction_reference(self, rule):
        for d in range(1, rule.kappa + 1):
            assert removal_floor(rule, d) == reference_floor(rule, d)

    @pytest.mark.parametrize("raw", [
        [3, 0, 5, 0, 1],
        [0, 0, 7, 0],  # a single nonzero entry
        [9],
        [0, 1],
        [999, 1, 0, 500, 12, 12, 0, 3, 998, 0, 7, 1],
    ])
    def test_integer_weights_match_fraction_path(self, raw):
        total = sum(Fraction(w) for w in raw)
        reference = tuple(Fraction(w) / total for w in raw)
        rule = WeightRule.from_weights(raw)
        assert rule.weights == reference
        assert all(type(w) is Fraction for w in rule.weights)
        assert WeightRule.from_weights([Fraction(w) for w in raw]) == rule

    def test_nonpositive_integer_total_rejected(self):
        for raw in ([0, 0, 0], [2, -3], []):
            with pytest.raises(ValueError, match=r"^weights must have positive total$"):
                WeightRule.from_weights(raw)

    def test_slot_decay_constructor(self):
        rule = WeightRule.slot_decayed(3, Fraction(1, 2))
        assert rule.weights == (Fraction(4, 7), Fraction(2, 7), Fraction(1, 7))

    @given(raw=st.lists(st.integers(0, 50), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_floor_never_exceeds_uniform(self, raw):
        if sum(raw) == 0:
            raw[0] = 1
        rule = WeightRule.from_weights(raw)
        for d in range(1, rule.kappa + 1):
            assert removal_floor(rule, d) <= Fraction(d, rule.kappa)


class TestMinimaxCertificate:
    def test_matches_fraction_reference(self):
        for kappa in (3, 5):
            rules = [WeightRule.uniform(kappa), unnormalized_rule(kappa)]
            rules += [r for r in UNEQUAL_DENOMINATOR_RULES if r.kappa == kappa]
            for d in range(1, kappa + 1):
                ceiling = Fraction(d, kappa)
                floors = [reference_floor(rule, d) for rule in rules]
                report = minimax_certificate(kappa, d, rules)
                assert report.ceiling == ceiling
                assert report.violations == tuple(
                    i for i, f in enumerate(floors) if f > ceiling
                )
                # at d = kappa every normalized rule attains the ceiling
                assert report.false_equalities == tuple(
                    i
                    for i, (f, rule) in enumerate(zip(floors, rules))
                    if f == ceiling and set(rule.weights) != {Fraction(1, kappa)}
                )

    def test_rule_built_without_init_is_a_violation(self):
        # The verify battery's injected fault builds its rule this way.
        kappa = 12
        rules = [WeightRule.uniform(kappa), unnormalized_rule(kappa)]
        for d in (1, 2, 3):
            report = minimax_certificate(kappa, d, rules)
            assert report.violations == (1,)
            assert not report.passed

    def test_random_rules_bounded_with_unique_equality(self):
        rng = random.Random(11)
        kappa = 12
        rules = [WeightRule.uniform(kappa)]
        for _ in range(1000):
            raw = [rng.randint(0, 999) for _ in range(kappa)]
            if sum(raw) == 0:
                raw[0] = 1
            rules.append(WeightRule.from_weights(raw))
        for d in (1, 2, 3):
            report = minimax_certificate(kappa, d, rules)
            assert report.passed
            assert report.ceiling == Fraction(d, kappa)

    def test_single_rank_is_trivially_uniform(self):
        report = minimax_certificate(1, 1, [WeightRule.uniform(1)])
        assert report.passed
        assert report.ceiling == 1

    def test_perturbed_uniform_strictly_below(self):
        kappa = 10
        eps = Fraction(1, 1000)
        weights = [Fraction(1, kappa)] * kappa
        weights[0] += eps
        weights[1] -= eps
        rule = WeightRule(tuple(weights))
        for d in range(1, kappa):
            assert removal_floor(rule, d) < Fraction(d, kappa)

    def test_mismatched_rank_count_rejected(self):
        with pytest.raises(ValueError):
            minimax_certificate(5, 2, [WeightRule.uniform(4)])
