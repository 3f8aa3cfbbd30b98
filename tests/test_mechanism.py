"""Pivotal bounty rule: allocation conservation, cartel shares, minimax weights."""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotk import mechanism
from pivotk.mechanism import (
    DecodeNotReached,
    WeightRule,
    minimax_certificate,
    pivotal_allocation,
)


# Rules whose weights have unequal denominators, some with zero weights.
UNEQUAL_DENOMINATOR_RULES = [
    WeightRule.from_weights([Fraction(2, 3) ** j for j in range(5)]),
    WeightRule.from_weights((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))),
    WeightRule.from_weights((Fraction(0), Fraction(1, 3), Fraction(2, 3))),
    WeightRule.from_weights((Fraction(0), Fraction(0), Fraction(1))),
    WeightRule.from_weights(
        (Fraction(1, 10), Fraction(0), Fraction(3, 7), Fraction(0), Fraction(33, 70))
    ),
]


# Integer weights: any nonnegative list with a positive total, lists scaled by
# a common factor (so their gcd exceeds 1), and lists with one nonzero entry.
INT_WEIGHTS = st.one_of(
    st.lists(st.integers(0, 10**6), min_size=1, max_size=12).filter(any),
    st.tuples(
        st.lists(st.integers(0, 50), min_size=1, max_size=12).filter(any), st.integers(2, 360)
    ).map(lambda t: [w * t[1] for w in t[0]]),
    st.tuples(st.integers(1, 12), st.integers(0, 11), st.integers(1, 10**6)).map(
        lambda t: [t[2] if j == t[1] % t[0] else 0 for j in range(t[0])]
    ),
)


def reference_floor(rule, d):
    return sum(sorted(rule.weights)[:d], Fraction(0))


def brute_force_report(kappa, d, rules):
    """``(violations, false_equalities)`` with each rule's removal floor taken
    as the least weight sum over every d-subset of its ranks."""
    ceiling = Fraction(d, kappa)
    floors = [
        Fraction(min(map(sum, itertools.combinations(rule.nums, d))), rule.scale)
        for rule in rules
    ]
    return (
        tuple(i for i, f in enumerate(floors) if f > ceiling),
        tuple(
            i for i, (f, rule) in enumerate(zip(floors, rules))
            if f == ceiling and len(set(rule.nums)) > 1
        ),
    )


def reference_paid_to(owners, K, s, B, owner):
    """Per-rank payment sum: each of the first kappa ranks that ``owner``
    holds earns ``Fraction(B) / K`` per symbol index it carries."""
    kappa = -(-K // s)
    total = Fraction(0)
    for rank, o in enumerate(owners[:kappa], start=1):
        if o == owner:
            total += Fraction(B) / K * (s if rank < kappa else K - (kappa - 1) * s)
    return total


def unnormalized_rule(kappa):
    """Every weight 2/kappa, built without running ``__post_init__``'s checks."""
    bad = object.__new__(WeightRule)
    object.__setattr__(bad, "scale", kappa)
    object.__setattr__(bad, "nums", (2,) * kappa)
    return bad


class TestPivotalAllocation:
    def test_divisible_uniform_payments(self):
        alloc = pivotal_allocation(["honest"] * 7, K=10, s=2, B=1)
        assert alloc.kappa == 5
        assert (alloc.full, alloc.last) == (Fraction(1, 5), Fraction(1, 5))
        assert alloc.total_paid == 1

    def test_partial_final_bundle(self):
        alloc = pivotal_allocation(["honest"] * 4, K=10, s=4, B=1)
        assert alloc.kappa == 3
        assert alloc.r_idx == 2
        assert (alloc.full, alloc.last) == (Fraction(2, 5), Fraction(1, 5))
        assert alloc.total_paid == 1

    def test_decode_not_reached(self):
        with pytest.raises(DecodeNotReached):
            pivotal_allocation(["honest"] * 2, K=3, s=1, B=5)

    def test_bundles_beyond_threshold_unpaid(self):
        owners = ["honest"] * 4 + ["cartel"] * 5
        alloc = pivotal_allocation(owners, K=4, s=1, B=8)
        assert alloc.owners == ("honest",) * 4
        assert alloc.paid_to("cartel") == 0

    def test_conservation_randomized(self):
        rng = random.Random(7)
        for _ in range(300):
            s = rng.randint(1, 9)
            kappa = rng.randint(1, 25)
            K = (kappa - 1) * s + rng.randint(1, s)
            B = rng.randint(1, 10**6)
            alloc = pivotal_allocation(["honest"] * (kappa + rng.randint(0, 3)), K, s, B)
            assert alloc.total_paid == Fraction(B)

    @pytest.mark.parametrize("kind", [int, float, Fraction])
    def test_payments_exact_over_grid(self, kind):
        for K, s in itertools.product(range(1, 13), range(1, 6)):
            kappa = -(-K // s)
            index_counts = [s] * (kappa - 1) + [K - (kappa - 1) * s]
            for raw in (1, 7, 250):
                # Floats such as 0.1 and Fractions such as 7/3 are not whole.
                B = {int: raw, float: raw / 10, Fraction: Fraction(raw, 3)}[kind]
                alloc = pivotal_allocation(["honest"] * (kappa + 1), K, s, B)
                assert (alloc.full,) * (kappa - 1) + (alloc.last,) == tuple(
                    Fraction(B) / K * c for c in index_counts
                )
                assert alloc.total_paid == Fraction(B)

    def test_conservation_reads_the_entries(self):
        alloc = pivotal_allocation(["cartel", "honest", "cartel"], 7, 3, 10)
        assert alloc.total_paid == alloc.budget
        eps = Fraction(1, 10**12)
        # "full" is paid to ranks 1 and 2, "last" to rank 3.
        for field, shifts in (("full", {"cartel": eps, "honest": eps}), ("last", {"cartel": eps})):
            faulty = dataclasses.replace(alloc, **{field: getattr(alloc, field) + eps})
            assert faulty.total_paid != faulty.budget
            for owner in ("cartel", "honest"):
                assert faulty.paid_to(owner) == alloc.paid_to(owner) + shifts.get(owner, 0)

    def test_cartel_share(self):
        alloc = pivotal_allocation(["cartel", "honest", "cartel"], 3, 1, 9)
        assert alloc.paid_to("cartel") == 6
        assert alloc.paid_to("honest") == 3


class TestCartelShare:
    """``paid_to`` counts owners; the reference sums the ranks' payments."""

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
            alloc = pivotal_allocation(owners, K, s, B)
            for owner in ("cartel", "honest"):
                assert alloc.paid_to(owner) == reference_paid_to(owners, K, s, B, owner)

    def test_partial_final_bundle(self):
        # K = 10, s = 4: kappa 3, the final bundle carries r_idx = 2 indices.
        def share(owners):
            return pivotal_allocation(owners, 10, 4, 1).paid_to("cartel")

        assert share(["cartel", "honest", "cartel"]) == Fraction(6, 10)
        assert share(["honest", "cartel", "honest", "cartel"]) == Fraction(2, 5)
        assert share(["honest"] * 3) == 0

    def test_decode_not_reached(self):
        with pytest.raises(DecodeNotReached, match="decode needs 3 bundles, only 2 included"):
            pivotal_allocation(["cartel", "cartel"], 3, 1, 5)
        with pytest.raises(ValueError, match="K and s must be positive"):
            pivotal_allocation(["cartel"], 1, 0, 5)


class TestWeightRules:
    def test_uniform_floor(self):
        # The uniform rule's floor is d/12, the ceiling itself: no violation,
        # and no false equality since the rule is uniform.
        rule = WeightRule.uniform(12)
        for d in range(1, 13):
            report = minimax_certificate(12, d, [rule])
            assert report.passed
            assert report.ceiling == reference_floor(rule, d) == Fraction(d, 12)

    def test_concentrated_rule_floor_zero(self):
        # Floor 0 at d = 1..3; only deleting all four ranks forfeits the
        # whole budget, where every rule attains the ceiling 1.
        rule = WeightRule.from_weights([1, 0, 0, 0])
        for d in (1, 2, 3):
            assert minimax_certificate(4, d, [rule]).passed
        assert minimax_certificate(4, 4, [rule]).false_equalities == (0,)

    def test_floor_matches_subset_minimum(self):
        rng = random.Random(3)
        rules = [WeightRule.uniform(5)]
        for _ in range(50):
            raw = [rng.randint(0, 20) for _ in range(5)]
            if sum(raw) == 0:
                raw[0] = 1
            rules.append(WeightRule.from_weights(raw))
        rules.append(unnormalized_rule(5))
        for d in range(1, 6):
            report = minimax_certificate(5, d, rules)
            assert (report.violations, report.false_equalities) == brute_force_report(5, d, rules)
            assert report.violations == (len(rules) - 1,)

    def test_out_of_range_rejected(self):
        rules = [WeightRule.uniform(4)]
        for d in (0, 5):
            with pytest.raises(ValueError, match=rf"^d={d} outside \[1, 4\]$"):
                minimax_certificate(4, d, rules)

    def test_rejects_unnormalized_or_negative(self):
        with pytest.raises(ValueError, match=r"^weights sum to 5/6, not 1$"):
            WeightRule(6, (3, 2))
        with pytest.raises(ValueError, match=r"^weights sum to 2, not 1$"):
            WeightRule(3, (3, 3))
        with pytest.raises(ValueError, match=r"^weights must be nonnegative$"):
            WeightRule(2, (3, -1))
        with pytest.raises(ValueError, match=r"^weights must be nonnegative$"):
            WeightRule(6, (3, -2))  # checked before the sum
        with pytest.raises(ValueError, match=r"^need at least one rank$"):
            WeightRule(1, ())

    @pytest.mark.parametrize(
        "scale, nums", [(0, (0,)), (0, (0, 0)), (0, (1,)), (-2, (-2,)), (-3, (1, -4))]
    )
    def test_nonpositive_scale_rejected(self, scale, nums):
        with pytest.raises(ValueError, match=rf"^scale must be positive, got {scale}$"):
            WeightRule(scale, nums)

    def test_stored_form_is_reduced_integers(self):
        rule = WeightRule(12, (6, 0, 3, 3))
        assert [f.name for f in dataclasses.fields(rule)] == ["scale", "nums"]
        assert (rule.scale, rule.nums) == (4, (2, 0, 1, 1))
        assert rule == WeightRule(4, (2, 0, 1, 1)) == WeightRule.from_weights([2, 0, 1, 1])
        assert repr(rule) == "WeightRule(scale=4, nums=(2, 0, 1, 1))"
        assert WeightRule(5, [1, 4]).nums == (1, 4)  # a list is stored as a tuple

    @pytest.mark.parametrize("rule", UNEQUAL_DENOMINATOR_RULES)
    def test_floor_matches_fraction_reference(self, rule):
        for d in range(1, rule.kappa + 1):
            report = minimax_certificate(rule.kappa, d, [rule])
            floor = reference_floor(rule, d)
            # none of these rules is uniform, so attaining the ceiling is a false equality
            assert report.violations == ((0,) if floor > report.ceiling else ())
            assert report.false_equalities == ((0,) if floor == report.ceiling else ())

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

    @given(raw=INT_WEIGHTS)
    @settings(max_examples=300, deadline=None)
    def test_integer_form_matches_fraction_rules(self, raw):
        total = sum(raw)
        reference = WeightRule(total, tuple(raw))  # unreduced when gcd(raw) > 1
        assert reference.weights == tuple(Fraction(w, total) for w in raw)
        assert math.gcd(reference.scale, *reference.nums) == 1
        for rule in (
            WeightRule.from_weights(raw),
            WeightRule.from_weights([Fraction(w) for w in raw]),
        ):
            assert rule == reference
            assert hash(rule) == hash(reference)
            assert repr(rule) == repr(reference)
            assert rule.weights == reference.weights
            assert all(type(w) is Fraction for w in rule.weights)

    def test_integer_rule_reads_build_no_fraction(self, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(mechanism, "Fraction", CountingFraction)
        rule = WeightRule.from_weights([5, 0, 3, 3, 1])
        uniform = WeightRule.from_weights([2, 2, 2, 2, 2])
        assert WeightRule(24, (10, 0, 6, 6, 2)) == rule
        assert WeightRule.uniform(5) == uniform
        assert built == []
        assert rule.kappa == 5
        assert not rule.is_uniform and uniform.is_uniform
        assert built == []
        report = minimax_certificate(5, 2, [uniform, rule])
        assert report.passed
        assert len(built) == 1  # the ceiling itself
        assert rule.weights == (Fraction(5, 12), 0, Fraction(1, 4), Fraction(1, 4), Fraction(1, 12))

    def test_negative_weight_with_positive_total_rejected(self):
        for raw in ([3, -1], [Fraction(3), -1.0], [0.5, 0, -0.25]):
            with pytest.raises(ValueError, match=r"^weights must be nonnegative$"):
                WeightRule.from_weights(raw)

    def test_rule_is_frozen(self):
        rule = WeightRule.from_weights([1, 2])
        for name, value in (("scale", 6), ("nums", (2, 4)), ("weights", (Fraction(1),))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rule, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(rule, name)
        assert (rule.scale, rule.nums) == (3, (1, 2))

    def test_nonpositive_integer_total_rejected(self):
        for raw in ([0, 0, 0], [2, -3], []):
            with pytest.raises(ValueError, match=r"^weights must have positive total$"):
                WeightRule.from_weights(raw)

    def test_fraction_powers_normalized(self):
        rule = WeightRule.from_weights([Fraction(1, 2) ** j for j in range(3)])
        assert rule.weights == (Fraction(4, 7), Fraction(2, 7), Fraction(1, 7))

    @given(raw=st.lists(st.integers(0, 50), min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_floor_never_exceeds_uniform(self, raw):
        if sum(raw) == 0:
            raw[0] = 1
        rules = [WeightRule.from_weights(raw), WeightRule.uniform(len(raw))]
        for d in range(1, len(raw) + 1):
            report = minimax_certificate(len(raw), d, rules)
            assert (report.violations, report.false_equalities) == brute_force_report(
                len(raw), d, rules
            )
            assert report.violations == ()


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
        rule = WeightRule.from_weights(weights)
        # strictly below the ceiling: neither above it nor equal to it
        for d in range(1, kappa):
            assert minimax_certificate(kappa, d, [rule]).passed

    def test_mismatched_rank_count_rejected(self):
        with pytest.raises(ValueError):
            minimax_certificate(5, 2, [WeightRule.uniform(4)])
