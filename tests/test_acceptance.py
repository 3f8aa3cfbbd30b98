"""Acceptance battery: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from pivotk.cli import main
from pivotk.delay import DelayRegime, exact_q0, fluid_delay_report, kl_delay_bound, sawtooth_sweep
from pivotk.geometry import ContactSchedule, SystemInstance
from pivotk.incentives import (
    EconParams,
    coalition_sufficient_bounty,
    equal_share,
    knife_edge_bounty_threshold,
)
from pivotk.mechanism import (
    WeightRule,
    minimax_certificate,
    pivotal_allocation,
)
from pivotk.probability import DiscreteDistribution, HypergeomLaw
from pivotk.ratchet import honest_miss_delay_bound
from pivotk.simulator import (
    FullWithhold,
    estimate_delay,
    minimal_sabotage_exhaustive,
    verify_pathwise_theorems,
)

N, M, BETA = 100, 20, 0.2
TABLE_KAPPAS = (10, 20, 30, 50, 100)
PAPER_ECON = EconParams.normalized(fee=1.0, alpha_v=100.0, gamma=0.99)
SEED = 20260809


def _passed(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _cli_csv(capsys, *argv) -> list[list[str]]:
    code = main(list(argv))
    assert code == 0
    out = capsys.readouterr().out
    return [line.split(",") for line in out.strip().splitlines()[1:]]


def test_c01_main_table_reproduction(capsys):
    rows = _cli_csv(capsys, "table-main", "--format", "csv")
    by_kappa = {int(r[0]): r for r in rows}
    assert sorted(by_kappa) == list(TABLE_KAPPAS)

    expected_q0 = {10: "8.0e-05", 20: "0.993", 30: "0.136", 50: "0.699", 100: "~1"}
    expected_qrat = {10: "8.0e-05", 20: "0.993", 30: "8.0e-05", 50: "8.0e-05", 100: "0.993"}
    expected_qmic = {10: "6.5e-04", 20: "1.9e-21", 30: "6.5e-04", 50: "6.5e-04", 100: "1.9e-21"}
    expected_b = {10: 0.04, 20: 497, 30: 68, 50: 350, 100: 500}
    last_digit = {10: 0.01, 20: 1, 30: 1, 50: 1, 100: 1}
    for kappa in TABLE_KAPPAS:
        row = by_kappa[kappa]
        assert row[3] == expected_q0[kappa], f"q0 at kappa={kappa}"
        assert row[4] == expected_qrat[kappa], f"q_rat at kappa={kappa}"
        assert row[5] == expected_qmic[kappa], f"q_micro at kappa={kappa}"
        shown_b = float(row[6])
        assert abs(shown_b - expected_b[kappa]) <= last_digit[kappa], f"B at kappa={kappa}"
    _passed(1, "main table reproduction")


def test_c02_coalition_table(capsys):
    rows = _cli_csv(capsys, "table-coalition", "--format", "csv")
    shares = [row[3] for row in rows]
    assert shares == ["9.0", "99.0", "8.9", "8.8", "95.1"]
    coal = [row[4] for row in rows]
    assert coal[1] == "n/a" and coal[4] == "n/a"
    for text, expected in ((coal[0], 880), (coal[2], 2610), (coal[3], 4302)):
        assert abs(int(text) - expected) <= 1
    # the closed forms behind the table, at full precision
    assert coalition_sufficient_bounty(
        SystemInstance.from_kappa(N, M, 10), PAPER_ECON
    ) == pytest.approx(880.0)
    assert equal_share(PAPER_ECON, SystemInstance.from_kappa(N, M, 100)) == pytest.approx(
        95.099, abs=5e-4
    )
    _passed(2, "coalition table")


def test_c03_knife_edge_thresholds():
    inst20 = SystemInstance.from_kappa(N, M, 20)
    q0_20 = float(exact_q0(inst20, BETA))
    b20 = knife_edge_bounty_threshold(inst20, BETA, PAPER_ECON, q0_20).bounty_min
    assert b20 == pytest.approx(2475, rel=0.01)
    assert abs(b20 - 2500) / 2500 <= 0.05

    inst100 = SystemInstance.from_kappa(N, M, 100)
    b100_quoted = knife_edge_bounty_threshold(inst100, BETA, PAPER_ECON, 0.993).bounty_min
    assert b100_quoted == pytest.approx(10370, rel=0.01)
    assert abs(b100_quoted - 10000) / 10000 <= 0.05
    b100_exact = knife_edge_bounty_threshold(
        inst100, BETA, PAPER_ECON, float(exact_q0(inst100, BETA))
    ).bounty_min
    assert abs(b100_exact - 10000) / 10000 <= 0.05
    _passed(3, "knife-edge bounty thresholds")


def test_c04_cost_table(capsys):
    rows = _cli_csv(capsys, "table-cost", "--format", "csv")
    assert [row[2] for row in rows] == ["$0.002", "$0.02", "$2.00"]
    assert {row[3] for row in rows} == {"0.04%"}
    _passed(4, "sender bounty cost table")


def test_c05_pathwise_dominance():
    for kappa in TABLE_KAPPAS:
        inst = SystemInstance.from_kappa(N, M, kappa)
        violations = verify_pathwise_theorems(inst, BETA, trials=10_000, seed=[SEED, kappa])
        assert violations == 0, f"violation at kappa={kappa}"
    _passed(5, "pathwise dominance (10^4 CRN paths per instance)")


def test_c06_minimal_sabotage_exhaustive():
    econ = EconParams.normalized(fee=1.0, alpha_v=30.0, gamma=0.9, bounty=12.0)
    grid = [(2, kappa) for kappa in range(2, 7)] + [(3, kappa) for kappa in range(3, 10)]
    checked_paths = 0
    for m, kappa in grid:
        inst = SystemInstance.from_kappa(10, m, kappa)
        assert inst.t_star * inst.m <= 18
        report = minimal_sabotage_exhaustive(inst, 0.3, econ, paths=30, seed=[SEED, m, kappa])
        assert report.violations == 0, f"violation on m={m}, kappa={kappa}"
        checked_paths += report.paths_with_delay_option
    assert checked_paths > 100  # the grid must actually exercise delay-capable paths
    _passed(6, "minimal sabotage exhaustive enumeration")


def test_c07_minimax_certificate():
    rng = random.Random(SEED)
    kappa = 12
    rules = [WeightRule.uniform(kappa)]
    while len(rules) < 1000:
        raw = [rng.randint(0, 997) for _ in range(kappa)]
        if sum(raw) == 0:
            continue
        rules.append(WeightRule.from_weights(raw))
    for d in (1, 2, 3):
        report = minimax_certificate(kappa, d, rules)
        assert report.passed
    _passed(7, "minimax certificate (1000 rules, exact rationals)")


def test_c08_allocation_conservation():
    rng = random.Random(SEED + 1)
    for _ in range(1000):
        s = rng.randint(1, 12)
        kappa = rng.randint(1, 40)
        r_idx = rng.randint(1, s)
        K = (kappa - 1) * s + r_idx  # non-divisible whenever r_idx < s
        B = rng.randint(1, 10**9)
        owners = ["honest"] * (kappa + rng.randint(1, 3) - 1)
        alloc = pivotal_allocation(owners, K, s, B)
        assert alloc.paid_to("honest") + alloc.paid_to("cartel") == Fraction(B)
        assert alloc.r_idx == r_idx
    _passed(8, "allocation conservation (1000 randomized triples)")


def test_c09_mc_exact_agreement():
    trials = 100_000
    for kappa in TABLE_KAPPAS:
        inst = SystemInstance.from_kappa(N, M, kappa)
        q0 = float(exact_q0(inst, BETA))
        if q0 < 1e-4:
            continue  # below MC resolution at this trial count
        est = estimate_delay(inst, BETA, FullWithhold(), trials, seed=[SEED, kappa])
        tol = 3 * max(est.stderr, math.sqrt(q0 * (1 - q0) / trials))
        assert abs(est.frequency - q0) <= tol, f"kappa={kappa}"
    # the deep within-slot tail is analytic only: MC cannot resolve 1.9e-21
    knife = SystemInstance.from_kappa(N, M, 20)
    from pivotk.intra_slot import q_micro

    assert float(q_micro(knife, BETA)) == pytest.approx(
        1.0 / math.comb(100, 20), rel=1e-12
    )
    _passed(9, "MC/exact delay agreement at 10^5 trials")


def test_c10_bound_dominance_sweep():
    for kappa in range(1, 121):
        inst = SystemInstance.from_kappa(N, M, kappa)
        q0 = float(exact_q0(inst, BETA))
        report = fluid_delay_report(inst, BETA, 0.0)
        if report.kl_bound is not None and report.theta_w > BETA:
            assert report.exact_probability <= report.kl_bound + 1e-12, f"kappa={kappa}"
        regime, bound = kl_delay_bound(inst.t_star, M, report.theta_w, BETA)
        if regime is DelayRegime.DELAY_LIKELY:
            assert (1.0 - q0) <= bound + 1e-12, f"kappa={kappa}"
    _passed(10, "KL bound dominance sweep")


def test_c11_ratchet_improvement():
    rows = sawtooth_sweep(N, M, BETA, range(1, 121))
    for row in rows:
        assert row.q_rat <= row.q0 + 1e-15, f"kappa={row.kappa}"
        if row.t_star >= 2 and not row.knife_edge:
            assert row.q_rat < row.q0, f"kappa={row.kappa}"
    # the headline collapse at the multi-slot positive-slack table rows
    by_kappa = {row.kappa: row for row in rows}
    for kappa in (30, 50):
        row = by_kappa[kappa]
        assert row.q_rat / row.q0 < 1e-2, f"kappa={kappa}"
    assert by_kappa[30].q0 == pytest.approx(0.136, abs=5e-4)
    assert by_kappa[30].q_rat == pytest.approx(8.0e-5, rel=5e-3)
    _passed(11, "ratchet improvement sweep (0.136 -> 8e-5 collapse)")


def test_c12_honest_miss_reduction():
    rows = sawtooth_sweep(N, M, BETA, range(1, 121))
    for row in rows:
        schedule = ContactSchedule.static(SystemInstance.from_kappa(N, M, row.kappa))
        law = DiscreteDistribution.from_law(HypergeomLaw(N, N // 5, M))
        no_miss = honest_miss_delay_bound(schedule, 0.0, law)
        assert no_miss.hex() == row.q_rat.hex(), f"kappa={row.kappa}"
    _passed(12, "honest-miss bound reduces to the ratchet tail at eps=0")


