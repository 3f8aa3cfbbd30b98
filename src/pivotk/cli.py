"""Command-line surface: tables, sweeps, property verification, and advice.

Exit codes: 0 success, 1 configuration/usage error, 2 property failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from . import delay, incentives, intra_slot, mechanism, ratchet, simulator
from .config import AnalysisConfig, ConfigError
from .geometry import ContactSchedule, SystemInstance, cartel_lane_count, cartel_share
from .incentives import EconParams
from .probability import DiscreteDistribution, cartel_contact_law
from .reporting import (
    displayed_fee_units,
    format_fee_units,
    format_percent,
    format_probability,
    format_usd,
    format_usd_small,
    format_usd_whole,
    render_csv,
    render_table,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PROPERTY = 2


def _load_config(args, need_cartel: bool = False) -> AnalysisConfig:
    cfg = AnalysisConfig.load(args.config) if args.config else AnalysisConfig.default()
    if need_cartel and cfg.beta <= 0:
        raise ConfigError(
            f"{args.command} prices bounties per cartel lane and needs beta > 0; "
            "set \"beta\" in the config to the cartel's lane fraction"
        )
    overrides = {k: v for k in ("seed", "trials") if (v := getattr(args, k, None)) is not None}
    if overrides:
        d = cfg.to_dict()
        d["mc"].update(overrides)
        cfg = AnalysisConfig.from_dict(d)
    return cfg


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# A column is (header, key, formatter): the table or CSV header, the key of
# the raw value in each row, and the function that turns that value into a cell.
Column = tuple[str, str, Callable[[object], str]]


def _cell(value) -> str:
    """Sweep cell: ``repr`` for a number, ``true``/``false`` for a boolean."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value)


def _columns(*keys: str) -> list[Column]:
    """Sweep columns: each header is its row key and each cell is ``_cell``."""
    return [(key, key, _cell) for key in keys]


def _render(args, cfg: AnalysisConfig, columns: Sequence[Column], rows: list[dict]) -> str:
    """Rows of raw values as a table, CSV, or the ``{"config", "rows"}`` JSON document."""
    if args.format == "json":
        doc = {"config": cfg.to_dict(), "rows": rows}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    header = [name for name, _, _ in columns]
    cells = [[fmt(row[key]) for _, key, fmt in columns] for row in rows]
    return (render_table if args.format == "table" else render_csv)(header, cells)


def _finite(value, what: str, kappa: int):
    """``value`` (None passes); a ConfigError naming ``what``'s keys if it overflowed."""
    if value is not None and not math.isfinite(value):
        raise ConfigError(f"{what} at kappa={kappa} must be finite; got {value!r}")
    return value


def _coalition_bounty(cfg: AnalysisConfig, inst: SystemInstance) -> float | None:
    what = f"the coalition bounty kappa * {cfg.econ.mev_exposure_keys} * gamma^t*"
    return _finite(incentives.coalition_sufficient_bounty(inst, cfg.econ), what, inst.kappa)


def _sweep_by_kappa(cfg: AnalysisConfig, kappas) -> dict[int, delay.SweepRow]:
    """Exact q0, q_rat and q_micro for ``kappas`` from one sweep, keyed by kappa."""
    rows = delay.sawtooth_sweep(cfg.instance.n, cfg.instance.m, cfg.beta, kappas)
    return {row.kappa: row for row in rows}


# --- table commands ---------------------------------------------------------

_MAIN_COLUMNS: list[Column] = [
    ("kappa", "kappa", str),
    ("t_star", "t_star", str),
    ("delta", "delta", str),
    ("q0", "q0", format_probability),
    ("q_rat", "q_rat", format_probability),
    ("q_micro", "q_micro", format_probability),
    ("B_static", "b_static", format_fee_units),
    ("B_static_usd", "b_static_usd", format_usd),
]


def cmd_table_main(args) -> int:
    cfg = _load_config(args, need_cartel=True)
    sweep = _sweep_by_kappa(cfg, cfg.table_kappas)
    rows = []
    for kappa in cfg.table_kappas:
        inst = replace(cfg.instance, K=kappa * cfg.instance.s)
        row = sweep[kappa]
        b_static, _ = incentives.bounty_proxies(inst, cfg.beta, cfg.econ, row.q0, row.q_rat)
        rows.append(
            {
                "kappa": kappa,
                "t_star": row.t_star,
                "delta": row.delta,
                "q0": row.q0,
                "q_rat": row.q_rat,
                "q_micro": row.q_micro,
                "b_static": b_static,
                "b_static_usd": _finite(
                    displayed_fee_units(b_static) * cfg.usd_per_fee_unit,
                    "B_static * usd_per_fee_unit",
                    kappa,
                ),
            }
        )
    _emit(args, _render(args, cfg, _MAIN_COLUMNS, rows))
    return EXIT_OK


_COALITION_COLUMNS: list[Column] = [
    ("kappa", "kappa", str),
    ("delta", "delta", str),
    ("unilateral_safe", "unilateral_safe", lambda safe: "yes" if safe else "no"),
    ("equal_share", "equal_share", "{:.1f}".format),
    ("B_coal", "b_coal", lambda b: "n/a" if b is None else str(round(b))),
    ("B_static", "b_static", format_fee_units),
]


def cmd_table_coalition(args) -> int:
    cfg = _load_config(args, need_cartel=True)
    sweep = _sweep_by_kappa(cfg, cfg.table_kappas)
    rows = []
    for kappa in cfg.table_kappas:
        inst = replace(cfg.instance, K=kappa * cfg.instance.s)
        b_static, _ = incentives.bounty_proxies(
            inst, cfg.beta, cfg.econ, sweep[kappa].q0, q_rat=0.0
        )
        rows.append(
            {
                "kappa": kappa,
                "delta": inst.delta,
                "unilateral_safe": inst.delta > 0,
                "equal_share": incentives.equal_share(cfg.econ, inst),
                "b_coal": _coalition_bounty(cfg, inst),
                "b_static": b_static,
            }
        )
    _emit(args, _render(args, cfg, _COALITION_COLUMNS, rows))
    return EXIT_OK


_COST_COLUMNS: list[Column] = [
    ("alpha_v_usd", "alpha_v_usd", format_usd_whole),
    ("B_static_usd", "b_static_usd", format_usd_small),
    ("B_ratchet_usd", "b_ratchet_usd", format_usd_small),
    ("ratio", "ratio", format_percent),
]


def cmd_table_cost(args) -> int:
    cfg = _load_config(args, need_cartel=True)
    row = _sweep_by_kappa(cfg, [cfg.instance.kappa])[cfg.instance.kappa]
    # USD columns derive from the probabilities at displayed precision, so a
    # reader can reproduce every cell from the printed delay table.
    q0_shown = float(format_probability(row.q0).replace("~1", "1"))
    q_rat_shown = float(format_probability(row.q_rat).replace("~1", "1"))
    share = cartel_share(cfg.instance.n, cfg.beta)
    rows = [
        {
            "alpha_v_usd": tier,
            "b_static_usd": tier / share * q0_shown,
            "b_ratchet_usd": tier / share * q_rat_shown,
            "ratio": row.q_rat / share,
        }
        for tier in cfg.mev_tiers_usd
    ]
    _emit(args, _render(args, cfg, _COST_COLUMNS, rows))
    return EXIT_OK


# --- sweeps ------------------------------------------------------------------

_SWEEP_COLUMNS = _columns("kappa", "t_star", "delta", "q0", "q_rat", "q_micro", "knife_edge")


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = delay.sawtooth_sweep(
        cfg.instance.n, cfg.instance.m, cfg.beta, range(cfg.sweep_min, cfg.sweep_max + 1)
    )
    _emit(args, _render(args, cfg, _SWEEP_COLUMNS, [vars(row) for row in rows]))
    return EXIT_OK


_SWEEP_RATCHET_COLUMNS = _columns(
    "kappa", "q0", "q_rat", "q_rat_multi_mc", "ci_low", "ci_high", "epsilon"
)


def cmd_sweep_ratchet(args) -> int:
    epsilon = args.epsilon
    if not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"--epsilon must lie in [0, 1), got {epsilon!r}")
    cfg = _load_config(args)
    rows = []
    n, m = cfg.instance.n, cfg.instance.m
    marked = cartel_lane_count(n, cfg.beta)
    # Full withholding flags every cartel lane contacted before the last slot
    # of the longest horizon; the ratchet needs m eligible lanes in that slot.
    t_max = -(-cfg.sweep_max // m)
    flagged = min(marked, (t_max - 1) * m)
    if n - flagged < m:
        raise ConfigError(
            f"sweep-ratchet: n={n} lanes, m={m} per slot and a cartel of {marked} "
            f"lanes let full withholding over {t_max} slots leave {n - flagged} < m "
            f"eligible lanes; use n >= {m + flagged} or kappa_max <= {m * (n // m)}"
        )
    first_slot_law = DiscreteDistribution.from_law(cartel_contact_law(n, cfg.beta, m))
    sweep = delay.sawtooth_sweep(n, m, cfg.beta, range(cfg.sweep_min, cfg.sweep_max + 1))
    multi_slot = [row for row in sweep if row.t_star >= 2]
    instances = [SystemInstance.from_kappa(n, m, row.kappa) for row in multi_slot]
    # every contacted cartel bundle withheld in every slot, each withheld
    # lane flagged out of the pool; the sender never compensates.  One
    # pass to the largest t* serves every kappa.
    estimates = simulator.estimate_ratchet_full_withhold(instances, cfg.beta, cfg.trials, cfg.seed)
    for row, inst, est in zip(multi_slot, instances, estimates):
        schedule = ContactSchedule.static(inst)
        # first-slot bound at the configured honest-miss rate; at epsilon=0
        # this is exactly the ratchet tail P[A1 > delta_rec]
        q_rat = ratchet.honest_miss_delay_bound(schedule, epsilon, first_slot_law)
        rows.append(
            {
                "kappa": row.kappa,
                "q0": row.q0,
                "q_rat": q_rat,
                "q_rat_multi_mc": est.frequency,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "epsilon": epsilon,
            }
        )
    _emit(args, _render(args, cfg, _SWEEP_RATCHET_COLUMNS, rows))
    return EXIT_OK


_SWEEP_RACE_COLUMNS = _columns("kappa", "r", "q_micro", "g_inc_upper", "g_inc_floor")


def cmd_sweep_race(args) -> int:
    cfg = _load_config(args)
    race, m = cfg.race, cfg.instance.m
    rho_bar = intra_slot.rho_bar(m, race)
    rho_floors = intra_slot.rho_floors(m, race)  # indexed by r = m - delta
    rows = []
    for kappa in range(cfg.sweep_min, cfg.sweep_max + 1):
        inst = SystemInstance.from_kappa(cfg.instance.n, m, kappa)
        tail = intra_slot.q_micro(inst, cfg.beta)
        upper = intra_slot.g_inc_upper(inst, tail, rho_bar, cfg.econ.gamma)
        floor = intra_slot.g_inc_floor(inst, rho_floors[inst.r], tail, cfg.econ.gamma)
        rows.append(
            {
                "kappa": kappa,
                "r": inst.r,
                "q_micro": tail,
                "g_inc_upper": upper,
                "g_inc_floor": floor,
            }
        )
    _emit(args, _render(args, cfg, _SWEEP_RACE_COLUMNS, rows))
    return EXIT_OK


# --- verify ------------------------------------------------------------------


def _suite_minimax(cfg: AnalysisConfig, inject_fault: bool) -> dict:
    rng = np.random.default_rng([cfg.seed, 11])
    kappa = 12
    raw = rng.integers(0, 1000, size=(999, kappa))
    raw[raw.sum(axis=1) == 0, 0] = 1
    rules = [mechanism.WeightRule.uniform(kappa)]
    rules += [mechanism.WeightRule.from_weights(row) for row in raw.tolist()]
    if inject_fault:
        # Simulated implementation bug: an unnormalized rule slipped through.
        bad = object.__new__(mechanism.WeightRule)
        object.__setattr__(bad, "scale", kappa)
        object.__setattr__(bad, "nums", (2,) * kappa)
        rules.append(bad)
    reports = [mechanism.minimax_certificate(kappa, d, rules) for d in (1, 2, 3)]
    return {
        "passed": all(r.passed for r in reports),
        "rules_checked": len(rules),
        "d_values": [1, 2, 3],
        "violations": sum(len(r.violations) for r in reports),
        "false_equalities": sum(len(r.false_equalities) for r in reports),
    }


CONSERVATION_TRIPLES = 300
_OWNERS = ("honest", "cartel")


def _suite_conservation(cfg: AnalysisConfig) -> dict:
    """The bounty rule pays the two owners exactly the budget B between them.

    Each triple draws (s, K, B) and a random owner for each of kappa..kappa+4
    included bundles, then prices both owners with ``paid_to``: the
    pivotal-share rule that simulate and replay price the bounty by.  Each
    column is one vectorized draw.
    """
    rng = np.random.default_rng([cfg.seed, 12])
    size = CONSERVATION_TRIPLES
    sizes = rng.integers(1, 9, size)
    kappas = rng.integers(1, 30, size)
    thresholds = (kappas - 1) * sizes + rng.integers(1, sizes + 1)
    budgets = rng.integers(1, 10_000, size)
    counts = kappas + rng.integers(0, 5, size)
    owner_bits = rng.integers(0, 2, (size, int(counts.max())))
    failures = 0
    columns = (sizes, thresholds, budgets, counts, owner_bits)
    for s, K, B, count, bits in zip(*(col.tolist() for col in columns)):
        alloc = mechanism.pivotal_allocation([_OWNERS[bit] for bit in bits[:count]], K, s, B)
        if alloc.paid_to("cartel") + alloc.paid_to("honest") != B:
            failures += 1
    return {"passed": failures == 0, "triples": size, "failures": failures}


def _suite_pathwise(cfg: AnalysisConfig) -> dict:
    detail = {}
    ok = True
    sabotage_inst = SystemInstance.from_kappa(10, 3, 6)
    sabotage_econ = EconParams.normalized(fee=1.0, alpha_v=30.0, gamma=0.9, bounty=12.0)
    for kappa in cfg.table_kappas:
        inst = SystemInstance.from_kappa(cfg.instance.n, cfg.instance.m, kappa)
        violations = simulator.verify_pathwise_theorems(
            inst, cfg.beta, trials=cfg.trials, seed=[cfg.seed, kappa]
        )
        ok = ok and violations == 0
        detail[str(kappa)] = {"paths": cfg.trials, "dominance_violations": violations}
    # Prefix monotonicity does not depend on the instance: one battery per run.
    cases = violations = 0
    for kappa in range(1, 7):
        try:
            cases += simulator.prefix_monotonicity_exhaustive(kappa)
        except AssertionError:
            violations += 1
    ok = ok and violations == 0
    detail["prefix_monotonicity"] = {"cases": cases, "violations": violations}
    sab = simulator.minimal_sabotage_exhaustive(
        sabotage_inst, 0.3, sabotage_econ, paths=25, seed=[cfg.seed, 13]
    )
    ok = ok and sab.passed
    detail["sabotage"] = {
        "instance": sabotage_inst.to_config(),
        "paths_with_delay_option": sab.paths_with_delay_option,
        "violations": sab.violations,
    }
    return {"passed": ok, **detail}


def _suite_bound_dominance(cfg: AnalysisConfig, sweep: dict[int, delay.SweepRow]) -> dict:
    """The KL bound caps q0 where delay is rare and 1 - q0 where it is likely."""
    failures = []
    m = cfg.instance.m
    beta_frac = cartel_share(cfg.instance.n, cfg.beta)
    for kappa in range(cfg.sweep_min, cfg.sweep_max + 1):
        row = sweep[kappa]
        theta0 = row.delta / (row.t_star * m)
        regime, bound = delay.kl_delay_bound(row.t_star, m, theta0, beta_frac)
        if regime is delay.DelayRegime.DELAY_RARE and row.q0 > bound + 1e-12:
            failures.append(kappa)
        if regime is delay.DelayRegime.DELAY_LIKELY and (1.0 - row.q0) > bound + 1e-12:
            failures.append(kappa)
    return {"passed": not failures, "failures": failures}


def _suite_ratchet_improvement(cfg: AnalysisConfig, sweep: dict[int, delay.SweepRow]) -> dict:
    """q_rat <= q0 within 1e-15, and q_rat < q0 wherever some path separates them.

    S_t* >= S_1 on every path, so q0 - q_rat = P[S_1 <= delta < S_t*].  With
    [lo, hi] the support of S_1, that is positive exactly when lo <= delta and
    min(hi, delta) + (t* - 1) hi > delta.  At a multi-slot kappa off the knife
    edge the strict check requires q_rat < q0 where it is positive and
    q_rat == q0 where it is 0.
    """
    law = cartel_contact_law(cfg.instance.n, cfg.beta, cfg.instance.m)
    lo, hi = law.support_min, law.support_max

    def separated(r: delay.SweepRow) -> bool:
        return lo <= r.delta < min(hi, r.delta) + (r.t_star - 1) * hi

    rows = [sweep[kappa] for kappa in range(cfg.sweep_min, cfg.sweep_max + 1)]
    weak = [r.kappa for r in rows if r.q_rat > r.q0 + 1e-15]
    strict = [
        r.kappa
        for r in rows
        if r.t_star >= 2
        and not r.knife_edge
        and not (r.q_rat < r.q0 if separated(r) else r.q_rat == r.q0)
    ]
    return {
        "passed": not weak and not strict,
        "weak_failures": weak,
        "strict_failures": strict,
    }


def _suite_honest_miss(cfg: AnalysisConfig, sweep: dict[int, delay.SweepRow]) -> dict:
    """Misses at honest-miss rate 0.01 only add delay: q_rat - 1e-12 <= bound <= 1."""
    failures = []
    n, m = cfg.instance.n, cfg.instance.m
    law = DiscreteDistribution.from_law(cartel_contact_law(n, cfg.beta, m))
    for kappa in range(cfg.sweep_min, cfg.sweep_max + 1):
        schedule = ContactSchedule.static(SystemInstance.from_kappa(n, m, kappa))
        bound = ratchet.honest_miss_delay_bound(schedule, 0.01, law)
        if not sweep[kappa].q_rat - 1e-12 <= bound <= 1.0:
            failures.append(kappa)
    return {"passed": not failures, "failures": failures}


def _suite_mc_exact(cfg: AnalysisConfig, sweep: dict[int, delay.SweepRow]) -> dict:
    detail = {}
    ok = True
    for kappa in cfg.table_kappas:
        inst = SystemInstance.from_kappa(cfg.instance.n, cfg.instance.m, kappa)
        q0 = sweep[kappa].q0
        if q0 < 1e-4:
            detail[str(kappa)] = {"skipped": "q0 below MC resolution"}
            continue
        est = simulator.estimate_delay(
            inst, cfg.beta, simulator.FullWithhold(), cfg.trials, [cfg.seed, kappa]
        )
        err = abs(est.frequency - q0)
        tol = 3.0 * max(est.stderr, math.sqrt(q0 * (1 - q0) / cfg.trials))
        good = err <= tol
        ok = ok and good
        detail[str(kappa)] = {
            "exact": q0,
            "mc": est.frequency,
            "within_3_stderr": good,
        }
    return {"passed": ok, **detail}


def _suite_knife_edge(cfg: AnalysisConfig, sweep: dict[int, delay.SweepRow]) -> dict:
    failures = []
    for kappa in range(cfg.sweep_min, cfg.sweep_max + 1):
        if kappa % cfg.instance.m != 0:
            continue
        inst = SystemInstance.from_kappa(cfg.instance.n, cfg.instance.m, kappa)
        closed = delay.knife_edge_q0(inst, cfg.beta)
        if abs(closed - sweep[kappa].q0) > 1e-12:
            failures.append(kappa)
    return {"passed": not failures, "failures": failures}


def cmd_verify(args) -> int:
    cfg = _load_config(args)
    # One exact sweep serves every suite that reads q0 or q_rat.
    sweep = _sweep_by_kappa(cfg, [*cfg.table_kappas, *range(cfg.sweep_min, cfg.sweep_max + 1)])
    suites: dict[str, Callable[[], dict]] = {
        "minimax": lambda: _suite_minimax(cfg, args.inject_fault == "minimax"),
        "conservation": lambda: _suite_conservation(cfg),
        "pathwise": lambda: _suite_pathwise(cfg),
        "bound_dominance": lambda: _suite_bound_dominance(cfg, sweep),
        "ratchet_improvement": lambda: _suite_ratchet_improvement(cfg, sweep),
        "honest_miss": lambda: _suite_honest_miss(cfg, sweep),
        "mc_exact": lambda: _suite_mc_exact(cfg, sweep),
        "knife_edge_closed_form": lambda: _suite_knife_edge(cfg, sweep),
    }
    results = {}
    all_ok = True
    for name, runner in suites.items():
        outcome = runner()
        results[name] = outcome
        all_ok = all_ok and outcome["passed"]
    summary = {"seed": cfg.seed, "trials": cfg.trials, "passed": all_ok, "suites": results}
    _emit(args, json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return EXIT_OK if all_ok else EXIT_PROPERTY


# --- advise ------------------------------------------------------------------


def cmd_advise(args) -> int:
    cfg = _load_config(args, need_cartel=True)
    inst = cfg.instance
    if cfg.econ.bundle_price_at(inst.s) <= 0:
        if cfg.econ.mode == "normalized":
            price = "econ.bundle_price (in normalized mode it defaults to econ.fee)"
        else:
            price = (
                "bundle price econ.per_byte_price * (econ.header_bytes + "
                "s * (econ.metadata_bytes + econ.symbol_bytes))"
            )
        raise ConfigError(f"advise prices the fee share per bundle and needs a positive {price}")
    row = _sweep_by_kappa(cfg, [inst.kappa])[inst.kappa]
    q0, q_rat, q_mic = row.q0, row.q_rat, row.q_micro
    b_static, b_ratchet = incentives.bounty_proxies(inst, cfg.beta, cfg.econ, q0, q_rat)
    phi_star = incentives.phi_threshold(inst, cfg.beta, cfg.econ, q0)
    t0 = incentives.distribution_of_T0(inst, cfg.beta)
    ir_ceiling = incentives.sender_ir_bound(
        inst, cfg.econ, q0, t0.expected_discount(cfg.econ.gamma)
    )

    report: dict = {
        "instance": inst.to_config(),
        "kappa": inst.kappa,
        "t_star": inst.t_star,
        "delta": inst.delta,
        "knife_edge": inst.knife_edge,
        "q0": q0,
        "q_rat": q_rat,
        "q_micro": q_mic,
        "b_static_proxy": b_static,
        "b_ratchet_proxy": b_ratchet,
        "phi_threshold": phi_star,
        "fees_alone_feasible": phi_star <= 1.0,
        "ir_bounty_ceiling": ir_ceiling,
    }
    lines = [
        f"instance: n={inst.n} m={inst.m} s={inst.s} K={inst.K} "
        f"(kappa={inst.kappa}, t*={inst.t_star}, delta={inst.delta})",
        f"delay probabilities: q0={format_probability(q0)} "
        f"q_rat={format_probability(q_rat)} q_micro={format_probability(q_mic)}",
    ]
    if inst.knife_edge:
        threshold = incentives.knife_edge_bounty_threshold(inst, cfg.beta, cfg.econ, q0)
        what = f"the knife-edge bounty threshold from {cfg.econ.mev_exposure_keys}"
        _finite(threshold.bounty_min, what, inst.kappa)
        report["knife_edge_bounty"] = threshold.bounty_min
        lines.append(
            "avoid: knife edge (m | kappa); single-bundle sabotage is unilateral"
        )
        lines.append(
            f"knife-edge bounty threshold: {threshold.bounty_min:.0f} fee units"
        )
    else:
        b_coal = _coalition_bounty(cfg, inst)
        report["coalition_bounty"] = b_coal
        lines.append(
            f"positive slack: unilateral withholding unprofitable; "
            f"coalition bounty {b_coal:.0f} fee units"
        )
    lines.append(
        f"fee share threshold phi* = {phi_star:.3f}"
        + ("" if phi_star <= 1.0 else "  (>1: fees alone infeasible)")
    )
    lines.append(
        f"bounty proxies: static {format_fee_units(b_static)}, "
        f"ratchet {format_fee_units(b_ratchet)} fee units"
    )
    lines.append(f"sender IR bounty ceiling: {ir_ceiling:.2f} fee units")

    if args.format == "json":
        _emit(args, json.dumps({"config": cfg.to_dict(), "report": report}, indent=2) + "\n")
    else:
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# --- simulate / replay -------------------------------------------------------


def cmd_simulate(args) -> int:
    if args.traces < 1:
        raise ConfigError("--traces must be a positive integer")
    cfg = _load_config(args)
    try:
        policy = simulator.policy_from_spec(args.policy)
    except ValueError as exc:
        raise ConfigError(f"--policy: {exc}") from exc
    lines = []
    for i in range(args.traces):
        trace = simulator.run_trace(cfg.instance, cfg.beta, policy, [cfg.seed, i])
        payoff = simulator.payoff_of_trace(trace, cfg.econ)
        lines.append(simulator.trace_to_json(trace, payoff, cfg.econ))
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_replay(args) -> int:
    mismatches = 0
    total = 0
    with open(args.input, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{args.input}:{lineno}: not UTF-8 text ({exc})") from exc
            if not line:
                continue
            total += 1
            try:
                trace, stored, econ = simulator.trace_from_json_with_econ(line)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{args.input}:{lineno}: not valid JSON ({exc})") from exc
            except KeyError as exc:
                raise ConfigError(f"{args.input}:{lineno}: missing field {exc}") from exc
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{args.input}:{lineno}: {exc}") from exc
            # All four stored floats, total included, must recur exactly.
            if simulator.payoff_of_trace(trace, econ) != stored:
                mismatches += 1
    if total == 0:
        raise ConfigError(f"{args.input}: no trace lines to check")
    sys.stdout.write(
        json.dumps({"traces": total, "mismatches": mismatches}) + "\n"
    )
    return EXIT_OK if mismatches == 0 else EXIT_PROPERTY


# --- entry point -------------------------------------------------------------


def _add_common(
    p: argparse.ArgumentParser, formats=("table", "csv", "json"), seeded: bool = False
) -> None:
    """--config, --format and --out; --seed too for the commands that draw random numbers."""
    p.add_argument("--config", help="path to a JSON analysis config")
    if seeded:
        p.add_argument("--seed", type=int, help="override the config RNG seed")
    p.add_argument("--format", choices=formats, default=formats[0])
    p.add_argument("--out", help="write output to a file instead of stdout")


@functools.cache  # built on first use, not at import; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pivotk",
        description="Withholding-incentive analysis for coded multi-lane dissemination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table-main", help="delay, ratchet, and race probabilities per kappa")
    _add_common(p)
    p.set_defaults(func=cmd_table_main)

    p = sub.add_parser("table-coalition", help="coalition decomposition per kappa")
    _add_common(p)
    p.set_defaults(func=cmd_table_coalition)

    p = sub.add_parser("table-cost", help="bounty cost in USD across MEV tiers")
    _add_common(p)
    p.set_defaults(func=cmd_table_cost)

    p = sub.add_parser("sweep", help="per-kappa delay sweep CSV for plotting")
    _add_common(p, formats=("csv", "json", "table"))
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sweep-ratchet", help="multi-slot ratchet Monte-Carlo sweep CSV")
    _add_common(p, formats=("csv",), seeded=True)
    p.add_argument("--trials", type=int, help="override MC trials per kappa")
    p.add_argument("--epsilon", type=float, default=0.0, help="honest miss rate column")
    p.set_defaults(func=cmd_sweep_ratchet)

    p = sub.add_parser("sweep-race", help="within-slot race bound sweep CSV")
    _add_common(p, formats=("csv",))
    p.set_defaults(func=cmd_sweep_race)

    p = sub.add_parser("verify", help="run the full property battery")
    _add_common(p, formats=("json",), seeded=True)
    p.add_argument("--trials", type=int, help="override MC trials")
    p.add_argument(
        "--inject-fault",
        choices=("minimax",),
        help="deliberately corrupt an input to prove the battery catches it",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("advise", help="operating-point recommendation")
    _add_common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_advise)

    p = sub.add_parser("simulate", help="write traces as line-delimited JSON")
    _add_common(p, formats=("jsonl",), seeded=True)
    p.add_argument("--policy", default="full_withhold", help="e.g. stationary_w:0.5")
    p.add_argument("--traces", type=int, default=10)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="recompute payoffs from stored traces")
    p.add_argument("--input", required=True, help="trace JSONL file")
    p.set_defaults(func=cmd_replay)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error and 0 after --help
        return EXIT_CONFIG if exc.code == 2 else exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
