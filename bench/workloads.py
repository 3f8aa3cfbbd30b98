"""The benchmark's workloads: inputs made from a seed, the ops that call
pivotk on them, and an output oracle for every op.

Ops call pivotk through module attributes (``delay.exact_q0``, ``cli.main``),
never through names imported into this module, so that the wrappers which
``tracing.py`` installs on those attributes see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from pivotk import cli, delay, incentives, intra_slot, ratchet
from pivotk.geometry import ContactSchedule, SystemInstance
from pivotk.probability import DiscreteDistribution, HypergeomLaw

WORKLOADS = ("exact-laws", "mc-verify", "trace-replay")

# Every instance uses beta = 0.2 and m = n/5, so the cartel holds n/5 lanes.
BETA = 0.2
TIERS = (100, 1000, 10000)
# exact_q0 raises "total mass ... deviates from 1" here (ROADMAP item 3).  It
# runs as its own op so the failure stays visible in ops_ok_ratio and costs
# the same convolutions as a success.
KNOWN_DEFECT = (10000, 6)
LAW_OPS = (
    "exact_q0",
    "sawtooth_sweep",
    "distribution_of_T0",
    "fluid_delay_report",
    "honest_miss_delay_bound",
    "q_micro",
)

# The library states that every single-slot PMF normalizes to 1 within 1e-12;
# a t-fold convolution can carry t times that error into a tail.  REF_SLACK
# covers the rounding of the float64 reference convolution itself.
MASS_TOL = 1e-12
REF_SLACK = 1e-14

# The default config reproduces the golden tables: n=100, m=20, kappa=30,
# sweep over kappa 1..120.
DEFAULT_N, DEFAULT_M, DEFAULT_KAPPA, DEFAULT_SWEEP = 100, 20, 30, range(1, 121)

RATCHET_WINDOW = (21, 40)  # every kappa here has t* = 2 at n=100, m=20
RATCHET_TRIALS = 200
VERIFY_TRIALS = 1000
# verify runs its statistical suites at the documented reference seed: at any
# other seed the 3-sigma MC/exact check fails by chance about 0.5% of the time,
# which would read as a program failure.  The run seed drives sweep-ratchet.
VERIFY_SEED = 20260809
VERIFY_SUITES = {
    "minimax",
    "conservation",
    "pathwise",
    "bound_dominance",
    "ratchet_improvement",
    "honest_miss",
    "mc_exact",
    "knife_edge_closed_form",
}

SIM_TIERS = (100, 1000)
POLICIES = {
    "full_withhold": "full_withhold",
    "stationary_w": "stationary_w:0.5",
    "minimal_sabotage": "minimal_sabotage",
}
SIM_TRACES = {100: 40, 1000: 8}
REPLAY_TRACES = {100: 80, 1000: 16}
BOUNTY = 50.0  # nonzero so every payoff runs the pivotal allocation

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "tests" / "golden"


@dataclass
class Op:
    """One timed call into pivotk and the oracle for its output.

    ``check`` returns None when the output is right, else the reason.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


def op_names(workload: str) -> list[str]:
    """Names of every op the workload runs at full size."""
    if workload == "exact-laws":
        names = ["table-main", "table-coalition", "table-cost", "sweep", "sweep-race", "advise"]
        names += [f"n{n}.{op}" for n in TIERS for op in LAW_OPS]
        return names + [f"n{KNOWN_DEFECT[0]}.exact_q0.t{KNOWN_DEFECT[1]}"]
    if workload == "mc-verify":
        return ["sweep-ratchet", "verify"]
    if workload == "trace-replay":
        names = [f"simulate.n{n}.{p}" for n in SIM_TIERS for p in POLICIES]
        return names + [f"replay.n{n}" for n in SIM_TIERS]
    raise ValueError(f"unknown workload {workload!r}")


def build(workload: str, seed: int, tmp: Path, smallest: bool = False) -> list[Op]:
    """Make the workload's inputs from ``seed`` under ``tmp`` and return its ops.

    ``smallest`` keeps only the n=100 tier and cuts trial and trace counts,
    for the smoke test.
    """
    ref = ExactReference()
    if workload == "exact-laws":
        return _exact_laws(seed, ref, smallest)
    if workload == "mc-verify":
        return _mc_verify(seed, tmp, ref, smallest)
    if workload == "trace-replay":
        return _trace_replay(seed, tmp, smallest)
    raise ValueError(f"unknown workload {workload!r}")


# --- reference laws -----------------------------------------------------------


class ExactReference:
    """Contact laws computed independently of pivotk.

    The single-slot hypergeometric PMF comes from exact big-integer binomials,
    rounded once to float64 (Python's int division rounds correctly); t-slot
    sums are float64 convolutions of it.  Built lazily, so only the oracles pay.
    """

    def __init__(self) -> None:
        self._powers: dict[tuple[int, int], list[np.ndarray]] = {}

    def _pmf(self, n: int, m: int) -> np.ndarray:
        marked = n // 5
        total = math.comb(n, m)
        # C(marked, k) * C(n - marked, m - k) for k = 0..min(marked, m), by
        # exact ratio recurrences on both factors.
        top = min(marked, m)
        a, b = 1, math.comb(n - marked, m)
        out = []
        for k in range(top + 1):
            out.append(a * b / total)
            if k < top:
                a = a * (marked - k) // (k + 1)
                b = b * (m - k) // (n - marked - m + k + 1)
        return np.array(out)

    def sum_law(self, n: int, m: int, t: int) -> np.ndarray:
        """PMF of the cartel contact count summed over t slots."""
        powers = self._powers.setdefault((n, m), [])
        if not powers:
            powers.append(self._pmf(n, m))
        while len(powers) < t:
            powers.append(np.convolve(powers[-1], powers[0]))
        return powers[t - 1]

    def tail_ge(self, n: int, m: int, t: int, r: int) -> float:
        """P[S_t >= r]."""
        return math.fsum(self.sum_law(n, m, t)[max(r, 0):])


def _close(value: float, exact: float, slots: int, what: str) -> str | None:
    tol = slots * MASS_TOL + REF_SLACK
    if abs(float(value) - exact) <= tol:
        return None
    return f"{what}: {float(value)!r} vs reference {exact!r} (tolerance {tol:.1e})"


def _first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r is not None), None)


def _geometry(m: int, kappa: int) -> tuple[int, int]:
    t_star = -(-kappa // m)
    return t_star, t_star * m - kappa


# --- CLI helpers ----------------------------------------------------------------


def run_cli(*argv) -> tuple[int, str]:
    """``pivotk <argv>`` in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def _write_config(tmp: Path, name: str, obj: dict) -> Path:
    path = tmp / f"{name}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


# --- exact-laws -------------------------------------------------------------------


def _exact_laws(seed: int, ref: ExactReference, smallest: bool) -> list[Op]:
    golden = {
        name: (GOLDEN_DIR / f"{name}.txt").read_text(encoding="utf-8")
        for name in ("table-main", "table-coalition", "table-cost")
    }
    ops = [
        Op(name, lambda name=name: run_cli(name), lambda out, want=text: _check_golden(out, want))
        for name, text in golden.items()
    ]
    ops.append(Op("sweep", lambda: run_cli("sweep"), lambda out: _check_sweep(out, ref)))
    ops.append(Op("sweep-race", lambda: run_cli("sweep-race"), lambda out: _check_sweep_race(out, ref)))
    row30 = next(
        line.split() for line in golden["table-main"].splitlines() if line.split()[0] == str(DEFAULT_KAPPA)
    )
    ops.append(Op("advise", lambda: run_cli("advise"), lambda out: _check_advise(out, row30)))
    for n in TIERS[:1] if smallest else TIERS:
        ops += _tier_ops(n, random.Random(f"exact-laws:{seed}:{n}"), ref)
    return ops


def _check_golden(out, want: str) -> str | None:
    if out[0] != 0:
        return f"exit code {out[0]}"
    return None if out[1] == want else "table differs from tests/golden"


def _check_sweep(out, ref: ExactReference) -> str | None:
    if out[0] != 0:
        return f"exit code {out[0]}"
    lines = out[1].strip().splitlines()
    if lines[0] != "kappa,t_star,delta,q0,q_rat,q_micro,knife_edge" or len(lines) != len(DEFAULT_SWEEP) + 1:
        return "unexpected sweep header or row count"
    n, m = DEFAULT_N, DEFAULT_M
    for kappa, line in zip(DEFAULT_SWEEP, lines[1:]):
        k, t, d, q0, q_rat, q_micro, knife = line.split(",")
        t_star, delta = _geometry(m, kappa)
        if (int(k), int(t), int(d)) != (kappa, t_star, delta):
            return f"sweep row {line!r}: wrong kappa/t_star/delta"
        if knife != ("true" if delta == 0 else "false"):
            return f"sweep row {kappa}: knife_edge flag {knife}"
        reason = _first(
            _close(float(q0), ref.tail_ge(n, m, t_star, delta + 1), t_star, f"sweep q0 at kappa={kappa}"),
            _close(float(q_rat), ref.tail_ge(n, m, 1, delta + 1), 1, f"sweep q_rat at kappa={kappa}"),
            _close(float(q_micro), ref.tail_ge(n, m, 1, m - delta), 1, f"sweep q_micro at kappa={kappa}"),
        )
        if reason:
            return reason
    return None


def _check_sweep_race(out, ref: ExactReference) -> str | None:
    if out[0] != 0:
        return f"exit code {out[0]}"
    lines = out[1].strip().splitlines()
    if lines[0] != "kappa,r,q_micro,g_inc_upper,g_inc_floor" or len(lines) != len(DEFAULT_SWEEP) + 1:
        return "unexpected sweep-race header or row count"
    n, m = DEFAULT_N, DEFAULT_M
    for kappa, line in zip(DEFAULT_SWEEP, lines[1:]):
        k, r, q_micro, upper, floor = line.split(",")
        _, delta = _geometry(m, kappa)
        if (int(k), int(r)) != (kappa, m - delta):
            return f"sweep-race row {line!r}: wrong kappa/r"
        if not 0.0 <= float(floor) <= float(upper) <= 1.0:
            return f"sweep-race row {kappa}: need 0 <= floor <= upper <= 1"
        reason = _close(float(q_micro), ref.tail_ge(n, m, 1, m - delta), 1, f"sweep-race q_micro at kappa={kappa}")
        if reason:
            return reason
    return None


def _check_advise(out, row30: list[str]) -> str | None:
    if out[0] != 0:
        return f"exit code {out[0]}"
    lines = out[1].splitlines()
    kappa, t_star, delta, q0, q_rat, q_micro, b_static = row30[:7]
    want = [
        f"instance: n={DEFAULT_N} m={DEFAULT_M} s=1 K={kappa} (kappa={kappa}, t*={t_star}, delta={delta})",
        f"delay probabilities: q0={q0} q_rat={q_rat} q_micro={q_micro}",
    ]
    if lines[:2] != want:
        return "advise header disagrees with the golden table-main row"
    if not any(line.startswith(f"bounty proxies: static {b_static},") for line in lines):
        return "advise static bounty proxy disagrees with the golden table-main row"
    return None


def _tier_ops(n: int, rng: random.Random, ref: ExactReference) -> list[Op]:
    """Library ops at one scale tier.  The seed moves the slack inside a fixed
    horizon t*, which leaves the work of each op almost unchanged."""
    m = n // 5

    def pick() -> int:
        return rng.randint(1, max(1, m // 10))

    q0_tmax = KNOWN_DEFECT[1] - 1 if n == KNOWN_DEFECT[0] else 6
    q0_instances = [SystemInstance.from_kappa(n, m, t * m - pick()) for t in range(1, q0_tmax + 1)]
    saw_top = 2 * m - pick()
    saw_kappas = range(saw_top - 2, saw_top + 1)
    t0_inst = SystemInstance.from_kappa(n, m, m // 2 - rng.randint(0, max(1, m // 50)))
    fluid_inst = SystemInstance.from_kappa(n, m, 3 * m - pick())
    fluid_w = rng.choice((0.0, 0.1, 0.2))
    miss_inst = SystemInstance.from_kappa(n, m, 2 * m - pick())
    micro_inst = SystemInstance.from_kappa(n, m, 2 * m - pick())

    def first_slot_law():
        return DiscreteDistribution.from_law(HypergeomLaw(n, n // 5, m))

    ops = [
        Op(
            f"n{n}.exact_q0",
            lambda: [delay.exact_q0(inst, BETA) for inst in q0_instances],
            lambda out: _check_q0(out, q0_instances, ref),
        ),
        Op(
            f"n{n}.sawtooth_sweep",
            lambda: delay.sawtooth_sweep(n, m, BETA, saw_kappas),
            lambda out: _check_sawtooth(out, n, m, saw_kappas, ref),
        ),
        Op(
            f"n{n}.distribution_of_T0",
            lambda: incentives.distribution_of_T0(t0_inst, BETA),
            lambda out: _check_t0(out, t0_inst, ref),
        ),
        Op(
            f"n{n}.fluid_delay_report",
            lambda: delay.fluid_delay_report(fluid_inst, BETA, fluid_w),
            lambda out: _check_fluid(out, fluid_inst, fluid_w, ref),
        ),
        Op(
            f"n{n}.honest_miss_delay_bound",
            lambda: ratchet.honest_miss_delay_bound(
                ContactSchedule.static(miss_inst), 0.0, first_slot_law()
            ),
            lambda out: _close(out, ref.tail_ge(n, m, 1, miss_inst.delta + 1), 1, "honest_miss_delay_bound at epsilon=0"),
        ),
        Op(
            f"n{n}.q_micro",
            lambda: intra_slot.q_micro(micro_inst, BETA),
            lambda out: _close(out, ref.tail_ge(n, m, 1, micro_inst.r), 1, "q_micro"),
        ),
    ]
    if n == KNOWN_DEFECT[0]:
        t = KNOWN_DEFECT[1]
        inst = SystemInstance.from_kappa(n, m, t * m - pick())
        ops.append(
            Op(
                f"n{n}.exact_q0.t{t}",
                lambda: [delay.exact_q0(inst, BETA)],
                lambda out: _check_q0(out, [inst], ref),
            )
        )
    return ops


def _check_q0(out, instances, ref: ExactReference) -> str | None:
    return _first(
        *(
            _close(q, ref.tail_ge(i.n, i.m, i.t_star, i.delta + 1), i.t_star, f"exact_q0 n={i.n} t*={i.t_star}")
            for q, i in zip(out, instances)
        )
    )


def _check_sawtooth(rows, n: int, m: int, kappas, ref: ExactReference) -> str | None:
    if [r.kappa for r in rows] != list(kappas):
        return "sawtooth_sweep rows do not match the kappa window"
    for row in rows:
        t_star, delta = _geometry(m, row.kappa)
        if (row.t_star, row.delta, row.knife_edge) != (t_star, delta, delta == 0):
            return f"sawtooth_sweep row {row.kappa}: wrong geometry"
        reason = _first(
            _close(row.q0, ref.tail_ge(n, m, t_star, delta + 1), t_star, f"sawtooth q0 at kappa={row.kappa}"),
            _close(row.q_rat, ref.tail_ge(n, m, 1, delta + 1), 1, f"sawtooth q_rat at kappa={row.kappa}"),
            _close(row.q_micro, ref.tail_ge(n, m, 1, m - delta), 1, f"sawtooth q_micro at kappa={row.kappa}"),
        )
        if reason:
            return reason
    return None


def _check_t0(law, inst: SystemInstance, ref: ExactReference) -> str | None:
    # Inclusion after t* under full withholding is exactly the delay event.
    if law.t_star != inst.t_star or not 0.0 <= law.residual_mass <= 1e-9:
        return "distribution_of_T0: wrong horizon or residual mass above 1e-9"
    exact = ref.tail_ge(inst.n, inst.m, inst.t_star, inst.delta + 1)
    return _close(law.delay_probability(), exact, inst.t_star, "distribution_of_T0 P[T > t*]")


def _check_fluid(report, inst: SystemInstance, w: float, ref: ExactReference) -> str | None:
    threshold = Fraction(inst.delta) / (1 - Fraction.from_float(w))
    exact = ref.tail_ge(inst.n, inst.m, inst.t_star, math.floor(threshold) + 1)
    reason = _close(report.exact_probability, exact, inst.t_star, "fluid_delay_report exact")
    if reason:
        return reason
    theta = threshold / (inst.t_star * inst.m)
    regime = "delay_rare" if theta > Fraction(1, 5) else "delay_likely"
    if report.regime.value != regime:
        return f"fluid_delay_report regime {report.regime.value}, expected {regime}"
    slack = inst.t_star * MASS_TOL + REF_SLACK
    covered = exact if regime == "delay_rare" else 1.0 - exact
    if covered > report.kl_bound + slack:
        return "fluid_delay_report: the KL bound does not dominate the exact law"
    return None


# --- mc-verify --------------------------------------------------------------------


def _mc_verify(seed: int, tmp: Path, ref: ExactReference, smallest: bool) -> list[Op]:
    lo, hi = (RATCHET_WINDOW[0], RATCHET_WINDOW[0] + 3) if smallest else RATCHET_WINDOW
    ratchet_trials = 50 if smallest else RATCHET_TRIALS
    verify_trials = 200 if smallest else VERIFY_TRIALS
    ratchet_cfg = _write_config(tmp, "sweep-ratchet", {"sweep": {"kappa_min": lo, "kappa_max": hi}})
    verify_cfg = _write_config(
        tmp, "verify", {"table_kappas": [30, 50], "sweep": {"kappa_min": 21, "kappa_max": 60}}
    )
    return [
        Op(
            "sweep-ratchet",
            lambda: run_cli(
                "sweep-ratchet", "--config", ratchet_cfg, "--trials", ratchet_trials, "--seed", seed
            ),
            lambda out: _check_sweep_ratchet(out, range(lo, hi + 1), ratchet_trials, ref),
        ),
        Op(
            "verify",
            lambda: run_cli(
                "verify", "--config", verify_cfg, "--trials", verify_trials, "--seed", VERIFY_SEED
            ),
            lambda out: _check_verify(out, verify_trials),
        ),
    ]


def _check_sweep_ratchet(out, kappas, trials: int, ref: ExactReference) -> str | None:
    if out[0] != 0:
        return f"exit code {out[0]}"
    lines = out[1].strip().splitlines()
    if lines[0] != "kappa,q0,q_rat,q_rat_multi_mc,ci_low,ci_high,epsilon":
        return "unexpected sweep-ratchet header"
    n, m = DEFAULT_N, DEFAULT_M
    want = [k for k in kappas if _geometry(m, k)[0] >= 2]
    if [int(line.split(",")[0]) for line in lines[1:]] != want:
        return "sweep-ratchet rows do not match the kappa window"
    for line in lines[1:]:
        kappa, q0, q_rat, est, ci_low, ci_high, eps = line.split(",")
        t_star, delta = _geometry(m, int(kappa))
        est, ci_low, ci_high = float(est), float(ci_low), float(ci_high)
        if not 0.0 <= ci_low <= est <= ci_high <= 1.0:
            return f"sweep-ratchet kappa={kappa}: need 0 <= ci_low <= estimate <= ci_high <= 1"
        hits = est * trials
        if abs(hits - round(hits)) > 1e-6 or float(eps) != 0.0:
            return f"sweep-ratchet kappa={kappa}: estimate is not hits/trials or epsilon is not 0"
        reason = _first(
            _close(float(q0), ref.tail_ge(n, m, t_star, delta + 1), t_star, f"sweep-ratchet q0 at kappa={kappa}"),
            _close(float(q_rat), ref.tail_ge(n, m, 1, delta + 1), 1, f"sweep-ratchet q_rat at kappa={kappa}"),
        )
        if reason:
            return reason
    return None


def _check_verify(out, trials: int) -> str | None:
    if out[0] != 0:
        return f"exit code {out[0]}"
    summary = json.loads(out[1])
    if summary.get("passed") is not True:
        return "verify reports passed = false"
    if summary.get("trials") != trials or summary.get("seed") != VERIFY_SEED:
        return "verify echoes the wrong trials or seed"
    suites = summary.get("suites", {})
    if set(suites) != VERIFY_SUITES or not all(s.get("passed") is True for s in suites.values()):
        return "verify suite set or suite verdicts are wrong"
    return None


# --- trace-replay -----------------------------------------------------------------


def _trace_replay(seed: int, tmp: Path, smallest: bool) -> list[Op]:
    rng = random.Random(f"trace-replay:{seed}")
    ops = []
    replays = []
    for n in SIM_TIERS[:1] if smallest else SIM_TIERS:
        m = n // 5
        kappa = 2 * m - rng.randint(1, max(1, m // 10))
        cfg = _write_config(
            tmp, f"sim-n{n}", {"instance": {"n": n, "m": m, "kappa": kappa}, "econ": {"bounty": BOUNTY}}
        )
        traces = 5 if smallest else SIM_TRACES[n]
        for short, policy in POLICIES.items():
            out = tmp / f"simulate-n{n}-{short}.jsonl"
            ops.append(
                Op(
                    f"simulate.n{n}.{short}",
                    lambda cfg=cfg, policy=policy, traces=traces, out=out: _simulate(
                        cfg, policy, traces, seed, out
                    ),
                    lambda result, n=n, kappa=kappa, policy=policy, traces=traces, out=out: _check_simulate(
                        result, n, kappa, policy, traces, seed, out
                    ),
                )
            )
        # Replay input: traces written at set-up under another seed.
        replay_traces = 10 if smallest else REPLAY_TRACES[n]
        path = tmp / f"replay-n{n}.jsonl"
        code, _ = _simulate(cfg, POLICIES["stationary_w"], replay_traces, seed + 1, path)
        if code != 0:
            raise RuntimeError(f"could not write the replay input {path.name} (exit {code})")
        replays.append(
            Op(
                f"replay.n{n}",
                lambda path=path: run_cli("replay", "--input", path),
                lambda out, count=replay_traces: _check_replay(out, count),
            )
        )
    return ops + replays


def _simulate(cfg: Path, policy: str, traces: int, seed: int, out: Path) -> tuple[int, str]:
    code, _ = run_cli(
        "simulate", "--config", cfg, "--policy", policy, "--traces", traces, "--seed", seed, "--out", out
    )
    return code, out.read_text(encoding="utf-8") if code == 0 else ""


def _check_simulate(result, n: int, kappa: int, policy: str, traces: int, seed: int, path: Path) -> str | None:
    code, text = result
    if code != 0:
        return f"exit code {code}"
    lines = text.splitlines()
    if len(lines) != traces:
        return f"simulate wrote {len(lines)} traces, expected {traces}"
    m = n // 5
    t_star, delta = _geometry(m, kappa)
    for i, line in enumerate(lines):
        obj = json.loads(line)
        inst = obj["instance"]
        if (inst["n"], inst["m"], inst["K"], obj["seed"]) != (n, m, kappa, [seed, i]):
            return f"simulate trace {i}: wrong instance or seed"
        if obj["policy"]["kind"] != policy.partition(":")[0]:
            return f"simulate trace {i}: wrong policy {obj['policy']}"
        if obj["delayed"] != (obj["withheld_at_horizon"] > delta):
            return f"simulate trace {i}: delayed flag disagrees with the withheld count"
    # Round trip: replaying exactly these lines must reproduce every payoff.
    copy = path.with_suffix(".check.jsonl")
    copy.write_text(text, encoding="utf-8")
    return _check_replay(run_cli("replay", "--input", copy), traces)


def _check_replay(out, traces: int) -> str | None:
    if out[0] != 0:
        return f"exit code {out[0]}"
    summary = json.loads(out[1])
    if summary != {"traces": traces, "mismatches": 0}:
        return f"replay reports {summary}, expected {traces} traces and 0 mismatches"
    return None
