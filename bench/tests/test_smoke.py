"""Smoke test of the benchmark at its smallest size.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smallest"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_the_spec_and_their_op_names(tmp_path):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        built = [op.name for op in workloads.build(workload, 3, tmp_path)]
        assert built == workloads.op_names(workload)


def _ops(workload: str, tmp_path: Path) -> dict:
    return {op.name: op for op in workloads.build(workload, 3, tmp_path, smallest=True)}


def _rejects(op, corrupt) -> None:
    out = op.run()
    assert op.check(out) is None
    assert op.check(corrupt(out)) is not None


def test_exact_law_oracles_catch_corrupted_outputs(tmp_path):
    ops = _ops("exact-laws", tmp_path)
    _rejects(ops["table-main"], lambda out: (out[0], out[1].replace("0.136", "0.137")))
    _rejects(ops["table-cost"], lambda out: (2, out[1]))
    _rejects(ops["advise"], lambda out: (out[0], out[1].replace("q0=0.136", "q0=0.135")))
    _rejects(ops["n100.exact_q0"], lambda out: [out[0] + 1e-10, *out[1:]])
    _rejects(ops["n100.q_micro"], lambda out: out * (1 + 1e-3) + 1e-11)

    def bump_sweep_q0(out):
        header, first, *rest = out[1].splitlines()
        cells = first.split(",")
        cells[3] = repr(float(cells[3]) + 1e-9)
        return out[0], "\n".join([header, ",".join(cells), *rest]) + "\n"

    _rejects(ops["sweep"], bump_sweep_q0)


def test_mc_and_trace_oracles_catch_corrupted_outputs(tmp_path):
    ops = _ops("mc-verify", tmp_path)
    _rejects(ops["verify"], lambda out: (out[0], out[1].replace('"passed": true', '"passed": false', 1)))

    def swap_ci(out):
        header, first, *rest = out[1].splitlines()
        cells = first.split(",")
        cells[4], cells[5] = "0.9", "0.1"
        return out[0], "\n".join([header, ",".join(cells), *rest]) + "\n"

    _rejects(ops["sweep-ratchet"], swap_ci)

    ops = _ops("trace-replay", tmp_path)

    def raise_a_payoff(out):
        first, *rest = out[1].splitlines()
        obj = json.loads(first)
        obj["payoff"]["fee_revenue"] += 1.0
        return out[0], "\n".join([json.dumps(obj), *rest]) + "\n"

    _rejects(ops["simulate.n100.full_withhold"], raise_a_payoff)
    _rejects(ops["replay.n100"], lambda out: (2, out[1].replace('"mismatches": 0', '"mismatches": 1')))


def test_a_raising_op_is_counted_and_the_run_goes_on():
    def boom():
        raise ValueError("total mass deviates from 1")

    runner = run.Runner([workloads.Op("boom", boom, lambda out: None), workloads.Op("ok", lambda: 1, lambda out: None)])
    plain, _ = runner.measure(0.0)
    assert len(plain.ops["boom"]) == len(plain.ops["ok"]) == len(plain.kernel) == 1
    assert (runner.attempted, runner.errors, runner.wrong) == (2, 1, 0)
    assert "deviates" in runner.failures["boom"]
