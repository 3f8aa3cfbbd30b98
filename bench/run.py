"""Benchmark for pivotk: one closed-loop client running a workload's ops in-process.

    python3 bench/run.py --workload exact-laws --seed 1 --seconds 30 --trace 0

A run sets up (import, inputs from the seed, one checked warm-up pass), then
repeats rounds over the op list until ``--seconds`` have passed, timing each op
call and checking each output.

The host's speed swings by up to 2x over seconds to minutes, so each round
also times the fixed calibration kernel of ``hostspeed.py``.  Each op sample
is divided by the kernel time of its round; an op's time is the median of
these ratios times ``hostspeed.REF_S``, that is its wall time at the host
speed at which the kernel takes ``REF_S``.  ``pass_s`` sums the op times.
Each set-up sample is normalized by the median of kernel runs just before it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds traced by the wrappers of ``tracing.py`` and
prints the per-layer metrics.  The last line of standard output is the result
as one JSON object; the line before it is the provenance, with the raw wall
times.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_SAMPLES = 5  # fresh-interpreter set-ups per run; setup_s is their median
KERNELS_PER_PROBE = 5  # kernel runs that gauge the host speed before each set-up


def _pin_environment(argv: list[str]) -> None:
    """Re-exec this process with the pinned environment (PYTHONHASHSEED only
    takes effect at interpreter start).  Replaces the process; starts none."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], {**os.environ, **PINNED_ENV})


if __name__ == "__main__":
    _pin_environment(sys.argv[1:])  # before numpy starts any thread

sys.path.insert(0, str(ROOT / "src"))
try:
    import numpy
    import pivotk
    from pivotk import probability

    import hostspeed
    import tracing
    import workloads
except ImportError as exc:
    sys.exit(f"bench: cannot import the program: {exc}")


class Samples:
    """Per-round wall times of each op and of the kernel in the same round."""

    def __init__(self, names) -> None:
        self.ops: dict[str, list[float]] = {name: [] for name in names}
        self.kernel: list[float] = []  # mean of the runs before and after the round

    def op_time(self, name: str) -> float:
        """Median of the op's samples over its round's kernel time, in seconds
        at the reference host speed."""
        ratios = [t / k for t, k in zip(self.ops[name], self.kernel)]
        return statistics.median(ratios) * hostspeed.REF_S

    def pass_time(self) -> float:
        return sum(self.op_time(name) for name in self.ops)

    def diagnostics(self) -> dict[str, tuple[float, str]]:
        """Raw wall times: the median round and the highest percentile with at
        least ten rounds beyond it, with the round count and the kernel."""
        rounds = sorted(map(sum, zip(*self.ops.values())))
        n = len(rounds)
        idx = n - 11  # rounds[idx] has exactly ten rounds above it
        return {
            "pass.rounds": (n, "count"),
            "pass.median_s": (statistics.median(rounds), "s"),
            "pass.p_high_s": (rounds[idx] if idx >= 0 else 0.0, "s"),
            "pass.p_high_pct": (100.0 * (idx + 1) / n if idx >= 0 else 0.0, "%"),
            "host.kernel_s": (statistics.median(self.kernel), "s"),
        }


class Runner:
    """Runs rounds over the op list and judges every output.

    The first output of an op that passes its oracle is kept; later outputs
    must equal it (every op is deterministic), and any other output is sent
    through the oracle again and counted as a failure.
    """

    def __init__(self, ops) -> None:
        self.ops = ops
        self.verified: dict[str, object] = {}
        self.attempted = 0
        self.errors = 0  # the op raised
        self.wrong = 0  # the op returned an output its oracle rejected
        self.failures: dict[str, str] = {}  # first reason per op

    def run_round(self, tracer=None, judge: bool = True) -> list[float]:
        times = []
        for op in self.ops:
            call = op.run if tracer is None else (lambda op=op: tracer.root(f"harness.{op.name}", op.run))
            error = out = None
            start = time.perf_counter()
            try:
                out = call()
            except Exception as exc:  # an op failure is counted, never fatal
                error = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
            if judge:
                self._judge(op, out, error)
        if tracer is not None:
            tracer.end_round()
        return times

    def _judge(self, op, out, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.errors += 1
            self.failures.setdefault(op.name, error)
            return
        if op.name in self.verified and out == self.verified[op.name]:
            return
        reason = op.check(out)
        if reason is None and op.name not in self.verified:
            self.verified[op.name] = out
            return
        self.wrong += 1
        self.failures.setdefault(op.name, reason or "output changed between identical calls")

    def measure(self, seconds: float, tracer=None) -> tuple[Samples, Samples]:
        """Closed loop for ``seconds``; returns the samples of the untraced
        rounds and of the traced ones.

        With a tracer, rounds alternate between untraced and traced (wrappers
        installed for that round only), so both see the same host speed, and
        the loop ends after a traced round.  Without one, every round is
        untraced.  At least one round of each kind runs.
        """
        names = [op.name for op in self.ops]
        plain, traced = Samples(names), Samples(names)
        deadline = time.perf_counter() + seconds
        traced_turn = False
        while True:
            kernel_before = hostspeed.kernel_time()
            if traced_turn:
                tracer.install()
                try:
                    times = self.run_round(tracer)
                finally:
                    tracer.uninstall()
            else:
                times = self.run_round()
            dest = traced if traced_turn else plain
            for name, t in zip(names, times):
                dest.ops[name].append(t)
            dest.kernel.append((kernel_before + hostspeed.kernel_time()) / 2)
            if tracer is not None:
                traced_turn = not traced_turn
            if time.perf_counter() >= deadline and not traced_turn:
                return plain, traced


def _setup_probe(args) -> tuple[float, float]:
    """One fresh interpreter doing the workload's set-up: its wall time, and
    the median of the kernel runs just before it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.smallest:
        cmd.append("--smallest")
    kernel = statistics.median(hostspeed.kernel_time() for _ in range(KERNELS_PER_PROBE))
    start = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would quantize the measurement.
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start, kernel


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _parse(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smallest", action="store_true", help="n=100 tier and small trial counts (smoke test)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if ROOT / "src" not in Path(pivotk.__file__).resolve().parents:
        print(f"bench: pivotk was imported from {pivotk.__file__}, not from this checkout", file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        if args.setup_probe:
            Runner(workloads.build(args.workload, args.seed, Path(tmp), args.smallest)).run_round(judge=False)
            return 0

        hostspeed.kernel_time()  # warm-up: the first call pays one-time costs
        setup = [] if args.trace else [_setup_probe(args) for _ in range(SETUP_SAMPLES)]
        runner = Runner(workloads.build(args.workload, args.seed, Path(tmp), args.smallest))
        runner.run_round()  # warm-up; its outputs are the first ones checked
        if args.trace == 0:
            samples, _ = runner.measure(args.seconds)
            metrics = {
                "setup_s": (statistics.median(wall * hostspeed.REF_S / k for wall, k in setup), "s"),
                "pass_s": (samples.pass_time(), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ops_ok_ratio": ((runner.attempted - runner.errors - runner.wrong) / runner.attempted, "ratio"),
            }
        else:
            tracer = tracing.Tracer()
            samples, traced = runner.measure(args.seconds, tracer)
            spans_path = ROOT / ".bench_out" / f"spans-{args.workload}.jsonl"
            tracer.write(spans_path)
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = (traced.pass_time() / samples.pass_time(), "ratio")
            metrics["probability.log_fact_table_size"] = (len(probability._LOG_FACT_HI), "count")
            metrics.update(samples.diagnostics())
            # Every workload prints every op metric; ops of other workloads read 0.
            for name in (n for wl in workloads.WORKLOADS for n in workloads.op_names(wl)):
                metrics[f"ops.{name}_s"] = (samples.op_time(name) if name in samples.ops else 0.0, "s")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "implementation": sys.implementation.name,
        "numpy": numpy.__version__,
        "commit": _git_commit(),
        "env": {k: os.environ.get(k) for k in PINNED_ENV},
        "rounds": len(samples.kernel),
        "kernel_ref_s": hostspeed.REF_S,
        "kernel_median_s": statistics.median(samples.kernel),
        "setup_wall_s": [wall for wall, _ in setup],
        "op_wall_min_s": {name: min(s) for name, s in samples.ops.items()},
        "failures": runner.failures,
    }
    if args.trace:
        provenance["spans"] = str(spans_path.relative_to(ROOT))
    print(json.dumps({"provenance": provenance}))
    result = {
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.errors + runner.wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except Exception:  # any harness fault: no result line, nonzero exit
        traceback.print_exc()
        sys.exit(2)
