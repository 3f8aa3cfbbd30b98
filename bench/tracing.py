"""Per-layer tracing for the benchmark's traced run.

``Tracer.install`` wraps pivotk's public functions: every function listed in
a layer module's ``__all__``, a few helpers and methods named below, and
``cli.main``.  Each wrapper is patched by name into every pivotk module that
holds the function, so calls made inside pivotk are seen too.  Wrappers record
spans (name, start, end, parent) in memory and count calls at the same
boundary; only calls made inside an op's root span are recorded.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = (
    "probability",
    "delay",
    "ratchet",
    "intra_slot",
    "incentives",
    "mechanism",
    "simulator",
    "cli",
    "config",
    "reporting",
)

# Functions outside __all__ that are traced as well.
EXTRA_FUNCTIONS = {("probability", "log_comb"), ("cli", "main")}
# Methods traced under "<layer>.<method>".
METHODS = (
    ("probability", "DiscreteDistribution", "from_law"),
    ("probability", "DiscreteDistribution", "convolve"),
    ("config", "AnalysisConfig", "from_dict"),
    ("mechanism", "WeightRule", "from_weights"),
)
# Hot scalar helpers get a call counter only, which keeps the overhead small;
# their time counts toward the span that called them.
COUNT_ONLY = {
    "probability.log_comb",
    "probability.log_hypergeom_pmf",
    "probability.hypergeom_pmf",
    "mechanism.ticket_hash_of",
}
# Per-call key whose distinct values per pass are counted (wasted rebuilds).
DISTINCT_KEYS = {
    "probability.from_law": lambda a: (a["law"].population, a["law"].successes, a["law"].draws),
    "simulator.prefix_monotonicity_exhaustive": lambda a: (a["kappa"], a.get("extra", 2)),
}
# Per-call quantities summed from the arguments (every pivotk caller passes
# resolve_order a list).
ARG_TOTALS = {
    "ratchet.ratchet_multi_slot_delay": lambda a: a["trials"],
    "simulator.estimate_delay": lambda a: a["trials"],
    "mechanism.resolve_order": lambda a: len(a["records"]),
}
RESULT_TOTALS = {"delay.sawtooth_sweep": len}


class Tracer:
    """Spans and counters for a run of traced rounds."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter = Counter()
        self.totals: Counter = Counter()
        self.distinct: Counter = Counter()
        self.rounds = 0
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        self._undo: list[tuple[object, str, object]] = []

    # --- recording ---

    def root(self, name: str, fn):
        """Run ``fn`` inside the root span ``name`` and return its result."""
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, -1])
        self._stack.append(idx)
        try:
            return fn()
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def end_round(self) -> None:
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
        self._keys.clear()
        self.rounds += 1

    def _span(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        sig = inspect.signature(fn) if name in DISTINCT_KEYS or name in ARG_TOTALS else None
        per_result = RESULT_TOTALS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            if sig is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if name in DISTINCT_KEYS:
                    self._keys[name].add(DISTINCT_KEYS[name](bound))
                if name in ARG_TOTALS:
                    self.totals[name] += ARG_TOTALS[name](bound)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if per_result is not None:
                self.totals[name] += per_result(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls, stack = self.calls, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # --- patching ---

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"pivotk.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            names = set(getattr(mod, "__all__", ())) | {f for lay, f in EXTRA_FUNCTIONS if lay == layer}
            for attr in names:
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[fn] = (self._count if name in COUNT_ONLY else self._span)(name, fn)
        for key, mod in list(sys.modules.items()):
            if key != "pivotk" and not key.startswith("pivotk."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._undo.append((mod, attr, value))
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{meth}"
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(self._span(name, raw.__func__)))
            else:
                setattr(cls, meth, self._span(name, raw))
            self._undo.append((cls, meth, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # --- results ---

    def write(self, path: Path) -> None:
        """Write every span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")

    def times(self) -> tuple[Counter, Counter]:
        """Self and inclusive seconds per span name, summed over all rounds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: Counter = Counter()
        incl_s: Counter = Counter()
        for (name, start, end, _), child in zip(self.spans, covered):
            self_s[name] += end - start - child
            incl_s[name] += end - start
        return self_s, incl_s

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per pass (averaged over the traced rounds)."""
        rounds = max(self.rounds, 1)
        self_s, incl_s = self.times()
        calls, totals = self.calls, self.totals

        def per_pass(x: float) -> float:
            return x / rounds

        def layer_self(prefix: str) -> float:
            return per_pass(sum(v for k, v in self_s.items() if k.startswith(prefix + ".")))

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS + ("harness",):
            out[f"{layer}.self_s"] = (layer_self(layer), "s")
        out["trace.pass_mean_s"] = (
            per_pass(sum(v for k, v in incl_s.items() if k.startswith("harness."))),
            "s",
        )
        for name in (
            "probability.from_law",
            "probability.convolve_iid",
            "probability.convolve",
            "probability.hypergeom_tail_ge",
            "probability.log_comb",
            "delay.exact_q0",
            "intra_slot.q_micro",
            "ratchet.ratchet_multi_slot_delay",
            "mechanism.ticket_hash_of",
            "mechanism.pivotal_allocation",
            "simulator.prefix_monotonicity_exhaustive",
            "simulator.run_trace",
            "config.from_dict",
        ):
            out[f"{name}.calls"] = (per_pass(calls[name]), "count")
        for name in (
            "probability.convolve_iid",
            "delay.exact_q0",
            "incentives.distribution_of_T0",
            "mechanism.minimax_certificate",
            "simulator.minimal_sabotage_exhaustive",
            "simulator.trace_to_json",
        ):
            out[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
        # replay calls trace_from_json_with_econ; trace_from_json wraps it.
        out["simulator.trace_from_json.self_s"] = (
            per_pass(self_s["simulator.trace_from_json"] + self_s["simulator.trace_from_json_with_econ"]),
            "s",
        )
        for name in DISTINCT_KEYS:
            out[f"{name}.distinct_ratio"] = (ratio(self.distinct[name], calls[name]), "ratio")
        out["delay.sawtooth_sweep.rows_per_s"] = (
            ratio(totals["delay.sawtooth_sweep"], incl_s["delay.sawtooth_sweep"]),
            "1/s",
        )
        out["ratchet.mc_trials"] = (per_pass(totals["ratchet.ratchet_multi_slot_delay"]), "count")
        out["ratchet.trials_per_s"] = (
            ratio(totals["ratchet.ratchet_multi_slot_delay"], incl_s["ratchet.ratchet_multi_slot_delay"]),
            "1/s",
        )
        out["mechanism.resolve_order.records"] = (per_pass(totals["mechanism.resolve_order"]), "count")
        out["mechanism.hash_per_record"] = (
            ratio(calls["mechanism.ticket_hash_of"], totals["mechanism.resolve_order"]),
            "ratio",
        )
        out["simulator.estimate_delay.trials"] = (per_pass(totals["simulator.estimate_delay"]), "count")
        out["simulator.traces_per_s"] = (
            ratio(calls["simulator.run_trace"], incl_s["simulator.run_trace"]),
            "1/s",
        )
        return out
