"""Every function in ``src/pivotk`` is entered by a command, or allowlisted with a reason.

The gate runs COMMANDS through ``cli.main`` in one fresh interpreter, with a
``sys.setprofile`` hook installed before ``import pivotk``.  A warm process
would hide functions whose results ``lru_cache``/``cached_property`` already
hold, and import-time calls happen only once per process.  Code objects are
matched to the functions of an AST walk by ``(file, co_firstlineno)``, where a
decorated function starts at its first decorator; Python 3.10 code objects
carry no ``co_qualname``.

The functions no command enters must be exactly ALLOWLIST's keys.  A new
unentered function fails the gate until a command reaches it, it is deleted
or it gains an entry.  An entry whose function is now entered, or no longer
exists, fails it too: wiring in or deleting a function removes its entry.
"""

from __future__ import annotations

import ast
import functools
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import pivotk

SRC = pathlib.Path(pivotk.__file__).resolve().parent
TESTS = pathlib.Path(__file__).resolve().parent
WORKLOADS = TESTS.parent / "bench" / "workloads.py"

# Each reason has a check that keeps it from going stale:
# "bench oracle": bench/workloads.py names it (bench/ itself never changes here);
# "library API": its module's __all__ exports it (or its class);
# "test reference": a test compares another implementation against it;
# "abstract": it only raises NotImplementedError.
ALLOWLIST = {
    "delay.exact_q0": "bench oracle",
    "delay.fluid_delay_report": "bench oracle",
    "incentives.InclusionTimeLaw.residual_mass": "bench oracle",
    "incentives.InclusionTimeLaw.delay_probability": "bench oracle",
    # the incentive-compatibility conditions, until a command reports them
    "incentives.pi_share": "library API",
    "incentives.ICCheck.satisfied": "library API",
    "incentives.ic_stationary_check": "library API",
    "incentives.ic_stationary_profile": "library API",
    "incentives.coalition_loss_floor": "library API",
    "mechanism.WeightRule.weights": "library API",
    "probability.DiscreteDistribution.__eq__": "library API",
    # the Fraction reference the integer bounty share is checked against
    "mechanism.PivotalAllocation.paid_to": "test reference",
    "simulator.AdversaryPolicy.withhold": "abstract",
}
REASONS = ("library API", "test reference", "bench oracle", "abstract")

POLICY_SPECS = (
    "full_include", "full_withhold", "stationary_w:0.5", "minimal_sabotage",
    "ratchet_spread:1,1", "scripted:0,1",
)

CONFIGS = {
    "sim-n1000.json": {"instance": {"n": 1000, "m": 200, "kappa": 390}, "beta": 0.2,
                       "econ": {"bounty": 50.0}},
    "ratchet.json": {"sweep": {"kappa_min": 21, "kappa_max": 40}},
    "n1000.json": {"instance": {"n": 1000, "m": 200}, "sweep": {"kappa_min": 1, "kappa_max": 1000}},
    "race-n1000.json": {"instance": {"n": 1000, "m": 200},
                        "sweep": {"kappa_min": 150, "kappa_max": 450}},
    "knife-edge.json": {"instance": {"kappa": 40}},
    "bytes.json": {
        "instance": {"n": 100, "m": 20, "s": 3, "kappa": 30},
        "econ": {"mode": "bytes", "header_bytes": 100, "metadata_bytes": 20, "symbol_bytes": 200,
                 "per_byte_price": 0.01, "proposer_share": 0.5, "alpha": 0.01, "value": 10000.0},
    },
    "bad.json": {"instance": 5},
    "beta09.json": {"beta": 0.9},
}

# (exit code, argv): the CI console-script set at small trials, a knife-edge
# and a bytes-mode advise, both exit-1 paths, a malformed config, a ratchet
# pool too small for full withholding, and a simulate/replay round trip per
# policy kind.
COMMANDS = [
    (0, ["simulate", "--traces", "3", "--out", "t.jsonl"]),
    (0, ["replay", "--input", "t.jsonl"]),
    (0, ["replay", "--input", str(TESTS / "golden" / "simulate-n1000.jsonl")]),
    (0, ["simulate", "--config", "sim-n1000.json", "--policy", "stationary_w:0.5", "--traces", "1"]),
    (0, ["verify", "--trials", "100"]),
    (2, ["verify", "--inject-fault", "minimax", "--trials", "100"]),
    (0, ["sweep-ratchet", "--trials", "20", "--config", "ratchet.json"]),
    (0, ["sweep-ratchet", "--epsilon", "0.01", "--trials", "20"]),
    (0, ["sweep", "--format", "csv", "--config", "n1000.json"]),
    (0, ["advise", "--format", "json"]),
    (0, ["sweep-race"]),
    (0, ["sweep-race", "--config", "race-n1000.json"]),
    (0, ["table-main"]),
    (0, ["table-coalition"]),
    (0, ["table-cost"]),
    (0, ["advise", "--config", "knife-edge.json"]),
    (0, ["advise", "--config", "bytes.json"]),
    (1, ["sweep", "--format", "yaml"]),
    (1, ["simulate", "--policy", "bogus"]),
    (1, ["sweep", "--config", "bad.json"]),
    (1, ["sweep-ratchet", "--config", "beta09.json"]),
] + [
    (0, argv)
    for i, spec in enumerate(POLICY_SPECS)
    for argv in (["simulate", "--policy", spec, "--traces", "2", "--out", f"p{i}.jsonl"],
                 ["replay", "--input", f"p{i}.jsonl"])
]

# Run in a fresh interpreter: argv[1] is the JSON command list.  Prints the
# package directory, the exit codes and the (file name, first line) of every
# package code object entered.
PROBE = """
import sys
entered = set()
def hook(frame, event, arg, add=entered.add):
    add(frame.f_code)  # the frame of every event has been entered
sys.setprofile(hook)
import contextlib, io, json, os
import pivotk.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(pivotk.cli.main(argv))
sys.setprofile(None)
package = os.path.dirname(os.path.abspath(pivotk.__file__))
positions = sorted({
    (os.path.basename(code.co_filename), code.co_firstlineno)
    for code in entered if os.path.dirname(os.path.abspath(code.co_filename)) == package
})
json.dump({"package": package, "exit_codes": codes, "entered": positions}, sys.stdout)
"""


@functools.cache
def defined_functions() -> dict[tuple[str, int], tuple[str, ast.FunctionDef]]:
    """``(file name, first line)`` -> (``module.Qual.name``, node) for every def in the package."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                found[(path.name, first)] = (f"{path.stem}.{prefix}{child.name}", child)
                walk(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def gate_faults(defined: set[str], entered: set[str], allowlist: dict[str, str]) -> list[str]:
    """Why the gate fails, one message per function named; empty when it passes."""
    unentered = defined - entered
    faults = [
        f"{name}: no command enters it; reach it from a command, delete it, "
        f"or allowlist it with one of {REASONS}"
        for name in sorted(unentered - allowlist.keys())
    ]
    for name in sorted(allowlist.keys() - unentered):
        why = "a command enters it" if name in defined else "no such function"
        faults.append(f"{name}: stale allowlist entry ({why}); remove it")
    return faults


def test_every_function_is_reached_or_allowlisted(tmp_path):
    for name, obj in CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(obj), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([argv for _, argv in COMMANDS])],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    probe = json.loads(done.stdout)
    assert pathlib.Path(probe["package"]).resolve() == SRC
    # each command takes the path it is listed for
    assert [(code, argv) for code, (_, argv) in zip(probe["exit_codes"], COMMANDS)] == COMMANDS
    defined = defined_functions()
    entered = {defined[tuple(pos)][0] for pos in probe["entered"] if tuple(pos) in defined}
    assert gate_faults({name for name, _ in defined.values()}, entered, ALLOWLIST) == []


@pytest.mark.parametrize("name, reason", sorted(ALLOWLIST.items()))
def test_allowlist_reason_holds(name, reason):
    module, qualname = name.split(".", 1)
    bare = qualname.rsplit(".", 1)[-1]
    word = re.compile(rf"\b{re.escape(bare)}\b")
    if reason == "bench oracle":
        assert word.search(WORKLOADS.read_text(encoding="utf-8")), f"bench/workloads.py never names {bare}"
    elif reason == "library API":
        exported = getattr(importlib.import_module(f"pivotk.{module}"), "__all__", ())
        assert qualname.split(".")[0] in exported, f"{name} is not in pivotk.{module}.__all__"
    elif reason == "test reference":
        users = [
            path.name for path in TESTS.glob("test_*.py")
            if path.name != pathlib.Path(__file__).name and word.search(path.read_text(encoding="utf-8"))
        ]
        assert users, f"no test names {bare}"
    else:
        assert reason == "abstract", f"{name}: unknown reason {reason!r}, not one of {REASONS}"
        (node,) = [node for qual, node in defined_functions().values() if qual == name]
        assert ast.unparse(node.body[-1]).startswith("raise NotImplementedError"), name


def test_gate_names_each_fault():
    defined = {"m.f", "m.g", "m.C.h"}
    # a function no command enters and nothing allowlists
    faults = gate_faults(defined, {"m.f", "m.C.h"}, {})
    assert len(faults) == 1 and faults[0].startswith("m.g: no command enters it")
    # an allowlist entry naming a function that does not exist
    faults = gate_faults(defined, {"m.f", "m.C.h"}, {"m.g": "library API", "m.gone": "library API"})
    assert faults == ["m.gone: stale allowlist entry (no such function); remove it"]
    # an allowlist entry whose function a command now enters
    faults = gate_faults(defined, defined, {"m.C.h": "abstract"})
    assert faults == ["m.C.h: stale allowlist entry (a command enters it); remove it"]
    assert gate_faults(defined, {"m.f"}, {"m.g": "bench oracle", "m.C.h": "abstract"}) == []
