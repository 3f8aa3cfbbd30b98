"""CLI surface: golden tables, config handling, exit codes, round trips."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import pathlib
import re

import numpy as np
import pytest

from pivotk import cli, delay, mechanism, probability, ratchet, simulator
from pivotk.cli import EXIT_CONFIG, EXIT_OK, EXIT_PROPERTY, main
from pivotk.config import AnalysisConfig, ConfigError
from pivotk.geometry import SystemInstance
from pivotk.incentives import coalition_sufficient_bounty

from conftest import exact_ratchet_tail_gt, reference_bound_dominance

GOLDEN = pathlib.Path(__file__).parent / "golden"

# An s = 3 byte-model config; its econ block leaves bounty to its default.
BYTE_CONFIG = {
    "instance": {"n": 100, "m": 20, "s": 3, "kappa": 30},
    "econ": {
        "mode": "bytes",
        "header_bytes": 100,
        "metadata_bytes": 20,
        "symbol_bytes": 200,
        "per_byte_price": 0.01,
        "proposer_share": 0.5,
        "alpha": 0.01,
        "value": 10000.0,
        "gamma": 0.99,
    },
}


RACE_RATE_TOO_SMALL = (
    "race: rate * seal_deadline is too small: 1 - exp(-rate * seal_deadline) rounds to 0, "
    "so raise rate or seal_deadline"
)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


GOLDEN_COMMANDS = [
    pytest.param("sweep.csv", ["sweep"], None, id="sweep"),
    pytest.param(
        "sweep-n1000.csv",
        ["sweep", "--format", "csv"],
        {"instance": {"n": 1000, "m": 200}, "sweep": {"kappa_min": 1, "kappa_max": 1000}},
        id="sweep-n1000",
    ),
    pytest.param("sweep-race.csv", ["sweep-race"], None, id="sweep-race"),
    pytest.param(
        "sweep-race-n1000.csv",
        ["sweep-race"],
        {"instance": {"n": 1000, "m": 200}, "sweep": {"kappa_min": 150, "kappa_max": 450}},
        id="sweep-race-n1000",
    ),
    pytest.param(
        "table-main.json", ["table-main", "--format", "json"], None, id="table-main-json"
    ),
    pytest.param(
        "table-coalition.json",
        ["table-coalition", "--format", "json"],
        None,
        id="table-coalition-json",
    ),
    pytest.param(
        "table-cost.json", ["table-cost", "--format", "json"], None, id="table-cost-json"
    ),
    pytest.param("advise.json", ["advise", "--format", "json"], None, id="advise"),
    pytest.param("verify.json", ["verify", "--trials", "1000"], None, id="verify"),
    pytest.param(
        "sweep-ratchet.csv",
        ["sweep-ratchet", "--trials", "200"],
        {"sweep": {"kappa_min": 21, "kappa_max": 40}},
        id="sweep-ratchet",
    ),
    pytest.param(
        "sweep-ratchet-eps.csv",
        ["sweep-ratchet", "--epsilon", "0.01", "--trials", "500"],
        None,
        id="sweep-ratchet-eps",
    ),
    pytest.param(
        "sweep-ratchet-eps-n1000.csv",
        ["sweep-ratchet", "--epsilon", "0.01", "--trials", "50"],
        {"instance": {"n": 1000, "m": 200}, "sweep": {"kappa_min": 1, "kappa_max": 1000}},
        id="sweep-ratchet-eps-n1000",
    ),
]


N10000_BAND = {"instance": {"n": 10000, "m": 2000}, "sweep": {"kappa_min": 1, "kappa_max": 10000}}

# every sweep-ratchet golden, and the n = 10 000 band, which has no golden file
RATCHET_SWEEPS = [p for p in GOLDEN_COMMANDS if p.values[1][0] == "sweep-ratchet"] + [
    pytest.param(None, ["sweep-ratchet", "--trials", "200"], N10000_BAND, id="sweep-ratchet-n10000")
]


def with_config(tmp_path, argv, config) -> list[str]:
    """``argv`` reading ``config`` from a file in ``tmp_path``; unchanged if None."""
    if config is None:
        return list(argv)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    return [*argv, "--config", str(cfg_path)]


class TestGoldenTables:
    @pytest.mark.parametrize("command", ["table-main", "table-coalition", "table-cost"])
    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_default_output_matches_golden(self, capsys, command, fmt):
        suffix = "txt" if fmt == "table" else "csv"
        expected = (GOLDEN / f"{command}.{suffix}").read_text()
        code, out = run_cli(capsys, command, "--format", fmt)
        assert code == EXIT_OK
        assert out == expected

    @pytest.mark.parametrize("golden, argv, config", GOLDEN_COMMANDS)
    def test_command_output_matches_golden(self, capsys, tmp_path, golden, argv, config):
        code, out = run_cli(capsys, *with_config(tmp_path, argv, config))
        assert code == EXIT_OK
        assert out == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("golden, argv, config", GOLDEN_COMMANDS)
    def test_cold_and_warm_runs_print_the_same_bytes(self, capsys, tmp_path, golden, argv, config):
        # Cold: no contact-sum chain or slot law is cached yet.  Warm: the
        # same command again in the same process reads every sum it built.
        argv = with_config(tmp_path, argv, config)
        probability._chain.cache_clear()
        probability._slot_law.cache_clear()
        cold = run_cli(capsys, *argv)
        warm = run_cli(capsys, *argv)
        assert cold == warm == (EXIT_OK, (GOLDEN / golden).read_text())

    def test_sweep_n10000_matches_recorded_digest(self, capsys, tmp_path):
        # The 10 000-row CSV (~500 KB) is pinned by its sha256, not a golden file.
        config = {"instance": {"n": 10000, "m": 2000}, "sweep": {"kappa_min": 1, "kappa_max": 10000}}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, out = run_cli(capsys, "sweep", "--format", "csv", "--config", str(cfg_path))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9864e84a1792cd342b60ece549e2b7e29123d10da001eac9106972ea9e9de29f"
        )

    def test_sweep_json_matches_golden(self, capsys):
        # Compared after parsing: the golden keeps each row's keys in field
        # order, and key order is the only difference the output may show.
        code, out = run_cli(capsys, "sweep", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == json.loads((GOLDEN / "sweep.json").read_text())

    def test_main_table_reference_cells(self, capsys):
        _, out = run_cli(capsys, "table-main", "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        by_kappa = {row[0]: row for row in rows}
        assert [by_kappa[k][3] for k in ("10", "20", "30", "50", "100")] == [
            "8.0e-05", "0.993", "0.136", "0.699", "~1",
        ]
        assert [by_kappa[k][4] for k in ("10", "20", "30", "50", "100")] == [
            "8.0e-05", "0.993", "8.0e-05", "8.0e-05", "0.993",
        ]
        assert [by_kappa[k][5] for k in ("10", "20", "30", "50", "100")] == [
            "6.5e-04", "1.9e-21", "6.5e-04", "6.5e-04", "1.9e-21",
        ]
        assert [by_kappa[k][6] for k in ("10", "20", "30", "50", "100")] == [
            "0.04", "497", "68", "350", "500",
        ]

    def test_usd_column_derives_from_displayed_units(self, capsys):
        _, out = run_cli(capsys, "table-main", "--format", "json")
        rows = json.loads(out)["rows"]
        for row in rows:
            shown = float(f"{row['b_static']:.2f}") if row["b_static"] < 1 else round(row["b_static"])
            assert row["b_static_usd"] == pytest.approx(shown * 0.10)

    def test_coalition_reference_cells(self, capsys):
        _, out = run_cli(capsys, "table-coalition", "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        shares = [row[3] for row in rows]
        coal = [row[4] for row in rows]
        unil = [row[2] for row in rows]
        assert shares == ["9.0", "99.0", "8.9", "8.8", "95.1"]
        assert coal[1] == "n/a" and coal[4] == "n/a"
        assert abs(int(coal[0]) - 880) <= 1
        assert abs(int(coal[2]) - 2610) <= 1
        assert abs(int(coal[3]) - 4302) <= 1
        assert unil == ["yes", "no", "yes", "yes", "no"]

    def test_coalition_rows_price_bundles_at_config_s(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(BYTE_CONFIG))
        _, out = run_cli(capsys, "table-coalition", "--config", str(cfg_path), "--format", "json")
        (row,) = [r for r in json.loads(out)["rows"] if r["kappa"] == 30]
        _, out = run_cli(capsys, "advise", "--config", str(cfg_path), "--format", "json")
        advised = json.loads(out)["report"]["coalition_bounty"]
        econ = AnalysisConfig.load(str(cfg_path)).econ
        expected = coalition_sufficient_bounty(SystemInstance(100, 20, 3, 90), econ)
        assert row["b_coal"] == advised == expected

    def test_cost_reference_cells(self, capsys):
        _, out = run_cli(capsys, "table-cost", "--format", "csv")
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert [row[2] for row in rows] == ["$0.002", "$0.02", "$2.00"]
        assert {row[3] for row in rows} == {"0.04%"}

    def test_cost_rows_priced_per_cartel_lane_share(self, capsys, tmp_path):
        # both betas name the same 20 of 100 lanes, so every cell is the same
        docs = []
        for beta in (0.2, 0.2000000000001):
            argv = with_config(tmp_path, ["table-cost", "--format", "json"], {"beta": beta})
            code, out = run_cli(capsys, *argv)
            assert code == EXIT_OK
            docs.append(json.loads(out)["rows"])
        assert docs[0] == docs[1]


class TestConfigHandling:
    def test_json_output_round_trips_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "instance": {"n": 100, "m": 20, "s": 1, "kappa": 50},
                    "beta": 0.25,
                    "econ": {"mode": "normalized", "fee": 2.0, "alpha_v": 80.0, "gamma": 0.98},
                    "table_kappas": [50],
                    "mc": {"trials": 500, "seed": 7},
                }
            )
        )
        code, out = run_cli(capsys, "table-main", "--config", str(cfg_path), "--format", "json")
        assert code == EXIT_OK
        echoed = json.loads(out)["config"]
        assert AnalysisConfig.from_dict(echoed) == AnalysisConfig.load(str(cfg_path))

    def test_single_kappa_single_row(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"table_kappas": [30]}))
        _, out = run_cli(capsys, "table-main", "--config", str(cfg_path), "--format", "csv")
        assert len(out.strip().splitlines()) == 2

    def test_both_K_and_kappa_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"K": 30, "kappa": 30}}))
        code, _ = run_cli(capsys, "table-main", "--config", str(cfg_path))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize(
        "config, message",
        [
            ({"instance": {"n": 100, "m": 20, "kapa": 50}}, "instance: unknown key 'kapa' (did you mean 'kappa'?)"),
            ({"betta": 0.3}, "unknown key 'betta' (did you mean 'beta'?)"),
            ({"mc": {"trails": 5}}, "mc: unknown key 'trails' (did you mean 'trials'?)"),
            ({"race": {"rat": 8.0}}, "race: unknown key 'rat' (did you mean 'rate'?)"),
            ({"econ": {"bounti": 24.0}}, "econ: unknown key 'bounti' (did you mean 'bounty'?)"),
            ({"sweep": {"kappa_mx": 50}}, "sweep: unknown key 'kappa_mx' (did you mean 'kappa_max'?)"),
            (
                {"econ": {"mode": "bytes", "header_bytes": 1, "metadata_bytes": 1, "symbol_bytes": 1,
                          "per_byte_price": 1.0, "proposer_share": 0.5, "alpha": 1.0, "value": 9.0,
                          "per_bytes_price": 2.0}},
                "econ: unknown key 'per_bytes_price' (did you mean 'per_byte_price'?)",
            ),
            ({"comment": "x"}, "unknown key 'comment'"),
        ],
        ids=["instance", "top-level", "mc", "race", "econ", "sweep", "econ-bytes", "no-close-key"],
    )
    def test_unknown_key_named_with_closest_accepted_key(self, capsys, tmp_path, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["advise", "--format", "json", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"instance": {"n": 100, "m": 20, "kappa": 30}, "instance": {"n": 50}}', "instance"),
            ('{"instance": {"n": 100, "m": 20, "kappa": 30, "n": 50}}', "n"),
        ],
        ids=["top-level", "in-block"],
    )
    def test_duplicate_key_rejected(self, capsys, tmp_path, text, key):
        # json keeps the last value, which would silently drop the first block
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = main(["advise", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {cfg_path}: duplicate key '{key}'\n"

    def test_non_utf8_config_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes("{}".encode("utf-16"))  # starts with the BOM ff fe
        code = main(["table-main", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {cfg_path}: not UTF-8 text (")

    def test_overflowing_transaction_value_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"econ": {"alpha_v": 1e308, "alpha": 1e-10}}))
        code = main(["advise", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == (
            "config error: econ.alpha_v / econ.alpha, the transaction value, must be finite; "
            "got 1e+308 / 1e-10\n"
        )

    @pytest.mark.parametrize(
        "command, config, message",
        [
            (
                command,
                {"econ": {"alpha_v": 1e308}},
                "econ.alpha_v / beta, the bounty proxies' scale, must be finite; "
                "got 1e+308 / 0.2",
            )
            for command in ("advise", "table-main", "table-coalition")
        ]
        + [
            (
                "advise",
                {"instance": BYTE_CONFIG["instance"],
                 "econ": dict(BYTE_CONFIG["econ"], alpha=1.0, value=1e308)},
                "econ.alpha * econ.value / beta, the bounty proxies' scale, must be finite; "
                "got 1e+308 / 0.2",
            ),
            (
                "table-cost",
                {"mev_tiers_usd": [5.0, 1e308]},
                "mev_tiers_usd[1] / beta must be finite; got 1e+308 / 0.2",
            ),
        ],
        ids=["advise", "table-main", "table-coalition", "advise-bytes", "table-cost"],
    )
    def test_overflowing_bounty_scale_rejected(self, capsys, tmp_path, command, config, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main([command, "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (
                ["table-coalition"],
                {"econ": {"alpha_v": 3.5e307}},
                "the coalition bounty kappa * econ.alpha_v * gamma^t* at kappa=10 must be "
                "finite; got inf",
            ),
            (
                ["advise"],
                {"econ": {"alpha_v": 3.5e307}},
                "the coalition bounty kappa * econ.alpha_v * gamma^t* at kappa=30 must be "
                "finite; got inf",
            ),
            (
                ["advise"],
                {"instance": {"kappa": 20}, "econ": {"alpha_v": 3.5e307}},
                "the knife-edge bounty threshold from econ.alpha_v at kappa=20 must be "
                "finite; got inf",
            ),
            (
                ["table-main", "--format", "csv"],
                {"econ": {"alpha_v": 3.5e307}, "usd_per_fee_unit": 1e300},
                "B_static * usd_per_fee_unit at kappa=10 must be finite; got inf",
            ),
        ],
        ids=["table-coalition", "advise", "advise-knife-edge", "table-main"],
    )
    def test_overflowing_figure_rejected(self, capsys, tmp_path, argv, config, message):
        # Each key passes the loader's checks; the figure a command derives overflows.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main([*argv, "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {message}\n"

    def test_overflowing_bundle_price_rejected(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        econ = dict(BYTE_CONFIG["econ"], header_bytes=10**400)
        cfg_path.write_text(json.dumps({"instance": BYTE_CONFIG["instance"], "econ": econ}))
        code = main(["table-coalition", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == (
            "config error: econ: the bundle price econ.per_byte_price * (econ.header_bytes + "
            "s * (econ.metadata_bytes + econ.symbol_bytes)) must be finite at s=3\n"
        )

    def test_normalized_mode_excludes_byte_fields(self):
        with pytest.raises(ConfigError):
            AnalysisConfig.from_dict(
                {"econ": {"mode": "normalized", "fee": 1.0, "header_bytes": 10}}
            )

    def test_empty_sweep_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"kappa_min": 10, "kappa_max": 5}}))
        code, _ = run_cli(capsys, "sweep", "--config", str(cfg_path))
        assert code == EXIT_CONFIG

    def test_invalid_json_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        code, _ = run_cli(capsys, "table-main", "--config", str(cfg_path))
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["table-main", "table-coalition", "table-cost", "advise"])
    def test_zero_beta_rejected(self, capsys, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 0}))
        code = main([command, "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ")
        assert "beta > 0" in err

    @pytest.mark.parametrize(
        "command",
        [
            "table-main",
            "table-coalition",
            "table-cost",
            "sweep",
            "sweep-race",
            "sweep-ratchet",
            "advise",
            "verify",
            "simulate",
        ],
    )
    def test_non_integral_cartel_rejected(self, capsys, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 0.123}))  # 12.3 of 100 lanes
        code = main([command, "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "beta = 12/100" in captured.err

    @pytest.mark.parametrize("econ", [{"fee": -1.0}, {"bundle_price": -0.5}])
    @pytest.mark.parametrize("command", ["table-main", "simulate", "advise"])
    def test_negative_fee_rejected(self, capsys, tmp_path, econ, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"econ": econ}))
        code = main([command, "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: econ.")
        assert "must be nonnegative" in captured.err

    @pytest.mark.parametrize(
        "argv, config",
        [
            (["simulate", "--seed", "-3"], None),
            (["verify", "--seed", "-3"], None),
            (["sweep-ratchet"], {"mc": {"seed": -1}}),
        ],
        ids=["simulate", "verify", "sweep-ratchet"],
    )
    def test_negative_seed_rejected(self, capsys, tmp_path, argv, config):
        if config is not None:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg_path)]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: mc.seed must be nonnegative")

    @pytest.mark.parametrize("block", ["instance", "econ", "sweep", "mc", "race"])
    @pytest.mark.parametrize(
        "value, kind",
        [([["fee", 2.0]], "array"), ("x", "string"), (None, "null"), (3, "number"), (True, "boolean")],
        ids=["pairs", "string", "null", "number", "boolean"],
    )
    def test_config_blocks_must_be_objects(self, capsys, tmp_path, block, value, kind):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({block: value}))
        code = main(["table-main", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {block}: must be a JSON object, got {kind}\n"

    @pytest.mark.parametrize(
        "config, reason",
        [
            (
                {
                    "instance": {"n": 100.9, "m": "20", "kappa": True},
                    "econ": {"fee": "2"},
                    "table_kappas": [30.7],
                    "mc": {"trials": 99.5},
                },
                "instance.n must be an integer, got 100.9",
            ),
            ({"instance": {"m": "20"}}, "instance.m must be an integer, got '20'"),
            ({"instance": {"kappa": True}}, "instance.kappa must be an integer, got True"),
            ({"instance": {"K": 30.0}}, "instance.K must be an integer, got 30.0"),
            ({"econ": {"fee": "2"}}, "econ.fee must be a number, got '2'"),
            ({"econ": {"gamma": False}}, "econ.gamma must be a number, got False"),
            ({"table_kappas": [30.7]}, "table_kappas[0] must be an integer, got 30.7"),
            ({"table_kappas": "30"}, "table_kappas must be an array, got string"),
            ({"mev_tiers_usd": [5, "50"]}, "mev_tiers_usd[1] must be a number, got '50'"),
            ({"mc": {"trials": 99.5}}, "mc.trials must be an integer, got 99.5"),
            ({"mc": {"seed": "7"}}, "mc.seed must be an integer, got '7'"),
            ({"sweep": {"kappa_max": 12.0}}, "sweep.kappa_max must be an integer, got 12.0"),
            ({"race": {"rate": None}}, "race.rate must be a number, got None"),
            ({"beta": "0.2"}, "beta must be a number, got '0.2'"),
            ({"usd_per_fee_unit": True}, "usd_per_fee_unit must be a number, got True"),
        ],
        ids=[
            "all-at-once", "m", "kappa", "K", "fee", "gamma", "table_kappas", "table_kappas-string",
            "mev_tiers", "trials", "seed", "kappa_max", "race", "beta", "usd",
        ],
    )
    def test_config_fields_are_typed(self, capsys, tmp_path, config, reason):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = main(["table-main", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {reason}\n"

    def test_integral_numbers_echo_as_floats(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"beta": 0, "econ": {"fee": 2, "gamma": 0.5}, "mev_tiers_usd": [5]})
        )
        code, out = run_cli(capsys, "sweep", "--config", str(cfg_path), "--format", "json")
        assert code == EXIT_OK
        echoed = json.loads(out)["config"]
        assert (echoed["beta"], echoed["econ"]["fee"], echoed["mev_tiers_usd"]) == (0.0, 2.0, [5.0])
        assert type(echoed["mc"]["trials"]) is int

    @pytest.mark.parametrize("econ", [{"fee": 0.0}, {"bundle_price": 0.0}])
    def test_advise_needs_positive_bundle_price(self, capsys, tmp_path, econ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"econ": econ}))
        code = main(["advise", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "positive econ.bundle_price" in captured.err

    @pytest.mark.parametrize(
        "econ",
        [{"per_byte_price": 0.0}, {"header_bytes": 0, "metadata_bytes": 0, "symbol_bytes": 0}],
        ids=["per_byte_price", "sizes"],
    )
    def test_advise_zero_byte_price_names_byte_fields(self, capsys, tmp_path, econ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BYTE_CONFIG, "econ": {**BYTE_CONFIG["econ"], **econ}}))
        code = main(["advise", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == (
            "config error: advise prices the fee share per bundle and needs a positive bundle "
            "price econ.per_byte_price * (econ.header_bytes + s * (econ.metadata_bytes + "
            "econ.symbol_bytes))\n"
        )

    @pytest.mark.parametrize(
        "econ, reason",
        [
            ({"fee": 5.0}, "econ: bytes mode excludes normalized-mode field 'fee'"),
            ({"alpha_v": 100.0}, "econ: bytes mode excludes normalized-mode field 'alpha_v'"),
            ({"bundle_price": 1.0}, "econ: bytes mode excludes normalized-mode field 'bundle_price'"),
            ({"header_bytes": -100}, "econ.header_bytes must be nonnegative"),
            ({"metadata_bytes": -1}, "econ.metadata_bytes must be nonnegative"),
            ({"symbol_bytes": -1}, "econ.symbol_bytes must be nonnegative"),
            ({"per_byte_price": -0.01}, "econ.per_byte_price must be nonnegative"),
            ({"value": -5.0}, "econ.value must be positive"),
            ({"alpha": -0.1}, "econ.alpha must lie in [0, 1]"),
            ({"proposer_share": 1.5}, "econ.proposer_share must lie in [0, 1]"),
        ],
        ids=["fee", "alpha_v", "bundle_price", "header_bytes", "metadata_bytes", "symbol_bytes",
             "per_byte_price", "value", "alpha", "proposer_share"],
    )
    @pytest.mark.parametrize("command", ["table-coalition", "advise"])
    def test_byte_model_block_checked(self, capsys, tmp_path, econ, reason, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BYTE_CONFIG, "econ": {**BYTE_CONFIG["econ"], **econ}}))
        code = main([command, "--config", str(cfg_path), "--format", "json"])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {reason}\n"

    @pytest.mark.parametrize(
        "econ, reason",
        [
            ({"alpha_v": -5}, "econ.alpha_v must be positive"),
            ({"alpha": 0.0}, "econ.alpha must lie in (0, 1] to recover v from alpha_v"),
            ({"gamma": 1.0}, "econ.gamma must lie in (0, 1)"),
            ({"bounty": -1.0}, "econ.bounty must be nonnegative"),
            ({"value": 100.0}, "econ: normalized mode excludes byte-model field 'value'"),
        ],
        ids=["alpha_v", "alpha", "gamma", "bounty", "value"],
    )
    def test_normalized_block_errors_name_the_key(self, capsys, tmp_path, econ, reason):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"econ": econ}))
        code = main(["table-main", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"config error: {reason}\n"

    def test_missing_byte_model_field_named(self, capsys, tmp_path):
        econ = {k: v for k, v in BYTE_CONFIG["econ"].items() if k != "alpha"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**BYTE_CONFIG, "econ": econ}))
        code = main(["advise", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "config error: missing field 'alpha'\n"

    def test_echo_repeats_alpha_v_as_given(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"econ": {"alpha": 0.9, "alpha_v": 945.33}}))
        code, out = run_cli(capsys, "advise", "--config", str(cfg_path), "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["econ"] == {
            "mode": "normalized",
            "fee": 1.0,
            "alpha_v": 945.33,
            "alpha": 0.9,
            "gamma": 0.99,
            "bounty": 0.0,
            "bundle_price": 1.0,
        }

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "config, field",
        [
            pytest.param({"beta": None}, "beta", id="beta"),
            pytest.param({"usd_per_fee_unit": None}, "usd_per_fee_unit", id="usd_per_fee_unit"),
            pytest.param({"mev_tiers_usd": [5.0, None, 5000.0]}, "mev_tiers_usd[1]", id="mev_tiers"),
            *[
                pytest.param({"econ": {key: None}}, f"econ.{key}", id=f"normalized-{key}")
                for key in ("fee", "alpha_v", "alpha", "gamma", "bounty", "bundle_price")
            ],
            *[
                pytest.param(
                    {**BYTE_CONFIG, "econ": {**BYTE_CONFIG["econ"], key: None}},
                    f"econ.{key}",
                    id=f"bytes-{key}",
                )
                for key in ("per_byte_price", "proposer_share", "alpha", "value", "gamma", "bounty")
            ],
            *[
                pytest.param({"race": {key: None}}, f"race.{key}", id=f"race-{key}")
                for key in ("slot_duration", "seal_deadline", "reaction_time", "rate")
            ],
        ],
    )
    def test_numbers_must_be_finite(self, capsys, tmp_path, config, field, bad):
        # Python's json reads NaN and Infinity; JSON itself has neither.
        text = json.dumps(config).replace("null", json.dumps(bad))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        code = main(["table-coalition", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {field} must be a finite number, got {bad!r}\n"

    def test_zero_fee_accepted_outside_advise(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"econ": {"fee": 0.0}, "table_kappas": [30]}))
        code, out = run_cli(capsys, "table-main", "--config", str(cfg_path), "--format", "csv")
        assert code == EXIT_OK
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize(
        "race, reason",
        [
            ({"slot_duration": 0}, "race: slot_duration must be positive"),
            ({"seal_deadline": 2.0}, "race: seal_deadline must lie in (0, slot_duration]"),
            ({"reaction_time": -0.1}, "race: reaction_time must be nonnegative"),
            ({"rate": 0}, "race: rate must be positive"),
            # JSON has no NaN, so the field check rejects it before RaceModel's
            ({"rate": float("nan")}, "race.rate must be a finite number, got nan"),
            # positive, but 1 - exp(-rate * seal_deadline), the arrival law's
            # normaliser, rounds to 0
            ({"rate": 1e-300, "reaction_time": 0.0}, RACE_RATE_TOO_SMALL),
            ({"rate": 1e-17, "reaction_time": 0.0}, RACE_RATE_TOO_SMALL),
        ],
        ids=[
            "slot_duration", "seal_deadline", "reaction_time", "rate", "rate-nan",
            "rate-1e-300", "rate-1e-17",
        ],
    )
    @pytest.mark.parametrize("command", ["sweep-race", "table-main"])
    def test_bad_race_timing_rejected(self, capsys, tmp_path, race, reason, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"race": race}))
        code = main([command, "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {reason}\n"

    @pytest.mark.parametrize(
        "spec",
        [
            "stationary_w",
            "stationary_w:1.5",
            "ratchet_spread:-1",
            "scripted:a",
            "bogus",
            "full_withhold:5",
            "minimal_sabotage:abc",
            "full_include:",
        ],
    )
    def test_bad_policy_spec_rejected(self, capsys, spec):
        code = main(["simulate", "--traces", "1", "--policy", spec])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "stationary_w:W" in captured.err and "scripted:X1,X2,..." in captured.err


class TestParserReuse:
    """main parses every call with one parser; no call may leave state in it."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_omitted_seed_falls_back_to_config(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"mc": {"seed": 7}}))
        argv = ["simulate", "--config", str(cfg_path), "--traces", "1"]
        _, out = run_cli(capsys, *argv, "--seed", "5")
        assert json.loads(out)["seed"] == [5, 0]
        _, out = run_cli(capsys, *argv)
        assert json.loads(out)["seed"] == [7, 0]

    def test_omitted_format_falls_back_to_default(self, capsys):
        code, out = run_cli(capsys, "sweep", "--format", "json")
        assert code == EXIT_OK and out.startswith("{")
        code, out = run_cli(capsys, "sweep")
        assert code == EXIT_OK
        assert out == (GOLDEN / "sweep.csv").read_text()

    @pytest.mark.parametrize(
        "command",
        ["table-main", "table-coalition", "table-cost", "sweep", "sweep-race", "advise"],
    )
    def test_seed_only_where_random_numbers_are_drawn(self, capsys, command):
        # These commands draw no random number, so they take no --seed.
        assert main([command, "--seed", "5"]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --seed 5" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--format", "yaml"], ["replay"], ["simulate", "--traces", "x"], ["no-such-command"]],
        ids=["bad-choice", "missing-required", "bad-type", "bad-command"],
    )
    def test_parse_error_leaves_next_call_alone(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG  # a usage error, not a property failure
        capsys.readouterr()
        code, out = run_cli(capsys, "sweep")
        assert code == EXIT_OK
        assert out == (GOLDEN / "sweep.csv").read_text()


class TestSweep:
    def test_row_count_matches_range(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"kappa_min": 5, "kappa_max": 24}}))
        _, out = run_cli(capsys, "sweep", "--config", str(cfg_path))
        lines = out.strip().splitlines()
        assert lines[0] == "kappa,t_star,delta,q0,q_rat,q_micro,knife_edge"
        assert len(lines) == 1 + 20

    def test_knife_edges_flagged(self, capsys):
        _, out = run_cli(capsys, "sweep")
        flagged = [
            int(line.split(",")[0])
            for line in out.strip().splitlines()[1:]
            if line.endswith("true")
        ]
        assert flagged == [20, 40, 60, 80, 100, 120]

    def test_race_sweep_header(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"kappa_min": 1, "kappa_max": 5}}))
        _, out = run_cli(capsys, "sweep-race", "--config", str(cfg_path))
        lines = out.strip().splitlines()
        assert lines[0] == "kappa,r,q_micro,g_inc_upper,g_inc_floor"
        assert len(lines) == 6

    @pytest.mark.parametrize(
        "config",
        [None, {"instance": {"n": 1000, "m": 200}, "sweep": {"kappa_min": 150, "kappa_max": 450}}],
        ids=["default", "n1000"],
    )
    def test_race_sweep_tail_matches_sweep(self, capsys, tmp_path, config):
        # sweep reads P[S_1 >= r] off its contact sums, sweep-race through q_micro
        columns = []
        for command in ("sweep", "sweep-race"):
            code, out = run_cli(capsys, *with_config(tmp_path, [command, "--format", "csv"], config))
            assert code == EXIT_OK
            header, *lines = out.strip().splitlines()
            col = header.split(",").index("q_micro")
            columns.append([float(line.split(",")[col]).hex() for line in lines])
        assert len(columns[0]) > 1
        assert columns[0] == columns[1]

    def test_ratchet_sweep_small(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"sweep": {"kappa_min": 28, "kappa_max": 32}, "mc": {"trials": 50}})
        )
        _, out = run_cli(capsys, "sweep-ratchet", "--config", str(cfg_path))
        lines = out.strip().splitlines()
        assert lines[0] == "kappa,q0,q_rat,q_rat_multi_mc,ci_low,ci_high,epsilon"
        assert len(lines) == 6  # every kappa in range has t* >= 2

    @pytest.mark.parametrize("golden, argv, config", RATCHET_SWEEPS)
    def test_ratchet_sweep_column_is_monotone_within_each_horizon(
        self, capsys, tmp_path, golden, argv, config
    ):
        # The rows share their paths, and within one t* a larger kappa has a
        # smaller slack, so count(W > delta) cannot fall: exactly, not only
        # in expectation.
        code, out = run_cli(capsys, *with_config(tmp_path, argv, config))
        assert code == EXIT_OK
        m = (config or {}).get("instance", {}).get("m", 20)
        by_horizon = {}
        for line in out.splitlines()[1:]:
            kappa, _, _, estimate, *_ = line.split(",")
            by_horizon.setdefault(-(-int(kappa) // m), []).append(float(estimate))
        assert by_horizon
        for t_star, column in by_horizon.items():
            assert column == sorted(column), t_star

    def test_ratchet_sweep_n10000_matches_recorded_digest(self, capsys, tmp_path):
        # The 8 000-row CSV is pinned by its sha256: the bytes one
        # estimate_delay per kappa printed before the kappas shared one pass.
        argv = with_config(tmp_path, ["sweep-ratchet", "--trials", "1000"], N10000_BAND)
        code, out = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert len(out.splitlines()) == 8001
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "68d1cc9bc8c6cceafec6bec0033a4804aa7e04b7d69888c7b4c5be5526a44df6"
        )

    def test_ratchet_sweep_estimates_full_withholding(self, capsys, tmp_path):
        # The Monte-Carlo column is full withholding under the ratchet: within
        # three binomial standard errors of that policy's exact tail.
        trials = 10_000
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sweep": {"kappa_min": 30, "kappa_max": 90}}))
        code, out = run_cli(
            capsys, "sweep-ratchet", "--trials", str(trials), "--seed", "20260809",
            "--config", str(cfg_path),
        )
        assert code == EXIT_OK
        cells = (line.split(",") for line in out.splitlines()[1:])
        estimates = {int(row[0]): float(row[3]) for row in cells}
        for kappa in (30, 50, 70, 90):
            inst = SystemInstance.from_kappa(100, 20, kappa)
            exact = float(exact_ratchet_tail_gt(100, 20, 20, (20,) * inst.t_star, inst.delta))
            se = math.sqrt(exact * (1 - exact) / trials)
            assert abs(estimates[kappa] - exact) <= 3 * se, (kappa, exact, estimates[kappa])

    @pytest.mark.parametrize("epsilon", ["1.5", "1", "-0.1", "nan"])
    def test_ratchet_sweep_rejects_bad_epsilon(self, capsys, epsilon):
        code = main(["sweep-ratchet", "--epsilon", epsilon])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "[0, 1)" in captured.err

    def test_ratchet_sweep_rejects_pool_below_m(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "instance": {"n": 30, "m": 20},
                    "beta": 0.5,
                    "sweep": {"kappa_min": 21, "kappa_max": 25},
                    "mc": {"trials": 50},
                }
            )
        )
        code = main(["sweep-ratchet", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith("config error: ")
        assert "n=30" in captured.err and "m=20" in captured.err
        assert "cartel of 15 lanes" in captured.err

    def test_ratchet_sweep_rejects_pool_below_m_after_slot_one(self, capsys, tmp_path):
        # A cartel of 90 lanes: full withholding to kappa 120 (t* = 6) may flag
        # all 90 and leave 10 eligible lanes, although slot two still has 80.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"beta": 0.9}))
        code = main(["sweep-ratchet", "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert "eligible lanes" in captured.err
        assert "n >= 110" in captured.err and "kappa_max <= 100" in captured.err

    def test_ratchet_sweep_single_slot_kappas_need_no_pool(self, capsys, tmp_path, monkeypatch):
        # With kappa <= m no row has t* >= 2, so the Monte-Carlo pass never starts.
        def no_pass(*args):
            raise AssertionError("the slot loop ran")

        monkeypatch.setattr(simulator, "_withheld_by_slot", no_pass)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "instance": {"n": 30, "m": 20},
                    "beta": 0.5,
                    "sweep": {"kappa_min": 1, "kappa_max": 20},
                }
            )
        )
        code, out = run_cli(capsys, "sweep-ratchet", "--config", str(cfg_path))
        assert code == EXIT_OK
        assert out == "kappa,q0,q_rat,q_rat_multi_mc,ci_low,ci_high,epsilon\n"


class TestVerifyCommand:
    def test_quick_battery_passes(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "mc": {"trials": 400, "seed": 99},
                    "sweep": {"kappa_min": 1, "kappa_max": 45},
                    "table_kappas": [10, 20, 30],
                }
            )
        )
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path))
        summary = json.loads(out)
        assert code == EXIT_OK
        assert summary["passed"] is True
        assert summary["seed"] == 99
        assert set(summary["suites"]) >= {
            "minimax",
            "conservation",
            "pathwise",
            "bound_dominance",
            "ratchet_improvement",
            "honest_miss",
            "mc_exact",
            "knife_edge_closed_form",
        }
        pathwise = summary["suites"]["pathwise"]
        assert pathwise["prefix_monotonicity"] == {"cases": 22992, "violations": 0}
        assert set(pathwise["10"]) == {"paths", "dominance_violations"}

    def test_injected_fault_fails_battery(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "mc": {"trials": 200, "seed": 3},
                    "sweep": {"kappa_min": 1, "kappa_max": 25},
                    "table_kappas": [10, 20],
                }
            )
        )
        code, out = run_cli(
            capsys, "verify", "--config", str(cfg_path), "--inject-fault", "minimax"
        )
        summary = json.loads(out)
        assert code == EXIT_PROPERTY
        assert summary["passed"] is False
        assert summary["suites"]["minimax"]["passed"] is False
        assert summary["suites"]["minimax"]["violations"] == 3  # the bad rule, once per d

    def test_non_monotone_prefix_count_fails_battery(self, capsys, tmp_path, monkeypatch):
        # Counting honest bundles shrinks when a cartel bundle is inserted.
        monkeypatch.setattr(
            simulator, "cartel_prefix_count", lambda owners, kappa: owners[:kappa].count("honest")
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "mc": {"trials": 200, "seed": 3},
                    "sweep": {"kappa_min": 1, "kappa_max": 25},
                    "table_kappas": [10, 20],
                }
            )
        )
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path))
        summary = json.loads(out)
        assert code == EXIT_PROPERTY
        assert summary["passed"] is False
        pathwise = summary["suites"]["pathwise"]
        assert pathwise["passed"] is False
        assert pathwise["prefix_monotonicity"]["violations"] > 0

    @pytest.mark.parametrize("seed", [20260809, 0, 123456789])
    def test_minimax_rules_match_sequential_draws(self, monkeypatch, seed):
        # The suite draws its 999 random rules in one batch; they must be the
        # rules that one draw of 12 weights per rule gives from the same stream.
        rng = np.random.default_rng([seed, 11])
        want = [mechanism.WeightRule.uniform(12)]
        for _ in range(999):
            raw = rng.integers(0, 1000, size=12)
            if raw.sum() == 0:
                raw[0] = 1
            want.append(mechanism.WeightRule.from_weights([int(x) for x in raw]))
        seen = []

        def capture(kappa, d, rules):
            seen.append(rules)
            return certificate(kappa, d, rules)

        certificate = mechanism.minimax_certificate
        monkeypatch.setattr(mechanism, "minimax_certificate", capture)
        cfg = AnalysisConfig.from_dict({"mc": {"seed": seed}})
        assert cli._suite_minimax(cfg, inject_fault=False)["passed"] is True
        assert seen == [want] * 3

    def test_conservation_suite_catches_a_share_that_ignores_the_final_rank(self, monkeypatch):
        # Paying rank kappa as a full bundle overpays whoever holds it by
        # (s - r_idx) B / K, so every triple with a partial final bundle fails.
        def ignores_final(count, owns_final, full, last):
            return count * full

        cfg = AnalysisConfig.default()
        assert cli._suite_conservation(cfg) == {"passed": True, "triples": 300, "failures": 0}
        monkeypatch.setattr(mechanism, "pivotal_share", ignores_final)
        outcome = cli._suite_conservation(cfg)
        assert outcome["passed"] is False
        assert 0 < outcome["failures"] < outcome["triples"] == 300

    def test_conservation_suite_prices_both_owners(self, monkeypatch):
        # Owners are drawn at random, so both are priced and both own the final rank.
        calls = []

        def recording(count, owns_final, full, last):
            calls.append((count, owns_final))
            return share(count, owns_final, full, last)

        share = mechanism.pivotal_share
        monkeypatch.setattr(mechanism, "pivotal_share", recording)
        assert cli._suite_conservation(AnalysisConfig.default())["passed"] is True
        assert len(calls) == 600
        assert sum(owns_final for _, owns_final in calls) == 300  # one owner holds rank kappa
        assert {count for count, _ in calls} >= {0, 1}

    @pytest.mark.parametrize("injected", ["low", "above_one"])
    def test_honest_miss_suite_catches_bound(self, capsys, tmp_path, monkeypatch, injected):
        # At kappa = 12 (t* = 1, delta = 8) q_rat = P[A_1 > 8] is about 0.004.
        # A bound below it, or above 1, there fails the suite.
        honest, kappa = ratchet.honest_miss_delay_bound, 12
        value = {"low": 0.0, "above_one": math.nextafter(1.0, 2.0)}[injected]

        def faulty(schedule, epsilon, law):
            return value if schedule.instance.kappa == kappa else honest(schedule, epsilon, law)

        monkeypatch.setattr(ratchet, "honest_miss_delay_bound", faulty)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "mc": {"trials": 200, "seed": 3},
                    "sweep": {"kappa_min": 1, "kappa_max": 25},
                    "table_kappas": [10, 20],
                }
            )
        )
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path))
        summary = json.loads(out)
        assert code == EXIT_PROPERTY
        assert summary["suites"]["honest_miss"] == {"passed": False, "failures": [kappa]}
        failed = [name for name, suite in summary["suites"].items() if not suite["passed"]]
        assert failed == ["honest_miss"]

    @pytest.mark.parametrize(
        "config",
        [
            {},
            {"beta": 0.0},
            {"beta": 0.5},
            {"instance": {"n": 1000, "m": 200}, "sweep": {"kappa_max": 1000}},
        ],
        ids=["default", "beta-0", "beta-0.5", "n1000"],
    )
    def test_bound_dominance_matches_side_explicit_reference(self, config):
        cfg = AnalysisConfig.from_dict(config)
        sweep = cli._sweep_by_kappa(cfg, range(cfg.sweep_min, cfg.sweep_max + 1))
        want = reference_bound_dominance(cfg.instance.n, cfg.instance.m, cfg.beta, sweep.values())
        assert cli._suite_bound_dominance(cfg, sweep) == {"passed": not want, "failures": want}

    @pytest.mark.parametrize("regime", ["rare", "likely"])
    def test_bound_dominance_catches_a_broken_bound(self, regime):
        # Default config (n = 100, m = 20, beta 0.2).  At kappa 30 (t* = 2,
        # delta = 10) delta/(t* m) = 0.25 is above beta and the bound caps q0;
        # at kappa 38 (delta = 2) it is 0.05 and the bound caps 1 - q0.
        cfg = AnalysisConfig.default()
        sweep = cli._sweep_by_kappa(cfg, range(cfg.sweep_min, cfg.sweep_max + 1))
        assert cli._suite_bound_dominance(cfg, sweep) == {"passed": True, "failures": []}
        kappa = {"rare": 30, "likely": 38}[regime]
        row = sweep[kappa]
        _, bound = delay.kl_delay_bound(row.t_star, 20, row.delta / (row.t_star * 20), 0.2)
        pushed = bound + 2e-12  # past the suite's 1e-12 slack
        sweep[kappa] = dataclasses.replace(row, q0=pushed if regime == "rare" else 1.0 - pushed)
        assert cli._suite_bound_dominance(cfg, sweep) == {"passed": False, "failures": [kappa]}
        assert reference_bound_dominance(100, 20, 0.2, sweep.values()) == [kappa]

    @pytest.mark.parametrize(
        "config",
        [{"beta": 0.0}, {"instance": {"n": 20, "m": 20, "kappa": 30}}],
        ids=["no-cartel", "every-lane-contacted"],
    )
    def test_degenerate_slot_laws_pass(self, capsys, tmp_path, config):
        # With no cartel lane, or with m = n so that S_1 is the point mass
        # at a, no path has S_1 <= delta < S_t*, and q_rat == q0 exactly.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path))
        summary = json.loads(out)
        assert summary["suites"]["ratchet_improvement"] == {
            "passed": True, "weak_failures": [], "strict_failures": [],
        }
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "config, kappa, q_rat",
        [
            # kappa 30 (t* = 2, delta = 10): S_1 in [0, 20] can end at 10 and
            # S_2 pass it, so q_rat must fall strictly below q0.
            ({}, 30, "q0"),
            # No cartel lane: q0 = q_rat = 0.0, so any other q_rat is wrong,
            # even one within the weak check's 1e-15.
            ({"beta": 0.0}, 30, 1e-300),
        ],
        ids=["separable-but-equal", "inseparable-but-unequal"],
    )
    def test_ratchet_improvement_catches_a_wrong_tail(self, config, kappa, q_rat):
        cfg = AnalysisConfig.from_dict(config)
        sweep = cli._sweep_by_kappa(cfg, range(cfg.sweep_min, cfg.sweep_max + 1))
        assert cli._suite_ratchet_improvement(cfg, sweep)["passed"] is True
        row = sweep[kappa]
        sweep[kappa] = dataclasses.replace(row, q_rat=row.q0 if q_rat == "q0" else q_rat)
        assert cli._suite_ratchet_improvement(cfg, sweep) == {
            "passed": False, "weak_failures": [], "strict_failures": [kappa],
        }

    def test_saturated_delay_probabilities(self, capsys, tmp_path):
        # q0 saturates at 1 for kappas 200 and 600; before the tails were
        # clamped it read just above 1 and mc_exact died in math.sqrt.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "instance": {"n": 1000, "m": 200},
                    "beta": 0.2,
                    "table_kappas": [10, 200, 350, 600, 450],
                }
            )
        )
        code, out = run_cli(capsys, "verify", "--config", str(cfg_path), "--trials", "300")
        summary = json.loads(out)
        assert code == EXIT_OK
        assert summary["passed"] is True
        assert summary["suites"]["mc_exact"]["200"]["exact"] == 1.0


class TestAdvise:
    def test_knife_edge_flagged(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"instance": {"kappa": 20}}))
        code, out = run_cli(capsys, "advise", "--config", str(cfg_path))
        assert code == EXIT_OK
        assert "avoid: knife edge" in out
        assert "knife-edge bounty threshold" in out

    def test_default_point_cites_ratchet_numbers(self, capsys):
        code, out = run_cli(capsys, "advise")
        assert code == EXIT_OK
        assert "q_rat=8.0e-05" in out
        assert "ratchet 0.04" in out

    def test_infeasible_fee_share_line(self, capsys):
        _, out = run_cli(capsys, "advise")
        assert ">1: fees alone infeasible" in out

    def test_json_report(self, capsys):
        _, out = run_cli(capsys, "advise", "--format", "json")
        report = json.loads(out)["report"]
        assert report["knife_edge"] is False
        assert report["coalition_bounty"] == pytest.approx(2610.3)


SIMULATE_CONFIG = {
    "instance": {"n": 20, "m": 5, "kappa": 12},
    "beta": 0.25,
    "econ": {"fee": 1.0, "alpha_v": 40.0, "gamma": 0.95, "bounty": 24.0},
}
SIMULATE_POLICIES = [
    "full_include",
    "full_withhold",
    "stationary_w:0.5",
    "minimal_sabotage",
    "ratchet_spread:2,1,1",
    "scripted:1,0,2",
]
SIMULATE_SEEDS = [1, 2, 3]

# The benchmark's n = 1 000 shape: two traces per policy at the config seed.
SIMULATE_N1000_CONFIG = {
    "instance": {"n": 1000, "m": 200, "kappa": 390},
    "beta": 0.2,
    "econ": {"bounty": 50.0},
}
SIMULATE_N1000_POLICIES = ["full_withhold", "stationary_w:0.5", "minimal_sabotage"]


BY_ROWS = "by the slots and inclusion_order fields"  # how a wrong outcome field is reported


def replay_edited_golden(capsys, tmp_path, edit) -> tuple[int, str]:
    """Replay the first golden trace line (n = 20, kappa 12, four slots)
    after ``edit`` changed its decoded object; returns (exit code, stderr)."""
    line = json.loads((GOLDEN / "simulate.jsonl").read_text().splitlines()[0])
    edit(line)
    out_path = tmp_path / "traces.jsonl"
    out_path.write_text(json.dumps(line) + "\n")
    code = main(["replay", "--input", str(out_path)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestSimulateReplay:
    def test_simulate_matches_golden(self, capsys, tmp_path):
        # every policy at every seed, concatenated in (policy, seed) order
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SIMULATE_CONFIG))
        chunks = []
        for policy in SIMULATE_POLICIES:
            for seed in SIMULATE_SEEDS:
                code, out = run_cli(
                    capsys, "simulate", "--config", str(cfg_path), "--seed", str(seed),
                    "--policy", policy, "--traces", "4",
                )
                assert code == EXIT_OK
                chunks.append(out)
        assert "".join(chunks) == (GOLDEN / "simulate.jsonl").read_text()

    def test_simulate_at_n1000_matches_golden(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SIMULATE_N1000_CONFIG))
        chunks = []
        for policy in SIMULATE_N1000_POLICIES:
            code, out = run_cli(
                capsys, "simulate", "--config", str(cfg_path), "--policy", policy, "--traces", "2"
            )
            assert code == EXIT_OK
            chunks.append(out)
        golden = GOLDEN / "simulate-n1000.jsonl"
        assert "".join(chunks) == golden.read_text()
        code, out = run_cli(capsys, "replay", "--input", str(golden))
        assert code == EXIT_OK
        assert json.loads(out) == {"traces": 6, "mismatches": 0}

    def test_multi_symbol_bundles_replay(self, capsys, tmp_path):
        # s = 3 and K = 29: kappa 10, and the final bundle carries r_idx = 2
        # of its 3 indices, so the bounty's partial-bundle term is priced
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "instance": {"n": 30, "m": 6, "s": 3, "K": 29},
            "beta": 0.2,
            "econ": {"fee": 1.0, "alpha_v": 40.0, "gamma": 0.95, "bounty": 24.0},
        }))
        out_path = tmp_path / "traces.jsonl"
        lines = []
        for policy in ("full_include", "stationary_w:0.5", "minimal_sabotage"):
            code, out = run_cli(
                capsys, "simulate", "--config", str(cfg_path), "--policy", policy, "--traces", "8"
            )
            assert code == EXIT_OK
            lines += out.splitlines()
        out_path.write_text("\n".join(lines) + "\n")
        code, out = run_cli(capsys, "replay", "--input", str(out_path))
        assert code == EXIT_OK
        assert json.loads(out) == {"traces": 24, "mismatches": 0}
        # some trace pays the cartel for the partial final bundle
        records = [json.loads(line) for line in lines]
        assert any(r["inclusion_order"][9][2] == "cartel" for r in records)
        assert all(r["payoff"]["bounty_revenue"] > 0 for r in records if r["pivotal_cartel_count"])

    def test_simulate_then_replay_matches(self, capsys, tmp_path):
        out_path = tmp_path / "traces.jsonl"
        code, _ = run_cli(
            capsys,
            "simulate",
            "--traces",
            "5",
            "--policy",
            "stationary_w:0.5",
            "--out",
            str(out_path),
        )
        assert code == EXIT_OK
        assert len(out_path.read_text().strip().splitlines()) == 5
        code, out = run_cli(capsys, "replay", "--input", str(out_path))
        assert code == EXIT_OK
        assert json.loads(out) == {"traces": 5, "mismatches": 0}

    @pytest.mark.parametrize(
        "bad, reason",
        [("{not json", "not valid JSON"), ('{"format": 2}', "not a trace record of format 1")],
        ids=["not-json", "format-2"],
    )
    def test_replay_names_bad_line(self, capsys, tmp_path, bad, reason):
        out_path = tmp_path / "traces.jsonl"
        run_cli(capsys, "simulate", "--traces", "1", "--out", str(out_path))
        out_path.write_text(out_path.read_text() + bad + "\n")
        code = main(["replay", "--input", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err.startswith(f"config error: {out_path}:2: {reason}")

    @pytest.mark.parametrize("after_trace", [False, True], ids=["bom-first", "after-a-trace"])
    def test_replay_names_non_utf8_line(self, capsys, tmp_path, after_trace):
        out_path = tmp_path / "traces.jsonl"
        golden = (GOLDEN / "simulate.jsonl").read_bytes()
        lines = golden.splitlines(keepends=True)[:1] if after_trace else []
        out_path.write_bytes(b"".join(lines) + b"\xff\xfe{\x00}\x00\n")
        code = main(["replay", "--input", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        lineno = len(lines) + 1
        assert captured.err.startswith(f"config error: {out_path}:{lineno}: not UTF-8 text (")

    @pytest.mark.parametrize("traces", ["0", "-3"])
    def test_simulate_rejects_nonpositive_traces(self, capsys, tmp_path, traces):
        out_path = tmp_path / "traces.jsonl"
        code = main(["simulate", "--traces", traces, "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == "config error: --traces must be a positive integer\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("text", ["", "\n", "  \n\n"], ids=["empty", "newline", "blank"])
    def test_replay_rejects_file_without_traces(self, capsys, tmp_path, text):
        out_path = tmp_path / "traces.jsonl"
        out_path.write_text(text)
        code = main(["replay", "--input", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {out_path}: no trace lines to check\n"

    def test_replay_rejects_line_without_payoff(self, capsys, tmp_path):
        out_path = tmp_path / "traces.jsonl"
        run_cli(capsys, "simulate", "--traces", "1", "--out", str(out_path))
        good = out_path.read_text()
        for dropped in (["payoff"], ["econ"], ["payoff", "econ"]):
            line = json.loads(good)
            for key in dropped:
                del line[key]
            out_path.write_text(good + json.dumps(line) + "\n")
            code = main(["replay", "--input", str(out_path)])
            captured = capsys.readouterr()
            assert code == EXIT_CONFIG
            assert captured.out == ""
            assert captured.err.startswith(
                f"config error: {out_path}:2: no stored payoff and econ to check "
                "(write traces with pivotk simulate)"
            )

    @pytest.mark.parametrize(
        "edit, reason",
        [
            ({"fee": -1.0}, "econ.fee must be nonnegative"),
            ({"bundle_price": -0.5}, "econ.bundle_price must be nonnegative"),
            ({"header_bytes": 5}, "econ: normalized mode excludes byte-model field 'header_bytes'"),
            ({"mode": "byte"}, "econ.mode must be 'normalized' or 'bytes', got 'byte'"),
        ],
        ids=["fee", "bundle_price", "byte-field", "mode"],
    )
    def test_replay_rejects_what_config_rejects(self, capsys, tmp_path, edit, reason):
        out_path = tmp_path / "traces.jsonl"
        run_cli(capsys, "simulate", "--traces", "1", "--out", str(out_path))
        line = json.loads(out_path.read_text())
        line["econ"].update(edit)
        out_path.write_text(json.dumps(line) + "\n")
        code = main(["replay", "--input", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {out_path}:1: {reason}\n"
        with pytest.raises(ConfigError, match=re.escape(reason)):
            AnalysisConfig.from_dict({"econ": line["econ"]})

    @pytest.mark.parametrize(
        "econ, reason",
        [
            ({"fee": 1.0, "gamma": 0.99}, "missing field 'mode'"),
            ({"mode": "normalized", "fee": 1.0, "gamma": 0.99}, "missing field 'alpha_v'"),
            ([1.0, 100.0, 0.99], "econ must be an object, got list"),
        ],
        ids=["missing-field", "missing-field-normalized", "not-an-object"],
    )
    def test_replay_names_bad_econ_block(self, capsys, tmp_path, econ, reason):
        out_path = tmp_path / "traces.jsonl"
        run_cli(capsys, "simulate", "--traces", "1", "--out", str(out_path))
        line = json.loads(out_path.read_text())
        line["econ"] = econ
        out_path.write_text(json.dumps(line) + "\n")
        code = main(["replay", "--input", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.err == f"config error: {out_path}:1: {reason}\n"

    @pytest.mark.parametrize("key", ["bounty", "mode", "alpha", "bundle_price"])
    def test_replay_fills_no_econ_default(self, capsys, tmp_path, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(SIMULATE_CONFIG))
        out_path = tmp_path / "traces.jsonl"
        code, _ = run_cli(
            capsys, "simulate", "--config", str(cfg_path), "--policy", "full_include",
            "--traces", "5", "--out", str(out_path),
        )
        assert code == EXIT_OK
        lines = [json.loads(line) for line in out_path.read_text().splitlines()]
        for line in lines:
            del line["econ"][key]
        out_path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        code = main(["replay", "--input", str(out_path)])
        captured = capsys.readouterr()
        assert code == EXIT_CONFIG
        assert captured.out == ""
        assert captured.err == f"config error: {out_path}:1: missing field {key!r}\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("key", ["fee", "alpha_v", "alpha", "gamma", "bounty", "bundle_price"])
    def test_replay_rejects_non_finite_econ(self, capsys, tmp_path, key, bad):
        def edit(line):
            line["econ"][key] = bad

        code, err = replay_edited_golden(capsys, tmp_path, edit)
        assert code == EXIT_CONFIG
        assert err == (
            f"config error: {tmp_path / 'traces.jsonl'}:1: econ.{key} must be a finite number, "
            f"got {bad!r}\n"
        )

    @pytest.mark.parametrize(
        "econ, reason",
        [
            ({"bounti": 24.0}, "econ: unknown key 'bounti' (did you mean 'bounty'?)"),
            (
                dict(BYTE_CONFIG["econ"], header_bytes=10**400, bounty=0.0),
                "econ: the bundle price econ.per_byte_price * (econ.header_bytes + "
                "s * (econ.metadata_bytes + econ.symbol_bytes)) must be finite at s=1",
            ),
        ],
        ids=["unknown-key", "overflowing-price"],
    )
    def test_replay_rejects_what_config_rejects_in_econ(self, capsys, tmp_path, econ, reason):
        def edit(line):
            line["econ"] = econ if "mode" in econ else {**line["econ"], **econ}

        code, err = replay_edited_golden(capsys, tmp_path, edit)
        assert code == EXIT_CONFIG
        assert err == f"config error: {tmp_path / 'traces.jsonl'}:1: {reason}\n"

    def test_replay_of_golden_traces_matches(self, capsys):
        code, out = run_cli(capsys, "replay", "--input", str(GOLDEN / "simulate.jsonl"))
        assert code == EXIT_OK
        assert json.loads(out) == {"traces": 72, "mismatches": 0}

    def test_replay_rejects_swapped_rows(self, capsys, tmp_path):
        def swap(line):
            rows = line["inclusion_order"]
            rows[0], rows[1] = rows[1], rows[0]

        code, err = replay_edited_golden(capsys, tmp_path, swap)
        assert code == EXIT_CONFIG
        assert err == (
            f"config error: {tmp_path / 'traces.jsonl'}:1: inclusion_order row 2 "
            "[1, 1, 'honest'] must come after [1, 8]: rows ascend in (slot, lane)\n"
        )

    @pytest.mark.parametrize(
        "field, value, reason",
        [
            ("inclusion_time", "x", f'inclusion_time must be 3 {BY_ROWS}, got "x"'),
            ("inclusion_time", True, f"inclusion_time must be 3 {BY_ROWS}, got true"),
            ("inclusion_time", 5, f"inclusion_time must be 3 {BY_ROWS}, got 5"),
            ("pivotal_cartel_count", 13, f"pivotal_cartel_count must be 3 {BY_ROWS}, got 13"),
            ("pivotal_cartel_count", 2.0, f"pivotal_cartel_count must be 3 {BY_ROWS}, got 2.0"),
            ("withheld_at_horizon", -1, f"withheld_at_horizon must be 0 {BY_ROWS}, got -1"),
            ("cartel_lanes", False, "cartel_lanes must be an integer in [0, 20], got False"),
            ("seed", [1], "seed must be an integer >= 0 or a list of two or more, got [1]"),
            ("seed", [1, "2"], "seed must be an integer >= 0 or a list of two or more"),
            ("seed", -4, "seed must be an integer >= 0 or a list of two or more"),
            ("delayed", 1, f"delayed must be false {BY_ROWS}, got 1"),
            ("truncated", None, f"truncated must be false {BY_ROWS}, got null"),
            ("policy", {"kind": "stationary_w", "w": "0.5"}, "policy must be a policy block"),
            ("policy", "full_withhold", "policy must be a policy block"),
            ("instance", {"n": 20, "m": 5, "s": True, "K": 12}, "instance: s must be a positive"),
            ("instance", [20, 5, 1, 12], "instance must be an object"),
            ("slots", [[0, 5]], "slots row 1 must be [cartel contacts, honest contacts, included"),
            ("slots", [[1, 5, 0]], "slots row 1 must be"),
            ("slots", [[1, 4, 2]], "slots row 1 must be"),
            ("slots", [], "slots must be a nonempty array"),
            ("inclusion_order", {}, "inclusion_order must be an array"),
            ("payoff", [], "payoff must be an object"),
            ("policy", {"kind": "ratchet_spread", "caps": [True, 0]}, "policy must be a policy block"),
            ("policy", {"kind": "ratchet_spread", "caps": [1.0, 0]}, "policy must be a policy block"),
            ("policy", {"kind": "stationary_w", "w": True}, "policy must be a policy block"),
        ],
    )
    def test_replay_checks_every_field(self, capsys, tmp_path, field, value, reason):
        code, err = replay_edited_golden(capsys, tmp_path, lambda line: line.update({field: value}))
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {tmp_path / 'traces.jsonl'}:1: {reason}")

    @pytest.mark.parametrize(
        "index, row, reason",
        [
            (0, [1, 1], "row 1 must be [slot, lane, owner]"),
            (2, [1, 10, "mallory"], "row 3 must be [slot in [1, 4], lane in [1, 20], 'honest' or"),
            (0, [0, 1, "honest"], "row 1 must be [slot in [1, 4]"),
            (0, [5, 1, "honest"], "row 1 must be [slot in [1, 4]"),
            (0, [1, 21, "honest"], "row 1 must be [slot in [1, 4]"),
            (1, [1, True, "cartel"], "row 2 must be [slot in [1, 4]"),
            (1, [1, 1, "cartel"], "row 2 [1, 1, 'cartel'] must come after [1, 1]"),
        ],
        ids=["short", "owner", "slot-0", "slot-past-end", "lane-past-n", "bool-lane", "same-cell"],
    )
    def test_replay_checks_inclusion_rows(self, capsys, tmp_path, index, row, reason):
        def edit(line):
            line["inclusion_order"][index] = row

        code, err = replay_edited_golden(capsys, tmp_path, edit)
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {tmp_path / 'traces.jsonl'}:1: inclusion_order {reason}")

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (
                {"pivotal_cartel_count": 0, "withheld_at_horizon": 7},
                "withheld_at_horizon must be 0 by the slots and inclusion_order fields, got 7",
            ),
            ({"pivotal_cartel_count": 0}, "pivotal_cartel_count must be 3 by the slots"),
            ({"pivotal_cartel_count": None}, "pivotal_cartel_count must be 3 by the slots"),
            ({"truncated": True}, "truncated must be false by the slots"),
            ({"delayed": True}, "delayed must be false by the slots"),
            # each stored value must also have the JSON type of the derived one
            ({"delayed": 0}, f"delayed must be false {BY_ROWS}, got 0"),
            ({"pivotal_cartel_count": 3.0}, f"pivotal_cartel_count must be 3 {BY_ROWS}, got 3.0"),
            (
                {"withheld_at_horizon": False},
                f"withheld_at_horizon must be 0 {BY_ROWS}, got false",
            ),
        ],
        ids=[
            "found-edit", "pivotal-count", "pivotal-null", "truncated", "delayed", "delayed-zero",
            "pivotal-float", "withheld-bool",
        ],
    )
    def test_replay_checks_derived_fields(self, capsys, tmp_path, edit, reason):
        code, err = replay_edited_golden(capsys, tmp_path, lambda line: line.update(edit))
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {tmp_path / 'traces.jsonl'}:1: {reason}")

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (
                # slots after the inclusion slot carry no fee, so only the
                # end rule tells this line from one simulate writes
                lambda line: (
                    line["slots"].append([1, 4, 1]),
                    line["inclusion_order"].extend(
                        [[5, 1, "honest"], [5, 2, "cartel"], [5, 3, "honest"],
                         [5, 4, "honest"], [5, 5, "honest"]]
                    ),
                ),
                "slots must end by slot 4, one past the later of the inclusion slot 3 and "
                "t*=3; got 5 slots",
            ),
            (
                lambda line: line.update(inclusion_time=4),
                "inclusion_time must be 3 by the slots and inclusion_order fields, got 4",
            ),
            (
                lambda line: line.update(inclusion_time=None),
                "inclusion_time must be 3 by the slots and inclusion_order fields, got null",
            ),
            (
                # the first two slots hold 10 of the kappa = 12 rows
                lambda line: line.update(
                    slots=line["slots"][:2],
                    inclusion_order=line["inclusion_order"][:10],
                    inclusion_time=2,
                ),
                "inclusion_time must be null by the slots and inclusion_order fields, got 2",
            ),
        ],
        ids=["runs-past-end", "late-inclusion", "null-inclusion", "never-decoded"],
    )
    def test_replay_checks_where_trace_ends(self, capsys, tmp_path, edit, reason):
        code, err = replay_edited_golden(capsys, tmp_path, edit)
        assert code == EXIT_CONFIG
        assert err == f"config error: {tmp_path / 'traces.jsonl'}:1: {reason}\n"

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (
                lambda rows: rows[1].__setitem__(2, "honest"),
                "must hold 5 rows in slot 1, 2 of them cartel, as slots row 1 gives; "
                "got 5 with 1 cartel",
            ),
            (lambda rows: rows.pop(), "must hold 5 rows in slot 4, 1 of them cartel"),
            (lambda rows: rows.insert(4, [1, 12, "honest"]), "must hold 5 rows in slot 1, 2 of them"),
        ],
        ids=["owner", "dropped", "extra"],
    )
    def test_replay_checks_rows_per_slot(self, capsys, tmp_path, edit, reason):
        code, err = replay_edited_golden(
            capsys, tmp_path, lambda line: edit(line["inclusion_order"])
        )
        assert code == EXIT_CONFIG
        assert err.startswith(f"config error: {tmp_path / 'traces.jsonl'}:1: inclusion_order {reason}")

    @pytest.mark.parametrize("value", [0, "0.0", True, None])
    def test_replay_needs_float_payoffs(self, capsys, tmp_path, value):
        code, err = replay_edited_golden(
            capsys, tmp_path, lambda line: line["payoff"].update(mev_option=value)
        )
        assert code == EXIT_CONFIG
        assert err == (
            f"config error: {tmp_path / 'traces.jsonl'}:1: "
            f"payoff.mev_option must be a float, got {value!r}\n"
        )

    def test_replay_detects_tampered_total(self, capsys, tmp_path):
        out_path = tmp_path / "traces.jsonl"
        run_cli(capsys, "simulate", "--traces", "1", "--policy", "full_withhold",
                "--out", str(out_path))
        line = json.loads(out_path.read_text())
        line["payoff"]["total"] += 1000
        out_path.write_text(json.dumps(line) + "\n")
        code, out = run_cli(capsys, "replay", "--input", str(out_path))
        assert code == EXIT_PROPERTY
        assert json.loads(out) == {"traces": 1, "mismatches": 1}

    def test_replay_detects_tampering(self, capsys, tmp_path):
        out_path = tmp_path / "traces.jsonl"
        run_cli(capsys, "simulate", "--traces", "1", "--policy", "full_withhold",
                "--out", str(out_path))
        line = json.loads(out_path.read_text())
        line["payoff"]["fee_revenue"] += 1.0
        out_path.write_text(json.dumps(line) + "\n")
        code, out = run_cli(capsys, "replay", "--input", str(out_path))
        assert code == EXIT_PROPERTY
        assert json.loads(out)["mismatches"] == 1
