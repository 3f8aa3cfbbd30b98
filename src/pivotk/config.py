"""Analysis configuration: one JSON document drives every CLI command."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Any, Mapping, Sequence

from .geometry import SystemInstance, cartel_share, check_keys, json_field
from .incentives import EconParams
from .intra_slot import RaceModel

__all__ = ["AnalysisConfig", "ConfigError"]


class ConfigError(ValueError):
    """A configuration document failed validation."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ConfigError(msg)


# The econ block's defaults per mode; a normalized block's bundle_price
# defaults to its fee.  Trace lines get none of them.
_ECON_DEFAULTS = {
    "normalized": {"fee": 1.0, "alpha_v": 100.0, "alpha": 1.0, "gamma": 0.99, "bounty": 0.0},
    "bytes": {"gamma": 0.99, "bounty": 0.0},
}


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object's dict; a repeated key is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


_JSON_TYPES = {list: "array", str: "string", bool: "boolean", int: "number", float: "number"}


def _json_kind(value) -> str:
    return "null" if value is None else _JSON_TYPES.get(type(value), type(value).__name__)


def _block(obj: Mapping[str, Any], name: str, keys: Sequence[str] | None) -> Mapping[str, Any]:
    """Block ``name``: a JSON object of ``keys`` (None: its parser checks); absent is empty."""
    block = obj.get(name, {})
    if not isinstance(block, Mapping):
        raise ConfigError(f"{name}: must be a JSON object, got {_json_kind(block)}")
    if keys is not None:
        check_keys(block, keys, name)
    return block


def _array(obj: Mapping[str, Any], name: str, default: list, kind: type = int) -> tuple:
    """The array ``name`` of JSON integers (numbers for ``kind=float``); absent is ``default``."""
    raw = obj.get(name, default)
    if type(raw) is not list:
        raise ConfigError(f"{name} must be an array, got {_json_kind(raw)}")
    return tuple(json_field(v, f"{name}[{i}]", kind=kind) for i, v in enumerate(raw))


@dataclass(frozen=True)
class AnalysisConfig:
    """Validated inputs for the table, sweep, verify, and advise commands."""

    instance: SystemInstance
    beta: float
    econ: EconParams
    usd_per_fee_unit: float
    table_kappas: tuple[int, ...]
    mev_tiers_usd: tuple[float, ...]
    sweep_min: int
    sweep_max: int
    trials: int
    seed: int
    race: RaceModel
    instance_given_as_kappa: bool

    @classmethod
    def default(cls) -> "AnalysisConfig":
        return cls.from_dict({})

    @classmethod
    def from_dict(cls, obj: Mapping[str, Any]) -> "AnalysisConfig":
        try:
            return cls._parse(obj)
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def _parse(cls, obj: Mapping[str, Any]) -> "AnalysisConfig":
        check_keys(obj, ("instance", "beta", "econ", "usd_per_fee_unit", "table_kappas",
                         "mev_tiers_usd", "sweep", "mc", "race"), None)
        inst_obj = _block(obj, "instance", ("n", "m", "s", "K", "kappa"))
        n = json_field(inst_obj.get("n", 100), "instance.n")
        m = json_field(inst_obj.get("m", 20), "instance.m")
        s = json_field(inst_obj.get("s", 1), "instance.s")
        has_K = "K" in inst_obj
        has_kappa = "kappa" in inst_obj
        _require(
            not (has_K and has_kappa),
            "instance: give exactly one of 'K' or 'kappa', not both",
        )
        if has_kappa:
            kappa = json_field(inst_obj["kappa"], "instance.kappa")
            _require(kappa > 0, "instance.kappa must be positive")
            K = kappa * s
        elif has_K:
            K = json_field(inst_obj["K"], "instance.K")
        else:
            K = 30 * s  # default operating point
        try:
            instance = SystemInstance(n=n, m=m, s=s, K=K)
        except ValueError as exc:
            raise ConfigError(f"instance: {exc}") from exc

        beta = json_field(obj.get("beta", 0.2), "beta", kind=float)
        _require(0.0 <= beta < 1.0, "beta must lie in [0, 1)")
        try:
            share = cartel_share(instance.n, beta)
        except ValueError as exc:
            raise ConfigError(f"beta: {exc}") from exc

        econ_obj = _block(obj, "econ", None)  # EconParams.from_config checks its keys
        mode = econ_obj.get("mode", "normalized")
        defaults = _ECON_DEFAULTS.get(mode, {}) if isinstance(mode, str) else {}
        econ_obj = {"mode": mode, **defaults, **econ_obj}
        if mode == "normalized":
            econ_obj.setdefault("bundle_price", econ_obj["fee"])
        econ = EconParams.from_config(econ_obj)
        econ.bundle_price_at(instance.s)  # must be finite at the config's s
        # bounty_proxies prices a probability at alpha*v / (cartel lanes / n).
        _require(
            share == 0 or math.isfinite(econ.mev_exposure / share),
            f"{econ.mev_exposure_keys} / beta, the bounty proxies' scale, must be finite; "
            f"got {econ.mev_exposure!r} / {beta!r}",
        )

        sweep_obj = _block(obj, "sweep", ("kappa_min", "kappa_max"))
        sweep_min = json_field(sweep_obj.get("kappa_min", 1), "sweep.kappa_min")
        sweep_max = json_field(sweep_obj.get("kappa_max", 120), "sweep.kappa_max")
        _require(1 <= sweep_min <= sweep_max, "sweep: need 1 <= kappa_min <= kappa_max")

        mc_obj = _block(obj, "mc", ("trials", "seed"))
        trials = json_field(mc_obj.get("trials", 10_000), "mc.trials")
        seed = json_field(mc_obj.get("seed", 20260809), "mc.seed")
        _require(trials >= 1, "mc.trials must be positive")
        _require(seed >= 0, f"mc.seed must be nonnegative, got {seed}")

        kappas = _array(obj, "table_kappas", [10, 20, 30, 50, 100])
        _require(len(kappas) > 0, "table_kappas must be nonempty")
        _require(all(k > 0 for k in kappas), "table_kappas must be positive")

        tiers = _array(obj, "mev_tiers_usd", [5.0, 50.0, 5000.0], kind=float)
        _require(all(t > 0 for t in tiers), "mev_tiers_usd must be positive")
        for i, tier in enumerate(tiers):  # table-cost prices each tier / (cartel lanes / n)
            _require(
                share == 0 or math.isfinite(tier / share),
                f"mev_tiers_usd[{i}] / beta must be finite; got {tier!r} / {beta!r}",
            )

        race_obj = _block(obj, "race", [f.name for f in fields(RaceModel)])
        timings = {
            f.name: json_field(race_obj.get(f.name, f.default), f"race.{f.name}", kind=float)
            for f in fields(RaceModel)
        }
        try:
            race = RaceModel(**timings)
        except ValueError as exc:
            raise ConfigError(f"race: {exc}") from exc

        usd = json_field(obj.get("usd_per_fee_unit", 0.10), "usd_per_fee_unit", kind=float)
        _require(usd > 0, "usd_per_fee_unit must be positive")

        return cls(
            instance=instance,
            beta=beta,
            econ=econ,
            usd_per_fee_unit=usd,
            table_kappas=kappas,
            mev_tiers_usd=tiers,
            sweep_min=sweep_min,
            sweep_max=sweep_max,
            trials=trials,
            seed=seed,
            race=race,
            instance_given_as_kappa=has_kappa or not has_K,
        )

    def to_dict(self) -> dict:
        inst: dict[str, Any] = {"n": self.instance.n, "m": self.instance.m, "s": self.instance.s}
        if self.instance_given_as_kappa:
            inst["kappa"] = self.instance.kappa
        else:
            inst["K"] = self.instance.K
        return {
            "instance": inst,
            "beta": self.beta,
            "econ": self.econ.to_config(),
            "usd_per_fee_unit": self.usd_per_fee_unit,
            "table_kappas": list(self.table_kappas),
            "mev_tiers_usd": list(self.mev_tiers_usd),
            "sweep": {"kappa_min": self.sweep_min, "kappa_max": self.sweep_max},
            "mc": {"trials": self.trials, "seed": self.seed},
            "race": asdict(self.race),
        }

    @classmethod
    def load(cls, path: str) -> "AnalysisConfig":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                obj = json.load(fh, object_pairs_hook=_unique_keys)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
            except ConfigError as exc:
                raise ConfigError(f"{path}: {exc}") from None
        if not isinstance(obj, dict):
            raise ConfigError(f"{path}: top-level value must be an object")
        return cls.from_dict(obj)
