"""Scenario configuration: a documented JSON file with four sections.

::

    {
      "model":  {"zoo": "<name>", "params": {...}},
      "sim":    {"T": 1.0, "dt": 0.001, "K": null, "seed": 123456789,
                 "scheme": "event_driven_exact", "replicas": 10000,
                 "threads": 1},
      "task":   {... subcommand-specific keys ...},
      "output": {"dir": "out", "reports": "reports.jsonl",
                 "trajectory": null, "trajectory_binary": null,
                 "plot_data": null}
    }

Each section is a JSON object. A zoo model's params are its builder's
keyword arguments (``models.zoo``): ``switching_ou`` takes
dim/beta/a/s/rates, ``degenerate_regime`` takes dim, ``birth_death_switch``
takes dim/sigma_scale, ``nonlipschitz_log`` takes nothing.

Unknown keys anywhere are rejected. The seed defaults to the fixed constant
``DEFAULT_SEED`` -- never the wall clock -- and the canonical sha256 hash of
the parsed config is stamped into every output record.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

from .engine import DEFAULT_SEED, SimConfig
from .errors import ConfigError
from .models import ModelSpec, zoo

_TOP_KEYS = {"model", "sim", "task", "output"}
_MODEL_KEYS = {"zoo", "params"}
_SIM_KEYS = {"T", "dt", "K", "seed", "scheme", "replicas", "threads"}
_OUTPUT_KEYS = {"dir", "reports", "trajectory", "trajectory_binary", "plot_data"}

TASK_KEYS = {
    "simulate": {"x0", "i0"},
    "jump-lipschitz": {"cases", "i_max", "p_values", "dim"},
    "moments": {"x0", "i0", "T_values"},
    "holding": {"x0", "k_values", "K_values", "t_grid"},
    "harnack": {"cases", "T_values", "x_radius", "min_pass_rate"},
    "feller": {"x0", "i0", "t", "radii", "f", "mode", "floor"},
    "chain-marginal": {"times", "starts", "min_fraction"},
    "truncation-check": {"x0", "i0", "K_values", "t", "compare_cases"},
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class ScenarioConfig:
    model: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    task: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"model": self.model, "sim": self.sim,
                "task": self.task, "output": self.output}


def parse_config(text: str) -> ScenarioConfig:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "top level")
    sections = {name: raw.get(name, {}) for name in sorted(_TOP_KEYS)}
    for name, section in sections.items():
        if not isinstance(section, dict):
            raise ConfigError(f"{name} must be a JSON object, "
                              f"got {type(section).__name__}")
    _reject_unknown(sections["model"], _MODEL_KEYS, "model")
    _reject_unknown(sections["sim"], _SIM_KEYS, "sim")
    _reject_unknown(sections["output"], _OUTPUT_KEYS, "output")
    return ScenarioConfig(**sections)


def load_config(path) -> ScenarioConfig:
    """Parse the UTF-8 file at ``path``; an unreadable one is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def config_hash(cfg: ScenarioConfig) -> str:
    canon = json.dumps(cfg.as_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# each task key's shape (a list, or one value) and what its values are:
# times are finite and >= 0, numbers are read by the runner, and every other
# kind is a positive integer; the runner reads x0, f and mode as they come
_TASK_VALUES = {
    "cases": (False, "case count"), "compare_cases": (False, "case count"),
    "i0": (False, "start regime"), "i_max": (False, "largest start regime"),
    "dim": (False, "dimension"), "starts": (True, "start regime"),
    "k_values": (True, "start regime"), "K_values": (True, "truncation level"),
    "t": (False, "time"), "T_values": (True, "time"), "t_grid": (True, "time"),
    "times": (True, "time"), "p_values": (True, "number"),
    "radii": (True, "number"), "x_radius": (False, "number"),
    "min_pass_rate": (False, "number"), "floor": (False, "number"),
    "min_fraction": (False, "number"),
}


def validate_task(cfg: ScenarioConfig, subcommand: str) -> dict:
    """The task section of ``subcommand``: known keys only, each of the
    shape ``_TASK_VALUES`` gives it, no empty list, case counts and regimes
    positive integers and times finite and nonnegative, else a
    ``ConfigError`` naming the key."""
    if subcommand not in TASK_KEYS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    task = cfg.task
    _reject_unknown(task, TASK_KEYS[subcommand], f"task ({subcommand})")
    for key, value in sorted(task.items()):
        listed, what = _TASK_VALUES.get(key, (isinstance(value, list), "number"))
        if isinstance(value, list) != listed:
            raise ConfigError(f"task.{key} must be "
                              f"{'a list' if listed else 'one value'}, "
                              f"got {value!r}")
        if listed and not value:
            raise ConfigError(f"task.{key} holds an empty list")
        if what == "number":
            continue  # read by the runner
        need = "a finite number >= 0" if what == "time" else "a positive integer"
        for v in value if listed else [value]:
            try:
                ok = (float(v) == v and math.isfinite(v) and v >= 0
                      if what == "time" else int(v) == v and v >= 1)
            except (ValueError, TypeError, OverflowError) as exc:
                ok, need = False, f"{need} ({exc})"
            if not ok:
                raise ConfigError(f"task.{key}: {what} {v!r} is not {need}")
    return task


def build_model(cfg: ScenarioConfig) -> ModelSpec:
    """The zoo model the config names; an unknown name, an unknown parameter
    or a bad parameter value is a ``ConfigError``."""
    try:
        return zoo(cfg.model.get("zoo"), **cfg.model.get("params", {}))
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad model: {exc}") from None


def build_sim(cfg: ScenarioConfig, *, seed=None, replicas=None, dt=None,
              threads=None) -> SimConfig:
    sim = cfg.sim
    try:
        return SimConfig(
            horizon=float(sim.get("T", 1.0)),
            dt=float(dt if dt is not None else sim.get("dt", 1e-3)),
            truncation=sim.get("K"),
            seed=int(seed if seed is not None else sim.get("seed", DEFAULT_SEED)),
            scheme=sim.get("scheme", "frozen_rate"),
            replicas=int(replicas if replicas is not None
                         else sim.get("replicas", 10_000)),
            threads=int(threads if threads is not None
                        else sim.get("threads", 1)),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad sim section: {exc}") from None
