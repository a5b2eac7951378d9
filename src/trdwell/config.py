"""Strict JSON run configuration.

A config file may pin the unit bundle, the potential, the epsilon of the
extremal reports and a sweep; command-line flags override whatever it
provides.  Validation is strict: unknown keys anywhere in the document are
rejected by their dotted path, and a well without a half-width (or a step
with one) is refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import DomainError
from .potential import Potential, Units


class ConfigError(Exception):
    """A malformed or contradictory run configuration (usage error, exit 1)."""


_SWEEP_PARAMS = ("E", "U", "q", "a", "b", "c", "A")


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep: ``param`` runs over ``count`` points of [start, stop]."""

    param: str
    start: float
    stop: float
    count: int

    def __post_init__(self) -> None:
        if self.param not in _SWEEP_PARAMS:
            raise ConfigError(f"sweep.param must be one of {_SWEEP_PARAMS}, got {self.param!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError("sweep.start and sweep.stop must be finite")
        if not (isinstance(self.count, int) and self.count >= 2):
            raise ConfigError(f"sweep.count must be an integer >= 2, got {self.count!r}")


@dataclass(frozen=True)
class Config:
    """Resolved run configuration with every default filled in."""

    units: Units
    potential: Potential | None = None
    epsilon: float = 1e-6
    sweep: SweepSpec | None = None


DEFAULT_CONFIG = Config(units=Units())


def _reject_unknown(mapping: dict, allowed: tuple[str, ...], path: str) -> None:
    for key in mapping:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {where!r}")


def _number(mapping: dict, key: str, path: str, positive: bool = False) -> float:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key {path}.{key} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value) or (positive and value <= 0.0):
        raise ConfigError(f"config key {path}.{key} must be finite{' and positive' if positive else ''}")
    return value


def parse_config(document: dict) -> Config:
    """Validate a decoded JSON document into a :class:`Config`."""
    if not isinstance(document, dict):
        raise ConfigError("the config document must be a JSON object")
    _reject_unknown(document, ("units", "potential", "defaults", "sweep"), "")

    units = Units()
    if "units" in document:
        section = document["units"]
        if not isinstance(section, dict):
            raise ConfigError("config key 'units' must be an object")
        _reject_unknown(section, ("hbar", "mass"), "units")
        hbar = _number(section, "hbar", "units", positive=True) if "hbar" in section else 1.0
        mass = _number(section, "mass", "units", positive=True) if "mass" in section else 1.0
        units = Units(hbar=hbar, mass=mass)

    potential = None
    if "potential" in document:
        section = document["potential"]
        if not isinstance(section, dict):
            raise ConfigError("config key 'potential' must be an object")
        _reject_unknown(section, ("kind", "U", "q"), "potential")
        kind = section.get("kind")
        if kind not in ("step", "well"):
            raise ConfigError(f"potential.kind must be 'step' or 'well', got {kind!r}")
        if "U" not in section:
            raise ConfigError("potential.U is required")
        U = _number(section, "U", "potential", positive=True)
        if kind == "well":
            if "q" not in section:
                raise ConfigError("potential.q is required for a well")
            q = _number(section, "q", "potential", positive=True)
        else:
            if "q" in section:
                raise ConfigError("potential.q is only meaningful for a well")
            q = None
        try:
            potential = Potential(kind, U, q)
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    epsilon = 1e-6
    if "defaults" in document:
        section = document["defaults"]
        if not isinstance(section, dict):
            raise ConfigError("config key 'defaults' must be an object")
        _reject_unknown(section, ("epsilon",), "defaults")
        if "epsilon" in section:
            epsilon = _number(section, "epsilon", "defaults", positive=True)
            if epsilon >= 2.0:
                raise ConfigError("defaults.epsilon must be below 2")

    sweep = None
    if "sweep" in document:
        section = document["sweep"]
        if not isinstance(section, dict):
            raise ConfigError("config key 'sweep' must be an object")
        _reject_unknown(section, ("param", "start", "stop", "count"), "sweep")
        for key in ("param", "start", "stop", "count"):
            if key not in section:
                raise ConfigError(f"sweep.{key} is required")
        count = section["count"]
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigError(f"sweep.count must be an integer, got {count!r}")
        sweep = SweepSpec(
            param=section["param"],
            start=_number(section, "start", "sweep"),
            stop=_number(section, "stop", "sweep"),
            count=count,
        )

    try:
        return Config(
            units=units,
            potential=potential,
            epsilon=epsilon,
            sweep=sweep,
        )
    except DomainError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> Config:
    """Read and validate the JSON config at ``path``."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(document)
