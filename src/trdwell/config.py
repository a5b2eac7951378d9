"""Strict JSON run configuration.

A config file may pin the unit bundle, the potential, the epsilon of the
extremal reports and a sweep; command-line flags override whatever it
provides.  :data:`_SECTIONS` declares each section once: what it builds and
the JSON type of each key it may hold.  The parser checks only the shape of
the document: objects where sections go, no key outside the table (an
unknown key is named by its dotted path), every key the section's
constructor requires, the JSON types, and numbers that fit a double.

Every range rule belongs to the constructor the section builds: ``units``
to :class:`Units` (finite, positive hbar and mass), ``potential`` to
:class:`Potential` (a known kind, a finite positive U, a half-width exactly
for the well), ``sweep`` to :class:`SweepSpec` and ``defaults`` to
:class:`Config` (0 < epsilon < 2).  Their error becomes a
:class:`ConfigError` that names the section.
"""

from __future__ import annotations

import math
import sys

from .errors import DomainError, _Record
from .kinematics import Potential, Units, check_epsilon


class ConfigError(Exception):
    """A malformed or contradictory run configuration (usage error, exit 1)."""


_SWEEP_PARAMS = ("E", "U", "q", "a", "b", "c", "A")


class SweepSpec(_Record):
    """One-parameter sweep: ``param`` runs over ``count`` points of [start, stop]."""

    __slots__ = ("param", "start", "stop", "count")

    def __init__(self, param: str, start: float, stop: float, count: int):
        if param not in _SWEEP_PARAMS:
            raise ConfigError(f"sweep.param must be one of {_SWEEP_PARAMS}, got {param!r}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ConfigError("sweep.start and sweep.stop must be finite")
        if not (isinstance(count, int) and count >= 2):
            raise ConfigError(f"sweep.count must be an integer >= 2, got {count!r}")
        self._set(param, start, stop, count)


class Config(_Record):
    """Resolved run configuration with every default filled in."""

    __slots__ = ("units", "potential", "epsilon", "sweep")

    def __init__(
        self, units: Units, potential: Potential | None = None, epsilon: float = 1e-6, sweep: SweepSpec | None = None
    ):
        check_epsilon(epsilon)
        self._set(units, potential, epsilon, sweep)


DEFAULT_CONFIG = Config(units=Units())

#: Each section of a config document: what it builds, and the JSON type of each key
#: (``float`` a number, ``int`` an integer).  ``defaults`` holds fields of :class:`Config` itself.
_SECTIONS = {
    "units": (Units, {"hbar": float, "mass": float}),
    "potential": (Potential, {"kind": str, "U": float, "q": float}),
    "defaults": (Config, {"epsilon": float}),
    "sweep": (SweepSpec, {"param": str, "start": float, "stop": float, "count": int}),
}

_TYPE_NAMES = {str: "a string", float: "a number", int: "an integer"}


def _object(value, keys, path: str) -> dict:
    """``value`` if it is a JSON object whose keys all lie in ``keys``."""
    if not isinstance(value, dict):
        document = "the config document must be a JSON object"
        raise ConfigError(f"config key {path!r} must be an object" if path else document)
    for key in value:
        if key not in keys:
            raise ConfigError(f"unknown config key {f'{path}.{key}' if path else key!r}")
    return value


def _typed(value, kind: type, path: str):
    """``value`` if its JSON type is ``kind`` and an integer fits a double; a number as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ConfigError(f"config key {path} must be {_TYPE_NAMES[kind]}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:  # a float is a double already
        raise ConfigError(f"config key {path} is too large for a double")
    return float(value) if kind is float else value


def parse_config(document: dict) -> Config:
    """Validate a decoded JSON document into a :class:`Config`."""
    document, config = _object(document, _SECTIONS, ""), DEFAULT_CONFIG
    for name, (build, types) in _SECTIONS.items():
        if name not in document:
            continue
        section = _object(document[name], types, name)
        values = {key: _typed(value, types[key], f"{name}.{key}") for key, value in section.items()}
        required = build._fields[: len(build._fields) - len(build.__init__.__defaults__ or ())]
        for key in required:
            if key in types and key not in values:
                raise ConfigError(f"config key {name}.{key} is required")
        try:
            config = Config(**{**config._asdict(), **(values if build is Config else {name: build(**values)})})
        except DomainError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return config


def load_config(path: str) -> Config:
    """Read and validate the JSON config at ``path``."""
    import json  # only a run with --config reads JSON

    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    return parse_config(document)
