"""Command-line interface.

One subcommand per quantity; every run emits a single JSON document (default)
or CSV table with the inputs echoed and enough tolerance metadata to
reproduce the numbers.  Exit status: 0 on success, 1 for usage or config
errors, 2 for domain errors and numerical infeasibility.

Each subcommand is one entry of :data:`COMMANDS`: its flags (declared once,
in ``_FLAGS``), the inputs it resolves before computing, its compute step,
and the names of the fields it prints as JSON inputs, JSON outputs and CSV
columns.

This module imports only ``config``, ``errors``, ``kinematics`` and
``serialize``.  The other layers (``potential``, the well ladder;
``microstate``, ``wavefield``, ``times``, ``trajectory``, ``coverage``) load
on dispatch, when a command first uses one, and the parser holds only the
command that ``argv`` names, so each invocation builds, compiles and runs
only what it needs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, _submodule
from .config import _SWEEP_PARAMS, DEFAULT_CONFIG, Config, ConfigError, SweepSpec, load_config
from .errors import DomainError, TrdwellError
from .kinematics import Units, kinematics_from_energies, square_well
from .serialize import csv_dumps, json_dumps

#: The library layers a command reaches as ``res.<layer>``; each is imported on first use.
_LAYERS = ("potential", "microstate", "wavefield", "times", "trajectory", "coverage")


class UsageError(Exception):
    """A malformed invocation (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


#: Flags each swept quantity reads (the swept one may be left out).
_SWEEP_NEEDS = {
    "dwell-mono": ("E", "U"),
    "dwell": ("E", "U", "a", "b", "c"),
    "libration": ("E", "U", "q", "a", "b", "c"),
    "libration-inf": ("E", "U", "q", "A"),
}

# ---------------------------------------------------------------------------
# flags: every option of every subcommand, declared once

_FLAGS = {
    "format": {"choices": ("json", "csv"), "default": "json", "help": "output format"},
    "out": {"metavar": "PATH", "help": "write the output to PATH instead of stdout"},
    "config": {"metavar": "PATH", "help": "JSON run configuration"},
    "pretty": {"action": "store_true", "help": "indent JSON output"},
    "hbar": {"type": float, "help": "reduced Planck constant (default 1 or config)"},
    "mass": {"type": float, "help": "particle mass (default 1 or config)"},
    "E": {"type": float, "help": "energy, 0 < E < U"},
    "U": {"type": float, "help": "barrier or wall height (or config)"},
    "q": {"type": float, "help": "well half-width (or config)"},
    "a": {"type": float, "help": "microstate coefficient a (default 1)"},
    "b": {"type": float, "help": "microstate coefficient b (default 1)"},
    "c": {"type": float, "help": "microstate coefficient c (default 0)"},
    "sign": {"choices": ("plus", "minus"), "default": "plus", "help": "denominator branch"},
    "epsilon": {"type": float, "help": "boundary inset of |c| (default 1e-6 or config)"},
    "A": {"type": float, "help": "probe amplitude"},
    "parity": {"choices": ("even", "odd", "both"), "default": "both"},
    "region": {"choices": ("free", "forbidden"), "required": True},
    "x-start": {"type": float, "required": True},
    "x-stop": {"type": float, "required": True},
    "n": {"type": int, "default": 11, "help": "number of samples (default 11)"},
    "x": {"type": float, "required": True},
    "state-index": {"type": int, "default": 0},
    "past": {"metavar": "X,T", "help": "past event as 'X,T'"},
    "present": {"metavar": "X,T", "help": "present event as 'X,T'"},
    "pasts": {"metavar": "LIST", "help": "comma-separated past positions (relation scan)"},
    "presents": {"metavar": "LIST", "help": "comma-separated present positions"},
    "dts": {"metavar": "LIST", "help": "comma-separated positive time offsets"},
    "past-time": {"type": float, "help": "epoch of every past event (relation scan; default 0)"},
    "quantity": {"choices": tuple(_SWEEP_NEEDS), "help": "quantity to evaluate"},
    "param": {"choices": _SWEEP_PARAMS},
    "start": {"type": float},
    "stop": {"type": float},
    "count": {"type": int},
}
_COMMON = "format out config pretty hbar mass "
_MS = " a b c"
_COVERAGE_FLAGS = " past present pasts presents dts past-time"

# ---------------------------------------------------------------------------
# inputs: flag, then config, then default; each resolved on first use


def _required(value, message: str):
    if value is None:
        raise UsageError(message)
    return value


def _flag_or_config(res, name: str, section: str):
    """``--name`` if given, else ``name`` of the config section, else None."""
    value, source = getattr(res.args, name), getattr(res.cfg, section)
    return getattr(source, name) if value is None and source is not None else value


def _resolve_units(res) -> Units:
    try:
        hbar, mass = (_flag_or_config(res, name, "units") for name in ("hbar", "mass"))
        return Units(hbar=hbar, mass=mass)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _coefficients(args) -> tuple[float, float, float]:
    """(a, b, c) from the flags, defaulting to the monochromatic (1, 1, 0)."""
    flags = ((args.a, 1.0), (args.b, 1.0), (args.c, 0.0))
    return tuple(default if value is None else value for value, default in flags)


def _parse_event(res, side: str):
    text, flag = getattr(res.args, side), f"--{side}"
    if text is None:
        raise UsageError(f"{flag} is required")
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"{flag} expects 'X,T', got {text!r}")
    try:
        x, t = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise UsageError(f"{flag} expects numbers, got {text!r}") from exc
    try:
        return res.coverage.Event(x, t)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _parse_floats(text: str | None, flag: str) -> tuple[float, ...]:
    if text is None:
        raise UsageError(f"{flag} is required in relation-scan mode")
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from exc


def _coverage_mode(args) -> str:
    pair_mode = args.past is not None or args.present is not None
    grid_mode = args.pasts is not None or args.presents is not None or args.dts is not None
    if pair_mode and grid_mode:
        raise UsageError("give either --past/--present or --pasts/--presents/--dts, not both")
    if not pair_mode and not grid_mode:
        raise UsageError("give --past/--present for one verdict or --pasts/--presents/--dts for a scan")
    if pair_mode and args.past_time is not None:
        raise UsageError("--past-time belongs to the --pasts/--presents/--dts scan; --past carries its own time")
    return "pair" if pair_mode else "grid"


def _grid_from_args(res):
    args = res.args
    try:
        return res.coverage.GridSpec(
            past_positions=_parse_floats(args.pasts, "--pasts"),
            present_positions=_parse_floats(args.presents, "--presents"),
            time_offsets=_parse_floats(args.dts, "--dts"),
            past_time=0.0 if args.past_time is None else args.past_time,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


_RESOLVERS = {
    "units": _resolve_units,
    "hbar": lambda res: res.units.hbar,
    "mass": lambda res: res.units.mass,
    "E": lambda res: _required(res.args.E, "--E is required"),
    "U": lambda res: _required(
        _flag_or_config(res, "U", "potential"), "--U is required (or provide a potential in --config)"
    ),
    "q": lambda res: _required(
        _flag_or_config(res, "q", "potential"), "--q is required (or provide a well potential in --config)"
    ),
    "A": lambda res: _required(res.args.A, "--A is required"),
    "epsilon": lambda res: res.cfg.epsilon if res.args.epsilon is None else res.args.epsilon,
    "kin": lambda res: kinematics_from_energies(res.E, res.U, res.units),
    "k": lambda res: res.kin.k,
    "kappa": lambda res: res.kin.kappa,
    "r": lambda res: res.kin.r,
    "ms": lambda res: res.microstate.Microstate(*_coefficients(res.args)),
    "a": lambda res: res.ms.a,
    "b": lambda res: res.ms.b,
    "c": lambda res: res.ms.c,
    "branch": lambda res: {"plus": res.times.SIGN_PLUS, "minus": res.times.SIGN_MINUS}[res.sign],
    "basis": lambda res: res.wavefield.canonical_basis(res.region, res.kin),
    "state": lambda res: res.wavefield.well_eigenstate(square_well(res.U, res.q), res.units, res.state_index),
    "past": lambda res: _parse_event(res, "past"),
    "present": lambda res: _parse_event(res, "present"),
    "mode": lambda res: _coverage_mode(res.args),
    "grid": _grid_from_args,
    **{layer: lambda res, layer=layer: _submodule(layer) for layer in _LAYERS},
}


class _Resolved:
    """The inputs of one run; ``res.name`` resolves ``name`` once, on first use.

    Names without a resolver are the parsed flags themselves.  A layer name
    (``res.times``) is that library module, imported on first use.
    """

    def __init__(self, args, cfg: Config):
        self.args, self.cfg = args, cfg

    def __getattr__(self, name):
        resolver = _RESOLVERS.get(name)
        value = resolver(self) if resolver else getattr(self.args, name)
        setattr(self, name, value)
        return value


# ---------------------------------------------------------------------------
# compute steps: each returns the named values its command prints


def _nested(key: str, fields: dict, prefix: str = "") -> dict:
    """``fields`` as the JSON object ``key`` and as flat CSV fields ``prefix + name``."""
    return {key: fields, **{prefix + name: value for name, value in fields.items()}}


def _events(res) -> dict:
    fields = {}
    for side in ("past", "present"):
        event = getattr(res, side)
        fields.update(_nested(side, {"x": event.x, "t": event.t}, f"{side}_"))
    return fields


def _energies(res) -> dict:
    ladder = res.potential
    states = ladder.bound_state_energies(square_well(res.U, res.q), res.units, parity=res.parity)
    listing = [
        {
            "index": i,
            "parity": s.parity,
            "E": s.E,
            "k": s.k,
            "kappa": s.kappa,
            "residual": ladder.matching_residual(s, res.q),
        }
        for i, s in enumerate(states)
    ]
    return {"count": len(states), "states": listing}


def _trajectory(res) -> dict:
    samples = res.trajectory.sample_trajectory((res.x_start, res.x_stop), res.n, res.ms, res.basis, res.kin)
    return {"samples": [s._asdict() for s in samples]}


def _extremal(report) -> dict:
    return {**report._asdict(), **_nested("maximizer", report.maximizer._asdict())}


def _qshje_check(res) -> dict:
    residual = res.wavefield.qshje_residual(res.x, res.ms, res.basis, res.kin)
    threshold = 1e-8 * (res.kin.E if res.region == "free" else res.kin._gap)  # the residual's scale E_w
    return {"residual": residual, "threshold": threshold, "within": abs(residual) <= threshold}


def _relation(res, scenario: str, **where) -> dict:
    grid = res.grid
    report = res.coverage.set_relation_report(scenario, grid, **where)
    return {
        "pasts": list(grid.past_positions),
        "presents": list(grid.present_positions),
        "dts": list(grid.time_offsets),
        "past_time": grid.past_time,
        **report._asdict(),
        **report.counts,
    }


def _coverage_sb(res) -> dict:
    if res.mode == "grid":
        return _relation(res, res.coverage.SCENARIO_SB, kin=res.kin)
    verdict = res.coverage.sb_verdict(res.past, res.present, res.kin)
    return {
        **verdict._asdict(),
        **_events(res),
        "elapsed": res.present.t - res.past.t,
        "dwell_bound": res.times.dwell_supremum_bound(res.kin),
    }


def _coverage_sw(res) -> dict:
    state = {"parity": res.state.parity, "E": res.state.kinematics.E}
    if res.mode == "grid":
        scenario = res.coverage.SCENARIO_SW_BOUND if res.state_index == 0 else res.coverage.SCENARIO_SW_EXCITED
        return {**state, **_relation(res, scenario, state=res.state)}
    verdict = res.coverage.sw_verdict(res.past, res.present, res.state)
    return {
        **state,
        **verdict._asdict(),
        **_events(res),
        **_nested("witness", verdict.witness._asdict(), "witness_"),
        "present_density": res.wavefield.copenhagen_density(res.state, res.present.x),
    }


def _connect(res) -> dict:
    solution = res.coverage.connect(res.past, res.present, res.state)
    return {**solution._asdict(), **_nested("microstate", solution.ms._asdict()), **_events(res)}


def _linspace(start, stop, count: int) -> list[float]:
    """``count`` evenly spaced floats from ``start`` to ``stop``, bit for bit as numpy's linspace."""
    start, stop = float(start), float(stop)
    div = count - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # numpy's branch for a step that underflows: scale i/div by delta instead
        points = [i / div * delta + start for i in range(div)]
    else:
        points = [i * step + start for i in range(div)]
    return points + [stop]


def _sweep(res) -> dict:
    quantity = _required(res.quantity, "--quantity is required")
    spec = {name: _flag_or_config(res, name, "sweep") for name in SweepSpec._fields}
    if None in spec.values():
        raise UsageError("--param, --start, --stop and --count are required (flags or config sweep)")
    spec = SweepSpec(**spec)  # the rules of a config file's sweep; a ConfigError exits 1
    param = spec.param
    base = {
        "E": res.args.E,
        "U": _flag_or_config(res, "U", "potential"),
        "q": _flag_or_config(res, "q", "potential"),
        **dict(zip("abc", _coefficients(res.args))),
        "A": res.args.A,
    }
    needed = _SWEEP_NEEDS[quantity]
    for name in needed:
        if name != param and base[name] is None:
            raise UsageError(f"--{name} is required for quantity {quantity!r}")
    if param not in needed:
        raise UsageError(f"parameter {param!r} does not enter quantity {quantity!r}")

    times, microstate = res.times, res.microstate

    def evaluate(value: float) -> float:
        params = {**base, param: value}
        kin = kinematics_from_energies(params["E"], params["U"], res.units)
        if quantity == "dwell-mono":
            return times.dwell_time_monochromatic(kin)
        if quantity == "libration-inf":
            return times.libration_infimum_probe(kin, params["q"], params["A"])
        # A swept coefficient leaves the normalized slice; rescale the triple back onto it.
        triple = (params["a"], params["b"], params["c"])
        ms = microstate.normalize(*triple) if param in ("a", "b", "c") else microstate.Microstate(*triple)
        if quantity == "dwell":
            return times.dwell_time(kin, ms, res.branch).t_D
        return times.libration_period(kin, params["q"], ms)

    values = _linspace(spec.start, spec.stop, spec.count)
    return {
        **spec._asdict(),
        "base": {k: v for k, v in base.items() if v is not None},
        "points": [{"value": v, "result": evaluate(v)} for v in values],
    }


# ---------------------------------------------------------------------------
# the command table


class _Command:
    """One subcommand.

    ``flags`` are keys of ``_FLAGS``.  ``resolve`` names the inputs resolved,
    in order, before ``compute(res)`` runs; the rest resolve on first use.
    ``inputs``, ``outputs`` and ``csv`` name the printed fields, or map each
    coverage mode ("pair", "grid") to its names.  A field is looked up among
    the values ``compute`` returns, then among the resolved inputs.  ``rows``
    names a list of records printed one CSV row each, with the columns
    ``csv`` (looked up in the record first) or else the record's own keys.
    ``meta`` names the fields JSON prints as metadata after the version: the
    constants ``compute`` ran with, which it returns like any other value.
    ``compute`` reaches the library layers it runs as ``res.times``,
    ``res.coverage`` and so on, so each is imported on dispatch, after the
    ``resolve`` inputs have passed.
    """

    def __init__(self, help, flags, resolve, compute, *, inputs, outputs, csv=None, rows=None, meta=""):
        self.help, self.flags, self.resolve, self.compute = help, flags, resolve, compute
        self.inputs, self.outputs, self.csv, self.rows, self.meta = inputs, outputs, csv, rows, meta


_VERDICT = "classification tr_allowed copenhagen_allowed past present"
_VERDICT_CSV = "classification tr_allowed copenhagen_allowed past_x past_t present_x present_t"
_GRID_INPUTS = " pasts presents dts past_time"
_RELATION = "scenario relation counts total notes"
_RELATION_CSV = "scenario relation BothAllow CopenhagenOnly TROnly NeitherAllow total"
_UNITS = " hbar mass"

COMMANDS = {
    "kinematics": _Command(
        "wavenumber bundle at one energy", "E U", "E U kin", lambda res: {},
        inputs="E U" + _UNITS, outputs="k kappa r", csv="k kappa r E U" + _UNITS,
    ),
    "energies": _Command(
        "square-well bound states", "U q parity", "U q", _energies,
        inputs="U q parity" + _UNITS, outputs="count states", csv="index parity E k kappa residual",
        rows="states",
    ),
    "dwell": _Command(
        "sub-barrier dwell time of a microstate", "E U" + _MS + " sign", "E U kin",
        lambda res: {
            "t_D": res.times.dwell_time(res.kin, res.ms, res.branch).t_D,
            "monochromatic": res.times.dwell_time_monochromatic(res.kin),
            "normalization_tol": res.microstate.NORMALIZATION_TOL,
        },
        inputs="E U a b c sign" + _UNITS, outputs="t_D monochromatic", csv="t_D sign a b c E U k kappa",
        meta="normalization_tol",
    ),
    "dwell-max": _Command(
        "dwell-time supremum over microstates", "E U epsilon", "E U epsilon kin",
        lambda res: _extremal(res.times.max_dwell(res.kin, res.epsilon)),
        inputs="E U epsilon" + _UNITS,
        outputs="supremum supremum_extrapolated analytic_bound attained_at_boundary sign maximizer",
        csv="supremum supremum_extrapolated analytic_bound epsilon attained_at_boundary sign a b c E U",
    ),
    "libration": _Command(
        "well round-trip period of a microstate", "E U q" + _MS, "E U q kin",
        lambda res: {
            "t_L": res.times.libration_period(res.kin, res.q, res.ms),
            "normalization_tol": res.microstate.NORMALIZATION_TOL,
        },
        inputs="E U q a b c" + _UNITS, outputs="t_L", csv="t_L a b c E U q k kappa", meta="normalization_tol",
    ),
    "libration-max": _Command(
        "libration-period supremum over microstates", "E U q epsilon", "E U q epsilon kin",
        lambda res: _extremal(res.times.max_libration(res.kin, res.q, res.epsilon)),
        inputs="E U q epsilon" + _UNITS,
        outputs="supremum supremum_extrapolated analytic_bound alternative_bound alternative_bound_holds"
        " attained_at_boundary maximizer",
        csv="supremum supremum_extrapolated analytic_bound alternative_bound alternative_bound_holds"
        " epsilon attained_at_boundary a b c E U q",
    ),
    "libration-inf": _Command(
        "vanishing-period probe (A, 1/A, 0)", "E U q A", "E U q A kin",
        lambda res: {"t_L": res.times.libration_infimum_probe(res.kin, res.q, res.A)},
        inputs="E U q A" + _UNITS, outputs="t_L", csv="t_L A E U q",
    ),
    "trajectory": _Command(
        "sample one region's trajectory", "E U region x-start x-stop n" + _MS, "E U kin", _trajectory,
        inputs="E U region x_start x_stop n a b c" + _UNITS, outputs="samples", rows="samples",
    ),
    "qshje-check": _Command(
        "stationarity residual at one point", "E U region x" + _MS, "E U kin", _qshje_check,
        inputs="E U region x a b c" + _UNITS, outputs="residual threshold within",
        csv="residual within region x a b c E U",
    ),
    "coverage-sb": _Command(
        "sub-barrier step scenario", "E U" + _COVERAGE_FLAGS, "E U kin mode", _coverage_sb,
        inputs={"pair": "E U" + _UNITS, "grid": "E U" + _UNITS + _GRID_INPUTS},
        outputs={"pair": _VERDICT + " elapsed dwell_bound", "grid": _RELATION},
        csv={"pair": _VERDICT_CSV + " elapsed dwell_bound", "grid": _RELATION_CSV},
    ),
    "coverage-sw": _Command(
        "square-well scenario", "U q state-index" + _COVERAGE_FLAGS, "U q state mode", _coverage_sw,
        inputs={
            "pair": "U q state_index parity E" + _UNITS,
            "grid": "U q state_index parity E" + _UNITS + _GRID_INPUTS,
        },
        outputs={"pair": _VERDICT + " witness present_density", "grid": _RELATION},
        csv={
            "pair": _VERDICT_CSV + " witness_a witness_b witness_c present_density",
            "grid": _RELATION_CSV,
        },
    ),
    "connect": _Command(
        "microstate linking two well events", "U q state-index past present", "U q state", _connect,
        inputs="U q state_index past present" + _UNITS,
        outputs="microstate whole_periods phase_offset realized_period arrival_time",
        csv="a b c whole_periods phase_offset realized_period arrival_time"
        " past_x past_t present_x present_t",
    ),
    "sweep": _Command(
        "sweep one parameter of a quantity", "quantity param start stop count E U q" + _MS + " A sign",
        "", _sweep,
        inputs="quantity param start stop count base sign" + _UNITS, outputs="points",
        csv="param value quantity result", rows="points",
    ),
}


def _words(name: str) -> list[str]:
    """The words that invoke command ``name``: ``["dwell"]``, ``["coverage", "sb"]``."""
    return ["coverage", name.removeprefix("coverage-")] if name.startswith("coverage-") else [name]


def build_parser(argv=()) -> _Parser:
    """The parser of the command whose words open ``argv``, or of every command if none does.

    Either way ``argv`` parses as the full tree parses it, so help, errors and
    exit codes are the same; an invocation just builds one subparser, not all.
    """
    parser = _Parser(prog="trdwell", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    invoked = [name for name in COMMANDS if list(argv[: len(_words(name))]) == _words(name)]
    scenarios = None
    for name in invoked or COMMANDS:
        command, words = COMMANDS[name], _words(name)
        if len(words) == 2:
            if scenarios is None:
                coverage = sub.add_parser("coverage", help="past/present admissibility verdicts")
                scenarios = coverage.add_subparsers(dest="scenario", required=True, metavar="SCENARIO")
            p = scenarios.add_parser(words[1], help=command.help)
        else:
            p = sub.add_parser(name, help=command.help)
        p.set_defaults(command=name)
        for flag in (_COMMON + command.flags).split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _names(spec, res) -> list[str]:
    return (spec[res.mode] if isinstance(spec, dict) else spec).split()


def _field(name: str, res: _Resolved, *sources: dict):
    """``name`` from the first of ``sources`` that holds it, else the resolved input."""
    for source in sources:
        if name in source:
            return source[name]
    return getattr(res, name)


def _fields(spec, res: _Resolved, values: dict) -> dict:
    """The fields ``spec`` names, each looked up by :func:`_field` among ``values``."""
    return {name: _field(name, res, values) for name in _names(spec, res)}


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv``, execute the subcommand, and return the exit status."""
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits through argparse
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
        command = COMMANDS[args.command]
        res = _Resolved(args, cfg)
        for name in ("units", *command.resolve.split()):
            getattr(res, name)
        values = command.compute(res)
        if args.format == "json":
            record = {
                "command": args.command,
                "inputs": _fields(command.inputs, res, values),
                "outputs": _fields(command.outputs, res, values),
                "metadata": {"version": __version__, **_fields(command.meta, res, values)},
            }
            text = json_dumps(record, pretty=args.pretty)
        else:
            rows = values[command.rows] if command.rows else [values]
            columns = _names(command.csv, res) if command.csv else None
            records = [{name: _field(name, res, row, values) for name in columns or row} for row in rows]
            text = csv_dumps(records, columns)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrdwellError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> int:
    """Console entry point."""
    return run()


if __name__ == "__main__":
    sys.exit(main())
