"""Command-line interface.

One subcommand per quantity; every run emits a single JSON document (default)
or CSV table with the inputs echoed and enough tolerance metadata to
reproduce the numbers.  Exit status: 0 on success, 1 for usage or config
errors, 2 for domain errors and numerical infeasibility.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .config import DEFAULT_CONFIG, Config, ConfigError, load_config
from .coverage import (
    NODE_DENSITY_FLOOR,
    SCENARIO_SB,
    SCENARIO_SW_BOUND,
    SCENARIO_SW_EXCITED,
    Event,
    GridSpec,
    connect,
    sb_verdict,
    set_relation_report,
    sw_verdict,
)
from .errors import DomainError, TrdwellError
from .microstate import NORMALIZATION_TOL, Microstate, normalize
from .potential import (
    EIGEN_K_TOL,
    Units,
    bound_state_energies,
    kinematics_from_energies,
    matching_residual,
    square_well,
)
from .serialize import csv_dumps, json_dumps
from .times import (
    SIGN_MINUS,
    SIGN_PLUS,
    dwell_supremum_bound,
    dwell_time,
    dwell_time_monochromatic,
    libration_infimum_probe,
    libration_period,
    max_dwell,
    max_libration,
)
from .trajectory import sample_trajectory
from .wavefield import canonical_basis, copenhagen_density, qshje_residual, well_eigenstate


class UsageError(Exception):
    """A malformed invocation (exit 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse hook
        raise UsageError(message)


_SIGN_BY_NAME = {"plus": SIGN_PLUS, "minus": SIGN_MINUS}


def _common_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--format", choices=("json", "csv"), default="json", help="output format")
    parent.add_argument("--out", metavar="PATH", help="write the output to PATH instead of stdout")
    parent.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parent.add_argument("--pretty", action="store_true", help="indent JSON output")
    parent.add_argument("--hbar", type=float, help="reduced Planck constant (default 1 or config)")
    parent.add_argument("--mass", type=float, help="particle mass (default 1 or config)")
    return parent


def _add_microstate_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, help="microstate coefficient a (default 1)")
    p.add_argument("--b", type=float, help="microstate coefficient b (default 1)")
    p.add_argument("--c", type=float, help="microstate coefficient c (default 0)")


def _add_event_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--past", metavar="X,T", help="past event as 'X,T'")
    p.add_argument("--present", metavar="X,T", help="present event as 'X,T'")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pasts", metavar="LIST", help="comma-separated past positions (relation scan)")
    p.add_argument("--presents", metavar="LIST", help="comma-separated present positions")
    p.add_argument("--dts", metavar="LIST", help="comma-separated positive time offsets")
    p.add_argument("--past-time", type=float, default=0.0, help="epoch of every past event")


def build_parser() -> _Parser:
    common = _common_parent()
    parser = _Parser(prog="trdwell", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("kinematics", parents=[common], help="wavenumber bundle at one energy")
    p.add_argument("--E", type=float, help="energy, 0 < E < U")
    p.add_argument("--U", type=float, help="barrier height")

    p = sub.add_parser("energies", parents=[common], help="square-well bound states")
    p.add_argument("--U", type=float, help="wall height")
    p.add_argument("--q", type=float, help="well half-width")
    p.add_argument("--parity", choices=("even", "odd", "both"), default="both")

    p = sub.add_parser("dwell", parents=[common], help="sub-barrier dwell time of a microstate")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    _add_microstate_flags(p)
    p.add_argument("--sign", choices=("plus", "minus"), default="plus", help="denominator branch")

    p = sub.add_parser("dwell-max", parents=[common], help="dwell-time supremum search")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--epsilon", type=float, help="boundary inset of |c| (default 1e-6 or config)")

    p = sub.add_parser("libration", parents=[common], help="well round-trip period of a microstate")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--q", type=float)
    _add_microstate_flags(p)

    p = sub.add_parser("libration-max", parents=[common], help="libration-period supremum search")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--epsilon", type=float)

    p = sub.add_parser("libration-inf", parents=[common], help="vanishing-period probe (A, 1/A, 0)")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--A", type=float, help="probe amplitude")

    p = sub.add_parser("trajectory", parents=[common], help="sample one region's trajectory")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--region", choices=("free", "forbidden"), required=True)
    p.add_argument("--x-start", type=float, required=True, dest="x_start")
    p.add_argument("--x-stop", type=float, required=True, dest="x_stop")
    p.add_argument("--n", type=int, default=11, help="number of samples (default 11)")
    _add_microstate_flags(p)

    p = sub.add_parser("qshje-check", parents=[common], help="stationarity residual at one point")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--region", choices=("free", "forbidden"), required=True)
    p.add_argument("--x", type=float, required=True)
    _add_microstate_flags(p)

    cov = sub.add_parser("coverage", help="past/present admissibility verdicts")
    cov_sub = cov.add_subparsers(dest="scenario", required=True, metavar="SCENARIO")

    p = cov_sub.add_parser("sb", parents=[common], help="sub-barrier step scenario")
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    _add_event_flags(p)
    _add_grid_flags(p)

    p = cov_sub.add_parser("sw", parents=[common], help="square-well scenario")
    p.add_argument("--U", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--state-index", type=int, default=0, dest="state_index")
    _add_event_flags(p)
    _add_grid_flags(p)

    p = sub.add_parser("connect", parents=[common], help="microstate linking two well events")
    p.add_argument("--U", type=float)
    p.add_argument("--q", type=float)
    p.add_argument("--state-index", type=int, default=0, dest="state_index")
    _add_event_flags(p)

    p = sub.add_parser("sweep", parents=[common], help="sweep one parameter of a quantity")
    p.add_argument(
        "--quantity",
        choices=("dwell-mono", "dwell", "libration", "libration-inf"),
        help="quantity to evaluate",
    )
    p.add_argument("--param", choices=("E", "U", "q", "a", "b", "c", "A"))
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--count", type=int)
    p.add_argument("--E", type=float)
    p.add_argument("--U", type=float)
    p.add_argument("--q", type=float)
    _add_microstate_flags(p)
    p.add_argument("--A", type=float)
    p.add_argument("--sign", choices=("plus", "minus"), default="plus")

    return parser


# ---------------------------------------------------------------------------
# flag/config resolution


def _resolve_units(args, cfg: Config) -> Units:
    hbar = args.hbar if args.hbar is not None else cfg.units.hbar
    mass = args.mass if args.mass is not None else cfg.units.mass
    try:
        return Units(hbar=hbar, mass=mass)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _resolve_E(args) -> float:
    if args.E is None:
        raise UsageError("--E is required")
    return args.E


def _resolve_U(args, cfg: Config) -> float:
    if args.U is not None:
        return args.U
    if cfg.potential is not None:
        return cfg.potential.U
    raise UsageError("--U is required (or provide a potential in --config)")


def _resolve_q(args, cfg: Config) -> float:
    if args.q is not None:
        return args.q
    if cfg.potential is not None and cfg.potential.q is not None:
        return cfg.potential.q
    raise UsageError("--q is required (or provide a well potential in --config)")


def _resolve_ms(args) -> Microstate:
    a = args.a if args.a is not None else 1.0
    b = args.b if args.b is not None else 1.0
    c = args.c if args.c is not None else 0.0
    return Microstate(a, b, c)


def _resolve_epsilon(args, cfg: Config) -> float:
    return args.epsilon if getattr(args, "epsilon", None) is not None else cfg.epsilon


def _parse_event(text: str | None, flag: str) -> Event:
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
        return Event(x, t)
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _parse_floats(text: str | None, flag: str) -> tuple[float, ...]:
    if text is None:
        raise UsageError(f"{flag} is required in relation-scan mode")
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not values:
        raise UsageError(f"{flag} must not be empty")
    return values


def _coverage_mode(args) -> str:
    pair_mode = args.past is not None or args.present is not None
    grid_mode = args.pasts is not None or args.presents is not None or args.dts is not None
    if pair_mode and grid_mode:
        raise UsageError("give either --past/--present or --pasts/--presents/--dts, not both")
    if not pair_mode and not grid_mode:
        raise UsageError("give --past/--present for one verdict or --pasts/--presents/--dts for a scan")
    return "pair" if pair_mode else "grid"


def _grid_from_args(args) -> GridSpec:
    try:
        return GridSpec(
            past_positions=_parse_floats(args.pasts, "--pasts"),
            present_positions=_parse_floats(args.presents, "--presents"),
            time_offsets=_parse_floats(args.dts, "--dts"),
            past_time=args.past_time,
        )
    except DomainError as exc:
        raise UsageError(str(exc)) from exc


def _ms_dict(ms: Microstate) -> dict:
    return {"a": ms.a, "b": ms.b, "c": ms.c}


def _meta(**extra) -> dict:
    meta = {"version": __version__}
    meta.update(extra)
    return meta


# ---------------------------------------------------------------------------
# subcommand implementations (each returns the JSON record and the CSV rows)


def _cmd_kinematics(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U = _resolve_E(args), _resolve_U(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    inputs = {"E": E, "U": U, "hbar": units.hbar, "mass": units.mass}
    outputs = {"k": kin.k, "kappa": kin.kappa, "r": kin.r}
    record = {"command": "kinematics", "inputs": inputs, "outputs": outputs, "metadata": _meta()}
    rows = [{**outputs, **inputs}]
    return record, rows


def _cmd_energies(args, cfg: Config):
    units = _resolve_units(args, cfg)
    U, q = _resolve_U(args, cfg), _resolve_q(args, cfg)
    pot = square_well(U, q)
    states = bound_state_energies(pot, units, parity=args.parity)
    listing = [
        {
            "index": i,
            "parity": s.parity,
            "E": s.E,
            "k": s.k,
            "kappa": s.kappa,
            "residual": matching_residual(s, q),
        }
        for i, s in enumerate(states)
    ]
    inputs = {"U": U, "q": q, "parity": args.parity, "hbar": units.hbar, "mass": units.mass}
    outputs = {"count": len(states), "states": listing}
    record = {
        "command": "energies",
        "inputs": inputs,
        "outputs": outputs,
        "metadata": _meta(k_tol=EIGEN_K_TOL),
    }
    return record, [dict(entry) for entry in listing]


def _cmd_dwell(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U = _resolve_E(args), _resolve_U(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    ms = _resolve_ms(args)
    result = dwell_time(kin, ms, _SIGN_BY_NAME[args.sign])
    inputs = {
        "E": E,
        "U": U,
        "a": ms.a,
        "b": ms.b,
        "c": ms.c,
        "sign": result.sign,
        "hbar": units.hbar,
        "mass": units.mass,
    }
    outputs = {"t_D": result.t_D, "monochromatic": dwell_time_monochromatic(kin)}
    record = {
        "command": "dwell",
        "inputs": inputs,
        "outputs": outputs,
        "metadata": _meta(normalization_tol=NORMALIZATION_TOL),
    }
    rows = [
        {
            "t_D": result.t_D,
            "sign": result.sign,
            "a": ms.a,
            "b": ms.b,
            "c": ms.c,
            "E": E,
            "U": U,
            "k": kin.k,
            "kappa": kin.kappa,
        }
    ]
    return record, rows


def _cmd_dwell_max(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U = _resolve_E(args), _resolve_U(args, cfg)
    epsilon = _resolve_epsilon(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    report = max_dwell(kin, epsilon)
    inputs = {"E": E, "U": U, "epsilon": epsilon, "hbar": units.hbar, "mass": units.mass}
    outputs = {
        "supremum": report.supremum,
        "supremum_extrapolated": report.supremum_extrapolated,
        "analytic_bound": report.analytic_bound,
        "attained_at_boundary": report.attained_at_boundary,
        "sign": report.sign,
        "maximizer": _ms_dict(report.maximizer),
    }
    record = {
        "command": "dwell-max",
        "inputs": inputs,
        "outputs": outputs,
        "metadata": _meta(objective_tie_tol=1e-10),
    }
    rows = [
        {
            "supremum": report.supremum,
            "supremum_extrapolated": report.supremum_extrapolated,
            "analytic_bound": report.analytic_bound,
            "epsilon": epsilon,
            "attained_at_boundary": report.attained_at_boundary,
            "sign": report.sign,
            "a": report.maximizer.a,
            "b": report.maximizer.b,
            "c": report.maximizer.c,
            "E": E,
            "U": U,
        }
    ]
    return record, rows


def _cmd_libration(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U, q = _resolve_E(args), _resolve_U(args, cfg), _resolve_q(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    ms = _resolve_ms(args)
    t_L = libration_period(kin, q, ms)
    inputs = {
        "E": E,
        "U": U,
        "q": q,
        "a": ms.a,
        "b": ms.b,
        "c": ms.c,
        "hbar": units.hbar,
        "mass": units.mass,
    }
    outputs = {"t_L": t_L}
    record = {
        "command": "libration",
        "inputs": inputs,
        "outputs": outputs,
        "metadata": _meta(normalization_tol=NORMALIZATION_TOL),
    }
    rows = [
        {
            "t_L": t_L,
            "a": ms.a,
            "b": ms.b,
            "c": ms.c,
            "E": E,
            "U": U,
            "q": q,
            "k": kin.k,
            "kappa": kin.kappa,
        }
    ]
    return record, rows


def _cmd_libration_max(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U, q = _resolve_E(args), _resolve_U(args, cfg), _resolve_q(args, cfg)
    epsilon = _resolve_epsilon(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    report = max_libration(kin, q, epsilon)
    inputs = {"E": E, "U": U, "q": q, "epsilon": epsilon, "hbar": units.hbar, "mass": units.mass}
    outputs = {
        "supremum": report.supremum,
        "supremum_extrapolated": report.supremum_extrapolated,
        "analytic_bound": report.analytic_bound,
        "alternative_bound": report.alternative_bound,
        "alternative_bound_holds": report.alternative_bound_holds,
        "attained_at_boundary": report.attained_at_boundary,
        "maximizer": _ms_dict(report.maximizer),
    }
    record = {
        "command": "libration-max",
        "inputs": inputs,
        "outputs": outputs,
        "metadata": _meta(objective_tie_tol=1e-10),
    }
    rows = [
        {
            "supremum": report.supremum,
            "supremum_extrapolated": report.supremum_extrapolated,
            "analytic_bound": report.analytic_bound,
            "alternative_bound": report.alternative_bound,
            "alternative_bound_holds": report.alternative_bound_holds,
            "epsilon": epsilon,
            "attained_at_boundary": report.attained_at_boundary,
            "a": report.maximizer.a,
            "b": report.maximizer.b,
            "c": report.maximizer.c,
            "E": E,
            "U": U,
            "q": q,
        }
    ]
    return record, rows


def _cmd_libration_inf(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U, q = _resolve_E(args), _resolve_U(args, cfg), _resolve_q(args, cfg)
    if args.A is None:
        raise UsageError("--A is required")
    kin = kinematics_from_energies(E, U, units)
    t_L = libration_infimum_probe(kin, q, args.A)
    inputs = {"E": E, "U": U, "q": q, "A": args.A, "hbar": units.hbar, "mass": units.mass}
    outputs = {"t_L": t_L}
    record = {"command": "libration-inf", "inputs": inputs, "outputs": outputs, "metadata": _meta()}
    rows = [{"t_L": t_L, "A": args.A, "E": E, "U": U, "q": q}]
    return record, rows


def _cmd_trajectory(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U = _resolve_E(args), _resolve_U(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    ms = _resolve_ms(args)
    basis = canonical_basis(args.region, kin)
    samples = sample_trajectory((args.x_start, args.x_stop), args.n, ms, basis, kin)
    listing = [
        {"x": s.x, "t": s.t, "W_x": s.W_x, "dWx_dE": s.dWx_dE, "speed": s.speed} for s in samples
    ]
    inputs = {
        "E": E,
        "U": U,
        "region": args.region,
        "x_start": args.x_start,
        "x_stop": args.x_stop,
        "n": args.n,
        "a": ms.a,
        "b": ms.b,
        "c": ms.c,
        "hbar": units.hbar,
        "mass": units.mass,
    }
    record = {
        "command": "trajectory",
        "inputs": inputs,
        "outputs": {"samples": listing},
        "metadata": _meta(),
    }
    return record, [dict(entry) for entry in listing]


def _cmd_qshje_check(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U = _resolve_E(args), _resolve_U(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    ms = _resolve_ms(args)
    basis = canonical_basis(args.region, kin)
    residual = qshje_residual(args.x, ms, basis, kin)
    threshold = 1e-8 * E
    inputs = {
        "E": E,
        "U": U,
        "region": args.region,
        "x": args.x,
        "a": ms.a,
        "b": ms.b,
        "c": ms.c,
        "hbar": units.hbar,
        "mass": units.mass,
    }
    outputs = {"residual": residual, "threshold": threshold, "within": abs(residual) <= threshold}
    record = {"command": "qshje-check", "inputs": inputs, "outputs": outputs, "metadata": _meta()}
    rows = [
        {
            "residual": residual,
            "within": abs(residual) <= threshold,
            "region": args.region,
            "x": args.x,
            "a": ms.a,
            "b": ms.b,
            "c": ms.c,
            "E": E,
            "U": U,
        }
    ]
    return record, rows


def _verdict_payload(verdict, past: Event, present: Event) -> dict:
    payload = {
        "classification": verdict.classification,
        "tr_allowed": verdict.tr_allowed,
        "copenhagen_allowed": verdict.copenhagen_allowed,
        "past": {"x": past.x, "t": past.t},
        "present": {"x": present.x, "t": present.t},
    }
    if verdict.witness is not None:
        payload["witness"] = _ms_dict(verdict.witness)
    return payload


def _relation_payload(report) -> dict:
    return {
        "scenario": report.scenario,
        "relation": report.relation,
        "counts": dict(report.counts),
        "total": report.total,
        "notes": list(report.notes),
    }


def _relation_rows(report) -> list[dict]:
    return [
        {
            "scenario": report.scenario,
            "relation": report.relation,
            "BothAllow": report.counts["BothAllow"],
            "CopenhagenOnly": report.counts["CopenhagenOnly"],
            "TROnly": report.counts["TROnly"],
            "NeitherAllow": report.counts["NeitherAllow"],
            "total": report.total,
        }
    ]


def _cmd_coverage_sb(args, cfg: Config):
    units = _resolve_units(args, cfg)
    E, U = _resolve_E(args), _resolve_U(args, cfg)
    kin = kinematics_from_energies(E, U, units)
    inputs = {"E": E, "U": U, "hbar": units.hbar, "mass": units.mass}
    if _coverage_mode(args) == "pair":
        past = _parse_event(args.past, "--past")
        present = _parse_event(args.present, "--present")
        verdict = sb_verdict(past, present, kin)
        outputs = _verdict_payload(verdict, past, present)
        outputs["elapsed"] = present.t - past.t
        outputs["dwell_bound"] = dwell_supremum_bound(kin)
        record = {
            "command": "coverage-sb",
            "inputs": inputs,
            "outputs": outputs,
            "metadata": _meta(),
        }
        rows = [
            {
                "classification": verdict.classification,
                "tr_allowed": verdict.tr_allowed,
                "copenhagen_allowed": verdict.copenhagen_allowed,
                "past_x": past.x,
                "past_t": past.t,
                "present_x": present.x,
                "present_t": present.t,
                "elapsed": present.t - past.t,
                "dwell_bound": dwell_supremum_bound(kin),
            }
        ]
        return record, rows
    grid = _grid_from_args(args)
    report = set_relation_report(SCENARIO_SB, grid, kin=kin)
    record = {
        "command": "coverage-sb",
        "inputs": {
            **inputs,
            "pasts": list(grid.past_positions),
            "presents": list(grid.present_positions),
            "dts": list(grid.time_offsets),
            "past_time": grid.past_time,
        },
        "outputs": _relation_payload(report),
        "metadata": _meta(),
    }
    return record, _relation_rows(report)


def _cmd_coverage_sw(args, cfg: Config):
    units = _resolve_units(args, cfg)
    U, q = _resolve_U(args, cfg), _resolve_q(args, cfg)
    state = well_eigenstate(square_well(U, q), units, args.state_index)
    inputs = {
        "U": U,
        "q": q,
        "state_index": args.state_index,
        "parity": state.parity,
        "E": state.kinematics.E,
        "hbar": units.hbar,
        "mass": units.mass,
    }
    if _coverage_mode(args) == "pair":
        past = _parse_event(args.past, "--past")
        present = _parse_event(args.present, "--present")
        verdict = sw_verdict(past, present, state)
        outputs = _verdict_payload(verdict, past, present)
        outputs["present_density"] = copenhagen_density(state, present.x)
        record = {
            "command": "coverage-sw",
            "inputs": inputs,
            "outputs": outputs,
            "metadata": _meta(node_density_floor=NODE_DENSITY_FLOOR),
        }
        witness = verdict.witness
        rows = [
            {
                "classification": verdict.classification,
                "tr_allowed": verdict.tr_allowed,
                "copenhagen_allowed": verdict.copenhagen_allowed,
                "past_x": past.x,
                "past_t": past.t,
                "present_x": present.x,
                "present_t": present.t,
                "witness_a": witness.a if witness else None,
                "witness_b": witness.b if witness else None,
                "witness_c": witness.c if witness else None,
                "present_density": copenhagen_density(state, present.x),
            }
        ]
        return record, rows
    grid = _grid_from_args(args)
    scenario = SCENARIO_SW_BOUND if args.state_index == 0 else SCENARIO_SW_EXCITED
    report = set_relation_report(scenario, grid, state=state)
    record = {
        "command": "coverage-sw",
        "inputs": {
            **inputs,
            "pasts": list(grid.past_positions),
            "presents": list(grid.present_positions),
            "dts": list(grid.time_offsets),
            "past_time": grid.past_time,
        },
        "outputs": _relation_payload(report),
        "metadata": _meta(node_density_floor=NODE_DENSITY_FLOOR),
    }
    return record, _relation_rows(report)


def _cmd_connect(args, cfg: Config):
    units = _resolve_units(args, cfg)
    U, q = _resolve_U(args, cfg), _resolve_q(args, cfg)
    state = well_eigenstate(square_well(U, q), units, args.state_index)
    past = _parse_event(args.past, "--past")
    present = _parse_event(args.present, "--present")
    solution = connect(past, present, state)
    inputs = {
        "U": U,
        "q": q,
        "state_index": args.state_index,
        "past": {"x": past.x, "t": past.t},
        "present": {"x": present.x, "t": present.t},
        "hbar": units.hbar,
        "mass": units.mass,
    }
    outputs = {
        "microstate": _ms_dict(solution.ms),
        "whole_periods": solution.whole_periods,
        "phase_offset": solution.phase_offset,
        "realized_period": solution.realized_period,
        "arrival_time": solution.arrival_time,
    }
    record = {"command": "connect", "inputs": inputs, "outputs": outputs, "metadata": _meta()}
    rows = [
        {
            "a": solution.ms.a,
            "b": solution.ms.b,
            "c": solution.ms.c,
            "whole_periods": solution.whole_periods,
            "phase_offset": solution.phase_offset,
            "realized_period": solution.realized_period,
            "arrival_time": solution.arrival_time,
            "past_x": past.x,
            "past_t": past.t,
            "present_x": present.x,
            "present_t": present.t,
        }
    ]
    return record, rows


def _cmd_sweep(args, cfg: Config):
    units = _resolve_units(args, cfg)
    quantity = args.quantity
    if quantity is None:
        raise UsageError("--quantity is required")
    spec = cfg.sweep
    param = args.param if args.param is not None else (spec.param if spec else None)
    start = args.start if args.start is not None else (spec.start if spec else None)
    stop = args.stop if args.stop is not None else (spec.stop if spec else None)
    count = args.count if args.count is not None else (spec.count if spec else None)
    if param is None or start is None or stop is None or count is None:
        raise UsageError("--param, --start, --stop and --count are required (flags or config sweep)")
    if count < 2:
        raise UsageError("--count must be at least 2")

    base = {
        "E": args.E,
        "U": args.U if args.U is not None else (cfg.potential.U if cfg.potential else None),
        "q": args.q
        if args.q is not None
        else (cfg.potential.q if cfg.potential and cfg.potential.q is not None else None),
        "a": args.a if args.a is not None else 1.0,
        "b": args.b if args.b is not None else 1.0,
        "c": args.c if args.c is not None else 0.0,
        "A": args.A,
    }
    needed_by_quantity = {
        "dwell-mono": ("E", "U"),
        "dwell": ("E", "U", "a", "b", "c"),
        "libration": ("E", "U", "q", "a", "b", "c"),
        "libration-inf": ("E", "U", "q", "A"),
    }
    needed = needed_by_quantity[quantity]
    for name in needed:
        if name != param and base[name] is None:
            raise UsageError(f"--{name} is required for quantity {quantity!r}")
    if param not in needed:
        raise UsageError(f"parameter {param!r} does not enter quantity {quantity!r}")

    def evaluate(value: float) -> float:
        params = dict(base)
        params[param] = value
        kin = kinematics_from_energies(params["E"], params["U"], units)
        if quantity == "dwell-mono":
            return dwell_time_monochromatic(kin)
        if quantity == "libration-inf":
            return libration_infimum_probe(kin, params["q"], params["A"])
        # A swept coefficient leaves the normalized slice; rescale the triple back onto it.
        triple = (params["a"], params["b"], params["c"])
        ms = normalize(*triple) if param in ("a", "b", "c") else Microstate(*triple)
        if quantity == "dwell":
            return dwell_time(kin, ms, _SIGN_BY_NAME[args.sign]).t_D
        return libration_period(kin, params["q"], ms)

    values = [float(v) for v in np.linspace(start, stop, count)]
    points = [{"value": v, "result": evaluate(v)} for v in values]
    inputs = {
        "quantity": quantity,
        "param": param,
        "start": start,
        "stop": stop,
        "count": count,
        "base": {k: v for k, v in base.items() if v is not None},
        "sign": args.sign,
        "hbar": units.hbar,
        "mass": units.mass,
    }
    record = {
        "command": "sweep",
        "inputs": inputs,
        "outputs": {"points": points},
        "metadata": _meta(),
    }
    rows = [
        {"param": param, "value": p["value"], "quantity": quantity, "result": p["result"]}
        for p in points
    ]
    return record, rows


_DISPATCH = {
    "kinematics": _cmd_kinematics,
    "energies": _cmd_energies,
    "dwell": _cmd_dwell,
    "dwell-max": _cmd_dwell_max,
    "libration": _cmd_libration,
    "libration-max": _cmd_libration_max,
    "libration-inf": _cmd_libration_inf,
    "trajectory": _cmd_trajectory,
    "qshje-check": _cmd_qshje_check,
    "connect": _cmd_connect,
    "sweep": _cmd_sweep,
}


def run(argv: list[str] | None = None) -> int:
    """Parse ``argv``, execute the subcommand, and return the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help exits through argparse
        return 0 if exc.code in (0, None) else 1

    try:
        cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
        if args.command == "coverage":
            handler = _cmd_coverage_sb if args.scenario == "sb" else _cmd_coverage_sw
        else:
            handler = _DISPATCH[args.command]
        record, rows = handler(args, cfg)
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except TrdwellError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2

    text = json_dumps(record, pretty=args.pretty) if args.format == "json" else csv_dumps(rows)
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
