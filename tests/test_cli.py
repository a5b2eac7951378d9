"""Command-line surface: golden files, exit codes, config handling."""

import argparse
import functools
import json
import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trdwell
from trdwell import cli
from trdwell.cli import COMMANDS, _linspace, run
from trdwell.errors import ScanNotSettled
from trdwell.microstate import MONOCHROMATIC, normalize
from trdwell.potential import (
    _SCALAR_SLOTS,
    BoundState,
    Units,
    bound_state,
    bound_state_energies,
    kinematics_from_energies,
    square_well,
)
from trdwell.times import SIGN_PLUS, dwell_time
from trdwell.trajectory import divergence_onset
from trdwell.wavefield import canonical_basis

from angle_oracle import angle_root, state_errors, well_p

GOLDEN = Path(__file__).parent / "golden"

# one frozen fixture per subcommand (plus a CSV twin where the column
# contract matters); outputs are compared byte for byte
GOLDEN_CASES = [
    ("kinematics.json", ["kinematics", "--E", "0.18", "--U", "0.5"]),
    ("energies.json", ["energies", "--U", "1", "--q", "2"]),
    (
        "dwell.json",
        ["dwell", "--E", "0.18", "--U", "0.5", "--a", "2", "--b", "1", "--c", "2", "--sign", "minus"],
    ),
    (
        "dwell.csv",
        [
            "dwell", "--E", "0.18", "--U", "0.5", "--a", "2", "--b", "1", "--c", "2",
            "--sign", "minus", "--format", "csv",
        ],
    ),
    ("dwell-max.json", ["dwell-max", "--E", "0.18", "--U", "0.5"]),
    (
        "libration.json",
        ["libration", "--E", "0.18", "--U", "0.5", "--q", "1", "--a", "2", "--b", "1", "--c", "2"],
    ),
    ("libration-max.json", ["libration-max", "--E", "0.18", "--U", "0.5", "--q", "1"]),
    ("libration-inf.json", ["libration-inf", "--E", "0.18", "--U", "0.5", "--q", "1", "--A", "1e4"]),
    (
        "trajectory.csv",
        [
            "trajectory", "--E", "0.18", "--U", "0.5", "--region", "forbidden",
            "--x-start", "0", "--x-stop", "2", "--n", "5", "--format", "csv",
        ],
    ),
    (
        "qshje-check.json",
        [
            "qshje-check", "--E", "0.18", "--U", "0.5", "--region", "forbidden",
            "--x", "0.9", "--a", "2", "--b", "1", "--c", "2",
        ],
    ),
    (
        "coverage-sb.json",
        [
            "coverage", "sb", "--E", "0.18", "--U", "0.5", "--pasts", "0",
            "--presents", "0.3,1.2", "--dts", "2,8,11,14",
        ],
    ),
    (
        "coverage-sw.json",
        [
            "coverage", "sw", "--U", "1", "--q", "2", "--state-index", "1", "--pasts=-1",
            "--presents=-0.5,0,1", "--dts", "10,25,40,55",
        ],
    ),
    (
        "connect.json",
        ["connect", "--U", "1", "--q", "2", "--state-index", "0", "--past=-1,0", "--present", "0.5,40"],
    ),
    (
        "sweep.csv",
        [
            "sweep", "--quantity", "dwell-mono", "--param", "E", "--start", "0.1",
            "--stop", "0.4", "--count", "11", "--U", "0.5", "--format", "csv",
        ],
    ),
]


SURFACE = Path(__file__).parent / "surface"

# the whole stdout surface: every subcommand, and both modes (event pair and
# relation grid) of each coverage scenario, each frozen in JSON and in CSV
SURFACE_CASES = [
    ("kinematics", ["kinematics", "--E", "0.18", "--U", "0.5"]),
    ("energies", ["energies", "--U", "1", "--q", "2"]),
    ("dwell", ["dwell", "--E", "0.18", "--U", "0.5", "--a", "2", "--b", "1", "--c", "2", "--sign", "minus"]),
    ("dwell-max", ["dwell-max", "--E", "0.18", "--U", "0.5"]),
    ("libration", ["libration", "--E", "0.18", "--U", "0.5", "--q", "1", "--a", "2", "--b", "1", "--c", "2"]),
    ("libration-max", ["libration-max", "--E", "0.18", "--U", "0.5", "--q", "1"]),
    ("libration-inf", ["libration-inf", "--E", "0.18", "--U", "0.5", "--q", "1", "--A", "1e4"]),
    (
        "trajectory",
        [
            "trajectory", "--E", "0.18", "--U", "0.5", "--region", "forbidden",
            "--x-start", "0", "--x-stop", "2", "--n", "5",
        ],
    ),
    (
        "qshje-check",
        [
            "qshje-check", "--E", "0.18", "--U", "0.5", "--region", "forbidden",
            "--x", "0.9", "--a", "2", "--b", "1", "--c", "2",
        ],
    ),
    (
        "coverage-sb-grid",
        [
            "coverage", "sb", "--E", "0.18", "--U", "0.5", "--pasts", "0",
            "--presents", "0.3,1.2", "--dts", "2,8,11,14",
        ],
    ),
    ("coverage-sb-pair", ["coverage", "sb", "--E", "0.18", "--U", "0.5", "--past", "0.1,0", "--present", "0.4,3"]),
    (
        "coverage-sw-grid",
        [
            "coverage", "sw", "--U", "1", "--q", "2", "--state-index", "1", "--pasts=-1",
            "--presents=-0.5,0,1", "--dts", "10,25,40,55",
        ],
    ),
    (
        "coverage-sw-pair",
        ["coverage", "sw", "--U", "1", "--q", "2", "--state-index", "1", "--past=-1,0", "--present", "0,25"],
    ),
    ("connect", ["connect", "--U", "1", "--q", "2", "--state-index", "0", "--past=-1,0", "--present", "0.5,40"]),
    (
        "sweep",
        [
            "sweep", "--quantity", "dwell", "--param", "c", "--start", "0", "--stop", "1.9",
            "--count", "4", "--E", "0.18", "--U", "0.5", "--sign", "minus",
        ],
    ),
]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("name,argv", SURFACE_CASES, ids=[c[0] for c in SURFACE_CASES])
def test_stdout_surface_matches_its_snapshot(name, argv, fmt, capsys):
    status = run([*argv, "--format", fmt])
    captured = capsys.readouterr()
    assert status == 0
    assert captured.err == ""
    assert captured.out == (SURFACE / f"{name}.{fmt}").read_text(encoding="utf-8")


@pytest.mark.parametrize("name,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs_are_byte_identical(name, argv, capsys):
    status = run(argv)
    captured = capsys.readouterr()
    assert status == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text(encoding="utf-8")


def test_all_subcommands_have_a_golden_fixture():
    # read from the command table, so a subcommand added without a fixture fails here
    covered = {argv[0] if argv[0] != "coverage" else f"coverage-{argv[1]}" for _, argv in GOLDEN_CASES}
    assert covered == set(COMMANDS)


def _choices(parser) -> dict:
    """The subcommands of ``parser``, by name."""
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _subparser(parser, words):
    """The parser that ``words`` (``["dwell"]``, ``["coverage", "sb"]``) reach from ``parser``."""
    for word in words:
        parser = _choices(parser)[word]
    return parser


@pytest.mark.parametrize("name", COMMANDS)
def test_the_one_command_parser_gives_the_full_trees_help(name):
    words = cli._words(name)
    full, one = cli.build_parser(), cli.build_parser([*words, "--help"])
    assert list(_choices(_subparser(one, words[:-1]))) == [words[-1]]  # the named command alone
    assert _subparser(one, words).format_help() == _subparser(full, words).format_help()


_DWELL = ["dwell", "--E", "0.18", "--U", "0.5"]

# every way an invocation can go wrong before a command runs, and the help of each level
MALFORMED = [
    [],
    ["no-such-command"],
    ["coverage-sb"],  # a key of the command table, not a command
    ["coverage"],
    ["coverage", "no-such-scenario"],
    ["coverage", "--E", "0.18", "sb"],
    ["--format", "csv", *_DWELL],
    [*_DWELL, "--no-such-flag", "1"],
    [*_DWELL, "extra"],
    [*_DWELL, "--sign", "sideways"],
    [*_DWELL, "--E", "abc"],
    [*_DWELL, "--si", "minus"],  # an abbreviated flag
    ["dwell", "--E"],
    ["trajectory", "--E", "0.18", "--U", "0.5", "--x-start", "0", "--x-stop", "1"],
    ["qshje-check", "--E", "0.18", "--U", "0.5", "--region", "free"],
    ["energies", "--U", "1", "--q", "2", "--parity", "neither"],
    ["coverage", "sw", "--U", "1", "--q", "2", "--state-index", "one"],
    ["--help"],
    ["-h", "dwell"],
    ["coverage", "--help"],
    *([*cli._words(name), "--help"] for name in COMMANDS),
]


@pytest.mark.parametrize("argv", MALFORMED, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_the_one_command_parser_fails_as_the_full_tree_fails(argv, monkeypatch, capsys):
    one = run(argv), *capsys.readouterr()
    full_tree = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda argv: full_tree())
    assert (run(argv), *capsys.readouterr()) == one


def _child_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(trdwell.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _python(script: str) -> str:
    """Stdout of ``script`` run by a fresh interpreter that imports this package."""
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), timeout=60, check=True
    )
    return result.stdout


def _modules_loaded(argvs, modules) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """Which of ``modules`` a fresh interpreter has loaded after importing the package and the CLI,
    then (exit code, loaded) after each of ``argvs``, run one after another in that interpreter."""
    script = (
        "import contextlib, io, json, sys, trdwell\n"
        "from trdwell.cli import run\n"
        f"loaded = lambda: [m for m in {list(modules)!r} if m in sys.modules]\n"
        "after_import, runs = loaded(), []\n"
        f"for argv in {[list(argv) for argv in argvs]!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = run(argv)\n"
        "    runs.append((code, loaded()))\n"
        "print(json.dumps([after_import, runs]))\n"
    )
    after_import, runs = json.loads(_python(script).splitlines()[-1])
    return after_import, [(code, loaded) for code, loaded in runs]


def test_scipy_solvers_load_only_when_used():
    # scipy is a test-only dependency: importing the package, listing well
    # energies, sampling a trajectory, checking the QSHJE residual or
    # reporting either supremum must not load any of it.
    golden = dict(GOLDEN_CASES)
    names = ("energies.json", "trajectory.csv", "qshje-check.json", "dwell-max.json", "libration-max.json")
    after_import, runs = _modules_loaded(
        [golden[name] for name in names], ("scipy", "scipy.optimize", "scipy.integrate")
    )
    assert (after_import, runs) == ([], [(0, [])] * 5)


# the error exits of the acceptance suite's C13, which the cold-start benchmark also runs
ERROR_CASES = [
    ([], 1),
    (["no-such-command"], 1),
    (["dwell", "--E", "0.7", "--U", "0.5", "--a", "1", "--b", "1", "--c", "0"], 2),
]


def test_numpy_loads_only_for_the_array_layers():
    # only ladders of at least _SCALAR_SLOTS slots work on arrays: importing the package and
    # every golden or error invocation (the extremal reports are closed forms; the 2-state
    # energies golden, connect and coverage sw solve slot by slot) must not load numpy, and a
    # ladder of 37 slots run after them still must
    assert len(bound_state_energies(square_well(1.0, 40.0))) == 37 >= _SCALAR_SLOTS
    cases = [(argv, 0) for _, argv in GOLDEN_CASES] + ERROR_CASES + [(["energies", "--U", "1", "--q", "40"], 0)]
    after_import, runs = _modules_loaded([argv for argv, _ in cases], ("numpy",))
    assert after_import == []
    assert runs == [(code, []) for _, code in cases[:-1]] + [(0, ["numpy"])]


def test_the_divergence_onset_search_loads_no_numpy():
    # the onset search is scalar: a fresh interpreter gives the onsets, and the ScanNotSettled past
    # the doubles, that this one gives, and numpy stays unloaded
    kin = kinematics_from_energies(0.18, 0.5)
    basis = canonical_basis("forbidden", kin)
    floors = (1e2, 1e4, 1e300)
    script = (
        "import sys, trdwell as t\n"
        "kin = t.kinematics_from_energies(0.18, 0.5)\n"
        "basis = t.canonical_basis('forbidden', kin)\n"
        f"onsets = [t.divergence_onset(kin, t.MONOCHROMATIC, basis, M) for M in {floors!r}]\n"
        "try:\n"
        "    t.divergence_onset(kin, t.MONOCHROMATIC, basis, 1e307)\n"
        "except t.ScanNotSettled as exc:\n"
        "    onsets.append(str(exc))\n"
        "print(repr(onsets), 'numpy' in sys.modules)\n"
    )
    onsets = [divergence_onset(kin, MONOCHROMATIC, basis, M) for M in floors]
    with pytest.raises(ScanNotSettled) as info:
        divergence_onset(kin, MONOCHROMATIC, basis, 1e307)
    assert _python(script).splitlines()[-1] == f"{[*onsets, str(info.value)]!r} False"


# the modules each command loads besides config, errors, kinematics and serialize, which the
# command line imports for every invocation; only the well commands load the ladder (potential)
_TIMES = ("microstate", "times")
_COVERAGE = ("microstate", "wavefield", "times", "coverage")
LAYERS_BY_COMMAND = {
    "kinematics": (),
    "energies": ("potential",),
    "dwell": _TIMES,
    "dwell-max": _TIMES,
    "libration": _TIMES,
    "libration-max": _TIMES,
    "libration-inf": _TIMES,
    "sweep": _TIMES,
    "qshje-check": ("microstate", "wavefield"),
    "trajectory": ("microstate", "wavefield", "trajectory"),
    "coverage-sb": _COVERAGE,
    "coverage-sw": ("potential", *_COVERAGE),
    "connect": ("potential", *_COVERAGE),
}

#: Every public name of the package, as listed before its exports became lazy.
PUBLIC_NAMES = """
BOTH_ALLOW BasisRescale BoundState COPENHAGEN_ONLY Config ConfigError ConnectionSolution
CopenhagenState CoverageVerdict DegenerateMicrostate DomainError DwellResult Event
ExtremalReport FORBIDDEN FREE FlightTime GridSpec Infeasible Kinematics MONOCHROMATIC Microstate
NEITHER_ALLOW OptimizationFailure Potential RawCoefficients RegionBasis
RelationReport SIGN_MINUS SIGN_PLUS SQUARE_WELL STEP_BARRIER ScanNotSettled StepUnderflow
SweepSpec TR_ONLY TrajectorySample TrdwellError Units admissible barrier_scattering bilinear
bound_state_energies canonical_basis conjugate_momentum connect copenhagen_density
divergence_onset dwell_supremum_bound dwell_time dwell_time_monochromatic find_nodes
is_monochromatic kinematics_from_energies libration_alternative_bound libration_infimum_probe
libration_period libration_period_monochromatic libration_supremum_bound load_config
make_kinematics matching_residual max_dwell max_libration momentum_derivatives
momentum_energy_derivative normalize qshje_residual reduced_action sample_trajectory sb_verdict
set_relation_report slice_period_max slice_period_roots speed_at square_well step_barrier
sw_verdict time_of_flight transform_basis well_eigenstate
"""


def _cold_imports(argv) -> tuple[int, set[str]]:
    """Exit code of a fresh ``python -m trdwell.cli *argv``, and the ``trdwell`` submodules (plus
    numpy, dataclasses, inspect, json and csv) it loaded, read from the ``import 'name'`` lines of ``python -v``."""
    proc = subprocess.run(
        [sys.executable, "-v", "-m", "trdwell.cli", *argv],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    names = {line.split("'")[1] for line in proc.stderr.splitlines() if line.startswith("import '")}
    submodules = {name.removeprefix("trdwell.") for name in names if name.startswith("trdwell.")}
    return proc.returncode, submodules | (names & {"numpy", "dataclasses", "inspect", "json", "csv"})


# labels of ERROR_CASES, in order
ERROR_NAMES = ("exit 1: no command", "exit 1: unknown command", "exit 2: E above U")


@functools.lru_cache(maxsize=None)
def _cold_runs() -> tuple[tuple[str, int, frozenset], ...]:
    """(name, exit code, modules loaded) of one cold interpreter per golden fixture and per C13 error exit."""
    names = [name for name, _ in GOLDEN_CASES] + list(ERROR_NAMES)
    argvs = [argv for _, argv in GOLDEN_CASES] + [argv for argv, _ in ERROR_CASES]
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(_cold_imports, argvs))
    return tuple((name, code, frozenset(loaded)) for name, (code, loaded) in zip(names, got))


def _command(argv) -> str:
    """The COMMANDS key of an invocation: ``coverage-sb`` for ``coverage sb``."""
    return argv[0] if argv[0] != "coverage" else f"coverage-{argv[1]}"


def test_each_invocation_imports_only_the_layers_it_runs():
    # one cold interpreter per golden fixture and per C13 error exit; the error exits
    # (usage errors, and a dwell whose kinematics are rejected) stop before any layer loads
    # or any output is written.  None loads dataclasses or inspect (the records are plain
    # slotted classes), and each output loads the module of its own format only.
    always = {"config", "errors", "kinematics", "serialize"}
    expected = [
        (0, always | set(LAYERS_BY_COMMAND[_command(argv)]) | {name.rsplit(".", 1)[1]}) for name, argv in GOLDEN_CASES
    ]
    expected += [(code, always) for _, code in ERROR_CASES]
    assert [(code, set(loaded)) for _, code, loaded in _cold_runs()] == expected


#: Most non-blank lines of ``trdwell`` source that a cold invocation compiles: ``__init__.py``,
#: ``cli.py`` (run as ``__main__``) and every module it loads.  With no bytecode cache, compiling
#: is most of what the package adds to a cold start, so a line added where every command loads it
#: costs every invocation; put it beside the commands that run it.
COMPILED_LINES = {
    "kinematics.json": 958,
    "energies.json": 1237,
    "dwell.json": 1288,
    "dwell.csv": 1288,
    "dwell-max.json": 1288,
    "libration.json": 1288,
    "libration-max.json": 1288,
    "libration-inf.json": 1288,
    "trajectory.csv": 1582,
    "qshje-check.json": 1348,
    "coverage-sb.json": 1936,
    "coverage-sw.json": 2215,
    "connect.json": 2215,
    "sweep.csv": 1288,
    "exit 1: no command": 958,
    "exit 1: unknown command": 958,
    "exit 2: E above U": 958,
}


#: The non-blank lines of each module of the package.
SOURCE_LINES = {
    path.stem: sum(1 for line in path.read_text(encoding="utf-8").splitlines() if line.strip())
    for path in Path(trdwell.__file__).parent.glob("*.py")
}


def test_each_invocation_compiles_at_most_its_budget_of_source_lines():
    compiled = {
        name: sum(SOURCE_LINES[module] for module in {"__init__", "cli", *loaded} if module in SOURCE_LINES)
        for name, _, loaded in _cold_runs()
    }
    assert compiled.keys() == COMPILED_LINES.keys()
    assert {name: lines for name, lines in compiled.items() if lines > COMPILED_LINES[name]} == {}


@pytest.mark.parametrize("command", [["connect"], ["coverage", "sw"]])
def test_well_commands_on_a_state_just_under_the_top(command, capsys):
    # P = sqrt(2) q sits 1e-9 above pi/2: the top state's E rounds to U, and its witness needs the
    # small kappa, which the angle root at the library's double P gives
    argv = [*command, "--U", "1", "--q", "1.1107207356503122", "--state-index", "1"]
    argv += ["--past", "0,0", "--present", "0.5,3"]
    assert run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    outputs = json.loads(captured.out)["outputs"]
    k_max, P = well_p(1.0, 1.1107207356503122)
    c, s = angle_root(P, 1)
    with mpmath.workdps(40):
        q, k_max = mpmath.mpf(1.1107207356503122), mpmath.mpf(k_max)
        E, r, length = c * c, s / c, q + 1 / (k_max * s)
        prefactor = 4 / E * length * mpmath.sqrt(1 / (2 * E))
        crossing = q / (2 * length)
        period = 3 / (1 + crossing * 0.5 / (2 * q))  # one whole period, and the phase from x = 0 to 0.5
        tau_r = period / prefactor * r
        a = 2 * tau_r * r / (1 + mpmath.sqrt(1 - 4 * tau_r * tau_r))
    witness = outputs["microstate" if command == ["connect"] else "witness"]
    assert witness["a"] == pytest.approx(float(a), rel=1e-14, abs=0.0)
    assert witness["a"] == pytest.approx(5.8136767715551145e-27, rel=1e-15, abs=0.0)


def test_subnormal_well_width_lists_its_states_with_empty_stderr():
    # one slot, so the pass is solved without numpy, whose slot top (i + 1) pi/(2q) overflowed with a warning;
    # U = 1e10 keeps k_max q = 1.4e-305 and kappa normal, where U = 1 is refused (TestExitCodes)
    proc = subprocess.run(
        [sys.executable, "-m", "trdwell.cli", "energies", "--U", "1e10", "--q", "1e-310"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    outputs = json.loads(proc.stdout)["outputs"]
    assert outputs["count"] == 1
    # the 50-digit root of P cos theta = theta at P = sqrt(2e10) fl(1e-310)
    assert outputs["states"][0]["kappa"] == pytest.approx(1.9999999999999938898655e-300, rel=2.0**-50, abs=0.0)


@pytest.mark.parametrize(
    "U, q, count", [("1e6", "1e6", "900316317"), ("1e300", "1e-140", "9003163162")], ids=["deep", "wide"]
)
def test_a_ladder_too_large_to_hold_exits_2_naming_its_count(U, q, count):
    # refused before any slot is solved: at some 212 bytes a state, the first alone would need about 190 GB
    proc = subprocess.run(
        [sys.executable, "-m", "trdwell.cli", "energies", "--U", U, "--q", q],
        capture_output=True, text=True, env=_child_env(), timeout=20,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"the ladder holds {count} states" in proc.stderr


def test_package_exports_load_the_library_on_first_access():
    script = (
        "import json, sys, trdwell\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('trdwell.'))\n"
        "bare, unknown = loaded(), hasattr(trdwell, 'no_such_name')\n"
        "after_unknown = loaded()\n"
        "trdwell.Units\n"
        "print(json.dumps([bare, unknown, after_unknown, loaded(), trdwell.__all__]))\n"
    )
    bare, unknown, after_unknown, after_access, exported = json.loads(_python(script).splitlines()[-1])
    assert (bare, unknown, after_unknown) == ([], False, [])
    layers = "config coverage errors kinematics microstate potential times trajectory wavefield"
    assert after_access == [f"trdwell.{name}" for name in layers.split()]
    assert exported == sorted(PUBLIC_NAMES.split())


_finite = st.floats(allow_nan=False, allow_infinity=False)


@given(_finite, _finite, st.integers(2, 200))
@example(0.1, 0.4, 11)
@example(3.0, 3.0, 5)  # start == stop
@example(-0.0, 0.0, 4)  # signed zeros
@example(1.9, -2.5, 7)  # reversed
@example(5e-324, 2e-323, 9)  # subnormal span: the step underflows to zero
@example(-1.7e308, 1.7e308, 3)  # the span overflows
@example(1e308, 1.7976931348623157e308, 200)
@settings(max_examples=300, deadline=None)
def test_sweep_grid_is_numpy_linspace_bit_for_bit(start, stop, count):
    with np.errstate(all="ignore"):
        expected = np.linspace(start, stop, count).tolist()
    got = _linspace(start, stop, count)
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        if math.isnan(y):  # 0 * inf at the first point of an overflowing span
            assert math.isnan(x)
        else:
            assert x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def test_golden_outputs_need_no_scipy():
    # with scipy made unimportable, every golden invocation prints its golden bytes
    script = (
        "import contextlib, io, json, sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "from trdwell.cli import run\n"
        "outputs = []\n"
        f"for argv in {[argv for _, argv in GOLDEN_CASES]!r}:\n"
        "    buffer = io.StringIO()\n"
        "    with contextlib.redirect_stdout(buffer):\n"
        "        code = run(argv)\n"
        "    outputs.append([code, buffer.getvalue()])\n"
        "print(json.dumps(outputs))\n"
    )
    outputs = json.loads(_python(script).splitlines()[-1])
    assert len(outputs) == len(GOLDEN_CASES)
    for (name, _), (code, out) in zip(GOLDEN_CASES, outputs):
        assert code == 0, name
        assert out == (GOLDEN / name).read_text(encoding="utf-8"), name


def test_repeat_runs_are_deterministic(capsys):
    argv = ["dwell-max", "--E", "0.18", "--U", "0.5"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        assert run(["kinematics", "--E", "0.18", "--U", "0.5"]) == 0
        capsys.readouterr()

    def test_help_is_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["dwell", "--help"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_is_usage(self, capsys):
        assert run([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand_is_usage(self, capsys):
        assert run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_unknown_flag_is_usage(self, capsys):
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--nope"]) == 1
        capsys.readouterr()

    def test_missing_required_flag_is_usage(self, capsys):
        assert run(["trajectory", "--E", "0.18", "--U", "0.5"]) == 1
        err = capsys.readouterr().err
        assert "--region" in err

    def test_unparseable_number_is_usage(self, capsys):
        assert run(["kinematics", "--E", "lots", "--U", "0.5"]) == 1
        capsys.readouterr()

    def test_energy_above_barrier_is_domain(self, capsys):
        assert run(["dwell", "--E", "0.6", "--U", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "domain error" in err and "below" in err

    def test_degenerate_microstate_is_domain(self, capsys):
        assert run(["dwell", "--E", "0.18", "--U", "0.5", "--a", "1", "--b", "1", "--c", "2"]) == 2
        capsys.readouterr()

    def test_a_triple_whose_products_overflow_is_domain(self, capsys):
        # ab and c^2/4 overflow to inf, so ab - c^2/4 is nan: the triple is off the slice, not its normalized image
        argv = ["dwell", "--E", "0.18", "--U", "0.5", "--a", "1e200", "--b", "1e200", "--c", "1e200"]
        assert run(argv) == 2
        message = "domain error: coefficients are not normalized: ab - c^2/4 = nan; use normalize()\n"
        assert capsys.readouterr() == ("", message)

    def test_overflow_deep_in_the_barrier_is_domain(self, capsys):
        # e^{kappa x} leaves the float range at x = 1000; the basis saturates
        # and the denominator check reports it instead of an OverflowError.
        region = ["--E", "0.18", "--U", "0.5", "--region", "forbidden"]
        assert run(["qshje-check", *region, "--x", "1000"]) == 2
        argv = ["trajectory", *region, "--x-start", "0", "--x-stop", "1000", "--n", "2"]
        assert run(argv) == 2
        assert "bilinear denominator" in capsys.readouterr().err

    def test_a_trajectory_past_the_sample_cap_is_domain_naming_it(self, capsys):
        # e^(kappa x) overflows at the first point, so a missing cap fails at once instead of sampling
        region = ["--E", "0.18", "--U", "0.5", "--region", "forbidden"]
        argv = ["trajectory", *region, "--x-start", "1000", "--x-stop", "2000"]
        assert run([*argv, "--n", "1048577"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: the sample count must be an integer from 2 to 1048576, got 1048577\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--U", "1", "--q", "5e-324"], "the well's k_max q = 5e-324 underflows the normal doubles"),
            (
                ["--U", "5e-121", "--hbar", "1e100", "--q", "1"],
                "state 0 underflows the normal doubles: k = 1.0000000000000001e-160, kappa = 1e-320",
            ),
            (["--U", "1e19", "--q", "3e-323"], "the well's k_max q = 1.32571724334e-313 underflows the normal doubles"),
            (["--U", "1", "--q", "1e-310"], "the well's k_max q = 1.4142135623731e-310 underflows the normal doubles"),
        ],
        ids=["P-subnormal", "kappa-subnormal", "P-subnormal-deep", "P-subnormal-width"],
    )
    def test_a_ladder_state_beyond_the_normal_doubles_is_domain(self, argv, message, capsys):
        # printed, kappa lost digits: 4.94e-324 for about 9.88e-324, 9.9998886718268301e-321 for about
        # 1.0000e-320, and 5.9287877500955163e-304 for the 50-digit 5.9287877500949585e-304 (9e-14 off)
        assert run(["energies", *argv]) == 2
        assert capsys.readouterr() == ("", f"domain error: {message}\n")

    def test_well_wavenumber_beyond_the_double_range_is_domain(self, capsys):
        # sqrt(2 m U)/hbar = 1.4e454
        assert run(["energies", "--U", "1e308", "--q", "1e-150", "--hbar", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "domain error: the well wavenumber sqrt(2 m U)/hbar is about 10^454.2: it overflows a double\n"
        assert captured.err == message

    def test_infeasible_connection_is_domain(self, capsys):
        argv = [
            "connect", "--U", "1", "--q", "2", "--state-index", "0",
            "--past", "0,5", "--present", "0.5,5",
        ]
        assert run(argv) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (  # the target period 5e-324 is no normal double, and over twice the peak 8.8 it is 0
                ["connect", "--U", "1", "--q", "1", "--past", "0,0", "--present", "0.5,5e-324"],
                "period 5e-324 underflows against the slice peak 8.774881240024566",
            ),
            (
                [
                    "coverage", "sw", "--U", "1", "--q", "1", "--state-index", "0",
                    "--past", "0,0", "--present", "0.5,5e-324",
                ],
                "period 5e-324 underflows against the slice peak 8.774881240024566",
            ),
            (  # a slice ceiling of 5.1e-15 fits 1e300 into more periods than a double counts
                [
                    "connect", "--U", "1e10", "--q", "1e-10", "--hbar", "1e-6", "--state-index", "5",
                    "--past", "0,0", "--present", "0,1e300",
                ],
                "elapsed time 1e+300 spans more slice periods (ceiling 5.120192411529899e-15)"
                " than a double counts",
            ),
            (  # prefactor/(2r) = (U/E) 4 (q + 1/kappa) sqrt(m/2E)/(2r) = 8e-350: the peak is no double
                [
                    "connect", "--U", "1e200", "--q", "1e-100", "--hbar", "1e-150", "--mass", "1e-300",
                    "--past", "0,0", "--present", "0,1",
                ],
                "the slice peak is about 10^-349.1: it underflows the normal doubles",
            ),
        ],
    )
    def test_a_connection_beyond_the_doubles_is_domain(self, argv, message, capsys):
        assert run(argv) == 2
        assert capsys.readouterr() == ("", f"domain error: {message}\n")

    @pytest.mark.parametrize("elapsed", ["1e20", "1e100"])
    def test_a_connection_past_2_52_periods_has_lost_its_phase(self, elapsed, capsys):
        # n + phase_advance rounds to a whole number: the same a for every present position
        for x in ("0.3", "-0.7", "0.9"):
            assert run(["connect", "--U", "1", "--q", "1", "--past", "0,0", f"--present={x},{elapsed}"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"domain error: elapsed time {float(elapsed)!r} spans at least 2^52 slice periods"
                " (ceiling 8.774881240015791): n + phase advance no longer carries the phase\n"
            )

    def test_a_connection_over_1e14_periods_keeps_its_phase(self, capsys):
        # n is about 1.1e14 < 2^52: each present position has its own witness
        witnesses = set()
        for x in ("0.3", "-0.7", "0.9"):
            assert run(["connect", "--U", "1", "--q", "1", "--past", "0,0", f"--present={x},1e15"]) == 0
            outputs = json.loads(capsys.readouterr().out)["outputs"]
            assert 1e14 < outputs["whole_periods"] < 2**52
            assert outputs["arrival_time"] == pytest.approx(1e15, rel=1e-15)
            witnesses.add(outputs["microstate"]["a"])
        assert len(witnesses) == 3

    def test_spec_is_an_event_pair_or_a_grid_not_both(self, capsys):
        assert (
            run(
                [
                    "coverage", "sb", "--E", "0.18", "--U", "0.5",
                    "--past", "0,0", "--present", "1,1", "--pasts", "0,1",
                ]
            )
            == 1
        )
        capsys.readouterr()

    @pytest.mark.parametrize(
        "scenario",
        [
            ["sb", "--E", "0.18", "--U", "0.5", "--past", "0.1,0", "--present", "0.4,3"],
            ["sw", "--U", "1", "--q", "2", "--state-index", "1", "--past=-1,0", "--present", "0,25"],
        ],
        ids=["sb", "sw"],
    )
    def test_past_time_in_pair_mode_is_usage(self, scenario, capsys):
        # an event pair carries its own times; the scan's epoch must not be dropped silently
        assert run(["coverage", *scenario, "--past-time", "5"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: --past-time")

    def test_malformed_event_is_usage(self, capsys):
        assert run(["connect", "--U", "1", "--q", "2", "--past", "1;2", "--present", "0,1"]) == 1
        capsys.readouterr()

    _SB = ["coverage", "sb", "--E", "0.18", "--U", "0.5"]
    _SCAN = [*_SB, "--pasts", "0", "--presents", "1"]
    _CONNECT = ["connect", "--U", "1", "--q", "2", "--present", "0,1"]
    _SWEEP = ["sweep", "--quantity", "dwell", "--param", "E", "--start", "0.1", "--stop", "0.2", "--count", "3"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dwell", "--U", "0.5"], "--E is required"),
            (["kinematics", "--E", "0.1", "--U", "0.5", "--hbar", "-1"], "hbar must be finite and positive, got -1.0"),
            (_CONNECT, "--past is required"),
            ([*_CONNECT, "--past", "a,b"], "--past expects numbers, got 'a,b'"),
            ([*_CONNECT, "--past", "0,nan"], "event coordinates must be finite, got (0.0, nan)"),
            (_SCAN, "--dts is required in relation-scan mode"),
            (
                [*_SB, "--pasts", "0", "--presents", "x", "--dts", "1"],
                "--presents expects comma-separated numbers, got 'x'",
            ),
            (_SB, "give --past/--present for one verdict or --pasts/--presents/--dts for a scan"),
            ([*_SCAN, "--dts", "-1"], "time offsets must be positive"),
            ([*_SCAN, "--dts", "1", "--past-time", "inf"], "past_time must be finite, got inf"),
            (
                ["sweep", "--quantity", "dwell", "--E", "0.18", "--U", "0.5"],
                "--param, --start, --stop and --count are required (flags or config sweep)",
            ),
            (_SWEEP, "--U is required for quantity 'dwell'"),
            (
                ["sweep", "--quantity", "dwell-mono", "--param", "q", *_SWEEP[5:], "--E", "0.18", "--U", "0.5"],
                "parameter 'q' does not enter quantity 'dwell-mono'",
            ),
        ],
        ids=[
            "missing-E", "negative-hbar", "missing-past", "past-not-numbers", "past-nan", "missing-dts",
            "presents-not-numbers", "no-coverage-mode", "negative-dt", "infinite-past-time", "missing-sweep-spec",
            "sweep-missing-U", "sweep-param-not-entering",
        ],
    )
    def test_a_refused_flag_input_is_usage(self, argv, message, capsys):
        # each of the CLI's exit-1 rules: a missing or malformed flag, or a flag input the library refuses
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"usage error: {message}\n")


class TestOutputPlumbing:
    def test_out_writes_the_same_bytes_as_stdout(self, tmp_path, capsys):
        argv = ["kinematics", "--E", "0.18", "--U", "0.5"]
        assert run(argv) == 0
        stdout_text = capsys.readouterr().out
        target = tmp_path / "k.json"
        assert run(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_json_output_parses_with_echoed_inputs(self, capsys):
        assert run(["kinematics", "--E", "0.18", "--U", "0.5"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["command"] == "kinematics"
        assert record["inputs"]["E"] == 0.18
        assert record["outputs"]["k"] == 0.6
        assert "version" in record["metadata"]

    def test_pretty_rounds_for_human_eyes(self, capsys):
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--pretty"]) == 0
        out = capsys.readouterr().out
        assert "\n  " in out
        assert "0.18" in out and "0.17999999999999999" not in out

    def test_machine_json_keeps_full_precision(self, capsys):
        assert run(["kinematics", "--E", "0.18", "--U", "0.5"]) == 0
        assert "0.17999999999999999" in capsys.readouterr().out

    def test_dwell_csv_column_contract(self, capsys):
        argv = ["dwell", "--E", "0.18", "--U", "0.5", "--format", "csv"]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t_D,sign,a,b,c,E,U,k,kappa"
        assert len(lines) == 2

    def test_energies_csv_without_states_is_the_header(self, capsys):
        # a shallow narrow well holds no odd state; JSON reports count 0
        argv = ["energies", "--U", "0.1", "--q", "0.5", "--parity", "odd"]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["outputs"]["count"] == 0
        assert run([*argv, "--format", "csv"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == "index,parity,E,k,kappa,residual\n"

    def test_grid_past_time_is_echoed(self, capsys):
        argv = [
            "coverage", "sb", "--E", "0.18", "--U", "0.5", "--pasts", "0",
            "--presents", "0.3,1.2", "--dts", "2,8,11,14", "--past-time", "5",
        ]
        assert run(argv) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["past_time"] == 5.0

    def test_sweep_emits_header_plus_count_lines(self, capsys):
        argv = [
            "sweep", "--quantity", "dwell-mono", "--param", "E", "--start", "0.1",
            "--stop", "0.4", "--count", "11", "--U", "0.5", "--format", "csv",
        ]
        assert run(argv) == 0
        text = capsys.readouterr().out
        assert len(text.splitlines()) == 12

    def test_sweep_over_a_coefficient_normalizes_the_triple(self, capsys):
        argv = [
            "sweep", "--quantity", "dwell", "--param", "c", "--start", "0", "--stop", "1.9",
            "--count", "5", "--E", "0.18", "--U", "0.5",
        ]
        assert run(argv) == 0
        points = json.loads(capsys.readouterr().out)["outputs"]["points"]
        kin = kinematics_from_energies(0.18, 0.5)
        assert [p["value"] for p in points] == [0.0, 0.475, 0.95, 1.4249999999999998, 1.9]
        for p in points:
            assert p["result"] == dwell_time(kin, normalize(1.0, 1.0, p["value"]), SIGN_PLUS).t_D

    @pytest.mark.parametrize(
        "quantity,flags,oracle",
        [
            # 4m(q + 1/kappa)/(hbar k) and hbar/sqrt(E(U - E)), at 40 digits
            (
                "libration", ["--U", "0.5", "--q", "1"],
                lambda E: 4 * (1 + 1 / mpmath.sqrt(2 * (mpmath.mpf(0.5) - E))) / mpmath.sqrt(2 * E),
            ),
            ("dwell", ["--U", "1e10"], lambda E: 1 / mpmath.sqrt(E * (mpmath.mpf(1e10) - E))),
        ],
        ids=["libration", "dwell"],
    )
    def test_sweep_at_overflowing_powers_of_r(self, quantity, flags, oracle, capsys):
        # E = 1e-300 and 1e-150 put r = kappa/k near 7e149 and 7e74 (libration), 1e155 and
        # 1e80 (dwell); the plain libration formula overflows at both, the dwell one at 1e155
        argv = ["sweep", "--quantity", quantity, "--param", "E", "--start", "1e-300", "--stop", "1e-150",
                "--count", "2", *flags]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for point in json.loads(captured.out)["outputs"]["points"]:
            with mpmath.workdps(40):
                expected = float(oracle(mpmath.mpf(point["value"])))
            assert point["result"] == pytest.approx(expected, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("elapsed,classification", [("1", "BothAllow"), ("1e301", "CopenhagenOnly")])
    def test_step_verdict_where_one_plus_r_squared_overflows(self, elapsed, classification, capsys):
        # r = 1e155: the dwell bound is (1/kappa^2 + 1/k^2)/(sqrt(2) - 1), about 1.2e300, not inf
        argv = ["coverage", "sb", "--E", "1e-300", "--U", "1e10", "--past", "0,0", "--present", f"1,{elapsed}"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs = json.loads(captured.out)["outputs"]
        with mpmath.workdps(40):
            E, U = mpmath.mpf("1e-300"), mpmath.mpf("1e10")
            bound = float((1 / (2 * (U - E)) + 1 / (2 * E)) / (mpmath.sqrt(2) - 1))
        assert outputs["dwell_bound"] == pytest.approx(bound, rel=1e-14, abs=0.0)
        assert outputs["classification"] == classification

    def test_step_verdict_where_the_wavenumber_squares_overflow(self, capsys):
        # hbar = 1e-200: k^2 and kappa^2 overflow, the density at depth 1 does not vanish
        argv = [
            "coverage", "sb", "--E", "0.1", "--U", "1", "--hbar", "1e-200", "--past", "0,0", "--present", "1,1",
        ]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs = json.loads(captured.out)["outputs"]
        assert outputs["copenhagen_allowed"] is True
        assert outputs["classification"] == "CopenhagenOnly"  # 1 is far above the dwell bound 1.3e-199

    def test_step_verdict_at_a_depth_where_two_kappa_x_overflows(self, capsys):
        # hbar = 1e-200, x = 1e197: the density is positive at every finite depth
        argv = [
            "coverage", "sb", "--E", "0.1", "--U", "1", "--hbar", "1e-200", "--past", "0,0", "--present", "1e197,1",
        ]
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs = json.loads(captured.out)["outputs"]
        assert outputs["copenhagen_allowed"] is True
        assert outputs["classification"] == "CopenhagenOnly"

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["dwell-max", "--E", "0.1", "--U", "1", "--hbar", "1e200"], "analytic_bound"),
            (
                ["coverage", "sb", "--E", "0.1", "--U", "1", "--hbar", "1e200", "--past", "0,0", "--present", "1,1"],
                "dwell_bound",
            ),
        ],
    )
    def test_dwell_bound_where_kappa_squared_underflows(self, argv, field, capsys):
        # hbar = 1e200: kappa^2 underflows to 0, yet the bound hbar U/(2(sqrt(2) - 1) E (U - E)) is finite
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs = json.loads(captured.out)["outputs"]
        with mpmath.workdps(40):
            hbar, E, U = mpmath.mpf("1e200"), mpmath.mpf("0.1"), mpmath.mpf("1")
            bound = float(hbar * U / (2 * (mpmath.sqrt(2) - 1) * E * (U - E)))
        assert outputs[field] == pytest.approx(bound, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "flags,count",
        [
            (["--U", "1e300", "--hbar", "1e-10", "--q", "3e-160"], 3),  # k_max^2 overflows
            (["--U", "1e308", "--q", "1e-150"], 9004),  # 2 m U overflows as well
        ],
    )
    def test_energies_where_the_well_squares_overflow(self, flags, count, capsys):
        assert run(["energies", *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs = json.loads(captured.out)
        assert outputs["outputs"]["count"] == count
        inputs = outputs["inputs"]
        # near the top kappa is ill-conditioned in k_max, so the oracle takes the double k_max and P
        U, q, hbar, mass = (inputs[name] for name in ("U", "q", "hbar", "mass"))
        k_max, P = well_p(U, q, Units(hbar=hbar, mass=mass))
        with mpmath.workdps(40):
            exact = mpmath.sqrt(2 * mpmath.mpf(mass) * mpmath.mpf(U)) / mpmath.mpf(hbar)
            assert k_max == pytest.approx(float(exact), rel=1e-15)
        states = outputs["outputs"]["states"]
        for state in states[:: max(count // 7, 1)] + states[-2:]:
            record = BoundState(state["E"], state["parity"], state["k"], state["kappa"])
            assert max(state_errors(record, state["index"], U, k_max, P)) <= 2e-15, state
            assert math.isfinite(state["residual"]) and 0.0 < state["E"] <= U

    def test_supremum_searches_at_r_far_above_one(self, capsys):
        # the suprema are the rescaled closed forms at a* = r sqrt(1 + c^2/4),
        # c = 2 - epsilon, where the plain formulas overflow; each sits below
        # its bound by the O(epsilon) deficit only, as at r = 4/3
        cases = [
            (["dwell-max", "--E", "1e-150", "--U", "0.5"], 0, 3.5e-7),  # r = 7.1e74
            (["dwell-max", "--E", "1e-300", "--U", "1e10"], 0, 3.5e-7),  # r = 1e155: r^2 overflows
            (["libration-max", "--E", "1e-150", "--U", "0.5", "--q", "1"], 1, 2.5e-7),  # r^4 overflows
        ]
        for argv, column, deficit in cases:
            assert run(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs = json.loads(captured.out)["outputs"]
            with mpmath.workdps(40):
                E, U = mpmath.mpf(argv[2]), mpmath.mpf(argv[4])
                k, kappa = mpmath.sqrt(2 * E), mpmath.sqrt(2 * (U - E))
                r, c = kappa / k, mpmath.mpf(2.0 - 1e-6)
                a = r * mpmath.sqrt(1 + c * c / 4)
                s = a + (1 + c * c / 4) / a * r * r  # a + b r^2 on the normalized slice
                expected = float([
                    2 * (1 + r * r) / (s - c * r) / (kappa * k),
                    4 * (1 + r * r) * (1 + 1 / kappa) / k * s / (s * s - c * c * r * r),
                ][column])
            assert outputs["supremum"] == pytest.approx(expected, rel=1e-14, abs=0.0), argv
            assert outputs["supremum"] / outputs["analytic_bound"] == pytest.approx(1.0 - deficit, abs=1e-8)

    @staticmethod
    def _extremal_outputs(argv, fmt, capsys):
        """The outputs of an extremal command, as a dict of strings for csv; the csv row also carries the inputs."""
        assert run([*argv, "--format", fmt]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        if fmt == "json":
            return json.loads(captured.out)["outputs"]
        header, row = captured.out.splitlines()
        return dict(zip(header.split(","), row.split(",")))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_a_supremum_near_the_top_of_the_double_range(self, fmt, capsys):
        # sup = 1.2e308 is a double, though 2 sup is not: the report holds the attained value only
        outputs = self._extremal_outputs(["dwell-max", "--E", "0.5", "--U", "1", "--hbar", "2.5e307"], fmt, capsys)
        assert "supremum_extrapolated" not in outputs
        with mpmath.workdps(40):
            # r = 1: t_D(c) = (2 sqrt(1 + c^2/4) + c)/2 times the monochromatic dwell hbar/sqrt(E (U - E)) = 2 hbar
            c, hbar = mpmath.mpf(2.0 - 1e-6), mpmath.mpf(2.5e307)
            exact = (2 * mpmath.sqrt(1 + c * c / 4) + c) * hbar
        assert float(outputs["supremum"]) == pytest.approx(float(exact), rel=1e-14, abs=0.0)
        assert float(outputs["supremum"]) < float(outputs["analytic_bound"]) == pytest.approx(1.2071068e308, rel=1e-7)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_an_epsilon_past_one_reports_the_attained_supremum(self, fmt, capsys):
        # epsilon = 1.9 puts the maximizer at c = 0.1, far inside the slice: the report is that one value
        outputs = self._extremal_outputs(["dwell-max", "--E", "0.18", "--U", "0.5", "--epsilon", "1.9"], fmt, capsys)
        assert "supremum_extrapolated" not in outputs
        c = outputs["maximizer"]["c"] if fmt == "json" else float(outputs["c"])
        assert c == 2.0 - 1.9
        # r = 4/3, c = 0.1: t_D = (1 + r^2)(2 sqrt(1 + c^2/4) + c)/(4r) times the monochromatic dwell 1/sqrt(E (U - E))
        with mpmath.workdps(40):
            E, U, c = mpmath.mpf(0.18), mpmath.mpf(0.5), mpmath.mpf(2.0) - mpmath.mpf(1.9)
            r = mpmath.sqrt((U - E) / E)
            exact = (1 + r * r) * (2 * mpmath.sqrt(1 + c * c / 4) + c) / (4 * r) / mpmath.sqrt(E * (U - E))
        assert float(outputs["supremum"]) == pytest.approx(float(exact), rel=1e-14, abs=0.0)

    def test_a_period_beyond_the_double_range_is_domain(self, capsys):
        assert run(["libration", "--E", "1e-300", "--U", "0.5", "--q", "1e300"]) == 2
        assert "overflows" in capsys.readouterr().err

    def test_trajectory_csv_is_plot_ready(self, capsys):
        argv = [
            "trajectory", "--E", "0.18", "--U", "0.5", "--region", "free",
            "--x-start", "0", "--x-stop", "1", "--n", "3", "--format", "csv",
        ]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "x,t,W_x,dWx_dE,speed"
        assert len(lines) == 4


class TestClosedFormsAcrossTheDoubleRange:
    """Inputs where k, kappa, r^2 or hbar^2 leave the doubles while the printed values do not."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["kinematics"],
            ["dwell"],
            ["dwell-max"],
            ["coverage", "sb", "--past", "0,0", "--present", "1e-100,1"],
        ],
    )
    def test_a_wavenumber_below_the_doubles_is_named(self, argv, capsys):
        # k = sqrt(2 E)/hbar = 1.4e-350: r = kappa/k used to divide by a k of 0
        assert run([*argv, "--E", "1e-300", "--U", "1e300", "--hbar", "1e200"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        message = "k = sqrt(2 m E)/hbar is about 10^-349.8: it underflows the normal doubles"
        assert captured.err == f"domain error: {message}\n"

    def test_the_alternative_bound_is_a_double(self, capsys):
        # 1 - r^2 = (2E - U)/E = -1e310 overflowed, but the bound times it is -2.0e305
        assert run(["libration-max", "--E", "1e-300", "--U", "1e10", "--q", "1"]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        with mpmath.workdps(40):
            E, U = mpmath.mpf("1e-300"), mpmath.mpf("1e10")
            bound = 2 ** mpmath.mpf(1.5) * (U / E) * (1 + 1 / mpmath.sqrt(2 * (U - E))) / mpmath.sqrt(2 * (U - E))
            alternative = float(bound * (2 * E - U) / U)
        assert outputs["alternative_bound"] == pytest.approx(alternative, rel=1e-14, abs=0.0)
        assert outputs["analytic_bound"] == pytest.approx(float(bound), rel=1e-14, abs=0.0)
        assert outputs["alternative_bound_holds"] is False

    def test_the_residual_and_trajectory_need_no_hbar_squared(self, capsys):
        # hbar^2 = 1e400 overflowed: the residual read nan with within false, the trajectory exit 1
        units = ["--E", "1", "--U", "2", "--hbar", "1e200", "--mass", "1e200", "--region", "free"]
        assert run(["qshje-check", *units, "--x", "1e-200"]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert abs(outputs["residual"]) <= 1e-15 and outputs["within"] is True
        assert run(["trajectory", *units, "--x-start", "0", "--x-stop", "1e-200", "--n", "2"]) == 0
        samples = json.loads(capsys.readouterr().out)["outputs"]["samples"]
        with mpmath.workdps(40):
            k = mpmath.sqrt(2 * mpmath.mpf("1e200")) / mpmath.mpf("1e200")
            momentum = mpmath.mpf("1e200") * k  # W_x = hbar k at (1, 1, 0)
            slope = momentum / 2  # dW_x/dE = N/(2E) at x = 0 and, to 1e-200, at 1e-200
            expected = {"W_x": momentum, "dWx_dE": slope, "speed": 1 / slope, "t": slope * mpmath.mpf("1e-200")}
        for name, value in expected.items():
            assert samples[1][name] == pytest.approx(float(value), rel=1e-14, abs=0.0), name

    def test_a_trajectory_past_the_square_of_its_denominator(self, capsys):
        # D = 1.1e160 at kappa x = 184: D * D overflowed, so dW_x/dE read 0.0 and the command exit 2
        flags = ["--E", "0.18", "--U", "0.5", "--region", "forbidden", "--x-start", "0", "--x-stop", "230"]
        assert run(["trajectory", *flags, "--n", "2"]) == 0
        sample = json.loads(capsys.readouterr().out)["outputs"]["samples"][1]
        with mpmath.workdps(40):
            E, U, x = mpmath.mpf("0.18"), mpmath.mpf("0.5"), mpmath.mpf(230)
            kappa = mpmath.sqrt(2 * (U - E))
            D = mpmath.exp(-2 * kappa * x) + mpmath.exp(2 * kappa * x)  # (1, 1, 0) on the canonical basis
            dD = 2 * x * (mpmath.exp(2 * kappa * x) - mpmath.exp(-2 * kappa * x))  # dD/dkappa
            N = 2 * kappa  # hbar |W0| g with W0 = -2 kappa and g = 1
            slope = (N / kappa * D - N * dD) / D**2 * (-kappa / (2 * (U - E)))
            lever = N / kappa * (x / D) * (-kappa / (2 * (U - E)))  # t = |scale (x/D - 0/D(0))|
            expected = {"W_x": N / D, "dWx_dE": slope, "speed": 1 / abs(slope), "t": abs(lever)}
        for name, value in expected.items():
            assert sample[name] == pytest.approx(float(value), rel=1e-14, abs=0.0), name

    def test_the_slice_root_needs_no_r_squared(self, capsys):
        # r = 9e154: r^2 overflowed and a read nan; the small root is 2 (tau r) r/(1 + root)
        argv = ["connect", "--U", "1e300", "--q", "1", "--hbar", "1e-155", "--mass", "1e-300"]
        assert run([*argv, "--past", "0,0", "--present", "0.5,1"]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        state = bound_state(square_well(1e300, 1.0), Units(hbar=1e-155, mass=1e-300), 0)
        with mpmath.workdps(40):
            E, U, q = mpmath.mpf(state.E), mpmath.mpf("1e300"), mpmath.mpf(1)
            r = mpmath.sqrt((U - E) / E)
            length = q + 1 / mpmath.mpf(state.kappa)
            prefactor = 4 * (U / E) * length * mpmath.sqrt(mpmath.mpf("1e-300") / (2 * E))
            fraction = q / (2 * length) * (mpmath.mpf(0.5) + q) / (2 * q) - q / (2 * length) * q / (2 * q)
            tau_r = 1 / (1 + fraction) / prefactor * r
            a = 2 * tau_r * r / (1 + mpmath.sqrt(1 - 4 * tau_r**2))
        assert outputs["whole_periods"] == 1
        assert outputs["microstate"]["a"] == pytest.approx(float(a), rel=1e-14, abs=0.0)
        assert outputs["microstate"]["a"] == pytest.approx(3.5e144, rel=0.01)

    def test_a_subnormal_half_width_warns_nothing(self, capsys):
        # the one slot is solved on floats; as arrays its top (i + 1) pi/(2q) overflowed with a RuntimeWarning
        argv = ["energies", "--U", "1e10", "--q", "1e-310"]
        assert run(argv) == 0
        expected = capsys.readouterr().out
        assert json.loads(expected)["outputs"]["count"] == 1
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "trdwell.cli", *argv],
            capture_output=True, text=True, env=_child_env(), timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, "")


class TestConfigIntegration:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"potential": {"kind": "step", "U": 0.5}}))
        assert run(["kinematics", "--E", "0.18", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["outputs"]["kappa"] == 0.8

    def test_flags_override_the_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"potential": {"kind": "step", "U": 0.9}}))
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["inputs"]["U"] == 0.5

    def test_units_flow_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"units": {"hbar": 2.0}}))
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["inputs"]["hbar"] == 2.0
        assert record["outputs"]["k"] == 0.3

    def test_unknown_config_key_is_usage_and_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"foo": 1}))
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--config", str(cfg)]) == 1
        assert "foo" in capsys.readouterr().err

    def test_missing_config_file_is_usage(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--config", str(missing)]) == 1
        capsys.readouterr()

    def test_sweep_can_come_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "potential": {"kind": "step", "U": 0.5},
                    "sweep": {"param": "E", "start": 0.1, "stop": 0.4, "count": 4},
                }
            )
        )
        assert run(["sweep", "--quantity", "dwell-mono", "--config", str(cfg), "--format", "csv"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 5

    def test_integer_beyond_a_double_is_usage_and_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text('{"units": {"hbar": 1' + "0" * 400 + "}}")
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--config", str(cfg)]) == 1
        assert "units.hbar" in capsys.readouterr().err
        cfg.write_text('{"units": {"hbar": 1' + "0" * 5000 + "}}")  # too long for int() to read
        assert run(["kinematics", "--E", "0.18", "--U", "0.5", "--config", str(cfg)]) == 1
        assert "is not valid JSON" in capsys.readouterr().err


class TestSweepRules:
    """Flags and config merge into one SweepSpec, whose rules give one message and exit 1."""

    BASE = ["sweep", "--quantity", "dwell-mono", "--U", "0.5", "--param", "E"]

    @pytest.mark.parametrize(
        "span, message",
        [
            (["--start", "0.1", "--stop", "0.4", "--count", "1"], "sweep.count must be an integer >= 2, got 1"),
            (["--start", "inf", "--stop", "0.4", "--count", "3"], "sweep.start and sweep.stop must be finite"),
            (["--start", "0.1", "--stop", "nan", "--count", "3"], "sweep.start and sweep.stop must be finite"),
        ],
    )
    def test_flags_break_the_rules_of_a_config_sweep(self, span, message, capsys):
        assert run([*self.BASE, *span]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_config_sweep_breaks_the_same_rules(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sweep": {"param": "E", "start": 0.1, "stop": 0.4, "count": 1}}))
        assert run(["sweep", "--quantity", "dwell-mono", "--U", "0.5", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == "usage error: sweep.count must be an integer >= 2, got 1\n"

    def test_flags_complete_a_config_sweep(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"sweep": {"param": "E", "start": 0.1, "stop": 0.4, "count": 4}}))
        assert run([*self.BASE, "--count", "3", "--config", str(cfg)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert [record["inputs"][name] for name in ("param", "start", "stop", "count")] == ["E", 0.1, 0.4, 3]

    def test_param_choices_are_the_sweep_params(self):
        from trdwell import config
        from trdwell.cli import _FLAGS

        assert _FLAGS["param"]["choices"] is config._SWEEP_PARAMS


def test_qshje_threshold_scales_with_the_region_energy(capsys):
    # forbidden region: the residual is (U - E) times a bracket rounded near 1e-16
    argv = ["qshje-check", "--E", "1e-10", "--U", "1", "--x", "0.9", "--a", "2", "--b", "1", "--c", "2"]
    assert run([*argv, "--region", "forbidden"]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["threshold"] == 1e-8 * (1.0 - 1e-10)
    assert abs(outputs["residual"]) < 1e-15 and outputs["within"] is True
    assert run([*argv, "--region", "free"]) == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["threshold"] == 1e-8 * 1e-10
