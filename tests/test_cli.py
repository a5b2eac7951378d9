"""Command-line surface: golden files, exit codes, config handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trdwell
from trdwell.cli import COMMANDS, _linspace, run
from trdwell.microstate import normalize
from trdwell.potential import kinematics_from_energies
from trdwell.times import SIGN_PLUS, dwell_time

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


def _python(script: str) -> str:
    """Stdout of ``script`` run by a fresh interpreter that imports this package."""
    src = str(Path(trdwell.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
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
    # energies, sampling a trajectory, checking the QSHJE residual or running
    # either supremum search must not load any of it.
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


@pytest.mark.parametrize("array_case", ["dwell-max.json", "energies.json"])
def test_numpy_loads_only_for_the_array_layers(array_case):
    # only the extremal searches, the well ladder and the divergence-onset
    # scan work on arrays: importing the package and every other golden or
    # error invocation (connect and coverage sw solve single states) must not
    # load numpy, and ``array_case`` run after them still must
    arrays = ("dwell-max.json", "libration-max.json", "energies.json")
    cases = [(argv, 0) for name, argv in GOLDEN_CASES if name not in arrays] + ERROR_CASES
    cases.append((dict(GOLDEN_CASES)[array_case], 0))
    after_import, runs = _modules_loaded([argv for argv, _ in cases], ("numpy",))
    assert after_import == []
    assert runs == [(code, []) for _, code in cases[:-1]] + [(0, ["numpy"])]


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

    def test_overflow_deep_in_the_barrier_is_domain(self, capsys):
        # e^{kappa x} leaves the float range at x = 1000; the basis saturates
        # and the denominator check reports it instead of an OverflowError.
        region = ["--E", "0.18", "--U", "0.5", "--region", "forbidden"]
        assert run(["qshje-check", *region, "--x", "1000"]) == 2
        argv = ["trajectory", *region, "--x-start", "0", "--x-stop", "1000", "--n", "2"]
        assert run(argv) == 2
        assert "bilinear denominator" in capsys.readouterr().err

    def test_infeasible_connection_is_domain(self, capsys):
        argv = [
            "connect", "--U", "1", "--q", "2", "--state-index", "0",
            "--past", "0,5", "--present", "0.5,5",
        ]
        assert run(argv) == 2
        capsys.readouterr()

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

    @pytest.mark.filterwarnings("error")  # a numpy overflow warning would reach stderr
    def test_supremum_searches_at_r_far_above_one(self, capsys):
        # r = 7.1e74: the log-a window follows r, so dwell-max reaches its bound
        # as closely as at r = 4/3; libration-max overflows on its grid and
        # exits 2 with one line, never a wrong value
        assert run(["dwell-max", "--E", "1e-150", "--U", "0.5"]) == 0
        outputs = json.loads(capsys.readouterr().out)["outputs"]
        assert outputs["supremum"] / outputs["analytic_bound"] == pytest.approx(1.0 - 3.5e-7, abs=1e-8)
        assert run(["libration-max", "--E", "1e-150", "--U", "0.5", "--q", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: objective is not finite on the search grid\n"

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
