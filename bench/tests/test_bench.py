"""The benchmark runs every workload at a tiny size, and its oracles catch planted errors.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

import calibrate
import oracles
import run
import workloads as wl


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_each_workload_runs_tiny(name, capsys):
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", "0"]) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "peak_rss_mb", "ok_frac", "p50_ms", "work_per_s"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(capsys):
    assert run.main(["--workload", "well-query", "--seed", "3", "--seconds", "0.01", "--trace", "1"]) == 0
    result = _last_json(capsys)
    assert result["correct"]
    metrics = result["metrics"]
    declared = json.loads((wl.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} == set(metrics)
    for m in declared:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert metrics["trajectory.step_underflow_count"]["value"] == 2  # one defect input per block
    assert metrics["potential.ladder_found_ratio"]["value"] < 1.0  # the deep ladder comes back short


def test_same_seed_same_inputs(pkg):
    for name in ("search", "trajectory", "well-query", "well-ladder"):
        a, b = wl.build(name, 7, pkg)[:16], wl.build(name, 7, pkg)[:16]
        assert [dataclasses.astuple(x)[:5] for x in a] == [dataclasses.astuple(x)[:5] for x in b]
    assert wl.build("cli-cold", 7, pkg) == wl.build("cli-cold", 7, pkg)


def test_defect_share_is_one_per_block(pkg):
    jobs = wl.build("trajectory", 5, pkg)
    ladders = wl.build("well-ladder", 5, pkg)
    for stream, flag in ((jobs, "near_top"), (ladders, "deep")):
        for start in range(0, 64, wl.DEFECT_EVERY):
            assert sum(getattr(x, flag) for x in stream[start:start + wl.DEFECT_EVERY]) == 1


def test_cli_cases_cover_every_subcommand_and_error_exit():
    cases = wl.cli_cases()
    assert {c.argv[0] for c in cases if c.code == 0} >= {"kinematics", "sweep", "connect", "coverage"}
    assert sorted(c.code for c in cases if c.code) == [1, 1, 2]


def test_calibration_scales_each_op_by_the_passes_around_it():
    kernel = calibrate.Kernel("fixed", lambda: 4e-3, 2e-3)
    spent, passes = kernel.run_for(0.01)
    assert passes == 3 and spent == pytest.approx(0.012)
    assert kernel.scale(spent, passes) == pytest.approx(0.5)
    workload = dataclasses.replace(wl.WORKLOADS["search"], kernel=kernel)
    # The same 100 ms op, once with the host at half speed and once at full speed.
    ops = [wl.Outcome(0.1, wl.OK, cal_s=0.008, cal_passes=2), wl.Outcome(0.1, wl.OK, cal_s=0.002, cal_passes=1)]
    s = run.summarize(workload, ops)
    assert s["raw_p50_ms"] == pytest.approx(100.0)
    assert s["p50_ms"] == pytest.approx(75.0)
    assert s["work_per_s"] == pytest.approx(2 / 0.15)


def test_timed_loop_ends_on_a_whole_block(pkg):
    workload = wl.WORKLOADS["trajectory"]
    outcomes = run.loop(workload, wl.build("trajectory", 2, pkg), pkg, seconds=0.0)
    assert len(outcomes) == workload.block == 2 * wl.DEFECT_EVERY
    assert {job.region for job in wl.build("trajectory", 2, pkg)[: workload.block]} == {"free", "forbidden"}


# -- planted wrong answers ------------------------------------------------------------


def test_cli_oracle_flags_one_altered_byte():
    case = next(c for c in wl.cli_cases() if c.code == 0)
    assert wl.run_cli(case).status == wl.OK
    altered = bytearray(case.stdout)
    altered[len(altered) // 2] ^= 1
    assert oracles.cli_errors(bytes(altered), 0, case.stdout, 0)
    assert oracles.cli_errors(case.stdout, 2, case.stdout, 0)


def test_search_oracle_flags_supremum_above_bound(pkg):
    inp = wl.build("search", 1, pkg)[0]
    dwell = pkg.max_dwell(inp.kin, wl.EPSILON)
    libration = pkg.max_libration(inp.kin, inp.q, wl.EPSILON)
    args = (inp.E, inp.U, inp.hbar, inp.mass, inp.q)
    assert oracles.search_errors(dwell, libration, *args) == []
    above = SimpleNamespace(supremum=dwell.analytic_bound * (1 + 1e-8), analytic_bound=dwell.analytic_bound)
    assert oracles.search_errors(above, libration, *args)
    flipped = dataclasses.replace(libration, alternative_bound_holds=not libration.alternative_bound_holds)
    assert oracles.search_errors(dwell, flipped, *args)


def test_flight_time_oracle_flags_1e3_relative_error(pkg):
    for job in wl.build("trajectory", 1, pkg)[:4]:
        if job.near_top:
            continue
        samples = pkg.sample_trajectory(job.x_range, job.n, job.ms, job.basis, job.kin)
        onset = pkg.divergence_onset(job.kin, job.ms, job.forbidden_basis, job.speed_floor)
        residuals = [pkg.qshje_residual(x, job.ms, job.basis, job.kin) for x in job.residual_points]
        assert oracles.trajectory_errors(job, samples, onset, residuals)[0] == []
        planted = list(samples)
        planted[20] = dataclasses.replace(planted[20], t=planted[20].t * (1 + 1e-3))
        assert oracles.trajectory_errors(job, planted, onset, residuals)[0]
        assert oracles.trajectory_errors(job, samples, onset * 1.5 + 1.0, residuals)[0]


def test_ladder_oracle_flags_one_state_short(pkg, monkeypatch):
    ladder = next(x for x in wl.build("well-ladder", 1, pkg) if not x.deep and x.expected < 2000)
    assert wl.run_well_ladder(ladder, pkg).status == wl.OK
    states = pkg.bound_state_energies(ladder.pot, ladder.units)
    assert oracles.ladder_errors(states[:-1], ladder.U, ladder.q, ladder.hbar, ladder.mass, ladder.expected)

    real = pkg.bound_state_energies
    monkeypatch.setattr(pkg, "bound_state_energies", lambda pot, units: real(pot, units)[:-1])
    assert wl.run_well_ladder(ladder, pkg).status == wl.FAILED  # short, but not a deep well
    deep = dataclasses.replace(ladder, deep=True)
    assert wl.run_well_ladder(deep, pkg).status == wl.DEFECT


def test_query_oracle_flags_a_moved_node(pkg, monkeypatch):
    query = next(q for q in wl.build("well-query", 1, pkg) if q.index >= 2)
    assert wl.run_well_query(query, pkg).status == wl.OK
    real = pkg.find_nodes
    monkeypatch.setattr(pkg, "find_nodes", lambda state, interval: tuple(x * (1 + 1e-6) for x in real(state, interval)))
    assert wl.run_well_query(query, pkg).status == wl.FAILED


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(wl.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(wl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_only_a_small_lone_flight_time_miss_is_the_known_defect(pkg, monkeypatch):
    job = next(j for j in wl.build("trajectory", 1, pkg) if not j.near_top)
    assert wl.run_trajectory(job, pkg).status == wl.OK
    real = pkg.sample_trajectory

    def off_by(rel):
        def sample(*args):
            samples = list(real(*args))
            samples[20] = dataclasses.replace(samples[20], t=samples[20].t * (1 + rel))
            return tuple(samples)
        return sample

    monkeypatch.setattr(pkg, "sample_trajectory", off_by(2e-3))
    assert wl.run_trajectory(job, pkg).status == wl.DEFECT
    monkeypatch.setattr(pkg, "sample_trajectory", off_by(2e-2))
    assert wl.run_trajectory(job, pkg).status == wl.FAILED
    monkeypatch.setattr(pkg, "sample_trajectory", off_by(2e-3))
    monkeypatch.setattr(pkg, "qshje_residual", lambda x, *args: 1.0 + x)
    assert wl.run_trajectory(job, pkg).status == wl.FAILED
