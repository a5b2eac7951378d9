"""Seeded inputs and one timed, checked operation per workload.

Each workload builds its whole input stream from ``--seed`` before timing
starts, then runs one operation at a time (a closed loop with one client).
Only the calls into ``trdwell`` are timed; every output is checked by
``oracles`` right after its timer stops.  An operation ends in one of three
states: ``ok`` (checked correct), ``defect`` (a known defect of today's
package, stated in BENCHMARK.json, showed with exactly its documented
signature: an input from the workload's known-defect share failed as
documented, or a trajectory flight time missed the closed form within the
quadrature defect of ``oracles.quadrature_miss``) or ``failed`` (anything
else: a failed check, an unexpected exception, a wrong exit code).
"""

from __future__ import annotations

import ast
import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate
import oracles

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"

OK, DEFECT, FAILED = "ok", "defect", "failed"

#: One input in this many is drawn from a workload's known-defect share.
DEFECT_EVERY = 8

EPSILON = 1e-6
TRAJECTORY_SAMPLES = 64


@dataclass
class Outcome:
    """Result of one operation: its timed seconds, verdict and work delivered."""

    seconds: float
    status: str
    units: float = 1.0
    defect_input: bool = False
    detail: str = ""
    guards: dict = field(default_factory=dict)
    #: Calibration kernel time and passes run around the op (see ``calibrate``).
    cal_s: float = 0.0
    cal_passes: int = 0


def load_package():
    """Import ``trdwell`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "trdwell" / "__init__.py").is_file():
        raise SystemExit(f"benchmark error: no trdwell sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import trdwell

    if Path(trdwell.__file__).resolve().parent != SRC / "trdwell":
        raise SystemExit(f"benchmark error: imported trdwell from {trdwell.__file__}, not {SRC}")
    return trdwell


def child_env() -> dict:
    """Environment for child interpreters: this checkout's sources first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


#: Fractional part of the golden ratio, the step of the defect-input sequence.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _blocks(rng: random.Random, count: int):
    """Yield (u, is_defect) per input, with one defect slot per block of DEFECT_EVERY.

    ``u`` in [0, 1) is the quantile for the input's size parameter.  Within a
    block the ordinary inputs take the midpoints of DEFECT_EVERY - 1 equal
    strata in a seeded order, with a small seeded jitter; defect inputs walk
    a golden-ratio sequence from a seeded start.  So every whole block has the
    same spread of sizes and the same defect share, and a run's median does
    not hinge on which sizes the seed happened to draw.
    """
    strata = DEFECT_EVERY - 1
    defect_u = rng.random()
    for _ in range(0, count, DEFECT_EVERY):
        order = list(range(strata))
        rng.shuffle(order)
        defect_slot = rng.randrange(DEFECT_EVERY)
        for slot in range(DEFECT_EVERY):
            if slot == defect_slot:
                yield defect_u, True
                defect_u = (defect_u + _GOLDEN) % 1.0
            else:
                yield (order.pop() + 0.5 + rng.uniform(-0.05, 0.05)) / strata, False


def _log_quantile(u: float, lo: float, hi: float) -> float:
    """Quantile ``u`` of the log-uniform distribution on [lo, hi]."""
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


# -- cli-cold -------------------------------------------------------------


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    stdout: bytes | None  # golden bytes, or None for an error exit (empty stdout)
    code: int


def _literal_assignment(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise SystemExit(f"benchmark error: {name} not found in the acceptance suite")


def _error_invocations(tree: ast.Module) -> list[tuple[list[str], int]]:
    """``assert run([...]) == 1|2`` with literal argv inside the golden-file criterion."""
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("test_c13_")):
            continue
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name)
                and node.left.func.id == "run"
                and len(node.left.args) == 1
                and isinstance(node.left.args[0], ast.List)
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value in (1, 2)
            ):
                found.append((ast.literal_eval(node.left.args[0]), node.comparators[0].value))
    return found


def cli_cases() -> list[Invocation]:
    """Golden fixtures and error exits, read from the acceptance suite itself."""
    suite = TESTS / "test_acceptance.py"
    if not suite.is_file():
        raise SystemExit(f"benchmark error: acceptance suite {suite} is missing")
    tree = ast.parse(suite.read_text(encoding="utf-8"))
    cases = [
        Invocation(tuple(argv), (TESTS / "golden" / name).read_bytes(), 0)
        for name, argv in _literal_assignment(tree, "CLI_FIXTURES")
    ]
    cases += [Invocation(tuple(argv), None, code) for argv, code in _error_invocations(tree)]
    return cases


def build_cli(rng: random.Random, pkg, rounds: int = 16) -> list[Invocation]:
    cases = cli_cases()
    stream = []
    for _ in range(rounds):
        order = cases[:]
        rng.shuffle(order)
        stream += order
    return stream


def run_cli(inv: Invocation) -> Outcome:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "trdwell.cli", *inv.argv],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    seconds = time.perf_counter() - t0
    errors = oracles.cli_errors(proc.stdout, proc.returncode, inv.stdout, inv.code)
    return Outcome(seconds, FAILED if errors else OK, detail="; ".join(errors))


# -- search ---------------------------------------------------------------


@dataclass(frozen=True)
class SearchInput:
    E: float
    U: float
    hbar: float
    mass: float
    q: float
    kin: object


def build_search(rng: random.Random, pkg, count: int = 4096) -> list[SearchInput]:
    inputs = []
    for _ in range(count):
        U, hbar, mass, q = (_log_uniform(rng, 0.1, 10.0) for _ in range(4))
        E = U * rng.uniform(0.05, 0.95)
        kin = pkg.kinematics_from_energies(E, U, pkg.Units(hbar=hbar, mass=mass))
        inputs.append(SearchInput(E, U, hbar, mass, q, kin))
    return inputs


def run_search(inp: SearchInput, pkg) -> Outcome:
    t0 = time.perf_counter()
    try:
        dwell = pkg.max_dwell(inp.kin, EPSILON)
        libration = pkg.max_libration(inp.kin, inp.q, EPSILON)
    except pkg.TrdwellError as exc:
        return Outcome(time.perf_counter() - t0, FAILED, detail=repr(exc))
    seconds = time.perf_counter() - t0
    errors = oracles.search_errors(dwell, libration, inp.E, inp.U, inp.hbar, inp.mass, inp.q)
    gap = max(oracles.bound_gap(dwell), oracles.bound_gap(libration))
    return Outcome(seconds, FAILED if errors else OK, detail="; ".join(errors), guards={"bound_gap": gap})


# -- trajectory -----------------------------------------------------------


@dataclass(frozen=True)
class TrajectoryJob:
    E: float
    U: float
    hbar: float
    mass: float
    region: str
    ms: object
    x_range: tuple[float, float]
    n: int
    speed_floor: float
    residual_points: tuple[float, ...]
    near_top: bool
    kin: object
    basis: object
    forbidden_basis: object


def build_trajectory(rng: random.Random, pkg, count: int = 1024) -> list[TrajectoryJob]:
    jobs = []
    for i, (u, near_top) in enumerate(_blocks(rng, count)):
        U, hbar, mass = (_log_uniform(rng, 0.1, 10.0) for _ in range(3))
        if near_top:
            # U - E < 1e-6 U: the finite-difference energy step leaves (0, U).
            E = U * (1.0 - 10.0 ** (-9.0 + 2.7 * u))
            span = rng.random()
        else:
            # The range length sets most of an op's cost, so it takes the strata.
            E = U * rng.uniform(0.05, 0.95)
            span = u
        c = rng.uniform(-1.9, 1.9)
        a = _log_uniform(rng, 0.25, 4.0)
        ms = pkg.Microstate(a, (1.0 + 0.25 * c * c) / a, c)
        kin = pkg.kinematics_from_energies(E, U, pkg.Units(hbar=hbar, mass=mass))
        # Regions alternate by block, so two blocks hold each (region, size
        # stratum) pair once: the free and forbidden costs differ, and a run's
        # median would otherwise hinge on how the seed paired them.
        region = pkg.FREE if (i // DEFECT_EVERY) % 2 == 0 else pkg.FORBIDDEN
        if region == pkg.FREE:
            length = (0.5 + 2.5 * span) * math.pi / kin.k
        else:
            length = (0.5 + 7.5 * span) / (2.0 * kin.kappa)
        x_range = (0.0, length)
        n = TRAJECTORY_SAMPLES
        points = tuple(x_range[0] + (x_range[1] - x_range[0]) * j / (n - 1) for j in range(n))
        floor = oracles.forbidden_speed(0.0, ms, E, U, hbar, mass) * 10.0 ** rng.uniform(0.0, 3.0)
        jobs.append(
            TrajectoryJob(
                E, U, hbar, mass, region, ms, x_range, n, floor, points, near_top, kin,
                pkg.canonical_basis(region, kin), pkg.canonical_basis(pkg.FORBIDDEN, kin),
            )
        )
    return jobs


def run_trajectory(job: TrajectoryJob, pkg) -> Outcome:
    t0 = time.perf_counter()
    try:
        samples = pkg.sample_trajectory(job.x_range, job.n, job.ms, job.basis, job.kin)
        onset = pkg.divergence_onset(job.kin, job.ms, job.forbidden_basis, job.speed_floor)
        residuals = [pkg.qshje_residual(x, job.ms, job.basis, job.kin) for x in job.residual_points]
    except pkg.StepUnderflow as exc:
        seconds = time.perf_counter() - t0
        status = DEFECT if job.near_top else FAILED
        return Outcome(seconds, status, defect_input=job.near_top, detail=repr(exc), guards={"step_underflow": 1})
    except pkg.TrdwellError as exc:
        return Outcome(time.perf_counter() - t0, FAILED, defect_input=job.near_top, detail=repr(exc))
    seconds = time.perf_counter() - t0
    errors, worst = oracles.trajectory_errors(job, samples, onset, residuals)
    status = OK if not errors else DEFECT if oracles.quadrature_miss(errors, worst) else FAILED
    return Outcome(
        seconds,
        status,
        defect_input=job.near_top,
        detail="; ".join(errors),
        guards={"flight_time_err": worst, "quadrature_miss": int(status == DEFECT)},
    )


# -- well-query -----------------------------------------------------------


@dataclass(frozen=True)
class WellQuery:
    U: float
    q: float
    hbar: float
    mass: float
    index: int
    k: float  # closed-form wavenumber of state ``index``, solved by the benchmark
    pot: object
    units: object
    grid: object
    past: tuple[float, float]
    present: tuple[float, float]


def state_wavenumber(index: int, U: float, q: float, hbar: float, mass: float) -> float:
    """k of eigenstate ``index``: the single root with k q in (index pi/2, (index+1) pi/2)."""
    kmax = oracles.k_max(U, hbar, mass)
    lo = index * math.pi / (2.0 * q)
    hi = min((index + 1) * math.pi / (2.0 * q), kmax)

    def g(k):
        kappa = math.sqrt(max(kmax * kmax - k * k, 0.0))
        if index % 2 == 0:
            return k * math.sin(k * q) - kappa * math.cos(k * q)
        return k * math.cos(k * q) + kappa * math.sin(k * q)

    g_lo = g(lo)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        g_mid = g(mid)
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid


def _away_from(x: float, nodes: list[float], q: float) -> float:
    # Random presents stay clear of nodes so only the planted node loses support.
    while any(abs(x - n) < 1e-3 * q for n in nodes):
        x = x + 2e-3 * q if x < 0.0 else x - 2e-3 * q
    return x


def build_well_query(rng: random.Random, pkg, count: int = 2048) -> list[WellQuery]:
    queries = []
    for _ in range(count):
        U = _log_uniform(rng, 0.5, 50.0)
        hbar, mass = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0)
        states = rng.randint(2, 40)
        kmax = oracles.k_max(U, hbar, mass)
        q = rng.uniform(states - 0.95, states - 0.05) * math.pi / (2.0 * kmax)
        index = rng.randrange(states)
        k = state_wavenumber(index, U, q, hbar, mass)
        nodes = oracles.node_positions("even" if index % 2 == 0 else "odd", k, q)
        presents = [_away_from(rng.uniform(-q, q), nodes, q) for _ in range(3)]
        presents.append(rng.choice(nodes) if nodes else _away_from(rng.uniform(-q, q), nodes, q))
        pasts = tuple(rng.uniform(-q, q) for _ in range(2))
        dts = tuple(_log_uniform(rng, 0.1, 100.0) for _ in range(3))
        grid = pkg.GridSpec(pasts, tuple(presents), dts)
        t_past = rng.uniform(-10.0, 10.0)
        past = (rng.uniform(-q, q), t_past)
        present = (rng.uniform(-q, q), t_past + _log_uniform(rng, 0.1, 100.0))
        queries.append(
            WellQuery(
                U, q, hbar, mass, index, k, pkg.square_well(U, q),
                pkg.Units(hbar=hbar, mass=mass), grid, past, present,
            )
        )
    return queries


def run_well_query(query: WellQuery, pkg) -> Outcome:
    scenario = "SW-bound" if query.index == 0 else "SW-excited"
    t0 = time.perf_counter()
    try:
        state = pkg.well_eigenstate(query.pot, query.units, query.index)
        nodes = pkg.find_nodes(state, (-query.q, query.q))
        report = pkg.set_relation_report(scenario, query.grid, state=state)
        connection = pkg.connect(pkg.Event(*query.past), pkg.Event(*query.present), state)
    except pkg.TrdwellError as exc:
        return Outcome(time.perf_counter() - t0, FAILED, detail=repr(exc))
    seconds = time.perf_counter() - t0
    errors = oracles.query_errors(query, state, nodes, report, connection)
    pairs = len(query.grid.past_positions) * len(query.grid.present_positions) * len(query.grid.time_offsets)
    return Outcome(seconds, FAILED if errors else OK, detail="; ".join(errors), guards={"report_pairs": pairs})


# -- well-ladder ----------------------------------------------------------


@dataclass(frozen=True)
class Ladder:
    U: float
    q: float
    hbar: float
    mass: float
    expected: int
    deep: bool
    pot: object
    units: object


def build_well_ladder(rng: random.Random, pkg, count: int = 1024) -> list[Ladder]:
    ladders = []
    for u, deep in _blocks(rng, count):
        if deep:
            # Beyond twice the fixed 10,000-point scan: states are dropped today.
            states = round(_log_quantile(u, 24_000, 40_000))
        else:
            states = round(_log_quantile(u, 100, 19_000))
        # Bisection depth grows with log k_max, so k_max stays within two decades.
        U = _log_uniform(rng, 100.0, 1e4)
        hbar, mass = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0)
        kmax = oracles.k_max(U, hbar, mass)
        q = rng.uniform(states - 0.95, states - 0.05) * math.pi / (2.0 * kmax)
        expected = oracles.ladder_count(U, q, hbar, mass)
        ladders.append(
            Ladder(U, q, hbar, mass, expected, deep, pkg.square_well(U, q), pkg.Units(hbar=hbar, mass=mass))
        )
    return ladders


def run_well_ladder(ladder: Ladder, pkg) -> Outcome:
    t0 = time.perf_counter()
    try:
        states = pkg.bound_state_energies(ladder.pot, ladder.units)
    except pkg.TrdwellError as exc:
        return Outcome(time.perf_counter() - t0, FAILED, defect_input=ladder.deep, detail=repr(exc))
    seconds = time.perf_counter() - t0
    guards = {"found": len(states), "expected": ladder.expected}
    errors = oracles.ladder_errors(states, ladder.U, ladder.q, ladder.hbar, ladder.mass, ladder.expected)
    if not errors:
        return Outcome(seconds, OK, units=len(states), defect_input=ladder.deep, guards=guards)
    kmax = oracles.k_max(ladder.U, ladder.hbar, ladder.mass)
    short_but_genuine = len(states) < ladder.expected and not oracles.genuine_state_errors(
        states, kmax, ladder.q, alternating=False
    )
    status = DEFECT if ladder.deep and short_but_genuine else FAILED
    return Outcome(seconds, status, units=0, defect_input=ladder.deep, detail="; ".join(errors), guards=guards)


# -- registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    unit: str  # what one work unit is, for work_per_s
    build: object
    run: object
    in_process: bool = True
    #: Calibration kernel run around each op (see ``calibrate``).
    kernel: calibrate.Kernel = calibrate.PYTHON
    #: A timed run ends on a multiple of this many ops: whole stratified blocks.
    block: int = 1


WORKLOADS = {
    "cli-cold": Workload(
        "invocation", build_cli, lambda inp, pkg: run_cli(inp), in_process=False, kernel=calibrate.START
    ),
    "search": Workload("extremal pair", build_search, run_search),
    "trajectory": Workload("trajectory job", build_trajectory, run_trajectory, block=2 * DEFECT_EVERY),
    "well-query": Workload("state query", build_well_query, run_well_query),
    "well-ladder": Workload("bound state", build_well_ladder, run_well_ladder, block=DEFECT_EVERY),
}


def build(name: str, seed: int, pkg):
    """The seeded input stream of workload ``name``; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    return WORKLOADS[name].build(rng, pkg)


@contextlib.contextmanager
def quiet():
    """Swallow stdout/stderr of in-process CLI runs."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out
