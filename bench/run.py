"""Benchmark for trdwell: five seeded, checked workloads and a traced layer profile.

Usage (from the root of a checkout):

    python3 bench/run.py --workload search --seed 1 --seconds 15 --trace 0

Workloads (closed loop, one client, one process, no extra threads):

    cli-cold     fresh ``python -m trdwell.cli`` per golden fixture or error exit
    search       max_dwell + max_libration at epsilon = 1e-6
    trajectory   sample_trajectory (n = 64), divergence_onset, qshje_residual
    well-query   well_eigenstate, find_nodes, set_relation_report, connect
    well-ladder  bound_state_energies on deep wells

``--trace 0`` measures the end-to-end metrics of the chosen workload:
``setup_s`` (median of three fresh interpreters importing trdwell and
building the inputs), ``peak_rss_mb``, ``ok_frac`` (checked-correct ops over
attempted ones), ``p50_ms`` (median latency of correct ops on ordinary
inputs) and ``work_per_s`` (correct work units per second of op time).
Every timing is calibrated for the host's speed drift: a fixed kernel runs
around each op, and each time is scaled to a fixed kernel speed (see
``calibrate``); the raw figures, and the tail latency, which is too noisy
here to gate on, are printed above the result.
``--trace 1`` wraps the package's layer entry points (see
``tracing.TRACED``) and reports every per-layer metric with its call count,
plus the tracing overhead: the chosen workload runs untraced and then traced
over the same inputs, and each other workload runs one short traced pass,
so every layer metric comes from the workload that exercises it.  Human-readable
lines come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line starting
``context:`` above it records the commit, seed, tracing flag, nproc, CPU
model and the Python, numpy and scipy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import oracles
import tracing
import workloads as wl

SETUP_PROBES = 3
INTERP_PROBES = 5
#: Operations each other workload runs under tracing to fill its layer metrics.
HOME_PASS_OPS = {
    "search": 4,
    "trajectory": wl.WORKLOADS["trajectory"].block,
    "well-query": wl.DEFECT_EVERY,
    "well-ladder": wl.DEFECT_EVERY,
}
#: Cold invocations used for the cli closure when cli-cold is not the traced workload.
CLOSURE_INVOCATIONS = 3


# -- statistics -------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Falls back to the median, labelled 50, when there are fewer than 11 samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return statistics.median(xs), 50
    p = math.floor(100 * (n - 10) / n)
    return xs[max(math.ceil(p * n / 100) - 1, 0)], p


# -- run context --------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    if not (wl.ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True, check=False
    )
    return proc.stdout.strip() or None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        digest.update(path.relative_to(wl.SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def run_context(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# -- measurement -----------------------------------------------------------------


def loop(workload, inputs, pkg, seconds: float | None = None, count: int | None = None,
         calibrated: bool = False):
    """Closed loop over the input stream for ``seconds`` of wall time or ``count`` ops.

    A timed loop ends on a whole block of the workload's stratified inputs,
    so every run sees the same mix of sizes and defect inputs.  With
    ``calibrated``, the calibration kernel runs right before and right after
    each op, outside the op's timer (see ``calibrate.SHARE``).
    """
    outcomes = []
    deadline = time.perf_counter() + (seconds if seconds is not None else math.inf)
    i = 0
    previous_s = 0.0
    while (count is None or i < count) and (
        not outcomes or i % workload.block or time.perf_counter() < deadline
    ):
        if calibrated:
            before = workload.kernel.run_for(calibrate.SHARE / 2 * previous_s)
        outcome = workload.run(inputs[i % len(inputs)], pkg)
        if calibrated:
            after = workload.kernel.run_for(calibrate.SHARE / 2 * outcome.seconds)
            outcome.cal_s, outcome.cal_passes = before[0] + after[0], before[1] + after[1]
        previous_s = outcome.seconds
        outcomes.append(outcome)
        i += 1
    return outcomes


def setup_probe(args) -> None:
    """Child mode: import trdwell and build the seeded inputs, print the seconds."""
    t0 = time.perf_counter()
    pkg = wl.load_package()
    wl.build(args.workload, args.seed, pkg)
    print(f"{time.perf_counter() - t0!r}")


def measure_setup(args) -> tuple[float, list[tuple[float, float]]]:
    """Median calibrated set-up time of fresh interpreters, and each probe's (raw, scale).

    Set-up is mostly interpreter start and imports, so each probe is
    calibrated by the ``START`` kernel run right before and right after it.
    """
    probes = []
    raw = 0.0
    for _ in range(SETUP_PROBES):
        before = calibrate.START.run_for(calibrate.SHARE / 2 * raw)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=wl.ROOT, env=wl.child_env(), capture_output=True, text=True, check=True,
        )
        raw = float(proc.stdout.strip().splitlines()[-1])
        after = calibrate.START.run_for(calibrate.SHARE / 2 * raw)
        probes.append((raw, calibrate.START.scale(before[0] + after[0], before[1] + after[1])))
    return statistics.median(raw * factor for raw, factor in probes), probes


def summarize(workload, outcomes) -> dict:
    attempted = len(outcomes)
    ok = [o for o in outcomes if o.status == wl.OK]
    failed = [o for o in outcomes if o.status == wl.FAILED]
    defects = [o for o in outcomes if o.status == wl.DEFECT]
    # Latency covers correct answers to ordinary inputs, so fixing a known
    # defect does not shift the distribution; throughput covers every op.
    scales = [workload.kernel.scale(o.cal_s, o.cal_passes) for o in outcomes]
    ordinary = [(o.seconds, f) for o, f in zip(outcomes, scales) if o.status == wl.OK and not o.defect_input]
    latencies = [sec * f * 1e3 for sec, f in ordinary]
    raw_latencies = [sec * 1e3 for sec, _ in ordinary]
    busy = sum(o.seconds * f for o, f in zip(outcomes, scales))
    tail_ms, tail_p = tail(latencies) if latencies else (math.nan, 0)
    return {
        "attempted": attempted,
        "ok": len(ok),
        "failed": len(failed),
        "defect": len(defects),
        "defect_inputs": sum(o.defect_input for o in outcomes),
        "defect_ordinary": sum(not o.defect_input for o in defects),
        "latency_samples": len(latencies),
        "p50_ms": statistics.median(latencies) if latencies else math.nan,
        "raw_p50_ms": statistics.median(raw_latencies) if raw_latencies else math.nan,
        "raw_busy_s": sum(o.seconds for o in outcomes),
        "scale_range": (min(scales), max(scales)),
        "tail_ms": tail_ms,
        "tail_percentile": tail_p,
        "work_units": sum(o.units for o in ok),
        "busy_s": busy,
        "work_per_s": sum(o.units for o in ok) / busy if busy > 0 else math.nan,
        "first_failures": [o.detail for o in failed[:3]],
    }


def peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


# Conventional names of each workload's headline throughput, printed beside work_per_s.
NAMED_RATE = {
    "cli-cold": None,
    "search": "search_per_s",
    "trajectory": "trajectory_per_s",
    "well-query": "well_query_per_s",
    "well-ladder": "ladder_states_per_s",
}


def end_to_end(args, pkg, inputs) -> tuple[dict, dict, list[str]]:
    workload = wl.WORKLOADS[args.workload]
    workload.run(inputs[-1], pkg)  # warm-up, discarded: fills caches and bytecode
    outcomes = loop(workload, inputs, pkg, seconds=args.seconds, calibrated=True)
    rss = peak_rss_mb(workload)
    setup_s, setup_runs = measure_setup(args)
    s = summarize(workload, outcomes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_frac": (s["ok"] / s["attempted"], "ratio"),
        "p50_ms": (s["p50_ms"], "ms"),
        "work_per_s": (s["work_per_s"], "1/s"),
    }
    lines = [
        f"workload {args.workload}: {s['attempted']} ops in {s['raw_busy_s']:.2f} s busy "
        f"({s['busy_s']:.2f} s calibrated); "
        f"ok {s['ok']}, known-defect {s['defect']} ({s['defect_ordinary']} on ordinary inputs; "
        f"{s['defect_inputs']} defect-share inputs), "
        f"failed {s['failed']}",
        f"  work unit: {workload.unit}; latency over {s['latency_samples']} ok ordinary ops; "
        f"tail (p{s['tail_percentile']}) {s['tail_ms']:.3f} ms calibrated",
        f"  calibration scale {s['scale_range'][0]:.3f}-{s['scale_range'][1]:.3f}; "
        f"raw p50 {s['raw_p50_ms']:.3f} ms, calibrated p50 {s['p50_ms']:.3f} ms",
        f"  setup runs (raw s x scale): {', '.join(f'{r:.4f} x {f:.3f}' for r, f in setup_runs)}",
        f"  failed_frac = {(s['failed'] + s['defect']) / s['attempted']:.4f} ratio "
        f"(n={s['attempted']}; {s['defect']} of them known defects)",
    ]
    if args.workload == "cli-cold":
        lines.append(f"  cli_p50_ms = {s['p50_ms']:.2f} ms (n={s['latency_samples']})")
        lines.append(f"  cli_tail_ms = {s['tail_ms']:.2f} ms (p{s['tail_percentile']}, n={s['latency_samples']})")
    else:
        lines.append(f"  {NAMED_RATE[args.workload]} = {s['work_per_s']:.4f} (n={s['attempted']})")
    lines += [f"  failure: {d}" for d in s["first_failures"]]
    return metrics, s, lines


# -- traced run -------------------------------------------------------------------


def _cli_home_pass(tracer: tracing.Tracer, pkg, cold_p50_ms: float | None) -> tuple[dict, list[str]]:
    """Import-time split, interpreter floor, in-process run() per fixture, closure."""
    env = wl.child_env()
    startup = tracing.importtime_modules(tracing.run_importtime("pass", env, wl.ROOT))
    split = tracing.parse_importtime(tracing.run_importtime("import trdwell.cli", env, wl.ROOT), startup)
    interp = []
    for _ in range(INTERP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], cwd=wl.ROOT, env=env, check=True)
        interp.append((time.perf_counter() - t0) * 1e3)
    interp_ms = statistics.median(interp)

    cases = wl.cli_cases()
    golden_errors = 0
    tracer.kind = "cli-cold"
    for case in cases:
        with wl.quiet() as out:
            code = pkg.cli.run(list(case.argv))
        golden_errors += bool(oracles.cli_errors(out.getvalue().encode(), code, case.stdout, case.code))
    run_ms = tracer.mean_ms("cli.run", "cli-cold")

    if cold_p50_ms is None:
        cold = [wl.run_cli(case).seconds * 1e3 for case in cases[:CLOSURE_INVOCATIONS]]
        cold_p50_ms = statistics.median(cold)
    residual = cold_p50_ms - (interp_ms + split.get("total", 0.0) + run_ms)
    dumps_calls = tracer.calls("serialize.json_dumps", "cli-cold") + tracer.calls("serialize.csv_dumps", "cli-cold")
    dumps_ns = sum(
        v[1] for (k, n), v in tracer.stats.items() if k == "cli-cold" and n.startswith("serialize.")
    )
    metrics = {
        "import.total_ms": (split.get("total", 0.0), "ms"),
        "import.scipy_ms": (split.get("scipy", 0.0), "ms"),
        "import.numpy_ms": (split.get("numpy", 0.0), "ms"),
        "import.trdwell_self_ms": (split.get("trdwell", 0.0), "ms"),
        "cli.interp_ms": (interp_ms, "ms"),
        "cli.run_ms": (run_ms, "ms"),
        "cli.run.calls": (tracer.calls("cli.run", "cli-cold"), "count"),
        "cli.closure_residual_ms": (residual, "ms"),
        "cli.golden_mismatches": (golden_errors, "count"),
        "serialize.dumps_us": (dumps_ns / dumps_calls / 1e3 if dumps_calls else 0.0, "us"),
        "serialize.dumps.calls": (dumps_calls, "count"),
    }
    other = split.get("total", 0.0) - sum(split.get(p, 0.0) for p in ("scipy", "numpy", "trdwell"))
    lines = [
        f"  cli closure: cold p50 {cold_p50_ms:.1f} ms = interp {interp_ms:.1f} + import "
        f"{split.get('total', 0.0):.1f} (scipy {split.get('scipy', 0.0):.1f}, numpy "
        f"{split.get('numpy', 0.0):.1f}, trdwell {split.get('trdwell', 0.0):.1f}, other {other:.1f}) "
        f"+ run {run_ms:.1f} + residual {residual:.1f} ms",
    ]
    return metrics, lines


def _layer_metrics(tracer: tracing.Tracer, guards: dict) -> dict:
    t = tracer

    def timed(metric: str, fn: str, kind: str, scale: float = 1.0, unit: str = "ms") -> dict:
        return {
            metric: (t.mean_ms(fn, kind) * scale, unit),
            metric.rsplit("_", 1)[0] + ".calls": (t.calls(fn, kind), "count"),
        }

    m = {}
    m.update(timed("times.max_dwell_ms", "times.max_dwell", "search"))
    m.update(timed("times.max_libration_ms", "times.max_libration", "search"))
    m["times.bound_gap_rel_max"] = (guards["bound_gap"], "ratio")
    m.update(timed("trajectory.sample_trajectory_ms", "trajectory.sample_trajectory", "trajectory"))
    m.update(timed("trajectory.divergence_onset_ms", "trajectory.divergence_onset", "trajectory"))
    m["trajectory.flight_time_err_max"] = (guards["flight_time_err"], "ratio")
    m["trajectory.step_underflow_count"] = (guards["step_underflow"], "count")
    m.update(timed("wavefield.conjugate_momentum_us", "wavefield.conjugate_momentum", "trajectory", 1e3, "us"))
    m.update(timed("wavefield.qshje_residual_us", "wavefield.qshje_residual", "trajectory", 1e3, "us"))
    m.update(timed("wavefield.well_eigenstate_ms", "wavefield.well_eigenstate", "well-query"))
    m.update(timed("wavefield.find_nodes_ms", "wavefield.find_nodes", "well-query"))
    m.update(timed("potential.ladder_shallow_ms", "potential.bound_state_energies", "well-query"))
    m.update(timed("coverage.set_relation_report_ms", "coverage.set_relation_report", "well-query"))
    m["coverage.set_relation_report_pairs"] = (guards["report_pairs"], "count")
    m.update(timed("coverage.connect_us", "coverage.connect", "well-query", 1e3, "us"))
    m.update(timed("potential.ladder_deep_ms", "potential.bound_state_energies", "well-ladder"))
    m["potential.ladder_found_ratio"] = (guards["found"] / guards["expected"] if guards["expected"] else 0.0, "ratio")
    return m


#: Guards folded by maximum; every other guard is a count and is summed.
_MAX_GUARDS = ("bound_gap", "flight_time_err", "report_pairs")


def _fold_guards(guards: dict, outcomes) -> None:
    for o in outcomes:
        for key, value in o.guards.items():
            guards[key] = max(guards[key], value) if key in _MAX_GUARDS else guards[key] + value


def traced(args, pkg, inputs) -> tuple[dict, dict, list[str]]:
    """Untraced then traced passes over the same ops, then each other workload's home pass."""
    name = args.workload
    workload = wl.WORKLOADS[name]
    workload.run(inputs[-1], pkg)  # warm-up
    tracer = tracing.Tracer()
    guards = dict.fromkeys(
        ("bound_gap", "flight_time_err", "step_underflow", "quadrature_miss", "found", "expected", "report_pairs"), 0
    )
    lines = []
    outcomes_all = []
    cold_p50_ms = None

    plain = loop(workload, inputs, pkg, seconds=0.4 * args.seconds)
    if workload.in_process:
        tracer.install()
        try:
            tracer.kind = name
            under_trace = loop(workload, inputs, pkg, count=len(plain))
        finally:
            tracer.restore()
        overhead = sum(o.seconds for o in under_trace) / sum(o.seconds for o in plain)
        _fold_guards(guards, under_trace)
        outcomes_all += plain + under_trace
    else:
        cold_p50_ms = summarize(workload, plain)["p50_ms"]
        outcomes_all += plain
        # Cold invocations carry no tracer; compare in-process run() per fixture.
        cases = wl.cli_cases()
        t0 = time.perf_counter()
        for case in cases:
            with wl.quiet():
                pkg.cli.run(list(case.argv))
        untraced_s = time.perf_counter() - t0

    tracer.install()
    try:
        cli_metrics, cli_lines = _cli_home_pass(tracer, pkg, cold_p50_ms)
        for other, ops in HOME_PASS_OPS.items():
            if other == name:
                continue
            other_inputs = wl.build(other, args.seed, pkg)
            tracer.kind = other
            outcomes = loop(wl.WORKLOADS[other], other_inputs, pkg, count=ops)
            _fold_guards(guards, outcomes)
            outcomes_all += outcomes
    finally:
        tracer.restore()
    if not workload.in_process:
        overhead = tracer.mean_ms("cli.run", "cli-cold") * len(wl.cli_cases()) / (untraced_s * 1e3)

    metrics = dict(cli_metrics)
    metrics.update(_layer_metrics(tracer, guards))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    metrics["trace.spans"] = (tracer.spans, "count")

    s = summarize(workload, outcomes_all)
    basis = "ops untraced, then the same ops traced" if workload.in_process else (
        "cold invocations; overhead from in-process run() per fixture"
    )
    lines.append(
        f"traced {name}: {len(plain)} {basis}; overhead ratio {overhead:.3f} "
        f"(traced / untraced op time); {tracer.spans} spans"
    )
    lines += cli_lines
    lines.append(
        f"  trajectory known defects: {guards['step_underflow']} StepUnderflow, "
        f"{guards['quadrature_miss']} flight times within the quadrature defect"
    )
    if workload.in_process:
        layers = tracer.self_ms_by_layer(name)
        busy = sum(o.seconds for o in under_trace) * 1e3
        shares = ", ".join(f"{k} {v / busy:.1%}" for k, v in sorted(layers.items(), key=lambda kv: -kv[1]))
        lines.append(f"  self time by layer under {name} (share of traced op time): {shares}")
    failures = [o for o in outcomes_all if o.status == wl.FAILED]
    lines += [f"  failure: {o.detail}" for o in failures[:3]]
    if metrics["cli.golden_mismatches"][0]:
        lines.append("  failure: in-process cli output differs from the golden files")
    s["failed"] += metrics["cli.golden_mismatches"][0]
    return metrics, s, lines


# -- entry point ------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    if not (wl.TESTS / "golden").is_dir():
        raise SystemExit(f"benchmark error: golden files missing under {wl.TESTS}")
    pkg = wl.load_package()
    import trdwell.cli  # noqa: F401  (the traced run calls pkg.cli.run)

    context = run_context(args)
    inputs = wl.build(args.workload, args.seed, pkg)
    reference_before = calibrate.PYTHON.run_for(0.05)
    metrics, summary, lines = (traced if args.trace else end_to_end)(args, pkg, inputs)
    reference_after = calibrate.PYTHON.run_for(0.05)
    # PYTHON kernel pass time before and after the run: how fast the host ran.
    context["kernel_pass_ms"] = [1e3 * spent / passes for spent, passes in (reference_before, reference_after)]

    print("context: " + json.dumps(context, sort_keys=True))
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
