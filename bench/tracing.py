"""Per-layer tracing from outside the package, and ``-X importtime`` parsing.

:class:`Tracer` wraps the public entry points of each ``trdwell`` module in
every module namespace that refers to them, so calls across layer boundaries
(and the benchmark's own calls) are timed without touching the package's
source.  Spans are folded into per-(operation kind, function) aggregates as
they close, because a trajectory job opens tens of thousands of them: call
count, inclusive time and self time (inclusive minus the time of the traced
calls it made).  ``restore`` puts the original functions back.
"""

from __future__ import annotations

import functools
import re
import subprocess
import sys
import time
from collections import defaultdict

#: Layer entry points that are timed, by module.  ``microstate``, ``config``
#: and ``errors`` are too thin to time; their cost lands in their callers.
TRACED = {
    "potential": ("bound_state_energies", "kinematics_from_energies", "matching_residual"),
    "wavefield": (
        "canonical_basis",
        "conjugate_momentum",
        "copenhagen_density",
        "find_nodes",
        "momentum_derivatives",
        "qshje_residual",
        "well_eigenstate",
    ),
    "trajectory": (
        "divergence_onset",
        "momentum_energy_derivative",
        "reduced_action",
        "sample_trajectory",
        "speed_at",
        "time_of_flight",
    ),
    "times": ("dwell_time", "libration_period", "max_dwell", "max_libration"),
    "coverage": ("connect", "set_relation_report", "sw_verdict"),
    "serialize": ("csv_dumps", "json_dumps"),
    "cli": ("run",),
}


class Tracer:
    """Aggregating span recorder installed by patching module namespaces."""

    def __init__(self) -> None:
        #: (op kind, "module.function") -> [calls, inclusive ns, self ns]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0, 0])
        self.kind = ""
        self.spans = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += duration
                entry = self.stats[(self.kind, name)]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children
                self.spans += 1

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "trdwell" or n.startswith("trdwell.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"trdwell.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if vars(module).get(fname) is original:
                        self._patched.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def restore(self) -> None:
        for module, fname, original in reversed(self._patched):
            setattr(module, fname, original)
        self._patched.clear()

    def calls(self, name: str, kind: str | None = None) -> int:
        return sum(v[0] for (k, n), v in self.stats.items() if n == name and kind in (None, k))

    def mean_ms(self, name: str, kind: str | None = None) -> float:
        """Mean inclusive milliseconds per call (0.0 when never called)."""
        calls = self.calls(name, kind)
        total = sum(v[1] for (k, n), v in self.stats.items() if n == name and kind in (None, k))
        return total / calls / 1e6 if calls else 0.0

    def self_ms_by_layer(self, kind: str) -> dict[str, float]:
        """Total self milliseconds per layer module under operations of ``kind``."""
        out: dict[str, float] = defaultdict(float)
        for (k, name), (_, _, self_ns) in self.stats.items():
            if k == kind:
                out[name.split(".")[0]] += self_ns / 1e6
        return dict(out)


# -- import time --------------------------------------------------------------

_IMPORTTIME = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def parse_importtime(stderr: str, startup: set[str]) -> dict[str, float]:
    """Self-time totals in ms, by top-level package, of modules not loaded at startup.

    ``startup`` names the modules a bare interpreter already imports; their
    cost belongs to interpreter start, not to the import being measured.
    """
    totals: dict[str, float] = defaultdict(float)
    for line in stderr.splitlines():
        match = _IMPORTTIME.match(line)
        if match is None or match.group(4) in startup:
            continue
        self_ms = int(match.group(1)) / 1000.0
        totals[match.group(4).split(".")[0]] += self_ms
        totals["total"] += self_ms
    return dict(totals)


def importtime_modules(stderr: str) -> set[str]:
    return {m.group(4) for m in map(_IMPORTTIME.match, stderr.splitlines()) if m}


def run_importtime(code: str, env: dict, cwd) -> str:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code],
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        check=True,
    )
    return proc.stderr
