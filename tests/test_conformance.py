"""Conformance sweep: every numeric subcommand against its 40-digit closed forms.

Seeded in-process ``cli.run`` calls draw hbar and m log-uniform in 1e+-200,
U in 1e+-300, and E either U 10^[-300, 0] or U (1 - 10^[-16, 0]); wells hold
at most 10^4 states.  Every value an exit-0 call prints must lie within 1e-14
of its 40-digit value: relative to the value, times the condition number of
the closed form where the value is a difference of larger terms (``cond``).
Exit 2 must happen exactly where some printed value, or the command's k or
kappa, is not a positive normal double; exit 1 never happens.  An exit-0 call
writes nothing on stderr, and raises no warning.

A well state's k and kappa are the ladder's own (the bisection's root and
sqrt(k_max^2 - k^2) at it); every other value of a well command is checked
against them.  So is density support: a present has none exactly at one of
the state's nodes, k x/pi = j + offset, to within twice the ladder's relative
accuracy in k.
"""

import contextlib
import io
import json
import math
import random
import warnings

import mpmath
import pytest

from trdwell.cli import run
from trdwell.potential import _EIGEN_K_RTOL, EIGEN_K_TOL, Units, bound_state, square_well

mpf = mpmath.mpf
TOL = 1e-14
SEED = 20261018
#: Calls per subcommand; an energies call lists and prints up to 10^4 states.
CALLS = {"energies": 8}


def _normal(value) -> bool:
    return mpf(2) ** -1022 <= abs(value) < mpf(2) ** 1024


def _log_uniform(rng, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def _energies(rng) -> tuple[float, float, float, float]:
    """(E, U, hbar, m) drawn as the module docstring says, with 0 < E < U."""
    while True:
        U = _log_uniform(rng, -300, 300)
        if rng.random() < 0.5:
            E = U * _log_uniform(rng, -300, 0)
        else:
            E = U * (1.0 - _log_uniform(rng, -16, 0))
        if 0.0 < E < U:
            return E, U, _log_uniform(rng, -200, 200), _log_uniform(rng, -200, 200)


def _microstate(rng) -> tuple[float, float, float]:
    c = rng.uniform(-1.9, 1.9)
    a = _log_uniform(rng, -0.6, 0.6)
    return a, (1.0 + 0.25 * c * c) / a, c


def _flags(**values) -> list[str]:
    """``--name=value`` flags, floats in their round-trip repr."""
    return [
        f"--{name.replace('_', '-')}={repr(value) if isinstance(value, float) else value}"
        for name, value in values.items()
    ]


class Exact:
    """40-digit closed forms at the (exact) double inputs of one step or well."""

    def __init__(self, E, U, hbar, m, k=None, kappa=None):
        self.E, self.U, self.hbar, self.m = (mpf(v) for v in (E, U, hbar, m))
        self.gap = self.U - self.E
        self.k = mpmath.sqrt(2 * self.m * self.E) / self.hbar if k is None else mpf(k)
        self.kappa = mpmath.sqrt(2 * self.m * self.gap) / self.hbar if kappa is None else mpf(kappa)
        self.r = mpmath.sqrt(self.gap / self.E)
        self.mono = self.hbar / mpmath.sqrt(self.E * self.gap)
        self.dwell_bound = self.hbar * self.U / (2 * (mpmath.sqrt(2) - 1) * self.E * self.gap)

    def dwell(self, a, b, c, sign):
        """(t_D, condition number of its denominator)."""
        a, b, c, r = mpf(a), mpf(b), mpf(c), self.r
        terms = (a, sign * c * r, b * r * r)
        g = mpmath.sqrt(a * b - c * c / 4)
        return g * (1 + r * r) / sum(terms) * self.mono, sum(map(abs, terms)) / sum(terms)

    def length(self, q):
        return mpf(q) + 1 / self.kappa

    def libration(self, q, a, b, c):
        a, b, c, r = mpf(a), mpf(b), mpf(c), self.r
        s = a + b * r * r
        g = mpmath.sqrt(a * b - c * c / 4)
        prefactor = 4 * (self.U / self.E) * self.length(q) * mpmath.sqrt(self.m / (2 * self.E))
        return prefactor * g * s / (s * s - c * c * r * r)

    def libration_bound(self, q):
        return 2 ** mpf(1.5) * (self.U / self.E) * self.length(q) * mpmath.sqrt(self.m / (2 * self.gap))

    def top(self, c):
        """The slice maximizer (a*, b*) at the double c."""
        c = mpf(c)
        a = self.r * mpmath.sqrt(1 + c * c / 4)
        return a, (1 + c * c / 4) / a

    def region(self, region):
        """(w, |W0|, d w/dE, sigma, E_w) of a canonical region basis."""
        if region == "free":
            return self.k, self.k, self.k / (2 * self.E), -1, self.E
        return self.kappa, 2 * self.kappa, -self.kappa / (2 * self.gap), 1, self.gap

    def sample(self, region, x, a, b, c):
        """(W_x, dW_x/dE, its condition number, x/D) at x."""
        w, wronskian, dw_dE, _, _ = self.region(region)
        a, b, c, x = mpf(a), mpf(b), mpf(c), mpf(x)
        if region == "free":
            p1, p2, g1, g2 = mpmath.sin(w * x), mpmath.cos(w * x), x * mpmath.cos(w * x), -x * mpmath.sin(w * x)
        else:
            p1, p2 = mpmath.exp(-w * x), mpmath.exp(w * x)
            g1, g2 = -x * p1, x * p2
        D = a * p1 * p1 + b * p2 * p2 + c * p1 * p2
        dD = 2 * a * p1 * g1 + 2 * b * p2 * g2 + c * (g1 * p2 + p1 * g2)
        N = self.hbar * wronskian * mpmath.sqrt(a * b - c * c / 4)
        slope = (N / w * D - N * dD) / (D * D) * dw_dE
        cond = (abs(N / w * D) + abs(N * dD)) / abs(N / w * D - N * dD)
        return N / D, slope, cond, x / D


def _call(argv) -> tuple[int, dict | None]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(argv)
    assert code != 0 or err.getvalue() == "", (argv, err.getvalue())
    return code, json.loads(out.getvalue()) if code == 0 else None


def _checked(argv, values, gates=()):
    """Run ``argv`` and hold its JSON outputs to ``values``: (path, exact, cond) triples.

    A path is a tuple of keys into the record's "outputs"; a cond of None
    marks a value that may be zero or subnormal, a fraction of a normal
    value, held to the subnormal spacing as well.  Returns the record.
    """
    code, record = _call(argv)
    outside = [path for path, exact, cond in values if not _normal(exact) and cond is not None] + [
        name for name, exact in gates if not _normal(exact)
    ]
    assert code == (2 if outside else 0), (argv, code, outside)
    if code:
        return None
    for path, exact, cond in values:
        got = record["outputs"]
        for key in path:
            got = got[key]
        error = abs(mpf(got) - exact)
        assert error <= TOL * abs(exact) * (cond or 1) + (0 if cond else 2.0**-1072), (argv, path, got, exact)
    return record


def _step(rng):
    E, U, hbar, m = _energies(rng)
    return (E, U, hbar, m), Exact(E, U, hbar, m), _flags(E=E, U=U, hbar=hbar, mass=m)


def _gates(ex):
    return (("k", ex.k), ("kappa", ex.kappa))


def _kinematics(rng):
    _, ex, flags = _step(rng)
    values = [(("k",), ex.k, 1), (("kappa",), ex.kappa, 1), (("r",), ex.r, 1)]
    _checked(["kinematics", *flags], values)


def _dwell(rng):
    _, ex, flags = _step(rng)
    a, b, c = _microstate(rng)
    sign = rng.choice(["plus", "minus"])
    t_D, cond = ex.dwell(a, b, c, 1 if sign == "plus" else -1)
    values = [(("t_D",), t_D, cond), (("monochromatic",), ex.mono, 1)]
    _checked(["dwell", *flags, *_flags(a=a, b=b, c=c, sign=sign)], values, _gates(ex))


def _tops(ex, epsilon=1e-6):
    return (2.0 - epsilon, abs(2.0 - 2.0 * epsilon))


def _dwell_max(rng):
    _, ex, flags = _step(rng)
    c1, c2 = _tops(ex)
    (a, b), sup, coarse = ex.top(c1), ex.dwell(*ex.top(c1), c1, -1)[0], ex.dwell(*ex.top(c2), c2, -1)[0]
    values = [
        (("supremum",), sup, 8), (("supremum_extrapolated",), 2 * sup - coarse, 8),
        (("analytic_bound",), ex.dwell_bound, 1), (("maximizer", "a"), a, 1), (("maximizer", "b"), b, 1),
    ]
    _checked(["dwell-max", *flags], values, _gates(ex))


def _well_width(rng):
    return _log_uniform(rng, -200, 200)


def _libration(rng):
    _, ex, flags = _step(rng)
    q = _well_width(rng)
    a, b, c = _microstate(rng)
    values = [(("t_L",), ex.libration(q, a, b, c), 4)]
    _checked(["libration", *flags, *_flags(q=q, a=a, b=b, c=c)], values, _gates(ex))


def _libration_max(rng):
    (E, U, _, _), ex, flags = _step(rng)
    q = _well_width(rng)
    c1, c2 = _tops(ex)
    sup = ex.libration(q, *ex.top(c1), c1)
    bound = ex.libration_bound(q)
    alternative = bound * (2 * mpf(E) - mpf(U)) / mpf(U)
    a, b = ex.top(c1)
    values = [
        (("supremum",), sup, 8), (("supremum_extrapolated",), 2 * sup - ex.libration(q, *ex.top(c2), c2), 8),
        (("analytic_bound",), bound, 1), (("alternative_bound",), alternative, 1 if alternative else None),
        (("maximizer", "a"), a, 1), (("maximizer", "b"), b, 1),
    ]
    record = _checked(["libration-max", *flags, *_flags(q=q)], values, _gates(ex))
    if record is not None and abs(sup - alternative) > 1e-8 * abs(sup):
        assert record["outputs"]["alternative_bound_holds"] == (sup <= alternative)


def _libration_inf(rng):
    _, ex, flags = _step(rng)
    q, A = _well_width(rng), _log_uniform(rng, -3, 3)
    values = [(("t_L",), ex.libration(q, A, 1 / mpf(A), 0), 4)]
    _checked(["libration-inf", *flags, *_flags(q=q, A=A)], values, _gates(ex))


def _trajectory(rng):
    _, ex, flags = _step(rng)
    region = rng.choice(["free", "forbidden"])
    a, b, c = _microstate(rng)
    w = ex.region(region)[0]
    stop = float(rng.uniform(0.5, 3.0) / w)
    argv = ["trajectory", *flags, *_flags(region=region, x_start=0.0, x_stop=stop, n=4, a=a, b=b, c=c)]
    if not (_normal(w) and _normal(stop)):
        return _checked(argv, [], _gates(ex) + (("x_stop", mpf(stop) if stop else mpf(0)),))
    values = []
    xs = [0.0 + (stop - 0.0) * i / 3 for i in range(4)]
    rows = [ex.sample(region, x, a, b, c) for x in xs]
    scale = ex.region(region)[2] * ex.hbar * ex.region(region)[1] * mpmath.sqrt(mpf(a) * b - mpf(c) ** 2 / 4) / w
    for i, (W_x, slope, cond, lever) in enumerate(rows):
        values += [(("samples", i, "W_x"), W_x, 1), (("samples", i, "dWx_dE"), slope, 4 * cond)]
        values += [(("samples", i, "speed"), 1 / abs(slope), 4 * cond)]
        values.append((("samples", i, "t"), abs(scale * lever), 4 if i else None))
    _checked(argv, values, _gates(ex))


def _qshje(rng):
    (E, U, _, _), ex, flags = _step(rng)
    region = rng.choice(["free", "forbidden"])
    a, b, c = _microstate(rng)
    x = float(rng.uniform(0.0, 3.0) / ex.region(region)[0])
    code, record = _call(["qshje-check", *flags, *_flags(region=region, x=x, a=a, b=b, c=c)])
    assert code == (0 if _normal(ex.k) and _normal(ex.kappa) else 2)
    if code == 0:
        outputs = record["outputs"]
        noise = 64 * TOL * ex.region(region)[4] * (1 + (2 * max(a, b) / min(a, b)) ** 2)
        assert abs(outputs["residual"]) <= noise
        # the threshold and the residual's rounding both scale with E_w: E free, U - E forbidden
        assert outputs["threshold"] == 1e-8 * (E if region == "free" else U - E)
        assert outputs["within"] is (abs(outputs["residual"]) <= outputs["threshold"])
        assert outputs["within"] or noise > outputs["threshold"]


def _coverage_sb(rng):
    _, ex, flags = _step(rng)
    elapsed = float(ex.dwell_bound * rng.uniform(0.1, 3.0)) if _normal(ex.dwell_bound) else 1.0
    depth = float(rng.uniform(0.0, 3.0) / ex.kappa) if _normal(ex.kappa) else 0.0
    argv = ["coverage", "sb", *flags, f"--past=0,{-elapsed!r}", f"--present={depth!r},0"]
    record = _checked(argv, [(("dwell_bound",), ex.dwell_bound, 1)], _gates(ex))
    if record is not None:
        assert record["outputs"]["elapsed"] == elapsed
        assert record["outputs"]["tr_allowed"] == (elapsed < ex.dwell_bound)


def _sweep(rng):
    (E, U, hbar, m), ex, _ = _step(rng)
    quantity = rng.choice(["dwell-mono", "dwell", "libration", "libration-inf"])
    a, b, c = _microstate(rng)
    q, A = _well_width(rng), _log_uniform(rng, -3, 3)
    start, stop = E * 0.5, E
    argv = ["sweep", f"--quantity={quantity}", "--param=E", f"--start={start!r}", f"--stop={stop!r}", "--count=3"]
    argv += _flags(U=U, hbar=hbar, mass=m, q=q, a=a, b=b, c=c, A=A)
    values, gates = [], []
    for i, value in enumerate([start, start + (stop - start) * 0.5, stop]):
        point = Exact(value, U, hbar, m)
        gates += _gates(point)
        if quantity == "dwell-mono":
            exact, cond = point.mono, 1
        elif quantity == "dwell":
            exact, cond = point.dwell(a, b, c, 1)
        elif quantity == "libration":
            exact, cond = point.libration(q, a, b, c), 4
        else:
            exact, cond = point.libration(q, A, 1 / mpf(A), 0), 4
        values.append((("points", i, "result"), exact, cond))
    _checked(argv, values, gates)


def _well(rng):
    """Flags and 40-digit ceiling of a well holding at most 10^4 states."""
    _, U, hbar, m = _energies(rng)
    k_max = mpmath.sqrt(2 * mpf(m) * U) / hbar
    # the per-slot float bisection (k_max^2 not a normal double) costs ~0.1 ms a state
    states = _log_uniform(rng, 0, 4 if _normal(k_max * k_max) else 1.5)
    q = float(mpmath.pi / 2 * states / k_max)
    return U, q, hbar, m, k_max


def _energies_command(rng):
    U, q, hbar, m, k_max = _well(rng)
    argv = ["energies", *_flags(U=U, q=q, hbar=hbar, mass=m)]
    code, record = _call(argv)
    assert code == (0 if _normal(k_max) else 2), argv
    if code:
        return
    states = record["outputs"]["states"]
    assert len(states) == math.ceil(2 * k_max * mpf(q) / mpmath.pi) or abs(2 * k_max * q / mpmath.pi % 1) < 1e-9
    for state in states[:: max(1, len(states) // 40)]:
        k = mpf(state["k"])
        energy = (mpf(hbar) * k) ** 2 / (2 * m)
        kappa = mpmath.sqrt(k_max**2 - k * k)
        assert abs(state["E"] - energy) <= TOL * energy, (argv, state)
        assert abs(state["kappa"] - kappa) <= TOL * kappa * max(1, (k_max / kappa) ** 2), (argv, state)
        assert abs(state["residual"]) <= max(EIGEN_K_TOL, 4 * math.ulp(state["k"]))


def _connection(rng, command):
    U, q, hbar, m, k_max = _well(rng)
    units = Units(hbar=hbar, mass=m)
    if not _normal(k_max):
        return
    size = math.ceil(2 * float(k_max) * q / math.pi)
    index = rng.randrange(min(size, 50))
    state = bound_state(square_well(U, q), units, index)
    ex = Exact(state.E, U, hbar, m, state.k, state.kappa)
    x_past, x_present = (rng.uniform(-q, q) for _ in range(2))
    prefactor = 4 * (ex.U / ex.E) * ex.length(q) * mpmath.sqrt(ex.m / (2 * ex.E))
    peak = prefactor / (2 * ex.r)
    elapsed = float(peak * _log_uniform(rng, -2, 2))
    if not _normal(elapsed):
        return
    argv = ["connect" if command == "connect" else "coverage"] + ([] if command == "connect" else ["sw"])
    argv += _flags(U=U, q=q, hbar=hbar, mass=m, state_index=index)
    argv += [f"--past={x_past!r},0", f"--present={x_present!r},{elapsed!r}"]
    crossing = mpf(q) / (2 * ex.length(q))
    fraction = lambda x: crossing * (mpf(x) + q) / (2 * q)  # noqa: E731
    phase = (fraction(x_present) - fraction(x_past)) % 1
    ceiling = peak * (1 - mpf(1e-12))
    n = max(1, int(mpmath.ceil(elapsed / ceiling - phase)))
    while elapsed / (n + phase) > ceiling:
        n += 1
    period = elapsed / (n + phase)
    tau_r = period / prefactor * ex.r
    root = mpmath.sqrt(1 - 4 * tau_r * tau_r)
    a = 2 * tau_r * ex.r / (1 + root)
    cond = 4 / root
    if command == "connect":
        values = [
            (("microstate", "a"), a, cond), (("microstate", "b"), 1 / a, cond), (("realized_period",), period, 8),
            (("phase_offset",), fraction(x_past) * period, None),
            (("arrival_time",), mpf(elapsed), 8),
        ]
        record = _checked(argv, values, _gates(ex))
        if record is not None:
            assert record["outputs"]["whole_periods"] == n
    else:
        record = _checked(argv, [(("witness", "a"), a, cond), (("witness", "b"), 1 / a, cond)], _gates(ex))
        if record is not None:
            assert record["inputs"]["E"] == state.E and record["outputs"]["tr_allowed"] is True
            offset = 0 if state.parity == "odd" else mpf(1) / 2
            turns = ex.k * mpf(x_present) / mpmath.pi - offset
            distance = abs(turns - mpmath.nint(turns))
            interior = 2 * abs(mpmath.nint(turns) + offset) <= index - 1  # state n has n nodes
            on_node = interior and distance <= 2 * _EIGEN_K_RTOL * abs(turns + offset)
            assert record["outputs"]["copenhagen_allowed"] is not on_node, (argv, distance)
            # the nearest node itself, where one lies inside the well, has no support
            node = float((mpmath.nint(turns) + offset) * mpmath.pi / ex.k)
            if abs(node) < q:
                argv[-1] = f"--present={node!r},{elapsed!r}"
                code, record = _call(argv)
                assert code == 0 and record["outputs"]["copenhagen_allowed"] is False, (argv, code)


COMMANDS = {
    "kinematics": _kinematics,
    "energies": _energies_command,
    "dwell": _dwell,
    "dwell-max": _dwell_max,
    "libration": _libration,
    "libration-max": _libration_max,
    "libration-inf": _libration_inf,
    "trajectory": _trajectory,
    "qshje-check": _qshje,
    "coverage-sb": _coverage_sb,
    "coverage-sw": lambda rng: _connection(rng, "coverage-sw"),
    "connect": lambda rng: _connection(rng, "connect"),
    "sweep": _sweep,
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_value_matches_its_40_digit_closed_form(command):
    rng = random.Random(f"{SEED}-{command}")
    with mpmath.workdps(40):
        for _ in range(CALLS.get(command, 20)):
            COMMANDS[command](rng)
