"""Correctness oracles that share no code with the package they check.

Everything here is written from the closed forms in PAPER.md with nothing but
``math``: kinematics from raw energies, the two extremal bounds, the reduced
action and its energy derivative in both regions, the analytic eigenstate
nodes and the eigen-ladder count.  Each ``*_errors`` function returns a list
of human-readable problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math

#: Supremum may exceed the analytic bound by at most this relative amount.
BOUND_SLACK = 1e-9
#: The attained supremum must sit within this relative distance of the bound.
BOUND_CLOSENESS = 1e-5
#: Flight times must agree with the closed form to this relative accuracy; the
#: finite-difference flight times of today reach about 5e-6.
FLIGHT_TIME_RTOL = 1e-4
#: A flight time off by more than FLIGHT_TIME_RTOL but less than this, with
#: every other check of the job passing, is today's known quadrature defect:
#: the finite difference of two adaptive quadratures of the action misses the
#: closed form by about 2e-3 on roughly one ordinary input in 10,000.
FLIGHT_TIME_DEFECT_RTOL = 1e-2
#: The QSHJE residual must stay at or below this multiple of E.
QSHJE_RTOL = 1e-8
#: Node positions must sit this close (relative to the half-width) to k x = j pi.
NODE_RTOL = 1e-9
#: Matching residual (bracket form) allowed per unit of q * k_max.
MATCHING_RTOL = 1e-10
#: Connection arrival time must equal the present epoch to this relative accuracy.
ARRIVAL_RTOL = 1e-9


def wavenumbers(E: float, U: float, hbar: float, mass: float) -> tuple[float, float]:
    """(k, kappa) of energy E under a barrier of height U."""
    k = math.sqrt(2.0 * mass * E) / hbar
    kappa = math.sqrt(2.0 * mass * (U - E)) / hbar
    return k, kappa


# -- extremal searches ---------------------------------------------------


def dwell_bound(E, U, hbar, mass) -> float:
    k, kappa = wavenumbers(E, U, hbar, mass)
    r2 = (kappa / k) ** 2
    return (1.0 + r2) / (math.sqrt(2.0) - 1.0) * mass / (hbar * kappa * kappa)


def libration_bounds(E, U, hbar, mass, q) -> tuple[float, float]:
    """(least upper bound, rejected 1 - r^2 variant) of the libration period."""
    k, kappa = wavenumbers(E, U, hbar, mass)
    r2 = (kappa / k) ** 2
    common = 2.0**1.5 * mass * (q + 1.0 / kappa) / (hbar * kappa)
    return (1.0 + r2) * common, (1.0 - r2) * common


def _report_errors(label: str, supremum: float, reported_bound: float, bound: float) -> list[str]:
    errors = []
    if abs(reported_bound - bound) > 1e-12 * bound:
        errors.append(f"{label}: reported bound {reported_bound!r} != closed form {bound!r}")
    if not supremum <= bound * (1.0 + BOUND_SLACK):
        errors.append(f"{label}: supremum {supremum!r} exceeds the bound {bound!r}")
    if abs(supremum - bound) > BOUND_CLOSENESS * bound:
        errors.append(f"{label}: supremum {supremum!r} is not within 1e-5 of the bound {bound!r}")
    return errors


def search_errors(dwell, libration, E, U, hbar, mass, q) -> list[str]:
    """Check a (max_dwell, max_libration) pair of extremal reports."""
    errors = _report_errors("dwell", dwell.supremum, dwell.analytic_bound, dwell_bound(E, U, hbar, mass))
    bound, alternative = libration_bounds(E, U, hbar, mass, q)
    errors += _report_errors("libration", libration.supremum, libration.analytic_bound, bound)
    holds = libration.supremum <= alternative * (1.0 + BOUND_SLACK)
    if libration.alternative_bound_holds is not holds:
        errors.append(
            f"libration: alternative_bound_holds={libration.alternative_bound_holds!r} but "
            f"supremum {libration.supremum!r} vs variant {alternative!r} says {holds!r}"
        )
    return errors


def bound_gap(report) -> float:
    """(bound - supremum)/bound of one extremal report."""
    return (report.analytic_bound - report.supremum) / report.analytic_bound


# -- trajectories ---------------------------------------------------------


def _free_denominator(a, b, c, k, x) -> float:
    s, co = math.sin(k * x), math.cos(k * x)
    return a * s * s + b * co * co + c * s * co


def _forbidden_denominator(a, b, c, kappa, x) -> float:
    return a * math.exp(-2.0 * kappa * x) + b * math.exp(2.0 * kappa * x) + c


def flight_time(region: str, x: float, x_ref: float, ms, E, U, hbar, mass) -> float:
    """|dW/dE| between x_ref and x from the closed-form reduced action.

    Free region:      W = hbar arctan((a tan kx + c/2)/g), unwrapped by pi per
                      half-period, so dW/dk = hbar g [x/D(x) - x_ref/D(x_ref)].
    Forbidden region: W = hbar arctan((b e^{2 kappa x} + c/2)/g), so
                      dW/dkappa = 2 hbar g [x/D(x) - x_ref/D(x_ref)].
    g = sqrt(ab - c^2/4) and D is the bilinear denominator of the region.
    """
    a, b, c = ms.a, ms.b, ms.c
    g = math.sqrt(a * b - 0.25 * c * c)
    k, kappa = wavenumbers(E, U, hbar, mass)
    if region == "free":
        D = _free_denominator
        span = x / D(a, b, c, k, x) - x_ref / D(a, b, c, k, x_ref)
        return abs(mass / (hbar * k) * g * span)
    D = _forbidden_denominator
    span = x / D(a, b, c, kappa, x) - x_ref / D(a, b, c, kappa, x_ref)
    return abs(2.0 * mass / (hbar * kappa) * g * span)


def forbidden_speed(x: float, ms, E, U, hbar, mass) -> float:
    """1/|dW_x/dE| in the forbidden region, W_x = 2 hbar kappa g / D."""
    a, b, c = ms.a, ms.b, ms.c
    g = math.sqrt(a * b - 0.25 * c * c)
    _, kappa = wavenumbers(E, U, hbar, mass)
    lo, hi = a * math.exp(-2.0 * kappa * x), b * math.exp(2.0 * kappa * x)
    D = lo + hi + c
    dD_dkappa = 2.0 * x * (hi - lo)
    dWx_dkappa = 2.0 * hbar * g * (1.0 / D - kappa * dD_dkappa / (D * D))
    return 1.0 / abs(dWx_dkappa * mass / (hbar * hbar * kappa))


def trajectory_errors(job, samples, onset: float, residuals) -> tuple[list[str], float]:
    """Check one trajectory job; also return its worst flight-time deviation."""
    errors = []
    x0 = job.x_range[0]
    worst = 0.0
    if len(samples) != job.n:
        errors.append(f"expected {job.n} samples, got {len(samples)}")
    for s in samples[1:]:
        expected = flight_time(job.region, s.x, x0, job.ms, job.E, job.U, job.hbar, job.mass)
        dev = abs(s.t - expected) / expected
        worst = max(worst, dev)
        if not dev <= FLIGHT_TIME_RTOL:
            errors.append(f"flight time {s.t!r} at x={s.x!r} deviates {dev:.3g} from {expected!r}")
            break
    if samples and samples[0].t != 0.0:
        errors.append(f"first sample carries t={samples[0].t!r}, expected 0")
    limit = QSHJE_RTOL * job.E
    for x, res in zip(job.residual_points, residuals):
        if not abs(res) <= limit:
            errors.append(f"QSHJE residual {res!r} at x={x!r} exceeds {limit!r}")
            break
    errors += onset_errors(onset, job)
    return errors, worst


def quadrature_miss(errors: list[str], worst: float) -> bool:
    """Whether a job's only problem is a flight time within the known quadrature defect.

    ``errors`` and ``worst`` come from ``trajectory_errors``, which stops at the
    first flight time out of tolerance, so a single error with ``worst`` past
    FLIGHT_TIME_RTOL is that flight time.
    """
    return len(errors) == 1 and FLIGHT_TIME_RTOL < worst < FLIGHT_TIME_DEFECT_RTOL


def onset_errors(onset: float, job) -> list[str]:
    """The onset sits one scan step past the last speed at or below the floor."""
    _, kappa = wavenumbers(job.E, job.U, job.hbar, job.mass)
    floor = job.speed_floor
    speed = lambda x: forbidden_speed(x, job.ms, job.E, job.U, job.hbar, job.mass)  # noqa: E731
    if not (math.isfinite(onset) and onset >= 0.0):
        return [f"onset {onset!r} is not a finite depth"]
    errors = []
    if not speed(onset) > floor * (1.0 - 1e-9):
        errors.append(f"speed at onset {onset!r} is not above the floor {floor!r}")
    if onset > 0.0 and not speed(onset - 0.01 / (2.0 * kappa)) <= floor * (1.0 + 1e-9):
        errors.append(f"speed one step before onset {onset!r} is already above the floor")
    return errors


# -- square well ----------------------------------------------------------


def k_max(U, hbar, mass) -> float:
    return math.sqrt(2.0 * mass * U) / hbar


def ladder_count(U, q, hbar, mass) -> int:
    """Bound states of the well: one per pi/2 of k_max q, i.e. ceil(2 k_max q / pi)."""
    return math.ceil(2.0 * k_max(U, hbar, mass) * q / math.pi)


def _matching_errors(parity: str, k: float, kmax: float, q: float) -> list[str]:
    # Pole-free bracket of the matching condition, scaled by its slope q k_max.
    kappa = math.sqrt(max(kmax * kmax - k * k, 0.0))
    if parity == "even":
        res = k * math.sin(k * q) - kappa * math.cos(k * q)
    else:
        res = k * math.cos(k * q) + kappa * math.sin(k * q)
    if not abs(res) <= MATCHING_RTOL * q * kmax * max(1.0, k * q):
        return [f"{parity} state at k={k!r} leaves matching residual {res!r}"]
    return []


def ladder_errors(states, U, q, hbar, mass, expected: int) -> list[str]:
    """Full-ladder check: count, ascending energies, alternating parity, residuals."""
    kmax = k_max(U, hbar, mass)
    errors = []
    if len(states) != expected:
        errors.append(f"ladder holds {len(states)} states, expected {expected}")
    errors += genuine_state_errors(states, kmax, q, alternating=not errors)
    return errors


def genuine_state_errors(states, kmax: float, q: float, alternating: bool = True) -> list[str]:
    """Every returned state solves its matching condition, in ascending order."""
    errors = []
    prev = -math.inf
    for i, s in enumerate(states):
        if not s.E > prev:
            return [f"state {i} is not above state {i - 1}"]
        prev = s.E
        if alternating and s.parity != ("even" if i % 2 == 0 else "odd"):
            return [f"state {i} has parity {s.parity!r}"]
        # State i is the one root with k q in (i pi/2, (i+1) pi/2).
        lo, hi = i * math.pi / 2, (i + 1) * math.pi / 2
        if alternating and not lo * (1 - 1e-12) < s.k * q < hi * (1 + 1e-12):
            return [f"state {i} at k q = {s.k * q!r} lies outside ({lo!r}, {hi!r})"]
        errors += _matching_errors(s.parity, s.k, kmax, q)
        if errors:
            return errors
    return errors


def node_positions(parity: str, k: float, q: float) -> list[float]:
    """Zeros of the interior eigenfunction: k x = j pi (odd) or (j + 1/2) pi (even)."""
    offset = 0.0 if parity == "odd" else 0.5
    j_max = int(k * q / math.pi) + 1
    nodes = [(j + offset) * math.pi / k for j in range(-j_max - 1, j_max + 1)]
    return [x for x in nodes if abs(x) < q]


def query_errors(query, state, nodes, report, connection) -> list[str]:
    """Check one state query: eigenstate, nodes, relation report and connection."""
    errors = []
    q = query.q
    index = query.index
    parity = "even" if index % 2 == 0 else "odd"
    if state.parity != parity or state.index != index:
        errors.append(f"state {index} came back as {state.parity!r} #{state.index!r}")
        return errors
    k = state.kinematics.k
    errors += _matching_errors(parity, k, k_max(query.U, query.hbar, query.mass), q)
    if abs(k - query.k) > 1e-10 * query.k:
        errors.append(f"state {index} has k={k!r}, closed form {query.k!r}")
    expected_nodes = node_positions(parity, query.k, q)
    if len(nodes) != index or len(expected_nodes) != index:
        errors.append(f"state {index} has {len(nodes)} nodes (closed form: {len(expected_nodes)})")
    else:
        for got, want in zip(nodes, expected_nodes):
            if abs(got - want) > NODE_RTOL * q:
                errors.append(f"node {got!r} of state {index} is off the closed form {want!r}")
                break
    errors += report_errors(report, query, expected_nodes)
    elapsed = query.present[1] - query.past[1]
    if abs(connection.arrival_time - query.present[1]) > ARRIVAL_RTOL * max(elapsed, abs(query.present[1])):
        errors.append(
            f"connection arrives at {connection.arrival_time!r}, present is {query.present[1]!r}"
        )
    return errors


def report_errors(report, query, expected_nodes) -> list[str]:
    """Relation report on the query grid: only node presents lose density support."""
    grid = query.grid
    at_node = sum(
        1 for x in grid.present_positions if any(abs(x - n) <= 1e-12 * query.q for n in expected_nodes)
    )
    per_present = len(grid.past_positions) * len(grid.time_offsets)
    tr_only = at_node * per_present
    total = len(grid.present_positions) * per_present
    expected = {"BothAllow": total - tr_only, "CopenhagenOnly": 0, "TROnly": tr_only, "NeitherAllow": 0}
    errors = []
    if dict(report.counts) != expected or report.total != total:
        errors.append(f"relation counts {report.counts!r}, expected {expected!r}")
    relation = (
        "{TR} union {Copenhagen} != {Copenhagen}" if tr_only else "{TR} union {Copenhagen} = {TR}"
    )
    if report.relation != relation:
        errors.append(f"relation {report.relation!r}, expected {relation!r}")
    return errors


# -- command line -----------------------------------------------------------


def cli_errors(stdout: bytes, code: int, expected_stdout: bytes | None, expected_code: int) -> list[str]:
    """Golden bytes (or empty stdout for an error exit) and the exit code."""
    errors = []
    if code != expected_code:
        errors.append(f"exit code {code}, expected {expected_code}")
    want = expected_stdout if expected_stdout is not None else b""
    if stdout != want:
        errors.append(f"stdout differs from the golden bytes ({len(stdout)} vs {len(want)} bytes)")
    return errors
