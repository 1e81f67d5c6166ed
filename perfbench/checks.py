"""Output checks for the benchmark's operations.

Every check compares an output against a reference that does not go through
the code path being measured: mass balances are summed here, failure masses
come from the closed form below, CLI tables are parsed here and compared with
values computed in-process, and Monte Carlo estimates are compared with closed
forms in units of their standard error.  A check returns a ``Verdict``; it
never raises on a wrong value, so a failed check is counted, not fatal.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple, Optional, Sequence

#: the lattice window contract of the test suite: out-of-window mass bound
WINDOW_TAIL_LIMIT = 1e-10
#: slack on a window's mass balance for the per-state quadrature tolerance
WINDOW_MASS_SLACK = 1e-9
#: relative tolerance of window and slice moments against the closed forms
MOMENT_RTOL = 1e-6
#: an estimate passes when it lies within this many standard errors
Z_LIMIT = 5.0
#: CLI cells are printed with 6 significant digits
CELL_RTOL = 1e-5


class Verdict(NamedTuple):
    ok: bool
    detail: str = ""
    z: Optional[float] = None


PASS = Verdict(True)


def failure_mass(nu: float, eta: float, t: float) -> float:
    """P(under repair at t) for the on/off cycle, written out independently."""
    rate = nu + eta
    return nu / rate * (1.0 - math.exp(-rate * t))


def close(value: float, reference: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - reference) <= atol + rtol * abs(reference)


def window(probabilities: dict, tail_bound: float, failure: float,
           mean_ref: float, var_ref: float) -> Verdict:
    """Lattice window: tail bound within contract, mass balance against the
    bound, and first two moments against the closed forms."""
    total = math.fsum(probabilities.values()) + failure
    if not tail_bound <= WINDOW_TAIL_LIMIT:
        return Verdict(False, f"tail_bound {tail_bound:.3g} > {WINDOW_TAIL_LIMIT:g}, "
                              f"total mass {total:.6g}")
    if abs(1.0 - total) > tail_bound + WINDOW_MASS_SLACK:
        return Verdict(False, f"mass defect {1.0 - total:.3g} exceeds tail bound {tail_bound:.3g}")
    mean = math.fsum(n * v for n, v in probabilities.items())
    second = math.fsum(n * n * v for n, v in probabilities.items())
    var = second - mean * mean
    scale = math.sqrt(max(var_ref, 0.0)) + 1.0
    if abs(mean - mean_ref) > MOMENT_RTOL * scale:
        return Verdict(False, f"window mean {mean:.12g} vs closed form {mean_ref:.12g}")
    if not close(var, var_ref, MOMENT_RTOL, MOMENT_RTOL):
        return Verdict(False, f"window variance {var:.12g} vs closed form {var_ref:.12g}")
    return PASS


def trapezoid(xs: Sequence[float], ys: Sequence[float]) -> float:
    return math.fsum(0.5 * (ys[i] + ys[i + 1]) * (xs[i + 1] - xs[i]) for i in range(len(xs) - 1))


def density_slice(xs, values, tail_mass: float, failure: float,
                  mass_tolerance: float, mean_ref: float, var_ref: float) -> Verdict:
    """Diffusion slice: trapezoid mass + tail mass + failure mass is 1 within
    the slice's declared tolerance, and the slice's truncated mean and
    variance match the closed forms."""
    xs = [float(x) for x in xs]
    ys = [float(v) for v in values]
    total = trapezoid(xs, ys) + tail_mass + failure
    if not abs(1.0 - total) <= mass_tolerance:
        return Verdict(False, f"slice mass {total:.8g}, tolerance {mass_tolerance:g}")
    mean = trapezoid(xs, [x * y for x, y in zip(xs, ys)])
    if abs(mean - mean_ref) > MOMENT_RTOL * (1.0 + abs(mean_ref)):
        return Verdict(False, f"slice mean {mean:.10g} vs closed form {mean_ref:.10g}")
    var = trapezoid(xs, [x * x * y for x, y in zip(xs, ys)]) - mean * mean
    if not close(var, var_ref, MOMENT_RTOL):
        return Verdict(False, f"slice variance {var:.10g} vs closed form {var_ref:.10g}")
    return PASS


def scalar(value: float, reference: float, rtol: float, what: str = "value") -> Verdict:
    if isinstance(value, float) and close(value, reference, rtol):
        return PASS
    return Verdict(False, f"{what} {value!r} vs reference {reference!r}")


def estimate(value: float, standard_error: Optional[float], reference: float) -> Verdict:
    """Monte Carlo estimate within Z_LIMIT standard errors of the closed form.
    A zero standard error (every replication agreed) needs near equality."""
    if standard_error is None:
        return Verdict(False, "no standard error")
    if standard_error == 0.0:
        ok = abs(value - reference) <= 1e-9
        return Verdict(ok, "" if ok else f"{value!r} with zero SE vs {reference!r}", 0.0)
    z = abs(value - reference) / standard_error
    if z > Z_LIMIT:
        return Verdict(False, f"{value:.6g} is {z:.2f} SE from {reference:.6g}", z)
    return Verdict(True, "", z)


def table(text: str, columns: Sequence[str], expected: Sequence[Sequence[float]],
          rtol: float = CELL_RTOL, atol: float = 0.0) -> Verdict:
    """Compare a CSV table as the CLI writes it ('#' comment lines, a header,
    rows) cell by cell with numbers computed in-process."""
    body = [line for line in text.splitlines() if line and not line.startswith("#")]
    rows = list(csv.reader(body))
    if not rows:
        return Verdict(False, "table has no header")
    header, rows = rows[0], rows[1:]
    if header != list(columns):
        return Verdict(False, f"header {header} != {list(columns)}")
    if len(rows) != len(expected):
        return Verdict(False, f"{len(rows)} rows, expected {len(expected)}")
    for i, (row, ref) in enumerate(zip(rows, expected)):
        if len(row) != len(ref):
            return Verdict(False, f"row {i} has {len(row)} cells, expected {len(ref)}")
        for cell, want in zip(row, ref):
            try:
                good = close(float(cell), float(want), rtol, atol)
            except ValueError:
                good = False
            if not good:
                return Verdict(False, f"row {i}: cell {cell!r} vs {want!r}")
    return PASS


def trace_file(text: str, events: int, observations: int, replications: int) -> Verdict:
    """Exported traces: header lines, then one parseable record per event and
    per observation, replication indices in range."""
    lines = text.splitlines()
    if not lines or lines[0] != "# catwalk-traces v1":
        return Verdict(False, "missing format tag")
    counts = {"event": 0, "obs": 0}
    for line in lines:
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 4 or fields[1] not in counts:
            return Verdict(False, f"malformed record {line!r}")
        try:
            index, when = int(fields[0]), float(fields[2])
        except ValueError:
            return Verdict(False, f"malformed record {line!r}")
        if not (0 <= index < replications and when >= 0.0):
            return Verdict(False, f"record out of range {line!r}")
        counts[fields[1]] += 1
    if counts != {"event": events, "obs": observations}:
        return Verdict(False, f"record counts {counts}, expected {events} events, "
                              f"{observations} observations")
    return PASS
