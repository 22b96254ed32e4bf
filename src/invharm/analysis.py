"""Closed-form estimates and an empirical fit: critical time, determinant
roots and the entropy line fit.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import NormalModes
from .propagator import dtilde

__all__ = [
    "DomainError",
    "WindowTooShort",
    "critical_time_paper",
    "critical_time_derived",
    "find_divergences",
    "fit_entropy_line",
]


class DomainError(ValueError):
    """Arguments outside the validity region of a closed-form estimate."""


class WindowTooShort(ValueError):
    """A fit window does not span enough of the trajectory."""


def _check_tc_args(omega: float, lam: float, theta_c: float):
    if omega <= 0:
        raise DomainError("critical time requires omega > 0")
    if lam <= 0:
        raise DomainError("critical time requires lambda > 0")
    if not 0.0 < abs(theta_c) < 1.0:
        raise DomainError("critical time requires 0 < |theta_c| < 1")


def critical_time_paper(omega: float, lam: float, theta_c: float) -> float:
    """Divergence timescale, legacy variant: the logarithmic correction
    term is not scaled by the rate.  Kept for comparison alongside
    :func:`critical_time_derived`."""
    _check_tc_args(omega, lam, theta_c)
    return -2.0 * math.log(abs(theta_c)) / lam + math.log(
        omega * lam / (omega**2 + lam**2)
    )


def critical_time_derived(omega: float, lam: float, theta_c: float) -> float:
    """Time when the growing term of the determinant expansion reaches
    unit amplitude; its envelope is (omega^2 + lambda^2)/(2 omega lambda).
    """
    _check_tc_args(omega, lam, theta_c)
    return (
        -2.0 * math.log(abs(theta_c))
        + math.log(2.0 * omega * lam / (omega**2 + lam**2))
    ) / lam


def _scan_step(modes: NormalModes, t_max: float) -> float:
    rates = []
    if modes.omega > 0:
        rates.append(math.pi / (8.0 * modes.omega))
    if modes.lambda_sq > 0:
        rates.append(1.0 / (8.0 * math.sqrt(modes.lambda_sq)))
    elif modes.lambda_sq < 0:
        rates.append(math.pi / (8.0 * math.sqrt(-modes.lambda_sq)))
    step = min(rates) if rates else t_max / 1000.0
    return min(step, t_max / 16.0)


def _bisect_crossing(f, a, b, tol):
    """Narrow a bracket [a, b] of a crossing of zero by f, where f < 0 at
    a and f >= 0 at b (either end may be the larger), by halving it until
    |b - a| <= tol or f is exactly 0 at a midpoint, which is returned as
    both ends.  Once the midpoint rounds to an end the bracket cannot
    move, and f is not called there.  Returns the final (a, b)."""
    while abs(b - a) > tol:
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid, mid
        if fm < 0.0:
            a = mid
        else:
            b = mid
    return a, b


def find_divergences(modes: NormalModes, t_max: float) -> list[float]:
    """All sign-change roots of Dtilde on [0, t_max], located by one
    array evaluation on a scan at the fastest mode rate followed by
    bisection to 1e-10 absolute, or to adjacent floats where those are
    further apart.  A non-finite Dtilde on the scan (the kernels
    overflow) raises ``FloatingPointError``."""
    if t_max <= 0:
        raise ValueError("t_max must be > 0")
    step = _scan_step(modes, t_max)
    n = int(math.ceil(t_max / step)) + 1
    ts = np.linspace(0.0, t_max, n)
    vals = dtilde(modes, ts)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise FloatingPointError(f"Dtilde is not finite at t = {float(ts[bad[0]])!r}")
    va, vb = vals[:-1], vals[1:]
    roots = []
    for i in np.flatnonzero((va == 0.0) | (va * vb < 0.0)):
        if va[i] == 0.0:
            if ts[i] > 0:
                roots.append(float(ts[i]))
            continue
        # from the end where Dtilde is negative; past t = 2**19 an ulp of
        # t exceeds 1e-10 and the midpoint stop ends the bisection
        neg, pos = (ts[i], ts[i + 1]) if va[i] < 0.0 else (ts[i + 1], ts[i])
        neg, pos = _bisect_crossing(lambda t: dtilde(modes, t), neg, pos, 1e-10)
        roots.append(0.5 * (neg + pos))
    return roots


def fit_entropy_line(traj, window, omega: float) -> tuple[float, float]:
    """Least-squares line through S(t), restricted to whole modulation
    periods so the periodic modulation does not bias the slope.  The
    entropy modulation rides on the variances, which oscillate at twice
    the system mode frequency omega, so the period is pi / omega; at
    omega = 0 the whole window is fitted.  Returns (slope, intercept)."""
    t0, t1 = window
    times = np.asarray(traj.times)
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise WindowTooShort("window extends beyond the trajectory")
    S = traj.diags.S
    if omega > 0:
        period = math.pi / omega
        n_periods = int(math.floor((t1 - t0) / period))
        if n_periods < 3:
            raise WindowTooShort(
                f"window spans {n_periods} modulation periods; need >= 3"
            )
        t1 = t0 + n_periods * period
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if mask.sum() < 2:
        raise WindowTooShort("fewer than 2 samples in fit window")
    coeffs = np.polyfit(times[mask], S[mask], 1)
    return float(coeffs[0]), float(coeffs[1])
