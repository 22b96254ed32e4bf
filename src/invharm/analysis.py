"""Closed-form estimates and empirical fits: critical time, determinant
roots, approximate determinant and diffusion, entropy-line fits, and the
decoherence timescale.
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
    "approx_D",
    "approx_f1",
    "fit_entropy_line",
    "fit_entropy_log",
    "decoherence_time",
    "kappa_default",
]


class DomainError(ValueError):
    """Arguments outside the validity region of a closed-form estimate."""


class WindowTooShort(ValueError):
    """A fit window does not span enough of the trajectory."""


def _check_tc_args(lam: float, theta_c: float):
    if lam <= 0:
        raise DomainError("critical time requires lambda > 0")
    if not 0.0 < abs(theta_c) < 1.0:
        raise DomainError("critical time requires 0 < |theta_c| < 1")


def critical_time_paper(omega: float, lam: float, theta_c: float) -> float:
    """Divergence timescale, legacy variant: the logarithmic correction
    term is not scaled by the rate.  Kept for comparison alongside
    :func:`critical_time_derived`."""
    _check_tc_args(lam, theta_c)
    return -2.0 * math.log(abs(theta_c)) / lam + math.log(
        omega * lam / (omega**2 + lam**2)
    )


def critical_time_derived(omega: float, lam: float, theta_c: float) -> float:
    """Time when the growing term of the determinant expansion reaches
    unit amplitude; its envelope is (omega^2 + lambda^2)/(2 omega lambda).
    """
    _check_tc_args(lam, theta_c)
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


def find_divergences(modes: NormalModes, t_max: float) -> list[float]:
    """All sign-change roots of Dtilde on [0, t_max], located by one
    array evaluation on a scan at the fastest mode rate followed by
    bisection to 1e-10 absolute.  A non-finite Dtilde on the scan (the
    kernels overflow) raises ``FloatingPointError``."""
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
        lo, hi = ts[i], ts[i + 1]
        flo = va[i]
        while hi - lo > 1e-10:
            mid = 0.5 * (lo + hi)
            fm = dtilde(modes, mid)
            if fm == 0.0:
                lo = hi = mid
                break
            if flo * fm < 0.0:
                hi = mid
            else:
                lo, flo = mid, fm
        roots.append(0.5 * (lo + hi))
    return roots


def approx_D(omega: float, lam: float, theta_c: float, t: float) -> float:
    """Weak-coupling expansion of the determinant for lambda^-1 << t."""
    th2 = theta_c * theta_c
    return 1.0 + th2 * math.exp(lam * t) * (
        (omega**2 - lam**2) * math.sin(omega * t)
        + 2.0 * omega * lam * math.cos(omega * t)
    ) / (omega * lam)


def approx_f1(modes: NormalModes, t: float) -> float:
    """Order-of-magnitude momentum-diffusion coefficient for small mass
    ratio and weak coupling: grows as exp(2 lambda t)."""
    if modes.lambda_sq <= 0:
        raise DomainError("approx_f1 requires an unstable environment")
    lam = math.sqrt(modes.lambda_sq)
    return (
        modes.m_s
        * modes.theta_c**2
        * (modes.omega**2 + modes.lambda_sq)
        * math.exp(2.0 * lam * t)
        / (modes.m_e * modes.hbar**2)
    )


def _window_samples(traj, window):
    t0, t1 = window
    times = np.asarray(traj.times)
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise WindowTooShort("window extends beyond the trajectory")
    return times, traj.diags.S


def fit_entropy_line(traj, window) -> tuple[float, float]:
    """Least-squares line through S(t), restricted to whole modulation
    periods so the periodic modulation does not bias the slope.  The
    entropy modulation rides on the variances, which oscillate at twice
    the mode frequency, so the period is pi / omega.  Returns
    (slope, intercept)."""
    times, S = _window_samples(traj, window)
    t0, t1 = window
    omega = traj.meta.get("omega")
    if omega and omega > 0:
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


def fit_entropy_log(traj, window) -> tuple[float, float]:
    """Least squares of S against ln t; returns (c0, c1) of c0 + c1 ln t."""
    times, S = _window_samples(traj, window)
    t0, t1 = window
    if t0 <= 0:
        raise WindowTooShort("log fit window must start at t > 0")
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if mask.sum() < 2:
        raise WindowTooShort("fewer than 2 samples in fit window")
    c1, c0 = np.polyfit(np.log(times[mask]), S[mask], 1)
    return float(c0), float(c1)


def decoherence_time(
    S_d: float, kappa: float, dx2: float, theta_c: float, lam: float
) -> float:
    """Time to produce entropy S_d from a pure state: inversely linear in
    lambda, logarithmic in the coupling and initial spread."""
    if lam <= 0:
        raise DomainError("decoherence time requires lambda > 0")
    return (S_d - math.log(kappa * dx2) - math.log(abs(theta_c))) / lam


def kappa_default(modes: NormalModes) -> float:
    """Default kappa from the approximate-diffusion factorization."""
    if modes.lambda_sq <= 0:
        raise DomainError("kappa_default requires an unstable environment")
    return math.sqrt(
        modes.m_s
        * (modes.omega**2 + modes.lambda_sq)
        / (modes.m_e * modes.hbar**2)
    )
