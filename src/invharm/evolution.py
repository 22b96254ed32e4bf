"""Trajectories of the reduced system, produced two ways from the same
initial product state: a system and an environment
:class:`~invharm.gaussian.GaussianState`.

``run_exact`` evaluates the reduced state from the system rows
[M_0 | M_1] of the exact transition matrix, over the whole time grid at
once, which involves no time-stepping error.
``run_me`` integrates the five moment ODEs of the master equation with
adaptive stepping; across windows where the determinant guard trips
(master-equation breakdown instants) it bridges with the exact
propagator and resumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .analysis import find_divergences
from .coefficients import DEFAULT_GUARD, coeffs_general
from .gaussian import Diagnostics, GaussianState, diagnostics_from_area
from .modes import NormalModes
from .propagator import cross_block, det_m1, dtilde, mode_blocks

__all__ = [
    "StepFailure",
    "GridMismatch",
    "IntegratorOptions",
    "Trajectory",
    "TrajectoryComparison",
    "run_exact",
    "run_me",
    "compare_trajectories",
]


class StepFailure(RuntimeError):
    """Adaptive integration could not meet its tolerances."""


class GridMismatch(ValueError):
    """Two trajectories do not share a common time grid."""


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    divergence_guard: float = DEFAULT_GUARD

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.divergence_guard <= 0:
            raise ValueError("divergence_guard must be positive")


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on the first call: only
    ``run_me`` integrates, so the exact paths never load scipy."""
    from scipy.integrate import solve_ivp as _solve_ivp

    return _solve_ivp(*args, **kwargs)


MOMENT_NAMES = ("mean_x", "mean_p", "dx2", "dp2", "dxp")


@dataclass
class Trajectory:
    """Time series of the system moments and of their diagnostics.

    ``diags`` holds one column per diagnostic, with one entry per time.
    """

    times: np.ndarray
    moments: np.ndarray  # shape (n, 5): mean_x, mean_p, dx2, dp2, dxp
    diags: Diagnostics
    bridged: np.ndarray | None = None  # bool mask of exact-bridged samples
    meta: dict = field(default_factory=dict)


def _exact_moments(
    modes: NormalModes, sys0: GaussianState, env0: GaussianState, t: np.ndarray
) -> np.ndarray:
    """Reduced moments, shape (n, 5), at the n times t of the product
    state sys0 x env0: only the system rows [M_0 | M_1] of the transition
    matrix act on it."""
    m0, m1 = (np.moveaxis(b, -1, 0) for b in mode_blocks(modes, t))
    mean = m0 @ sys0.mean + m1 @ env0.mean
    cov = m0 @ sys0.cov @ m0.swapaxes(1, 2) + m1 @ env0.cov @ m1.swapaxes(1, 2)
    return np.column_stack(
        (
            mean,
            cov[:, 0, 0],
            cov[:, 1, 1],
            0.5 * (cov[:, 0, 1] + cov[:, 1, 0]),
        )
    )


def _psd_factor(cov: np.ndarray) -> np.ndarray:
    """A factor C with C C^T = cov (Cholesky, eigen fallback on the PSD
    boundary)."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cov)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _reduced_area(
    modes: NormalModes,
    cs: np.ndarray,
    ce: np.ndarray,
    det_s: float,
    det_e: float,
    t: np.ndarray,
) -> np.ndarray:
    """Scaled area at the times t of the reduced state of an initially
    uncorrelated two-mode state, evaluated without catastrophic
    cancellation.

    The reduced covariance is L L^T with L = [M0 Cs | M1 Ce] (Cs, Ce
    factors of the initial covariances Vs, Ve, whose determinants are
    det_s, det_e), so by the Cauchy-Binet formula
    its determinant is the sum of squared 2-column minors of L:

        Dtilde^2 det(Vs) + det(M1)^2 det(Ve) + ||Cs^T X Ce||_F^2

    with X = M0^T J M1.  Every addend is a square, and the minors
    themselves come from :func:`dtilde` / :func:`det_m1` /
    :func:`cross_block` in analytically reduced form, so the result keeps
    relative accuracy even when the covariance entries dwarf the area.
    The determinant of the assembled reduced covariance, by contrast,
    loses all precision once the entries exceed the area by more than
    half the working precision.
    """
    det_a = dtilde(modes, t) ** 2 * det_s
    det_b = det_m1(modes, t) ** 2 * det_e
    minors = cs.T @ np.moveaxis(cross_block(modes, t), -1, 0) @ ce
    rad = det_a + det_b + np.sum(minors * minors, axis=(1, 2))
    return np.sqrt(np.maximum(rad, 0.0)) / (modes.hbar / 2.0)


def run_exact(
    modes: NormalModes, sys0: GaussianState, env0: GaussianState, grid
) -> Trajectory:
    """Exact trajectory of the product state sys0 x env0: every grid
    point evaluated independently, all of them in one pass over the
    grid."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    # per-run invariants of the area expansion
    cs, ce = _psd_factor(sys0.cov), _psd_factor(env0.cov)
    det_s = float(np.linalg.det(sys0.cov))
    det_e = float(np.linalg.det(env0.cov))

    moments = _exact_moments(modes, sys0, env0, grid)
    A = _reduced_area(modes, cs, ce, det_s, det_e, grid)
    return Trajectory(
        times=grid,
        moments=moments,
        diags=diagnostics_from_area(A, moments, modes.m_s, modes.omega, modes.hbar),
        bridged=np.zeros(grid.size, dtype=bool),
        meta={
            "method": "exact",
            "omega": modes.omega,
            "lambda_sq": modes.lambda_sq,
            "theta_c": modes.theta_c,
            "m_s": modes.m_s,
            "m_e": modes.m_e,
            "hbar": modes.hbar,
        },
    )


def _blocked_window(modes, root, guard, t_end):
    """Interval around a determinant root where |Dtilde| < guard, and at
    least guard / (fastest mode rate) on each side of it: the slope of
    Dtilde at a root grows like e^{lambda t}, so the guard set alone
    narrows to nothing at late roots."""

    def edge(direction):
        step = 0.01
        lo = root
        hi = root + direction * step
        while abs(dtilde(modes, hi)) < guard:
            lo = hi
            step *= 2.0
            hi = root + direction * step
            if direction > 0 and hi > t_end + 1.0:
                return t_end
            if direction < 0 and hi < 0.0:
                return 0.0
        # bisect |Dtilde| = guard between lo (inside) and hi (outside)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if abs(dtilde(modes, mid)) < guard:
                lo = mid
            else:
                hi = mid
        return hi

    h = guard / max(modes.omega, abs(modes.lambda_sq) ** 0.5)
    return min(edge(-1.0), max(root - h, 0.0)), max(edge(+1.0), root + h)


def run_me(
    modes: NormalModes,
    sys0: GaussianState,
    env0: GaussianState,
    grid,
    opts: IntegratorOptions = IntegratorOptions(),
) -> Trajectory:
    """Integrate the five moment ODEs of the master equation on a grid,
    from sys0; the coefficients see the environment state env0.

    Within blocked windows around determinant roots the trajectory is
    filled from the exact propagator and the integrator restarts from
    the exact state at the window's far edge.  Each segment between
    windows is integrated once, and only if it holds a grid point.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0 or grid[0] != 0.0:
        raise ValueError("grid must be nonempty and start at 0")

    m_s = modes.m_s
    hbar = modes.hbar

    def rhs(t, y):
        c = coeffs_general(modes, env0, t, guard=opts.divergence_guard)
        om2 = c.omega_eff_sq
        gam = c.gamma_eff
        mx, mp, dx2, dp2, dxp = y
        return [
            mp / m_s,
            -m_s * om2 * mx - gam * mp + c.F,
            2.0 * dxp / m_s,
            -2.0 * m_s * om2 * dxp - 2.0 * gam * dp2 + 2.0 * hbar**2 * c.f1,
            -m_s * om2 * dx2 + dp2 / m_s - gam * dxp + hbar**2 * c.f2,
        ]

    t_end = float(grid[-1])
    roots = find_divergences(modes, t_end) if t_end > 0 else []
    windows = [
        _blocked_window(modes, r, opts.divergence_guard, t_end) for r in roots
    ]
    # merge overlaps
    merged = []
    for a, b in sorted(windows):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    windows = merged

    moments = np.full((grid.size, 5), np.nan)
    bridged = np.zeros(grid.size, dtype=bool)
    y = np.array([*sys0.mean, sys0.cov[0, 0], sys0.cov[1, 1], sys0.cov[0, 1]])
    moments[0] = y
    t_cur = 0.0

    segments = []
    for a, b in windows:
        segments.append((t_cur, a, False))
        segments.append((a, b, True))
        t_cur = b
    segments.append((t_cur, t_end, False))

    for a, b, blocked in segments:
        if b <= a:
            continue
        sel = np.where((grid > a + 1e-15) & (grid <= b + 1e-15))[0]
        if blocked:
            # fill from the exact state and restart from it at the far edge
            exact = _exact_moments(modes, sys0, env0, np.append(grid[sel], b))
            moments[sel] = exact[:-1]
            bridged[sel] = True
            y = exact[-1]
            continue
        # an unblocked segment ends at a window (whose far edge restarts
        # from the exact state) or at t_end, so only its grid points
        # are read
        if sel.size == 0:
            continue
        try:
            sol = solve_ivp(
                rhs,
                (a, b),
                y,
                method="DOP853",
                t_eval=grid[sel],
                rtol=opts.rel_tol,
                atol=opts.abs_tol,
            )
        except ArithmeticError as exc:
            raise StepFailure(
                f"integrator failed on [{a}, {b}]: {type(exc).__name__}: {exc}"
            ) from exc
        if not sol.success:
            raise StepFailure(f"integrator failed on [{a}, {b}]: {sol.message}")
        moments[sel] = sol.y.T

    # The covariance determinant is a difference of near-equal large
    # numbers once the entries have grown several orders beyond the
    # area, so past the first breakdown the ME-derived area is noise-
    # limited; it is clamped to the purity floor there.  Use run_exact
    # for quantitative entropy at long times.
    rad = np.linalg.det(moments[:, [[2, 4], [4, 3]]])
    A = np.maximum(np.sqrt(np.maximum(rad, 0.0)) / (hbar / 2.0), 1.0)
    return Trajectory(
        times=grid,
        moments=moments,
        diags=diagnostics_from_area(A, moments, m_s, modes.omega, hbar),
        bridged=bridged,
        meta={
            "method": "master_equation",
            "omega": modes.omega,
            "lambda_sq": modes.lambda_sq,
            "theta_c": modes.theta_c,
            "m_s": m_s,
            "m_e": modes.m_e,
            "hbar": hbar,
            "bridges": windows,
            "first_bridge_time": windows[0][0] if windows else None,
        },
    )


@dataclass(frozen=True)
class TrajectoryComparison:
    """Per-moment deviations between two trajectories on a shared grid."""

    max_abs: dict
    max_rel: dict
    bridged_excluded: int

    @property
    def worst_rel(self) -> float:
        return max(self.max_rel.values())


def compare_trajectories(a: Trajectory, b: Trajectory) -> TrajectoryComparison:
    """Max absolute and scale-normalized deviations, excluding bridged samples.

    The relative deviation of a moment is its max absolute deviation over
    the (unbridged) grid divided by the moment's peak magnitude there, so
    moments that pass through zero do not produce spurious blowups.
    """
    if a.times.shape != b.times.shape or np.abs(a.times - b.times).max() > 1e-12:
        raise GridMismatch("trajectories use different grids")
    mask = np.ones(a.times.size, dtype=bool)
    for traj in (a, b):
        if traj.bridged is not None:
            mask &= ~traj.bridged
    max_abs = {}
    max_rel = {}
    for j, name in enumerate(MOMENT_NAMES):
        xa = a.moments[mask, j]
        xb = b.moments[mask, j]
        dev = np.abs(xa - xb).max() if mask.any() else 0.0
        scale = max(np.abs(xa).max(), np.abs(xb).max(), 1e-300) if mask.any() else 1.0
        max_abs[name] = float(dev)
        max_rel[name] = float(dev / scale)
    return TrajectoryComparison(
        max_abs=max_abs,
        max_rel=max_rel,
        bridged_excluded=int((~mask).sum()),
    )
