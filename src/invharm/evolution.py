"""Trajectories of the reduced system, produced two ways from the same
initial product state: a system and an environment
:class:`~invharm.gaussian.GaussianState`.

``run_exact`` evaluates the reduced state from the system rows
[M_0 | M_1] of the exact transition matrix and their minors, all read
from one ``system_rows`` call over the whole time grid, which involves
no time-stepping error.  The moments and the area are 2x2 algebra
written out on the block entries and on each initial state's entries
(``gaussian._state_parts``: its moments, Cholesky factor and
determinant), so the same code takes a leading value axis: ``run_exact``
also evaluates V runs (a list of V modes, or of V system or environment
states) in one pass, each value's rows the bits of its own one-value
run, and the ``scan`` command makes one such call per scan.  ``run_me`` reads the same state
entries for its first row and its bridges.
``run_exact`` and ``run_me`` share one grid check: a non-finite time, and
for ``run_me`` a grid that does not start at 0 or that decreases, raise
``ValueError``.
``run_me`` integrates the five moment ODEs of the master equation with
the package's adaptive DOP853 stepper (:mod:`invharm.dop853`, on Python
floats), reached through the module global ``solve_ivp`` once per
segment.  It builds the per-run coefficient function once
(``coeffs_general(modes, env0)``, through the module global of that
name), whose f1 and f2 are already contracted with the environment's
initial covariance; each right-hand-side evaluation calls it once at a
float time and weights its forces with the environment's initial mean,
bound once too.  The root search and each root's guard window bind
``dtilde(modes)`` once.  Across windows
where |Dtilde| < ``_DIVERGENCE_GUARD`` (master-equation breakdown
instants) it bridges with the exact propagator, one ``system_rows`` call
per window, and resumes where |Dtilde| >= guard: each window side
doubles from guard / (fastest mode rate) until then.  A :class:`Trajectory`
records those windows in ``bridges``, the grid points they cover in
``bridged``, and the segments' right-hand-side evaluations in ``rhs_evals``.

``moment_deviation`` is the one measure of how far the master equation
strays from the exact dynamics: per row and per moment,
|exact - me| / max(|exact|, 1).  ``evolve --method compare`` writes each
row's largest as ``rel_err_max``, and ``verify`` scores its oracle by
each moment's largest over the rows outside the bridged windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import find_divergences
from .coefficients import coeffs_general
from .dop853 import solve_ivp
from .gaussian import Diagnostics, GaussianState, _state_parts, diagnostics_from_area
from .modes import NormalModes
from .propagator import _columns, dtilde, system_rows

__all__ = [
    "Trajectory",
    "run_exact",
    "run_me",
    "moment_deviation",
]


# the stepper's tolerances: the divergence guard, not these, sets how
# closely run_me follows the exact dynamics (ROADMAP item 8)
_REL_TOL = 1e-10
_ABS_TOL = 1e-12
# the divergence guard: run_me bridges, and coeffs.csv marks invalid,
# the times where |Dtilde| < it (ROADMAP item 8 measures 1e-2 against it)
_DIVERGENCE_GUARD = 1e-3


@dataclass
class Trajectory:
    """Time series of the system moments and of their diagnostics.

    ``diags`` holds one column per diagnostic, with one entry per time.
    ``bridges`` lists the merged (start, end) windows that ``run_me``
    filled from the exact propagator, and ``bridged`` marks the grid
    points inside them; an exact run has none.  ``rhs_evals`` counts the
    right-hand-side evaluations of ``run_me``'s segments, 0 for an exact
    run.
    """

    times: np.ndarray
    moments: np.ndarray  # shape (n, 5): mean_x, mean_p, dx2, dp2, dxp
    diags: Diagnostics
    bridged: np.ndarray  # bool mask of exact-bridged samples
    bridges: list
    rhs_evals: int = 0


def _checked_grid(grid, integrated=False) -> np.ndarray:
    """``grid`` as a float array.  An empty grid, a non-finite time, and
    for a run that integrates from 0 (``integrated``) a grid that does
    not start at 0 or that decreases, raise ``ValueError`` naming it."""
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValueError("grid must be nonempty")
    bad = np.flatnonzero(~np.isfinite(grid))
    if bad.size:
        raise ValueError(f"grid time {bad[0]} is not finite: {float(grid[bad[0]])!r}")
    if integrated:
        if grid[0] != 0.0:
            raise ValueError(f"grid must start at 0, not {float(grid[0])!r}")
        down = np.flatnonzero(np.diff(grid) < 0.0)
        if down.size:
            i = down[0]
            raise ValueError(
                f"grid must not decrease: time {i + 1} is {float(grid[i + 1])!r} "
                f"after {float(grid[i])!r}"
            )
    return grid


def _block_moments(block, parts):
    """The mean M mu and the entries xx, pp, xp of M V M^T, for one 2x2
    block M of :func:`system_rows` and the ``_state_parts`` of one state
    (mu, V), written out on the block's entries."""
    (a, b), (c, d) = block
    mx, mp, vxx, vpp, vxp = parts[:5]
    # the rows of M V
    xx, xp = a * vxx + b * vxp, a * vxp + b * vpp
    px, pp = c * vxx + d * vxp, c * vxp + d * vpp
    return (
        a * mx + b * mp,
        c * mx + d * mp,
        xx * a + xp * b,
        px * c + pp * d,
        xx * c + xp * d,
    )


def _exact_moments(rows, sys_parts, env_parts) -> np.ndarray:
    """Reduced moments (mean_x, mean_p, dx2, dp2, dxp) of the product
    state sys0 x env0 at the times of ``rows``, a :func:`system_rows`
    result, on a last axis: shape (n, 5), or (V, n, 5) over V values.
    Only the system rows [M_0 | M_1] of the transition matrix act on it:
    the mean is M_0 mu_s + M_1 mu_e and the covariance
    M_0 Vs M_0^T + M_1 Ve M_1^T.  ``sys_parts`` and ``env_parts`` are the
    ``_state_parts`` of sys0 and env0, as floats or as (V, 1) columns."""
    return np.stack(
        [
            s + e
            for s, e in zip(
                _block_moments(rows[0], sys_parts), _block_moments(rows[1], env_parts)
            )
        ],
        axis=-1,
    )


def _reduced_area(rows, sys_parts, env_parts, hbar) -> np.ndarray:
    """Scaled area at the times of ``rows`` (a :func:`system_rows`
    result) of the reduced state of an initially uncorrelated two-mode
    state, evaluated without catastrophic cancellation.

    The reduced covariance is L L^T with L = [M0 Cs | M1 Ce] (Cs, Ce the
    lower Cholesky factors of the initial covariances Vs, Ve, read from
    their ``_state_parts``), so by the Cauchy-Binet formula its
    determinant is the sum of squared 2-column minors of L:

        Dtilde^2 det(Vs) + det(M1)^2 det(Ve) + ||Cs^T X Ce||_F^2

    with X = M0^T J M1.  Every addend is a square, and the minors
    Dtilde, det(M1) and X come from :func:`system_rows` in analytically
    reduced form, so the result keeps relative accuracy even when the
    covariance entries dwarf the area.
    The determinant of the assembled reduced covariance, by contrast,
    loses all precision once the entries exceed the area by more than
    half the working precision.
    """
    _, _, dt_, det_m1, ((x_dd, x_dc), (x_cd, x_cc)) = rows
    s_xx, s_px, s_pp, det_s = sys_parts[5:]
    e_xx, e_px, e_pp, det_e = env_parts[5:]
    # Cs^T X, then the cross minors W = Cs^T X Ce
    t_dd, t_dc = s_xx * x_dd + s_px * x_cd, s_xx * x_dc + s_px * x_cc
    t_cd, t_cc = s_pp * x_cd, s_pp * x_cc
    w_dd, w_dc = t_dd * e_xx + t_dc * e_px, t_dc * e_pp
    w_cd, w_cc = t_cd * e_xx + t_cc * e_px, t_cc * e_pp
    det_a = dt_**2 * det_s
    det_b = det_m1**2 * det_e
    rad = det_a + det_b + (w_dd * w_dd + w_dc * w_dc + w_cd * w_cd + w_cc * w_cc)
    return np.sqrt(np.maximum(rad, 0.0)) / (hbar / 2.0)


def run_exact(modes, sys0, env0, grid) -> Trajectory:
    """Exact trajectory of the product state sys0 x env0: every grid
    point evaluated independently, all of them in one pass over the
    grid.  An empty grid or a non-finite time raises ``ValueError``.

    ``modes``, ``sys0`` and ``env0`` are each one value, or a list or
    tuple of V: over V values the moments have shape (V, n, 5) and each
    diagnostic (V, n), and every value's rows are the bits of its own
    one-value run."""
    grid = _checked_grid(grid)
    rows = system_rows(modes, grid)
    sys_parts = _columns(sys0, _state_parts)
    env_parts = _columns(env0, _state_parts)
    moments = _exact_moments(rows, sys_parts, env_parts)
    m_s, omega, hbar = _columns(modes, lambda m: (m.m_s, m.omega, m.hbar))
    A = _reduced_area(rows, sys_parts, env_parts, hbar)
    return Trajectory(
        times=grid,
        moments=moments,
        diags=diagnostics_from_area(A, moments, m_s, omega),
        bridged=np.zeros(grid.size, dtype=bool),
        bridges=[],
    )


def _blocked_window(modes, root, guard, t_end):
    """Interval around a determinant root, clipped to [0, t_end], that
    covers the set where |Dtilde| < guard: each side is the first of the
    half-widths h, 2h, 4h, ... at whose end |Dtilde| >= guard, with
    h = guard / (fastest mode rate).  Dtilde's slope at a root grows like
    e^{lambda t}, so the guard set alone narrows to nothing at late roots."""
    dt = dtilde(modes)
    h = guard / max(modes.omega, abs(modes.lambda_sq) ** 0.5)

    def end(sign, bound):
        w = h
        while sign * (bound - (e := root + sign * w)) > 0.0:
            if abs(dt(e)) >= guard:
                return e
            w *= 2.0
        return bound

    return end(-1.0, 0.0), end(1.0, t_end)


def run_me(
    modes: NormalModes, sys0: GaussianState, env0: GaussianState, grid
) -> Trajectory:
    """Integrate the five moment ODEs of the master equation on a grid,
    from sys0.  The environment state env0 enters the equation through
    its mean, which weights the force couplings, and its covariance, with
    which the diffusion sub-tensors are contracted.

    Within blocked windows around determinant roots the trajectory is
    filled from the exact propagator and the integrator restarts from
    the exact state at the window's far edge.  Each segment between
    windows is integrated once, and only if it holds a grid point; a
    segment that fails raises ``FloatingPointError`` naming it.  The
    grid runs from 0 and does not decrease; any other grid, or a
    non-finite time, raises ``ValueError``.
    """
    grid = _checked_grid(grid, integrated=True)
    m_s = modes.m_s
    hbar = modes.hbar
    coefficients = coeffs_general(modes, env0)
    # per-run constants of the right-hand side, each the leading factor
    # of its product, so every product is evaluated in the same order
    neg_m_s = -m_s
    neg_two_m_s = -2.0 * m_s
    hbar_sq = hbar**2
    two_hbar_sq = 2.0 * hbar_sq
    # both initial states' entries, bound once
    sys_parts = _state_parts(sys0)
    env_parts = _state_parts(env0)
    mean_y, mean_q = env_parts[:2]

    def rhs(t, y):
        _, om2, gam, fy, fq, f1, f2 = coefficients(t)[:7]
        force = fy * mean_y + fq * mean_q
        mx, mp, dx2, dp2, dxp = y
        return [
            mp / m_s,
            neg_m_s * om2 * mx - gam * mp + force,
            2.0 * dxp / m_s,
            neg_two_m_s * om2 * dxp - 2.0 * gam * dp2 + two_hbar_sq * f1,
            neg_m_s * om2 * dx2 + dp2 / m_s - gam * dxp + hbar_sq * f2,
        ]

    t_end = float(grid[-1])
    roots = find_divergences(modes, t_end) if t_end > 0 else []
    windows = [_blocked_window(modes, r, _DIVERGENCE_GUARD, t_end) for r in roots]
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
    y = np.array(sys_parts[:5])
    moments[0] = y
    t_cur = 0.0
    rhs_evals = 0
    # integrate up to each window, fill it from the exact state and
    # restart from that state at its far edge; the closing (t_end, t_end)
    # entry integrates the rest.  Only segments holding a grid point are
    # integrated.
    for a, b in windows + [(t_end, t_end)]:
        sel = np.where((grid > t_cur) & (grid <= a))[0]
        if sel.size:
            try:
                y_sel, nfev = solve_ivp(
                    rhs, (t_cur, a), y, grid[sel], _REL_TOL, _ABS_TOL
                )
            except ArithmeticError as exc:
                # from the right-hand side, or a step that fell below 10 ulp
                raise FloatingPointError(
                    f"integrator failed on [{t_cur}, {a}]: {type(exc).__name__}: {exc}"
                ) from exc
            moments[sel] = y_sel
            rhs_evals += nfev
        if b > a:
            sel = np.where((grid > a) & (grid <= b))[0]
            exact = _exact_moments(
                system_rows(modes, np.append(grid[sel], b)), sys_parts, env_parts
            )
            moments[sel] = exact[:-1]
            bridged[sel] = True
            y = exact[-1]
        t_cur = b

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
        diags=diagnostics_from_area(A, moments, m_s, modes.omega),
        bridged=bridged,
        bridges=windows,
        rhs_evals=rhs_evals,
    )


def moment_deviation(exact: Trajectory, me: Trajectory) -> np.ndarray:
    """|exact - me| / max(|exact|, 1) per row and moment of two runs on
    one grid, shape (n, 5): a moment near zero is held to an absolute
    scale of 1.  Bridged rows are included; ``me.bridged`` masks them."""
    return np.abs(exact.moments - me.moments) / np.maximum(np.abs(exact.moments), 1.0)
