"""Gaussian states: squeezed pure states and the diagnostics of a
reduced 1-mode state (area, entropies, energy), all computed in one
``diagnostics_from_area`` call from one value or an array with one value
per time.

Squeezing convention: r = Delta x / Delta p in natural units, so a pure
state with r = 1 is the round vacuum-like state with both variances
hbar/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SqueezeSpec",
    "GaussianState",
    "Diagnostics",
    "squeezed_pure",
    "diagnostics_from_area",
]


@dataclass(frozen=True)
class SqueezeSpec:
    """Pure-state squeezing: ratio r = dx/dp and orientation angle."""

    r: float = 1.0
    angle: float = 0.0

    def __post_init__(self):
        if self.r <= 0:
            raise ValueError("squeezing ratio r must be > 0")


@dataclass(frozen=True)
class GaussianState:
    """Mean vector (x, p) and symmetric 2x2 covariance of one mode."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise ValueError("a state has one mode: a mean of shape (2,), a 2x2 covariance")
        # a non-finite entry would reach every moment of a run as NaN
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("a state's mean and covariance must be finite")
        # cov - cov.T is antisymmetric, so its largest entry is its largest
        # magnitude; the scale of cov only matters past 1e-12
        asym = (cov - cov.T).max()
        if asym > 1e-12 and asym > 1e-12 * np.abs(cov).max():
            raise ValueError("covariance matrix not symmetric")


def _state_parts(state: GaussianState) -> tuple:
    """One state's entries, as floats: its moments mean_x, mean_p, dx2,
    dp2, dxp in the order of :class:`~invharm.evolution.Trajectory`, dxp
    the symmetric part of the two off-diagonal covariance entries; then
    the entries xx, px, pp of the lower Cholesky factor of the
    covariance, and its determinant.  The validated states are positive
    definite; a covariance that is not raises ``LinAlgError``, a
    numerical failure."""
    cov = state.cov
    (c_xx, _), (c_px, c_pp) = np.linalg.cholesky(cov).tolist()
    (v_xx, v_xp), (v_px, v_pp) = cov.tolist()
    moments = (*state.mean.tolist(), v_xx, v_pp, 0.5 * (v_xp + v_px))
    return (*moments, c_xx, c_px, c_pp, float(np.linalg.det(cov)))


@dataclass(frozen=True)
class Diagnostics:
    """Diagnostics of a reduced 1-mode state: one float per field, or
    one array per field with one entry per time."""

    A: np.ndarray
    S: np.ndarray
    S_approx: np.ndarray
    varsigma: np.ndarray
    E: np.ndarray


def squeezed_pure(
    spec: SqueezeSpec, hbar: float = 1.0, mean=(0.0, 0.0)
) -> GaussianState:
    """Pure Gaussian state with dx/dp = r, rotated by angle, centred on
    ``mean``.

    Extreme squeezing overflows the covariance or its determinant, which
    every diagnostic reads, or rounds the determinant below (hbar/2)^2,
    so that the state's own area sqrt(det)/(hbar/2) fails the check every
    exact row passes; either raises ``ValueError``, with no warning."""
    c, s = math.cos(spec.angle), math.sin(spec.angle)
    rot = np.array([[c, -s], [s, c]])
    with np.errstate(over="ignore", invalid="ignore"):
        cov = rot @ np.diag([hbar * spec.r / 2.0, hbar / (2.0 * spec.r)]) @ rot.T
        det = np.linalg.det(cov)
        if not (np.isfinite(cov).all() and np.isfinite(det)):
            raise ValueError("initial covariance is not finite")
        try:
            _check_area(np.sqrt(max(det, 0.0)) / (hbar / 2.0))
        except FloatingPointError as exc:
            raise ValueError(f"initial state has {exc}") from exc
    return GaussianState(mean=mean, cov=cov)


def _check_area(A):
    """A sub-unit or NaN area is a numerical failure, a
    ``FloatingPointError`` whose message names the smallest area that is
    not NaN, or the NaN.  The tolerance of 1e-9 absorbs the rounding of
    an area computed from a stored covariance."""
    if np.any(A < 1.0 - 1e-9):
        raise FloatingPointError(f"scaled area A = {np.nanmin(A)} < 1")
    if np.isnan(A).any():
        raise FloatingPointError("scaled area A is NaN")


def diagnostics_from_area(A, moments, m_s: float, omega: float) -> Diagnostics:
    """Diagnostics of the scaled area A and the moments
    (mean_x, mean_p, dx2, dp2, dxp), for one state or a column of states.

    The caller supplies the area because it can evaluate it more
    accurately than the determinant of the stored covariance allows (the
    determinant loses all precision once the covariance entries dwarf the
    area).  The area is checked once; areas a hair below 1 from rounding
    are clamped to the pure state.  The area is checked only on the rows
    whose moments are finite: a row whose moments are not carries NaN
    into its diagnostics, for the caller to name.

    - ``S``, the von Neumann entropy: with the mean occupation
      n = (A - 1)/2 it is (n + 1) ln(n + 1) - n ln n
      = ln(1 + n) + n ln(1 + 1/n), two positive terms, so it keeps full
      relative precision at every area, where the textbook difference of
      the two products cancels once A is large.
    - ``S_approx`` = ln A: within 1 - ln 2 of S, exact at A = 1.
    - ``varsigma``, the linear entropy 1 - Tr rho^2 = 1 - 1/A.
    - ``E``, the mean oscillator energy, means included.
    """
    _check_area(np.where(np.isfinite(moments).all(axis=-1), A, 1.0))
    n = np.maximum(0.5 * (A - 1.0), 0.0)
    pure = n == 0.0
    inv = 1.0 / np.where(pure, 1.0, n)
    clamped = np.maximum(A, 1.0)
    dx2 = moments[..., 2] + moments[..., 0] ** 2
    dp2 = moments[..., 3] + moments[..., 1] ** 2
    return Diagnostics(
        A=A,
        S=np.where(pure, 0.0, np.log1p(n) + n * np.log1p(inv))[()],
        S_approx=np.log(clamped),
        varsigma=1.0 - 1.0 / clamped,
        E=0.5 * (m_s * omega**2 * dx2 + dp2 / m_s),
    )
