"""Gaussian states: squeezed pure states and the diagnostics of a
reduced 1-mode state (area, entropy, purity, energy).  The diagnostic
functions take one value or an array with one value per time.

Squeezing convention: r = Delta x / Delta p in natural units, so a pure
state with r = 1 is the round vacuum-like state with both variances
hbar/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NonPhysical",
    "SqueezeSpec",
    "GaussianState",
    "Diagnostics",
    "squeezed_pure",
    "entropy_exact",
    "entropy_approx",
    "linear_entropy",
    "purity",
    "energy",
    "diagnostics_from_area",
]


class NonPhysical(ValueError):
    """A covariance matrix failed a physicality check."""


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
    """Mean vector and symmetric covariance for 1 or 2 modes."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if mean.shape[0] not in (2, 4) or cov.shape != (mean.shape[0],) * 2:
            raise ValueError("state must have 1 or 2 modes")
        # cov - cov.T is antisymmetric, so its largest entry is its largest
        # magnitude; the scale of cov only matters past 1e-12
        asym = (cov - cov.T).max()
        if asym > 1e-12 and asym > 1e-12 * np.abs(cov).max():
            raise NonPhysical("covariance matrix not symmetric")

    @property
    def n_modes(self) -> int:
        return self.mean.shape[0] // 2


@dataclass(frozen=True)
class Diagnostics:
    """Diagnostics of a reduced 1-mode state: one float per field, or
    one array per field with one entry per time."""

    a: np.ndarray
    A: np.ndarray
    S: np.ndarray
    S_approx: np.ndarray
    varsigma: np.ndarray
    purity: np.ndarray
    E: np.ndarray


def squeezed_pure(
    spec: SqueezeSpec, hbar: float = 1.0, mean=(0.0, 0.0)
) -> GaussianState:
    """Pure Gaussian state with dx/dp = r, rotated by angle, centred on
    ``mean``."""
    c, s = math.cos(spec.angle), math.sin(spec.angle)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([hbar * spec.r / 2.0, hbar / (2.0 * spec.r)]) @ rot.T
    return GaussianState(mean=mean, cov=cov)


def _check_area(A):
    if np.any(A < 1.0 - 1e-9):
        raise ValueError(f"scaled area A = {np.min(A)} < 1")


def entropy_exact(A):
    """Von Neumann entropy of a 1-mode Gaussian state with scaled area A.

    With the mean occupation n = (A - 1)/2 this is
    (n + 1) ln(n + 1) - n ln n = ln(1 + n) + n ln(1 + 1/n): two positive
    terms, so it keeps full relative precision at every area, where the
    textbook difference of the two products cancels once A is large.
    """
    _check_area(A)
    n = np.maximum(0.5 * (A - 1.0), 0.0)
    pos = n > 0.0
    inv = 1.0 / np.where(pos, n, 1.0)
    return np.where(pos, np.log1p(n) + n * np.log1p(inv), 0.0)[()]


def entropy_approx(A):
    """ln A: within 1 - ln 2 of the exact entropy, exact at A = 1."""
    _check_area(A)
    return np.log(np.maximum(A, 1.0))


def linear_entropy(A):
    """1 - Tr rho^2 = 1 - 1/A."""
    _check_area(A)
    return 1.0 - 1.0 / np.maximum(A, 1.0)


def purity(A):
    """Tr rho^2 = 1/A."""
    _check_area(A)
    return 1.0 / np.maximum(A, 1.0)


def energy(moments, m_s: float, omega: float):
    """Mean oscillator energy (means included) from the moments
    (mean_x, mean_p, dx2, dp2, dxp) along the last axis."""
    dx2 = moments[..., 2] + moments[..., 0] ** 2
    dp2 = moments[..., 3] + moments[..., 1] ** 2
    return 0.5 * (m_s * omega**2 * dx2 + dp2 / m_s)


def diagnostics_from_area(
    A, moments, m_s: float, omega: float, hbar: float = 1.0
) -> Diagnostics:
    """Diagnostics of the scaled area A and the moments
    (mean_x, mean_p, dx2, dp2, dxp), for one state or a column of states.

    The caller supplies the area because it can evaluate it more
    accurately than the determinant of the stored covariance allows (the
    determinant loses all precision once the covariance entries dwarf the
    area).
    """
    return Diagnostics(
        a=A * hbar / 2.0,
        A=A,
        S=entropy_exact(A),
        S_approx=entropy_approx(A),
        varsigma=linear_entropy(A),
        purity=purity(A),
        E=energy(moments, m_s, omega),
    )
