"""Bare supersystem parameters, normal-mode diagonalization, and the
generalized trigonometric/hyperbolic kernels.

The environment oscillator carries a signed stiffness: ``lambda_sq > 0``
is an unstable (inverted) mode with rate ``sqrt(lambda_sq)``,
``lambda_sq < 0`` a stable harmonic mode, and ``lambda_sq == 0`` a free
particle.  Keeping the sign in a real number (instead of allowing an
imaginary rate) keeps every downstream quantity real and makes the
free-particle limit regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SupersystemParams",
    "NormalModes",
    "derive_modes",
    "params_from_modes",
    "gkernels",
]


@dataclass(frozen=True)
class SupersystemParams:
    """Bare parameters of the coupled pair.

    ``omega_bare`` is the system frequency, ``lambda_sq_bare`` the signed
    stiffness of the environment (positive = inverted), and ``g`` the
    off-diagonal stiffness of the mass-scaled coupling (units of
    frequency squared).
    """

    m_s: float
    m_e: float
    omega_bare: float
    lambda_sq_bare: float
    g: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.m_s <= 0 or self.m_e <= 0:
            raise ValueError("masses must be strictly positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be strictly positive")
        if self.omega_bare < 0:
            raise ValueError("omega_bare must be >= 0")
        if self.g < 0:
            raise ValueError("coupling stiffness g must be >= 0")


@dataclass(frozen=True)
class NormalModes:
    """Normal-mode image of a :class:`SupersystemParams`.

    ``omega`` is the frequency of the stable mode, ``lambda_sq`` the
    signed stiffness of the second mode, and ``theta_c`` the mixing
    angle (negative for positive coupling, by the closed-form branch).
    """

    omega: float
    lambda_sq: float
    theta_c: float
    m_s: float
    m_e: float
    hbar: float = 1.0

    def __post_init__(self):
        if self.m_s <= 0 or self.m_e <= 0:
            raise ValueError("masses must be strictly positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be strictly positive")
        if self.omega < 0:
            raise ValueError("omega must be >= 0")

    @property
    def eps(self) -> float:
        """Mass ratio m_e / m_s."""
        return self.m_e / self.m_s

    @property
    def lam(self) -> float:
        """Instability rate sqrt(lambda_sq); raises for a stable mode."""
        if self.lambda_sq < 0:
            raise ValueError("lam is defined only for lambda_sq >= 0")
        return math.sqrt(self.lambda_sq)


def derive_modes(params: SupersystemParams) -> NormalModes:
    """Diagonalize the mass-scaled stiffness matrix [[W2, -g], [-g, -L2]].

    The coupling enters the dynamics as -g x y, so the mixing angle is
    negative for g > 0.  Returns the normal-mode frequency, signed
    second-mode stiffness and mixing angle.  The branch of the radical is
    chosen so that ``omega`` is continuously connected to the bare system
    frequency as g -> 0, which also covers strongly stable environments
    (W2 + L2 < 0) where the naive branch would swap the two modes.
    """
    w2 = params.omega_bare**2
    l2 = params.lambda_sq_bare
    g = params.g
    rad = math.hypot(w2 + l2, 2.0 * g)
    branch = 1.0 if (w2 + l2) >= 0 else -1.0

    omega_sq = 0.5 * (w2 - l2 + branch * rad)
    lambda_sq = 0.5 * (l2 - w2 + branch * rad)
    if omega_sq < 0:
        raise ValueError(
            "normal-mode omega^2 < 0: doubly-unstable supersystems are "
            "outside this model"
        )
    if g > 0:
        # same as atan((w2 + l2 - branch*rad) / 2g) but free of the
        # subtractive cancellation that loses theta for small g
        theta_c = math.atan(-2.0 * g / (w2 + l2 + branch * rad))
    else:
        theta_c = 0.0
    return NormalModes(
        omega=math.sqrt(omega_sq),
        lambda_sq=lambda_sq,
        theta_c=theta_c,
        m_s=params.m_s,
        m_e=params.m_e,
        hbar=params.hbar,
    )


def params_from_modes(
    omega: float,
    lambda_sq: float,
    theta_c: float,
    m_s: float = 1.0,
    m_e: float = 1.0,
    hbar: float = 1.0,
) -> SupersystemParams:
    """Invert :func:`derive_modes`: rebuild bare parameters from modes.

    Round-tripping reproduces (omega, lambda_sq, |theta_c|); the sign of
    the mixing angle is not recoverable because g is stored unsigned.
    """
    if omega < 0:
        raise ValueError("omega must be >= 0")
    c2 = math.cos(theta_c) ** 2
    s2 = math.sin(theta_c) ** 2
    w2 = omega**2 * c2 - lambda_sq * s2
    l2 = lambda_sq * c2 - omega**2 * s2
    g = abs((omega**2 + lambda_sq) * math.sin(theta_c) * math.cos(theta_c))
    if w2 < -1e-12 * max(omega**2, abs(lambda_sq), 1.0):
        raise ValueError(
            "bare system frequency would be imaginary for these modes"
        )
    return SupersystemParams(
        m_s=m_s,
        m_e=m_e,
        omega_bare=math.sqrt(max(w2, 0.0)),
        lambda_sq_bare=l2,
        g=g,
        hbar=hbar,
    )


# |k| t^2 below which the Taylor forms of cosh/cos and sinh/sin are used;
# keeps both kernels continuous through k = 0.
_SERIES_CUTOFF = 1e-8


def _series(u, t):
    """Taylor forms of the kernels (c, s) in u = k t^2."""
    return 1.0 + u / 2.0 * (1.0 + u / 12.0), t * (1.0 + u / 6.0 * (1.0 + u / 20.0))


def gkernels(lambda_sq: float, t):
    """Generalized propagation kernels (c, s) for x'' = lambda_sq * x.

    c = cosh(sqrt(k) t) and s = sinh(sqrt(k) t)/sqrt(k) for k > 0, the
    cos/sin analogues for k < 0, and (1, t) for k = 0.  They satisfy
    s' = c and c' = k s.

    ``t`` is a float or an array of times.  A float goes through
    ``math``, which costs a fraction of a numpy call on one value (the
    master-equation right-hand side calls this once per evaluation); an
    array goes through numpy ufuncs and gives arrays of its shape.
    """
    k = lambda_sq
    u = k * t * t
    if isinstance(t, np.ndarray):
        c, s = _series(u, t)
        far = np.abs(u) >= _SERIES_CUTOFF  # nowhere for k == 0
        if far.any():
            r = math.sqrt(abs(k))
            rt = r * t[far]
            if k > 0:
                c[far], s[far] = np.cosh(rt), np.sinh(rt) / r
            else:
                c[far], s[far] = np.cos(rt), np.sin(rt) / r
        return c, s
    if abs(u) < _SERIES_CUTOFF:
        return _series(u, t)
    if k > 0:
        r = math.sqrt(k)
        return math.cosh(r * t), math.sinh(r * t) / r
    r = math.sqrt(-k)
    return math.cos(r * t), math.sin(r * t) / r
