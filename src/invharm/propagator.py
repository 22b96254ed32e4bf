"""Mode functions, the system rows [M_0 | M_1] of the transition matrix
with the cancellation-free minors of those rows, and the full 4x4
transition matrix T(t).

Phase-space ordering is [x, p, y, q] throughout: system position/momentum
first, environment second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import NormalModes, gkernels

__all__ = [
    "ModeFunctions",
    "mode_functions",
    "full_transition",
    "dtilde",
    "det_m1",
    "mode_blocks",
    "cross_block",
    "SYMPLECTIC_FORM",
]

# canonical antisymmetric form for ordering [x, p, y, q]
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class ModeFunctions:
    """phi_0, phi_1 and their first three time derivatives at one time."""

    phi0: float
    dphi0: float
    d2phi0: float
    d3phi0: float
    phi1: float
    dphi1: float
    d2phi1: float
    d3phi1: float


def mode_functions(modes: NormalModes, t: float) -> ModeFunctions:
    """Evaluate the two mode functions and derivatives to third order.

    phi_0 mixes the kernels of the two normal modes with cos^2/sin^2
    weights; phi_1 carries the sin(2 theta)/2 cross weight.  Derivatives
    follow from s' = c, c' = k s for each kernel.
    """
    w2 = -(modes.omega**2)
    l2 = modes.lambda_sq
    c1, s1 = gkernels(w2, t)
    c2, s2 = gkernels(l2, t)
    cw = math.cos(modes.theta_c) ** 2
    sw = math.sin(modes.theta_c) ** 2
    x = 0.5 * math.sin(2.0 * modes.theta_c)
    return ModeFunctions(
        phi0=cw * s1 + sw * s2,
        dphi0=cw * c1 + sw * c2,
        d2phi0=cw * w2 * s1 + sw * l2 * s2,
        d3phi0=cw * w2 * c1 + sw * l2 * c2,
        phi1=x * (s1 - s2),
        dphi1=x * (c1 - c2),
        d2phi1=x * (w2 * s1 - l2 * s2),
        d3phi1=x * (w2 * c1 - l2 * c2),
    )


def _mode_blocks(mf: ModeFunctions, m_s: float, m_e: float):
    """The 2x2 blocks M_0, M_1 forming rows 1-2 of T."""
    m0 = np.array(
        [
            [mf.dphi0, mf.phi0 / m_s],
            [m_s * mf.d2phi0, mf.dphi0],
        ]
    )
    m1 = np.array(
        [
            [math.sqrt(m_e / m_s) * mf.dphi1, mf.phi1 / math.sqrt(m_s * m_e)],
            [math.sqrt(m_s * m_e) * mf.d2phi1, math.sqrt(m_s / m_e) * mf.dphi1],
        ]
    )
    return m0, m1


def full_transition(modes: NormalModes, t: float) -> np.ndarray:
    """Build the full 4x4 transition matrix for [x, p, y, q].

    Conjugation recipe: mass-scale each pair, rotate the two scaled pairs
    jointly by theta_c into normal coordinates, propagate each normal mode
    with its kernel, rotate and scale back.  The rotation angle is taken
    as theta_c itself (not its negative); the two choices differ only by
    the unobservable global sign of phi_1, and this one makes rows 1-2
    coincide with the M_0/M_1 block prescription.
    """
    c1, s1 = gkernels(-(modes.omega**2), t)
    c2, s2 = gkernels(modes.lambda_sq, t)
    block = np.zeros((4, 4))
    block[0, 0] = c1
    block[0, 1] = s1
    block[1, 0] = -(modes.omega**2) * s1
    block[1, 1] = c1
    block[2, 2] = c2
    block[2, 3] = s2
    block[3, 2] = modes.lambda_sq * s2
    block[3, 3] = c2

    ct = math.cos(modes.theta_c)
    st = math.sin(modes.theta_c)
    # joint rotation of the two scaled (position, momentum) pairs
    rot = np.array(
        [
            [ct, 0.0, -st, 0.0],
            [0.0, ct, 0.0, -st],
            [st, 0.0, ct, 0.0],
            [0.0, st, 0.0, ct],
        ]
    )
    rs = math.sqrt(modes.m_s)
    re = math.sqrt(modes.m_e)
    scale = np.diag([rs, 1.0 / rs, re, 1.0 / re])
    unscale = np.diag([1.0 / rs, rs, 1.0 / re, re])
    return unscale @ rot @ block @ rot.T @ scale


def dtilde(modes: NormalModes, t: float) -> float:
    """Determinant of the system block M_0 (dimensionless, 1 at t=0).

    Algebraically dphi0^2 - phi0 d2phi0, but evaluated via the kernel
    identity c^2 - k s^2 = 1 so that the exponentially large squares
    never appear: the naive form loses all precision once the unstable
    kernel dwarfs 1/eps.
    """
    c1, s1 = gkernels(-(modes.omega**2), t)
    c2, s2 = gkernels(modes.lambda_sq, t)
    cw = math.cos(modes.theta_c) ** 2
    sw = math.sin(modes.theta_c) ** 2
    ksum = modes.lambda_sq - modes.omega**2
    return cw * cw + sw * sw + cw * sw * (2.0 * c1 * c2 - ksum * s1 * s2)


def det_m1(modes: NormalModes, t: float) -> float:
    """Determinant of the cross block M_1 (dphi1^2 - phi1 d2phi1),
    evaluated in the same cancellation-free form as :func:`dtilde`."""
    c1, s1 = gkernels(-(modes.omega**2), t)
    c2, s2 = gkernels(modes.lambda_sq, t)
    x = 0.5 * math.sin(2.0 * modes.theta_c)
    ksum = modes.lambda_sq - modes.omega**2
    return x * x * (2.0 - 2.0 * c1 * c2 + ksum * s1 * s2)


def mode_blocks(modes: NormalModes, t: float) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 blocks (M_0, M_1) of rows 1-2 of the transition matrix."""
    mf = mode_functions(modes, t)
    return _mode_blocks(mf, modes.m_s, modes.m_e)


def cross_block(modes: NormalModes, t: float) -> np.ndarray:
    """The bilinear block X = M_0^T J M_1 (J the 2x2 antisymmetric form).

    Its entries are the Wronskian-like combinations of the two mode
    functions; each is expanded with the kernel identity c^2 - k s^2 = 1
    so that only terms at the scale of the result appear.  Together with
    :func:`dtilde` and :func:`det_m1` this gives every 2-column minor of
    [M_0 | M_1], and hence a cancellation-free reduced-state area.
    """
    c1, s1 = gkernels(-(modes.omega**2), t)
    c2, s2 = gkernels(modes.lambda_sq, t)
    cw = math.cos(modes.theta_c) ** 2
    sw = math.sin(modes.theta_c) ** 2
    x = 0.5 * math.sin(2.0 * modes.theta_c)
    w2 = -(modes.omega**2)
    l2 = modes.lambda_sq
    m_s, m_e = modes.m_s, modes.m_e
    # dphi0 d2phi1 - d2phi0 dphi1
    w_dd = x * (w2 * s1 * c2 - l2 * c1 * s2)
    # dphi0 dphi1 - d2phi0 phi1
    w_dc = x * (
        cw - sw + (sw - cw) * c1 * c2 + (cw * w2 - sw * l2) * s1 * s2
    )
    # phi0 d2phi1 - dphi0 dphi1
    w_cd = x * (
        sw - cw + (cw - sw) * c1 * c2 + (sw * w2 - cw * l2) * s1 * s2
    )
    # phi0 dphi1 - dphi0 phi1
    w_cc = x * (c1 * s2 - s1 * c2)
    return np.array(
        [
            [math.sqrt(m_s * m_e) * w_dd, math.sqrt(m_s / m_e) * w_dc],
            [math.sqrt(m_e / m_s) * w_cd, w_cc / math.sqrt(m_s * m_e)],
        ]
    )
