"""Mode functions and the system rows [M_0 | M_1] of the transition
matrix, with the cancellation-free minors of those rows.

Phase-space ordering is [x, p, y, q] throughout: system position/momentum
first, environment second.  Every function takes a float time or an
array of times; a 2x2 block has shape (2, 2) for a float and (2, 2, n)
for n times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import NormalModes, gkernels

__all__ = [
    "ModeFunctions",
    "mode_functions",
    "dtilde",
    "det_m1",
    "mode_blocks",
    "cross_block",
]


@dataclass(frozen=True)
class ModeFunctions:
    """phi_0, phi_1 and their first two time derivatives, each a float
    or an array over the times asked for."""

    phi0: float
    dphi0: float
    d2phi0: float
    phi1: float
    dphi1: float
    d2phi1: float


def _kernels(modes: NormalModes, t):
    """(k1, c1, s1, k2, c2, s2): stiffness k1 = -omega^2 and k2 = lambda_sq
    of the two normal modes, each followed by its kernels."""
    k1 = -(modes.omega**2)
    k2 = modes.lambda_sq
    c1, s1 = gkernels(k1, t)
    c2, s2 = gkernels(k2, t)
    return k1, c1, s1, k2, c2, s2


def _weights(modes: NormalModes):
    """(cw, sw, x): cos^2, sin^2 and sin(2 theta)/2 of the mixing angle."""
    th = modes.theta_c
    return math.cos(th) ** 2, math.sin(th) ** 2, 0.5 * math.sin(2.0 * th)


def _dtilde(kern, weights):
    """:func:`dtilde` from the results of :func:`_kernels`, :func:`_weights`."""
    k1, c1, s1, k2, c2, s2 = kern
    cw, sw, _ = weights
    return cw * cw + sw * sw + cw * sw * (2.0 * c1 * c2 - (k1 + k2) * s1 * s2)


def _phi1(kern, weights):
    """(phi1, dphi1, d2phi1) from the results of :func:`_kernels`,
    :func:`_weights`."""
    k1, c1, s1, k2, c2, s2 = kern
    x = weights[2]
    return x * (s1 - s2), x * (c1 - c2), x * (k1 * s1 - k2 * s2)


def mode_functions(modes: NormalModes, t) -> ModeFunctions:
    """Evaluate the two mode functions and their first two derivatives.

    phi_0 mixes the kernels of the two normal modes with cos^2/sin^2
    weights; phi_1 carries the sin(2 theta)/2 cross weight.  Derivatives
    follow from s' = c, c' = k s for each kernel.
    """
    k1, c1, s1, k2, c2, s2 = kern = _kernels(modes, t)
    cw, sw, _ = weights = _weights(modes)
    phi1, dphi1, d2phi1 = _phi1(kern, weights)
    return ModeFunctions(
        phi0=cw * s1 + sw * s2,
        dphi0=cw * c1 + sw * c2,
        d2phi0=cw * k1 * s1 + sw * k2 * s2,
        phi1=phi1,
        dphi1=dphi1,
        d2phi1=d2phi1,
    )


def dtilde(modes: NormalModes, t):
    """Determinant of the system block M_0 (dimensionless, 1 at t=0).

    Algebraically dphi0^2 - phi0 d2phi0, but evaluated via the kernel
    identity c^2 - k s^2 = 1 so that the exponentially large squares
    never appear: the naive form loses all precision once the unstable
    kernel dwarfs 1/eps.
    """
    return _dtilde(_kernels(modes, t), _weights(modes))


def det_m1(modes: NormalModes, t):
    """Determinant of the cross block M_1 (dphi1^2 - phi1 d2phi1),
    evaluated in the same cancellation-free form as :func:`dtilde`."""
    k1, c1, s1, k2, c2, s2 = _kernels(modes, t)
    x = _weights(modes)[2]
    return x * x * (2.0 - 2.0 * c1 * c2 + (k1 + k2) * s1 * s2)


def mode_blocks(modes: NormalModes, t) -> tuple[np.ndarray, np.ndarray]:
    """The 2x2 blocks (M_0, M_1) of rows 1-2 of the transition matrix."""
    mf = mode_functions(modes, t)
    m_s, m_e = modes.m_s, modes.m_e
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


def cross_block(modes: NormalModes, t) -> np.ndarray:
    """The bilinear block X = M_0^T J M_1 (J the 2x2 antisymmetric form).

    Its entries are the Wronskian-like combinations of the two mode
    functions; each is expanded with the kernel identity c^2 - k s^2 = 1
    so that only terms at the scale of the result appear.  Together with
    :func:`dtilde` and :func:`det_m1` this gives every 2-column minor of
    [M_0 | M_1], and hence a cancellation-free reduced-state area.
    """
    w2, c1, s1, l2, c2, s2 = _kernels(modes, t)
    cw, sw, x = _weights(modes)
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
