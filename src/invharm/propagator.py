"""The system rows [M_0 | M_1] of the transition matrix, built from the
two mode functions, with the cancellation-free minors of those rows.

``system_rows`` evaluates the four kernels once and returns every block
and minor the exact path reads; ``dtilde`` evaluates the determinant of
M_0 alone, for the root search and the master-equation guard.

Phase-space ordering is [x, p, y, q] throughout: system position/momentum
first, environment second.  Every function takes a float time or an
array of times; a 2x2 block has shape (2, 2) for a float and (2, 2, n)
for n times.
"""

from __future__ import annotations

import numpy as np

from .modes import NormalModes, gkernels

__all__ = [
    "dtilde",
    "system_rows",
]


def _kernels(modes: NormalModes, t):
    """(k1, c1, s1, k2, c2, s2): stiffness k1 = -omega^2 and k2 = lambda_sq
    of the two normal modes, each followed by its kernels."""
    k1, k2 = modes.k1, modes.k2
    c1, s1 = gkernels(k1, t)
    c2, s2 = gkernels(k2, t)
    return k1, c1, s1, k2, c2, s2


def _dtilde(kern, modes: NormalModes):
    """:func:`dtilde` from the results of :func:`_kernels`."""
    k1, c1, s1, k2, c2, s2 = kern
    cw, sw = modes.cw, modes.sw
    return cw * cw + sw * sw + cw * sw * (2.0 * c1 * c2 - (k1 + k2) * s1 * s2)


def _phi1(kern, modes: NormalModes):
    """(phi1, dphi1, d2phi1) from the results of :func:`_kernels`."""
    k1, c1, s1, k2, c2, s2 = kern
    x = modes.x
    return x * (s1 - s2), x * (c1 - c2), x * (k1 * s1 - k2 * s2)


def dtilde(modes: NormalModes, t):
    """Determinant of the system block M_0 (dimensionless, 1 at t=0).

    Algebraically dphi0^2 - phi0 d2phi0, but evaluated via the kernel
    identity c^2 - k s^2 = 1 so that the exponentially large squares
    never appear: the naive form loses all precision once the unstable
    kernel dwarfs 1/eps.
    """
    return _dtilde(_kernels(modes, t), modes)


def system_rows(modes: NormalModes, t):
    """The system rows of the transition matrix and their minors, from
    one evaluation of the kernels: the tuple (M_0, M_1, Dtilde, det M_1, X).

    M_0 = [[phi0', phi0/m_s], [m_s phi0'', phi0']] holds the mode
    function phi_0, which mixes the kernels of the two normal modes with
    cos^2/sin^2 weights; M_1 holds phi_1, which carries the sin(2 theta)/2
    cross weight, scaled by the mass roots.  The derivatives follow from
    s' = c, c' = k s for each kernel.

    Dtilde = det M_0 is :func:`dtilde`; det M_1 = dphi1^2 - phi1 d2phi1
    is evaluated in the same cancellation-free form.  The bilinear block
    X = M_0^T J M_1 (J the 2x2 antisymmetric form) holds the
    Wronskian-like combinations of the two mode functions, each expanded
    with the kernel identity c^2 - k s^2 = 1 so that only terms at the
    scale of the result appear.  Together these give every 2-column
    minor of [M_0 | M_1], and hence a cancellation-free reduced-state
    area.
    """
    k1, c1, s1, k2, c2, s2 = kern = _kernels(modes, t)
    cw, sw, x, m_s = modes.cw, modes.sw, modes.x, modes.m_s
    dphi0 = cw * c1 + sw * c2
    phi1, dphi1, d2phi1 = _phi1(kern, modes)
    m0 = np.array(
        [
            [dphi0, (cw * s1 + sw * s2) / m_s],
            [m_s * (cw * k1 * s1 + sw * k2 * s2), dphi0],
        ]
    )
    m1 = np.array(
        [
            [modes.root_es * dphi1, phi1 / modes.root_prod],
            [modes.root_prod * d2phi1, modes.root_se * dphi1],
        ]
    )
    det_m1 = x * x * (2.0 - 2.0 * c1 * c2 + (k1 + k2) * s1 * s2)
    # dphi0 d2phi1 - d2phi0 dphi1
    w_dd = x * (k1 * s1 * c2 - k2 * c1 * s2)
    # dphi0 dphi1 - d2phi0 phi1
    w_dc = x * (
        cw - sw + (sw - cw) * c1 * c2 + (cw * k1 - sw * k2) * s1 * s2
    )
    # phi0 d2phi1 - dphi0 dphi1
    w_cd = x * (
        sw - cw + (cw - sw) * c1 * c2 + (sw * k1 - cw * k2) * s1 * s2
    )
    # phi0 dphi1 - dphi0 phi1
    w_cc = x * (c1 * s2 - s1 * c2)
    cross = np.array(
        [
            [modes.root_prod * w_dd, modes.root_se * w_dc],
            [modes.root_es * w_cd, w_cc / modes.root_prod],
        ]
    )
    return m0, m1, _dtilde(kern, modes), det_m1, cross
