"""The system rows [M_0 | M_1] of the transition matrix, built from the
two mode functions, with the cancellation-free minors of those rows.

``system_rows`` evaluates the four kernels once and returns every block
and minor the exact path reads; ``dtilde(modes)`` returns the
determinant of M_0 alone as a function of the time, for the root search
and the master-equation guard.  Both read the per-run evaluation
``_kernels_at(modes)``, which the master-equation coefficients share:
the kernels, Dtilde, the Wronskian c1 s2 - s1 c2 and the entries of
M_1, so each of those formulas is written once.

Phase-space ordering is [x, p, y, q] throughout: system position/momentum
first, environment second.  ``system_rows`` and the function ``dtilde``
returns take a float time or an array of times; a 2x2 block has shape
(2, 2) for a float and (2, 2, n) for n times.  ``system_rows`` also
takes a list or tuple of V modes, which gives every entry a leading value
axis: one exact pass serves a whole scan; ``_columns`` lays out one
value's or V values' constants (modes or initial states) for that axis.
"""

from __future__ import annotations

import math

import numpy as np

from .modes import _SERIES_CUTOFF, NormalModes, gkernels

__all__ = [
    "dtilde",
    "system_rows",
]


def _kernels_at(modes: NormalModes):
    """The per-run evaluation of the kernels and of the entries both the
    exact path and the master equation read: a function of a float time
    or an array of times that returns (c1, s1, c2, s2, Dtilde, w, m1_xy,
    m1_xq, m1_py, m1_pq), with w = c1 s2 - s1 c2 the Wronskian of the two
    modes' kernels and m1_ab the entries of M_1 (rows x, p; columns y, q).

    c1, s1 and c2, s2 are the kernels of the modes of stiffness
    k1 = -omega^2 and k2 = lambda_sq.  At a float time past the series
    cutoff of both modes they come from each mode's rate and closed-form
    pair, bound here once; an array of times, or a time near 0, goes
    through :func:`gkernels`, which gives the same bits there.  Constant
    leading factors are bound here too, each evaluated as the product it
    leads, so every result keeps its operation order.  M_1 holds
    phi_1 = x (s1 - s2), which carries the cross weight x, and its
    derivatives, scaled by the mass roots.
    """
    k1, k2 = modes.k1, modes.k2
    cw, sw, x = modes.cw, modes.sw, modes.x
    root_prod, root_se, root_es = modes.root_prod, modes.root_se, modes.root_es
    dt0 = cw * cw + sw * sw
    cwsw = cw * sw
    ksum = k1 + k2
    # each mode's closed-form pair and rate, as gkernels takes them: the
    # first mode's stiffness is -omega^2 <= 0
    ch1, sh1, r1 = math.cos, math.sin, math.sqrt(-k1)
    ch2, sh2, r2 = (
        (math.cosh, math.sinh, math.sqrt(k2)) if k2 > 0
        else (math.cos, math.sin, math.sqrt(-k2))
    )
    # from twice the time at which |k| t^2 reaches the series cutoff,
    # gkernels takes the closed forms of both modes
    k_min = min(-k1, abs(k2))
    t_far = 2.0 * math.sqrt(_SERIES_CUTOFF / k_min) if k_min > 0 else math.inf

    def at(t):
        if type(t) is float and t >= t_far:
            rt = r1 * t
            c1, s1 = ch1(rt), sh1(rt) / r1
            rt = r2 * t
            c2, s2 = ch2(rt), sh2(rt) / r2
        else:
            c1, s1 = gkernels(k1, t)
            c2, s2 = gkernels(k2, t)
        dphi1 = x * (c1 - c2)
        return (
            c1,
            s1,
            c2,
            s2,
            dt0 + cwsw * (2.0 * c1 * c2 - ksum * s1 * s2),
            c1 * s2 - s1 * c2,
            root_es * dphi1,
            x * (s1 - s2) / root_prod,
            root_prod * (x * (k1 * s1 - k2 * s2)),
            root_se * dphi1,
        )

    return at


def dtilde(modes: NormalModes):
    """The determinant of the system block M_0 (dimensionless, 1 at t=0)
    as a function of a float time or an array of times, with the
    constants of the run bound once.

    Algebraically dphi0^2 - phi0 d2phi0, but evaluated via the kernel
    identity c^2 - k s^2 = 1 so that the exponentially large squares
    never appear: the naive form loses all precision once the unstable
    kernel dwarfs 1/eps.
    """
    kernels = _kernels_at(modes)

    def at(t):
        return kernels(t)[4]

    return at


def _columns(values, parts, ndim=1):
    """The per-run constants ``parts(v)`` of one value v (a modes or an
    initial state), as floats, or of a list or tuple of V values, as
    arrays of shape (V, 1, ...) with ``ndim`` unit axes, which broadcast
    over entries with a leading value axis."""
    if not isinstance(values, (list, tuple)):
        return parts(values)
    shape = (-1,) + (1,) * ndim
    return [col.reshape(shape) for col in np.array([parts(v) for v in values]).T]


def system_rows(modes, t):
    """The system rows of the transition matrix and their minors, from
    one evaluation of the kernels: the tuple (M_0, M_1, Dtilde, det M_1, X).

    M_0 = [[phi0', phi0/m_s], [m_s phi0'', phi0']] holds the mode
    function phi_0, which mixes the kernels of the two normal modes with
    cos^2/sin^2 weights; M_1 is packed from the entries of
    ``_kernels_at``.  The derivatives follow from s' = c, c' = k s for
    each kernel.

    Dtilde = det M_0 is :func:`dtilde`; det M_1 = dphi1^2 - phi1 d2phi1
    is evaluated in the same cancellation-free form.  The bilinear block
    X = M_0^T J M_1 (J the 2x2 antisymmetric form) holds the
    Wronskian-like combinations of the two mode functions, each expanded
    with the kernel identity c^2 - k s^2 = 1 so that only terms at the
    scale of the result appear.  Together these give every 2-column
    minor of [M_0 | M_1], and hence a cancellation-free reduced-state
    area.

    ``modes`` may also be a list or tuple of V modes: each value's kernels
    come from its own per-run evaluation, its constants are one (V, 1)
    column per name, and every entry gains a leading value axis, of
    shape (V, n) over n times.  Each value's entries are the bits of its
    own one-value call.
    """
    if isinstance(modes, (list, tuple)):
        terms = np.array([_kernels_at(m)(t) for m in modes]).swapaxes(0, 1)
    else:
        terms = _kernels_at(modes)(t)
    c1, s1, c2, s2, dt_, w, m1_xy, m1_xq, m1_py, m1_pq = terms
    k1, k2, cw, sw, x, m_s, root_prod, root_se, root_es = _columns(
        modes,
        lambda m: (m.k1, m.k2, m.cw, m.sw, m.x, m.m_s, m.root_prod, m.root_se, m.root_es),
        np.ndim(t),
    )
    dphi0 = cw * c1 + sw * c2
    m0 = np.array(
        [
            [dphi0, (cw * s1 + sw * s2) / m_s],
            [m_s * (cw * k1 * s1 + sw * k2 * s2), dphi0],
        ]
    )
    m1 = np.array([[m1_xy, m1_xq], [m1_py, m1_pq]])
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
    w_cc = x * w
    cross = np.array(
        [
            [root_prod * w_dd, root_se * w_dc],
            [root_es * w_cd, w_cc / root_prod],
        ]
    )
    return m0, m1, dt_, det_m1, cross
