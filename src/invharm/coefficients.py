"""Master-equation coefficients, in closed form in the four kernels.

``coeffs_general`` evaluates closed forms in the kernels c1, s1, c2, s2
for every signed environment stiffness.  Most coefficients depend on the
modes and the time alone; f1 and f2 also read the environment's initial
covariance, with which the diffusion sub-tensors are contracted.  The
master equation weights the forces Fy, Fq with the environment's mean
itself.

``coeffs_general(modes, env0)`` is a per-run evaluator, and every
formula is written once in it: it binds the constants of a run once and
returns a function of the time.  The master-equation right-hand side
builds it once per run and calls it at each evaluation; the ``coeffs``
command calls it once over its whole grid.  At a float time every
coefficient is a Python float computed without numpy temporaries; over
an array of times every entry is an array of its shape.  A diffusion
sub-tensor is (Fy, Fq) times a row of M_1 over hbar^2, returned as its
entries in yy, yq, qy, qq order.
"""

from __future__ import annotations

from .gaussian import GaussianState, _state_parts
from .modes import NormalModes
from .propagator import _kernels_at

__all__ = [
    "coeffs_general",
]


def coeffs_general(modes: NormalModes, env0: GaussianState):
    """The coefficients of the reduced master equation of a run from the
    environment state env0, as a function of a float time or an array of
    times, with the constants of the run bound once.  It returns the
    ``coeffs.csv`` columns in order, the tuple (dtilde, omega_eff_sq,
    gamma_eff, Fy, Fq, f1, f2, f1_yy, f1_yq, f1_qy, f1_qq, f2_yy, f2_yq,
    f2_qy, f2_qq): at a float time, Python floats; over an array of
    times, arrays of its shape.
    Near a zero of Dtilde the drift-derived entries are large but finite;
    the caller decides, with its own guard, where not to use them.

    The kernels, Dtilde, the Wronskian w = c1 s2 - s1 c2 and the entries
    of M_1 come from one evaluation of ``propagator._kernels_at``, the
    one the exact path reads.  Constant leading factors are bound here
    once, each evaluated as the product it leads, so every coefficient
    keeps its operation order.  Each mode-function ratio is reduced with
    c^2 - k s^2 = 1, so no term outgrows the result and dividing by
    Dtilde loses no precision.  The diffusion sub-tensors are
    f1_ab = F_a M_1[p, b] / hbar^2 and f2_ab = F_a M_1[x, b] / hbar^2,
    with F = (Fy, Fq).  f1 and f2 are their contractions with the
    covariance V of env0, t_yy V_yy + (t_yq + t_qy) V_yq + t_qq V_qq, the
    weight the exact diffusion K V M_1^T + M_1 V K^T gives each entry,
    with V_yq the symmetric part of the two off-diagonal entries (read
    from ``_state_parts``, as the exact path reads it).
    """
    kernels = _kernels_at(modes)
    k1, k2, cw, sw, x = modes.k1, modes.k2, modes.cw, modes.sw, modes.x
    inv_hbar_sq = modes.inv_hbar_sq
    dk = k1 - k2
    cwsw = cw * sw
    two_k1k2 = 2.0 * k1 * k2
    ksum = k1 + k2
    cw_k1 = cw * cw * k1
    sw_k2 = sw * sw * k2
    gam0 = cwsw * dk
    fy0 = modes.root_prod * x * dk
    fq0 = modes.root_se * x * dk
    v_yy, v_qq, v_yq = _state_parts(env0)[2:5]

    def at(t):
        c1, s1, c2, s2, dt_, w, m1_xy, m1_xq, m1_py, m1_pq = kernels(t)
        mixed = cwsw * (two_k1k2 * s1 * s2 - ksum * c1 * c2)
        om2 = (mixed - cw_k1 - sw_k2) / dt_
        gam = gam0 * w / dt_
        fy = fy0 * (cw * c2 + sw * c1) / dt_
        fq = fq0 * (cw * s2 + sw * s1) / dt_
        # the entries of each sub-tensor in yy, yq, qy, qq order
        f1_yy = fy * m1_py * inv_hbar_sq
        f1_yq = fy * m1_pq * inv_hbar_sq
        f1_qy = fq * m1_py * inv_hbar_sq
        f1_qq = fq * m1_pq * inv_hbar_sq
        f2_yy = fy * m1_xy * inv_hbar_sq
        f2_yq = fy * m1_xq * inv_hbar_sq
        f2_qy = fq * m1_xy * inv_hbar_sq
        f2_qq = fq * m1_xq * inv_hbar_sq
        return (
            dt_, om2, gam, fy, fq,
            f1_yy * v_yy + (f1_yq + f1_qy) * v_yq + f1_qq * v_qq,
            f2_yy * v_yy + (f2_yq + f2_qy) * v_yq + f2_qq * v_qq,
            f1_yy, f1_yq, f1_qy, f1_qq,
            f2_yy, f2_yq, f2_qy, f2_qq,
        )

    return at
