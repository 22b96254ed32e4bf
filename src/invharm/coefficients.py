"""Master-equation coefficients, in closed form in the four kernels.

``coeffs_general`` evaluates closed forms in the kernels c1, s1, c2, s2
for every signed environment stiffness.  The coefficients depend on the
modes and the time alone: the environment's initial state enters only
where a caller weights the forces Fy, Fq with its mean and contracts the
diffusion sub-tensors with its covariance (:func:`contract`).

At a float time every scalar coefficient is a Python float computed
without numpy temporaries: the master-equation right-hand side makes one
such call per evaluation.  Over an array of times every field is an
array of its shape.  The diffusion sub-tensors are kept as rows of
entries.
"""

from __future__ import annotations

from typing import NamedTuple

from .modes import NormalModes
from .propagator import _dtilde, _kernels, _phi1

__all__ = [
    "MECoefficients",
    "coeffs_general",
    "contract",
]


class MECoefficients(NamedTuple):
    """All coefficients of the reduced master equation at one time, or
    one column per field over an array of times.

    ``f1_rows``/``f2_rows`` hold the diffusion sub-tensor entries as
    ((yy, yq), (qy, qq)); at a float time they and every other field are
    Python floats.  The times themselves are the caller's and are not
    stored.  Near a zero of Dtilde the drift-derived fields are large but
    finite; the caller decides, with its own guard, where not to use them.
    """

    dtilde: float
    omega_eff_sq: float
    gamma_eff: float
    Fy: float
    Fq: float
    f1_rows: tuple
    f2_rows: tuple


def contract(tensor, cov):
    """Fully contract a 2x2 sub-coefficient tensor with the environment
    covariance V: t_yy V_yy + (t_yq + t_qy) V_yq + t_qq V_qq.

    This is the weighting the exact diffusion K Ve M1^T + M1 Ve K^T gives
    each sub-tensor entry.  Both arguments are indexed ``[i][j]``, so
    nested tuples or lists and (2, 2) or (2, 2, n) arrays all work.
    """
    return (
        tensor[0][0] * cov[0][0]
        + (tensor[0][1] + tensor[1][0]) * cov[0][1]
        + tensor[1][1] * cov[1][1]
    )


def coeffs_general(modes: NormalModes, t) -> MECoefficients:
    """Coefficients from the kernel closed forms, at a float time or
    over an array of times.

    Each mode-function ratio is reduced with c^2 - k s^2 = 1, so no term
    outgrows the result and dividing by Dtilde loses no precision.  The
    diffusion sub-tensors are built from the force couplings and the
    phi_1 derivative ladder.
    """
    k1, c1, s1, k2, c2, s2 = kern = _kernels(modes, t)
    cw, sw, x, m_e = modes.cw, modes.sw, modes.x, modes.m_e
    dt_ = _dtilde(kern, modes)

    dk = k1 - k2
    mixed = cw * sw * (2.0 * k1 * k2 * s1 * s2 - (k1 + k2) * c1 * c2)
    om2 = (mixed - cw * cw * k1 - sw * sw * k2) / dt_
    gam = cw * sw * dk * (c1 * s2 - s1 * c2) / dt_
    fy = modes.root_prod * x * dk * (cw * c2 + sw * c1) / dt_
    fq = modes.root_se * x * dk * (cw * s2 + sw * s1) / dt_

    phi1, dphi1, d2phi1 = _phi1(kern, modes)
    # sub-tensors stored in [[yy, yq], [qy, qq]] labelling, with the
    # per-run prefactors root_se / hbar^2 and that over m_s
    pref, pref2 = modes.pref, modes.pref2
    f1_rows = (
        (pref * (m_e * fy * d2phi1), pref * (fy * dphi1)),
        (pref * (m_e * fq * d2phi1), pref * (fq * dphi1)),
    )
    f2_rows = (
        (pref2 * (m_e * fy * dphi1), pref2 * (fy * phi1)),
        (pref2 * (m_e * fq * dphi1), pref2 * (fq * phi1)),
    )
    # positional, in field order: keywords cost a tenth of a scalar call
    return MECoefficients(dt_, om2, gam, fy, fq, f1_rows, f2_rows)
