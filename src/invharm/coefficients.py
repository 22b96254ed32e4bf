"""Master-equation coefficients, evaluated two independent ways.

``coeffs_general`` evaluates closed forms in the four kernels c1, s1,
c2, s2 for every signed environment stiffness; ``coeffs_closed`` is the
trigonometric/hyperbolic reference for an unstable environment
(lambda_sq > 0).  Wherever both apply they agree to near machine
precision, which is the main cross-check of the whole construction.
Both read the environment's initial mean and covariance from the same
:class:`~invharm.gaussian.GaussianState` the runs start from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianState
from .modes import NormalModes
from .propagator import _dtilde, _kernels, _phi1, _weights

__all__ = [
    "UnsupportedRegime",
    "MECoefficients",
    "coeffs_general",
    "coeffs_closed",
    "contract",
]

DEFAULT_GUARD = 1e-3


class UnsupportedRegime(ValueError):
    """Closed-form coefficients requested outside their validity range."""


@dataclass(frozen=True)
class MECoefficients:
    """All coefficients of the reduced master equation at one time, or
    one column per field over an array of times (the sub-tensors then
    have shape (2, 2, n)).

    ``valid`` is False within the singularity guard around a zero of
    Dtilde; the drift-derived fields are still filled in (they are large
    but finite floats) but must not be consumed for stepping there.
    """

    t: float
    dtilde: float
    omega_eff_sq: float
    gamma_eff: float
    Fy: float
    Fq: float
    F: float
    f1: float
    f2: float
    f1_tensor: np.ndarray
    f2_tensor: np.ndarray
    valid: bool


def contract(tensor: np.ndarray, cov: np.ndarray):
    """Fully contract a 2x2 sub-coefficient tensor with the environment
    covariance V: t_yy V_yy + (t_yq + t_qy) V_yq + t_qq V_qq.

    This is the weighting the exact diffusion K Ve M1^T + M1 Ve K^T gives
    each sub-tensor entry.
    """
    return (
        tensor[0, 0] * cov[0, 0]
        + (tensor[0, 1] + tensor[1, 0]) * cov[0, 1]
        + tensor[1, 1] * cov[1, 1]
    )


def coeffs_general(
    modes: NormalModes,
    env0: GaussianState,
    t,
    guard: float = DEFAULT_GUARD,
) -> MECoefficients:
    """Coefficients from the kernel closed forms, at a float time or over
    an array of times.

    Each mode-function ratio is reduced with c^2 - k s^2 = 1, so no term
    outgrows the result and dividing by Dtilde loses no precision.  The
    diffusion sub-tensors are built from the force couplings and the
    phi_1 derivative ladder; the scalar f_n is their full contraction
    with the covariance of ``env0``, and F weights the forces with its
    mean.
    """
    k1, c1, s1, k2, c2, s2 = kern = _kernels(modes, t)
    cw, sw, x = weights = _weights(modes)
    m_s, m_e, hbar = modes.m_s, modes.m_e, modes.hbar
    # Python floats: cheaper than numpy scalars once per integrator step
    mean_y, mean_q = env0.mean.tolist()
    dt_ = _dtilde(kern, weights)
    valid = abs(dt_) > guard

    dk = k1 - k2
    mixed = cw * sw * (2.0 * k1 * k2 * s1 * s2 - (k1 + k2) * c1 * c2)
    om2 = (mixed - cw * cw * k1 - sw * sw * k2) / dt_
    gam = cw * sw * dk * (c1 * s2 - s1 * c2) / dt_
    fy = math.sqrt(m_s * m_e) * x * dk * (cw * c2 + sw * c1) / dt_
    fq = math.sqrt(m_s / m_e) * x * dk * (cw * s2 + sw * s1) / dt_

    phi1, dphi1, d2phi1 = _phi1(kern, weights)
    # sub-tensors stored in [[yy, yq], [qy, qq]] labelling
    pref = math.sqrt(m_s / m_e) / hbar**2
    f1_tensor = pref * np.array(
        [
            [m_e * fy * d2phi1, fy * dphi1],
            [m_e * fq * d2phi1, fq * dphi1],
        ]
    )
    f2_tensor = (pref / m_s) * np.array(
        [
            [m_e * fy * dphi1, fy * phi1],
            [m_e * fq * dphi1, fq * phi1],
        ]
    )

    return MECoefficients(
        t=t,
        dtilde=dt_,
        omega_eff_sq=om2,
        gamma_eff=gam,
        Fy=fy,
        Fq=fq,
        F=fy * mean_y + fq * mean_q,
        f1=contract(f1_tensor, env0.cov),
        f2=contract(f2_tensor, env0.cov),
        f1_tensor=f1_tensor,
        f2_tensor=f2_tensor,
        valid=valid,
    )


def coeffs_closed(
    modes: NormalModes,
    env0: GaussianState,
    t: float,
    guard: float = DEFAULT_GUARD,
) -> MECoefficients:
    """Coefficients from the closed forms for an unstable environment."""
    if modes.lambda_sq <= 0 or modes.omega <= 0:
        raise UnsupportedRegime(
            "closed forms require lambda_sq > 0 and omega > 0; "
            "use coeffs_general"
        )
    w = modes.omega
    lam = math.sqrt(modes.lambda_sq)
    th = modes.theta_c
    m_s, m_e, hbar = modes.m_s, modes.m_e, modes.hbar
    mean_y, mean_q = env0.mean.tolist()
    c2 = math.cos(th) ** 2
    s2 = math.sin(th) ** 2
    s2t = math.sin(2.0 * th)
    swt, cwt = math.sin(w * t), math.cos(w * t)
    shl, chl = math.sinh(lam * t), math.cosh(lam * t)

    big_d = (w * w - lam * lam) * c2 * s2 * swt * shl + w * lam * (
        2.0 * cwt * chl * c2 * s2 + c2 * c2 + s2 * s2
    )
    dt_ = big_d / (w * lam)
    valid = abs(dt_) > guard

    om2 = (w * lam / big_d) * (
        w * w * c2 * c2
        - lam * lam * s2 * s2
        + (s2t * s2t / 4.0)
        * ((w * w - lam * lam) * cwt * chl - 2.0 * w * lam * swt * shl)
    )
    gam = ((w * w + lam * lam) * s2t * s2t / (4.0 * big_d)) * (
        lam * swt * chl - w * cwt * shl
    )
    p_fac = c2 * chl + s2 * cwt
    q_fac = w * c2 * shl + lam * s2 * swt
    fy = (
        -math.sqrt(m_s * m_e)
        * w
        * lam
        * (w * w + lam * lam)
        * s2t
        / (2.0 * big_d)
        * p_fac
    )
    fq = -math.sqrt(m_s / m_e) * (w * w + lam * lam) * s2t / (2.0 * big_d) * q_fac

    beta = m_s / (4.0 * hbar**2 * big_d) * s2t * s2t * (w * w + lam * lam)
    sum_fac = lam * shl + w * swt
    diff_c = chl - cwt
    diff_s = w * shl - lam * swt

    f1_tensor = beta * np.array(
        [
            [m_e * w * lam * p_fac * sum_fac, w * lam * p_fac * diff_c],
            [q_fac * sum_fac, q_fac * diff_c / m_e],
        ]
    )
    f2_tensor = (beta / m_s) * np.array(
        [
            [m_e * w * lam * p_fac * diff_c, p_fac * diff_s],
            [q_fac * diff_c, q_fac * diff_s / (m_e * w * lam)],
        ]
    )

    return MECoefficients(
        t=t,
        dtilde=dt_,
        omega_eff_sq=om2,
        gamma_eff=gam,
        Fy=fy,
        Fq=fq,
        F=fy * mean_y + fq * mean_q,
        f1=contract(f1_tensor, env0.cov),
        f2=contract(f2_tensor, env0.cov),
        f1_tensor=f1_tensor,
        f2_tensor=f2_tensor,
        valid=valid,
    )
