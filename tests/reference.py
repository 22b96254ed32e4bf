"""Independent 4x4 reference for the tests.

The program evaluates the reduced state from the system rows [M_0 | M_1]
of the transition matrix alone.  These helpers build the whole two-mode
state, push it through the full 4x4 transition matrix and reduce it
afterwards, so the tests can hold the block path to a construction that
shares none of its algebra.  A two-mode state is a plain (mean, cov)
pair of arrays, ordered [x, p, y, q]; a one-mode state is a
``GaussianState``.  ``coeffs_closed`` evaluates the master-equation
coefficients from their trigonometric/hyperbolic closed forms for an
unstable environment, a second route to the values the function of
``coeffs_general`` builds from the kernels, returned in the same order.
``fit_entropy_log`` fits the logarithmic entropy growth of a
free-particle environment.
"""

import math

import numpy as np

from invharm import GaussianState, NormalModes, gkernels

# canonical antisymmetric form for ordering [x, p, y, q]
SYMPLECTIC_FORM = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)


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


def coeffs_closed(modes: NormalModes, t) -> tuple:
    """Coefficients from the closed forms for an unstable environment
    (lambda_sq > 0, omega > 0), at a time or over an array of times: the
    tuple (dtilde, omega_eff_sq, gamma_eff, Fy, Fq, f1_yy, f1_yq, f1_qy,
    f1_qq, f2_yy, f2_yq, f2_qy, f2_qq) that ``coeffs_general``'s function
    returns."""
    if modes.lambda_sq <= 0 or modes.omega <= 0:
        raise ValueError(
            "closed forms require lambda_sq > 0 and omega > 0; "
            "use coeffs_general"
        )
    w = modes.omega
    lam = math.sqrt(modes.lambda_sq)
    m_s, m_e, hbar = modes.m_s, modes.m_e, modes.hbar
    c2, s2 = modes.cw, modes.sw
    s2t = 2.0 * modes.x
    swt, cwt = np.sin(w * t), np.cos(w * t)
    shl, chl = np.sinh(lam * t), np.cosh(lam * t)

    big_d = (w * w - lam * lam) * c2 * s2 * swt * shl + w * lam * (
        2.0 * cwt * chl * c2 * s2 + c2 * c2 + s2 * s2
    )
    dt_ = big_d / (w * lam)

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
        -modes.root_prod
        * w
        * lam
        * (w * w + lam * lam)
        * s2t
        / (2.0 * big_d)
        * p_fac
    )
    fq = -modes.root_se * (w * w + lam * lam) * s2t / (2.0 * big_d) * q_fac

    beta = m_s / (4.0 * hbar**2 * big_d) * s2t * s2t * (w * w + lam * lam)
    sum_fac = lam * shl + w * swt
    diff_c = chl - cwt
    diff_s = w * shl - lam * swt

    beta2 = beta / m_s
    return (
        dt_,
        om2,
        gam,
        fy,
        fq,
        beta * (m_e * w * lam * p_fac * sum_fac),
        beta * (w * lam * p_fac * diff_c),
        beta * (q_fac * sum_fac),
        beta * (q_fac * diff_c / m_e),
        beta2 * (m_e * w * lam * p_fac * diff_c),
        beta2 * (p_fac * diff_s),
        beta2 * (q_fac * diff_c),
        beta2 * (q_fac * diff_s / (m_e * w * lam)),
    )


def product_state(sys: GaussianState, env: GaussianState):
    """(mean, cov) of the unentangled two-mode state of two one-mode
    factors."""
    mean = np.concatenate([sys.mean, env.mean])
    cov = np.zeros((4, 4))
    cov[:2, :2] = sys.cov
    cov[2:, 2:] = env.cov
    return mean, cov


def propagate(mean: np.ndarray, cov: np.ndarray, T: np.ndarray):
    """Push a mean and a covariance through a linear phase-space map;
    returns the new (mean, cov)."""
    T = np.asarray(T)
    if T.shape != (mean.shape[0],) * 2:
        raise ValueError("transition matrix shape does not match state")
    cov = T @ cov @ T.T
    cov = 0.5 * (cov + cov.T)
    return T @ mean, cov


def reduce_system(mean: np.ndarray, cov: np.ndarray) -> GaussianState:
    """Marginal of the system mode (upper-left block) of a two-mode
    (mean, cov)."""
    return GaussianState(mean=mean[:2].copy(), cov=cov[:2, :2].copy())


def area_ratio(state: GaussianState, hbar: float = 1.0) -> float:
    """Phase-space area in units of hbar/2: A = sqrt(det cov)/(hbar/2)."""
    radicand = float(np.linalg.det(state.cov))
    if radicand < -1e-12:
        raise ValueError(f"negative area radicand {radicand:.3e}")
    return math.sqrt(max(radicand, 0.0)) / (hbar / 2.0)


def moments_of(state: GaussianState) -> np.ndarray:
    """(mean_x, mean_p, dx2, dp2, dxp) of a 1-mode state."""
    return np.array(
        [state.mean[0], state.mean[1], state.cov[0, 0], state.cov[1, 1], state.cov[0, 1]]
    )


def fit_entropy_log(traj, window) -> tuple[float, float]:
    """Least squares of S against ln t; returns (c0, c1) of c0 + c1 ln t."""
    t0, t1 = window
    times = np.asarray(traj.times)
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise ValueError("window extends beyond the trajectory")
    if t0 <= 0:
        raise ValueError("log fit window must start at t > 0")
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if mask.sum() < 2:
        raise ValueError("fewer than 2 samples in fit window")
    c1, c0 = np.polyfit(np.log(times[mask]), traj.diags.S[mask], 1)
    return float(c0), float(c1)
