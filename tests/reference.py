"""Independent 4x4 reference for the tests.

The program evaluates the reduced state from the system rows [M_0 | M_1]
of the transition matrix alone.  These helpers build the whole two-mode
state, push it through the full 4x4 transition matrix, the matrix
exponential of Hamilton's equations in extended precision, and reduce it
afterwards, so the tests can hold the block path to a construction that
shares none of its algebra.  A two-mode state is a plain (mean, cov)
pair of arrays, ordered [x, p, y, q]; a one-mode state is a
``GaussianState``.  ``coeffs_closed`` evaluates the master-equation
coefficients from their trigonometric/hyperbolic closed forms for an
unstable environment, a second route to the values the function of
``coeffs_general`` builds from the kernels, returned in the same order;
``coeffs_reference`` evaluates them for every sign of the environment
stiffness from their definitions on the reduced dynamics, on the
transition matrix and its time derivative.  Both contract each
diffusion sub-tensor with the environment covariance entry by entry,
sum_ab t_ab V_ab, reading both off-diagonal entries as stored.
``fit_entropy_log`` fits the logarithmic entropy growth of a
free-particle environment.
"""

import functools
import math

import mpmath
import numpy as np

from invharm import GaussianState, NormalModes

# working precision of full_transition: enough that its float64 result
# is the rounded exact matrix at the tests' times
REFERENCE_DPS = 40

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
    """The full 4x4 transition matrix for [x, p, y, q]: the exponential
    of t times the generator of Hamilton's equations, evaluated by mpmath
    at REFERENCE_DPS decimal digits and rounded to float64.

    The Hamiltonian is p^2/2m_s + q^2/2m_e + u^T K u / 2 in the
    positions u = (x, y), with the stiffness K = S R diag(omega^2,
    -lambda_sq) R^T S, S = diag(sqrt(m_s), sqrt(m_e)) and R the rotation
    by theta_c from the normal coordinates to the mass-scaled ones.  The
    rotation angle is taken as theta_c itself (not its negative); the two
    choices differ only by the unobservable global sign of phi_1, and
    this one makes rows 1-2 coincide with the M_0/M_1 block prescription.
    Nothing of the package's kernels or blocks enters.  Results are
    cached, as several tests propagate the same modes over one grid.
    """
    return _transition(modes, float(t)).copy()


def _generator(modes: NormalModes):
    """The generator G of Hamilton's equations for [x, p, y, q], so that
    T = exp(G t) and T' = G T, as an mpmath matrix at the working
    precision of the caller."""
    mp = mpmath.mp
    ct, st = mp.cos(modes.theta_c), mp.sin(modes.theta_c)
    rot = mp.matrix([[ct, -st], [st, ct]])
    scale = mp.diag([mp.sqrt(modes.m_s), mp.sqrt(modes.m_e)])
    normal = mp.diag([mp.mpf(modes.omega) ** 2, -mp.mpf(modes.lambda_sq)])
    stiffness = scale * rot * normal * rot.T * scale
    gen = mp.zeros(4, 4)
    gen[0, 1] = 1 / mp.mpf(modes.m_s)
    gen[2, 3] = 1 / mp.mpf(modes.m_e)
    for row, k in ((1, 0), (3, 1)):
        # dp/dt = -dV/dx, dq/dt = -dV/dy
        gen[row, 0], gen[row, 2] = -stiffness[k, 0], -stiffness[k, 1]
    return gen


@functools.lru_cache(maxsize=None)
def _transition(modes: NormalModes, t: float) -> np.ndarray:
    with mpmath.workdps(REFERENCE_DPS):
        T = mpmath.mp.expm(_generator(modes) * mpmath.mpf(t))
        return np.array(T.tolist(), dtype=float)


def coeffs_reference(modes: NormalModes, env0: GaussianState, t: float) -> tuple:
    """The coefficients at a float time from their definitions on the
    exact reduced dynamics, for every sign of lambda_sq: the tuple
    ``coeffs_general(modes, env0)``'s function returns.

    From T = exp(G t) and T' = G T at REFERENCE_DPS digits, with M0, M1
    the system rows of T (system and environment columns): Dtilde =
    det M0, the drift D = M0' adj(M0) / Dtilde = [[0, 1/m_s],
    [-m_s omega_eff_sq, -gamma_eff]], the forces (Fy, Fq) = F the
    momentum row of M1' - D M1, the sub-tensors f1_ab = F_a M1[1, b]
    / hbar^2 and f2_ab = F_a M1[0, b] / hbar^2, and f1, f2 their
    contractions with the covariance V of env0, hbar^2 f1 = F V M1[1]^T
    and hbar^2 f2 = F V M1[0]^T.  Only the results are rounded to
    float64.
    """
    mp = mpmath.mp
    with mpmath.workdps(REFERENCE_DPS):
        gen = _generator(modes)
        T = mp.expm(gen * mp.mpf(t))
        dT = gen * T
        m0, m1 = T[0:2, 0:2], T[0:2, 2:4]
        det = m0[0, 0] * m0[1, 1] - m0[0, 1] * m0[1, 0]
        adj = mp.matrix([[m0[1, 1], -m0[0, 1]], [-m0[1, 0], m0[0, 0]]])
        drift = dT[0:2, 0:2] * adj / det
        force = dT[0:2, 2:4] - drift * m1
        hbar_sq = mp.mpf(modes.hbar) ** 2
        tensors = [
            force[1, a] * m1[row, b] / hbar_sq
            for row in (1, 0)
            for a in (0, 1)
            for b in (0, 1)
        ]
        cov = env0.cov.tolist()
        contracted = [
            sum(force[1, a] * cov[a][b] * m1[row, b] for a in (0, 1) for b in (0, 1))
            / hbar_sq
            for row in (1, 0)
        ]
        values = (
            det,
            -drift[1, 0] / modes.m_s,
            -drift[1, 1],
            force[1, 0],
            force[1, 1],
            *contracted,
            *tensors,
        )
        return tuple(float(v) for v in values)


def coeffs_closed(modes: NormalModes, env0: GaussianState, t) -> tuple:
    """Coefficients from the closed forms for an unstable environment
    (lambda_sq > 0, omega > 0), at a time or over an array of times: the
    tuple (dtilde, omega_eff_sq, gamma_eff, Fy, Fq, f1, f2, f1_yy, f1_yq,
    f1_qy, f1_qq, f2_yy, f2_yq, f2_qy, f2_qq) that
    ``coeffs_general(modes, env0)``'s function returns."""
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
    tensors = (
        beta * (m_e * w * lam * p_fac * sum_fac),
        beta * (w * lam * p_fac * diff_c),
        beta * (q_fac * sum_fac),
        beta * (q_fac * diff_c / m_e),
        beta2 * (m_e * w * lam * p_fac * diff_c),
        beta2 * (p_fac * diff_s),
        beta2 * (q_fac * diff_c),
        beta2 * (q_fac * diff_s / (m_e * w * lam)),
    )
    cov = env0.cov.ravel().tolist()
    f1, f2 = (
        sum(e * v for e, v in zip(tensors[k : k + 4], cov)) for k in (0, 4)
    )
    return (dt_, om2, gam, fy, fq, f1, f2, *tensors)


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


def fit_entropy_log(times, S, window) -> tuple[float, float]:
    """Least squares of the entropy ``S`` at ``times`` against ln t;
    returns (c0, c1) of c0 + c1 ln t."""
    t0, t1 = window
    times, S = np.asarray(times), np.asarray(S)
    if t0 < times[0] - 1e-12 or t1 > times[-1] + 1e-12:
        raise ValueError("window extends beyond the trajectory")
    if t0 <= 0:
        raise ValueError("log fit window must start at t > 0")
    mask = (times >= t0 - 1e-12) & (times <= t1 + 1e-12)
    if mask.sum() < 2:
        raise ValueError("fewer than 2 samples in fit window")
    c1, c0 = np.polyfit(np.log(times[mask]), S[mask], 1)
    return float(c0), float(c1)
