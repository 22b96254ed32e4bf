"""Independent 4x4 reference for the tests.

The program evaluates the reduced state from the system rows [M_0 | M_1]
of the transition matrix alone.  These helpers build the whole two-mode
state, push it through the full 4x4 transition matrix and reduce it
afterwards, so the tests can hold the block path to a construction that
shares none of its algebra.
"""

import math

import numpy as np

from invharm import GaussianState, NonPhysical, NormalModes, gkernels

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


def product_state(sys: GaussianState, env: GaussianState) -> GaussianState:
    """Unentangled two-mode state from two one-mode factors."""
    if sys.n_modes != 1 or env.n_modes != 1:
        raise ValueError("product_state expects two 1-mode states")
    mean = np.concatenate([sys.mean, env.mean])
    cov = np.zeros((4, 4))
    cov[:2, :2] = sys.cov
    cov[2:, 2:] = env.cov
    return GaussianState(mean=mean, cov=cov)


def propagate(state: GaussianState, T: np.ndarray) -> GaussianState:
    """Push means and covariances through a linear phase-space map."""
    T = np.asarray(T)
    if T.shape != (state.mean.shape[0],) * 2:
        raise ValueError("transition matrix shape does not match state")
    cov = T @ state.cov @ T.T
    cov = 0.5 * (cov + cov.T)
    return GaussianState(mean=T @ state.mean, cov=cov)


def reduce_system(state: GaussianState) -> GaussianState:
    """Marginal of the system mode (upper-left block)."""
    return GaussianState(mean=state.mean[:2].copy(), cov=state.cov[:2, :2].copy())


def area_ratio(state: GaussianState, hbar: float = 1.0) -> float:
    """Phase-space area in units of hbar/2: A = sqrt(det cov)/(hbar/2)."""
    if state.n_modes != 1:
        raise ValueError("area_ratio expects a 1-mode state")
    radicand = float(np.linalg.det(state.cov))
    if radicand < -1e-12:
        raise NonPhysical(f"negative area radicand {radicand:.3e}")
    return math.sqrt(max(radicand, 0.0)) / (hbar / 2.0)


def moments_of(state: GaussianState) -> np.ndarray:
    """(mean_x, mean_p, dx2, dp2, dxp) of a 1-mode state."""
    return np.array(
        [state.mean[0], state.mean[1], state.cov[0, 0], state.cov[1, 1], state.cov[0, 1]]
    )
