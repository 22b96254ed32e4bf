import math

import numpy as np
import pytest

from invharm import (
    GaussianState,
    NormalModes,
    coeffs_closed,
    cross_block,
    det_m1,
    dtilde,
    mode_blocks,
    mode_functions,
)

from conftest import BASE, rel_err
from reference import SYMPLECTIC_FORM, full_transition


def random_modes(rng, stable_ok=True):
    lsq = float(rng.uniform(-4.0, 4.0)) if stable_ok else float(rng.uniform(0.1, 4.0))
    return NormalModes(
        omega=float(rng.uniform(0.2, 2.0)),
        lambda_sq=lsq,
        theta_c=float(rng.uniform(-0.6, 0.6)),
        m_s=float(rng.uniform(0.5, 2.0)),
        m_e=float(rng.uniform(0.5, 2.0)),
        hbar=1.0,
    )


class TestModeFunctions:
    def test_initial_values(self, base_modes):
        mf = mode_functions(base_modes, 0.0)
        assert mf.phi0 == 0.0
        assert mf.dphi0 == 1.0
        assert mf.phi1 == 0.0
        assert mf.dphi1 == 0.0

    def test_decoupled_is_bare_oscillator(self):
        modes = NormalModes(omega=1.3, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        for t in (0.3, 1.0, 2.7):
            mf = mode_functions(modes, t)
            assert mf.phi0 == pytest.approx(math.sin(1.3 * t) / 1.3, rel=1e-14)
            assert mf.phi1 == 0.0
            assert mf.dphi1 == 0.0

    def test_strong_coupling_hand_value(self):
        # equal-weight mixing: phi0 is the average of the two kernels
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 4, m_s=1.0, m_e=1.0
        )
        mf = mode_functions(modes, 1.0)
        assert mf.phi0 == pytest.approx((math.sin(1.0) + math.sinh(1.0)) / 2.0, rel=1e-14)

    def test_derivative_ladder(self, base_modes):
        # the stored derivatives match finite differences of phi0, phi1
        h = 1e-6
        for t in (0.5, 1.5, 3.0):
            mf = mode_functions(base_modes, t)
            mfp = mode_functions(base_modes, t + h)
            mfm = mode_functions(base_modes, t - h)
            assert (mfp.phi0 - mfm.phi0) / (2 * h) == pytest.approx(mf.dphi0, rel=1e-8)
            assert (mfp.dphi0 - mfm.dphi0) / (2 * h) == pytest.approx(
                mf.d2phi0, rel=1e-8, abs=1e-8
            )
            assert (mfp.phi1 - mfm.phi1) / (2 * h) == pytest.approx(
                mf.dphi1, rel=1e-8, abs=1e-8
            )
            assert (mfp.dphi1 - mfm.dphi1) / (2 * h) == pytest.approx(
                mf.d2phi1, rel=1e-8, abs=1e-8
            )


class TestFullTransition:
    def test_identity_at_zero(self, base_modes):
        assert np.allclose(full_transition(base_modes, 0.0), np.eye(4), atol=1e-15)

    def test_decoupled_block_diagonal(self):
        modes = NormalModes(omega=1.3, lambda_sq=2.0, theta_c=0.0, m_s=1.5, m_e=0.7)
        T = full_transition(modes, 1.1)
        assert np.allclose(T[:2, 2:], 0.0, atol=1e-15)
        assert np.allclose(T[2:, :2], 0.0, atol=1e-15)
        w, t = 1.3, 1.1
        expected = np.array(
            [
                [math.cos(w * t), math.sin(w * t) / (w * 1.5)],
                [-1.5 * w * math.sin(w * t), math.cos(w * t)],
            ]
        )
        assert np.allclose(T[:2, :2], expected, atol=1e-14)

    def test_symplectic_group_det(self, rng):
        J = SYMPLECTIC_FORM
        for _ in range(30):
            modes = random_modes(rng)
            for t in (0.5, 2.0, 5.0, 11.0, 20.0):
                T = full_transition(modes, t)
                scale = max(1.0, np.abs(T).max() ** 2)
                assert np.abs(T.T @ J @ T - J).max() < 1e-10 * scale
                # group property T(a+b) = T(a) T(b)
                Ta = full_transition(modes, 0.4 * t)
                Tb = full_transition(modes, 0.6 * t)
                assert np.abs(T - Ta @ Tb).max() < 1e-9 * max(1.0, np.abs(T).max())

    def test_det_one(self, rng):
        for _ in range(20):
            modes = random_modes(rng)
            T = full_transition(modes, 3.0)
            # scaled by the fourth power of the matrix norm: determinant
            # rounding is limited by the size of the products involved
            assert abs(np.linalg.det(T) - 1.0) < 1e-10 * max(
                1.0, np.abs(T).max() ** 4
            )

    def test_rows_match_tp(self, base_modes):
        # rows 1-2 of T are the system rows [M_0 | M_1] that T_p keeps
        T = full_transition(base_modes, 1.7)
        rows = np.hstack(mode_blocks(base_modes, 1.7))
        assert np.abs(T[:2] - rows).max() < 1e-12 * max(1.0, np.abs(T).max())


class TestTpMatrix:
    """The system rows [M_0 | M_1] of the partial-knowledge matrix T_p,
    as returned by :func:`mode_blocks`."""

    def test_identity_at_zero(self, base_modes):
        m0, m1 = mode_blocks(base_modes, 0.0)
        assert np.allclose(m0, np.eye(2), atol=1e-15)
        assert np.allclose(m1, 0.0, atol=1e-15)

    def test_decoupled_cross_block_zero(self):
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        _, m1 = mode_blocks(modes, 2.3)
        assert np.allclose(m1, 0.0, atol=1e-15)


class TestDtilde:
    def test_one_at_zero(self, base_modes):
        assert dtilde(base_modes, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_decoupled_is_one_everywhere(self):
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        ts = np.linspace(0.0, 100.0, 4001)
        vals = np.array([dtilde(modes, t) for t in ts])
        assert np.abs(vals - 1.0).max() < 1e-9

    def test_matches_block_determinant(self, rng):
        for _ in range(20):
            modes = random_modes(rng)
            for t in (0.7, 2.0, 4.0):
                m0, _ = mode_blocks(modes, t)
                naive = float(np.linalg.det(m0))
                assert rel_err(dtilde(modes, t), naive) < 1e-9

    def test_matches_closed_form_denominator(self, base_modes):
        env0 = GaussianState(np.zeros(2), np.diag([1.0, 0.25]))
        c = coeffs_closed(base_modes, env0, 2.0)
        assert c.dtilde == pytest.approx(dtilde(base_modes, 2.0), rel=1e-12)

    def test_near_unity_before_critical_time(self):
        # weak coupling: determinant within 10% of 1 well before the
        # critical time
        th = 1e-3
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=th, m_s=1.0, m_e=1.0)
        t_c = -2.0 * math.log(th) + math.log(1.0)  # derived critical time
        ts = np.linspace(0.0, t_c - 2.0, 400)
        vals = np.array([dtilde(modes, t) for t in ts])
        assert np.abs(vals - 1.0).max() < 0.1

    def test_no_cancellation_at_long_times(self, base_modes):
        # the kernel-identity form stays accurate where the naive
        # difference of squares has lost every digit
        t = 40.0
        val = dtilde(base_modes, t)
        assert math.isfinite(val)
        # envelope from the weak-coupling expansion: theta^2 e^{lam t} scale
        envelope = base_modes.theta_c**2 * math.exp(t) * 2.0
        assert 1e-3 * envelope < abs(val) < envelope


class TestAuxiliaryBlocks:
    def test_det_m1_matches_naive(self, rng):
        for _ in range(20):
            modes = random_modes(rng)
            for t in (0.5, 2.0, 4.0):
                _, m1 = mode_blocks(modes, t)
                assert rel_err(det_m1(modes, t), float(np.linalg.det(m1))) < 1e-9

    def test_cross_block_matches_naive(self, rng):
        J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for _ in range(20):
            modes = random_modes(rng)
            for t in (0.5, 2.0, 4.0):
                m0, m1 = mode_blocks(modes, t)
                naive = m0.T @ J2 @ m1
                stable = cross_block(modes, t)
                scale = max(1.0, np.abs(naive).max())
                assert np.abs(naive - stable).max() < 1e-9 * scale

    def test_zero_at_t_zero(self, base_modes):
        assert det_m1(base_modes, 0.0) == 0.0
        assert np.allclose(cross_block(base_modes, 0.0), 0.0, atol=1e-15)


class TestArrayTimes:
    """One call over an array of times against one call per time."""

    TOL = 1e-13  # of the largest magnitude a quantity reaches on the grid

    def test_blocks_and_minors_match_scalar_calls(self, rng):
        ts = np.linspace(0.0, 12.0, 97)
        for _ in range(10):
            modes = random_modes(rng)
            m0, m1 = mode_blocks(modes, ts)
            assert m0.shape == m1.shape == (2, 2, ts.size)
            x = cross_block(modes, ts)
            assert x.shape == (2, 2, ts.size)
            cols = {
                "m0": (m0, lambda t: mode_blocks(modes, t)[0]),
                "m1": (m1, lambda t: mode_blocks(modes, t)[1]),
                "x": (x, lambda t: cross_block(modes, t)),
                "dtilde": (dtilde(modes, ts), lambda t: dtilde(modes, t)),
                "det_m1": (det_m1(modes, ts), lambda t: det_m1(modes, t)),
            }
            for name, (got, one) in cols.items():
                want = np.stack([one(float(t)) for t in ts], axis=-1)
                assert got.shape == want.shape, name
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= self.TOL * scale, name

    def test_scalar_time_keeps_scalar_shapes(self, base_modes):
        m0, m1 = mode_blocks(base_modes, 1.5)
        assert m0.shape == m1.shape == cross_block(base_modes, 1.5).shape == (2, 2)
        assert isinstance(dtilde(base_modes, 1.5), float)
        assert isinstance(det_m1(base_modes, 1.5), float)

