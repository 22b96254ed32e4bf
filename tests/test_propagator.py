import math

import numpy as np
import pytest

from invharm import GaussianState, NormalModes, dtilde, gkernels, system_rows
from invharm.propagator import _kernels_at

from conftest import BASE, rel_err
from reference import SYMPLECTIC_FORM, coeffs_closed, full_transition


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


def mode_functions(modes, t):
    """(phi0, dphi0, d2phi0, phi1, dphi1, d2phi1) read back from the
    entries of the blocks of :func:`system_rows`."""
    m0, m1 = system_rows(modes, t)[:2]
    return (
        modes.m_s * m0[0, 1],
        m0[0, 0],
        m0[1, 0] / modes.m_s,
        modes.root_prod * m1[0, 1],
        m1[0, 0] / modes.root_es,
        m1[1, 0] / modes.root_prod,
    )


class TestModeFunctions:
    def test_initial_values(self, base_modes):
        phi0, dphi0, _, phi1, dphi1, _ = mode_functions(base_modes, 0.0)
        assert phi0 == 0.0
        assert dphi0 == 1.0
        assert phi1 == 0.0
        assert dphi1 == 0.0

    def test_decoupled_is_bare_oscillator(self):
        modes = NormalModes(omega=1.3, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        for t in (0.3, 1.0, 2.7):
            phi0, _, _, phi1, dphi1, _ = mode_functions(modes, t)
            assert phi0 == pytest.approx(math.sin(1.3 * t) / 1.3, rel=1e-14)
            assert phi1 == 0.0
            assert dphi1 == 0.0

    def test_strong_coupling_hand_value(self):
        # equal-weight mixing: phi0 is the average of the two kernels
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 4, m_s=1.0, m_e=1.0
        )
        phi0 = mode_functions(modes, 1.0)[0]
        assert phi0 == pytest.approx((math.sin(1.0) + math.sinh(1.0)) / 2.0, rel=1e-14)

    def test_derivative_ladder(self, base_modes):
        # the derivatives in the blocks match finite differences of phi0, phi1
        h = 1e-6
        for t in (0.5, 1.5, 3.0):
            phi0, dphi0, d2phi0, phi1, dphi1, d2phi1 = mode_functions(base_modes, t)
            p0, dp0, _, p1, dp1, _ = mode_functions(base_modes, t + h)
            m0, dm0, _, m1, dm1, _ = mode_functions(base_modes, t - h)
            assert (p0 - m0) / (2 * h) == pytest.approx(dphi0, rel=1e-8)
            assert (dp0 - dm0) / (2 * h) == pytest.approx(d2phi0, rel=1e-8, abs=1e-8)
            assert (p1 - m1) / (2 * h) == pytest.approx(dphi1, rel=1e-8, abs=1e-8)
            assert (dp1 - dm1) / (2 * h) == pytest.approx(d2phi1, rel=1e-8, abs=1e-8)


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
        rows = np.hstack(system_rows(base_modes, 1.7)[:2])
        assert np.abs(T[:2] - rows).max() < 1e-12 * max(1.0, np.abs(T).max())


class TestTpMatrix:
    """The system rows [M_0 | M_1] of the partial-knowledge matrix T_p,
    as returned by :func:`system_rows`."""

    def test_identity_at_zero(self, base_modes):
        m0, m1 = system_rows(base_modes, 0.0)[:2]
        assert np.allclose(m0, np.eye(2), atol=1e-15)
        assert np.allclose(m1, 0.0, atol=1e-15)

    def test_decoupled_cross_block_zero(self):
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        _, m1, _, det, x = system_rows(modes, 2.3)
        assert np.allclose(m1, 0.0, atol=1e-15)
        assert det == 0.0
        assert np.allclose(x, 0.0, atol=1e-15)


class TestDtilde:
    def test_one_at_zero(self, base_modes):
        assert dtilde(base_modes)(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_decoupled_is_one_everywhere(self):
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        ts = np.linspace(0.0, 100.0, 4001)
        dt = dtilde(modes)
        vals = np.array([dt(t) for t in ts])
        assert np.abs(vals - 1.0).max() < 1e-9

    def test_matches_block_determinant(self, rng):
        for _ in range(20):
            modes = random_modes(rng)
            dt = dtilde(modes)
            for t in (0.7, 2.0, 4.0):
                m0, _, dt_, _, _ = system_rows(modes, t)
                naive = float(np.linalg.det(m0))
                assert rel_err(dt(t), naive) < 1e-9
                # the rows carry the same evaluation of the same formula
                assert dt_ == dt(t)

    def test_matches_closed_form_denominator(self, base_modes):
        env0 = GaussianState(np.zeros(2), np.eye(2))
        closed = coeffs_closed(base_modes, env0, 2.0)[0]  # its dtilde
        assert closed == pytest.approx(dtilde(base_modes)(2.0), rel=1e-12)

    def test_near_unity_before_critical_time(self):
        # weak coupling: determinant within 10% of 1 well before the
        # critical time
        th = 1e-3
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=th, m_s=1.0, m_e=1.0)
        t_c = -2.0 * math.log(th) + math.log(1.0)  # derived critical time
        ts = np.linspace(0.0, t_c - 2.0, 400)
        dt = dtilde(modes)
        vals = np.array([dt(t) for t in ts])
        assert np.abs(vals - 1.0).max() < 0.1

    def test_no_cancellation_at_long_times(self, base_modes):
        # the kernel-identity form stays accurate where the naive
        # difference of squares has lost every digit
        t = 40.0
        val = dtilde(base_modes)(t)
        assert math.isfinite(val)
        # envelope from the weak-coupling expansion: theta^2 e^{lam t} scale
        envelope = base_modes.theta_c**2 * math.exp(t) * 2.0
        assert 1e-3 * envelope < abs(val) < envelope


class TestAuxiliaryBlocks:
    def test_det_m1_matches_naive(self, rng):
        for _ in range(20):
            modes = random_modes(rng)
            for t in (0.5, 2.0, 4.0):
                _, m1, _, det, _ = system_rows(modes, t)
                assert rel_err(det, float(np.linalg.det(m1))) < 1e-9

    def test_cross_block_matches_naive(self, rng):
        J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        for _ in range(20):
            modes = random_modes(rng)
            for t in (0.5, 2.0, 4.0):
                m0, m1, _, _, stable = system_rows(modes, t)
                naive = m0.T @ J2 @ m1
                scale = max(1.0, np.abs(naive).max())
                assert np.abs(naive - stable).max() < 1e-9 * scale

    def test_det_m1_is_one_minus_dtilde(self):
        # the system rows of a symplectic matrix satisfy
        # M0 J M0^T + M1 J M1^T = J, so det M1 = 1 - Dtilde; the two
        # closed forms keep the identity to rounding, past several roots
        rng = np.random.default_rng(20260)
        for _ in range(200):
            modes = random_modes(rng)
            lam = math.sqrt(abs(modes.lambda_sq))
            ts = np.linspace(0.0, 20.0 / max(lam, 0.5), 400)
            _, _, dt_, det, _ = system_rows(modes, ts)
            err = np.abs(dt_ + det - 1.0) / np.maximum(np.abs(dt_), 1.0)
            assert err.max() <= 1e-14

    def test_zero_at_t_zero(self, base_modes):
        _, _, _, det, x = system_rows(base_modes, 0.0)
        assert det == 0.0
        assert np.allclose(x, 0.0, atol=1e-15)


class TestArrayTimes:
    """One call over an array of times against one call per time."""

    TOL = 1e-13  # of the largest magnitude a quantity reaches on the grid

    def test_blocks_and_minors_match_scalar_calls(self, rng):
        ts = np.linspace(0.0, 12.0, 97)
        for _ in range(10):
            modes = random_modes(rng)
            rows = system_rows(modes, ts)
            assert rows[0].shape == rows[1].shape == rows[4].shape == (2, 2, ts.size)
            assert np.array_equal(rows[2], dtilde(modes)(ts))
            ones = [system_rows(modes, float(t)) for t in ts]
            for i, name in enumerate(("m0", "m1", "dtilde", "det_m1", "x")):
                got = rows[i]
                want = np.stack([one[i] for one in ones], axis=-1)
                assert got.shape == want.shape, name
                scale = max(1.0, np.abs(want).max())
                assert np.abs(got - want).max() <= self.TOL * scale, name

    def test_scalar_time_keeps_scalar_shapes(self, base_modes):
        m0, m1, dt_, det, x = system_rows(base_modes, 1.5)
        assert m0.shape == m1.shape == x.shape == (2, 2)
        assert isinstance(dtilde(base_modes)(1.5), float)
        assert isinstance(dt_, float)
        assert isinstance(det, float)



class TestPerRunKernels:
    @pytest.mark.parametrize("omega", [0.0, 1.3])
    @pytest.mark.parametrize("lambda_sq", [-2.3, 0.0, 1e-12, 1.7])
    def test_float_times_match_gkernels_bit_for_bit(self, omega, lambda_sq):
        # the per-run kernels at a float time are gkernels' float results,
        # on both sides of each mode's series cutoff |k| t^2 = 1e-8 and of
        # twice its time, from which the bound closed forms take over
        modes = NormalModes(
            omega=omega, lambda_sq=lambda_sq, theta_c=-0.35, m_s=0.7, m_e=1.6
        )
        at = _kernels_at(modes)
        ts = [0.0, 1e-9, 0.3, 2.0, 7.5]
        for k in (modes.k1, modes.k2):
            if k != 0.0:
                edge = math.sqrt(1e-8 / abs(k))
                ts += [f * edge for f in (0.5, 1.0, 1.0 + 1e-15, 1.9, 2.0, 2.1)]
        for t in ts:
            got = at(t)[:4]
            assert got == (*gkernels(modes.k1, t), *gkernels(modes.k2, t)), t
