import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invharm import (
    NormalModes,
    SupersystemParams,
    derive_modes,
    gkernels,
    params_from_modes,
)


class TestSupersystemParams:
    def test_rejects_nonpositive_masses(self):
        with pytest.raises(ValueError):
            SupersystemParams(m_s=0.0, m_e=1.0, omega_bare=1.0, lambda_sq_bare=1.0, g=0.1)
        with pytest.raises(ValueError):
            SupersystemParams(m_s=1.0, m_e=-1.0, omega_bare=1.0, lambda_sq_bare=1.0, g=0.1)

    def test_rejects_nonpositive_hbar(self):
        with pytest.raises(ValueError):
            SupersystemParams(
                m_s=1.0, m_e=1.0, omega_bare=1.0, lambda_sq_bare=1.0, g=0.1, hbar=0.0
            )

    def test_rejects_negative_frequency_and_coupling(self):
        with pytest.raises(ValueError):
            SupersystemParams(m_s=1.0, m_e=1.0, omega_bare=-1.0, lambda_sq_bare=1.0, g=0.1)
        with pytest.raises(ValueError):
            SupersystemParams(m_s=1.0, m_e=1.0, omega_bare=1.0, lambda_sq_bare=1.0, g=-0.1)


class TestNormalModesType:
    def test_validation(self):
        with pytest.raises(ValueError):
            NormalModes(omega=-1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        with pytest.raises(ValueError):
            NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=0.0, m_e=1.0)
        with pytest.raises(ValueError):
            NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0, hbar=-1.0)

    @pytest.mark.parametrize("hbar", [1e-300, 1e160])
    def test_hbar_whose_square_is_not_a_finite_float_is_named(self, hbar):
        # 1/hbar^2 scales the diffusion; an hbar for which it cannot be
        # formed is rejected here, not by the first diffusion entry
        with pytest.raises(ValueError, match="out of range") as info:
            NormalModes(omega=1.0, lambda_sq=1.5, theta_c=0.1, m_s=0.8, m_e=1.7, hbar=hbar)
        assert "hbar" in str(info.value)


class TestDeriveModes:
    def test_decoupled_identity_case(self):
        modes = derive_modes(
            SupersystemParams(m_s=1.0, m_e=1.0, omega_bare=2.0, lambda_sq_bare=9.0, g=0.0)
        )
        assert modes.omega == pytest.approx(2.0, abs=1e-14)
        assert modes.lambda_sq == pytest.approx(9.0, abs=1e-14)
        assert modes.theta_c == 0.0

    def test_symmetric_hand_case(self):
        # W^2 = L^2 = g = 1: radical 2*sqrt(2), both mode stiffnesses sqrt(2),
        # tan(theta) = 1 - sqrt(2) = tan(-pi/8)
        modes = derive_modes(
            SupersystemParams(m_s=1.0, m_e=1.0, omega_bare=1.0, lambda_sq_bare=1.0, g=1.0)
        )
        assert modes.omega**2 == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert modes.lambda_sq == pytest.approx(math.sqrt(2.0), rel=1e-14)
        assert modes.theta_c == pytest.approx(-math.pi / 8.0, rel=1e-14)

    def test_strongly_stable_weak_coupling_against_eigensolver(self):
        W2, L2, g = 1.0, -16.0, 1e-3
        modes = derive_modes(
            SupersystemParams(m_s=1.0, m_e=1.0, omega_bare=1.0, lambda_sq_bare=L2, g=g)
        )
        # independent oracle: eigendecomposition of the stiffness matrix
        K = np.array([[W2, g], [g, -L2]])
        evals, evecs = np.linalg.eigh(K)
        # omega^2 is the eigenvalue continuously connected to W^2;
        # -lambda_sq the other
        assert modes.omega**2 == pytest.approx(min(evals), rel=1e-12)
        assert -modes.lambda_sq == pytest.approx(max(evals), rel=1e-12)
        # perturbative mixing angle: g over the eigenvalue splitting (15)
        assert abs(modes.theta_c) == pytest.approx(g / 15.0, rel=1e-3)
        assert modes.omega == pytest.approx(1.0, abs=1e-4)
        assert modes.lambda_sq == pytest.approx(-16.0, abs=1e-4)

    def test_rejects_doubly_unstable(self):
        # a dominant stable environment with coupling g^2 > W^2 |L^2|
        # pushes the system-like eigenvalue below zero
        with pytest.raises(ValueError):
            derive_modes(
                SupersystemParams(
                    m_s=1.0, m_e=1.0, omega_bare=0.1, lambda_sq_bare=-5.0, g=1.0
                )
            )

    @settings(max_examples=200, deadline=None)
    @given(
        w=st.floats(0.0, 10.0),
        l2=st.floats(-10.0, 10.0),
        g=st.floats(0.0, 10.0),
    )
    # g * g underflows to 0 here; the radical must not
    @example(w=0.0, l2=0.0, g=1e-240)
    def test_trace_and_determinant_identities(self, w, l2, g):
        params = SupersystemParams(
            m_s=1.0, m_e=1.0, omega_bare=w, lambda_sq_bare=l2, g=g
        )
        try:
            modes = derive_modes(params)
        except ValueError:
            return  # omega^2 < 0 rejected: outside model scope
        scale = max(w * w, abs(l2), g, 1.0)
        assert abs((modes.omega**2 - modes.lambda_sq) - (w * w - l2)) <= 1e-10 * scale**2
        assert (
            abs(modes.omega**2 * modes.lambda_sq - (w * w * l2 + g * g))
            <= 1e-10 * scale**2
        )

    @settings(max_examples=100, deadline=None)
    @given(
        w=st.floats(0.1, 10.0),
        l2=st.floats(-10.0, 10.0),
        g=st.floats(0.0, 10.0),
    )
    def test_rotation_diagonalizes_stiffness(self, w, l2, g):
        params = SupersystemParams(
            m_s=1.0, m_e=1.0, omega_bare=w, lambda_sq_bare=l2, g=g
        )
        try:
            modes = derive_modes(params)
        except ValueError:
            return
        K = np.array([[w * w, g], [g, -l2]])
        c, s = math.cos(modes.theta_c), math.sin(modes.theta_c)
        R = np.array([[c, -s], [s, c]])
        D = R @ K @ R.T
        assert abs(D[0, 1]) < 1e-11 * max(w * w, abs(l2), g, 1.0)


class TestParamsFromModes:
    def test_decoupled(self):
        p = params_from_modes(1.0, 1.0, 0.0)
        assert p.omega_bare == pytest.approx(1.0)
        assert p.lambda_sq_bare == pytest.approx(1.0)
        assert p.g == 0.0

    def test_inverse_of_symmetric_case(self):
        w = math.sqrt(math.sqrt(2.0))
        p = params_from_modes(w, math.sqrt(2.0), math.pi / 8.0)
        assert p.omega_bare == pytest.approx(1.0, rel=1e-12)
        assert p.lambda_sq_bare == pytest.approx(1.0, rel=1e-12)
        assert p.g == pytest.approx(1.0, rel=1e-12)

    def test_round_trip_base(self):
        p = params_from_modes(1.0, 1.0, math.pi / 64.0)
        modes = derive_modes(p)
        assert modes.omega == pytest.approx(1.0, rel=1e-12)
        assert modes.lambda_sq == pytest.approx(1.0, rel=1e-12)
        assert abs(modes.theta_c) == pytest.approx(math.pi / 64.0, rel=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(
        om=st.floats(0.1, 5.0),
        lsq=st.floats(-5.0, 5.0),
        th=st.floats(-0.7, 0.7),
    )
    def test_round_trip_random(self, om, lsq, th):
        try:
            p = params_from_modes(om, lsq, th)
            modes = derive_modes(p)
        except ValueError:
            return  # bare system frequency imaginary: not representable
        assert modes.omega == pytest.approx(om, rel=1e-9, abs=1e-9)
        assert modes.lambda_sq == pytest.approx(lsq, rel=1e-9, abs=1e-9)
        assert abs(modes.theta_c) == pytest.approx(abs(th), rel=1e-9, abs=1e-9)

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            params_from_modes(-1.0, 1.0, 0.1)


class TestGKernels:
    def test_unstable_at_zero(self):
        assert gkernels(1.0, 0.0) == (1.0, 0.0)

    def test_stable_quarter_period(self):
        c, s = gkernels(-4.0, math.pi / 2.0)
        assert c == pytest.approx(-1.0, abs=1e-14)
        assert s == pytest.approx(0.0, abs=1e-14)

    def test_continuity_at_zero_stiffness(self):
        c0, s0 = gkernels(0.0, 1.0)
        assert (c0, s0) == (1.0, 1.0)
        for k in (1e-12, -1e-12):
            c, s = gkernels(k, 1.0)
            assert c == pytest.approx(c0, abs=1e-10)
            assert s == pytest.approx(s0, abs=1e-10)

    def test_unstable_closed_forms(self):
        c, s = gkernels(4.0, 0.7)
        assert c == pytest.approx(math.cosh(1.4), rel=1e-14)
        assert s == pytest.approx(math.sinh(1.4) / 2.0, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(-25.0, 25.0), t=st.floats(-3.0, 3.0))
    def test_derivative_relations(self, k, t):
        # s' = c and c' = k s, checked by symmetric finite differences
        h = 1e-6
        c, s = gkernels(k, t)
        cp, sp = gkernels(k, t + h)
        cm, sm = gkernels(k, t - h)
        scale = max(abs(c), abs(s), 1.0)
        assert (sp - sm) / (2 * h) == pytest.approx(c, rel=1e-6, abs=1e-6 * scale)
        assert (cp - cm) / (2 * h) == pytest.approx(k * s, rel=1e-6, abs=1e-6 * scale)

    @settings(max_examples=200, deadline=None)
    @given(k=st.floats(-25.0, 25.0), t=st.floats(-5.0, 5.0))
    def test_kernel_identity(self, k, t):
        # c^2 - k s^2 = 1 (generalized Pythagorean identity)
        c, s = gkernels(k, t)
        assert c * c - k * s * s == pytest.approx(1.0, rel=1e-9, abs=1e-9 * max(1.0, c * c))

    @settings(max_examples=100, deadline=None)
    @given(k=st.floats(-25.0, 25.0), t=st.floats(0.0, 5.0))
    def test_parity(self, k, t):
        c, s = gkernels(k, t)
        cm, sm = gkernels(k, -t)
        assert cm == pytest.approx(c, rel=1e-14, abs=1e-300)
        assert sm == pytest.approx(-s, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("k", [2.3, -1.7, 1.0, -1.0, 0.0, 1e-12])
    def test_array_matches_scalar(self, k):
        # numpy's cosh/sinh/cos/sin may differ from math's by an ulp; the
        # Taylor branch (|k| t^2 < 1e-8, crossed near t = 1e-4 for |k| = 1)
        # is the same arithmetic in both
        ts = np.concatenate(
            (np.geomspace(1e-7, 1e-2, 61), np.linspace(-5.0, 30.0, 701))
        )
        c, s = gkernels(k, ts)
        assert c.shape == s.shape == ts.shape
        want = np.array([gkernels(k, float(t)) for t in ts])
        for got, ref in ((c, want[:, 0]), (s, want[:, 1])):
            assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))
        series = np.abs(k * ts * ts) < 1e-8
        assert np.array_equal(c[series], want[series, 0])
        assert np.array_equal(s[series], want[series, 1])

    def test_mixed_sign_stiffness_array(self):
        # one float stiffness per branch, each over an array of times that
        # reaches past the Taylor cutoff (|k| t^2 < 1e-8, both signs); the
        # stable case at r t = 800 would overflow cosh, which its branch
        # never evaluates
        for k, t in (
            (-1.0, np.array([0.0, 1e-5, 3.1, 800.0])),
            (-1e-12, np.array([0.0, 50.0, 1e5])),
            (0.0, np.array([0.0, 7.0, -4.0])),
            (1e-12, np.array([0.0, 50.0, 1e5])),
            (2.3, np.array([0.0, 1e-5, 3.1, -4.0])),
        ):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                c, s = gkernels(k, t)
            assert c.shape == s.shape == t.shape
            for i in range(t.size):
                want_c, want_s = gkernels(k, float(t[i]))
                assert c[i] == pytest.approx(want_c, rel=1e-14), (k, i)
                assert s[i] == pytest.approx(want_s, rel=1e-14), (k, i)
