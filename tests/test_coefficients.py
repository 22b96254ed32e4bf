import math

import numpy as np
import pytest

from invharm import (
    GaussianState,
    NormalModes,
    UnsupportedRegime,
    coeffs_closed,
    coeffs_general,
    contract,
    find_divergences,
)

from conftest import rel_err


ENV = GaussianState(np.zeros(2), np.array([[1.0, 0.1], [0.1, 0.25]]))


class TestContract:
    def test_zero_tensor(self):
        assert contract(np.zeros((2, 2)), ENV.cov) == 0.0

    def test_identity_sums_diagonal_variances(self):
        v = np.array([[3.0, 0.7], [0.7, 5.0]])
        assert contract(np.eye(2), v) == pytest.approx(8.0, rel=1e-15)

    def test_off_diagonal_half_weight(self):
        v = np.array([[0.0, 1.5], [1.5, 0.0]])
        tensor = np.array([[0.0, 2.0], [2.0, 0.0]])
        # each off-diagonal entry meets dyq once, as in the exact
        # diffusion K Ve M1^T + M1 Ve K^T: (2 + 2)*1.5
        assert contract(tensor, v) == pytest.approx(6.0, rel=1e-15)
        # the sub-tensors are not symmetric: (1 + 3)*1.5, where a
        # contraction that doubled t_yq would give 3.0
        asymmetric = np.array([[0.0, 1.0], [3.0, 0.0]])
        assert contract(asymmetric, v) == pytest.approx(6.0, rel=1e-15)


class TestDecoupledLimit:
    def test_all_coupling_terms_vanish(self):
        modes = NormalModes(omega=1.3, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        for t in (0.5, 2.0, 9.0):
            c = coeffs_general(modes, ENV, t)
            assert c.dtilde == pytest.approx(1.0, abs=1e-12)
            assert c.omega_eff_sq == pytest.approx(1.3**2, rel=1e-10)
            assert abs(c.gamma_eff) < 1e-12
            assert c.Fy == 0.0 and c.Fq == 0.0 and c.F == 0.0
            assert c.f1 == 0.0 and c.f2 == 0.0
            assert not c.f1_tensor.any() and not c.f2_tensor.any()
            assert c.valid


class TestShortTimeLimits:
    def test_friction_vanishes_at_zero(self, base_modes):
        c = coeffs_general(base_modes, ENV, 0.0)
        assert abs(c.gamma_eff) < 1e-12

    def test_frequency_starts_at_bare_value(self, rng):
        from invharm import params_from_modes

        for _ in range(20):
            modes = NormalModes(
                omega=float(rng.uniform(0.3, 2.0)),
                lambda_sq=float(rng.uniform(-3.0, 3.0)),
                theta_c=float(rng.uniform(-0.4, 0.4)),
                m_s=1.0,
                m_e=1.0,
            )
            try:
                bare = params_from_modes(
                    modes.omega, modes.lambda_sq, modes.theta_c
                )
            except ValueError:
                continue
            c = coeffs_general(modes, ENV, 1e-6)
            assert rel_err(c.omega_eff_sq, bare.omega_bare**2) < 1e-8


class TestDualFormulas:
    FIELDS = ("dtilde", "omega_eff_sq", "gamma_eff", "Fy", "Fq", "f1", "f2")

    def test_base_point(self, base_modes):
        a = coeffs_general(base_modes, ENV, 2.0)
        b = coeffs_closed(base_modes, ENV, 2.0)
        for f in self.FIELDS:
            assert rel_err(getattr(a, f), getattr(b, f)) < 1e-10, f
        assert np.abs(a.f1_tensor - b.f1_tensor).max() < 1e-10 * max(
            1.0, np.abs(a.f1_tensor).max()
        )
        assert np.abs(a.f2_tensor - b.f2_tensor).max() < 1e-10 * max(
            1.0, np.abs(a.f2_tensor).max()
        )

    def test_random_draws(self, rng):
        worst = 0.0
        n = 0
        while n < 300:
            modes = NormalModes(
                omega=float(rng.uniform(0.3, 2.0)),
                lambda_sq=float(rng.uniform(0.3, 2.0) ** 2),
                theta_c=float(rng.choice([-1, 1]) * rng.uniform(1e-3, 0.5)),
                m_s=float(rng.uniform(0.5, 2.0)),
                m_e=float(rng.uniform(0.5, 2.0)),
            )
            # lambda t up to 40: the unstable kernel reaches 1e17, far
            # past where a form with uncancelled kernel squares breaks
            t = float(rng.uniform(0.0, 40.0 / math.sqrt(modes.lambda_sq)))
            a = coeffs_general(modes, ENV, t)
            if abs(a.dtilde) <= 1e-3:
                continue
            b = coeffs_closed(modes, ENV, t)
            n += 1
            for f in self.FIELDS:
                worst = max(worst, rel_err(getattr(a, f), getattr(b, f)))
        assert worst < 1e-9

    def test_closed_rejects_stable_environment(self):
        modes = NormalModes(omega=1.0, lambda_sq=-1.0, theta_c=0.1, m_s=1.0, m_e=1.0)
        with pytest.raises(UnsupportedRegime):
            coeffs_closed(modes, ENV, 1.0)


class TestDiffusionStructure:
    def test_scalar_ratio_approaches_instability_rate(self):
        # at long times both diffusion scalars grow on the same envelope
        # and their ratio tends to the instability rate
        modes = NormalModes(
            omega=1.0, lambda_sq=4.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0
        )
        env = GaussianState(np.zeros(2), np.diag([0.5, 0.5]))
        c = coeffs_general(modes, env, 4.0)  # lam * t = 8
        assert c.f1 / c.f2 == pytest.approx(2.0, rel=0.01)

    def test_growth_rate_twice_instability(self, base_modes):
        env = GaussianState(np.zeros(2), np.diag([0.5, 0.5]))
        ts = np.linspace(2.0, 6.0, 60)
        f1 = np.array([coeffs_general(base_modes, env, t).f1 for t in ts])
        slope = np.polyfit(ts, np.log(np.abs(f1)), 1)[0]
        assert slope == pytest.approx(2.0, rel=0.1)

    def test_momentum_diffusion_positive_mid_window(self, base_modes):
        for r in (1.0, 4.0, 16.0):
            env = GaussianState(np.zeros(2), np.diag([r / 2.0, 1.0 / (2.0 * r)]))
            for t in np.linspace(2.0, 7.0, 40):
                assert coeffs_general(base_modes, env, t).f1 > 0.0

    def test_force_couples_to_environment_means(self, base_modes):
        env = GaussianState(np.array([2.0, -3.0]), np.diag([0.5, 0.5]))
        c = coeffs_general(base_modes, env, 1.5)
        assert c.F == pytest.approx(2.0 * c.Fy - 3.0 * c.Fq, rel=1e-14)
        zero_mean = coeffs_general(base_modes, ENV, 1.5)
        assert zero_mean.F == 0.0


class TestValidityGuard:
    def test_invalid_near_divergence(self, base_modes):
        root = find_divergences(base_modes, 10.0)[0]
        c = coeffs_general(base_modes, ENV, root)
        assert not c.valid
        assert abs(c.dtilde) < 1e-6
        far = coeffs_general(base_modes, ENV, root - 0.5)
        assert far.valid

    def test_guard_is_configurable(self, base_modes):
        root = find_divergences(base_modes, 10.0)[0]
        c = coeffs_general(base_modes, ENV, root - 0.05, guard=10.0)
        assert not c.valid
        assert math.isfinite(c.omega_eff_sq)


class TestArrayTimes:
    def test_matches_scalar_calls_before_first_root(self):
        # every column holds to 1e-12 of the largest magnitude it
        # reaches; the grid stops short of the first root, where the
        # columns diverge
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=0.9, m_e=1.6
        )
        env0 = GaussianState(np.array([0.3, -0.2]), ENV.cov)
        ts = np.linspace(0.0, 0.95 * find_divergences(modes, 16.0)[0], 151)
        cols = coeffs_general(modes, env0, ts)
        ones = [coeffs_general(modes, env0, float(t)) for t in ts]
        assert cols.f1_tensor.shape == cols.f2_tensor.shape == (2, 2, ts.size)
        for name in (
            "dtilde",
            "omega_eff_sq",
            "gamma_eff",
            "Fy",
            "Fq",
            "F",
            "f1",
            "f2",
            "f1_tensor",
            "f2_tensor",
        ):
            got = getattr(cols, name)
            want = np.stack([getattr(c, name) for c in ones], axis=-1)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-12 * scale, name
        assert np.array_equal(cols.valid, [c.valid for c in ones])

