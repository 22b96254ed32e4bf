import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invharm import (
    GaussianState,
    NonPhysical,
    SqueezeSpec,
    diagnostics_from_area,
    energy,
    entropy_approx,
    entropy_exact,
    linear_entropy,
    purity,
    squeezed_pure,
)

from reference import (
    area_ratio,
    full_transition,
    moments_of,
    product_state,
    propagate,
    reduce_system,
)


class TestSqueezeSpec:
    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            SqueezeSpec(0.0)
        with pytest.raises(ValueError):
            SqueezeSpec(-2.0)


class TestSqueezedPure:
    def test_round_state(self):
        st_ = squeezed_pure(SqueezeSpec(1.0))
        assert np.allclose(st_.cov, 0.5 * np.eye(2), atol=1e-15)
        assert np.array_equal(st_.mean, np.zeros(2))

    def test_ratio_four(self):
        st_ = squeezed_pure(SqueezeSpec(4.0))
        assert np.allclose(st_.cov, np.diag([2.0, 0.125]), atol=1e-15)

    def test_quarter_turn_swaps_variances(self):
        a = squeezed_pure(SqueezeSpec(4.0, math.pi / 2.0))
        b = squeezed_pure(SqueezeSpec(4.0))
        assert a.cov[0, 0] == pytest.approx(b.cov[1, 1], rel=1e-12)
        assert a.cov[1, 1] == pytest.approx(b.cov[0, 0], rel=1e-12)

    def test_inverse_ratio_equals_rotated(self):
        a = squeezed_pure(SqueezeSpec(0.25, math.pi / 2.0))
        b = squeezed_pure(SqueezeSpec(4.0))
        assert np.allclose(a.cov, b.cov, atol=1e-14)

    def test_hbar_scales_covariance(self):
        st_ = squeezed_pure(SqueezeSpec(1.0), hbar=2.0)
        assert np.allclose(st_.cov, np.eye(2), atol=1e-15)

    def test_mean_is_placed(self):
        spec = SqueezeSpec(3.0, 0.4)
        st_ = squeezed_pure(spec, 2.0, mean=(1.5, -0.25))
        assert np.array_equal(st_.mean, [1.5, -0.25])
        assert np.array_equal(st_.cov, squeezed_pure(spec, 2.0).cov)

    @settings(max_examples=50, deadline=None)
    @given(r=st.floats(0.05, 20.0), angle=st.floats(-3.2, 3.2))
    def test_always_pure(self, r, angle):
        st_ = squeezed_pure(SqueezeSpec(r, angle))
        assert area_ratio(st_) == pytest.approx(1.0, rel=1e-10)


class TestGaussianState:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(2), cov=np.eye(4))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(NonPhysical):
            GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_symmetry_tolerance_is_relative_above_unit_scale(self):
        # asymmetry is held to 1e-12 of the largest entry, floored at 1
        big = np.array([[1e6, 1e6 + 1e-7], [1e6, 1e6]])
        GaussianState(mean=np.zeros(2), cov=big)
        with pytest.raises(NonPhysical):
            GaussianState(mean=np.zeros(2), cov=big + [[0.0, 1e-3], [0.0, 0.0]])
        GaussianState(mean=np.zeros(2), cov=np.array([[1e-20, 5e-13], [0.0, 1e-20]]))
        with pytest.raises(NonPhysical):
            GaussianState(mean=np.zeros(2), cov=np.array([[1e-20, 5e-12], [0.0, 1e-20]]))

    def test_n_modes(self):
        assert GaussianState(np.zeros(2), np.eye(2)).n_modes == 1
        assert GaussianState(np.zeros(4), np.eye(4)).n_modes == 2


class TestProductAndReduce:
    def test_product_blocks(self):
        sys = squeezed_pure(SqueezeSpec(4.0))
        env = squeezed_pure(SqueezeSpec(2.0))
        full = product_state(sys, env)
        assert full.n_modes == 2
        assert np.array_equal(full.cov[:2, :2], sys.cov)
        assert np.array_equal(full.cov[2:, 2:], env.cov)
        assert not full.cov[:2, 2:].any()

    def test_product_rejects_two_mode_input(self):
        two = GaussianState(np.zeros(4), np.eye(4))
        one = squeezed_pure(SqueezeSpec(1.0))
        with pytest.raises(ValueError):
            product_state(two, one)

    def test_reduce_is_left_inverse_of_product(self):
        sys = GaussianState(np.array([1.0, -2.0]), np.diag([2.0, 0.125]))
        env = squeezed_pure(SqueezeSpec(2.0))
        red = reduce_system(product_state(sys, env))
        assert np.array_equal(red.mean, sys.mean)
        assert np.array_equal(red.cov, sys.cov)


class TestPropagate:
    def test_identity_map(self):
        st_ = squeezed_pure(SqueezeSpec(4.0))
        out = propagate(st_, np.eye(2))
        assert np.allclose(out.cov, st_.cov)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            propagate(squeezed_pure(SqueezeSpec(1.0)), np.eye(4))

    def test_purity_preserved_under_symplectic_map(self, base_modes):
        sys = squeezed_pure(SqueezeSpec(4.0))
        env = squeezed_pure(SqueezeSpec(2.0))
        full = product_state(sys, env)
        T = full_transition(base_modes, 2.0)
        out = propagate(full, T)
        assert np.linalg.det(out.cov) == pytest.approx(
            np.linalg.det(full.cov), rel=1e-9
        )

    def test_block_oracle_for_system_variance(self, base_modes):
        # reduced Delta x^2 after evolution equals the block formula
        # M0 Vs M0^T + M1 Ve M1^T in the (x, p) corner
        from invharm import mode_blocks

        sys = squeezed_pure(SqueezeSpec(4.0))
        env = squeezed_pure(SqueezeSpec(2.0))
        full = product_state(sys, env)
        t = 1.0
        out = reduce_system(propagate(full, full_transition(base_modes, t)))
        m0, m1 = mode_blocks(base_modes, t)
        expected = m0 @ sys.cov @ m0.T + m1 @ env.cov @ m1.T
        assert np.allclose(out.cov, expected, rtol=1e-10)

    def test_means_transform_linearly(self):
        st_ = GaussianState(np.array([1.0, 2.0]), 0.5 * np.eye(2))
        T = np.array([[0.0, 1.0], [-1.0, 0.0]])
        out = propagate(st_, T)
        assert np.allclose(out.mean, [2.0, -1.0])


class TestAreaRatio:
    def test_pure_state_is_one(self):
        assert area_ratio(squeezed_pure(SqueezeSpec(7.0))) == pytest.approx(1.0)

    def test_doubled_variances(self):
        st_ = GaussianState(np.zeros(2), np.eye(2))
        assert area_ratio(st_) == pytest.approx(2.0, rel=1e-14)

    def test_thermal_like_state(self):
        st_ = GaussianState(np.zeros(2), 1.5 * np.eye(2))
        assert area_ratio(st_) == pytest.approx(3.0, rel=1e-14)

    def test_rejects_two_mode_state(self):
        with pytest.raises(ValueError):
            area_ratio(GaussianState(np.zeros(4), np.eye(4)))

    def test_rejects_negative_determinant(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NonPhysical):
            area_ratio(GaussianState(np.zeros(2), cov))

    def test_hbar_scaling(self):
        st_ = GaussianState(np.zeros(2), np.eye(2))
        assert area_ratio(st_, hbar=2.0) == pytest.approx(1.0, rel=1e-14)


class TestEntropyFunctions:
    def test_pure_state_zero_entropy(self):
        assert entropy_exact(1.0) == 0.0
        assert entropy_approx(1.0) == 0.0
        assert linear_entropy(1.0) == 0.0
        assert purity(1.0) == 1.0

    def test_area_three_hand_value(self):
        # (A+1)/2 = 2, (A-1)/2 = 1: S = 2 ln 2 - 0 = ln 4
        assert entropy_exact(3.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_large_area_asymptotics(self):
        A = 1e3
        assert entropy_exact(A) == pytest.approx(
            math.log(A) + 1.0 - math.log(2.0), rel=1e-5
        )

    def test_exact_entropy_monotone(self):
        As = np.linspace(1.0, 50.0, 200)
        Ss = [entropy_exact(A) for A in As]
        assert all(b > a for a, b in zip(Ss, Ss[1:]))

    def test_approx_bound(self):
        # ln A underestimates by at most 1 - ln 2, approached as A -> inf
        bound = 1.0 - math.log(2.0)
        for A in (1.0, 1.1, 2.0, 10.0, 1e6):
            gap = entropy_exact(A) - entropy_approx(A)
            assert 0.0 <= gap <= bound + 1e-12

    def test_linear_entropy_and_purity(self):
        assert linear_entropy(2.0) == pytest.approx(0.5, rel=1e-14)
        assert purity(2.0) == pytest.approx(0.5, rel=1e-14)
        assert linear_entropy(5.0) + purity(5.0) == pytest.approx(1.0, rel=1e-14)

    def test_rejects_area_below_one(self):
        for fn in (entropy_exact, entropy_approx, linear_entropy, purity):
            with pytest.raises(ValueError):
                fn(0.9)

    def test_large_area_matches_asymptote(self):
        # S = ln(A/2) + 1 + O(1/A^2); the textbook difference of two
        # products cancelled here and read -ln 2 from A = 1e16 on
        for A in (1e8, 1e12, 1e14, 1e16, 1.1e15, 1e100, 1e300):
            assert entropy_exact(A) == pytest.approx(
                math.log(A / 2.0) + 1.0, rel=1e-15
            )
        As = 10.0 ** np.arange(8, 301)
        assert np.allclose(entropy_exact(As), np.log(As / 2.0) + 1.0, rtol=1e-15)

    def test_small_area_matches_textbook_form(self):
        # the difference of the two products loses nothing at small A
        for A in np.concatenate(([1.001], np.linspace(1.01, 10.0, 90))):
            textbook = 0.5 * (
                (A + 1.0) * math.log(A + 1.0) - (A - 1.0) * math.log(A - 1.0)
            ) - math.log(2.0)
            assert entropy_exact(A) == pytest.approx(textbook, rel=1e-12)

    def test_array_matches_scalar_calls(self):
        As = np.array([1.0, 1.0 - 1e-12, 1.0 + 1e-15, 2.0, 3.0, 1e6, 1e20])
        for fn in (entropy_exact, entropy_approx, linear_entropy, purity):
            col = fn(As)
            assert col.shape == As.shape
            assert [float(v) for v in col] == [float(fn(A)) for A in As]
        with pytest.raises(ValueError):
            entropy_exact(np.array([2.0, 0.5]))

    def test_tolerates_rounding_below_one(self):
        # areas a hair under 1 from floating-point noise are clamped
        assert entropy_exact(1.0 - 1e-12) == 0.0
        assert purity(1.0 - 1e-12) == 1.0


class TestEnergy:
    def test_round_vacuum(self):
        st_ = moments_of(squeezed_pure(SqueezeSpec(1.0)))
        assert energy(st_, 1.0, 1.0) == pytest.approx(0.5)

    def test_squeezed_state(self):
        # r = 4: dx2 = 2, dp2 = 1/8
        e = energy(moments_of(squeezed_pure(SqueezeSpec(4.0))), 1.0, 1.0)
        assert e == pytest.approx(0.5 * (2.0 + 0.125), rel=1e-14)

    def test_mean_offset_adds_coherent_energy(self):
        st_ = moments_of(GaussianState(np.array([3.0, 0.0]), 0.5 * np.eye(2)))
        m_s, omega = 2.0, 1.5
        base = energy(moments_of(squeezed_pure(SqueezeSpec(1.0))), m_s, omega)
        assert energy(st_, m_s, omega) == pytest.approx(
            base + 0.5 * m_s * omega**2 * 9.0, rel=1e-14
        )

    def test_mass_and_frequency_scaling(self):
        st_ = moments_of(GaussianState(np.zeros(2), np.diag([1.0, 4.0])))
        assert energy(st_, 2.0, 3.0) == pytest.approx(
            0.5 * (2.0 * 9.0 * 1.0 + 4.0 / 2.0), rel=1e-14
        )


class TestDiagnostics:
    def test_consistency_with_scalar_functions(self):
        st_ = GaussianState(np.array([1.0, 0.5]), np.diag([2.0, 1.0]))
        A = area_ratio(st_)
        d = diagnostics_from_area(A, moments_of(st_), m_s=1.0, omega=1.0)
        assert d.A == A
        assert d.a == pytest.approx(A / 2.0, rel=1e-14)
        assert d.S == entropy_exact(A)
        assert d.S_approx == entropy_approx(A)
        assert d.varsigma == linear_entropy(A)
        assert d.purity == purity(A)
        assert d.E == energy(moments_of(st_), 1.0, 1.0)

    def test_from_area_overrides_determinant(self):
        st_ = GaussianState(np.zeros(2), 0.5 * np.eye(2))
        d = diagnostics_from_area(3.0, moments_of(st_), m_s=1.0, omega=1.0)
        assert d.A == 3.0
        assert d.S == entropy_exact(3.0)
        # energy still comes from the stored covariance
        assert d.E == pytest.approx(0.5)

    def test_columns_match_scalar_calls(self):
        # one call over a column of states gives, entry by entry, the
        # values of one call per state
        A = np.array([1.0, 1.0 - 1e-12, 1.5, 3.0, 1e9])
        moments = np.array(
            [[0.1 * i, -0.2 * i, 1.0 + i, 0.5 + i, 0.1 * i] for i in range(5)]
        )
        cols = diagnostics_from_area(A, moments, m_s=0.9, omega=1.3, hbar=2.0)
        for i in range(A.size):
            one = diagnostics_from_area(A[i], moments[i], m_s=0.9, omega=1.3, hbar=2.0)
            for name in ("a", "A", "S", "S_approx", "varsigma", "purity", "E"):
                assert getattr(cols, name)[i] == getattr(one, name)

    def test_column_rejects_area_below_one(self):
        with pytest.raises(ValueError):
            diagnostics_from_area(np.array([1.0, 0.9]), np.zeros((2, 5)), 1.0, 1.0)
