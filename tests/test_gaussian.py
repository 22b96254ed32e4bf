import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invharm import (
    GaussianState,
    SqueezeSpec,
    diagnostics_from_area,
    squeezed_pure,
    system_rows,
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
    AREA = "^initial state has scaled area A = .* < 1$"

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

    @pytest.mark.parametrize(
        "r, angle, hbar, message",
        [
            # variances near 1e299 whose determinant overflows to -inf
            # (angle 0.3) or +inf (angle 1.0)
            (1e-300, 0.3, 1.0, "initial covariance is not finite"),
            (1e-300, 1.0, 1.0, "initial covariance is not finite"),
            # rounded covariances whose determinant falls below (hbar/2)^2
            # by more than the area check allows
            (9009.38782981161, 2.241966891994931, 3.4024058628592333, AREA),
            (0.00011134952544217739, -2.23790841982599, 31.57879118212196, AREA),
            (8373.682762350662, -0.5466948026586502, 0.23994865873308027, AREA),
        ],
    )
    def test_rejects_a_state_it_cannot_build(self, r, angle, hbar, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                squeezed_pure(SqueezeSpec(r, angle), hbar)


class TestGaussianState:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(ValueError):
            GaussianState(mean=np.zeros(2), cov=np.eye(4))
        # a state holds one mode; two-mode states live in the tests as arrays
        with pytest.raises(ValueError, match="one mode"):
            GaussianState(mean=np.zeros(4), cov=np.eye(4))

    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError, match=r"^covariance matrix not symmetric$"):
            GaussianState(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_symmetry_tolerance_is_relative_above_unit_scale(self):
        # asymmetry is held to 1e-12 of the largest entry, floored at 1
        big = np.array([[1e6, 1e6 + 1e-7], [1e6, 1e6]])
        GaussianState(mean=np.zeros(2), cov=big)
        with pytest.raises(ValueError, match=r"^covariance matrix not symmetric$"):
            GaussianState(mean=np.zeros(2), cov=big + [[0.0, 1e-3], [0.0, 0.0]])
        GaussianState(mean=np.zeros(2), cov=np.array([[1e-20, 5e-13], [0.0, 1e-20]]))
        with pytest.raises(ValueError, match=r"^covariance matrix not symmetric$"):
            GaussianState(mean=np.zeros(2), cov=np.array([[1e-20, 5e-12], [0.0, 1e-20]]))


    @pytest.mark.parametrize(
        "mean, cov",
        [([math.nan, 0.0], np.eye(2)), ([0.0, 0.0], [[math.inf, 0.0], [0.0, 1.0]])],
        ids=["nan_mean", "inf_cov"],
    )
    def test_rejects_non_finite_entries(self, mean, cov):
        # a NaN mean would reach every moment of run_exact as NaN with no
        # error, and an infinite variance pass the symmetry test with a
        # RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = "^a state's mean and covariance must be finite$"
            with pytest.raises(ValueError, match=message):
                GaussianState(mean=mean, cov=cov)


class TestProductAndReduce:
    def test_product_blocks(self):
        sys = squeezed_pure(SqueezeSpec(4.0))
        env = squeezed_pure(SqueezeSpec(2.0))
        mean, cov = product_state(sys, env)
        assert mean.shape == (4,)
        assert np.array_equal(cov[:2, :2], sys.cov)
        assert np.array_equal(cov[2:, 2:], env.cov)
        assert not cov[:2, 2:].any()

    def test_product_rejects_two_mode_input(self):
        # a factor holds one mode: a two-mode GaussianState cannot be built
        one = squeezed_pure(SqueezeSpec(1.0))
        with pytest.raises(ValueError, match="one mode"):
            product_state(GaussianState(np.zeros(4), np.eye(4)), one)

    def test_reduce_is_left_inverse_of_product(self):
        sys = GaussianState(np.array([1.0, -2.0]), np.diag([2.0, 0.125]))
        env = squeezed_pure(SqueezeSpec(2.0))
        red = reduce_system(*product_state(sys, env))
        assert np.array_equal(red.mean, sys.mean)
        assert np.array_equal(red.cov, sys.cov)


class TestPropagate:
    def test_identity_map(self):
        st_ = squeezed_pure(SqueezeSpec(4.0))
        _, cov = propagate(st_.mean, st_.cov, np.eye(2))
        assert np.allclose(cov, st_.cov)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            st_ = squeezed_pure(SqueezeSpec(1.0))
            propagate(st_.mean, st_.cov, np.eye(4))

    def test_purity_preserved_under_symplectic_map(self, base_modes):
        sys = squeezed_pure(SqueezeSpec(4.0))
        env = squeezed_pure(SqueezeSpec(2.0))
        mean, cov = product_state(sys, env)
        T = full_transition(base_modes, 2.0)
        _, out = propagate(mean, cov, T)
        assert np.linalg.det(out) == pytest.approx(np.linalg.det(cov), rel=1e-9)

    def test_block_oracle_for_system_variance(self, base_modes):
        # reduced Delta x^2 after evolution equals the block formula
        # M0 Vs M0^T + M1 Ve M1^T in the (x, p) corner
        sys = squeezed_pure(SqueezeSpec(4.0))
        env = squeezed_pure(SqueezeSpec(2.0))
        full = product_state(sys, env)
        t = 1.0
        out = reduce_system(*propagate(*full, full_transition(base_modes, t)))
        m0, m1 = system_rows(base_modes, t)[:2]
        expected = m0 @ sys.cov @ m0.T + m1 @ env.cov @ m1.T
        assert np.allclose(out.cov, expected, rtol=1e-10)

    def test_means_transform_linearly(self):
        st_ = GaussianState(np.array([1.0, 2.0]), 0.5 * np.eye(2))
        T = np.array([[0.0, 1.0], [-1.0, 0.0]])
        mean, _ = propagate(st_.mean, st_.cov, T)
        assert np.allclose(mean, [2.0, -1.0])


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
        with pytest.raises(ValueError, match=r"^negative area radicand -3\.000e\+00$"):
            area_ratio(GaussianState(np.zeros(2), cov))

    def test_hbar_scaling(self):
        st_ = GaussianState(np.zeros(2), np.eye(2))
        assert area_ratio(st_, hbar=2.0) == pytest.approx(1.0, rel=1e-14)


def diags(A, moments=None, m_s=1.0, omega=1.0):
    """:func:`diagnostics_from_area` of the area A, with zero moments
    unless given."""
    if moments is None:
        moments = np.zeros(np.shape(A) + (5,))
    return diagnostics_from_area(A, moments, m_s, omega)


class TestEntropyFunctions:
    def test_pure_state_zero_entropy(self):
        d = diags(1.0)
        assert d.S == 0.0
        assert d.S_approx == 0.0
        assert d.varsigma == 0.0

    def test_area_three_hand_value(self):
        # (A+1)/2 = 2, (A-1)/2 = 1: S = 2 ln 2 - 0 = ln 4
        assert diags(3.0).S == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_large_area_asymptotics(self):
        A = 1e3
        assert diags(A).S == pytest.approx(
            math.log(A) + 1.0 - math.log(2.0), rel=1e-5
        )

    def test_exact_entropy_monotone(self):
        As = np.linspace(1.0, 50.0, 200)
        Ss = [diags(A).S for A in As]
        assert all(b > a for a, b in zip(Ss, Ss[1:]))

    def test_approx_bound(self):
        # ln A underestimates by at most 1 - ln 2, approached as A -> inf
        bound = 1.0 - math.log(2.0)
        for A in (1.0, 1.1, 2.0, 10.0, 1e6):
            d = diags(A)
            gap = d.S - d.S_approx
            assert 0.0 <= gap <= bound + 1e-12

    def test_linear_entropy_and_purity(self):
        assert diags(2.0).varsigma == pytest.approx(0.5, rel=1e-14)
        # the purity Tr rho^2 = 1/A is 1 - varsigma
        assert diags(5.0).varsigma == pytest.approx(0.8, rel=1e-14)

    def test_rejects_area_below_one(self):
        with pytest.raises(FloatingPointError, match=r"^scaled area A = 0\.9 < 1$"):
            diags(0.9)

    def test_large_area_matches_asymptote(self):
        # S = ln(A/2) + 1 + O(1/A^2); the textbook difference of two
        # products cancelled here and read -ln 2 from A = 1e16 on
        for A in (1e8, 1e12, 1e14, 1e16, 1.1e15, 1e100, 1e300):
            assert diags(A).S == pytest.approx(
                math.log(A / 2.0) + 1.0, rel=1e-15
            )
        As = 10.0 ** np.arange(8, 301)
        assert np.allclose(diags(As).S, np.log(As / 2.0) + 1.0, rtol=1e-15)

    def test_small_area_matches_textbook_form(self):
        # the difference of the two products loses nothing at small A
        for A in np.concatenate(([1.001], np.linspace(1.01, 10.0, 90))):
            textbook = 0.5 * (
                (A + 1.0) * math.log(A + 1.0) - (A - 1.0) * math.log(A - 1.0)
            ) - math.log(2.0)
            assert diags(A).S == pytest.approx(textbook, rel=1e-12)

    def test_array_matches_scalar_calls(self):
        As = np.array([1.0, 1.0 - 1e-12, 1.0 + 1e-15, 2.0, 3.0, 1e6, 1e20])
        cols = diags(As)
        for name in ("S", "S_approx", "varsigma"):
            col = getattr(cols, name)
            assert col.shape == As.shape
            assert [float(v) for v in col] == [float(getattr(diags(A), name)) for A in As]
        with pytest.raises(FloatingPointError, match=r"^scaled area A = 0\.5 < 1$"):
            diags(np.array([2.0, 0.5]))

    def test_tolerates_rounding_below_one(self):
        # areas a hair under 1 from floating-point noise are clamped
        d = diags(1.0 - 1e-12)
        assert d.S == 0.0
        assert d.varsigma == 0.0


class TestEnergy:
    def test_round_vacuum(self):
        st_ = moments_of(squeezed_pure(SqueezeSpec(1.0)))
        assert diags(1.0, st_).E == pytest.approx(0.5)

    def test_squeezed_state(self):
        # r = 4: dx2 = 2, dp2 = 1/8
        e = diags(1.0, moments_of(squeezed_pure(SqueezeSpec(4.0)))).E
        assert e == pytest.approx(0.5 * (2.0 + 0.125), rel=1e-14)

    def test_mean_offset_adds_coherent_energy(self):
        st_ = moments_of(GaussianState(np.array([3.0, 0.0]), 0.5 * np.eye(2)))
        m_s, omega = 2.0, 1.5
        base = diags(1.0, moments_of(squeezed_pure(SqueezeSpec(1.0))), m_s, omega).E
        assert diags(1.0, st_, m_s, omega).E == pytest.approx(
            base + 0.5 * m_s * omega**2 * 9.0, rel=1e-14
        )

    def test_mass_and_frequency_scaling(self):
        st_ = moments_of(GaussianState(np.zeros(2), np.diag([1.0, 4.0])))
        assert diags(2.0, st_, 2.0, 3.0).E == pytest.approx(
            0.5 * (2.0 * 9.0 * 1.0 + 4.0 / 2.0), rel=1e-14
        )


class TestDiagnostics:
    def test_consistency_with_scalar_functions(self):
        st_ = GaussianState(np.array([1.0, 0.5]), np.diag([2.0, 1.0]))
        A = area_ratio(st_)
        d = diagnostics_from_area(A, moments_of(st_), m_s=1.0, omega=1.0)
        assert d.A == A == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        # the textbook forms, one scalar at a time
        textbook = 0.5 * (
            (A + 1.0) * math.log(A + 1.0) - (A - 1.0) * math.log(A - 1.0)
        ) - math.log(2.0)
        assert d.S == pytest.approx(textbook, rel=1e-14)
        assert d.S_approx == pytest.approx(math.log(A), rel=1e-15)
        assert d.varsigma == pytest.approx(1.0 - 1.0 / A, rel=1e-15)
        # E = (m_s omega^2 <x^2> + <p^2> / m_s) / 2, means included
        assert d.E == pytest.approx(0.5 * ((2.0 + 1.0) + (1.0 + 0.25)), rel=1e-15)

    def test_from_area_overrides_determinant(self):
        st_ = GaussianState(np.zeros(2), 0.5 * np.eye(2))
        d = diagnostics_from_area(3.0, moments_of(st_), m_s=1.0, omega=1.0)
        assert d.A == 3.0
        assert d.S == pytest.approx(2.0 * math.log(2.0), rel=1e-14)
        # energy still comes from the stored covariance
        assert d.E == pytest.approx(0.5)

    def test_columns_match_scalar_calls(self):
        # one call over a column of states gives, entry by entry, the
        # values of one call per state
        A = np.array([1.0, 1.0 - 1e-12, 1.5, 3.0, 1e9])
        moments = np.array(
            [[0.1 * i, -0.2 * i, 1.0 + i, 0.5 + i, 0.1 * i] for i in range(5)]
        )
        cols = diagnostics_from_area(A, moments, m_s=0.9, omega=1.3)
        for i in range(A.size):
            one = diagnostics_from_area(A[i], moments[i], m_s=0.9, omega=1.3)
            for name in ("A", "S", "S_approx", "varsigma", "E"):
                assert getattr(cols, name)[i] == getattr(one, name)

    def test_column_rejects_area_below_one(self):
        with pytest.raises(FloatingPointError, match=r"^scaled area A = 0\.9 < 1$"):
            diagnostics_from_area(np.array([1.0, 0.9]), np.zeros((2, 5)), 1.0, 1.0)
