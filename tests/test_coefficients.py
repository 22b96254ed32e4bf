import math

import numpy as np
import pytest

from invharm import (
    GaussianState,
    NormalModes,
    SqueezeSpec,
    coeffs_general,
    dtilde,
    find_divergences,
    run_me,
    squeezed_pure,
)

from conftest import rel_err
from reference import coeffs_closed, coeffs_reference


ENV = GaussianState(np.zeros(2), np.array([[1.0, 0.1], [0.1, 0.25]]))

# the place of each scalar coefficient in the tuple of a coefficient
# function, and the places of the entries of each diffusion sub-tensor
SCALARS = {
    "dtilde": 0, "omega_eff_sq": 1, "gamma_eff": 2, "Fy": 3, "Fq": 4, "f1": 5, "f2": 6,
}
ENTRIES = {"f1": slice(7, 11), "f2": slice(11, 15)}


def value(c, name):
    """Field ``name`` of the coefficient tuple c, where "f1" and "f2" are
    the diffusion sub-tensors contracted with the covariance of the
    environment the function was built with, and "f1_tensor"/"f2_tensor"
    are the sub-tensors as arrays of shape (2, 2) or (2, 2, n)."""
    if name in ("f1_tensor", "f2_tensor"):
        entries = c[ENTRIES[name[:2]]]
        return np.reshape(entries, (2, 2, *np.shape(entries[0])))
    return c[SCALARS[name]]


def contracted(c, v_yy, v_yq, v_qq):
    """f1 and f2 of the coefficient tuple c, contracted from its
    sub-tensor entries with the covariance entries v_yy, v_yq, v_qq in
    the evaluator's operation order, t_yy V_yy + (t_yq + t_qy) V_yq +
    t_qq V_qq."""
    return tuple(
        yy * v_yy + (yq + qy) * v_yq + qq * v_qq
        for yy, yq, qy, qq in (c[ENTRIES["f1"]], c[ENTRIES["f2"]])
    )


class TestContract:
    # a rotated squeezed environment whose two off-diagonal covariance
    # entries differ in the last bit (TestSharedStateEntries asserts it)
    ENV0 = squeezed_pure(SqueezeSpec(3.0, 0.65))
    (V_YY, V_YQ), (V_QY, V_QQ) = ENV0.cov.tolist()
    SYMMETRISED = (V_YY, 0.5 * (V_YQ + V_QY), V_QQ)

    def test_float_times_contract_the_symmetrised_covariance(self, base_modes):
        at = coeffs_general(base_modes, self.ENV0)
        for t in np.linspace(0.0, 12.0, 41).tolist():
            c = at(t)
            assert c[5:7] == contracted(c, *self.SYMMETRISED), t

    def test_array_times_contract_the_symmetrised_covariance(self, base_modes):
        ts = np.linspace(0.0, 12.0, 401)
        c = coeffs_general(base_modes, self.ENV0)(ts)
        for got, want in zip(c[5:7], contracted(c, *self.SYMMETRISED)):
            assert np.array_equal(got, want)
        # the off-diagonal entry as stored, unsymmetrised, gives other bits
        stored = contracted(c, self.V_YY, self.V_YQ, self.V_QQ)
        assert any(not np.array_equal(a, b) for a, b in zip(c[5:7], stored))

    def test_diagonal_variances_weight_the_diagonal_entries(self, base_modes):
        # with a diagonal covariance diag(3, 5), each contraction is
        # 3 t_yy + 5 t_qq: the identity tensor would give 8.0
        env = GaussianState(np.zeros(2), np.diag([3.0, 5.0]))
        c = coeffs_general(base_modes, env)(2.0)
        for f, entries in zip(c[5:7], ENTRIES.values()):
            yy, _, _, qq = c[entries]
            assert f == yy * 3.0 + qq * 5.0

    def test_each_off_diagonal_entry_meets_v_yq_once(self, base_modes):
        # as in the exact diffusion K Ve M1^T + M1 Ve K^T: raising V_yq
        # and V_qy by 1.5 adds (t_yq + t_qy) * 1.5, where a contraction
        # that doubled t_yq would add 3 t_yq; the sub-tensors are not
        # symmetric, so the two differ
        at_zero = coeffs_general(
            base_modes, GaussianState(np.zeros(2), np.diag([2.0, 2.0]))
        )
        at_off = coeffs_general(
            base_modes, GaussianState(np.zeros(2), np.array([[2.0, 1.5], [1.5, 2.0]]))
        )
        for t in (1.0, 2.5, 4.0):
            c = at_zero(t)
            for k, entries in enumerate(ENTRIES.values()):
                _, yq, qy, _ = c[entries]
                step = at_off(t)[5 + k] - c[5 + k]
                assert step == pytest.approx((yq + qy) * 1.5, rel=1e-12), (t, k)
                assert step != pytest.approx(3.0 * yq, rel=1e-3), (t, k)

    def test_zero_tensor(self):
        # decoupled modes have zero sub-tensors, which contract to zero
        # against a full covariance, at float times and over an array
        modes = NormalModes(omega=1.3, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        at = coeffs_general(modes, self.ENV0)
        for t in (0.5, 2.0, 9.0):
            c = at(t)
            assert not any(c[7:])
            assert c[5:7] == (0.0, 0.0)
        c = at(np.linspace(0.0, 9.0, 31))
        assert not np.any(c[7:])
        assert not np.any(c[5]) and not np.any(c[6])


class TestDecoupledLimit:
    def test_all_coupling_terms_vanish(self):
        modes = NormalModes(omega=1.3, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        at = coeffs_general(modes, ENV)
        for t in (0.5, 2.0, 9.0):
            dt_, om2, gam, fy, fq, _, _, *entries = at(t)
            assert dt_ == pytest.approx(1.0, abs=1e-12)
            assert om2 == pytest.approx(1.3**2, rel=1e-10)
            assert abs(gam) < 1e-12
            assert fy == 0.0 and fq == 0.0
            assert not any(entries)


class TestShortTimeLimits:
    def test_friction_vanishes_at_zero(self, base_modes):
        assert abs(value(coeffs_general(base_modes, ENV)(0.0), "gamma_eff")) < 1e-12

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
            om2 = value(coeffs_general(modes, ENV)(1e-6), "omega_eff_sq")
            assert rel_err(om2, bare.omega_bare**2) < 1e-8


class TestDualFormulas:
    FIELDS = ("dtilde", "omega_eff_sq", "gamma_eff", "Fy", "Fq", "f1", "f2")

    def test_base_point(self, base_modes):
        a = coeffs_general(base_modes, ENV)(2.0)
        b = coeffs_closed(base_modes, ENV, 2.0)
        for f in self.FIELDS:
            assert rel_err(value(a, f), value(b, f)) < 1e-10, f
        for f in ("f1_tensor", "f2_tensor"):
            ta, tb = value(a, f), value(b, f)
            assert np.abs(ta - tb).max() < 1e-10 * max(1.0, np.abs(ta).max())

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
            a = coeffs_general(modes, ENV)(t)
            if abs(value(a, "dtilde")) <= 1e-3:
                continue
            b = coeffs_closed(modes, ENV, t)
            n += 1
            for f in self.FIELDS:
                worst = max(worst, rel_err(value(a, f), value(b, f)))
        assert worst < 1e-9

    def test_closed_rejects_stable_environment(self):
        modes = NormalModes(omega=1.0, lambda_sq=-1.0, theta_c=0.1, m_s=1.0, m_e=1.0)
        with pytest.raises(ValueError, match=r"^closed forms require lambda_sq > 0"):
            coeffs_closed(modes, ENV, 1.0)


class TestReferenceDefinitions:
    # every coefficient against its definition on the exact reduced
    # dynamics (tests/reference.py), on each sign of the environment
    # stiffness: the stable and free environments have no closed form.
    # A rotated environment: every covariance entry reaches f1 and f2
    ENV0 = squeezed_pure(SqueezeSpec(2.0, 0.3))
    CONFIGS = {
        "stable": dict(omega=1.0, lambda_sq=-2.0, theta_c=0.3, m_s=0.8, m_e=1.3, hbar=0.7),
        "free": dict(omega=1.2, lambda_sq=0.0, theta_c=-0.2, m_s=1.7, m_e=0.6),
        "unstable": dict(omega=1.0, lambda_sq=2.5, theta_c=0.2, m_s=1.7, m_e=0.6, hbar=0.5),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_float_and_array_times_match_the_reference(self, name):
        modes = NormalModes(**self.CONFIGS[name])
        times = np.linspace(0.05, 12.0, 20).tolist()
        refs = [(t, np.array(coeffs_reference(modes, self.ENV0, t))) for t in times]
        refs = [(t, want) for t, want in refs if abs(want[0]) > 1e-3]
        assert len(refs) >= 15, name
        at = coeffs_general(modes, self.ENV0)
        cols = np.array(at(np.array([t for t, _ in refs])))
        abs_cov = np.abs(self.ENV0.cov)
        for i, (t, want) in enumerate(refs):
            for got in (np.array(at(t)), cols[:, i]):
                err = np.abs(got - want)
                # each scalar to its magnitude, f1 and f2 to the
                # contraction of their tensor's magnitudes, each
                # sub-tensor entry to its tensor's largest entry
                scale = np.abs(want)
                for k, entries in enumerate(ENTRIES.values()):
                    scale[5 + k] = np.sum(scale[entries].reshape(2, 2) * abs_cov)
                    scale[entries] = scale[entries].max()
                assert np.all(err <= 1e-12 * scale), (name, t, (err / scale).max())


class TestDiffusionStructure:
    def test_scalar_ratio_approaches_instability_rate(self):
        # at long times both diffusion scalars grow on the same envelope
        # and their ratio tends to the instability rate
        modes = NormalModes(
            omega=1.0, lambda_sq=4.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0
        )
        env = GaussianState(np.zeros(2), np.diag([0.5, 0.5]))
        c = coeffs_general(modes, env)(4.0)  # lam * t = 8
        assert value(c, "f1") / value(c, "f2") == pytest.approx(
            2.0, rel=0.01
        )

    def test_growth_rate_twice_instability(self, base_modes):
        env = GaussianState(np.zeros(2), np.diag([0.5, 0.5]))
        ts = np.linspace(2.0, 6.0, 60)
        at = coeffs_general(base_modes, env)
        f1 = np.array([value(at(t), "f1") for t in ts])
        slope = np.polyfit(ts, np.log(np.abs(f1)), 1)[0]
        assert slope == pytest.approx(2.0, rel=0.1)

    def test_momentum_diffusion_positive_mid_window(self, base_modes):
        for r in (1.0, 4.0, 16.0):
            env = GaussianState(np.zeros(2), np.diag([r / 2.0, 1.0 / (2.0 * r)]))
            at = coeffs_general(base_modes, env)
            for t in np.linspace(2.0, 7.0, 40):
                assert value(at(t), "f1") > 0.0

    def test_force_couples_to_environment_means(self, base_modes, monkeypatch):
        # the master equation weights the force couplings with the
        # environment's initial means: at a state at rest at the origin
        # the force is the whole time derivative of mean_p
        import invharm.evolution as evolution

        real = evolution.solve_ivp
        rhs = []

        def capture(fun, *args, **kwargs):
            rhs.append(fun)
            return real(fun, *args, **kwargs)

        monkeypatch.setattr(evolution, "solve_ivp", capture)
        c = coeffs_general(base_modes, ENV)(1.5)
        rest = np.zeros(5)
        for mean in ((2.0, -3.0), (0.0, 0.0)):
            env = GaussianState(np.array(mean), np.diag([0.5, 0.5]))
            run_me(base_modes, ENV, env, np.linspace(0.0, 0.5, 3))
        displaced, zero_mean = (f(1.5, rest)[1] for f in rhs)
        fy, fq = value(c, "Fy"), value(c, "Fq")
        assert displaced == pytest.approx(2.0 * fy - 3.0 * fq, rel=1e-14)
        assert zero_mean == 0.0


class TestArrayTimes:
    def test_matches_scalar_calls_before_first_root(self):
        # every column holds to 1e-12 of the largest magnitude it
        # reaches; the grid stops short of the first root, where the
        # columns diverge
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=0.9, m_e=1.6
        )
        ts = np.linspace(0.0, 0.95 * find_divergences(modes, 16.0)[0], 151)
        at = coeffs_general(modes, ENV)
        cols = at(ts)
        ones = [at(float(t)) for t in ts]
        assert [np.shape(e) for e in cols] == [ts.shape] * 15
        for name in (
            "dtilde",
            "omega_eff_sq",
            "gamma_eff",
            "Fy",
            "Fq",
            "f1",
            "f2",
            "f1_tensor",
            "f2_tensor",
        ):
            got = value(cols, name)
            want = np.stack([value(c, name) for c in ones], axis=-1)
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-12 * scale, name


class TestArrayModes:
    # a rotated environment: every covariance entry reaches f1 and f2
    ENV0 = squeezed_pure(SqueezeSpec(2.0, 0.3))
    FIELDS = (
        "dtilde",
        "omega_eff_sq",
        "gamma_eff",
        "Fy",
        "Fq",
        "f1",
        "f2",
        "f1_tensor",
        "f2_tensor",
    )

    def test_general_matches_float_calls(self):
        # float modes of a stable, a free and an unstable environment, each
        # over an array of times held to the float call at each time, off
        # the times where |Dtilde| is small; both go through one per-run
        # coefficient function, the one the master equation calls
        t_all = np.random.default_rng(8).uniform(0.0, 6.0, 120)
        for lambda_sq in (-2.3, 0.0, 1.7):
            modes = NormalModes(
                omega=1.3, lambda_sq=lambda_sq, theta_c=-0.35, m_s=0.7, m_e=1.6, hbar=0.8
            )
            t = t_all[np.abs(dtilde(modes)(t_all)) > 1e-3]
            assert t.size > 60, lambda_sq
            at = coeffs_general(modes, self.ENV0)
            cols = at(t)
            assert [np.shape(e) for e in cols] == [t.shape] * 15
            for i in range(t.size):
                want = at(float(t[i]))
                for name in self.FIELDS:
                    got = value(cols, name)[..., i]
                    ref = np.asarray(value(want, name))
                    scale = np.maximum(np.abs(ref), 1.0)
                    assert np.all(np.abs(got - ref) <= 1e-12 * scale), (
                        lambda_sq, name, i
                    )


class TestFloatContract:
    # a rotated environment: every covariance entry reaches f1 and f2
    ENV0 = squeezed_pure(SqueezeSpec(2.0, 0.3))
    ROUTES = (coeffs_general,)

    @pytest.mark.parametrize("route", ROUTES)
    def test_scalar_time_gives_python_floats(self, base_modes, route):
        assert [type(e) for e in route(base_modes, self.ENV0)(2.0)] == [float] * 15

    def test_array_time_scalars_are_the_contracted_tensors(self, base_modes):
        # over an array of times, f1 and f2 are the full contractions of
        # the (2, 2, n) sub-tensors their entries form
        ts = np.linspace(0.0, 12.0, 97)
        c = coeffs_general(base_modes, self.ENV0)(ts)
        cov = self.ENV0.cov
        for name in ("f1", "f2"):
            tensor = value(c, name + "_tensor")
            assert tensor.shape == (2, 2, ts.size)
            want = np.einsum("ijn,ij->n", tensor, cov)
            got = value(c, name)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name
