import math

import numpy as np
import pytest

from invharm import (
    GaussianState,
    NormalModes,
    SqueezeSpec,
    coeffs_general,
    contract,
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
SCALARS = {"dtilde": 0, "omega_eff_sq": 1, "gamma_eff": 2, "Fy": 3, "Fq": 4}
ENTRIES = {"f1": slice(5, 9), "f2": slice(9, 13)}


def value(c, name, env=ENV):
    """Field ``name`` of the coefficient tuple c, where "f1" and "f2" are
    the diffusion sub-tensors contracted with the covariance of env, as
    the master equation applies them, and "f1_tensor"/"f2_tensor" are the
    sub-tensors as arrays of shape (2, 2) or (2, 2, n)."""
    if name in ("f1", "f2"):
        return contract(env.cov)(*c[ENTRIES[name]])
    if name in ("f1_tensor", "f2_tensor"):
        entries = c[ENTRIES[name[:2]]]
        return np.reshape(entries, (2, 2, *np.shape(entries[0])))
    return c[SCALARS[name]]


class TestContract:
    # a sub-tensor is given as its entries yy, yq, qy, qq

    def test_zero_tensor(self):
        assert contract(ENV.cov)(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_identity_sums_diagonal_variances(self):
        v = np.array([[3.0, 0.7], [0.7, 5.0]])
        assert contract(v)(1.0, 0.0, 0.0, 1.0) == pytest.approx(8.0, rel=1e-15)

    def test_off_diagonal_half_weight(self):
        weigh = contract(np.array([[0.0, 1.5], [1.5, 0.0]]))
        # each off-diagonal entry meets dyq once, as in the exact
        # diffusion K Ve M1^T + M1 Ve K^T: (2 + 2)*1.5
        assert weigh(0.0, 2.0, 2.0, 0.0) == pytest.approx(6.0, rel=1e-15)
        # the sub-tensors are not symmetric: (1 + 3)*1.5, where a
        # contraction that doubled t_yq would give 3.0
        assert weigh(0.0, 1.0, 3.0, 0.0) == pytest.approx(6.0, rel=1e-15)


class TestDecoupledLimit:
    def test_all_coupling_terms_vanish(self):
        modes = NormalModes(omega=1.3, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        at = coeffs_general(modes)
        for t in (0.5, 2.0, 9.0):
            dt_, om2, gam, fy, fq, *entries = at(t)
            assert dt_ == pytest.approx(1.0, abs=1e-12)
            assert om2 == pytest.approx(1.3**2, rel=1e-10)
            assert abs(gam) < 1e-12
            assert fy == 0.0 and fq == 0.0
            assert not any(entries)


class TestShortTimeLimits:
    def test_friction_vanishes_at_zero(self, base_modes):
        assert abs(value(coeffs_general(base_modes)(0.0), "gamma_eff")) < 1e-12

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
            om2 = value(coeffs_general(modes)(1e-6), "omega_eff_sq")
            assert rel_err(om2, bare.omega_bare**2) < 1e-8


class TestDualFormulas:
    FIELDS = ("dtilde", "omega_eff_sq", "gamma_eff", "Fy", "Fq", "f1", "f2")

    def test_base_point(self, base_modes):
        a = coeffs_general(base_modes)(2.0)
        b = coeffs_closed(base_modes, 2.0)
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
            a = coeffs_general(modes)(t)
            if abs(value(a, "dtilde")) <= 1e-3:
                continue
            b = coeffs_closed(modes, t)
            n += 1
            for f in self.FIELDS:
                worst = max(worst, rel_err(value(a, f), value(b, f)))
        assert worst < 1e-9

    def test_closed_rejects_stable_environment(self):
        modes = NormalModes(omega=1.0, lambda_sq=-1.0, theta_c=0.1, m_s=1.0, m_e=1.0)
        with pytest.raises(ValueError, match=r"^closed forms require lambda_sq > 0"):
            coeffs_closed(modes, 1.0)


class TestReferenceDefinitions:
    # every coefficient against its definition on the exact reduced
    # dynamics (tests/reference.py), on each sign of the environment
    # stiffness: the stable and free environments have no closed form
    CONFIGS = {
        "stable": dict(omega=1.0, lambda_sq=-2.0, theta_c=0.3, m_s=0.8, m_e=1.3, hbar=0.7),
        "free": dict(omega=1.2, lambda_sq=0.0, theta_c=-0.2, m_s=1.7, m_e=0.6),
        "unstable": dict(omega=1.0, lambda_sq=2.5, theta_c=0.2, m_s=1.7, m_e=0.6, hbar=0.5),
    }

    @pytest.mark.parametrize("name", CONFIGS)
    def test_float_and_array_times_match_the_reference(self, name):
        modes = NormalModes(**self.CONFIGS[name])
        times = np.linspace(0.05, 12.0, 20).tolist()
        refs = [(t, np.array(coeffs_reference(modes, t))) for t in times]
        refs = [(t, want) for t, want in refs if abs(want[0]) > 1e-3]
        assert len(refs) >= 15, name
        at = coeffs_general(modes)
        cols = np.array(at(np.array([t for t, _ in refs])))
        for i, (t, want) in enumerate(refs):
            for got in (np.array(at(t)), cols[:, i]):
                err = np.abs(got - want)
                # each scalar to its magnitude, each sub-tensor entry to
                # its tensor's largest entry
                scale = np.abs(want)
                for entries in ENTRIES.values():
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
        c = coeffs_general(modes)(4.0)  # lam * t = 8
        assert value(c, "f1", env) / value(c, "f2", env) == pytest.approx(
            2.0, rel=0.01
        )

    def test_growth_rate_twice_instability(self, base_modes):
        env = GaussianState(np.zeros(2), np.diag([0.5, 0.5]))
        ts = np.linspace(2.0, 6.0, 60)
        at = coeffs_general(base_modes)
        f1 = np.array([value(at(t), "f1", env) for t in ts])
        slope = np.polyfit(ts, np.log(np.abs(f1)), 1)[0]
        assert slope == pytest.approx(2.0, rel=0.1)

    def test_momentum_diffusion_positive_mid_window(self, base_modes):
        at = coeffs_general(base_modes)
        for r in (1.0, 4.0, 16.0):
            env = GaussianState(np.zeros(2), np.diag([r / 2.0, 1.0 / (2.0 * r)]))
            for t in np.linspace(2.0, 7.0, 40):
                assert value(at(t), "f1", env) > 0.0

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
        c = coeffs_general(base_modes)(1.5)
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
        at = coeffs_general(modes)
        cols = at(ts)
        ones = [at(float(t)) for t in ts]
        assert [np.shape(e) for e in cols] == [ts.shape] * 13
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
            at = coeffs_general(modes)
            cols = at(t)
            assert [np.shape(e) for e in cols] == [t.shape] * 13
            for i in range(t.size):
                want = at(float(t[i]))
                for name in self.FIELDS:
                    got = value(cols, name, self.ENV0)[..., i]
                    ref = np.asarray(value(want, name, self.ENV0))
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
        assert [type(e) for e in route(base_modes)(2.0)] == [float] * 13

    def test_array_time_scalars_are_the_contracted_tensors(self, base_modes):
        # over an array of times, f1 and f2 are the full contractions of
        # the (2, 2, n) sub-tensors their entries form
        ts = np.linspace(0.0, 12.0, 97)
        c = coeffs_general(base_modes)(ts)
        cov = self.ENV0.cov
        for name in ("f1", "f2"):
            tensor = value(c, name + "_tensor")
            assert tensor.shape == (2, 2, ts.size)
            want = np.einsum("ijn,ij->n", tensor, cov)
            got = value(c, name, self.ENV0)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max(), name
