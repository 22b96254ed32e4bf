import math
import warnings

import numpy as np
import pytest

from invharm import (
    GaussianState,
    NormalModes,
    SqueezeSpec,
    coeffs_general,
    critical_time_derived,
    dtilde,
    find_divergences,
    fit_entropy_line,
    run_exact,
    squeezed_pure,
)
from invharm.analysis import _bisect_crossing

from conftest import BASE
from reference import fit_entropy_log

# a slow stable environment whose determinant roots reach past t = 2**19
LATE_ROOTS = NormalModes(
    omega=0.001, lambda_sq=-9e-6, theta_c=0.785398, m_s=1.0, m_e=1.0
)


class TestCriticalTime:
    def test_derived_base_value(self):
        # -2 ln(pi/64) + ln(1) with omega = lam = 1
        t = critical_time_derived(1.0, 1.0, math.pi / 64)
        assert t == pytest.approx(-2.0 * math.log(math.pi / 64), rel=1e-12)
        assert t == pytest.approx(6.0283, abs=5e-4)

    def test_logarithmic_coupling_dependence(self):
        for lam in (0.5, 1.0, 2.0):
            base = critical_time_derived(1.0, lam, 0.1)
            weaker = critical_time_derived(1.0, lam, 0.1 / math.e**2)
            assert weaker - base == pytest.approx(4.0 / lam, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"^critical time requires lambda > 0$"):
            critical_time_derived(1.0, 0.0, 0.1)
        with pytest.raises(ValueError, match=r"^critical time requires lambda > 0$"):
            critical_time_derived(1.0, -1.0, 0.1)
        with pytest.raises(ValueError, match=r"^critical time requires 0 < \|theta_c\| < 1$"):
            critical_time_derived(1.0, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"^critical time requires 0 < \|theta_c\| < 1$"):
            critical_time_derived(1.0, 1.0, 1.5)
        # omega = 0 would take log(0)
        with pytest.raises(ValueError, match=r"^critical time requires omega > 0$"):
            critical_time_derived(0.0, 1.0, 0.1)


class TestFindDivergences:
    def test_decoupled_no_roots(self):
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
        assert find_divergences(modes, 100.0) == []

    def test_base_first_root(self, base_modes):
        roots = find_divergences(base_modes, 10.0)
        assert len(roots) >= 1
        t1 = roots[0]
        assert abs(dtilde(base_modes)(t1)) < 1e-8
        assert t1 == pytest.approx(7.994, abs=2e-3)
        t_c = critical_time_derived(1.0, 1.0, math.pi / 64)
        assert t1 >= t_c - 0.5

    def test_roots_sorted_and_bracketed(self, base_modes):
        roots = find_divergences(base_modes, 20.0)
        assert roots == sorted(roots)
        assert all(0.0 < r < 20.0 for r in roots)
        dt = dtilde(base_modes)
        for r in roots:
            assert dt(r - 1e-4) * dt(r + 1e-4) < 0

    def test_stable_environment_against_dense_scan(self):
        # strong mixing with a stable environment: the determinant
        # oscillates through zero repeatedly; check the scanning root
        # finder against a brute-force fine grid
        modes = NormalModes(
            omega=1.0, lambda_sq=-16.0, theta_c=math.pi / 4, m_s=1.0, m_e=1.0
        )
        roots = find_divergences(modes, 50.0)
        ts = np.linspace(0.0, 50.0, 200001)
        dt = dtilde(modes)
        vals = np.array([dt(t) for t in ts])
        brute = ts[:-1][np.sign(vals[:-1]) * np.sign(vals[1:]) < 0]
        assert len(roots) == len(brute) > 10
        assert np.abs(np.array(roots) - brute).max() < 5e-4

    def test_stable_environment_weak_mixing_no_roots(self):
        # weak mixing with a stable environment: bounded determinant
        # oscillation that never reaches zero
        modes = NormalModes(
            omega=1.0, lambda_sq=-16.0, theta_c=math.pi / 10, m_s=1.0, m_e=1.0
        )
        assert find_divergences(modes, 50.0) == []

    def test_rejects_nonpositive_horizon(self, base_modes):
        with pytest.raises(ValueError):
            find_divergences(base_modes, 0.0)

    def test_a_long_scan_compares_signs_without_overflow(self):
        # at lambda^2 = 4 and t = 200, Dtilde reaches ~1e173, and the
        # product of two neighbours overflows; the root scan warns of nothing
        modes = NormalModes(omega=1.0, lambda_sq=4.0, theta_c=0.2, m_s=1.0, m_e=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            roots = find_divergences(modes, 200.0)
        early = find_divergences(modes, 20.0)
        assert roots[: len(early)] == pytest.approx(early, abs=1e-9)

    def test_terminates_where_an_ulp_exceeds_the_tolerance(self):
        # past t = 2**19 adjacent floats lie more than 1e-10 apart, so
        # the bisection must stop at adjacent floats
        roots = find_divergences(LATE_ROOTS, 1e6)
        assert roots == sorted(roots)
        assert sum(r > 2.0**19 for r in roots) > 100
        dt = dtilde(LATE_ROOTS)
        for r in roots:
            d = max(1e-10, 4.0 * math.ulp(r))
            assert dt(r - d) * dt(r + d) <= 0.0, r

    @pytest.mark.parametrize("zero, expected", [(1.0, [1.0]), (0.0, [])])
    def test_an_exact_zero_on_the_scan_is_reported_once(
        self, base_modes, monkeypatch, zero, expected
    ):
        # a D-tilde that is exactly 0 at a scan point, negative before it
        # and positive after, is reported there once, with no bisection;
        # a zero at t = 0 is the initial state's, not a root
        import invharm.analysis as analysis

        scans = []

        def linear(modes):
            def at(t):
                if np.ndim(t):
                    scans.append(t)
                return t - zero

            return at

        monkeypatch.setattr(analysis, "dtilde", linear)
        # the scan steps by 1/8 here, so it holds t = 1 exactly
        assert find_divergences(base_modes, 4.0) == expected
        (ts,) = scans
        assert zero in ts


class TestBisectCrossing:
    @pytest.mark.parametrize("a, b", [(0.0, 1.0), (1.0, 0.0)], ids=["up", "down"])
    def test_calls_f_once_per_point_inside_the_bracket(self, a, b):
        # a sign step that is never 0: with tol 0 the bracket narrows to
        # adjacent floats, where the midpoint rounds to an end
        calls = []

        def f(t):
            calls.append(t)
            return -1.0 if (t - 0.3) * (b - a) < 0.0 else 1.0

        lo, hi = _bisect_crossing(f, a, b, 0.0)
        assert math.nextafter(lo, hi) == hi
        assert (lo - 0.3) * (b - a) < 0.0 <= (hi - 0.3) * (b - a)
        assert all(min(a, b) < t < max(a, b) for t in calls)
        assert len(set(calls)) == len(calls)


def weak_coupling_dtilde(omega, lam, theta_c, t):
    """The paper's weak-coupling expansion of the determinant for
    1/lambda << t."""
    return 1.0 + theta_c**2 * math.exp(lam * t) * (
        (omega**2 - lam**2) * math.sin(omega * t)
        + 2.0 * omega * lam * math.cos(omega * t)
    ) / (omega * lam)


def f1_envelope(modes, t):
    """The paper's order-of-magnitude momentum diffusion for small mass
    ratio and weak coupling: it grows as exp(2 lambda t)."""
    return (
        modes.m_s
        * modes.theta_c**2
        * (modes.omega**2 + modes.lambda_sq)
        * math.exp(2.0 * math.sqrt(modes.lambda_sq) * t)
        / (modes.m_e * modes.hbar**2)
    )


class TestApproxD:
    def test_tracks_exact_determinant(self):
        th = 1e-3
        modes = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=th, m_s=1.0, m_e=1.0)
        t_c = critical_time_derived(1.0, 1.0, th)
        dt = dtilde(modes)
        for t in np.linspace(1.0, 0.8 * t_c, 30):
            exact = dt(t)
            approx = weak_coupling_dtilde(1.0, 1.0, th, t)
            assert abs(approx - exact) < 0.2 * max(abs(exact), abs(exact - 1.0), 0.05)


class TestApproxF1:
    def test_order_of_magnitude_band(self, base_modes):
        # envelope estimate: bounds the actual diffusion scalar from
        # above within two decades over the pre-breakdown window
        env = GaussianState(np.zeros(2), np.diag([0.5, 0.5]))
        at = coeffs_general(base_modes, env)
        for t in np.linspace(3.0, 7.0, 9):
            actual = at(t)[5]  # f1
            ratio = actual / f1_envelope(base_modes, t)
            assert 0.01 < ratio < 10.0


class TestEntropyFits:
    def test_line_fit_exact_recovery(self):
        times = np.linspace(0.0, 20.0, 2001)
        S = 0.7 * times - 1.3
        slope, s0 = fit_entropy_line(times, S, (5.0, 15.0), 1.0)
        assert slope == pytest.approx(0.7, rel=1e-12)
        assert s0 == pytest.approx(-1.3, rel=1e-10)

    def test_line_fit_ignores_periodic_modulation(self):
        times = np.linspace(0.0, 20.0, 4001)
        # modulation at twice the mode frequency, period pi/omega
        S = 0.7 * times - 1.3 + 0.2 * np.sin(2.0 * times)
        slope, s0 = fit_entropy_line(times, S, (5.0, 15.0), 1.0)
        # whole-period trimming keeps the residual modulation bias an
        # order of magnitude below the modulation amplitude
        assert slope == pytest.approx(0.7, abs=0.02)
        assert s0 == pytest.approx(-1.3, abs=0.25)

    def test_line_fit_window_checks(self):
        times = np.linspace(0.0, 20.0, 201)
        with pytest.raises(ValueError, match=r"^window extends beyond the trajectory$"):
            fit_entropy_line(times, times, (5.0, 25.0), 1.0)
        with pytest.raises(
            ValueError, match=r"^window spans 0 modulation periods; need >= 3$"
        ):
            fit_entropy_line(times, times, (5.0, 7.0), 1.0)

    def test_line_fit_rejects_an_entropy_of_another_shape(self):
        times = np.linspace(0.0, 20.0, 201)
        with pytest.raises(ValueError, match=r"^S has shape \(200,\), times \(201,\)$"):
            fit_entropy_line(times, times[1:], (5.0, 15.0), 1.0)
        # a scan's (V, n) entropy is fitted one value's row at a time
        with pytest.raises(ValueError, match=r"^S has shape \(2, 201\), times \(201,\)$"):
            fit_entropy_line(times, np.stack((times, times)), (5.0, 15.0), 1.0)

    def test_log_fit_exact_recovery(self):
        times = np.linspace(1.0, 100.0, 2001)
        S = 2.0 + 0.5 * np.log(times)
        c0, c1 = fit_entropy_log(times, S, (10.0, 100.0))
        assert c0 == pytest.approx(2.0, rel=1e-10)
        assert c1 == pytest.approx(0.5, rel=1e-10)

    def test_log_fit_rejects_zero_start(self):
        times = np.linspace(0.0, 10.0, 101)
        with pytest.raises(ValueError, match=r"^log fit window must start at t > 0$"):
            fit_entropy_log(times, times, (0.0, 10.0))

    def test_unstable_entropy_is_not_logarithmic(self, base_modes):
        # a linearly growing entropy fits a log model poorly
        grid = np.linspace(0.0, 16.0, 801)
        traj = run_exact(
            base_modes,
            squeezed_pure(SqueezeSpec(4.0)),
            squeezed_pure(SqueezeSpec(2.0)),
            grid,
        )
        c0, c1 = fit_entropy_log(traj.times, traj.diags.S, (5.0, 15.0))
        times = traj.times
        mask = (times >= 5.0) & (times <= 15.0)
        S = traj.diags.S[mask]
        resid = S - (c0 + c1 * np.log(times[mask]))
        assert np.sqrt(np.mean(resid**2)) / np.sqrt(np.mean(S**2)) > 0.05

    def test_base_run_slope_is_instability_rate(self, base_modes):
        grid = np.linspace(0.0, 16.0, 801)
        traj = run_exact(
            base_modes,
            squeezed_pure(SqueezeSpec(4.0)),
            squeezed_pure(SqueezeSpec(2.0)),
            grid,
        )
        slope, s0 = fit_entropy_line(
            traj.times, traj.diags.S, (5.0, 15.0), base_modes.omega
        )
        assert slope == pytest.approx(1.0, rel=0.1)
        assert s0 < 0.0  # linear growth postponed, not instantaneous


class TestFreeParticleOnset:
    def test_breakdown_onset_superlogarithmic_in_coupling(self):
        # for a free-particle environment the first determinant root
        # moves out much faster than the exponential-environment
        # logarithm: quartering theta pushes it out by more than 4x
        first = {}
        for th, horizon in ((math.pi / 16, 80.0), (math.pi / 64, 900.0)):
            modes = NormalModes(
                omega=1.0, lambda_sq=0.0, theta_c=th, m_s=1.0, m_e=1.0
            )
            roots = find_divergences(modes, horizon)
            assert roots, f"no root found below {horizon} for theta={th}"
            first[th] = roots[0]
        assert first[math.pi / 64] / first[math.pi / 16] > 4.0
