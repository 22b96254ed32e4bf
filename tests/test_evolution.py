import math

import numpy as np
import pytest

from invharm import (
    GridMismatch,
    IntegratorOptions,
    StepFailure,
    NormalModes,
    SqueezeSpec,
    Trajectory,
    compare_trajectories,
    find_divergences,
    energy,
    entropy_exact,
    run_exact,
    run_me,
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

SYS0 = squeezed_pure(SqueezeSpec(4.0))
ENV0 = squeezed_pure(SqueezeSpec(2.0))  # variances 1 and 0.25


def grid_to(t_max, n=401):
    return np.linspace(0.0, t_max, n)


class TestIntegratorOptions:
    def test_rejects_bad_tolerances(self):
        with pytest.raises(ValueError):
            IntegratorOptions(rel_tol=0.0)
        with pytest.raises(ValueError):
            IntegratorOptions(abs_tol=-1.0)
        for guard in (0.0, -0.5):
            with pytest.raises(ValueError, match="divergence_guard"):
                IntegratorOptions(divergence_guard=guard)


class TestDecoupledLimit:
    MODES = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)

    def test_exact_entropy_identically_zero(self):
        traj = run_exact(self.MODES, SYS0, ENV0, grid_to(12.0))
        assert np.abs(traj.diags.S).max() < 1e-9

    def test_exact_energy_conserved(self):
        traj = run_exact(self.MODES, SYS0, ENV0, grid_to(12.0))
        E = traj.diags.E
        assert np.abs(E - E[0]).max() < 1e-10 * max(1.0, abs(E[0]))

    def test_me_reduces_to_bare_rotation(self):
        grid = grid_to(6.0, 121)
        traj = run_me(self.MODES, SYS0, ENV0, grid)
        w = self.MODES.omega
        for i, t in enumerate(grid):
            c, s = math.cos(w * t), math.sin(w * t) / w
            dx2 = 2.0 * c * c + 0.125 * s * s
            dp2 = 2.0 * w * w * s * s + 0.125 * c * c
            assert traj.moments[i, 2] == pytest.approx(dx2, abs=1e-9)
            assert traj.moments[i, 3] == pytest.approx(dp2, abs=1e-9)


class TestOracleAgreement:
    def test_me_matches_exact_before_breakdown(self, base_modes):
        # master-equation integration against the zero-stepping-error
        # propagator on [0, 7]: well inside the first breakdown (~7.99)
        grid = grid_to(7.0, 201)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        me = run_me(base_modes, SYS0, ENV0, grid)
        cmp_ = compare_trajectories(exact, me)
        assert cmp_.worst_rel < 1e-6
        assert cmp_.bridged_excluded == 0

    def test_force_path_with_environment_mean(self, base_modes):
        # a displaced environment drives the system means through F
        env0 = squeezed_pure(SqueezeSpec(2.0), mean=(1.5, -0.5))
        grid = grid_to(6.0, 151)
        exact = run_exact(base_modes, SYS0, env0, grid)
        me = run_me(base_modes, SYS0, env0, grid)
        assert np.abs(exact.moments[-1, :2]).max() > 0.1  # actually driven
        cmp_ = compare_trajectories(exact, me)
        assert cmp_.max_rel["mean_x"] < 1e-6
        assert cmp_.max_rel["mean_p"] < 1e-6

    @pytest.mark.parametrize(
        "m_s, env_angle", [(0.9, 0.0), (1.0, 0.3)], ids=["m_s", "env_angle"]
    )
    def test_me_matches_exact_off_unit_mass_and_rotated_env(self, m_s, env_angle):
        # the f2 diffusion and the y-q covariance weight only show when
        # m_s != 1 or the environment squeezing is rotated
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=m_s, m_e=1.0
        )
        env0 = squeezed_pure(SqueezeSpec(2.0, env_angle))
        grid = grid_to(0.9 * find_divergences(modes, 16.0)[0], 201)
        assert (env0.cov[0, 1] != 0.0) == (env_angle != 0.0)
        exact = run_exact(modes, SYS0, env0, grid)
        me = run_me(modes, SYS0, env0, grid)
        assert compare_trajectories(exact, me).worst_rel < 1e-6

    def test_system_mean_is_propagated(self, base_modes):
        grid = grid_to(6.0, 151)
        sys0 = squeezed_pure(SqueezeSpec(4.0), mean=(1.0, -0.5))
        exact = run_exact(base_modes, sys0, ENV0, grid)
        me = run_me(base_modes, sys0, ENV0, grid)
        assert tuple(me.moments[0, :2]) == (1.0, -0.5)
        assert compare_trajectories(exact, me).worst_rel < 1e-6


class TestFullStateReference:
    def test_run_exact_matches_4x4_propagation(self):
        # run_exact builds the reduced state from the system rows
        # [M_0 | M_1] alone; the reference pushes the whole two-mode state
        # through the 4x4 transition matrix and reduces afterwards
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=0.9, m_e=1.6
        )
        sys0 = squeezed_pure(SqueezeSpec(4.0, 0.2), mean=(0.5, -0.2))
        env0 = squeezed_pure(SqueezeSpec(2.0, 0.3), mean=(0.1, 0.3))
        grid = grid_to(12.0, 241)
        assert find_divergences(modes, 12.0)[0] < 10.0
        traj = run_exact(modes, sys0, env0, grid)
        full0 = product_state(sys0, env0)
        ref = np.empty_like(traj.moments)
        for i, t in enumerate(grid):
            red = reduce_system(propagate(full0, full_transition(modes, t)))
            ref[i] = (
                red.mean[0],
                red.mean[1],
                red.cov[0, 0],
                red.cov[1, 1],
                red.cov[0, 1],
            )
        scale = np.abs(ref).max(axis=0)
        assert np.all(np.abs(traj.moments - ref) <= 1e-12 * scale)

    def test_diagnostic_columns_match_reference(self):
        # areas against the determinant of the 4x4-propagated reduced
        # covariance, held to that determinant's own rounding scale;
        # entropies and energies against one scalar call per time
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=0.9, m_e=1.6
        )
        sys0 = squeezed_pure(SqueezeSpec(4.0, 0.2), mean=(0.5, -0.2))
        env0 = squeezed_pure(SqueezeSpec(2.0, 0.3), mean=(0.1, 0.3))
        grid = grid_to(12.0, 241)
        assert len(find_divergences(modes, 12.0)) >= 2
        traj = run_exact(modes, sys0, env0, grid)
        full0 = product_state(sys0, env0)
        reds = [reduce_system(propagate(full0, full_transition(modes, t))) for t in grid]
        A = traj.diags.A
        A_ref = np.array([area_ratio(r) for r in reds])
        det_scale = np.array(
            [abs(r.cov[0, 0] * r.cov[1, 1]) + r.cov[0, 1] ** 2 for r in reds]
        ) / 0.25
        assert np.all(np.abs(A**2 - A_ref**2) <= 1e-13 * det_scale)
        assert A.max() > 10.0  # the run has left the pure state far behind
        assert np.array_equal(traj.diags.S, [entropy_exact(a) for a in A])
        E_ref = np.array([energy(moments_of(r), modes.m_s, modes.omega) for r in reds])
        assert np.abs(traj.diags.E - E_ref).max() <= 1e-12 * np.abs(E_ref).max()


class TestSymmetries:
    def test_mixing_angle_sign_irrelevant_for_zero_means(self, base_modes):
        flipped = NormalModes(
            omega=base_modes.omega,
            lambda_sq=base_modes.lambda_sq,
            theta_c=-base_modes.theta_c,
            m_s=base_modes.m_s,
            m_e=base_modes.m_e,
        )
        grid = grid_to(10.0, 101)
        a = run_exact(base_modes, SYS0, ENV0, grid)
        b = run_exact(flipped, SYS0, ENV0, grid)
        scale = np.abs(a.moments).max()
        assert np.abs(a.moments - b.moments).max() < 1e-12 * scale
        assert np.abs(a.diags.S - b.diags.S).max() < 1e-12

    def test_exact_grid_independence(self, base_modes):
        # each exact sample is evaluated independently, so refining the
        # grid does not move shared points
        coarse = run_exact(
            base_modes, SYS0, ENV0, np.linspace(0, 8, 5)
        )
        fine = run_exact(
            base_modes, SYS0, ENV0, np.linspace(0, 8, 9)
        )
        assert np.array_equal(coarse.moments, fine.moments[::2])

    def test_global_purity_conserved(self, base_modes):
        # product of symplectic eigenvalue areas of the full two-mode
        # state, via singular values of T C0 (C0 C0^T = initial cov)
        sys0 = squeezed_pure(SqueezeSpec(4.0))
        env0 = squeezed_pure(SqueezeSpec(2.0))
        full0 = product_state(sys0, env0)
        C0 = np.linalg.cholesky(full0.cov)
        for t in np.linspace(0.0, 8.0, 17):
            sv = np.linalg.svd(full_transition(base_modes, t) @ C0, compute_uv=False)
            # determinant of the evolved covariance = prod sv^2 = (hbar/2)^4
            # for a pure state; equivalent to global purity staying 1
            assert abs(np.prod(sv**2) - 0.0625) < 1e-9 * 0.0625


class TestBridging:
    # a wide guard makes the blocked window span several grid points, so
    # the bridging bookkeeping is actually exercised; the default guard
    # window (|Dtilde| < 1e-3) is narrower than typical grid spacings
    OPTS = IntegratorOptions(divergence_guard=0.2)

    def test_bridged_window_bookkeeping(self, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid, opts=self.OPTS)
        assert me.bridged.any()
        bridges = me.meta["bridges"]
        assert len(bridges) >= 1
        a, b = bridges[0]
        assert me.meta["first_bridge_time"] == a
        assert 7.5 < a < b < 8.5  # first breakdown near t = 7.99
        inside = (grid > a) & (grid <= b)
        assert np.array_equal(me.bridged, inside)

    def test_bridged_samples_match_exact(self, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid, opts=self.OPTS)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        sel = me.bridged
        assert sel.sum() >= 2
        dev = np.abs(me.moments[sel] - exact.moments[sel])
        assert dev.max() < 1e-9 * max(1.0, np.abs(exact.moments[sel]).max())

    def test_comparison_excludes_bridged(self, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid, opts=self.OPTS)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        cmp_ = compare_trajectories(exact, me)
        assert cmp_.bridged_excluded == int(me.bridged.sum())

    def test_resumes_from_exact_state_after_bridge(self, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid, opts=self.OPTS)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        b = me.meta["bridges"][0][1]
        after = (grid > b) & (grid < b + 0.5)
        dev = np.abs(me.moments[after] - exact.moments[after])
        scale = np.abs(exact.moments[after]).max()
        # shortly after the restart the ME still tracks the exact path;
        # the near-singular coefficients amplify error, so the tolerance
        # here is looser than the pre-breakdown oracle bound
        assert dev.max() < 1e-4 * scale

    def test_default_guard_matches_exact_through_breakdown(self, base_modes):
        # with the default (narrow) guard nothing lands in the window;
        # the integrator crosses the ill-conditioned region and stays
        # within the conditioning-limited bound
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        cmp_ = compare_trajectories(exact, me)
        assert cmp_.worst_rel < 1e-3
        pre = grid <= 7.0
        dev = np.abs(me.moments[pre] - exact.moments[pre])
        assert dev.max() < 1e-6 * max(1.0, np.abs(exact.moments[pre]).max())


class TestSolverHook:
    # run_me reaches the integrator through the module global
    # invharm.evolution.solve_ivp, the name a profiler patches to count
    # segments and right-hand-side evaluations
    def record_spans(self, monkeypatch):
        import invharm.evolution as evolution

        real = evolution.solve_ivp
        spans = []

        def counting(fun, t_span, *args, **kwargs):
            spans.append(tuple(t_span))
            return real(fun, t_span, *args, **kwargs)

        monkeypatch.setattr(evolution, "solve_ivp", counting)
        return spans

    def test_one_call_without_a_root(self, base_modes, monkeypatch):
        spans = self.record_spans(monkeypatch)
        run_me(base_modes, SYS0, ENV0, grid_to(6.0, 61))
        assert spans == [(0.0, 6.0)]

    def test_one_call_per_unblocked_segment(self, base_modes, monkeypatch):
        spans = self.record_spans(monkeypatch)
        me = run_me(
            base_modes,
            SYS0,
            ENV0,
            grid_to(10.0, 501),
            opts=TestBridging.OPTS,
        )
        assert len(find_divergences(base_modes, 10.0)) == 1
        ((a, b),) = me.meta["bridges"]
        assert spans == [(0.0, a), (b, 10.0)]

    def test_each_rhs_evaluation_reads_env0(self, base_modes, monkeypatch):
        # every right-hand-side evaluation makes one call of the module
        # global invharm.evolution.coeffs_general, which a profiler
        # patches to count them, and hands it the run's env0
        import invharm.evolution as evolution

        real_coeffs, real_solve = evolution.coeffs_general, evolution.solve_ivp
        envs, nfev = [], []

        def counting_coeffs(modes, env0, t, guard):
            envs.append(env0)
            return real_coeffs(modes, env0, t, guard=guard)

        def counting_solve(*args, **kwargs):
            sol = real_solve(*args, **kwargs)
            nfev.append(sol.nfev)
            return sol

        monkeypatch.setattr(evolution, "coeffs_general", counting_coeffs)
        monkeypatch.setattr(evolution, "solve_ivp", counting_solve)
        env0 = squeezed_pure(SqueezeSpec(2.0, 0.3), mean=(0.3, -0.1))
        run_me(base_modes, SYS0, env0, grid_to(10.0, 501), opts=TestBridging.OPTS)
        assert len(nfev) == 2
        assert len(envs) == sum(nfev) > 0
        assert all(e is env0 for e in envs)


class TestFreeParticleEnvironment:
    MODES = NormalModes(
        omega=1.0, lambda_sq=0.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0
    )

    def test_entropy_grows_sublinearly(self):
        grid = np.linspace(0.0, 100.0, 1001)
        vacuum = squeezed_pure(SqueezeSpec(1.0))
        traj = run_exact(self.MODES, vacuum, vacuum, grid)
        S = traj.diags.S
        assert S[-1] > S[200] > 0.0
        # secant slope decreases: growth slower than linear
        mid = 0.5 * (S[200] + S[-1])
        s_early = (S[500] - S[200]) / (grid[500] - grid[200])
        s_late = (S[-1] - S[500]) / (grid[-1] - grid[500])
        assert s_late < s_early

    def test_environment_position_spread_ballistic(self):
        # free env mode: its position variance grows ~ t^2, visible in
        # the full-state covariance
        sys0 = squeezed_pure(SqueezeSpec(1.0))
        env0 = squeezed_pure(SqueezeSpec(1.0))
        full0 = product_state(sys0, env0)
        v = []
        for t in (50.0, 100.0):
            out = propagate(full0, full_transition(self.MODES, t))
            v.append(out.cov[2, 2])
        assert v[1] / v[0] == pytest.approx(4.0, rel=0.05)


class TestSegmentFailure:
    def test_arithmetic_error_names_the_segment(self, base_modes, monkeypatch):
        # an arithmetic error inside the right-hand side surfaces as a
        # StepFailure naming the segment being integrated
        import invharm.evolution as evolution

        real = evolution.coeffs_general

        def failing(modes, env0, t, guard):
            if t > 3.0:
                raise ZeroDivisionError("float division by zero")
            return real(modes, env0, t, guard=guard)

        monkeypatch.setattr(evolution, "coeffs_general", failing)
        with pytest.raises(StepFailure, match=r"\[0\.0, 6\.0\].*ZeroDivisionError"):
            run_me(base_modes, SYS0, ENV0, grid_to(6.0, 61))


class TestValidationAndComparison:
    def test_me_requires_grid_from_zero(self, base_modes):
        with pytest.raises(ValueError):
            run_me(base_modes, SYS0, ENV0, np.linspace(1.0, 2.0, 10))
        with pytest.raises(ValueError):
            run_me(base_modes, SYS0, ENV0, np.array([]))

    def test_exact_requires_nonempty_grid(self, base_modes):
        with pytest.raises(ValueError):
            run_exact(base_modes, SYS0, ENV0, [])

    def test_compare_identical_is_zero(self, base_modes):
        grid = grid_to(3.0, 31)
        a = run_exact(base_modes, SYS0, ENV0, grid)
        cmp_ = compare_trajectories(a, a)
        assert cmp_.worst_rel == 0.0
        assert all(v == 0.0 for v in cmp_.max_abs.values())

    def test_compare_rejects_different_grids(self, base_modes):
        a = run_exact(base_modes, SYS0, ENV0, grid_to(3.0, 31))
        b = run_exact(base_modes, SYS0, ENV0, grid_to(3.0, 61))
        with pytest.raises(GridMismatch):
            compare_trajectories(a, b)
