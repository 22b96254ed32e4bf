import dataclasses
import math

import numpy as np
import pytest

from invharm import (
    NormalModes,
    SqueezeSpec,
    Trajectory,
    diagnostics_from_area,
    dtilde,
    find_divergences,
    moment_deviation,
    run_exact,
    run_me,
    squeezed_pure,
)

from reference import (
    area_ratio,
    full_transition,
    product_state,
    propagate,
    reduce_system,
)

SYS0 = squeezed_pure(SqueezeSpec(4.0))
ENV0 = squeezed_pure(SqueezeSpec(2.0))  # variances 1 and 0.25


def grid_to(t_max, n=401):
    return np.linspace(0.0, t_max, n)


def worst_deviation(exact, me):
    """The largest per-row moment deviation outside the bridged rows."""
    return moment_deviation(exact, me)[~me.bridged].max()


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
        assert worst_deviation(exact, me) < 1e-6
        assert not me.bridged.any()

    def test_force_path_with_environment_mean(self, base_modes):
        # a displaced environment drives the system means through F
        env0 = squeezed_pure(SqueezeSpec(2.0), mean=(1.5, -0.5))
        grid = grid_to(6.0, 151)
        exact = run_exact(base_modes, SYS0, env0, grid)
        me = run_me(base_modes, SYS0, env0, grid)
        assert np.abs(exact.moments[-1, :2]).max() > 0.1  # actually driven
        assert moment_deviation(exact, me)[:, :2].max() < 1e-6

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
        assert worst_deviation(exact, me) < 1e-6

    def test_system_mean_is_propagated(self, base_modes):
        grid = grid_to(6.0, 151)
        sys0 = squeezed_pure(SqueezeSpec(4.0), mean=(1.0, -0.5))
        exact = run_exact(base_modes, sys0, ENV0, grid)
        me = run_me(base_modes, sys0, ENV0, grid)
        assert tuple(me.moments[0, :2]) == (1.0, -0.5)
        assert worst_deviation(exact, me) < 1e-6


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
            red = reduce_system(*propagate(*full0, full_transition(modes, t)))
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
        reds = [reduce_system(*propagate(*full0, full_transition(modes, t))) for t in grid]
        A = traj.diags.A
        A_ref = np.array([area_ratio(r) for r in reds])
        det_scale = np.array(
            [abs(r.cov[0, 0] * r.cov[1, 1]) + r.cov[0, 1] ** 2 for r in reds]
        ) / 0.25
        assert np.all(np.abs(A**2 - A_ref**2) <= 1e-13 * det_scale)
        assert A.max() > 10.0  # the run has left the pure state far behind
        one_per_row = [
            diagnostics_from_area(a, m, modes.m_s, modes.omega)
            for a, m in zip(A, traj.moments)
        ]
        assert np.array_equal(traj.diags.S, [d.S for d in one_per_row])
        # E = (m_s omega^2 <x^2> + <p^2> / m_s) / 2, means included
        E_ref = np.array(
            [
                0.5
                * (
                    modes.m_s * modes.omega**2 * (r.cov[0, 0] + r.mean[0] ** 2)
                    + (r.cov[1, 1] + r.mean[1] ** 2) / modes.m_s
                )
                for r in reds
            ]
        )
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
        _, cov0 = product_state(sys0, env0)
        C0 = np.linalg.cholesky(cov0)
        for t in np.linspace(0.0, 8.0, 17):
            sv = np.linalg.svd(full_transition(base_modes, t) @ C0, compute_uv=False)
            # determinant of the evolved covariance = prod sv^2 = (hbar/2)^4
            # for a pure state; equivalent to global purity staying 1
            assert abs(np.prod(sv**2) - 0.0625) < 1e-9 * 0.0625


# a wide guard makes the blocked window span several grid points, so
# the bridging bookkeeping is actually exercised; the default guard
# window (|Dtilde| < 1e-3) is narrower than typical grid spacings
WIDE_GUARD = 0.2


@pytest.fixture
def wide_guard(monkeypatch):
    """run_me's divergence guard set to WIDE_GUARD for one test."""
    import invharm.evolution as evolution

    monkeypatch.setattr(evolution, "_DIVERGENCE_GUARD", WIDE_GUARD)


class TestBridging:
    def test_bridged_window_bookkeeping(self, wide_guard, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid)
        assert me.bridged.any()
        bridges = me.bridges
        assert len(bridges) >= 1
        a, b = bridges[0]
        assert 7.5 < a < b < 8.5  # first breakdown near t = 7.99
        inside = (grid > a) & (grid <= b)
        assert np.array_equal(me.bridged, inside)

    def test_bridged_samples_match_exact(self, wide_guard, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        sel = me.bridged
        assert sel.sum() >= 2
        dev = np.abs(me.moments[sel] - exact.moments[sel])
        assert dev.max() < 1e-9 * max(1.0, np.abs(exact.moments[sel]).max())

    def test_comparison_excludes_bridged(self, wide_guard, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        assert me.bridged.any()
        # the deviation is per row, so garbage on the bridged rows
        # changes nothing outside them
        poisoned = dataclasses.replace(me, moments=me.moments.copy())
        poisoned.moments[me.bridged] = 1e300
        assert worst_deviation(exact, poisoned) == worst_deviation(exact, me)
        assert np.array_equal(
            moment_deviation(exact, poisoned)[~me.bridged],
            moment_deviation(exact, me)[~me.bridged],
        )

    def test_resumes_from_exact_state_after_bridge(self, wide_guard, base_modes):
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        b = me.bridges[0][1]
        after = (grid > b) & (grid < b + 0.5)
        dev = np.abs(me.moments[after] - exact.moments[after])
        scale = np.abs(exact.moments[after]).max()
        # shortly after the restart the ME still tracks the exact path;
        # the near-singular coefficients amplify error, so the tolerance
        # here is looser than the pre-breakdown oracle bound
        assert dev.max() < 1e-4 * scale

    def patch_roots(self, monkeypatch, extra):
        """Make run_me's root search list, after each real root r, the
        roots r + d for each d in ``extra``."""
        import invharm.evolution as evolution

        real = evolution.find_divergences

        def listed(modes, t_max):
            return [r + d for r in real(modes, t_max) for d in (0.0, *extra)]

        monkeypatch.setattr(evolution, "find_divergences", listed)

    def test_a_root_listed_twice_gives_the_same_run(
        self, wide_guard, base_modes, monkeypatch
    ):
        grid = grid_to(10.0, 501)
        once = run_me(base_modes, SYS0, ENV0, grid)
        self.patch_roots(monkeypatch, [0.0])
        twice = run_me(base_modes, SYS0, ENV0, grid)
        assert len(once.bridges) == 1
        assert twice.bridges == once.bridges
        assert np.array_equal(twice.bridged, once.bridged)
        assert np.array_equal(twice.moments, once.moments)
        assert twice.rhs_evals == once.rhs_evals

    def test_overlapping_windows_merge_into_one_bridge(
        self, wide_guard, base_modes, monkeypatch
    ):
        # a second root h/2 past the first: its window reaches back over
        # the first one's, so the two are bridged as one
        from invharm.evolution import _blocked_window

        guard, t_end = WIDE_GUARD, 10.0
        h = guard / max(base_modes.omega, math.sqrt(abs(base_modes.lambda_sq)))
        (root,) = find_divergences(base_modes, t_end)
        first = _blocked_window(base_modes, root, guard, t_end)
        second = _blocked_window(base_modes, root + h / 2.0, guard, t_end)
        assert second[0] <= first[1]
        self.patch_roots(monkeypatch, [h / 2.0])
        grid = grid_to(t_end, 501)
        me = run_me(base_modes, SYS0, ENV0, grid)
        ((a, b),) = me.bridges
        assert (a, b) == (min(first[0], second[0]), max(first[1], second[1]))
        assert np.array_equal(me.bridged, (grid > a) & (grid <= b))
        assert me.bridged.sum() >= 2

    def test_roots_and_edges_are_python_floats(self, wide_guard, base_modes):
        # the bisections run on Python floats, not on numpy scalars of
        # the root scan, and return them
        roots = find_divergences(base_modes, 30.0)
        assert len(roots) >= 3
        assert all(type(r) is float for r in roots)
        me = run_me(base_modes, SYS0, ENV0, grid_to(30.0, 301))
        assert len(me.bridges) >= 3
        assert all(type(e) is float for w in me.bridges for e in w)

    # the theta_c = pi/16 modes have a root whose guard set at 0.2 reaches
    # past h, so the doubling is exercised there
    WIDE_MODES = NormalModes(
        omega=1.0, lambda_sq=1.0, theta_c=math.pi / 16, m_s=1.0, m_e=1.0
    )

    def test_window_edges_cost_at_most_three_dtilde_calls_per_root(
        self, monkeypatch
    ):
        # each side of a window climbs a ladder of half-widths from h;
        # at the default guard the first rung already clears it
        import invharm.evolution as evolution

        real = evolution.dtilde
        calls = []

        def counting(modes):
            at = real(modes)

            def counted(t):
                calls.append(t)
                return at(t)

            return counted

        monkeypatch.setattr(evolution, "dtilde", counting)
        roots = find_divergences(self.WIDE_MODES, 30.0)
        assert len(roots) >= 8
        run_me(self.WIDE_MODES, SYS0, ENV0, grid_to(30.0, 301))
        assert all(type(t) is float for t in calls)
        assert 0 < len(calls) <= 3 * len(roots)

    @pytest.mark.parametrize("wide", [False, True], ids=["base", "theta_pi_16"])
    def test_window_covers_the_guard_set_within_one_doubling(self, base_modes, wide):
        from invharm.evolution import _blocked_window

        modes = self.WIDE_MODES if wide else base_modes
        guard, t_end = WIDE_GUARD, 30.0
        dt = dtilde(modes)
        h = guard / max(modes.omega, math.sqrt(abs(modes.lambda_sq)))
        roots = find_divergences(modes, t_end)
        assert len(roots) >= 8
        doubled = 0
        for root in roots:
            a, b = _blocked_window(modes, root, guard, t_end)
            # never narrower than h, except where clipped to [0, t_end]
            assert 0.0 <= a <= max(root - h, 0.0)
            assert min(root + h, t_end) <= b <= t_end
            for e in (a, b):
                if e in (0.0, t_end):
                    continue
                assert abs(dt(e)) >= guard
                if e not in (root - h, root + h):
                    # the rung before the last was still inside the guard set
                    assert abs(dt(root + (e - root) / 2.0)) < guard
                    doubled += 1
        assert doubled > 0 if wide else doubled == 0

    def test_default_guard_matches_exact_through_breakdown(self, base_modes):
        # with the default (narrow) guard nothing lands in the window;
        # the integrator crosses the ill-conditioned region and stays
        # within the conditioning-limited bound
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, ENV0, grid)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        assert worst_deviation(exact, me) < 1e-3
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

    def test_one_call_per_unblocked_segment(
        self, wide_guard, base_modes, monkeypatch
    ):
        spans = self.record_spans(monkeypatch)
        me = run_me(base_modes, SYS0, ENV0, grid_to(10.0, 501))
        assert len(find_divergences(base_modes, 10.0)) == 1
        ((a, b),) = me.bridges
        assert spans == [(0.0, a), (b, 10.0)]

    def test_rhs_evals_counts_the_solver_calls(
        self, wide_guard, base_modes, monkeypatch
    ):
        # Trajectory.rhs_evals is the number of calls every segment's
        # solver made to the right-hand side; an exact run makes none
        import invharm.evolution as evolution

        real = evolution.solve_ivp
        calls = []

        def counting(fun, *args, **kwargs):
            def counted(t, y):
                calls.append(t)
                return fun(t, y)

            return real(counted, *args, **kwargs)

        monkeypatch.setattr(evolution, "solve_ivp", counting)
        env0 = squeezed_pure(SqueezeSpec(2.0, 0.3), mean=(0.3, -0.1))
        grid = grid_to(10.0, 501)
        me = run_me(base_modes, SYS0, env0, grid)
        assert len(me.bridges) == 1
        assert me.rhs_evals == len(calls) > 0
        assert run_exact(base_modes, SYS0, env0, grid).rhs_evals == 0


class TestOneKernelEvaluation:
    """The exact path reads every block and minor from one evaluation of
    the kernels on its grid."""

    def test_run_exact_evaluates_the_kernels_once(self, base_modes, monkeypatch):
        import invharm.propagator as propagator

        real = propagator.gkernels
        calls = []

        def counting(k, t):
            calls.append(np.shape(t))
            return real(k, t)

        monkeypatch.setattr(propagator, "gkernels", counting)
        grid = grid_to(12.0, 241)
        run_exact(base_modes, SYS0, ENV0, grid)
        # one array call per normal mode
        assert calls == [grid.shape, grid.shape]

    @pytest.mark.parametrize("t_max", [10.0, 24.0])
    def test_run_me_evaluates_the_rows_once_per_bridged_window(
        self, wide_guard, base_modes, monkeypatch, t_max
    ):
        import invharm.evolution as evolution

        real = evolution.system_rows
        calls = []

        def counting(modes, t):
            calls.append(t)
            return real(modes, t)

        monkeypatch.setattr(evolution, "system_rows", counting)
        grid = grid_to(t_max, 50 * int(t_max) + 1)
        me = run_me(base_modes, SYS0, ENV0, grid)
        assert len(me.bridges) >= 1
        assert len(calls) == len(me.bridges)
        # each call covers its window's grid points and its far edge
        for (a, b), t in zip(me.bridges, calls):
            assert t[-1] == b
            assert np.all((t[:-1] > a) & (t[:-1] <= b))

    def test_run_me_binds_the_kernels_a_bounded_number_of_times(self, monkeypatch):
        # the per-run kernel evaluation is bound once for the coefficients,
        # once for the root scan and its bisections, once per root for the
        # edges of its guard window and once per bridged window: a count
        # linear in the roots, whatever the depth of the bisections
        import invharm.coefficients as coefficients
        import invharm.propagator as propagator

        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=math.pi / 16, m_s=1.0, m_e=1.0
        )
        roots = find_divergences(modes, 30.0)
        assert len(roots) >= 8
        real = propagator._kernels_at
        calls = []

        def counting(modes):
            calls.append(modes)
            return real(modes)

        for module in (propagator, coefficients):
            monkeypatch.setattr(module, "_kernels_at", counting)
        run_me(modes, SYS0, ENV0, grid_to(30.0, 301))
        assert 0 < len(calls) <= 2 + 2 * len(roots)


class TestSharedStateEntries:
    MODES = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.1, m_s=1.0, m_e=1.0)

    def test_run_me_starts_from_the_symmetrised_moments(self):
        # a rotated squeezed state whose two off-diagonal covariance
        # entries differ in the last bit: both runs start from the mean
        # of the two
        sys0 = squeezed_pure(SqueezeSpec(3.0, 0.65))
        (v_xx, v_xp), (v_px, v_pp) = sys0.cov.tolist()
        assert v_xp != v_px
        want = [*sys0.mean.tolist(), v_xx, v_pp, 0.5 * (v_xp + v_px)]
        grid = grid_to(1.0, 11)
        assert run_me(self.MODES, sys0, ENV0, grid).moments[0].tolist() == want
        assert run_exact(self.MODES, sys0, ENV0, grid).moments[0].tolist() == want

    @pytest.mark.parametrize("axis", ["modes", "sys0", "env0"])
    def test_run_exact_over_v_values_is_v_one_value_calls(self, axis):
        values = {
            "modes": [
                NormalModes(omega=1.0, lambda_sq=k, theta_c=0.2, m_s=0.8, m_e=1.3, hbar=0.7)
                for k in (-1.5, 0.0, 2.0)
            ],
            "sys0": [
                squeezed_pure(SqueezeSpec(r, a), mean=(0.3, -0.2))
                for r, a in ((4.0, 0.0), (0.5, 0.4), (3.0, 0.65))
            ],
            "env0": [squeezed_pure(SqueezeSpec(r, 0.3)) for r in (2.0, 1.0, 0.7)],
        }[axis]
        args = {"modes": self.MODES, "sys0": SYS0, "env0": ENV0}
        grid = grid_to(6.0, 61)
        runs = run_exact(**{**args, axis: values}, grid=grid)
        assert runs.moments.shape == (3, grid.size, 5)
        for i, value in enumerate(values):
            one = run_exact(**{**args, axis: value}, grid=grid)
            assert np.array_equal(runs.moments[i], one.moments), i
            for name, col in vars(runs.diags).items():
                assert np.array_equal(col[i], getattr(one.diags, name)), (i, name)


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
            _, cov = propagate(*full0, full_transition(self.MODES, t))
            v.append(cov[2, 2])
        assert v[1] / v[0] == pytest.approx(4.0, rel=0.05)


class TestSegmentFailure:
    # faults are injected into the per-run coefficient function that
    # run_me builds through the module global
    # invharm.evolution.coeffs_general
    def inject(self, monkeypatch, fault):
        import invharm.evolution as evolution

        real = evolution.coeffs_general

        def faulty(modes, env0):
            at = real(modes, env0)
            return lambda t: fault(at, t)

        monkeypatch.setattr(evolution, "coeffs_general", faulty)

    def test_arithmetic_error_names_the_segment(self, base_modes, monkeypatch):
        # an arithmetic error inside the right-hand side surfaces as a
        # FloatingPointError naming the segment being integrated
        def failing(at, t):
            if t > 3.0:
                raise ZeroDivisionError("float division by zero")
            return at(t)

        self.inject(monkeypatch, failing)
        with pytest.raises(
            FloatingPointError, match=r"\[0\.0, 6\.0\].*ZeroDivisionError"
        ) as info:
            run_me(base_modes, SYS0, ENV0, grid_to(6.0, 61))
        assert isinstance(info.value.__cause__, ZeroDivisionError)

    def test_step_below_ten_ulp_names_the_segment(self, base_modes, monkeypatch):
        # NaN coefficients past t = 3 fail every error test of a step that
        # reaches them, so the step shrinks until it is below 10 ulp of t
        def nan_late(at, t):
            c = at(t)
            # omega_eff_sq follows dtilde
            return (c[0], math.nan, *c[2:]) if t > 3.0 else c

        self.inject(monkeypatch, nan_late)
        with pytest.raises(FloatingPointError, match=r"\[0\.0, 6\.0\].*10 ulp of t = 2\.99"):
            run_me(base_modes, SYS0, ENV0, grid_to(6.0, 61))


class TestValidationAndComparison:
    def test_me_requires_grid_from_zero(self, base_modes):
        with pytest.raises(ValueError):
            run_me(base_modes, SYS0, ENV0, np.linspace(1.0, 2.0, 10))
        with pytest.raises(ValueError):
            run_me(base_modes, SYS0, ENV0, np.array([]))

    def test_me_fills_a_grid_finer_than_rounding(self, base_modes):
        # rows closer together than 1e-15 are integrated all the same
        grid = np.linspace(0.0, 1e-30, 3)
        me = run_me(base_modes, SYS0, ENV0, grid)
        exact = run_exact(base_modes, SYS0, ENV0, grid)
        assert np.isfinite(me.moments).all()
        assert me.rhs_evals > 0
        assert moment_deviation(exact, me).max() < 1e-12

    def test_exact_requires_nonempty_grid(self, base_modes):
        with pytest.raises(ValueError):
            run_exact(base_modes, SYS0, ENV0, [])

    def test_exact_rejects_a_non_finite_time(self, base_modes):
        # a NaN time gave NaN moments with S = 0 on its row
        with pytest.raises(ValueError, match=r"^grid time 1 is not finite: nan$"):
            run_exact(base_modes, SYS0, ENV0, [0.0, math.nan, 1.0])

    def test_me_rejects_a_non_finite_time(self, base_modes):
        # an infinite end raised a bare OverflowError from the root scan
        with pytest.raises(ValueError, match=r"^grid time 2 is not finite: inf$"):
            run_me(base_modes, SYS0, ENV0, [0.0, 1.0, math.inf])

    def test_me_rejects_a_decreasing_grid(self, base_modes):
        # it took grid[-1] as the end of the run, and left NaN rows past it
        with pytest.raises(
            ValueError, match=r"^grid must not decrease: time 2 is 1\.0 after 2\.0$"
        ):
            run_me(base_modes, SYS0, ENV0, [0.0, 2.0, 1.0])

    def test_compare_identical_is_zero(self, base_modes):
        grid = grid_to(3.0, 31)
        a = run_exact(base_modes, SYS0, ENV0, grid)
        dev = moment_deviation(a, a)
        assert dev.shape == (31, 5)
        assert not dev.any()

    def test_deviation_is_floored_at_unit_scale(self, base_modes):
        # each row and moment is divided by max(|exact|, 1): a moment
        # near zero is held to an absolute error, a large one to a
        # relative one
        a = run_exact(base_modes, SYS0, ENV0, grid_to(3.0, 4))
        moments = np.array([[0.0, 1e-3, 2.0, -4.0, 0.5]] * 4)
        exact = dataclasses.replace(a, moments=moments)
        me = dataclasses.replace(a, moments=moments + 1e-3)
        expected = 1e-3 / np.array([1.0, 1.0, 2.0, 4.0, 1.0])
        assert np.allclose(moment_deviation(exact, me), expected, rtol=1e-12)
