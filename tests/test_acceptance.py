"""End-to-end acceptance checks.

Each test prints one ``criterion N: PASS/FAIL`` line (run pytest with
``-s`` to see them on success) and then asserts, so the suite both
documents and enforces the acceptance gate.
"""

import math

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
    moment_deviation,
    params_from_modes,
    run_exact,
    run_me,
    squeezed_pure,
)

from reference import (
    SYMPLECTIC_FORM,
    coeffs_closed,
    fit_entropy_log,
    full_transition,
    product_state,
)

BASE = NormalModes(
    omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0, hbar=1.0
)
SYS = squeezed_pure(SqueezeSpec(4.0))
ENV = squeezed_pure(SqueezeSpec(2.0))


def report(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_oracle_equivalence():
    t1 = find_divergences(BASE, 10.0)[0]
    grid = np.linspace(0.0, 0.9 * t1, 201)
    exact = run_exact(BASE, SYS, ENV, grid)
    me = run_me(BASE, SYS, ENV, grid)
    worst = moment_deviation(exact, me)[~me.bridged].max()
    ok = worst < 1e-6
    assert report(
        1, ok, f"ME vs exact max rel err {worst:.3e} on [0, 0.9*t1] (tol 1e-6)"
    )


def test_criterion_2_dual_formula_coefficients():
    rng = np.random.default_rng(20240817)
    worst = 0.0
    trials = 0
    while trials < 1000:
        om = rng.uniform(0.3, 2.0)
        lam = rng.uniform(0.3, 2.0)
        th = rng.uniform(1e-3, 0.5) * rng.choice([-1.0, 1.0])
        m_s = rng.uniform(0.5, 2.0)
        m_e = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.0, 8.0 / lam)
        modes = NormalModes(
            omega=om, lambda_sq=lam * lam, theta_c=th, m_s=m_s, m_e=m_e
        )
        env0 = GaussianState(
            np.zeros(2), np.diag([rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)])
        )
        cg = coeffs_general(modes, env0)(t)
        if abs(cg[0]) <= 1e-3:
            continue
        cc = coeffs_closed(modes, env0, t)
        # dtilde, omega_eff_sq, gamma_eff, Fy, Fq, and the contracted f1, f2
        for a, b in zip(cg[:7], cc[:7]):
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1.0))
        trials += 1
    ok = worst < 1e-9
    assert report(2, ok, f"closed vs general, 1000 draws, max rel {worst:.3e} (tol 1e-9)")


def test_criterion_3_entropy_slope_equals_rate():
    details = []
    ok = True
    for lam in (0.5, 1.0, 2.0):
        modes = NormalModes(
            omega=1.0, lambda_sq=lam * lam, theta_c=math.pi / 64, m_s=1.0, m_e=1.0
        )
        traj = run_exact(modes, SYS, ENV, np.linspace(0.0, 16.0, 801))
        slope, _ = fit_entropy_line(traj.times, traj.diags.S, (5.0, 15.0), modes.omega)
        rel = abs(slope - lam) / lam
        ok &= rel < 0.1
        details.append(f"lam={lam}: slope {slope:.4f} ({rel:.1%})")
    assert report(3, ok, "; ".join(details) + " (tol 10%)")


def test_criterion_4_logarithmic_coupling_dependence():
    # late fit window so the weakest coupling is well inside its linear
    # regime (its growth onset is delayed by ~2 ln 4 relative to pi/64)
    fits = []
    for th in (math.pi / 64, math.pi / 256, math.pi / 1024):
        modes = NormalModes(
            omega=1.0, lambda_sq=1.0, theta_c=th, m_s=1.0, m_e=1.0
        )
        traj = run_exact(modes, SYS, ENV, np.linspace(0.0, 26.0, 1301))
        fits.append(
            fit_entropy_line(traj.times, traj.diags.S, (14.0, 24.0), modes.omega)
        )
    spacings = [fits[i + 1][1] - fits[i][1] for i in range(2)]
    slopes = [f[0] for f in fits]
    ok = all(abs(s + math.log(4.0)) < 0.3 * math.log(4.0) for s in spacings)
    ok &= all(abs(s - 1.0) < 0.1 for s in slopes)
    assert report(
        4,
        ok,
        f"S0 spacings {spacings[0]:.3f}, {spacings[1]:.3f} vs -ln4={-math.log(4.0):.3f}"
        f" (tol 30%); slopes {', '.join(f'{s:.3f}' for s in slopes)} (tol 10%)",
    )


def test_criterion_5_stable_environment_bounded():
    modes = NormalModes(
        omega=1.0, lambda_sq=-16.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0
    )
    traj = run_exact(modes, SYS, ENV, np.linspace(0.0, 50.0, 2001))
    slope, _ = fit_entropy_line(traj.times, traj.diags.S, (0.0, 50.0), modes.omega)
    max_s = traj.diags.S.max()
    ok = abs(slope) < 0.01 and max_s < 1.0
    assert report(
        5, ok, f"stable env slope {slope:.2e} (tol 0.01), max S {max_s:.3f} (bounded)"
    )


def test_criterion_6_free_particle_log_entropy():
    # vacuum initial states: squeezed states undergo deep physical
    # recurrences with a free-particle environment, which the pure log
    # model does not describe; the criterion pins only lambda_sq = 0
    modes = NormalModes(
        omega=1.0, lambda_sq=0.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0
    )
    traj = run_exact(
        modes,
        squeezed_pure(SqueezeSpec(1.0)),
        squeezed_pure(SqueezeSpec(1.0)),
        np.linspace(0.0, 100.0, 2001),
    )
    c0, c1 = fit_entropy_log(traj.times, traj.diags.S, (10.0, 100.0))
    times = traj.times
    mask = (times >= 10.0) & (times <= 100.0)
    S = traj.diags.S[mask]
    resid = S - (c0 + c1 * np.log(times[mask]))
    rel = float(np.sqrt(np.mean(resid**2)) / np.sqrt(np.mean(S**2)))
    ok = rel < 0.05 and c1 > 0.0
    assert report(
        6, ok, f"log fit S ~ {c0:.3f} + {c1:.3f} ln t, RMS rel residual {rel:.1%} (tol 5%)"
    )


def test_criterion_7_divergence_bound():
    rng = np.random.default_rng(7)
    worst_margin = math.inf
    fails = 0
    for _ in range(100):
        om = rng.uniform(0.5, 2.0)
        lam = rng.uniform(0.5, 2.0)
        th = rng.uniform(math.pi / 1024, math.pi / 32)
        modes = NormalModes(
            omega=om, lambda_sq=lam * lam, theta_c=th, m_s=1.0, m_e=1.0
        )
        t_c = critical_time_derived(om, lam, th)
        roots = find_divergences(modes, t_c + 10.0 / lam)
        if not roots:
            continue
        margin = roots[0] - (t_c - 0.5 / lam)
        worst_margin = min(worst_margin, margin)
        if margin < 0:
            fails += 1
    decoupled = NormalModes(omega=1.0, lambda_sq=1.0, theta_c=0.0, m_s=1.0, m_e=1.0)
    no_roots = find_divergences(decoupled, 100.0) == []
    ok = fails == 0 and no_roots
    assert report(
        7,
        ok,
        f"100-draw sweep: {fails} early roots, worst margin {worst_margin:.3f};"
        f" theta_c=0 roots on [0,100]: {not no_roots}",
    )


def test_criterion_8_physicality_and_structure():
    # area bound across representative runs
    min_area = math.inf
    for modes, sys0, env0, t_max in (
        (BASE, SYS, ENV, 16.0),
        (
            NormalModes(omega=1.0, lambda_sq=-16.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0),
            SYS,
            ENV,
            50.0,
        ),
        (
            NormalModes(omega=1.0, lambda_sq=0.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0),
            squeezed_pure(SqueezeSpec(1.0)),
            squeezed_pure(SqueezeSpec(1.0)),
            100.0,
        ),
    ):
        traj = run_exact(modes, sys0, env0, np.linspace(0.0, t_max, 801))
        min_area = min(min_area, traj.diags.A.min())
    area_ok = min_area >= 1.0 - 1e-9

    # symplectic structure on [0, 20], residual scaled by the squared
    # matrix norm (the raw residual is entries^2 * machine epsilon)
    J = SYMPLECTIC_FORM
    symp = 0.0
    for t in np.linspace(0.0, 20.0, 81):
        T = full_transition(BASE, t)
        scale = max(1.0, float(np.abs(T).max()) ** 2)
        symp = max(symp, float(np.abs(T.T @ J @ T - J).max()) / scale)
    symp_ok = symp < 1e-10

    # global two-mode purity via singular values of T C0 (the assembled
    # covariance determinant runs out of double precision beyond t ~ 10)
    _, cov0 = product_state(SYS, ENV)
    C0 = np.linalg.cholesky(cov0)
    pur = 0.0
    for t in np.linspace(0.0, 8.0, 33):
        sv = np.linalg.svd(full_transition(BASE, t) @ C0, compute_uv=False)
        pur = max(pur, abs(float(np.prod(sv**2)) / 0.0625 - 1.0))
    pur_ok = pur < 1e-9

    # evenness in the mixing angle for zero-mean initial states
    flipped = NormalModes(
        omega=1.0, lambda_sq=1.0, theta_c=-math.pi / 64, m_s=1.0, m_e=1.0
    )
    grid = np.linspace(0.0, 16.0, 401)
    a = run_exact(BASE, SYS, ENV, grid)
    b = run_exact(flipped, SYS, ENV, grid)
    even = float(np.abs(a.moments - b.moments).max()) / max(
        1.0, float(np.abs(a.moments).max())
    )
    even_ok = even < 1e-12

    ok = area_ok and symp_ok and pur_ok and even_ok
    assert report(
        8,
        ok,
        f"min A {min_area:.12f} (>= 1-1e-9); symplectic residual {symp:.2e}"
        f" (tol 1e-10); purity drift {pur:.2e} (tol 1e-9, t in [0,8]);"
        f" theta evenness {even:.2e} (tol 1e-12)",
    )


def test_criterion_9_coefficient_boundary_values():
    rng = np.random.default_rng(99)
    gam_worst = 0.0
    om_worst = 0.0
    n = 0
    while n < 100:
        om = rng.uniform(0.3, 2.0)
        lsq = rng.uniform(-3.0, 3.0)
        th = rng.uniform(-0.4, 0.4)
        modes = NormalModes(
            omega=om,
            lambda_sq=lsq,
            theta_c=th,
            m_s=rng.uniform(0.5, 2.0),
            m_e=rng.uniform(0.5, 2.0),
        )
        try:
            bare = params_from_modes(om, lsq, th, modes.m_s, modes.m_e)
        except ValueError:
            continue  # no real bare frequency for these modes
        n += 1
        at = coeffs_general(modes, squeezed_pure(SqueezeSpec()))
        gam_worst = max(gam_worst, abs(at(0.0)[2]))  # gamma_eff
        om2 = at(1e-6)[1]  # omega_eff_sq
        om_worst = max(
            om_worst,
            abs(om2 - bare.omega_bare**2)
            / max(bare.omega_bare**2, 1e-300),
        )
    ok = gam_worst < 1e-12 and om_worst < 1e-8
    assert report(
        9,
        ok,
        f"100 draws: |gamma_eff(0)| max {gam_worst:.2e} (tol 1e-12);"
        f" omega_eff^2(0+) vs bare max rel {om_worst:.2e} (tol 1e-8)",
    )


def test_criterion_10_entropy_energy_separation():
    modes = NormalModes(
        omega=1e-5, lambda_sq=1.0, theta_c=math.pi / 512, m_s=1.0, m_e=1.0
    )
    traj = run_exact(
        modes,
        squeezed_pure(SqueezeSpec(1e4, math.pi / 64)),
        squeezed_pure(SqueezeSpec(16.0)),
        np.linspace(0.0, 4.0, 401),
    )
    S = traj.diags.S
    E = traj.diags.E
    dS = S[-1] - S[0]
    dlogE = 0.5 * math.log(E[-1] / E[0])
    factor = dS / dlogE
    ok = factor >= 5.0
    # regression values frozen from this implementation's exact run
    frozen_S4 = 4.6509069992226859
    frozen_E4 = 6.3982533422972336
    ok &= abs(S[-1] - frozen_S4) < 1e-9 * frozen_S4
    ok &= abs(E[-1] - frozen_E4) < 1e-9 * frozen_E4
    assert report(
        10,
        ok,
        f"dS {dS:.4f} vs (1/2)ln(E4/E0) {dlogE:.4f}: factor {factor:.1f} (>= 5);"
        f" S(4) {S[-1]:.12f}, E(4) {E[-1]:.12f} match frozen values to 1e-9",
    )
