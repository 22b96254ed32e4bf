"""The in-package DOP853 integrator against scipy's: the same tableau,
float for float, and the same master-equation solution."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as reference

import invharm.dop853 as dop853
import invharm.evolution as evolution
from invharm import NormalModes, SqueezeSpec, run_me, squeezed_pure


def test_tableau_equals_scipys():
    # with y = 0, h = 1 and the i-th stage equal to the i-th unit vector,
    # every combination the step forms is a row of its coefficients
    n = 16
    inputs, times = [], []

    def unit(i):
        e = [0.0] * n
        e[i] = 1.0
        return e

    def fun(t, y):
        times.append(t)
        inputs.append(list(y))
        return unit(len(inputs))

    y0 = [0.0] * n
    y_new, _, err5, err3, k = dop853._step(fun, 0.0, y0, unit(0), 1.0)
    rows = dop853._dense(fun, 0.0, y0, y_new, k, 1.0)

    assert times == reference.C[1:].tolist()
    # stages 2-12, the solution (stage 13's input) and stages 14-16
    assert inputs == reference.A[1:].tolist()
    assert y_new == reference.A[reference.N_STAGES].tolist()
    pad = [0.0] * (n - reference.N_STAGES - 1)
    assert err5 == reference.E5.tolist() + pad
    assert err3 == reference.E3.tolist() + pad
    assert [[row[4 + i] for row in rows] for i in range(4)] == reference.D.tolist()


def test_nan_at_the_start_fails_at_once():
    # a NaN derivative at the start gives a NaN starting step, which must
    # fail the step-size test instead of being retried without end; the
    # call cap turns a loop that does not stop into a failure
    calls = []

    def nan_rhs(t, y):
        calls.append(t)
        if len(calls) > 1000:
            raise RuntimeError("the stepper kept calling the right-hand side")
        return [math.nan] * 2

    with pytest.raises(FloatingPointError, match=r"nan is not at least 10 ulp of t = 0\.0"):
        dop853.solve_ivp(nan_rhs, (0.0, 1.0), [1.0, 0.0], [0.5, 1.0], 1e-10, 1e-12)
    # the start and the starting-step probe
    assert len(calls) == 2


# (modes, system (r, angle, mean), environment (r, angle, mean)): two
# mixing angles, unequal masses with rotated and displaced states, a
# stable environment, and a strong coupling with hbar != 1
SYS, ENV = (4.0, 0.0, (0.0, 0.0)), (2.0, 0.0, (0.0, 0.0))
CONFIGS = {
    "theta_pi_16": (dict(theta_c=math.pi / 16), SYS, ENV),
    "theta_pi_64": (dict(), SYS, ENV),
    "rotated_displaced": (
        dict(m_s=0.9, m_e=1.6),
        (3.0, 0.4, (0.5, -0.3)),
        (1.5, 0.7, (0.2, 0.4)),
    ),
    "stable": (dict(lambda_sq=-0.5, theta_c=0.2), SYS, ENV),
    "strong": (dict(lambda_sq=2.5, m_s=1.7, m_e=0.6, hbar=0.5), SYS, ENV),
}
BASE = dict(omega=1.0, lambda_sq=1.0, theta_c=math.pi / 64, m_s=1.0, m_e=1.0, hbar=1.0)


@pytest.mark.parametrize("name", CONFIGS)
def test_run_me_matches_scipys_dop853(name, monkeypatch):
    # the same step control takes the same steps, so the moments differ
    # by rounding alone and every segment makes as many evaluations
    fields, (r_s, a_s, m_s), (r_e, a_e, m_e) = CONFIGS[name]
    modes = NormalModes(**{**BASE, **fields})
    sys0 = squeezed_pure(SqueezeSpec(r_s, a_s), modes.hbar, m_s)
    env0 = squeezed_pure(SqueezeSpec(r_e, a_e), modes.hbar, m_e)
    grid = np.linspace(0.0, 30.0, 801)
    nfev = {"package": [], "scipy": []}

    def package(*args):
        y, n = dop853.solve_ivp(*args)
        nfev["package"].append(n)
        return y, n

    def scipy(fun, t_span, y0, t_eval, rtol, atol):
        sol = scipy_solve_ivp(
            lambda t, y: fun(t, y.tolist()),
            t_span,
            y0,
            method="DOP853",
            t_eval=t_eval,
            rtol=rtol,
            atol=atol,
        )
        assert sol.success
        nfev["scipy"].append(sol.nfev)
        return sol.y.T, sol.nfev

    monkeypatch.setattr(evolution, "solve_ivp", package)
    me = run_me(modes, sys0, env0, grid)
    monkeypatch.setattr(evolution, "solve_ivp", scipy)
    ref = run_me(modes, sys0, env0, grid)

    assert nfev["package"] == nfev["scipy"]
    np.testing.assert_allclose(me.moments, ref.moments, rtol=1e-8, atol=0.0)


def test_a_flat_right_hand_side_matches_scipys_dop853():
    # y' = 0: the start is flat, so the starting step is 1e-6, and every
    # error estimate is exactly 0, so each step grows by the full factor
    # of 10; scipy takes the same steps
    t_eval = [1e-6, 0.5, 3.0, 10.0]
    y, nfev = dop853.solve_ivp(
        lambda t, y: [0.0, 0.0], (0.0, 10.0), [1.5, -2.0], t_eval, 1e-10, 1e-12
    )
    ref = scipy_solve_ivp(
        lambda t, y: np.zeros(2),
        (0.0, 10.0),
        [1.5, -2.0],
        method="DOP853",
        t_eval=t_eval,
        rtol=1e-10,
        atol=1e-12,
    )
    assert ref.success
    assert y == ref.y.T.tolist() == [[1.5, -2.0]] * len(t_eval)
    assert nfev == ref.nfev
