"""Adaptive Runge-Kutta integration of order 8 (Dormand-Prince DOP853,
after Hairer, Norsett and Wanner, *Solving Ordinary Differential
Equations I*, sections II.4 and II.10) for a small system of ODEs whose
state is a list of Python floats.

Each of the 12 stages, the order-8 solution, the order-5 and order-3
error estimates and the 7-term dense-output polynomial is written out as
one expression over the state components, with the tableau's
coefficients as literals.  On a state of a few components that is
several times cheaper than the same arithmetic on arrays, whose per-call
overhead is then most of the work.

Step control is the usual one for this pair, as in
``scipy.integrate.solve_ivp(method="DOP853")``, so both take the same
steps up to rounding: the starting step of HNW II.4, the combined E5/E3
error norm, a safety factor of 0.9 on the step from the error exponent
-1/8, growth by at most 10 and shrinking by at most 5 per step, no
growth right after a rejection, and failure once the step needed is
below 10 ulp of t or is NaN.
"""

from __future__ import annotations

import bisect
import math

__all__ = ["solve_ivp"]


def solve_ivp(fun, t_span, y0, t_eval, rtol: float, atol: float) -> tuple:
    """Integrate y' = fun(t, y) from y0 at t0 over t_span = (t0, t1),
    t0 < t1, and return ``(y, nfev)``: the solution at t_eval, increasing
    times in (t0, t1], one list of floats per time, and the number of
    right-hand-side evaluations it took.

    ``fun(t, y)`` takes a float and a list of floats and returns a list
    of floats.  Each step keeps the error estimate within ``atol + rtol
    * |y|`` per component, in the root-mean-square norm; every point of
    t_eval is read from the dense output of the step that covers it.
    Raises :class:`FloatingPointError` if the step needed falls below
    10 ulp of t, or is NaN.
    """
    t, t_bound = float(t_span[0]), float(t_span[1])
    y = [float(v) for v in y0]
    t_eval = [float(v) for v in t_eval]
    n = len(y)
    f = fun(t, y)
    h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
    nfev = 2
    out = []
    i_eval = 0
    while t < t_bound:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            # a NaN step fails this test too: it comes from a right-hand
            # side that is NaN where the segment starts
            if not h_abs >= min_step:
                raise FloatingPointError(
                    f"step size {h_abs!r} is not at least 10 ulp of t = {t!r}"
                )
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            y_new, f_new, err5, err3, k = _step(fun, t, y, f, h)
            nfev += 12
            e5 = e3 = 0.0
            for a, b, d5, d3 in zip(y, y_new, err5, err3):
                scale = atol + max(abs(a), abs(b)) * rtol
                # products, not float powers: an overflow gives inf, which
                # rejects the step, where ** would raise
                r5, r3 = d5 / scale, d3 / scale
                e5 += r5 * r5
                e3 += r3 * r3
            if e5 == 0.0 and e3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h * e5 / math.sqrt((e5 + 0.01 * e3) * n)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = 10.0
                else:
                    factor = min(10.0, 0.9 * error_norm**-0.125)
                if rejected:
                    factor = min(1.0, factor)
                h_abs = h * factor
                break
            h_abs = h * max(0.2, 0.9 * error_norm**-0.125)
            rejected = True

        # the points in (t, t_new]
        j = bisect.bisect_right(t_eval, t_new, i_eval)
        if j > i_eval:
            rows = _dense(fun, t, y, y_new, k, h)
            nfev += 3
            for te in t_eval[i_eval:j]:
                out.append(_interpolate(rows, (te - t) / h))
            i_eval = j
        t, y, f = t_new, y_new, f_new
    return out, nfev


def _rms(v) -> float:
    return math.hypot(*v) / math.sqrt(len(v))


def _initial_step(fun, t, y, f, t_bound, rtol, atol) -> float:
    """Starting step for an error estimate of order 7 (HNW II.4): one
    explicit Euler probe sets the scale of the second derivative."""
    span = t_bound - t
    scale = [atol + abs(v) * rtol for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    f1 = fun(t + h0, [v + h0 * g for v, g in zip(y, f)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f, f1, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h0, h1, span)


def _step(fun, t, y, k1, h):
    """One step of size h from y at t, with k1 = fun(t, y).

    Returns the order-8 solution, fun at it, the order-5 and order-3
    error estimates before the factor h, and the stages the dense output
    needs."""
    k2 = fun(t + 0.05260015195876773 * h, [
        yi + h * (0.05260015195876773 * s1)
        for yi, s1 in zip(y, k1)])
    k3 = fun(t + 0.0789002279381516 * h, [
        yi + h * (0.0197250569845379 * s1 + 0.0591751709536137 * s2)
        for yi, s1, s2 in zip(y, k1, k2)])
    k4 = fun(t + 0.1183503419072274 * h, [
        yi + h * (0.02958758547680685 * s1 + 0.08876275643042054 * s3)
        for yi, s1, s3 in zip(y, k1, k3)])
    k5 = fun(t + 0.2816496580927726 * h, [
        yi + h * (0.2413651341592667 * s1 - 0.8845494793282861 * s3
                  + 0.924834003261792 * s4)
        for yi, s1, s3, s4 in zip(y, k1, k3, k4)])
    k6 = fun(t + 0.3333333333333333 * h, [
        yi + h * (0.037037037037037035 * s1 + 0.17082860872947386 * s4
                  + 0.12546768756682242 * s5)
        for yi, s1, s4, s5 in zip(y, k1, k4, k5)])
    k7 = fun(t + 0.25 * h, [
        yi + h * (0.037109375 * s1 + 0.17025221101954405 * s4
                  + 0.06021653898045596 * s5 - 0.017578125 * s6)
        for yi, s1, s4, s5, s6 in zip(y, k1, k4, k5, k6)])
    k8 = fun(t + 0.3076923076923077 * h, [
        yi + h * (0.03709200011850479 * s1 + 0.17038392571223998 * s4
                  + 0.10726203044637328 * s5 - 0.015319437748624402 * s6
                  + 0.008273789163814023 * s7)
        for yi, s1, s4, s5, s6, s7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = fun(t + 0.6512820512820513 * h, [
        yi + h * (0.6241109587160757 * s1 - 3.3608926294469414 * s4
                  - 0.868219346841726 * s5 + 27.59209969944671 * s6
                  + 20.154067550477894 * s7 - 43.48988418106996 * s8)
        for yi, s1, s4, s5, s6, s7, s8 in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = fun(t + 0.6 * h, [
        yi + h * (0.47766253643826434 * s1 - 2.4881146199716677 * s4
                  - 0.590290826836843 * s5 + 21.230051448181193 * s6
                  + 15.279233632882423 * s7 - 33.28821096898486 * s8
                  - 0.020331201708508627 * s9)
        for yi, s1, s4, s5, s6, s7, s8, s9
        in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = fun(t + 0.8571428571428571 * h, [
        yi + h * (-0.9371424300859873 * s1 + 5.186372428844064 * s4
                  + 1.0914373489967295 * s5 - 8.149787010746927 * s6
                  - 18.52006565999696 * s7 + 22.739487099350505 * s8
                  + 2.4936055526796523 * s9 - 3.0467644718982196 * s10)
        for yi, s1, s4, s5, s6, s7, s8, s9, s10
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = fun(t + h, [
        yi + h * (2.273310147516538 * s1 - 10.53449546673725 * s4
                  - 2.0008720582248625 * s5 - 17.9589318631188 * s6
                  + 27.94888452941996 * s7 - 2.8589982771350235 * s8
                  - 8.87285693353063 * s9 + 12.360567175794303 * s10
                  + 0.6433927460157636 * s11)
        for yi, s1, s4, s5, s6, s7, s8, s9, s10, s11
        in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    stages = (k1, k6, k7, k8, k9, k10, k11, k12)
    y_new = [
        yi + h * (0.054293734116568765 * s1 + 4.450312892752409 * s6
                  + 1.8915178993145003 * s7 - 5.801203960010585 * s8
                  + 0.3111643669578199 * s9 - 0.1521609496625161 * s10
                  + 0.20136540080403034 * s11 + 0.04471061572777259 * s12)
        for yi, s1, s6, s7, s8, s9, s10, s11, s12 in zip(y, *stages)]
    k13 = fun(t + h, y_new)
    err5 = [
        0.01312004499419488 * s1 - 1.2251564463762044 * s6
        - 0.4957589496572502 * s7 + 1.6643771824549864 * s8
        - 0.35032884874997366 * s9 + 0.3341791187130175 * s10
        + 0.08192320648511571 * s11 - 0.022355307863886294 * s12
        for s1, s6, s7, s8, s9, s10, s11, s12 in zip(*stages)]
    err3 = [
        -0.18980075407240762 * s1 + 4.450312892752409 * s6
        + 1.8915178993145003 * s7 - 5.801203960010585 * s8
        - 0.4226823213237919 * s9 - 0.1521609496625161 * s10
        + 0.20136540080403034 * s11 + 0.02265179219836082 * s12
        for s1, s6, s7, s8, s9, s10, s11, s12 in zip(*stages)]
    return y_new, k13, err5, err3, stages + (k13,)


def _dense(fun, t, y, y_new, k, h) -> list:
    """Coefficients of the dense output over the step of size h from
    (t, y) to y_new, whose stages _step returned as k: per component,
    its start value and the seven polynomial coefficients.  Takes three
    more stages."""
    k1, k6, k7, k8, k9, k10, k11, k12, k13 = k
    k14 = fun(t + 0.1 * h, [
        yi + h * (0.056167502283047954 * s1 + 0.25350021021662483 * s7
                  - 0.2462390374708025 * s8 - 0.12419142326381637 * s9
                  + 0.15329179827876568 * s10 + 0.00820105229563469 * s11
                  + 0.007567897660545699 * s12 - 0.008298 * s13)
        for yi, s1, s7, s8, s9, s10, s11, s12, s13
        in zip(y, k1, k7, k8, k9, k10, k11, k12, k13)])
    k15 = fun(t + 0.2 * h, [
        yi + h * (0.03183464816350214 * s1 + 0.028300909672366776 * s6
                  + 0.053541988307438566 * s7 - 0.05492374857139099 * s8
                  - 0.00010834732869724932 * s11
                  + 0.0003825710908356584 * s12
                  - 0.00034046500868740456 * s13
                  + 0.1413124436746325 * s14)
        for yi, s1, s6, s7, s8, s11, s12, s13, s14
        in zip(y, k1, k6, k7, k8, k11, k12, k13, k14)])
    k16 = fun(t + 0.7777777777777778 * h, [
        yi + h * (-0.42889630158379194 * s1 - 4.697621415361164 * s6
                  + 7.683421196062599 * s7 + 4.06898981839711 * s8
                  + 0.3567271874552811 * s9 - 0.0013990241651590145 * s13
                  + 2.9475147891527724 * s14 - 9.15095847217987 * s15)
        for yi, s1, s6, s7, s8, s9, s13, s14, s15
        in zip(y, k1, k6, k7, k8, k9, k13, k14, k15)])
    rows = []
    for yi, yn, s1, s6, s7, s8, s9, s10, s11, s12, s13, s14, s15, s16 in zip(
        y, y_new, k1, k6, k7, k8, k9, k10, k11, k12, k13, k14, k15, k16
    ):
        d = yn - yi
        rows.append((
            yi,
            d,
            h * s1 - d,
            2.0 * d - h * (s13 + s1),
            h * (-8.428938276109013 * s1 + 0.5667149535193777 * s6
                 - 3.0689499459498917 * s7 + 2.38466765651207 * s8
                 + 2.117034582445028 * s9 - 0.871391583777973 * s10
                 + 2.2404374302607883 * s11 + 0.6315787787694688 * s12
                 - 0.08899033645133331 * s13 + 18.148505520854727 * s14
                 - 9.194632392478356 * s15 - 4.436036387594894 * s16),
            h * (10.427508642579134 * s1 + 242.28349177525817 * s6
                 + 165.20045171727028 * s7 - 374.5467547226902 * s8
                 - 22.113666853125306 * s9 + 7.733432668472264 * s10
                 - 30.674084731089398 * s11 - 9.332130526430229 * s12
                 + 15.697238121770845 * s13 - 31.139403219565178 * s14
                 - 9.35292435884448 * s15 + 35.81684148639408 * s16),
            h * (19.985053242002433 * s1 - 387.0373087493518 * s6
                 - 189.17813819516758 * s7 + 527.8081592054236 * s8
                 - 11.57390253995963 * s9 + 6.8812326946963 * s10
                 - 1.0006050966910838 * s11 + 0.7777137798053443 * s12
                 - 2.778205752353508 * s13 - 60.19669523126412 * s14
                 + 84.32040550667716 * s15 + 11.99229113618279 * s16),
            h * (-25.69393346270375 * s1 - 154.18974869023643 * s6
                 - 231.5293791760455 * s7 + 357.6391179106141 * s8
                 + 93.40532418362432 * s9 - 37.45832313645163 * s10
                 + 104.0996495089623 * s11 + 29.8402934266605 * s12
                 - 43.53345659001114 * s13 + 96.32455395918828 * s14
                 - 39.17726167561544 * s15 - 149.72683625798564 * s16),
        ))
    return rows


def _interpolate(rows, x: float) -> list:
    """The dense output at the fraction x of its step."""
    x1 = 1.0 - x
    return [
        yi + x * (f0 + x1 * (f1 + x * (f2 + x1 * (f3 + x * (f4 + x1 * (f5 + x * f6))))))
        for yi, f0, f1, f2, f3, f4, f5, f6 in rows
    ]
