# This module ports two SciPy routines and keeps SciPy's notice:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""DOP853 dense output and QUADPACK's QAGS, as SciPy computes them.

:func:`dop853` is ``scipy.integrate.solve_ivp(fun, (0, T), y0,
method="DOP853", rtol=rtol, atol=atol, dense_output=True).sol(nodes)`` for an
autonomous field, forward in time (E. Hairer, S. P. Norsett, G. Wanner,
*Solving Ordinary Differential Equations I: Nonstiff Problems*, Sec. II).
Every numpy call is the one SciPy makes, on arrays of the same shapes and
layouts, so the values agree bit for bit.

:func:`qags` is QUADPACK's ``dqagse`` with ``dqk21``, ``dqpsrt`` and
``dqelg`` (R. Piessens, E. de Doncker-Kapenga, C. W. Ueberhuber,
D. K. Kahaner, *QUADPACK: A Subroutine Package for Automatic Integration*,
1983), which ``scipy.integrate.quad`` runs on a finite interval, in
QUADPACK's operation order on Python floats.

Only what :mod:`horizon.quasitrig` and
:func:`horizon.localanalysis.horizon_orbit` use is here: no events, step
bound, backward direction, vectorised field or other rule.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["dop853", "qags"]

# -- DOP853 --------------------------------------------------------------------

_N_STAGES = 12
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8  # error estimator order 7

# Butcher rows 1-15, each up to its diagonal: rows 1-11 are the stages, row 12
# the solution weights B, rows 13-15 the extra stages of the dense output.
_A = np.zeros((16, 16))
for _i, _row in enumerate([
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0.0, 0.08876275643042054],
    [0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325],
    [-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987],
], start=1):
    _A[_i, :_i] = _row
_B = _A[_N_STAGES, :_N_STAGES]
_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
])
_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
])
# dense-output rows 3-6 (rows 0-2 come from the step's ends)
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, T, rtol, atol):
    """|h| of the first step (SciPy's ``select_initial_step``)."""
    scale = atol + np.abs(y0) * rtol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, T)
    f1 = fun(y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, T)


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, _E5) / scale
    err3 = np.dot(K.T, _E3) / scale
    err5_norm_2 = np.linalg.norm(err5) ** 2
    err3_norm_2 = np.linalg.norm(err3) ** 2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def _evaluate(x, F, y_old):
    """The step's interpolant at fractions x of the step, one row each."""
    x = x[:, None]
    y = np.zeros((len(x), len(y_old)))
    for i, f in enumerate(reversed(F)):
        y += f
        if i % 2 == 0:
            y *= x
        else:
            y *= 1 - x
    y += y_old
    return y


def dop853(fun, y0, T: float, rtol: float, atol: float, nodes: np.ndarray) -> np.ndarray:
    """Solve y' = fun(y), y(0) = y0 over [0, T] and return y at ``nodes``.

    ``fun`` maps a float64 array y to the derivative's float64 array;
    ``nodes`` ascend within [0, T].  The result has one row per component
    and one column per node, as SciPy's ``OdeSolution`` returns it: a node
    on a step boundary is read from the earlier step.  A step size below ten
    ulps of t raises ``ArithmeticError``.
    """
    y = np.asarray(y0, dtype=float)
    n = y.size
    # atol is a 0-d array and the time a Python float, as in solve_ivp
    atol = np.asarray(atol)
    t = 0.0
    f = fun(y)
    h_abs = _initial_step(fun, y, f, T, rtol, atol)
    K_extended = np.empty((16, n))
    K = K_extended[:_N_STAGES + 1]
    ts, steps = [t], []
    while t < T:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        step_rejected = False
        while True:
            if h_abs < min_step:
                raise ArithmeticError(f"DOP853 step size fell below {float(min_step)!r} "
                                      f"at t = {float(t)!r}")
            t_new = t + h_abs
            if t_new - T > 0:
                t_new = T
            h = t_new - t
            h_abs = np.abs(h)
            K[0] = f
            for s, a in enumerate(_A[1:_N_STAGES], start=1):
                dy = np.dot(K[:s].T, a[:s]) * h
                K[s] = fun(y + dy)
            y_new = y + h * np.dot(K[:-1].T, _B)
            f_new = fun(y_new)
            K[-1] = f_new
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                if error_norm == 0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
                if step_rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * error_norm ** _ERROR_EXPONENT)
            step_rejected = True
        # the three extra stages and the interpolant's coefficients
        for s, a in enumerate(_A[_N_STAGES + 1:], start=_N_STAGES + 1):
            dy = np.dot(K_extended[:s].T, a[:s]) * h
            K_extended[s] = fun(y + dy)
        F = np.empty((7, n))
        delta_y = y_new - y
        F[0] = delta_y
        F[1] = h * K_extended[0] - delta_y
        F[2] = 2 * delta_y - h * (f_new + K_extended[0])
        F[3:] = h * np.dot(_D, K_extended)
        steps.append((t, t_new - t, F, y))
        t, y, f = t_new, y_new, f_new
        ts.append(t)

    out = np.empty((len(nodes), n))
    segment = np.searchsorted(np.array(ts), nodes, side="left") - 1
    np.clip(segment, 0, len(steps) - 1, out=segment)
    cuts = [0, *(np.flatnonzero(np.diff(segment)) + 1).tolist(), len(nodes)]
    for start, end in zip(cuts, cuts[1:]):
        t_old, step, F, y_old = steps[segment[start]]
        out[start:end] = _evaluate((nodes[start:end] - t_old) / step, F, y_old)
    return out.T


# -- QAGS ----------------------------------------------------------------------

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# 21-point Kronrod abscissae (the even ones are the 10-point Gauss nodes),
# then the Kronrod and Gauss weights
_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
        0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
        0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
        0.14887433898163122, 0.0)
_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
        0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
        0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
        0.14773910490133849, 0.1494455540029169)
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)


def _qk21(f, a, b):
    """``dqk21``: (result, abserr, resabs, resasc) of the 21-point rule."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)
    resg = 0.0
    fc = f(centr)
    resk = _WGK[10] * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    for j in range(5):
        jtw = 2 * j + 1
        absc = hlgth * _XGK[jtw]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtw] = fval1
        fv2[jtw] = fval2
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[jtw] * fsum
        resabs = resabs + _WGK[jtw] * (abs(fval1) + abs(fval2))
    for j in range(5):
        jtwm1 = 2 * j
        absc = hlgth * _XGK[jtwm1]
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[jtwm1] = fval1
        fv2[jtwm1] = fval2
        fsum = fval1 + fval2
        resk = resk + _WGK[jtwm1] * fsum
        resabs = resabs + _WGK[jtwm1] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[10] * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """``dqpsrt``: keep ``iord`` descending in error; return the interval to
    bisect next, its error and the new ``nrmax`` (1-based, as in Fortran)."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    if nrmax != 1:
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax here, then errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """``dqelg``: one step of the epsilon algorithm on ``epstab[1..n]``.

    Returns the new n, the extrapolated value, its error estimate and the
    new call count ``nres``; ``epstab`` and ``res3la`` change in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 agree to machine accuracy
                result = res
                abserr = err2 + err3
                converged = True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        if not converged:
            # shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if (num // 2) * 2 == num else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                indx = num - n + 1
                for i in range(1, n + 1):
                    epstab[i] = epstab[indx]
                    indx += 1
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1] = res3la[2]
                res3la[2] = res3la[3]
                res3la[3] = result
    abserr = max(abserr, 5.0 * _EPMACH * abs(result))
    return n, result, abserr, nres


def _ieee_div(x, y):
    """x / y with IEEE results for y == 0, as Fortran computes it."""
    if y != 0.0:
        return x / y
    if x == 0.0 or math.isnan(x):
        return math.nan
    return math.copysign(math.inf, x) * math.copysign(1.0, y)


def qags(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """``dqagse``: the integral of f over [a, b] by adaptive 21-point
    Gauss-Kronrod bisection with epsilon-algorithm extrapolation.

    Returns ``(result, abserr, neval, ier, last)`` as QUADPACK defines them
    (``ier`` 0 on success; 1 the subdivision limit, 2 roundoff, 3 bad
    integrand behaviour, 4 no convergence of the extrapolation, 5 probably
    divergent, 6 invalid input).  ``limit`` must be at least 1.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    # 1-based work arrays, as in Fortran; index 0 is unused
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 0, 6, 0

    ier = 0
    ierro = 0
    result, abserr, defabs, resabs = _qk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, 42 * last - 21, ier, last

    rlist2 = [0.0] * 56
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1

    final = "sum"  # the loop ends by a jump: to "sum" or to "check"
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk21(f, a1, b1)
        area2, error2, resabs, defab2 = _qk21(f, a2, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            final = "sum"
            break
        if ier != 0:
            final = "check"
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to bisect next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: first bisect the
            # larger intervals further down the list, if any
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                final = "check"
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            final = "check"
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if final == "check":
        # set the final result and error estimate
        if abserr == _OFLOW:
            final = "sum"
        elif ier + ierro == 0:
            final = "divergence"
        else:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                final = "sum" if abserr / abs(result) > errsum / abs(area) else "divergence"
            elif abserr > errsum:
                final = "sum"
            elif area == 0.0:
                final = "done"
            else:
                final = "divergence"
    if final == "divergence":
        if not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
            ratio = _ieee_div(result, area)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    elif final == "sum":
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier = ier - 1
    return result, abserr, 42 * last - 21, ier, last
