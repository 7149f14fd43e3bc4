"""What the tests read off charts and center-manifold series, and no run needs.

:func:`interpreted_eval` is the per-term interpreter of ``GenPoly.eval``,
the reference for its compiled text.
:func:`jacobian` (fresh partials at every point) and
:func:`_quasipolar_numeric_jacobian` (a central difference in (r, theta))
are the previous Jacobians of the local analysis, the references for
``ChartField.jacobian``.
:func:`inverse_transform` and :func:`forward_point` evaluate a chart's
recorded monomial inverse (``ChartField.inverse``) both ways: the tests'
oracle for where a chart point sits in the base system.
:func:`per_sample_center_flow` is the reference for the batched center-flow
run.  :func:`picard_center_manifold_series_1d` and
:func:`fraction_substitute_series` are the references for the order-by-order
center-manifold solve and its integer-lattice substitution.
:func:`scipy_period` and :func:`scipy_table` build the quasi-trigonometric
period and table with scipy, the references for the in-repo DOP853 and
QUADPACK ports.
:func:`lienard_coefficients` (with :class:`LienardCoefficients` and
:func:`_wrap`) is the previous return-map quadrature of the Lienard horizon
orbit, hand-derived for that field and run on scipy's ``solve_ivp`` and
``CubicSpline``: the reference for ``localanalysis.horizon_orbit``.
:func:`concatenated_times` and :func:`concatenated_suffix_sums` are the
cumulative and suffix sums of a trajectory's increments by concatenation,
the references for the in-place sums of ``Trajectory.t`` and
``dynamics._suffix_sums``.
:func:`type_one_field` generates a random planar field with a hyperbolic
sink on its horizon, as spec text, with the rate, rate constant and
correction exponent it must blow up with (:class:`TypeOneField`).
:func:`per_start_newton` runs the previous Newton iteration,
:func:`_damped_newton` on :func:`_solve`, from one start at a time: the
reference for the lockstep search of ``localanalysis._lockstep_newton``.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from horizon.casebook import _fit_row
from horizon.compactify import ChartField
from horizon.errors import DegenerateBeyondDegreeError, DomainError
from horizon.genpoly import GenPoly, format_genpoly, frac
from horizon.localanalysis import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ZERO_TOL_SCALE,
    _NO_VALUE,
    CenterSeries,
    _invert_coeff,
    _norm,
    _substitute_series,
    center_manifold_series_1d,
    classify,
)
from horizon.quasitrig import _NODES, QuasiTrigTable, table
from horizon.rates import fit_rate


def interpreted_eval(p: GenPoly, x: Sequence[float]) -> float:
    """The reference for ``GenPoly.eval``: its previous text, which walks
    the terms and powers one at a time with :func:`_real_pow`."""
    if len(x) != len(p.vars):
        raise ValueError("point dimension mismatch")
    total = 0.0
    for ev, c in p.terms:
        term = float(c)
        for xi, e, name in zip(x, ev, p.vars):
            if e == 0:
                continue
            term *= _real_pow(float(xi), e, name)
        total += term
    if math.isnan(total):
        raise DomainError("evaluation produced NaN")
    return total


def _real_pow(x: float, e: Fraction, name: str) -> float:
    if e.denominator == 1:
        n = int(e)
        if x == 0.0:
            if n < 0:
                raise DomainError(f"negative power of {name}=0")
            return 0.0
        return x**n
    if x < 0.0:
        raise DomainError(f"fractional power of negative {name}={x}")
    if x == 0.0:
        if e < 0:
            raise DomainError(f"negative power of {name}=0")
        return 0.0
    return x ** float(e)


def jacobian(components: Sequence[GenPoly], vars: Sequence[str], point) -> np.ndarray:
    J = np.empty((len(components), len(vars)))
    for i, comp in enumerate(components):
        for j, v in enumerate(vars):
            J[i, j] = comp.partial(v).eval(point)
    return J


def _quasipolar_numeric_jacobian(C: ChartField, r, th, h=1e-7):
    def f(state):
        return np.array(C.eval_components(state))

    J = np.empty((2, 2))
    for j, (dr, dth) in enumerate(((h, 0.0), (0.0, h))):
        hi = f([r + dr, th + dth])
        lo = f([r - dr, th - dth])
        J[:, j] = (hi - lo) / (2 * h)
    return J


def _truncate(p: GenPoly, degree) -> GenPoly:
    return GenPoly(p.vars, {ev: c for ev, c in p.terms if ev[0] <= degree})


def inverse_transform(C: ChartField, state: Sequence[float]) -> dict[str, float]:
    """Map a chart point back to base coordinates: the recorded monomial
    inverse evaluated over the chart's polynomial variables (Cs, Sn of the
    angle on a quasi-polar chart)."""
    point = dict(zip(C.poly_vars, C.state_to_poly_point(state)))
    out = {}
    for bv, m in C.inverse:
        val = float(m.coeff)
        for v, e in m.exps:
            x = point[v]
            if x == 0.0 and e < 0:
                raise DomainError(f"inverse transform undefined at {v} = 0")
            if x < 0.0 and e.denominator != 1:
                raise DomainError(f"inverse transform undefined at {v} < 0")
            val *= float(x) ** float(e)
        out[bv] = val
    return out


def forward_point(C: ChartField, base_point: Mapping[str, float]) -> list[float]:
    """Map a base point into the chart (numeric inverse of inverse_transform,
    valid for monomial chains)."""
    if C.quasipolar_index is not None:
        raise ValueError("forward mapping into quasi-polar charts is not monomial")

    # Solve the monomial system log|base| = E log|chart| for log|chart|.
    names = list(C.vars)
    n = len(names)
    rows, rhs, signs = [], [], {}
    for bv, m in C.inverse:
        row = [0.0] * n
        for v, e in m.exps:
            row[names.index(v)] = float(e)
        rows.append(row)
        val = base_point[bv] / float(m.coeff)
        rhs.append(math.log(abs(val)))
        signs[bv] = 1.0 if val > 0 else -1.0
    sol = np.linalg.solve(np.array(rows), np.array(rhs))
    state = [math.exp(s) for s in sol]
    # signs: positive-sector charts only; reject genuine sign mismatches
    chk = inverse_transform(C, state)
    for bv, target in base_point.items():
        if bv not in chk:
            continue  # variable eliminated by a restriction step
        if abs(chk[bv] - target) > 1e-9 * max(1.0, abs(target)):
            raise DomainError(
                f"base point {dict(base_point)} is outside this chart's sector"
            )
    return state


def horizon_is_invariant(C: ChartField) -> bool:
    """Every term of the radial component carries a positive radial power."""
    e = C.components[C.vars.index(C.radial)].min_exponent(C.radial)
    return e is None or e >= 1


def h_coefficient(series, power):
    """The coefficient of ``x_c^power`` in a center manifold's graph h."""
    return dict(series.coefficients.terms).get((frac(power),), 0)


def per_sample_center_flow(cdef, plan):
    """Sample the frame coordinate along the analytically reduced center flow.

    The reference for ``casebook._execute_run`` on a center-flow run: the
    previous text of that run, which calls compiled polynomials once or
    twice per sample on numpy scalars.

    Near the degenerate equilibrium at the chart origin the transverse
    direction is exponentially unstable backward in time, so instead of
    integrating toward it the run solves the invariance equation, restricts
    the full field and the time chain to the manifold, and quadratures
    s(x) = int chain / speed dx.  The measured exponent comes from the
    actual field, not the predicted rate.
    """
    chart = cdef.chart
    series = center_manifold_series_1d(chart, plan.center_degree)
    cvar, svar = series.center_var, series.stable_var

    def on_manifold(p):  # p restricted to the manifold, compiled
        return _substitute_series(p, cvar, svar, series.coefficients,
                                  series.degree + 4).compile()

    chain_prod = GenPoly.const(chart.poly_vars, 1)
    for f in chart.time_chain:
        chain_prod = chain_prod * f
    speed = series.reduced_flow
    chain_fn = on_manifold(chain_prod)
    speed_fn = speed.compile()

    xs = np.geomspace(1e-12, 1e-4, 400)
    # s(x) = int_0^x chain(u)/speed(u) du; substitute u = z^q with q the
    # exponent-lattice denominator so the integrand is smooth at 0
    q = max(int(e.denominator) for ev, _ in speed.terms for e in ev)
    nodes, weights = np.polynomial.legendre.leggauss(24)

    def seg_integral(z0, z1):
        mid = 0.5 * (z0 + z1)
        half = 0.5 * (z1 - z0)
        z = mid + half * nodes
        u = z**q
        vals = np.array([
            chain_fn(ui) / speed_fn(ui) * q * zi ** (q - 1)
            for ui, zi in zip(u, z)
        ])
        return float(half * (weights @ vals))

    zs = xs ** (1.0 / q)
    s = np.empty(len(xs))
    acc = seg_integral(0.0, zs[0])
    s[0] = acc
    for i in range(1, len(zs)):
        acc += seg_integral(zs[i - 1], zs[i])
        s[i] = acc
    verdicts, fits = [], []
    for obs in plan.observables:
        yfn = on_manifold(obs.expr)
        y = np.array([yfn(x) for x in xs])
        fits.append(_fit_row(obs, fit_rate(s, y), verdicts))
    return {
        "label": plan.label,
        "sampler": "center-flow",
        "termination": "center-flow",
        "series": {
            "center_var": cvar,
            "d": str(series.d),
            "c_d": float(series.c_d),
            "h": format_genpoly(series.coefficients),
            "exact": series.exact,
        },
        "fits": fits,
        "verdicts": verdicts,
    }


def picard_center_manifold_series_1d(C: ChartField, degree=6) -> CenterSeries:
    """The reference for ``center_manifold_series_1d``: its previous text,
    which re-runs the whole Picard map of the invariance equation until
    ``new_h == h``, with :func:`fraction_substitute_series`.
    """
    if len(C.vars) != 2:
        raise ValueError("center-manifold series needs a planar chart")
    degree = frac(degree)
    comps, vars = C.components, C.vars
    J = jacobian(comps, vars, [0.0, 0.0])
    label, *_ = classify(J)
    if label != "semi-hyperbolic":
        raise ValueError(f"equilibrium is {label}, not semi-hyperbolic")
    # center direction must be a coordinate axis: the Jacobian column of the
    # center variable vanishes
    norm = abs(J).max()
    tol = ZERO_TOL_SCALE * (1.0 + norm)
    if abs(J[:, 0]).max() <= tol:
        c_idx, s_idx = 0, 1
    elif abs(J[:, 1]).max() <= tol:
        c_idx, s_idx = 1, 0
    else:
        raise ValueError("center direction is not a coordinate axis")

    cvar, svar = vars[c_idx], vars[s_idx]
    Fc, Fs = comps[c_idx], comps[s_idx]
    exact = all(
        isinstance(c, (int, Fraction)) for p in comps for _, c in p.terms
    )
    # the linear transverse coefficient, kept exact when the field is exact
    lam_c = 0 if exact else 0.0
    for ev, c in Fs.terms:
        if ev[s_idx] == 1 and ev[c_idx] == 0:
            lam_c = lam_c + c
    if lam_c == 0:
        raise ValueError("transverse eigenvalue vanished symbolically")

    # G_s = F_s - lam * x_s
    Gs = Fs - GenPoly.var(vars, svar, 1, lam_c)

    h = GenPoly((cvar,), {})
    for _ in range(_iteration_budget(comps, degree)):
        Fc_h = fraction_substitute_series(Fc, cvar, svar, h, degree)
        Gs_h = fraction_substitute_series(Gs, cvar, svar, h, degree)
        hprime = h.partial(cvar)
        rhs = _truncate(hprime * Fc_h - Gs_h, degree)
        new_h = rhs * _invert_coeff(lam_c)
        if new_h == h:
            break
        h = new_h
    # sanity: h(0) = h'(0) = 0
    for ev, c in h.terms:
        if ev[0] <= 1:
            raise ArithmeticError(f"center series has low-order term {ev}: {c}")

    reduced = _truncate(fraction_substitute_series(Fc, cvar, svar, h, degree), degree)
    if reduced.is_zero():
        raise DegenerateBeyondDegreeError(
            f"reduced flow vanishes to degree {degree}",
            series=CenterSeries(cvar, svar, h, reduced, frac(0), 0, degree, exact),
        )
    ev0, c0 = reduced.terms[0]
    return CenterSeries(
        center_var=cvar,
        stable_var=svar,
        coefficients=h,
        reduced_flow=reduced,
        d=ev0[0],
        c_d=c0,
        degree=degree,
        exact=exact,
    )


def _iteration_budget(comps, degree) -> int:
    dens = [int(e.denominator) for p in comps for ev, _ in p.terms for e in ev]
    q = max(dens) if dens else 1
    return int(4 * float(degree) * q) + 8


def fraction_substitute_series(p: GenPoly, cvar, svar, h: GenPoly, degree) -> GenPoly:
    """The reference for ``_substitute_series``: its previous text, on
    Fraction exponent keys with whole products truncated afterwards."""
    hpow_cache = {0: GenPoly((cvar,), {(frac(0),): 1})}

    def hpow(n):
        if n not in hpow_cache:
            hpow_cache[n] = _truncate(hpow(n - 1) * h, degree)
        return hpow_cache[n]

    ci = p.vars.index(cvar)
    si = p.vars.index(svar)
    acc = GenPoly((cvar,), {})
    for ev, c in p.terms:
        es = ev[si]
        if es.denominator != 1 or es < 0:
            raise ValueError("transverse exponents must be nonnegative integers")
        base = GenPoly((cvar,), {(ev[ci],): c})
        acc = acc + _truncate(base * hpow(int(es)), degree)
    return acc


def scipy_period(l: int) -> float:
    """The reference for ``quasitrig.period``: its previous text, with
    scipy's QUADPACK."""
    if l < 1 or int(l) != l:
        raise ValueError("l must be a positive integer")
    l = int(l)
    if l == 1:
        return 2.0 * math.pi
    from scipy.integrate import quad

    def smooth(u):
        s = 1.0 - u * u
        return 4.0 * l * u / math.sqrt(1.0 - s ** (2 * l))

    val, err = quad(smooth, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12, limit=200)
    return 2.0 / math.sqrt(l) * val


def scipy_table(l: int) -> QuasiTrigTable:
    """The reference for ``quasitrig.table``: its previous text, with
    scipy's DOP853 and :func:`scipy_period`."""
    from scipy.integrate import solve_ivp

    l = int(l)
    T = scipy_period(l)
    m = 2 * l - 1

    def rhs(_, y):
        return [-y[1], y[0] ** m]

    nodes = np.linspace(0.0, T, _NODES + 1)
    sol = solve_ivp(
        rhs,
        (0.0, T),
        [1.0, 0.0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-14,
        dense_output=True,
    )
    vals = sol.sol(nodes)
    cs = np.ascontiguousarray(vals[0])
    sn = np.ascontiguousarray(vals[1])
    # pin the endpoints to the exact periodic values
    cs[-1], sn[-1] = 1.0, 0.0
    return QuasiTrigTable(l, T, cs, sn)


@dataclass(frozen=True)
class LienardCoefficients:
    """Quadrature data controlling the periodic orbit on the horizon.

    alpha is the Poincare-map exponent (first-order return coefficient
    beta1 = e^alpha); -alpha is the exponent of the near-identity radial
    change that removes the first-order angular modulation of the return map
    (it is negative on (0, T/2), zero at T/2 and T).  Gamma2 is the
    second-order integrand whose period integral Gamma_T > 0 drives the
    attraction (beta2(T) < 0) and the linear growth of its running integral.
    """

    n: int
    T: float
    alpha: Callable[[float], float]
    beta1_T: float
    beta2_T: float
    Gamma_T: float
    C2: float                     # pointwise bound on Gamma2
    C3: float                     # slope of the running integral, Gamma_T / T


def lienard_coefficients(n: int) -> LienardCoefficients:
    """Quadratures of the periodic-orbit coefficients for odd n.

    gamma1 = Sn^2 Cs^n, gamma2 = Sn Cs^2n + gamma1 Cs^(2n+1)/(1 - Sn Cs^(n+1)),
    all divided by 1 - Sn Cs^(n+1) where they enter; computed by one
    high-accuracy integration pass over [0, T] with dense output.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError("n must be an odd positive integer")
    from scipy.integrate import solve_ivp
    from scipy.interpolate import CubicSpline

    l = n + 1
    tab = table(l)
    T = tab.T

    def parts(phi):
        c, s = tab.lookup(phi)
        den = 1.0 - s * c ** (n + 1)
        g1 = s * s * c**n
        G1 = g1 / den
        g2 = s * c ** (2 * n) + g1 * c ** (2 * n + 1) / den
        G2 = g2 / den
        return G1, G2

    def rhs(phi, y):
        G1, G2 = parts(phi)
        alpha = y[0]
        # y = [alpha, int e^alpha G2, int G2, int (e^alpha - 1) G2]; the last
        # is read nowhere, but it takes part in DOP853's error norm, so it
        # sets the steps and the bits of beta2_T
        ea = math.exp(alpha)
        return [G1, ea * G2, G2, (ea - 1.0) * G2]

    nodes = np.linspace(0.0, T, 4097)
    sol = solve_ivp(
        rhs,
        (0.0, T),
        [0.0, 0.0, 0.0, 0.0],
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=True,
    )
    vals = sol.sol(nodes)
    alpha_sp = CubicSpline(nodes, vals[0])

    alpha_T = float(vals[0, -1])
    Gamma_T = float(vals[2, -1])
    beta2_T = -math.exp(alpha_T) * float(vals[1, -1])
    C2 = float(max(abs(parts(p)[1]) for p in np.linspace(0, T, 2001)))

    def alpha(phi):
        return float(alpha_sp(_wrap(phi, T)))

    return LienardCoefficients(
        n=n,
        T=T,
        alpha=alpha,
        beta1_T=math.exp(alpha_T),
        beta2_T=beta2_T,
        Gamma_T=Gamma_T,
        C2=C2,
        C3=Gamma_T / T,
    )


def _wrap(phi, T):
    x = math.fmod(phi, T)
    return x + T if x < 0 else x


def concatenated_times(incs) -> np.ndarray:
    """The reference for ``Trajectory.t``: 0 and the running sums of ``incs``."""
    return np.concatenate([[0.0], np.cumsum(np.asarray(incs))]) if len(incs) else np.zeros(1)


def concatenated_suffix_sums(dt_inc) -> np.ndarray:
    """The reference for ``dynamics._suffix_sums``: the sum of ``dt_inc``
    from each sample to the end, 0 at the last."""
    return np.concatenate([np.cumsum(dt_inc[::-1])[::-1], [0.0]])


@dataclass(frozen=True)
class TypeOneField:
    """A field of type (1, 1) and order ``k + 1`` as spec text, and what its
    x > 0 directional chart makes of it after ``desingularize``: the horizon
    sink (0, ``u_star``) with radial rate ``-lam`` and transverse rate
    ``-h0``, and the power ``i`` of the lower-order term ``c x^i`` of x'."""

    seed: int
    k: int
    lam: Fraction
    h0: Fraction
    u_star: Fraction
    i: int
    spec: str

    @property
    def C(self) -> float:
        """x ~ C s^(-1/k) at the sink: r decays like exp(-lam tau) and the
        time chain is r^k, so s = r^k / (k lam)."""
        return float(self.k * self.lam) ** (-1.0 / self.k)

    @property
    def correction(self) -> float:
        """The exponent of the slowest correction to that power law in s: the
        transverse one, h0 / (k lam), or the lower-order term's, (k+1-i)/k."""
        return min(float(self.h0 / (self.k * self.lam)), (self.k + 1 - self.i) / self.k)


def type_one_field(seed: int) -> TypeOneField:
    """A random type-I field, drawn with ``random.Random(seed)``.

    x' = P and y' = Q with P homogeneous of degree k+1 but for one lower
    term c x^i (i <= k), and Q = x^(k+1) g(y/x) + y P_h / x, P_h the
    homogeneous part, g(u) = h0 (u* - u).  In u = y/x, r = 1/x and after
    multiplying by r^k: r' = -r (P(1, u) + c r^(k+1-i)), u' = g(u) - c u
    r^(k+1-i).  k is 1, 2 or 3; the coefficients p_1..p_k of
    x^(k+1-j) y^j and c are nonzero quarters in [-1/2, 1/2], u* a quarter
    in [-1, 1], lam and h0 quarters in [1/2, 2], and p_0 makes
    P_h(1, u*) = lam.  The run starts at r = 1/10, u = u* +- 1/10 and
    expects rho = 1/k, q = 0.
    """
    rng = random.Random(seed)
    k = rng.choice((1, 2, 3))
    u_star = Fraction(rng.randint(-4, 4), 4)
    lam, h0 = Fraction(rng.randint(2, 8), 4), Fraction(rng.randint(2, 8), 4)
    p = [Fraction(rng.choice((-2, -1, 1, 2)), 4) for _ in range(k + 1)]
    p[0] = lam - sum(p[j] * u_star**j for j in range(1, k + 1))
    i, c = rng.randint(0, k), Fraction(rng.choice((-2, -1, 1, 2)), 4)
    vars = ("x", "y")

    def ev(a, b):
        return (Fraction(a), Fraction(b))

    P = GenPoly(vars, [(ev(k + 1 - j, j), p[j]) for j in range(k + 1)] + [(ev(i, 0), c)])
    Q = GenPoly(vars, [(ev(k + 1, 0), h0 * u_star), (ev(k, 1), -h0)]
                + [(ev(k - j, j + 1), p[j]) for j in range(k + 1)])
    u0 = u_star + rng.choice((-1, 1)) * Fraction(1, 10)
    spec = (f"name type1-{seed}\nvar x\nvar y\n"
            f"field x : {format_genpoly(P)}\nfield y : {format_genpoly(Q)}\n"
            f"type 1 1\norder {k}\n"
            "transform directional index=x sign=+\ntransform desingularize\n"
            f"initial r=1/10 y={u0}\ntau-end 60\nwindow 1e-10 1e-4\n"
            f"equilibrium 0 {u_star}\n"
            f"observable x : r^(-1) expect rho={Fraction(1, k)} q=0\n")
    return TypeOneField(seed, k, lam, h0, u_star, i, spec)


# -- the Newton search one start at a time --------------------------------------


def _solve(J, b):
    return np.linalg.solve(J, b).tolist()


def _damped_newton(F, JF, x, clip):
    """Damped Newton iterated until the step stalls, so multiple roots are
    followed all the way in instead of stopping on their flat residual basin.
    Returns the root or None."""
    try:
        fx = F(x)
    except _NO_VALUE:
        return None
    nf = _norm(fx)
    for _ in range(NEWTON_MAX_ITER):
        try:
            step = _solve(JF(x), [-v for v in fx])
        except (np.linalg.LinAlgError, *_NO_VALUE):
            break
        if not all(map(math.isfinite, step)):
            break
        lam, improved, stalled = 1.0, False, False
        for _ in range(8):
            cand = [xi + lam * si for xi, si in zip(x, step)]
            for i, c in enumerate(clip):
                if c and cand[i] < 0.0:
                    cand[i] = 0.0
            try:
                fc = F(cand)
            except _NO_VALUE:
                lam *= 0.5
                continue
            nc = _norm(fc)
            if nc < nf:
                stalled = _norm([c - xi for c, xi in zip(cand, x)]) <= 1e-14 * (
                    1.0 + _norm(x)
                )
                x, fx, nf = cand, fc, nc
                improved = True
                break
            lam *= 0.5
        if not improved or stalled:
            break
    if nf <= NEWTON_TOL * (1.0 + _norm(x)):
        return x
    return None


def per_start_newton(components, grads, starts, clip):
    """:func:`_damped_newton` from each start in turn, on the ``GenPoly.eval``
    residuals and Jacobians the search took before it ran in lockstep."""
    def F(x):
        return [comp.eval(x) for comp in components]

    def JF(x):
        return [[g.eval(x) for g in row] for row in grads]

    return [_damped_newton(F, JF, x0, clip) for x0 in starts]
