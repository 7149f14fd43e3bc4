"""What the tests read off charts and center-manifold series, and no run needs.

:func:`inverse_transform` and :func:`forward_point` evaluate a chart's
recorded monomial inverse (``ChartField.inverse``) both ways: the tests'
oracle for where a chart point sits in the base system.
:func:`per_sample_center_flow` is the reference for the batched center-flow
run.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from horizon.casebook import _fit_row
from horizon.compactify import ChartField
from horizon.errors import DomainError
from horizon.genpoly import GenPoly, format_genpoly, frac
from horizon.localanalysis import _substitute_series, center_manifold_series_1d
from horizon.rates import fit_rate


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

    The reference for ``casebook._run_center_flow``: its previous text, which
    calls compiled polynomials once or twice per sample on numpy scalars.

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
