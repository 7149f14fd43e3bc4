"""What the tests read off charts and center-manifold series, and no run needs.

:func:`inverse_transform` and :func:`forward_point` evaluate a chart's
recorded monomial inverse (``ChartField.inverse``) both ways: the tests'
oracle for where a chart point sits in the base system.
"""

import math
from typing import Mapping, Sequence

import numpy as np

from horizon.compactify import ChartField
from horizon.errors import DomainError
from horizon.genpoly import frac


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
