"""Equilibria, classification, center manifolds, periodic-orbit coefficients."""

import ast
import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horizon import casebook
from horizon.casebook import equilibrium_search, get_case
from horizon.cli import _parse_number, parse_spec_file
from horizon.compactify import (
    CS,
    SN,
    ChartField,
    base_field,
    blowup_chart,
    desingularize,
    directional_compactify,
    horizon_slice,
    quasi_polar_compactify,
    time_rescale,
)
from horizon.dynamics import integrate
from horizon.errors import DegenerateBeyondDegreeError, DomainError
from horizon.genpoly import GenMonomial, GenPoly, parse_genpoly
from horizon.localanalysis import (
    DEDUPE,
    N_STARTS,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    _binomial_roots,
    _equilibrium_record,
    _nearest_root,
    _norm,
    _needs_nonnegative,
    _solve,
    _substitute_series,
    _uniforms,
    center_manifold_series_1d,
    classify,
    cm_flow_asymptotics,
    equilibria_of,
    horizon_equilibria,
    horizon_orbit,
    type1_rate_prediction,
)
from horizon.quasitrig import table
from horizon.structure import TypeVector
from oracles import (
    _quasipolar_numeric_jacobian,
    _truncate,
    fraction_substitute_series,
    h_coefficient,
    interpreted_eval,
    lienard_coefficients,
    picard_center_manifold_series_1d,
)
from test_fused_stepper import LIENARD_REFERENCE


def gp(text, vars):
    return parse_genpoly(text, vars)


def iy_chart(a):
    vars = ("v0", "v1")
    e = (a + 1) / a
    C = base_field(
        vars,
        [GenPoly(vars, {(e, F(1)): a}), GenPoly(vars, {(F(1), e): a})],
        positive=vars,
        name="iy",
    )
    k = 1 + 1 / a
    return desingularize(directional_compactify(C, TypeVector.make((1, 1), k), "v0"), k)


def quench_chart(alpha, c):
    vars = ("phi", "psi")
    C = base_field(
        vars,
        [gp("psi", vars), gp(f"-{c}*psi - phi^(-{alpha})", vars)],
        positive=("phi",),
        name="quench",
    )
    D0 = time_rescale(C, GenMonomial.make(1, {"phi": alpha}))
    DC = directional_compactify(
        D0, TypeVector.make((1, 1), alpha), "psi", sign=-1, radial="lam"
    )
    return desingularize(DC, alpha)


class TestHorizonEquilibria:
    def test_two_point_horizon(self):
        eqs = horizon_equilibria(iy_chart(F(1, 2)))
        coords = [e.coords for e in eqs]
        assert len(coords) == 2
        assert coords[0] == pytest.approx((0.0, 0.0), abs=1e-10)
        assert coords[1] == pytest.approx((0.0, 1.0), abs=1e-10)
        assert eqs[0].classification == "linearly-zero"
        assert eqs[1].classification == "hyperbolic"
        # saddle: stable radially, unstable along the invariant line
        assert eqs[1].n_stable == 1 and eqs[1].n_unstable == 1
        ev = sorted(z.real for z in eqs[1].eigenvalues)
        assert ev[0] == pytest.approx(-0.5, abs=1e-9)
        assert ev[1] == pytest.approx(0.5, abs=1e-9)

    def test_ratio_chart_equilibria_with_negative_root(self):
        a, theta = 0.75, math.pi / 4
        ct = math.cos(theta)
        vars = ("u0", "u1")
        f1 = GenPoly(vars, {(F(2), F(2)): 1.0, (F(3), F(1)): 2 * (1 - a) * ct,
                            (F(4), F(0)): -4 * a * ct * ct})
        f2 = GenPoly(vars, {(F(1), F(3)): 1.0, (F(2), F(2)): 2 * a * ct})
        C = base_field(vars, [f1, f2], positive=vars, name="andrews1")
        D = desingularize(directional_compactify(C, TypeVector.make((1, 1), 3), "u1"), 3)
        # the second equilibrium sits at a negative ratio (outside the
        # physical sector but still an equilibrium of the chart field)
        eqs = horizon_equilibria(D)
        xs = sorted(e.coords[1] for e in eqs)
        x_star = (1 - 2 * a) / (2 * a * ct)
        assert len(xs) == 2
        assert xs[0] == pytest.approx(x_star, abs=1e-8)
        assert xs[1] == pytest.approx(0.0, abs=1e-10)
        origin = [e for e in eqs if abs(e.coords[1]) < 1e-9][0]
        assert origin.classification == "linearly-zero"

    def test_quench_alpha1_semi_hyperbolic_pair(self):
        eqs = horizon_equilibria(quench_chart(1, 1))
        assert len(eqs) == 2
        p0 = eqs[0]
        pc = eqs[1]
        assert p0.coords == pytest.approx((0.0, 0.0), abs=1e-10)
        assert pc.coords == pytest.approx((0.0, 1.0), abs=1e-9)
        assert p0.classification == "semi-hyperbolic"
        assert sorted(z.real for z in p0.eigenvalues) == pytest.approx([-1.0, 0.0], abs=1e-9)
        assert pc.classification == "hyperbolic"
        assert pc.n_unstable == 2  # source
        J = np.array(pc.jacobian)
        assert np.allclose(J, np.eye(2), atol=1e-9)

    def test_quench_alpha2_blowup_chart_saddle_and_sink(self):
        alpha, c = 2, 1
        DS = quench_chart(alpha, c)
        B = blowup_chart(DS, (alpha - 1, alpha + 1), "lam", radial="r")
        R = time_rescale(B, GenMonomial.make(1, {"r": -(alpha**2 - 1)}))
        eqs = horizon_equilibria(R)
        assert len(eqs) == 2
        p0, pa = eqs
        assert p0.coords == pytest.approx((0.0, 0.0), abs=1e-10)
        assert pa.coords == pytest.approx((0.0, 2.0), abs=1e-9)
        # Jacobians match the closed forms diag(-1/(a-1), 2/(a-1)), diag(-1/(a-1), -2)
        assert np.allclose(np.array(p0.jacobian), np.diag([-1.0, 2.0]), atol=1e-9)
        assert np.allclose(np.array(pa.jacobian), np.diag([-1.0, -2.0]), atol=1e-9)
        assert p0.classification == "hyperbolic" and p0.n_stable == 1
        assert pa.classification == "hyperbolic" and pa.n_stable == 2

    def test_degenerate_wave_origin_is_nilpotent(self):
        n, m, c = 2, 2, 1
        vars = ("phi", "psi")
        C = base_field(
            vars,
            [gp("psi", vars), gp(f"{n*c}*phi^{n} - {n}*phi^{m+n-1}", vars)],
            positive=("phi",),
            name="kdv",
        )
        eqs = equilibria_of(C, box={"phi": (-0.5, 1.5), "psi": (-0.5, 0.5)})
        origin = [e for e in eqs if abs(e.coords[0]) < 1e-9][0]
        assert origin.classification == "nilpotent"
        assert np.allclose(np.array(origin.jacobian), [[0, 1], [0, 0]], atol=1e-12)


class TestClassify:
    def test_scale_invariance(self):
        J = np.array([[0.0, 1.0], [0.0, -2.0]])
        for c in (1e-3, 1.0, 1e3):
            label, *_ = classify(c * J)
            assert label == "semi-hyperbolic"
        J2 = np.array([[0.0, 1.0], [0.0, 0.0]])
        for c in (1e-3, 1.0, 1e3):
            label, *_ = classify(c * J2)
            assert label == "nilpotent"

    def test_linearly_zero(self):
        label, ns, nu, nc, _ = classify(np.zeros((2, 2)))
        assert label == "linearly-zero"
        assert nc == 2

    def test_counts(self):
        label, ns, nu, nc, _ = classify(np.diag([-1.0, 2.0, -3.0]))
        assert label == "hyperbolic" and ns == 2 and nu == 1 and nc == 0

    def test_the_zero_tolerance_is_one_helper(self):
        # center_manifold_series_1d recomputed classify's ZERO_TOL_SCALE *
        # (1 + ||J||_inf) by hand; both now take it from _zero_tol
        from horizon import localanalysis
        tree = ast.parse(pathlib.Path(localanalysis.__file__).read_text(encoding="utf-8"))
        scaled = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for n in ast.walk(fn) if isinstance(n, ast.BinOp)
                  and getattr(n.left, "id", None) == "ZERO_TOL_SCALE"]
        assert scaled == ["_zero_tol"]
        J = np.array([[0.0, 0.5], [0.0, -3.0]])
        assert localanalysis._zero_tol(J) == (3.0, 1e-9 * (1.0 + 3.0))


class TestCenterManifold:
    def test_quench_alpha1_series_vanishes_exactly(self):
        # exact rational arithmetic: every coefficient through degree 4 is 0
        DS = quench_chart(1, 1)
        series = center_manifold_series_1d(DS, degree=6)
        assert series.exact
        for p in (2, 3, 4, 5, 6):
            assert h_coefficient(series, p) == 0
        assert series.d == 3
        assert series.c_d == -1
        assert series.center_var == "lam"

    def test_a_quasipolar_chart_is_refused_by_name(self):
        # lienard's (r, theta) chart ranges over (r, Cs, Sn): its Jacobian
        # at the origin failed with "point dimension mismatch"
        chart = get_case("lienard").definition().chart
        with pytest.raises(ValueError, match="planar chart without a quasi-polar angle"):
            center_manifold_series_1d(chart)

    def test_known_parabola_manifold_is_degenerate(self):
        # x1' = -x1^3 + x1 x2, x2' = -x2 + x1^2: h = x1^2 exactly and the
        # reduced flow vanishes identically (a curve of equilibria)
        vars = ("x1", "x2")
        C = base_field(vars, [gp("-x1^3 + x1*x2", vars), gp("-x2 + x1^2", vars)],
                       name="parabola")
        with pytest.raises(DegenerateBeyondDegreeError) as err:
            center_manifold_series_1d(C, degree=6)
        h = err.value.series.coefficients
        assert h == GenPoly(("x1",), {(F(2),): 1})

    def test_degenerate_wave_half_integer_lattice(self):
        # phi' = psi, psi' = -c psi - phi^N (1 - phi)(phi - a), N = m + p
        m, p = 2, F(1, 2)
        a, c = F(1, 4), 1
        N = m + p
        vars = ("phi", "psi")
        fN = GenPoly(vars, {(N, F(0)): -a, (N + 1, F(0)): 1 + a, (N + 2, F(0)): -1})
        C = base_field(vars, [gp("psi", vars), gp("-psi", vars) * c - fN],
                       positive=("phi",), name="fhn")
        series = center_manifold_series_1d(C, degree=5)
        assert series.exact
        # leading coefficient of the invariant graph is a/c at power N
        assert h_coefficient(series, N) == a / c
        assert series.d == N
        assert series.c_d == a / c
        # invariance residual vanishes through the truncation degree
        resid = _invariance_residual(C, series)
        assert resid.is_zero()

    def test_residual_property_quadratic_manifold(self):
        vars = ("x", "y")
        C = base_field(vars, [gp("-x^3 + x*y", vars), gp("-2*y + 5*x^2", vars)],
                       name="toy")
        series = center_manifold_series_1d(C, degree=8)
        assert _invariance_residual(C, series).is_zero()
        assert h_coefficient(series, 2) == F(5, 2)


def _invariance_residual(C, series):
    cvar, svar = series.center_var, series.stable_var
    Fc = C.components[list(C.vars).index(cvar)]
    Fs = C.components[list(C.vars).index(svar)]
    h = series.coefficients
    lhs = h.partial(cvar) * _substitute_series(Fc, cvar, svar, h, series.degree)
    rhs = _substitute_series(Fs, cvar, svar, h, series.degree)
    return _truncate(lhs - rhs, series.degree)


def _series_bits(series):
    """Every field of a CenterSeries, with each coefficient's type."""
    def terms(p):
        return [(ev, type(c), c) for ev, c in p.terms]

    return (series.center_var, series.stable_var, terms(series.coefficients),
            terms(series.reduced_flow), series.d, type(series.c_d), series.c_d,
            series.degree, series.exact)


def _solve_both(C, degree):
    out = []
    for solve in (center_manifold_series_1d, picard_center_manifold_series_1d):
        try:
            out.append(_series_bits(solve(C, degree)))
        except DegenerateBeyondDegreeError as err:
            out.append(("degenerate", _series_bits(err.series)))
    return out


def _wave_chart():
    vars = ("phi", "psi")
    N, a = 2 + F(1, 2), F(1, 4)
    fN = GenPoly(vars, {(N, F(0)): -a, (N + 1, F(0)): 1 + a, (N + 2, F(0)): -1})
    return base_field(vars, [gp("psi", vars), gp("-psi", vars) - fN],
                      positive=("phi",), name="fhn")


_CM_CHARTS = {
    "quench-alpha1": (lambda: quench_chart(1, 1), 6),
    "quench-alpha1-float-c": (lambda: quench_chart(1, 0.7), 6),
    "quench-case": (lambda: get_case("quench").definition({"alpha": 1}).chart, 6),
    "parabola": (lambda: base_field(
        ("x1", "x2"), [gp("-x1^3 + x1*x2", ("x1", "x2")), gp("-x2 + x1^2", ("x1", "x2"))],
        name="parabola"), 6),
    "wave": (_wave_chart, 5),
    "toy": (lambda: base_field(
        ("x", "y"), [gp("-x^3 + x*y", ("x", "y")), gp("-2*y + 5*x^2", ("x", "y"))],
        name="toy"), 8),
}


@pytest.mark.parametrize("name", sorted(_CM_CHARTS))
def test_order_by_order_series_matches_picard_map(name):
    build, degree = _CM_CHARTS[name]
    ours, ref = _solve_both(build(), degree)
    assert ours == ref


@pytest.mark.parametrize("a,c", [(F(1, 4), F(1)), (0.3, 0.7)], ids=["exact", "float"])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [F(1, 10), F(1, 4), F(1, 2), F(2, 3), F(3, 4), F(9, 10)])
def test_order_by_order_series_matches_picard_map_fhn(p, m, a, c):
    # the builder itself, since a case definition turns float parameters
    # into Fractions
    cdef = casebook._build_fhn(m, p, a, c)
    chart, degree = cdef.chart, cdef.runs[0].center_degree
    ours, ref = _solve_both(chart, degree)
    assert ours == ref
    assert ours[-1] is isinstance(a, F)  # CenterSeries.exact
    # the center-flow run restricts the time chain, the field and the
    # observables to the manifold at degree + 4 (CenterSeries.on_manifold),
    # and the reduced flow is the field's center component restricted at
    # the degree
    series = center_manifold_series_1d(chart, degree)
    h, cvar, svar = series.coefficients, series.center_var, series.stable_var
    chain = GenPoly.const(chart.poly_vars, 1)
    for f in chart.time_chain:
        chain = chain * f
    polys = [chain, *chart.components, *(obs.expr for obs in cdef.runs[0].observables)]
    for poly in polys:
        for deg in (series.degree, series.degree + 4):
            ours = _substitute_series(poly, cvar, svar, h, deg)
            ref = fraction_substitute_series(poly, cvar, svar, h, deg)
            assert [(ev, type(c), c) for ev, c in ours.terms] == [
                (ev, type(c), c) for ev, c in ref.terms]
        assert series.on_manifold(poly).terms == ours.terms


class TestCmAsymptotics:
    def test_quadratic_reduced_flow(self):
        asym = cm_flow_asymptotics(2, -1.0)
        assert asym.exponent == -1.0
        assert asym.constant == pytest.approx(1.0)

    def test_cubic_matches_both_constants(self):
        asym = cm_flow_asymptotics(3, -1.0)
        assert asym.constant == pytest.approx(1 / math.sqrt(2))
        assert asym.alt_constant == pytest.approx(1 / math.sqrt(2))

    def test_quartic_closed_form(self):
        asym = cm_flow_asymptotics(4, -1.0)
        # oracle: w(tau) = (3*tau + 1)^(-1/3) solves w' = -w^4, w(0) = 1
        for tau in (1.0, 10.0, 1e3):
            assert asym.law(tau) == pytest.approx((3 * tau + 1) ** (-1 / 3), rel=1e-12)

    def test_law_matches_integration_within_two_percent(self):
        from horizon.dynamics import integrate

        for d, cd in ((2, -1.0), (3, -0.5), (4, -2.0)):
            vars = ("w",)
            C = base_field(vars, [GenPoly(vars, {(F(d),): cd})], positive=vars,
                           name="cm")
            traj = integrate(C, [1.0], 1e4, rtol=1e-12, atol=1e-13,
                             stop_at_equilibrium=False)
            asym = cm_flow_asymptotics(d, cd)
            w_num = traj.states[-1][0]
            assert asym.law(1e4) == pytest.approx(w_num, rel=0.02)


class TestType1Prediction:
    def test_ratio_scalings(self):
        # k = 2, alpha = (1,1): rho = 1/2
        pred = type1_rate_prediction(TypeVector.make((1, 1), 2), 0)
        assert pred.rho == pytest.approx(0.5) and pred.q == 0.0
        # k = 1 + 1/a: rho = a/(a+1)
        a = F(1, 2)
        pred = type1_rate_prediction(TypeVector.make((1, 1), 1 + 1 / a), 0)
        assert pred.rho == pytest.approx(float(a / (a + 1)))
        # type (1, n+1), order n+1: rho(x) = 1/n
        n = 3
        pred = type1_rate_prediction(TypeVector.make((1, n + 1), n), 0)
        assert pred.rho == pytest.approx(1 / n)


@pytest.fixture(scope="module")
def coeffs3():
    return lienard_coefficients(3)


class TestLienardCoefficients:
    def test_alpha_period_zero(self, coeffs3):
        assert abs(coeffs3.alpha(coeffs3.T)) <= 1e-8
        assert coeffs3.beta1_T == pytest.approx(1.0, abs=1e-8)

    def test_attraction(self, coeffs3):
        assert coeffs3.beta2_T < 0.0

    def test_gamma_period_positive(self, coeffs3):
        assert coeffs3.Gamma_T > 0.0
        assert lienard_coefficients(1).Gamma_T > 0.0

    def test_alpha_bar_sign_pattern(self, coeffs3):
        # alpha_bar = -alpha, the radial change's exponent
        T = coeffs3.T
        for phi in np.linspace(0.02 * T, 0.48 * T, 23):
            assert -coeffs3.alpha(phi) < 0.0
        for phi in np.linspace(0.52 * T, 0.98 * T, 23):
            assert -coeffs3.alpha(phi) > 0.0
        assert abs(coeffs3.alpha(T / 2)) <= 1e-8
        for phi in np.linspace(0, T, 40):
            assert math.exp(coeffs3.alpha(phi)) > 0.0

    def test_cumulative_linear_growth(self, coeffs3):
        # the running integral of Gamma2, by the trapezoid rule over whole
        # periods and the rest, grows like C3 phi
        T = coeffs3.T
        period_integral = _trapezoid(coeffs3, T)
        assert period_integral == pytest.approx(coeffs3.Gamma_T, rel=1e-9)
        for mult in (50, 75, 120):
            phi = mult * T + 0.37
            ratio = (mult * period_integral + _trapezoid(coeffs3, 0.37)) / (coeffs3.C3 * phi)
            assert 0.99 <= ratio <= 1.01

    def test_pointwise_bound(self, coeffs3):
        assert coeffs3.C2 > 0.0
        for phi in np.linspace(0, coeffs3.T, 500):
            assert abs(_gamma2(coeffs3, phi)) <= coeffs3.C2 * (1.0 + 1e-4)


def _gamma2(co, phi):
    """Gamma2 at phi: (Sn Cs^2n + gamma1 Cs^(2n+1) / den) / den with
    gamma1 = Sn^2 Cs^n and den = 1 - Sn Cs^(n+1)."""
    n = co.n
    c, s = table(n + 1).lookup(phi)
    den = 1.0 - s * c ** (n + 1)
    return (s * c ** (2 * n) + s * s * c**n * c ** (2 * n + 1) / den) / den


def _trapezoid(co, b, nodes=20_001):
    """int_0^b Gamma2 by the trapezoid rule."""
    y = [_gamma2(co, phi) for phi in np.linspace(0.0, b, nodes).tolist()]
    return b / (nodes - 1) * (math.fsum(y) - 0.5 * (y[0] + y[-1]))


# -- the return map of a quasi-polar horizon orbit ------------------------------


@pytest.mark.parametrize("n", [1, 3, 5])
def test_horizon_orbit_meets_the_lienard_reference(n):
    # the period bit for bit; beta1 and beta2 against the scipy quadrature,
    # pinned and run
    orbit = horizon_orbit(get_case("lienard").definition({"n": n}).chart)
    T, beta1, beta2 = (float.fromhex(h) for h in LIENARD_REFERENCE[n][:3])
    assert orbit.T.hex() == T.hex()
    assert abs(orbit.beta1 - 1.0) <= 1e-10 and abs(beta1 - 1.0) <= 1e-10
    assert orbit.beta2 == pytest.approx(beta2, rel=1e-10, abs=0.0)
    assert orbit.beta2 == pytest.approx(lienard_coefficients(n).beta2_T, rel=1e-10, abs=0.0)


SECOND_ORBIT_SPEC = """\
var x
var y
field x : y - x^2
field y : -x^3 - x^2 - x*y
type 1 2
order 1
transform quasipolar m=2
initial r=1e-4 theta=0
"""


def test_horizon_orbit_of_a_spec_field_meets_its_direct_return_map(tmp_path):
    # the section theta = -T reached from (r0, 0) by integrate: the second
    # coefficient (r1 - beta1 r0)/r0^2 at r0 and r0/2, extrapolated in r0
    path = tmp_path / "second.spec"
    path.write_text(SECOND_ORBIT_SPEC)
    chart = parse_spec_file(path).chart
    orbit = horizon_orbit(chart)
    assert abs(orbit.beta1 - 1.0) <= 1e-10
    est = []
    for r0 in (1e-4, 5e-5):
        traj = integrate(chart, [r0, 0.0], 10.0, rtol=1e-13, atol=1e-14,
                         stop_at_equilibrium=False)
        (state,) = traj.sections["state"]
        assert state[1] == -orbit.T
        est.append((state[0] - orbit.beta1 * r0) / r0**2)
    assert orbit.beta2 == pytest.approx(2.0 * est[1] - est[0], rel=1e-6)


@pytest.mark.parametrize("b0", [-1, 2])
def test_horizon_orbit_of_r_squared_is_closed_form(b0):
    # r' = r^2, theta' = b0 (Cs, Sn = cos, sin): r after one revolution is
    # r0 / (1 - r0 T/|b0|), so beta1 = 1 and beta2 = 2 pi/|b0| either way
    pv = ("r", CS, SN)
    chart = ChartField(vars=("r", "theta"), components=(gp("r^2", pv), gp(str(b0), pv)),
                       time_chain=(), provenance=(), radial="r", quasipolar_index=1,
                       angle="theta")
    orbit = horizon_orbit(chart)
    assert orbit.T == 2.0 * math.pi
    assert orbit.beta1 == pytest.approx(1.0, rel=1e-13)
    assert orbit.beta2 == pytest.approx(2.0 * math.pi / abs(b0), rel=1e-12)


@pytest.mark.parametrize("dr,dth,match", [
    ("r + 1", "-1", "r-free"),
    ("r^(1/2)", "-1", "r\\^1/2"),
    ("r + r^(5/2)", "-1", "r\\^5/2"),
    ("r", "-1 + r^(1/2)", "r\\^1/2"),
])
def test_horizon_orbit_refuses_terms_outside_its_expansion(dr, dth, match):
    pv = ("r", CS, SN)
    chart = ChartField(vars=("r", "theta"), components=(gp(dr, pv), gp(dth, pv)),
                       time_chain=(), provenance=(), radial="r", quasipolar_index=1,
                       angle="theta")
    with pytest.raises(ValueError, match=match):
        horizon_orbit(chart)


def test_horizon_orbit_refuses_a_horizon_with_equilibria_or_no_angle():
    assert len(horizon_equilibria(qp_chart(1, 4))) == 4
    with pytest.raises(ValueError, match="equilibria"):
        horizon_orbit(qp_chart(1, 4))
    with pytest.raises(ValueError, match="quasi-polar"):
        horizon_orbit(get_case("iy").definition().chart)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_dop853_step_underflow_names_plain_floats():
    # b0 = (Sn - 1/2)^2 has double roots that the sign-change scan misses
    # (ROADMAP item 18), so the orbit is integrated into b0 = 0 and its
    # step size underflows; the message carries no numpy scalar reprs
    pv = ("r", CS, SN)
    chart = ChartField(vars=("r", "theta"),
                       components=(gp(f"r*{CS}", pv), gp(f"{SN}^2 - {SN} + 1/4", pv)),
                       time_chain=(), provenance=(), radial="r", quasipolar_index=1,
                       angle="theta")
    with pytest.raises(ArithmeticError) as info:
        horizon_orbit(chart)
    number = r"(\d+\.\d*|\d+)(e[+-]?\d+)?"
    assert re.fullmatch(f"DOP853 step size fell below {number} at t = {number}",
                        str(info.value)), str(info.value)


_ORBIT_COLD = """
import json, sys
from horizon.casebook import get_case
from horizon.localanalysis import horizon_orbit
orbit = horizon_orbit(get_case("lienard").definition({"n": 3}).chart)
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "beta2": orbit.beta2}))
"""


def test_horizon_orbit_imports_no_scipy():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _ORBIT_COLD], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["scipy"] == []
    assert out["beta2"] < 0.0


def test_degenerate_front_jacobians_match_closed_forms():
    # at (0,0): [[0,1],[0,-c]] for N > 1; at (1,0): [[0,1],[1-a,-c]]
    from horizon.casebook import get_case

    a, c = F(1, 4), F(1)
    cdef = get_case("fhn").definition({"m": 2, "p": F(1, 2), "a": a, "c": c})
    eqs = equilibria_of(cdef.chart, box=cdef.eq_box)
    by_coord = {round(e.coords[0], 6): e for e in eqs}
    J0 = np.array(by_coord[0.0].jacobian)
    J1 = np.array(by_coord[1.0].jacobian)
    assert np.allclose(J0, [[0, 1], [0, -float(c)]], atol=1e-9)
    assert np.allclose(J1, [[0, 1], [1 - float(a), -float(c)]], atol=1e-9)
    assert by_coord[0.0].classification == "semi-hyperbolic"
    assert by_coord[1.0].classification == "hyperbolic"


# -- the equilibrium search against its numpy reference ------------------------
#
# The previous Newton search, kept here verbatim as the oracle (its axis starts
# included): GenPoly.eval residuals on numpy arrays, np.linalg.solve and
# np.linalg.norm, in the range the case derives.  The float search on compiled
# residuals must give the same roots, and so the same records, bit for bit.
# A slice the closed form decides must give the oracle's roots, each the
# double nearest the exact root and within 2 ulps of the oracle's.

OLD_AXIS_STARTS = (0.25, 0.5, 1.0, -0.5, -1.0)


def old_damped_newton(F, JF, x, clip):
    try:
        fx = F(x)
    except DomainError:
        return None
    for _ in range(NEWTON_MAX_ITER):
        nf = float(np.linalg.norm(fx))
        try:
            step = np.linalg.solve(JF(x), -fx)
        except (np.linalg.LinAlgError, DomainError):
            break
        if not np.all(np.isfinite(step)):
            break
        lam, improved, stalled = 1.0, False, False
        for _ in range(8):
            cand = x + lam * step
            for i, c in enumerate(clip):
                if c and cand[i] < 0.0:
                    cand[i] = 0.0
            try:
                fc = F(cand)
            except DomainError:
                lam *= 0.5
                continue
            if float(np.linalg.norm(fc)) < nf:
                stalled = float(np.linalg.norm(cand - x)) <= 1e-14 * (
                    1.0 + float(np.linalg.norm(x))
                )
                x, fx = cand, fc
                improved = True
                break
            lam *= 0.5
        if not improved or stalled:
            break
    if float(np.linalg.norm(fx)) <= NEWTON_TOL * (1.0 + float(np.linalg.norm(x))):
        return x
    return None


def old_snap_axis_values(F, x):
    out = np.array(x, dtype=float)
    for i in range(len(out)):
        for c in (0.0, 1.0, -1.0):
            if out[i] != c and abs(out[i] - c) < 1e-6:
                trial = out.copy()
                trial[i] = c
                try:
                    if float(np.linalg.norm(F(trial))) <= NEWTON_TOL * (
                        1.0 + float(np.linalg.norm(trial))
                    ):
                        out = trial
                except DomainError:
                    pass
    return out


def old_newton_roots(components, variables, box, seed):
    dim = len(variables)
    box = box or {}
    lows = np.array([box.get(v, (-2.0, 2.0))[0] for v in variables])
    highs = np.array([box.get(v, (-2.0, 2.0))[1] for v in variables])
    clip = [_needs_nonnegative(components, v) for v in variables]
    for i, c in enumerate(clip):
        if c and lows[i] < 0.0:
            lows[i] = 0.0

    rng = np.random.default_rng(seed)
    starts = [lows + (highs - lows) * rng.random(dim) for _ in range(N_STARTS)]
    starts.append(np.zeros(dim))
    for i in range(dim):
        for c in OLD_AXIS_STARTS:
            p = np.zeros(dim)
            p[i] = c
            if lows[i] <= c <= highs[i]:
                starts.append(p)

    grads = [[comp.partial(v) for v in variables] for comp in components]

    def F(x):
        return np.array([comp.eval(x) for comp in components])

    def JF(x):
        return np.array([[g.eval(x) for g in row] for row in grads])

    roots = []
    n_fail = 0
    for x0 in starts:
        x = old_damped_newton(F, JF, np.array(x0, dtype=float), clip)
        if x is None:
            n_fail += 1
            continue
        if np.any(x < lows - 0.5) or np.any(x > highs + 0.5):
            continue
        x = old_snap_axis_values(F, x)
        if not any(np.linalg.norm(x - r) <= DEDUPE for r in roots):
            roots.append(x.copy())
    roots.sort(key=lambda r: tuple(r))
    return roots, {"starts": len(starts), "failed_starts": n_fail}


def old_search(cdef, seed):
    """The equilibrium stage of ``cdef`` through the reference search."""
    C = cdef.chart
    if equilibrium_search(C) is horizon_equilibria:
        slice_vars, slice_comps = horizon_slice(C)
        roots, diag = old_newton_roots(slice_comps, slice_vars, cdef.eq_box, seed)
        ri = C.vars.index(C.radial)
        roots = [[*x[:ri], 0.0, *x[ri:]] for x in roots]
    else:
        roots, diag = old_newton_roots(C.components, C.poly_vars, cdef.eq_box, seed)
    return [_equilibrium_record(C, x) for x in roots], diag


def hexed(obj):
    """Nested structure with every float replaced by its exact hex form."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [hexed(v) for v in obj]
    if isinstance(obj, dict):
        return {k: hexed(v) for k, v in obj.items()}
    return obj


def _cli_sweep_points():
    """(case, params) of every sweep in the benchmark's CLI commands, with
    the values parsed as the CLI parses them."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "pipeline_ops.py"
    commands = next(
        ast.literal_eval(node.value) for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.Assign) and node.targets[0].id == "CLI_COMMANDS"
    )
    points = []
    for argv in commands:
        if argv[0] != "sweep":
            continue
        grid = [{}]
        for name, _, vals in (p.partition("=") for p in argv[3::2]):
            grid = [dict(g, **{name: _parse_number(v)}) for g in grid
                    for v in vals.split(",")]
        points += [(argv[1], g) for g in grid]
    return points


def _search_id(source):
    name, params = source
    return " ".join([name, *(f"{k}={v}" for k, v in (params or {}).items())])


SEARCH_POINTS = (
    [(name, {}) for name in ("aiu", "iy", "andrews1", "andrews2", "quench", "fhn", "kdv")]
    + _cli_sweep_points()
    # the parameter points the other tests sweep
    + [("andrews1", {"a": a}) for a in (0.3, 0.5, 0.7)]
    + [("andrews2", {"a": F(1, 4), "a1": a1}) for a1 in (F(2, 5), F(1, 2), F(1))]
    + [("iy", {"a": F(1, 2)})]
    + [("fhn", {"m": 2, "p": F(1, 2), "a": F(1, 4), "c": F(1)})]
    + [("fhn", {"p": p, "c": c}) for p in (F(1, 4), F(3, 4)) for c in (F(1, 2), 2)]
    # blow-ups whose primitive Newton weights have no common factor removed
    + [("quench", {"alpha": alpha}) for alpha in (3, 5)]
    + [("kdv", {"n": 3})]
)
SEARCH_POINTS = list({_search_id(s): s for s in SEARCH_POINTS}.values())
SPEC_FILES = sorted((pathlib.Path(__file__).resolve().parents[1] / "cases").glob("*.spec"))


def closed_form_slice(C):
    """The one-variable slice of at most two terms the closed form decides
    on ``C``'s horizon, else None."""
    if C.radial is None or C.quasipolar_index is not None:
        return None
    (v, *more), (p, *_) = horizon_slice(C)
    return None if more or not 1 <= len(p.terms) <= 2 else (v, p)


def ulps_apart(x, y):
    return abs(np.float64(x).view(np.int64) - np.float64(y).view(np.int64))


def assert_nearest_exact_root(p, y):
    """``y`` is a root of the slice ``c_a v^a + c_b v^b`` rounded to the
    nearest double: 0 when a > 0, else ``|y|`` lies between the midpoints to
    its neighbours, compared exactly as ``mid^m`` against ``|R|^n`` for
    ``v^(m/n) = R = -c_a/c_b``."""
    (a, ca), *rest = [(ev[0], F(c)) for ev, c in p.terms]
    if y == 0.0:
        assert a > 0
        return
    (b, cb), = rest
    R, m, n = -ca / cb, (b - a).numerator, (b - a).denominator
    assert (R > 0) == (y > 0 or m % 2 == 0)
    lo, hi = ((F(abs(y)) + F(math.nextafter(abs(y), t))) / 2 for t in (0.0, math.inf))
    assert lo**m <= abs(R) ** n <= hi**m


@pytest.mark.parametrize("source", SEARCH_POINTS + [(f.name, None) for f in SPEC_FILES],
                         ids=_search_id)
def test_equilibrium_search_bitwise_unchanged(source):
    name, params = source
    if params is None:
        cdef = parse_spec_file(SPEC_FILES[0].parent / name)
    else:
        cdef = get_case(name).definition(params)
    search = equilibrium_search(cdef.chart)
    closed = closed_form_slice(cdef.chart)
    found = []
    for seed in (0, 1, 7):
        eqs = search(cdef.chart, box=cdef.eq_box, seed=seed)
        old_eqs, _ = old_search(cdef, seed)
        if closed is None:
            # the oracle's Newton roots, each coordinate polished by at most
            # one ulp (fhn's root 1/4 was the double below or above it at
            # some seeds); a root that did not move is bitwise the oracle's
            assert len(eqs) == len(old_eqs)
            for e, old in zip(eqs, old_eqs):
                assert all(ulps_apart(a, b) <= 1 for a, b in zip(e.coords, old.coords))
                if e.coords == old.coords:
                    assert hexed(e.to_dict()) == hexed(old.to_dict())
            found.append([hexed(e.to_dict()) for e in eqs])
            continue
        assert [e.classification for e in eqs] == [e.classification for e in old_eqs]
        vi = cdef.chart.vars.index(closed[0])
        for e, old in zip(eqs, old_eqs):
            assert e.coords[1 - vi] == 0.0 and ulps_apart(e.coords[vi], old.coords[vi]) <= 2
            assert_nearest_exact_root(closed[1], e.coords[vi])
    # and the polished roots do not depend on the seed
    assert found[1:] == found[:-1]


def test_horizon_search_falls_back_to_newton():
    # slices the closed form does not decide: three terms, two variables
    def chart(vars, fields, k):  # homogeneous of degree k + 1, in the x direction
        base = base_field(vars, [gp(f, vars) for f in fields], name="fallback")
        t = TypeVector.make((1,) * len(vars), k)
        return desingularize(directional_compactify(base, t, "x"), k)

    # y' = y^3 + x y^2 - x^2 y over x' = x^3: the slice y^3 + y^2 - 2y
    C3 = chart(("x", "y"), ["x^3", "y^3 + x*y^2 - x^2*y"], 2)
    _, (p,) = horizon_slice(C3)
    assert len(p.terms) == 3
    # a quadratic field in 3-D: the slice y - y^2, z (1 + y - 2z) in (y, z)
    C2 = chart(("x", "y", "z"), ["x^2", "2*x*y - y^2", "2*x*z - 2*z^2 + y*z"], 1)
    assert len(horizon_slice(C2)[0]) == 2
    for C, roots in ((C3, [(-2.0,), (0.0,), (1.0,)]),
                     (C2, [(0.0, 0.0), (0.0, 0.5), (1.0, 0.0), (1.0, 1.0)])):
        for seed in (0, 1, 7):
            eqs = horizon_equilibria(C, seed=seed)
            assert [e.coords[0] for e in eqs] == [0.0] * len(roots)
            got = [e.coords[1:] for e in eqs]
            assert np.allclose(got, roots, rtol=0.0, atol=1e-12), got


def slice_of(*terms):
    return GenPoly(("v",), {(F(e),): c for e, c in terms})


@pytest.mark.parametrize("terms,nonneg,roots", [
    ([(1, -1), (3, 1)], False, [-1.0, 0.0, 1.0]),
    ([(1, -1), (3, 1)], True, [0.0, 1.0]),
    ([(1, 1), (3, 1)], False, [0.0]),
    ([(2, 1), (5, F(1, 8))], False, [-2.0, 0.0]),
    ([(0, 2), (2, F(-1, 2))], False, [-2.0, 2.0]),
    ([(1, F(-2, 5)), (F(5, 2), F(2, 5))], True, [0.0, 1.0]),
    ([(-1, 1), (1, -4)], True, [0.5]),
    ([(0, 1)], False, []),
    ([(F(1, 2), 3)], True, [0.0]),
], ids=["cubic", "cubic-nonnegative", "no-real-root", "odd-negative-root",
        "constant-term", "fractional", "negative-exponent", "constant", "one-term"])
def test_binomial_roots(terms, nonneg, roots):
    assert _binomial_roots(slice_of(*terms), nonneg) == roots


def test_binomial_root_halfway_between_doubles_rounds_to_even():
    for k in (1, 3):  # 1 + k 2^-53 lies halfway between two doubles
        R = 1 + F(k, 2**53)
        assert _binomial_roots(slice_of((1, -R), (2, 1)), False) == [0.0, float(R)]
        # the float estimate of the square root of R^2 is the odd neighbour
        assert _binomial_roots(slice_of((0, -R * R), (2, 1)), True) == [float(R)]


def test_binomial_root_outside_the_float_range_is_refused():
    # a root is found where R = -c_a/c_b is no float, and refused where it
    # is none itself: 1e-200, 1e200, then 1e-400 and (1e200)^2
    for R, b, root in ((F(1, 10**400), 3, 1e-200), (F(10**400), 3, 1e200)):
        assert _binomial_roots(slice_of((1, -R), (b, 1)), True) == [0.0, root]
    for R, b in ((F(1, 10**800), 3), (F(10**200), F(3, 2))):
        with pytest.raises(DomainError, match="outside the float range"):
            _binomial_roots(slice_of((1, -R), (b, 1)), True)


def test_nearest_root_reaches_both_ends_of_the_float_range():
    # a root that rounds to a subnormal or to the largest double is found
    # though its float estimate underflows or overflows; one past either
    # end (a tie there rounds to 0 or to inf) is refused
    tiny, big = math.ulp(0.0), sys.float_info.max
    assert _nearest_root(F(7, 3) * F(10) ** -65, 5, 1) == tiny
    assert _nearest_root(F(tiny) ** 3 * F(3, 4), 1, 3) == tiny
    assert _nearest_root(F(10) ** -155, 2, 1) == 1e-310
    assert _nearest_root(F(big) + F(math.ulp(big)) / 3, 1, 1) == big
    for R in (F(tiny) / 2, F(big) + F(math.ulp(big)) / 2):
        with pytest.raises(DomainError, match="outside the float range"):
            _nearest_root(R, 1, 1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.fractions(F(1, 10**6), 10**6),
                 st.floats(1e-300, 1e300).map(F),
                 st.integers(-900, 900).map(lambda k: F(7, 3) * F(10) ** k)),
       st.integers(1, 5), st.integers(1, 9))
def test_nearest_root_matches_high_precision(R, n, m):
    import decimal

    with decimal.localcontext() as ctx:
        ctx.prec = 80
        x = (decimal.Decimal(R.numerator) / R.denominator).ln() * n / m
        want = float(x.exp())
    assume(0.0 < want < math.inf)
    # skip the exact ties, where 80 digits cannot tell the rounding
    lo, hi = ((F(want) + F(math.nextafter(want, t))) / 2 for t in (0.0, math.inf))
    assume(R**n not in (lo**m, hi**m))
    assert _nearest_root(R, n, m) == want


POW_EXPONENTS = st.one_of(
    st.integers(-3, 5).map(F),
    st.sampled_from([F(1, 2), F(3, 2), F(-1, 2), F(1, 3), F(-5, 3), F(7, 4)]),
)
COEFFS = st.one_of(
    st.sampled_from([1, -1, 2, F(-3, 2), F(1, 7), 0.7, -1e300, 3e-200]),
    st.floats(-1e3, 1e3).filter(lambda c: c != 0.0),
)


@st.composite
def float_polys(draw):
    vars = ("x", "y")
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        ev = tuple(draw(POW_EXPONENTS) if draw(st.booleans()) else F(0) for _ in vars)
        terms[ev] = draw(COEFFS)
    return GenPoly(vars, terms)


POINT_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-160, -1e-160,
                     1e154, -1e154, 1e300, -1e300, 1e-300, 1.7e308, -1.7e308,
                     math.inf, -math.inf, math.nan]),
    st.floats(-4.0, 4.0),
    st.floats(),
)


def _outcome(f, x):
    try:
        return hexed(f(x))
    except Exception as exc:  # noqa: BLE001 - the exception is compared
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(float_polys(), st.tuples(POINT_VALUES, POINT_VALUES))
@example(GenPoly(("x", "y"), {(F(1), F(0)): 1}), (-0.0, 1.0))
@example(GenPoly(("x", "y"), {(F(3), F(0)): -2, (F(0), F(1)): 1}), (-0.0, -0.0))
@example(GenPoly(("x", "y"), {(F(-1, 2), F(0)): 1, (F(2), F(0)): 1}), (-1.0, 0.0))
@example(GenPoly(("x", "y"), {(F(1, 2), F(0)): 1, (F(0), F(3)): 1}), (-1.0, 1e300))
@example(GenPoly(("x", "y"), {(F(0), F(-2)): 1}), (1.0, 0.0))
@example(GenPoly(("x", "y"), {(F(-1), F(0)): 1, (F(1, 2), F(1)): -2}), (math.inf, -math.inf))
@example(GenPoly(("x", "y"), {(F(3, 2), F(0)): 1, (F(0), F(2)): 1}), (-math.inf, math.nan))
@example(GenPoly(("x", "y"), {(F(2), F(-1)): 0.7}), (math.nan, 0.0))
def test_eval_matches_interpreter(p, x):
    # the compiled evaluator against the per-term interpreter: the value
    # bits, or the exception's type and message
    x = list(x)
    assert _outcome(p.eval, x) == _outcome(lambda pt: interpreted_eval(p, pt), x)


# theta of the horizon equilibria of the quasi-polar charts of
# x' = y, y' = -x^(2n+1) - c x^n y, as the bisection found them before it
# kept g(lo) between steps, and a digest of their full records with the
# exact Jacobian of ChartField.jacobian
QP_PINNED = {
    (1, None): ([], ""),
    (3, None): ([], ""),
    (1, 4): (["0x1.fea7debe5d9eap+1", "0x1.2b1df9b4e9684p+2",
              "0x1.9cd8fb4e1da06p+2", "0x1.c8a305a3d8392p+2"], "9333b1d155752673426af60fcb55fa77883e682d61f3d2f3511d472f92f6da3a"),
    (3, 6): (["0x1.35c15d308e6f2p+2", "0x1.5b271c6131672p+2",
              "0x1.113e3faa47bdep+3", "0x1.23f11f42993acp+3"], "cc85eca7bf94a9e894315801c9ddbd6adf473b785874336b782038711eaa16b7"),
}


def qp_chart(n, c):
    """The quasi-polar chart of x' = y, y' = -x^(2n+1) - c x^n y, or
    lienard's at c = None."""
    if c is None:
        return get_case("lienard").definition({"n": n}).chart
    vars = ("x", "y")
    base = base_field(vars, [gp("y", vars), gp(f"-x^{2*n+1} - {c}*x^{n}*y", vars)],
                      name="qp")
    return quasi_polar_compactify(base, n + 1, n)


@pytest.mark.parametrize("n,c", list(QP_PINNED), ids=lambda v: str(v))
def test_quasipolar_equilibria_bitwise_pinned(n, c):
    chart = qp_chart(n, c)
    eqs = horizon_equilibria(chart)
    thetas, digest = QP_PINNED[n, c]
    assert [e.coords[1].hex() for e in eqs] == thetas
    assert all(e.coords[0] == 0.0 for e in eqs)
    if eqs:
        doc = repr([hexed(e.to_dict()) for e in eqs]).encode()
        assert hashlib.sha256(doc).hexdigest() == digest


@pytest.mark.parametrize("n,c", [(1, 4), (3, 6)])
def test_quasipolar_jacobian_matches_central_difference(n, c):
    # the exact angle column against the oracle's central difference
    # (h = 1e-7): within 1e-8 relative, with the same labels
    chart = qp_chart(n, c)
    eqs = horizon_equilibria(chart)
    assert len(eqs) == 4
    for e in eqs:
        fd = _quasipolar_numeric_jacobian(chart, *e.coords)
        np.testing.assert_allclose(e.jacobian, fd, rtol=1e-8, atol=0.0)
        label, ns, nu, *_ = classify(fd)
        assert (e.classification, e.n_stable, e.n_unstable) == (label, ns, nu)


def _tri_chart():
    """x' = x^2, y' = x y / 2, z' = x z / 2 - y z, all three positive, in
    the x direction of type (1, 1, 1) and order 1, desingularized: its
    horizon slice has two variables, so the Newton search solves it."""
    vars = ("x", "y", "z")
    base = base_field(vars, [gp(f, vars) for f in ("x^2", "1/2 * x * y", "1/2 * x * z - y * z")],
                      positive=vars, name="tri")
    return desingularize(directional_compactify(base, TypeVector.make((1, 1, 1), 1), "x"), 1)


def test_jacobian_partials_are_taken_once_per_chart(monkeypatch):
    # iy's horizon has two roots, both in closed form: its records take
    # the dim^2 partials of ChartField.jacobian once, not dim^2 per root
    chart = get_case("iy").definition({}).chart
    partial, calls = GenPoly.partial, []
    monkeypatch.setattr(GenPoly, "partial", lambda p, v: calls.append(v) or partial(p, v))
    for _ in range(2):
        eqs = horizon_equilibria(chart)
        assert len(eqs) == 2
    assert len(calls) == len(chart.vars) ** 2


def test_the_newton_slice_search_differentiates_only_the_jacobian(monkeypatch):
    # tri's two-variable slice goes to the Newton search, whose gradients
    # are r-free parts of ChartField.jacobian's 9 partials: the slice
    # itself is not differentiated again
    C = _tri_chart()
    assert len(horizon_slice(C)[0]) == 2
    partial, calls = GenPoly.partial, []
    monkeypatch.setattr(GenPoly, "partial", lambda p, v: calls.append(v) or partial(p, v))
    eqs = horizon_equilibria(C, seed=7)
    assert [(e.coords, e.classification) for e in eqs] == [((0.0, 0.0, 0.0), "hyperbolic")]
    assert len(calls) == len(C.vars) ** 2


def test_whole_field_search_shares_the_chart_jacobian(monkeypatch):
    # fhn's Newton search and its records both use ChartField.jacobian: its
    # 4 partials are taken and compiled once, beside the 2 components
    chart = get_case("fhn").definition().chart
    assert equilibrium_search(chart) is equilibria_of
    partial, compile, calls = GenPoly.partial, GenPoly.compile, []
    monkeypatch.setattr(GenPoly, "partial",
                        lambda p, v: calls.append("partial") or partial(p, v))
    monkeypatch.setattr(GenPoly, "compile",
                        lambda p: calls.append("compile") or compile(p))
    assert len(equilibria_of(chart, seed=7)) == 3
    assert (calls.count("partial"), calls.count("compile")) == (4, 6)


@pytest.mark.parametrize("name,params", [("iy", {}), ("andrews2", {"a": 2, "a1": 1}),
                                         ("kdv", {}), ("tri", None)])
def test_slice_partials_are_radial_parts_of_the_jacobian(name, params):
    C = _tri_chart() if name == "tri" else get_case(name).definition(params).chart
    slice_vars, slice_comps = horizon_slice(C)
    ri = C.vars.index(C.radial)
    rows = [[g for j, g in enumerate(row) if j != ri]
            for i, row in enumerate(C.jacobian) if i != ri]
    partials = [[comp.partial(v) for v in slice_vars] for comp in slice_comps]
    assert [[C.radial_part(g, 0) for g in row] for row in rows] == partials
    assert not all(g.is_zero() for row in partials for g in row)


def _partial_calls(node):
    """Each call of a ``partial`` attribute under ``node``."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute) and n.func.attr == "partial"]


def test_a_chart_is_differentiated_only_in_chartfield_jacobian():
    # one derivative: ChartField.jacobian is the only caller of .partial in
    # the package, and casebook reads localanalysis by its public names only
    src = pathlib.Path(casebook.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    chart = next(n for n in trees["compactify.py"].body
                 if isinstance(n, ast.ClassDef) and n.name == "ChartField")
    jacobian = next(n for n in chart.body
                    if isinstance(n, ast.FunctionDef) and n.name == "jacobian")
    assert len(_partial_calls(jacobian)) == 3
    assert {name: len(_partial_calls(tree)) for name, tree in trees.items()
            if _partial_calls(tree)} == {"compactify.py": 3}
    private = [a.name for n in ast.walk(trees["casebook.py"])
               if isinstance(n, ast.ImportFrom) and n.module == "localanalysis"
               for a in n.names if a.name.startswith("_")]
    assert private == []


def test_newton_overflow_is_a_failed_candidate():
    # x^30 - y + 1 = y^30 - x = 0 has no real root: y = x^30 + 1 >= 1 makes
    # x = y^30 >= y, and then y > x^30 >= x.  Newton steps overflow a 30th
    # power, which raised OverflowError for 12 of these seeds, and the norm
    # of a huge residual warned
    vars = ("x", "y")
    chart = base_field(vars, [parse_genpoly("x^30 - y + 1", vars),
                              parse_genpoly("y^30 - x", vars)], name="no-root")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert all(equilibria_of(chart, seed=seed) == [] for seed in range(40))


def test_whole_field_search_refuses_a_quasipolar_chart():
    # its components range over Cs and Sn, its Jacobian over the angle
    with pytest.raises(ValueError, match="quasi-polar"):
        equilibria_of(get_case("lienard").definition().chart)


FINITE =st.floats(allow_nan=False, allow_infinity=False)
# any float, NaN and the infinities among them, or one whose square overflows
ENTRY = st.one_of(st.floats(), st.floats(1e150, 1e308), st.floats(-1e308, -1e150))


@settings(max_examples=500, deadline=None)
@given(st.lists(ENTRY, min_size=1, max_size=3), FINITE)
@example([1e300, 1e300], 1.0)
@example([math.nan, math.inf], 1.0)
def test_float_norm_and_solve_match_numpy(v, a):
    # under the search's own errstate the dot that overflows reads inf, and
    # silently, in both
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error")
        assert _norm(v).hex() == float(np.linalg.norm(np.array(v))).hex()
    if a == 0.0:
        with pytest.raises(np.linalg.LinAlgError):
            _solve([[a]], [v[0]])
        return
    assert hexed(_solve([[a]], [v[0]])) == hexed(np.linalg.solve([[a]], [v[0]]).tolist())


def test_start_stream_is_numpys_default_rng():
    # one 32-bit word of entropy, 2 to 4 words (2**100 + 3 spans 4), and
    # words past the 4-word pool, mixed in one by one (2**200 + 5 spans 7)
    for seed in [*range(256), 2**32 - 1, 2**32, 2**64, 2**100 + 3, 2**200 + 5]:
        want = np.random.default_rng(seed).random(2 * N_STARTS + 1).tolist()
        assert _uniforms(seed, 2 * N_STARTS + 1) == want, seed
