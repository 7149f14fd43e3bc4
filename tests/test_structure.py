"""Scaling structure: quasi-homogeneity, the type at infinity and Newton diagrams."""

import itertools
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizon.casebook import get_case
from horizon.errors import NonPolynomialError, ResidualSingularityError
from horizon.genpoly import GenPoly, parse_genpoly
from horizon.structure import TypeVector, certify_type, newton_data, type_at_infinity
from test_genpoly import polys


def gp(text, vars):
    return parse_genpoly(text, vars)


AIU_VARS = ("u0", "u1")
AIU = [gp("u1 * u0^(-2)", AIU_VARS), gp("u1^2 * u0^(-1)", AIU_VARS)]


class TestQuasiHomogeneous:
    def test_inverse_power_system(self):
        assert certify_type(AIU, TypeVector.make((0, 1), 1)) is None

    def test_fractional_order_system(self):
        for a in (F(1, 2), F(2, 5)):
            e = (a + 1) / a
            f = [
                GenPoly(("v0", "v1"), {(e, F(1)): a}),
                GenPoly(("v0", "v1"), {(F(1), e): a}),
            ]
            assert certify_type(f, TypeVector.make((1, 1), 1 + 1 / a)) is None

    def test_inhomogeneous_constant_term(self):
        # the constant lies two weighted degrees below y^2: residual R^-2
        f = [gp("y^2 + 1", ("y",))]
        assert certify_type(f, TypeVector.make((1,), 1)) == -2


class TestAqhNumeric:
    def test_exactly_qh_residuals_vanish(self):
        assert certify_type(AIU, TypeVector.make((0, 1), 1)) is None

    def test_quadratic_plus_linear(self):
        # y' = y^2 + y with alpha=(1), k=1: residual(R) = 1/R at x = 1
        f = [gp("y^2 + y", ("y",))]
        assert certify_type(f, TypeVector.make((1,), 1)) == -1

    def test_lienard_residual_decays_like_inverse_R(self):
        n = 3
        f = [
            gp("y", ("x", "y")),
            gp(f"-x^{2 * n + 1} - x^{2 * n} - x^{n}*y", ("x", "y")),
        ]
        assert certify_type(f, TypeVector.make((1, n + 1), n)) == -1


class TestCertifyRefusals:
    def test_term_above_the_type_is_named(self):
        f = [AIU[0], gp("u1^2 * u0^(-1) + u1^(5/2)", AIU_VARS)]
        with pytest.raises(ResidualSingularityError,
                           match=r"component 'u1' has the term u1\^\(5/2\)"):
            certify_type(f, TypeVector.make((0, 1), 1))

    def test_no_term_reaching_the_type(self):
        # quench's base: every term lies below the type of its rescaled field
        f = [gp("psi", ("phi", "psi")), gp("-psi - phi^(-1)", ("phi", "psi"))]
        with pytest.raises(ResidualSingularityError, match="no term reaches"):
            certify_type(f, TypeVector.make((1, 1), 1))

    @pytest.mark.parametrize("alpha", [(1,), (0, 1, 1)], ids=str)
    def test_type_of_the_wrong_length(self, alpha):
        with pytest.raises(ResidualSingularityError, match="dimension 2"):
            certify_type(AIU, TypeVector.make(alpha, 1))


class TestTypeAtInfinity:
    def test_axis_face_of_negative_exponents(self):
        # aiu: points (-3, 1) and (-1, 1) lie on the horizontal face
        assert type_at_infinity(AIU) == TypeVector.make((0, 1), 1)

    def test_rational_exponents(self):
        a = F(2, 5)
        e = (a + 1) / a
        f = [GenPoly(("v0", "v1"), {(e, F(1)): a}), GenPoly(("v0", "v1"), {(F(1), e): a})]
        assert type_at_infinity(f) == TypeVector.make((1, 1), F(7, 2))

    def test_terms_below_the_face_do_not_count(self):
        # lienard n = 3: x^6 lies one weighted degree below the (1, 4) face
        f = [gp("y", ("x", "y")), gp("-x^7 - x^6 - x^3*y", ("x", "y"))]
        assert type_at_infinity(f) == TypeVector.make((1, 4), 3)

    def test_two_upper_faces_are_refused_with_both_candidates(self):
        # points (0, 2) and (3, 0) of x', (2, 1) of y': a roof of two faces
        f = [gp("x*y^2 + x^4", ("x", "y")), gp("x^2*y^2", ("x", "y"))]
        with pytest.raises(ResidualSingularityError) as exc:
            type_at_infinity(f)
        assert str(exc.value) == (
            "the points (0, 2), (2, 1), (3, 0) at infinity have 2 upper faces with "
            "a normal alpha >= 0; (1, 1), k = 3; (1, 2), k = 4")
        # each candidate is a type the field is certified of
        assert certify_type(f, TypeVector.make((1, 1), 3)) == -1
        assert certify_type(f, TypeVector.make((1, 2), 4)) == -1

    def test_one_point_support_is_refused_by_name(self):
        # x^2 of x' and x*y of y' are both the point (1, 0): every alpha fits
        f = [gp("x^2", ("x", "y")), gp("x*y", ("x", "y"))]
        with pytest.raises(ResidualSingularityError) as exc:
            type_at_infinity(f)
        assert str(exc.value) == (
            "the points (1, 0) at infinity have 0 upper faces with a normal alpha >= 0")

    def test_three_variable_field_is_refused_by_name(self):
        vars = ("x", "y", "z")
        f = [gp("x^2", vars), gp("y^2", vars), gp("z^2", vars)]
        with pytest.raises(ResidualSingularityError,
                           match="^a field of 3 components over 3 variables is not planar$"):
            type_at_infinity(f)

    def test_quasipolar_components_are_refused_by_name(self):
        # two components over (r, Cs, Sn): the chart, not a planar field
        chart = get_case("lienard").definition().chart
        with pytest.raises(ResidualSingularityError,
                           match="^a field of 2 components over 3 variables is not planar$"):
            type_at_infinity(chart.components)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(polys(), min_size=2, max_size=2))
    def test_every_candidate_is_a_certified_type(self, f):
        # the one type, or each candidate a refusal lists, is a type of the
        # field: no term above its degree, some term on it
        try:
            candidates = [type_at_infinity(f)]
        except ResidualSingularityError as exc:
            candidates = [TypeVector.make([F(a) for a in alpha.split(", ")], F(k))
                          for alpha, k in re.findall(r"; \(([^)]*)\), k = ([^;]+)", str(exc))]
            assert f" have {len(candidates)} upper faces " in str(exc)
            assert len(candidates) != 1
        for t in candidates:
            assert min(t.alpha[i] for i in range(2) if t.alpha[i] > 0) == 1
            certify_type(f, t)


class TestNewtonDiagram:
    def test_degenerate_wave_profile_face(self):
        # phi' = psi, psi' = n c phi^n - n phi^(m+n-1), n=2, m=2, c=1
        n, m = 2, 2
        X = [
            gp("psi", ("phi", "psi")),
            gp(f"2*phi^{n} - 2*phi^{m + n - 1}", ("phi", "psi")),
        ]
        d = newton_data(X)
        assert (0, 2) in d.vertices and (n + 1, 0) in d.vertices
        assert len(d.faces) == 1
        assert d.weights[0] == (2, n + 1)

    def test_single_term_field(self):
        X = [gp("x1^3", ("x1", "x2")), GenPoly.zero(("x1", "x2"))]
        d = newton_data(X)
        assert d.vertices == ((3, 1),)
        assert d.faces == ()

    def test_three_point_support_matches_hull_oracle(self):
        # support {(2,0), (0,3), (3,3)}: segment (2,0)-(0,3), (3,3) interior
        X = [
            gp("x2^2 + x1^2*x2^2", ("x1", "x2")),  # points (0,3) and (2,3)... see below
            gp("x1 + x1^2*x2^3", ("x1", "x2")),  # points (2,0) and (3,3)
        ]
        # recompute actual support to keep the test honest
        d = newton_data(X)
        assert set(d.vertices) == {(2, 0), (0, 3)}
        assert d.weights == ((3, 2),)
        assert _oracle_faces(d.support) == {((0, 3), (2, 0))}

    def test_vertices_subset_of_support_and_domination(self):
        X = [
            gp("x2^2 + x1*x2 + x1^4", ("x1", "x2")),
            gp("x1^2 + x1*x2^3", ("x1", "x2")),
        ]
        d = newton_data(X)
        assert set(d.vertices) <= d.support
        for p in d.support:
            assert _dominated_by_polyhedron(p, d.vertices)


def _dominated_by_polyhedron(p, vertices):
    """p lies in hull(support) + R_+^2: on/above the lower boundary and right
    of the leftmost vertex."""
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    if p[0] < min(xs) or p[1] < min(ys):
        return False
    if p[0] >= max(xs):
        return p[1] >= min(ys)
    for (x1, y1), (x2, y2) in zip(vertices, vertices[1:]):
        if x1 <= p[0] <= x2:
            # above the face line through the two vertices (exact arithmetic)
            return (p[0] - x1) * (y2 - y1) <= (p[1] - y1) * (x2 - x1)
    return p[1] >= ys[0]

    def test_rejects_fractional(self):
        with pytest.raises(NonPolynomialError):
            newton_data([gp("x1^(1/2)", ("x1", "x2")), GenPoly.zero(("x1", "x2"))])

    def test_rejects_nonvanishing(self):
        with pytest.raises(NonPolynomialError):
            newton_data([gp("1 + x1", ("x1", "x2")), GenPoly.zero(("x1", "x2"))])


def _oracle_faces(support):
    """Brute-force compact faces: a segment (p,q) is a face iff some strictly
    positive weight vector minimizes exactly on {p, q, points between}."""
    pts = sorted(support)
    faces = set()
    for p, q in itertools.combinations(pts, 2):
        w = (-(q[1] - p[1]), q[0] - p[0])
        if w[0] == 0 or w[1] == 0:
            continue
        if w[0] < 0:
            w = (-w[0], -w[1])
        if w[1] <= 0:
            continue
        level = w[0] * p[0] + w[1] * p[1]
        if all(w[0] * r[0] + w[1] * r[1] >= level for r in pts):
            a, b = sorted((p, q))
            faces.add((a, b))
    # keep only maximal segments
    out = set()
    for f in faces:
        if not any(g != f and _contains(g, f) for g in faces):
            out.add(f)
    return out


def _contains(big, small):
    (a, b), (c, d) = big, small
    def on(p):
        return (b[0] - a[0]) * (p[1] - a[1]) == (b[1] - a[1]) * (p[0] - a[0]) and min(
            a[0], b[0]
        ) <= p[0] <= max(a[0], b[0])
    return on(c) and on(d)


def test_qh_implies_zero_aqh_residuals():
    t = TypeVector.make((1, 2), 2)
    # build an exactly quasi-homogeneous field for this type
    f = [gp("x^3 + x*y", ("x", "y")), gp("x^2*y + y^2", ("x", "y"))]
    assert certify_type(f, t) is None


def test_diagram_json_dump():
    X = [
        gp("x2^2", ("x1", "x2")),
        gp("x1^2 + x1^4", ("x1", "x2")),
    ]
    d = newton_data(X)
    assert d.vertices == ((0, 3), (3, 0))
    assert d.faces == ((0, 1),)
    assert d.weights == ((1, 1),)
