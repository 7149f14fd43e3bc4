"""Chart transforms: directional/quasi-polar/blow-up charts, rescales,
provenance, and inversion.  Expected chart fields were derived by hand."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from horizon.compactify import (
    CS,
    SN,
    apply_recipe,
    base_field,
    blowup_chart,
    desingularize,
    directional_compactify,
    horizon_slice,
    monomial_chart,
    quasi_polar_compactify,
    restrict_invariant,
    time_rescale,
)
from horizon.errors import DomainError, ResidualSingularityError, SignError
from horizon.genpoly import GenMonomial, GenPoly, parse_genpoly
from horizon.structure import TypeVector
from oracles import forward_point, horizon_is_invariant, inverse_transform


def gp(text, vars):
    return parse_genpoly(text, vars)


def aiu_base():
    vars = ("u0", "u1")
    return base_field(
        vars,
        [gp("u1 * u0^(-2)", vars), gp("u1^2 * u0^(-1)", vars)],
        positive=vars,
        name="aiu",
    )


def iy_base(a):
    vars = ("v0", "v1")
    e = (a + 1) / a
    return base_field(
        vars,
        [
            GenPoly(vars, {(e, F(1)): a}),
            GenPoly(vars, {(F(1), e): a}),
        ],
        positive=vars,
        name="iy",
    )


class TestDirectional:
    def test_inverse_power_chart(self):
        C = directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1")
        assert C.vars == ("r", "u0")
        # dr/dt = -u0^-1, du0/dt = r^-1 u0^-2
        assert C.components[0] == gp("-u0^(-1)", ("r", "u0"))
        assert C.components[1] == gp("r^(-1) * u0^(-2)", ("r", "u0"))

    def test_fractional_homogeneity_chart(self):
        a = F(1, 2)
        C = directional_compactify(iy_base(a), TypeVector.make((1, 1), 1 + 1 / a), "v0")
        # dr/dt = -a r^(-1/a) v1,  dv1/dt = a r^(-(a+1)/a) (v1^(1/a+1) - v1^2)
        vars = ("r", "v1")
        assert C.components[0] == GenPoly(vars, {(-1 / a, F(1)): -a})
        assert C.components[1] == GenPoly(
            vars, {(-(a + 1) / a, (a + 1) / a): a, (-(a + 1) / a, F(2)): -a}
        )

    def test_zero_type_entry_rejected(self):
        with pytest.raises(ValueError):
            directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u0")

    def test_roundtrip_identity_on_samples(self):
        C = directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1")
        rng = np.random.default_rng(5)
        for _ in range(100):
            state = [rng.uniform(0.2, 3.0), rng.uniform(0.2, 3.0)]
            y = inverse_transform(C, state)
            back = forward_point(C, y)
            assert np.allclose(back, state, rtol=1e-12, atol=1e-12)

    def test_inverse_values(self):
        C = directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1")
        y = inverse_transform(C, [0.1, 2.0])
        assert y["u0"] == pytest.approx(2.0)
        assert y["u1"] == pytest.approx(10.0)
        with pytest.raises(DomainError):
            inverse_transform(C, [0.0, 2.0])


class TestDesingularize:
    def test_inverse_power_system(self):
        C = directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1")
        D = desingularize(C, 1)
        assert D.components[0] == gp("-r * u0^(-1)", ("r", "u0"))
        assert D.components[1] == gp("u0^(-2)", ("r", "u0"))
        # time chain so far: dt/dtau = r
        assert len(D.time_chain) == 1
        assert D.time_chain[0] == gp("r", ("r", "u0"))

    def test_then_clears_with_ratio_rescale(self):
        C = desingularize(
            directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1"), 1
        )
        E = time_rescale(C, GenMonomial.make(1, {"u0": 2}))
        assert E.components[0] == gp("-r * u0", ("r", "u0"))
        assert E.components[1] == gp("1", ("r", "u0"))
        # full chain dt/d(eta) = r * u0^2
        prod = E.time_chain[0] * E.time_chain[1]
        assert prod == gp("r * u0^2", ("r", "u0"))
        assert horizon_is_invariant(E)

    def test_fractional_desingularization(self):
        a = F(1, 2)
        k = 1 + 1 / a
        C = directional_compactify(iy_base(a), TypeVector.make((1, 1), k), "v0")
        D = desingularize(C, k)
        vars = ("r", "v1")
        assert D.components[0] == GenPoly(vars, {(F(1), F(1)): -a})
        assert D.components[1] == GenPoly(
            vars, {(F(0), (a + 1) / a): a, (F(0), F(2)): -a}
        )

    def test_residual_singularity_detected(self):
        # wrong k leaves a negative radial power
        C = directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1")
        with pytest.raises(ResidualSingularityError):
            desingularize(C, F(1, 2))

    def test_sign_error_on_nonpositive_factor(self):
        C = desingularize(
            directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1"), 1
        )
        bad = GenMonomial.make(-10, {"u0": 1})
        with pytest.raises(SignError):
            time_rescale(C, bad)


def quench_base():
    vars = ("phi", "psi")
    return base_field(vars, [gp("psi", vars), gp("-psi - phi^(-1)", vars)],
                      positive=("phi",), name="quench")


class TestTimeRescaleCertificate:
    @pytest.mark.parametrize("e", [F(1, 2), F(-1, 2), F(3, 2)], ids=str)
    def test_fractional_power_of_unmasked_variable_is_refused(self, e):
        # psi takes both signs on quench's base
        with pytest.raises(SignError, match="not positive"):
            time_rescale(quench_base(), GenMonomial.make(1, {"psi": e}))

    @pytest.mark.parametrize("exps", [{"psi": 2}, {"psi": -2, "phi": F(5, 3)}], ids=str)
    def test_unmasked_even_power_is_refused(self, exps):
        # psi^2 vanishes on psi = 0 and psi^(-2) is undefined there
        with pytest.raises(SignError, match="not positive"):
            time_rescale(quench_base(), GenMonomial.make(F(1, 3), exps))

    @pytest.mark.parametrize("exps", [{"phi": F(1, 2)}, {"phi": -3}], ids=str)
    def test_masked_or_even_powers_are_certified(self, exps):
        factor = GenMonomial.make(F(1, 3), exps)
        E = time_rescale(quench_base(), factor)
        assert E.time_chain == (GenPoly.monomial(E.poly_vars, factor),)

    def test_coefficient_the_rescale_overflows_is_refused(self):
        vars = ("x",)
        C = base_field(vars, [gp("1e200 * x^2", vars)], positive=vars)
        with pytest.raises(ValueError, match="outside the float range in inf \\* x\\^3"):
            time_rescale(C, GenMonomial.make(1e200, {"x": 1}))

    def test_quasitrig_symbols_never_qualify(self):
        C = quasi_polar_compactify(
            base_field(("x", "y"), [gp("y", ("x", "y")), gp("-x^3", ("x", "y"))]), 2, 1)
        with pytest.raises(SignError, match="not positive"):
            time_rescale(C, GenMonomial.make(1, {CS: 2}))


def andrews1_base(a, theta):
    # polynomial form after multiplying by the positive factor
    # sin(theta) * (u1 + 2 cos(theta) u0); the factor rides in the time chain
    vars = ("u0", "u1")
    ct, st = math.cos(theta), math.sin(theta)
    f1 = GenPoly(
        vars,
        {
            (F(2), F(2)): 1.0,
            (F(3), F(1)): 2 * (1 - a) * ct,
            (F(4), F(0)): -4 * a * ct * ct,
        },
    )
    f2 = GenPoly(vars, {(F(1), F(3)): 1.0, (F(2), F(2)): 2 * a * ct})
    mu = GenPoly(vars, {(F(0), F(1)): st, (F(1), F(0)): 2 * st * ct})
    return base_field(vars, [f1, f2], positive=vars, prefactor=mu, name="andrews1")


class TestAndrews1Chain:
    def test_desingularized_chart_matches_hand_derivation(self):
        a, theta = 0.75, math.pi / 4
        ct = math.cos(theta)
        C = directional_compactify(andrews1_base(a, theta), TypeVector.make((1, 1), 3), "u1")
        D = desingularize(C, 3)
        vars = ("r", "u0")
        # dr = -r u0 (1 + 2 a cos(theta) u0); du0 = 2cos(theta) u0^3 ((1-2a) - 2a cos(theta) u0)
        expect_r = GenPoly(vars, {(F(1), F(1)): -1.0, (F(1), F(2)): -2 * a * ct})
        expect_x = GenPoly(
            vars, {(F(0), F(3)): 2 * ct * (1 - 2 * a), (F(0), F(4)): -4 * a * ct * ct}
        )
        assert _close_poly(D.components[0], expect_r)
        assert _close_poly(D.components[1], expect_x)

    def test_full_chain_product(self):
        a, theta = 0.75, math.pi / 4
        ct, st = math.cos(theta), math.sin(theta)
        C = desingularize(
            directional_compactify(andrews1_base(a, theta), TypeVector.make((1, 1), 3), "u1"),
            3,
        )
        E = time_rescale(C, GenMonomial.make(1, {"u0": -1}))
        prod = GenPoly.const(E.vars, 1)
        for f in E.time_chain:
            prod = prod * f
        # dt/d(eta) = sin(theta) r^2 (1 + 2cos(theta) u0) / u0
        vars = ("r", "u0")
        expect = GenPoly(vars, {(F(2), F(-1)): st, (F(2), F(0)): 2 * st * ct})
        assert _close_poly(prod, expect)


def _close_poly(p, q, tol=1e-12):
    if p.vars != q.vars:
        return False
    te1, te2 = dict(p.terms), dict(q.terms)
    if set(te1) != set(te2):
        return False
    return all(abs(float(te1[k]) - float(te2[k])) <= tol * max(1.0, abs(float(te2[k]))) for k in te1)


class TestQuasiPolar:
    def test_lienard_chart(self):
        n = 3
        vars = ("x", "y")
        C = base_field(
            vars,
            [gp("y", vars), gp(f"-x^{2*n+1} - x^{2*n} - x^{n}*y", vars)],
            name="lienard",
        )
        Q = quasi_polar_compactify(C, n + 1, n)
        pv = ("r", CS, SN)
        # dr = r Cs^n Sn^2 + r^2 Sn Cs^2n ; dtheta = -(1 + Cs^(n+1) Sn + r Cs^(2n+1))
        expect_dr = GenPoly(pv, {(F(1), F(n), F(2)): 1, (F(2), F(2 * n), F(1)): 1})
        expect_dth = GenPoly(
            pv,
            {
                (F(0), F(0), F(0)): -1,
                (F(0), F(n + 1), F(1)): -1,
                (F(1), F(2 * n + 1), F(0)): -1,
            },
        )
        assert Q.components[0] == expect_dr
        assert Q.components[1] == expect_dth
        assert Q.time_chain[-1] == GenPoly(pv, {(F(n), F(0), F(0)): 1})

    def test_jacobian_angle_column(self):
        # d/dtheta through Cs' = -Sn, Sn' = Cs^(2l-1), l = n + 1: of
        # dtheta = -(1 + Cs^(n+1) Sn + r Cs^(2n+1)) it is
        # (n+1) Cs^n Sn^2 + (2n+1) r Cs^2n Sn - Cs^(3n+2)
        n = 3
        vars = ("x", "y")
        C = base_field(vars, [gp("y", vars), gp(f"-x^{2*n+1} - x^{2*n} - x^{n}*y", vars)],
                       name="l")
        Q = quasi_polar_compactify(C, n + 1, n)
        pv = ("r", CS, SN)
        assert Q.jacobian[1][1] == GenPoly(pv, {
            (F(0), F(n), F(2)): n + 1,
            (F(1), F(2 * n), F(1)): 2 * n + 1,
            (F(0), F(3 * n + 2), F(0)): -1,
        })
        assert [row[0] for row in Q.jacobian] == [c.partial("r") for c in Q.components]
        # and both columns against a central difference off the horizon
        h, state = 1e-6, [0.3, 2.0]
        pt = Q.state_to_poly_point(state)
        for j in range(2):
            step = [h * (k == j) for k in range(2)]
            hi = Q.eval_components([x + d for x, d in zip(state, step)])
            lo = Q.eval_components([x - d for x, d in zip(state, step)])
            for i in range(2):
                fd = (hi[i] - lo[i]) / (2 * h)
                assert Q.jacobian[i][j].eval(pt) == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_classical_polar_rotation(self):
        vars = ("y1", "y2")
        C = base_field(vars, [gp("y2", vars), gp("-y1", vars)], name="rot")
        Q = quasi_polar_compactify(C, 1, 0)
        pv = ("r", CS, SN)
        assert Q.components[0].is_zero()
        assert Q.components[1] == GenPoly(pv, {(F(0), F(0), F(0)): -1})

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_is_refused(self, m):
        # Cs^(2m) -> 1 - m Sn^2 reduces nothing for m < 1: at m = 0 it
        # rewrote Cs^0 forever
        vars = ("x", "y")
        C = base_field(vars, [gp("y", vars), gp("x", vars)], name="m0")
        with pytest.raises(ValueError, match=f"needs m >= 1, not m = {m}$"):
            quasi_polar_compactify(C, m, 1)

    def test_type_is_certified_on_the_field(self):
        # the lienard n=3 field is of type (1, 4): with m = 3, x^7 lies above
        vars = ("x", "y")
        C = base_field(vars, [gp("y", vars), gp("-x^7 - x^6 - x^3*y", vars)], name="l")
        with pytest.raises(ResidualSingularityError, match="term -x\\^7"):
            quasi_polar_compactify(C, 3, 3)

    def test_horizon_slice_has_zero_radial_component(self):
        n = 3
        vars = ("x", "y")
        C = base_field(
            vars, [gp("y", vars), gp(f"-x^{2*n+1} - x^{2*n} - x^{n}*y", vars)], name="l"
        )
        Q = quasi_polar_compactify(C, n + 1, n)
        assert horizon_is_invariant(Q)

    def test_inverse_transform(self):
        n = 3
        vars = ("x", "y")
        C = base_field(
            vars, [gp("y", vars), gp(f"-x^{2*n+1} - x^{2*n} - x^{n}*y", vars)], name="l"
        )
        Q = quasi_polar_compactify(C, n + 1, n)
        from horizon.quasitrig import cssn

        r, th = 0.25, 1.3
        y = inverse_transform(Q, [r, th])
        c, s = cssn(th, n + 1)
        assert y["x"] == pytest.approx(c / r, rel=1e-12)
        assert y["y"] == pytest.approx(s / r ** (n + 1), rel=1e-12)


class TestBlowup:
    def test_wave_profile_blowup_chart(self):
        # phi' = psi, psi' = n c phi^n - n phi^(m+n-1); weights (2, n+1)
        n, m, c = 2, 2, 1
        vars = ("phi", "psi")
        C = base_field(
            vars,
            [gp("psi", vars), gp(f"{n*c}*phi^{n} - {n}*phi^{m+n-1}", vars)],
            positive=("phi",),
            name="kdv",
        )
        B = blowup_chart(C, (2, n + 1), "phi")
        R = time_rescale(B, GenMonomial.make(1, {"r": -(n - 1)}))
        pv = ("r", "psi_b")
        # dr = (1/2) r psi_b ; dpsi_b = nc - n r^(2m-2) - ((n+1)/2) psi_b^2
        assert R.components[0] == GenPoly(pv, {(F(1), F(1)): F(1, 2)})
        assert R.components[1] == GenPoly(
            pv,
            {
                (F(0), F(0)): n * c,
                (F(2 * m - 2), F(0)): -n,
                (F(0), F(2)): -F(n + 1, 2),
            },
        )

    def test_homogeneous_blowup_of_linear_saddle(self):
        vars = ("x", "y")
        C = base_field(vars, [gp("x", vars), gp("-y", vars)], name="saddle")
        B1 = blowup_chart(C, (1, 1), "x")
        # x = r, y = r yb: dr = r, dyb = -2 yb  (same linear part in the chart)
        assert B1.components[0] == gp("r", ("r", "y_b"))
        assert B1.components[1] == gp("-2*y_b", ("r", "y_b"))


class TestMonomialChartNested:
    def test_triple_product_compactification(self):
        # u1 = 1/r, u2 = 1/(r w), u3 = y/(r w); desingularize with (r w)^2
        a, a1 = F(1, 4), F(1)
        vars = ("u1", "u2", "u3")
        f = [
            GenPoly(vars, {(F(2), F(1), F(0)): a, (F(2), F(0), F(1)): a, (F(3), F(0), F(0)): -a1}),
            GenPoly(vars, {(F(0), F(2), F(1)): a, (F(1), F(2), F(0)): a1, (F(0), F(3), F(0)): -a}),
            GenPoly(vars, {(F(1), F(0), F(2)): a1, (F(0), F(1), F(2)): a, (F(0), F(0), F(3)): -a}),
        ]
        C = base_field(vars, f, positive=vars, name="andrews2")
        M = monomial_chart(
            C,
            {
                "u1": GenMonomial.make(1, {"r": -1}),
                "u2": GenMonomial.make(1, {"r": -1, "w": -1}),
                "u3": GenMonomial.make(1, {"r": -1, "w": -1, "y": 1}),
            },
            ("r", "w", "y"),
            radial="r",
            positive=("r", "w", "y"),
        )
        D = time_rescale(M, GenMonomial.make(1, {"r": 2, "w": 2}))
        S = restrict_invariant(D, "y", 1)
        E = time_rescale(S, GenMonomial.make(1, {"w": -1}))
        pv = ("r", "w")
        # dr = -r(2a - a1 w), dw = (2a - a1) w - a1 w^2
        assert E.components[0] == GenPoly(pv, {(F(1), F(0)): -2 * a, (F(1), F(1)): a1})
        assert E.components[1] == GenPoly(pv, {(F(0), F(1)): 2 * a - a1, (F(0), F(2)): -a1})
        prod = GenPoly.const(pv, 1)
        for fch in E.time_chain:
            prod = prod * fch
        assert prod == GenPoly(pv, {(F(2), F(1)): 1})  # dt/d(eta) = r^2 w

    def test_restrict_requires_invariance(self):
        vars = ("x", "y")
        C = base_field(vars, [gp("x", vars), gp("y + x", vars)], name="bad")
        with pytest.raises(ValueError):
            restrict_invariant(C, "y", 0)


class TestQuenchChain:
    def test_alpha2_full_chain(self):
        alpha, c = 2, 1
        vars = ("phi", "psi")
        C = base_field(
            vars,
            [gp("psi", vars), gp(f"-{c}*psi - phi^(-{alpha})", vars)],
            positive=("phi",),
            name="quench",
        )
        D0 = time_rescale(C, GenMonomial.make(1, {"phi": alpha}))
        assert D0.components[0] == gp(f"phi^{alpha} * psi", vars)
        assert D0.components[1] == gp(f"-{c}*phi^{alpha}*psi - 1", vars)
        DC = directional_compactify(
            D0, TypeVector.make((1, 1), alpha), "psi", sign=-1, radial="lam"
        )
        DS = desingularize(DC, alpha)
        pv = ("lam", "phi")
        # dlam = c phi^a lam - lam^(2+a); dphi = c phi^(a+1) - phi lam^(1+a) - phi^a
        assert DS.components[0] == GenPoly(
            pv, {(F(1), F(alpha)): c, (F(2 + alpha), F(0)): -1}
        )
        assert DS.components[1] == GenPoly(
            pv,
            {
                (F(0), F(alpha + 1)): c,
                (F(1 + alpha), F(1)): -1,
                (F(0), F(alpha)): -1,
            },
        )
        B = blowup_chart(DS, (alpha - 1, alpha + 1), "lam", radial="r")
        R = time_rescale(B, GenMonomial.make(1, {"r": -(alpha**2 - 1)}))
        pv2 = ("r", "phi_b")
        # alpha=2: dr = r(c r^3 xb^2 - 1); dxb = 2 xb - xb^2 - 2 c r^3 xb^3
        assert R.components[0] == GenPoly(
            pv2, {(F(4), F(alpha)): c, (F(1), F(0)): -1}
        )
        assert R.components[1] == GenPoly(
            pv2,
            {
                (F(0), F(1)): 2,
                (F(0), F(2)): -1,
                (F(3), F(3)): -2 * c,
            },
        )
        prod = GenPoly.const(pv2, 1)
        for fch in R.time_chain:
            prod = prod * fch
        # d(xi)/d(eta) = r^(alpha+1) xb^alpha
        assert prod == GenPoly(pv2, {(F(alpha + 1), F(alpha)): 1})


def test_recipe_replay_reproduces_chart():
    C = desingularize(
        directional_compactify(aiu_base(), TypeVector.make((0, 1), 1), "u1"), 1
    )
    E = time_rescale(C, GenMonomial.make(1, {"u0": 2}))
    replayed = apply_recipe(aiu_base(), [s.to_dict() for s in E.provenance])
    assert replayed.components == E.components
    assert replayed.time_chain == E.time_chain
    assert replayed.vars == E.vars


class TestReplay:
    def test_schema1_blowup_without_radial_replays_to_r(self):
        vars = ("phi", "psi")
        base = base_field(vars, [gp("psi", vars), gp("-psi - phi^2", vars)], name="wave")
        steps = [s.to_dict() for s in blowup_chart(base, (1, 2), "phi").provenance]
        del steps[1]["params"]["radial"]  # schema 1 did not record it
        rebuilt = apply_recipe(None, steps)
        assert rebuilt.vars == ("r", "psi_b")
        assert rebuilt.radial == "r"
        assert rebuilt.to_dict() == blowup_chart(base, (1, 2), "phi").to_dict()

    def test_unknown_op_is_refused(self):
        with pytest.raises(ValueError, match="unknown transform op 'twist'"):
            apply_recipe(aiu_base(), [{"op": "twist", "params": {}}])

    @pytest.mark.parametrize("op,params", [
        ("desingularize", {"k": "1", "sgn": -1}),
        ("directional", {"alpha": ["0", "1"], "k": "1", "index": "u1", "sign": 1}),
        ("restrict", {"var": "u0", "value": "1", "at": 0}),
    ], ids=["extra-key", "missing-key", "restrict-extra-key"])
    def test_params_that_do_not_fit_are_refused_naming_the_op(self, op, params):
        with pytest.raises(ValueError, match=f"transform op '{op}'"):
            apply_recipe(aiu_base(), [{"op": op, "params": params}])

    def test_quasipolar_inverse_is_undefined_on_the_horizon(self):
        from horizon.casebook import get_case

        chart = get_case("lienard").definition().chart
        assert inverse_transform(chart, [0.5, 0.0])["x"] == pytest.approx(2.0)
        with pytest.raises(DomainError, match="r = 0"):
            inverse_transform(chart, [0.0, 0.3])
