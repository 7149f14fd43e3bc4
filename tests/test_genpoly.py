"""Exact generalized-polynomial algebra."""

import math
import pickle
import struct
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from horizon.errors import DomainError, ParseError
from horizon.genpoly import (
    SOURCE_GLOBALS,
    GenMonomial,
    GenPoly,
    _float_pow_nan,
    format_genpoly,
    parse_genpoly,
    power_source,
    rows_function,
)


def gp(text, vars):
    return parse_genpoly(text, vars)


class TestEval:
    def test_inverse_square(self):
        p = gp("x1 * x2^(-2)", ("x1", "x2"))
        assert p.eval([2.0, 1.0]) == pytest.approx(2.0, abs=0)

    def test_first_component_inverse_power_system(self):
        # du0/dt = u1 * u0^-2 evaluated at (1, 1)
        p = gp("u1 * u0^(-2)", ("u0", "u1"))
        assert p.eval([1.0, 1.0]) == 1.0

    def test_zero_poly(self):
        p = GenPoly.zero(("x",))
        assert p.eval([123.0]) == 0.0

    def test_domain_errors(self):
        p = gp("x^(1/2)", ("x",))
        with pytest.raises(DomainError):
            p.eval([-1.0])
        q = gp("x^(-1)", ("x",))
        with pytest.raises(DomainError):
            q.eval([0.0])
        # zero base under a positive fractional power is the continuous limit
        assert p.eval([0.0]) == 0.0

    def test_compiled_once_and_kept_on_the_instance(self, monkeypatch):
        p = gp("2 * x^(-1) * y^(3/2) - x^2", ("x", "y"))
        assert p.eval([2.0, 4.0]) == 2 * 0.5 * 8.0 - 4.0
        monkeypatch.setattr(GenPoly, "compile", lambda self: pytest.fail("compiled again"))
        assert p.eval([1.0, 0.0]) == -1.0
        with pytest.raises(DomainError, match=r"^fractional power of negative y=-1.0$"):
            p.eval([1.0, -1.0])
        with pytest.raises(ValueError, match="point dimension mismatch"):
            p.eval([1.0])
        # the evaluator takes no part in equality, hashing or pickling
        q = pickle.loads(pickle.dumps(p))
        assert q == p and hash(q) == hash(p)
        monkeypatch.undo()
        assert q.eval([2.0, 4.0]) == 4.0

    def test_non_finite_coefficients_in_every_evaluator(self):
        # a float product past the range leaves an inf coefficient, and inf
        # times 0.0 a NaN one: each evaluator prints them as inf and nan
        # (compile() and compile_batch() raised NameError on them)
        p = GenPoly(("x",), {(F(1),): 1e308}) * 10.0
        q = p * 0.0
        assert [format_genpoly(p), format_genpoly(q)] == ["inf * x", "nan * x"]
        assert p.eval([2.0]) == p.compile()(2.0) == math.inf
        assert p.compile_batch()([2.0, -2.0]) == [math.inf, -math.inf]
        for f, x in ((p, 0.0), (q, 1.0)):
            with pytest.raises(DomainError, match="^evaluation produced NaN$"):
                f.eval([x])
            assert math.isnan(f.compile()(x)) and math.isnan(f.compile_batch()([x])[0])

    def test_coefficient_past_float_range_is_parse_error(self):
        # the coefficient was inf, which the evaluators print as the name inf
        with pytest.raises(ParseError, match=r"^line 1 col 7: coefficient is outside the "
                                             r"float range at '1e400'$"):
            gp("x + 2*1e400 * x^2", ("x",))
        with pytest.raises(ParseError, match=r"^line 1 col 10: .* at '1e200'$"):
            gp("-1e200 * 1e200 * x", ("x",))
        # an exact integer past the float range, and one inside it times a decimal
        for text, col in ((f"x - 1{'0' * 400} * x^2", 5), (f"1{'0' * 300} * 1e300 * x", 305)):
            with pytest.raises(ParseError, match=rf"^line 1 col {col}: coefficient is outside"):
                gp(text, ("x",))
        assert gp("1e-400 * x + x", ("x",)) == gp("x", ("x",))

    def test_never_nan(self):
        p = gp("x^(1/2) - x^(1/2)", ("x",))
        assert p.is_zero()


class TestPartial:
    def test_power_rule_negative(self):
        p = gp("u1 * u0^(-2)", ("u0", "u1"))
        assert p.partial("u0") == gp("-2 * u1 * u0^(-3)", ("u0", "u1"))

    def test_constant(self):
        p = gp("3", ("x",))
        assert p.partial("x").is_zero()

    def test_rational_exponent_rule(self):
        # d/du of a*u^((a+1)/a) = (a+1) * u^(1/a), checked at a = 1/2 and 2/3
        for a in (F(1, 2), F(2, 3)):
            e = (a + 1) / a
            p = GenPoly(("u",), {(e,): a})
            expected = GenPoly(("u",), {(F(1) / a,): a + 1})
            assert p.partial("u") == expected


class TestSubstitutePower:
    def test_two_vars(self):
        p = gp("y1 * y2", ("y1", "y2"))
        out = p.substitute_power(
            {
                "y1": GenMonomial.make(1, {"r": -1}),
                "y2": GenMonomial.make(1, {"r": -1, "x": 1}),
            },
            ("r", "x"),
        )
        assert out == gp("r^(-2) * x", ("r", "x"))

    def test_inverse_power_system_second_component(self):
        # u1^2 * u0^-1 under u0 = x, u1 = 1/r
        p = gp("u1^2 * u0^(-1)", ("u0", "u1"))
        out = p.substitute_power(
            {"u0": GenMonomial.make(1, {"x": 1}), "u1": GenMonomial.make(1, {"r": -1})},
            ("r", "x"),
        )
        assert out == gp("r^(-2) * x^(-1)", ("r", "x"))

    def test_identity(self):
        p = gp("2*x^2 - y^(1/3)", ("x", "y"))
        assert p.substitute_power({}, ("x", "y")) == p


class TestMulMonomial:
    def test_distributes(self):
        p = gp("x + 1", ("r", "x"))
        assert p * GenPoly.monomial(p.vars, GenMonomial.make(1, {"r": 2})) == \
            gp("x*r^2 + r^2", ("r", "x"))

    def test_radial_weight_clears_inverse_power(self):
        # first component pushed through u0 = x, u1 = 1/r, then weighted by r^(k+a1)
        # with k = 1, a1 = 0; result computed by hand: x^-2
        f1 = gp("u1 * u0^(-2)", ("u0", "u1"))
        pushed = f1.substitute_power(
            {"u0": GenMonomial.make(1, {"x": 1}), "u1": GenMonomial.make(1, {"r": -1})},
            ("r", "x"),
        )
        weighted = pushed * GenPoly.monomial(pushed.vars, GenMonomial.make(1, {"r": 1}))
        assert weighted == gp("x^(-2)", ("r", "x"))

    def test_identity_monomial(self):
        p = gp("x^2 - 3*x", ("x",))
        assert p * GenPoly.monomial(p.vars, GenMonomial.make(1, {})) == p


# -- hypothesis strategies ---------------------------------------------------

_EXPONENTS = st.fractions(
    min_value=-3, max_value=3, max_denominator=3
)
_COEFFS = st.one_of(
    st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(lambda c: c != 0),
)


@st.composite
def polys(draw, vars=("x", "y"), coeffs=_COEFFS):
    n_terms = draw(st.integers(min_value=1, max_value=5))
    terms = {}
    for _ in range(n_terms):
        ev = tuple(draw(_EXPONENTS) for _ in vars)
        terms[ev] = draw(coeffs)
    return GenPoly(vars, terms)


@settings(max_examples=60, deadline=None)
@given(polys())
def test_serialize_parse_roundtrip(p):
    text = format_genpoly(p)
    again = parse_genpoly(text, p.vars)
    assert again == p
    assert again.terms == p.terms  # identical canonical ordering


@settings(max_examples=40, deadline=None)
@given(polys())
def test_pickle_roundtrip(p):
    import pickle

    again = pickle.loads(pickle.dumps(p))
    assert again == p
    assert again.vars == p.vars and again.terms == p.terms


@settings(max_examples=40, deadline=None)
@given(polys())
def test_substitute_roundtrip_inverse_monomial(p):
    fwd = {
        "x": GenMonomial.make(1, {"u": 2, "v": -1}),
        "y": GenMonomial.make(1, {"v": 1}),
    }
    inv = {
        "u": GenMonomial.make(1, {"x": F(1, 2), "y": F(1, 2)}),
        "v": GenMonomial.make(1, {"y": 1}),
    }
    there = p.substitute_power(fwd, ("u", "v"))
    back = there.substitute_power(inv, ("x", "y"))
    assert back == p


def test_derivative_matches_finite_differences():
    import random

    rng = random.Random(7)
    vars = ("x", "y")
    p = parse_genpoly("3*x^2*y - 2*x^(-1) + y^(5/2) + 1/2*x*y^(-2)", vars)
    for i, v in enumerate(vars):
        dp = p.partial(v)
        for _ in range(20):
            pt = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
            h = 1e-6 * abs(pt[i])
            hi = list(pt)
            lo = list(pt)
            hi[i] += h
            lo[i] -= h
            fd = (p.eval(hi) - p.eval(lo)) / (2 * h)
            exact = dp.eval(pt)
            assert fd == pytest.approx(exact, rel=1e-6, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(polys())
def test_derivative_finite_difference_property(p):
    import random

    rng = random.Random(13)
    for i, v in enumerate(p.vars):
        dp = p.partial(v)
        for _ in range(5):
            pt = [rng.uniform(0.6, 1.8) for _ in p.vars]
            h = 1e-6 * abs(pt[i])
            hi, lo = list(pt), list(pt)
            hi[i] += h
            lo[i] -= h
            fd = (p.eval(hi) - p.eval(lo)) / (2 * h)
            exact = dp.eval(pt)
            scale = max(1.0, abs(exact))
            assert abs(fd - exact) <= 2e-6 * scale


class TestParser:
    def test_positions_on_zero_denominator(self):
        with pytest.raises(ParseError) as err:
            parse_genpoly("x^(1/0)", ("x",))
        assert err.value.line == 1
        assert err.value.col >= 4

    def test_unknown_variable(self):
        with pytest.raises(ParseError):
            parse_genpoly("z^2", ("x",))

    def test_float_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_genpoly("x^1.5", ("x",))

    def test_compile_matches_eval(self):
        p = parse_genpoly("2*x^(-2)*y + y^(3/2) - 5", ("x", "y"))
        f = p.compile()
        assert f(1.3, 0.7) == pytest.approx(p.eval([1.3, 0.7]), rel=1e-14)
        assert math.isnan(f(1.0, -1.0))  # compiled path degrades to NaN


# bases where _fpow leaves its one x**e branch, or x**e over- or underflows
_SPECIAL_BASES = (0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, -1.0,
                  -1e300, math.nan, -math.nan, math.inf, -math.inf, 1e300,
                  sys.float_info.max, -sys.float_info.max)


def _power_outcome(fn, x):
    """The type and bytes of ``fn(x)``, or the type of what it raised, and
    the categories of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(x)
            out = type(value), struct.pack("<d", value)
        except Exception as exc:
            out = type(exc)
    return out, [w.category for w in caught]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(_SPECIAL_BASES), st.floats()),
       st.fractions(min_value=-7, max_value=7, max_denominator=12).filter(
           lambda e: e.denominator != 1))
@example(1e300, F(3, 2))
@example(5e-324, F(-1, 2))
@example(-5e-324, F(1, 3))
def test_printed_fractional_power_is_fpows_value(x, e):
    # the printed conditional takes x**e only where the base is positive,
    # where _fpow returns x**e itself: the same bits, the same exception
    # (an overflowing float power) or the same numpy warning, on Python
    # floats and on the numpy float64 scalars batches fall back to
    printed = eval(f"lambda x: {power_source('x', e)}", dict(SOURCE_GLOBALS))
    assert "_fpow(x," in power_source("x", e)
    for base in (x, np.float64(x)):
        assert (_power_outcome(printed, base)
                == _power_outcome(lambda b: _float_pow_nan(b, float(e)), base)), (base, e)


def _eval_outcome(ps, point):
    """The bytes of each ``p.eval(point)``, or the type of what it raised."""
    try:
        return [struct.pack("<d", p.eval(point)) for p in ps]
    except (DomainError, OverflowError) as exc:
        return type(exc)


@st.composite
def row_batches(draw):
    """1 to 3 polynomials in 1 to 3 variables, some with float coefficients
    past the range of their products, and 0 to 5 points of any floats."""
    vars = ("x", "y", "z")[:draw(st.integers(1, 3))]
    coeffs = st.one_of(_COEFFS, st.sampled_from([0.1, 1e300, -1e300, 5e-324]))
    ps = draw(st.lists(polys(vars, coeffs), min_size=1, max_size=3))
    entry = st.one_of(st.floats(), st.sampled_from(_SPECIAL_BASES), st.floats(-3, 3))
    points = draw(st.lists(st.lists(entry, min_size=len(vars), max_size=len(vars)), max_size=5))
    return ps, points


@settings(max_examples=150, deadline=None)
@given(row_batches())
@example(([gp("x^(-1) + y^(1/2)", ("x", "y")), gp("1e300 * x * y", ("x", "y"))],
          [[0.0, 1.0], [2.0, -1.0], [1e300, 1e300], [-1e300, 1e300], [2.0, 4.0], [math.nan, 1.0]]))
@example(([gp("x^2", ("x",))], []))
def test_batched_eval_is_eval_row_by_row(batch):
    # each point's values are GenPoly.eval's bit for bit, or the same
    # exception type, DomainError or OverflowError, as a value
    ps, points = batch
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = rows_function(ps)(points)
    assert len(got) == len(points)
    for v, point in zip(got, points):
        out = [struct.pack("<d", x) for x in v] if type(v) is tuple else type(v)
        assert out == _eval_outcome(ps, point), (ps, point)
