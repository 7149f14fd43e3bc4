"""The printed text of one DP5 stage against the text it replaced.

The Cs/Sn lookup and the polynomial printer are printed with float
operations only (``%``, ``math.floor``, ``x**3.0``), and the dense-output
sum leaves out its zero weights, on numbers and on arrays.  Each must give
the previous text's values and exceptions bit for bit; the references are the
previous implementations kept verbatim in ``test_fused_stepper``.  Also
here: the two faults the rewrite mends (an error norm that overflows, a
non-finite angle) and the shape of the state array built from the flat
state list.
"""

import math
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import test_fused_stepper as ref
from horizon.casebook import get_case
from horizon.compactify import CS, SN, ChartField, base_field
from horizon.dynamics import _dense_sum, integrate
from horizon.genpoly import GenPoly, parse_genpoly, power_source
from horizon.quasitrig import _NODES, table


def outcome(fn, *args):
    """Bits of a float result (a tuple's items), or the exception type."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            value = fn(*args)
        except Exception as exc:  # compared by type
            return type(exc)
    items = value if isinstance(value, tuple) else (value,)
    return tuple((type(v), struct.pack("<d", v)) for v in items)


# -- the Cs/Sn lookup ----------------------------------------------------------------


def _angles(T):
    h = T / _NODES
    return st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-4 * T, 4 * T),
        st.integers(-3, 3).map(lambda j: j * T),
        st.integers(-2 * _NODES, 3 * _NODES).map(lambda j: j * h),
        st.sampled_from([T, -T, 2 * T]).flatmap(lambda x: st.sampled_from(
            [math.nextafter(x, math.inf), math.nextafter(x, -math.inf)])),
        st.sampled_from([0.0, -0.0, 1e15, -1e15, 5e-324, -5e-324,
                         2.2250738585072014e-308, -1e-310]),
    )


@st.composite
def tables_and_angles(draw):
    tab = table(draw(st.sampled_from([1, 2, 4])))
    return tab, draw(_angles(tab.T))


@settings(max_examples=400, deadline=None)
@given(tables_and_angles())
@example((table(4), -0.0))
@example((table(4), 0.0))
@example((table(2), -5e-324))
def test_lookup_matches_previous_text(case):
    tab, theta = case
    old = outcome(lambda th: tuple(map(float, ref.old_eval_scalar(tab, th))), theta)
    assert outcome(tab.lookup, theta) == old


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_lookup_of_non_finite_angle_raises_value_error(theta):
    # the previous text raised ValueError too: fmod of an infinity, int of a NaN
    tab = table(4)
    assert outcome(tab.lookup, theta) == outcome(ref.old_eval_scalar, tab, theta) == ValueError


# -- the printed powers and terms ------------------------------------------------------

BASES = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, -1.0, -2.5, 1e200, -1e200, 1e-200, math.inf,
                     -math.inf, math.nan, 5e-324]),
)


@settings(max_examples=400, deadline=None)
@given(BASES, st.integers(-8, 8).filter(lambda n: n not in (0, 1))
       | st.sampled_from([-400, 50, 400]), st.booleans())
@example(1e200, 2, False)
@example(0.0, -1, False)
@example(-0.0, -3, True)
@example(math.nan, 2, True)
def test_integer_power_text_matches_int_exponent(x, n, numpy_scalar):
    # a batch that raises on Python floats is evaluated again on numpy scalars
    x = np.float64(x) if numpy_scalar else x
    printed = power_source("x", Fraction(n))
    assert printed == f"x**{float(n)!r}"
    assert outcome(lambda v: eval(printed, {"x": v}), x) == outcome(lambda v: v**n, x)


VALUES = st.one_of(ref.VALUES, st.sampled_from([1e200, -1e200, math.inf, -math.inf]))


@st.composite
def polys_and_points(draw):
    vars = ("x", "y", "z")
    p = draw(ref.polys(vars))
    return p, [draw(VALUES) for _ in vars], draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(polys_and_points())
@example((parse_genpoly("x - y", ("x", "y", "z")), [1.0, math.inf, 0.0], False))
@example((parse_genpoly("2*x - 1", ("x", "y", "z")), [0.5, 0.0, 0.0], False))
@example((parse_genpoly("x^2 - 3/2*y^3*z^(-1)", ("x", "y", "z")), [1.0, 2.0, 0.0], True))
# NaN + NaN of opposite signs: a - b would return the left NaN, a + -b the right
@example((parse_genpoly("y^(-1/2) + 1 - x * y", ("x", "y", "z")), [math.inf, 0.0, 1.0], False))
def test_polynomial_text_matches_previous_printer(case):
    p, point, numpy_scalar = case
    if numpy_scalar:
        point = [np.float64(v) for v in point]
    assert outcome(p.compile(), *point) == outcome(ref.old_compile(p), *point)


@st.composite
def polys_and_columns(draw):
    vars = ("x", "y", "z")
    p = draw(ref.polys(vars))
    rows = draw(st.lists(st.lists(VALUES, min_size=3, max_size=3), min_size=1, max_size=6))
    return p, [list(col) for col in zip(*rows)]


def _bits(values):
    # a NaN as NaN: numpy scalars and Python floats may give NaNs of either sign
    return [b"nan" if math.isnan(v) else struct.pack("<d", v) for v in values]


@settings(max_examples=300, deadline=None)
@given(polys_and_columns())
# a Python power raises on one row: 0.0**-1.0, an overflow, (-0.0)**-3.0
@example((parse_genpoly("x^(-1) + y", ("x", "y", "z")), [[2.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
@example((parse_genpoly("x^2 * y", ("x", "y", "z")), [[1.5, 1e200], [1.0, -1.0], [0.0, 0.0]]))
@example((parse_genpoly("z^(-3) - x", ("x", "y", "z")), [[1.0, 1.0], [0.0, 0.0], [2.0, -0.0]]))
@example((parse_genpoly("x^(3/2)", ("x", "y", "z")), [[1e300, 4.0], [0.0, 0.0], [0.0, 0.0]]))
def test_batch_matches_compile_row_by_row(case):
    p, cols = case
    fn = p.compile()
    rows = list(zip(*cols))
    on_floats = [outcome(fn, *row) for row in rows]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        got = p.compile_batch()(*cols)
        # the samples' values before the batch, on numpy scalars
        on_numpy = [fn(*map(np.float64, row)) for row in rows]
    assert _bits(got) == _bits(on_numpy)
    if ZeroDivisionError in on_floats or OverflowError in on_floats:
        # the whole batch is evaluated again on numpy scalars
        assert [outcome(lambda: v) for v in got] == [outcome(lambda: v) for v in on_numpy]
        assert all(type(v) is np.float64 for v in got)
    else:
        assert [outcome(lambda: v) for v in got] == on_floats


@pytest.mark.parametrize("text", [
    "-y^2 * z^(1/2) + 2 * x^(1/2) * z^(1/2)",
    "3/2 * x^(5/2) * y^(-1) - x^3 + 1/3 * y^2 * z",
    "x^(1/3) * y^4 - 7 * z^(3/2) + 1/4 * x^(-2) * y - z^5",
])
def test_a_specialized_batch_matches_compile_on_finite_values(text):
    # the draws above stop at 6 rows; from its 8th row on a batch runs
    # specialized, where only a NaN's sign may change
    p = parse_genpoly(text, ("x", "y", "z"))
    rng = np.random.default_rng(3)
    rows = rng.uniform(0.1, 3.0, (24, 3)).tolist() + rng.uniform(-3.0, 3.0, (24, 3)).tolist()
    rows += [[-1.0, 0.5, math.inf], [4.0, 2.0, 0.5]] * 4
    got = p.compile_batch()(*zip(*rows))
    fn = p.compile()
    want = [fn(*row) for row in rows]
    assert all(type(v) is float for v in got) and len(got) == len(rows)
    finite = [i for i, v in enumerate(want) if math.isfinite(v)]
    assert len(finite) >= 16 and any(math.isnan(v) for v in want)
    assert _bits([got[i] for i in finite]) == _bits([want[i] for i in finite])
    assert [math.isnan(v) for v in got] == [math.isnan(v) for v in want]


def test_negative_terms_keep_their_coefficient():
    vars = ("x", "y")
    p = parse_genpoly("-x - y^2 + 3/2*x*y - 1/4", vars)
    # storage order; terms are added, a negative coefficient is a factor
    assert p.source(["x", "y"]) == "-0.25 + -1.0*y**2.0 + -1.0*x + 1.5*x*y"
    assert GenPoly.zero(vars).source(["x", "y"]) == "0.0"


# -- the dense-output sum ----------------------------------------------------------------

STAGE_VALUES = st.lists(st.floats(-1e150, 1e150), min_size=7, max_size=7)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), STAGE_VALUES)
@example(0.0, [1.0, 2.0, -3.0, 4.0, -5.0, 6.0, 7.0])
@example(0.0, [-0.0] * 7)
@example(1.0, [1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0])
def test_unrolled_dense_sum_matches_rolled_loop(th, values):
    want = outcome(ref._dense_sum, th, values)
    assert outcome(_dense_sum, th, values) == want
    # elementwise on arrays, as the crossing pass calls it: th and each
    # stage value the second entry of an array
    arrays = [np.array([0.5, v]) for v in values]
    assert outcome(lambda: _dense_sum(np.array([1.0, th]), arrays)[1].item()) == want


# -- the state store -------------------------------------------------------------------------


def _charts():
    x = base_field(("x",), [parse_genpoly("-x", ("x",))], name="decay")
    xy = ("x", "y")
    rot = base_field(xy, [parse_genpoly(t, xy) for t in ("-y", "x")], name="rotation")
    xyz = ("x", "y", "z")
    lorenz = base_field(xyz, [parse_genpoly(t, xyz) for t in (
        "10*y - 10*x", "28*x - y - x*z", "x*y - 8/3*z")], name="lorenz")
    return [(x, [1.0]), (rot, [1.0, 0.0]), (lorenz, [1.0, 1.0, 1.0])]


@pytest.mark.parametrize("max_steps", [0, 1, 40])
@pytest.mark.parametrize("chart,x0", _charts(), ids=["1d", "2d", "3d"])
def test_states_have_one_row_per_accepted_step(chart, x0, max_steps):
    traj = integrate(chart, x0, 100.0, max_steps=max_steps, stop_at_equilibrium=False)
    assert traj.n_steps == max_steps
    assert traj.states.shape == (max_steps + 1, len(x0))
    assert traj.states.dtype == np.float64
    assert traj.states[0].tolist() == x0
    assert len(traj.tau) == len(traj.states)


# -- faults the rewrite mends ------------------------------------------------------------------


@pytest.mark.parametrize("name,params,x0,h0", [
    ("iy", None, (0.5, 0.5), 1e300),
    ("lienard", {"n": 3}, None, 1e306),
], ids=["iy", "lienard-n3"])
def test_overflowing_error_norm_rejects_the_step(name, params, x0, h0):
    # a huge first step makes (e / sc) ** 2 overflow; the norm reads inf and
    # the step shrinks by 0.2, as a numpy norm (inf) would have made it
    cdef = get_case(name).definition(params)
    x0 = x0 or cdef.runs[0].initial
    traj = integrate(cdef.chart, x0, 1e308, h0=h0, max_steps=50)
    assert traj.termination == "step-budget" and traj.n_steps == 50
    assert traj.n_rejected > traj.n_nonfinite
    assert np.isfinite(traj.states).all()


@pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
def test_non_finite_initial_angle_reports_a_non_finite_field(theta):
    C = get_case("lienard").definition({"n": 3}).chart
    with pytest.raises(ValueError, match="field not finite at the initial state"):
        integrate(C, (0.1, theta), 10.0)


def test_non_finite_stage_angle_halves_the_step():
    # theta' = w = -1e300 from theta = 1.7e308 with h0 = 1e10 puts the
    # first stage's angle at 1.7e308 - 2e309 = -inf; the lookup raises
    # ValueError and the step is halved.  |theta| falls, so no step crosses
    # a section (see test_native.test_nan_stage_angle_on_a_quasipolar_chart)
    pv = ("w", "r", CS, SN)
    C = ChartField(vars=("w", "r", "theta"), provenance=(), time_chain=(),
                   components=tuple(parse_genpoly(t, pv) for t in ("0", "-r", "w")),
                   quasipolar_index=1, angle="theta")
    traj = integrate(C, [-1e300, 1.0, 1.7e308], 1e10, h0=1e10, max_steps=5,
                     stop_at_equilibrium=False)
    assert traj.n_nonfinite >= 1 and traj.n_steps == 5
    assert np.isfinite(traj.states).all() and len(traj.sections) == 0
