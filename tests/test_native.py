"""The compiled continuation of the DP5 loop against the Python loop.

A run longer than ``dynamics._NATIVE_AFTER`` accepted steps continues in C,
translated from the same generated loop text (``horizon.native``).  Every
test here compares whole trajectories bit for bit: times, states, time
increments, cumulative times, sections and all counters, or the exception
that leaves ``integrate``.  The handoff threshold is lowered to 0 (the whole
run in C) and 7 (a handoff after the Python loop's first steps), with no
loop text counting as compiled (:func:`cold`), or a warm text would hand off
at 0 whatever the threshold.  Each new chart costs one compile, so the
hypothesis runs are short.
"""

import array
import ast
import contextlib
import math
import sys
import textwrap
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

import test_dynamics
from horizon import dynamics, native
from horizon.casebook import get_case
from horizon.compactify import CS, SN, ChartField, base_field
from horizon.dynamics import integrate
from horizon.genpoly import GenPoly, _float_pow_nan, parse_genpoly, power_source
from horizon.quasitrig import table
from test_fused_stepper import bits

pytestmark = pytest.mark.skipif(native.compiler() is None, reason="no C compiler on PATH")

FIELDS = ("tau", "states", "dt_inc", "t", "sections", "termination", "n_steps",
          "n_rejected", "n_rhs", "n_nonfinite")


@pytest.fixture
def handoffs(monkeypatch):
    """The calls of ``native.resume`` during the test."""
    calls = []
    resume = native.resume

    def counting(*args):
        calls.append(args[2]["n_acc"])
        return resume(*args)

    monkeypatch.setattr(native, "resume", counting)
    return calls


@contextlib.contextmanager
def cold():
    """Within it no loop text counts as compiled: a run hands off after
    ``dynamics._NATIVE_AFTER`` steps, not at step 0.  The compiled loops
    stay, so a handoff reuses them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(native, "warm", lambda text: False)
        yield


def outcome(monkeypatch, after, *args, **kw):
    """The trajectory of ``integrate(*args, **kw)`` with the handoff after
    ``after`` accepted steps (None: never), or the exception it raised."""
    monkeypatch.setattr(dynamics, "_NATIVE_AFTER", 10**12 if after is None else after)
    with cold():
        return warm_outcome(*args, **kw)


def warm_outcome(*args, **kw):
    """:func:`outcome` of ``integrate(*args, **kw)`` as the process stands."""
    try:
        traj = integrate(*args, **kw)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)
    return {name: bits(getattr(traj, name)) for name in FIELDS}


def assert_native_matches_python(monkeypatch, *args, afters=(0, 7), **kw):
    want = outcome(monkeypatch, None, *args, **kw)
    for after in afters:
        assert outcome(monkeypatch, after, *args, **kw) == want, after
    return want


def plan_args(name, params=None, **over):
    cdef = get_case(name).definition(params)
    plan = cdef.runs[0]
    kw = dict(rtol=plan.rtol, atol=plan.atol, direction=plan.direction, h_max=plan.h_max,
              stop_at_equilibrium=plan.stop_at_equilibrium)
    kw.update(over)
    return (cdef.chart, plan.initial, kw.pop("tau_end", plan.tau_end)), kw


def test_lienard_n1_hands_off_at_the_default_threshold(monkeypatch, handoffs):
    # the first run of the loop text in a process hands off after 32,768
    # Python steps and compiles; the next one starts in C
    assert dynamics._NATIVE_AFTER == 32_768
    args, kw = plan_args("lienard", {"n": 1})
    want = outcome(monkeypatch, None, *args, **kw)
    assert not handoffs
    assert outcome(monkeypatch, 32_768, *args, **kw) == want
    assert warm_outcome(*args, **kw) == want
    assert handoffs == [32_768, 0]
    assert want["n_steps"] == 101_445 and want["sections"][0] == (307,)  # its shape


def test_each_lienard_text_warms_on_its_own(monkeypatch, handoffs):
    # n=3 after n=1 is a new text, and n=1 after n=3 gets n=1's compiled
    # loop back; each run is its own Python-only run bit for bit
    runs = [plan_args("lienard", {"n": n}, tau_end=tau_end)
            for n, tau_end in ((1, 900.0), (3, 2400.0), (1, 900.0))]
    wants = [outcome(monkeypatch, None, *args, **kw) for args, kw in runs]
    assert not handoffs and all(want["n_steps"] > 32_768 for want in wants)
    monkeypatch.setattr(dynamics, "_NATIVE_AFTER", 32_768)
    monkeypatch.setattr(native, "_PROGRAMS", {})  # a process that compiled nothing yet
    assert [warm_outcome(*args, **kw) for args, kw in runs] == wants
    assert handoffs == [32_768, 32_768, 0]


@settings(max_examples=6, deadline=None)
@given(test_dynamics.PLANAR_POLY, test_dynamics.PLANAR_POLY,
       test_dynamics.st.floats(0.0, 1.0), test_dynamics.st.floats(0.0, 1.0))
def test_native_planar_fields_match_python_and_dop853(fx, fy, a, b):
    # the fields of test_dp5_matches_dop853_on_random_planar_fields, with the
    # whole run in C and with a handoff after 7 steps
    trajs = []
    for after in (None, 0, 7):
        with pytest.MonkeyPatch.context() as mp, cold():
            mp.setattr(dynamics, "_NATIVE_AFTER", 10**12 if after is None else after)
            trajs.append(test_dynamics.check_planar_field_against_dop853(fx, fy, a, b))
    want = [bits(getattr(trajs[0], name)) for name in FIELDS]
    for traj in trajs[1:]:
        assert [bits(getattr(traj, name)) for name in FIELDS] == want


def _decay():
    return base_field(("x",), [parse_genpoly("-x", ("x",))], name="decay")


@pytest.mark.parametrize("direction", [1, -1], ids=["sections-1", "sections--1"])
def test_lienard_directions_and_sections(monkeypatch, direction):
    args, kw = plan_args("lienard", {"n": 1}, tau_end=60.0 if direction > 0 else 20.0,
                         direction=direction)
    want = assert_native_matches_python(monkeypatch, *args, **kw)
    assert want["n_steps"] > 7 and want["sections"][0] >= (2,)  # its shape


@pytest.mark.parametrize("stop", [True, False], ids=["stop", "no-stop"])
def test_equilibrium_stop(monkeypatch, stop):
    want = assert_native_matches_python(monkeypatch, _decay(), [1.0], 1e6, rtol=1e-10,
                                        atol=1e-13, stop_at_equilibrium=stop, max_steps=3000)
    assert (want["termination"] == "converged-to-equilibrium") == stop


def test_reversed_iy_run(monkeypatch):
    args, kw = plan_args("iy", direction=-1, tau_end=5.0)
    assert_native_matches_python(monkeypatch, *args, **kw)


# -- the fault runs of test_dynamics.TestTermination and test_stage_text ----------------


@pytest.mark.parametrize("name,params,x0,h0", [
    ("iy", None, (0.5, 0.5), 1e300),
    ("lienard", {"n": 3}, None, 1e306),
], ids=["iy", "lienard-n3"])
def test_overflowing_error_norm(monkeypatch, name, params, x0, h0):
    cdef = get_case(name).definition(params)
    x0 = x0 or cdef.runs[0].initial
    want = assert_native_matches_python(monkeypatch, cdef.chart, x0, 1e308, h0=h0, max_steps=50)
    assert want["n_rejected"] > want["n_nonfinite"]


def test_nan_error_norm_on_a_huge_time_chain(monkeypatch):
    vars = ("x",)
    C = base_field(vars, [parse_genpoly("-x", vars)], prefactor=GenPoly.const(vars, 1e300),
                   name="huge-chain")
    want = assert_native_matches_python(monkeypatch, C, [1.0], 1e20, h0=1e10, max_steps=30,
                                        stop_at_equilibrium=False)
    assert want["n_rejected"] > 0


def test_short_last_step(monkeypatch):
    C = base_field(("x",), [parse_genpoly("1", ("x",))], name="drift")
    want = assert_native_matches_python(monkeypatch, C, [0.0], 1.0, h0=0.99999999999999,
                                        stop_at_equilibrium=False, afters=(0, 1))
    assert want["termination"] == "tau-budget" and want["n_steps"] == 2


def test_step_budget(monkeypatch):
    args, kw = plan_args("lienard", {"n": 3}, max_steps=500, stop_at_equilibrium=False)
    want = assert_native_matches_python(monkeypatch, *args, **kw)
    assert want["termination"] == "step-budget" and want["n_steps"] == 500


def test_step_underflow(monkeypatch):
    # x' = x^2 from 1 reaches infinity at tau = 1
    C = base_field(("x",), [parse_genpoly("x^2", ("x",))], name="blow-up")
    want = assert_native_matches_python(monkeypatch, C, [1.0], 2.0, stop_at_equilibrium=False)
    assert want["termination"] == "step-underflow"


def test_nan_stage_angle_on_a_quasipolar_chart(monkeypatch):
    # theta' = w = -1e300 from theta = 1.7e308 puts a stage's angle at -inf;
    # the lookup raises ValueError inside the stage, which halves the step.
    # |theta| falls, so no step crosses a section: one that rose through
    # ~1e300 periods would be refused by _cross_sections
    pv = ("w", "r", CS, SN)
    C = ChartField(vars=("w", "r", "theta"), provenance=(), time_chain=(),
                   components=tuple(parse_genpoly(t, pv) for t in ("0", "-r", "w")),
                   quasipolar_index=1, angle="theta")
    want = assert_native_matches_python(monkeypatch, C, [-1e300, 1.0, 1.7e308], 1e10,
                                        h0=1e10, max_steps=12, stop_at_equilibrium=False)
    assert want["n_nonfinite"] >= 1 and want["n_steps"] == 12 and want["sections"][0] == (0,)


@pytest.mark.parametrize("shave", [0.0, 2.0**-40], ids=["zero-power", "overflow"])
def test_raising_power_in_a_stage(monkeypatch, shave):
    pv = ("w", "r", CS, SN)
    C = ChartField(vars=("w", "r", "theta"), provenance=(), time_chain=(),
                   components=tuple(parse_genpoly(t, pv) for t in ("0", "r^2 * _sn^(-2)", "w")),
                   quasipolar_index=1, angle="theta")
    w0 = 1e-150
    x0 = [w0, 0.0, -(0.2 * w0) * (1.0 - shave)]
    want = assert_native_matches_python(monkeypatch, C, x0, 1.0, h0=1.0,
                                        stop_at_equilibrium=False, afters=(0,))
    assert want["n_nonfinite"] == 1


def test_nan_fractional_power(monkeypatch):
    # x' = -sqrt(x) reaches 0 at tau = 2; beyond it _fpow returns NaN
    C = base_field(("x",), [parse_genpoly("-x^(1/2)", ("x",))], name="sqrt-decay")
    want = assert_native_matches_python(monkeypatch, C, [1.0], 3.0, stop_at_equilibrium=False)
    assert want["n_nonfinite"] > 0


def test_handoff_at_a_crossing_step(monkeypatch):
    # the crossing step first in C, then last in Python: its row comes from
    # the compiled loop's chunks or from the Python loop's list
    args, kw = plan_args("lienard", {"n": 3}, tau_end=30.0)
    monkeypatch.setattr(dynamics, "_NATIVE_AFTER", 10**12)
    sections = integrate(*args, **kw).sections
    assert len(sections) == 3 and sections.dtype["step"] == np.int64
    step = int(sections["step"][1])
    # ``bits`` compares the records' dtype and bytes: the steps stay int64
    # and equal after either handoff
    assert_native_matches_python(monkeypatch, *args, afters=(step, step + 1), **kw)


# -- chunks, the translator, the compiler ---------------------------------------


def test_refilled_chunks_keep_every_crossing(monkeypatch):
    # 64-double chunks hold two crossing rows of a 2-variable chart (31
    # doubles each): the run comes back to Python many times, and crossings
    # fall in refilled chunks
    monkeypatch.setattr(native, "CHUNK", 64)
    args, kw = plan_args("lienard", {"n": 1}, tau_end=60.0)
    want = assert_native_matches_python(monkeypatch, *args, **kw)
    steps = integrate(*args, **kw).sections["step"]  # step index of each crossing
    assert want["n_steps"] > 3 * 64 and len(steps) > 2 and steps.max() > 2 * 64


@pytest.mark.parametrize("body", [
    "x = x // 2.0",                 # an operator it does not translate
    "x = [x][0]",                   # a list display
    "with x:\n            pass",    # a statement it does not translate
    "n = x",                        # an int name that becomes a float
    "x = 2.0\n        _record(x)",  # a call of a global Python function
    "print(x)",                     # a call of a builtin
    "s = 'done'\n        x = 2.0",  # a string: the loop holds numbers only
    # a generated loop prints a power only with a finite nonzero literal
    # exponent and a remainder only by a nonzero literal (the Cs/Sn period)
    "x = 2.0 + x ** n",             # a local exponent
    "x = 2.0 + _fpow(x, n)",
    "x = 2.0 + x ** 0.0",           # a zero, infinite or NaN literal one
    "x = 2.0 + _fpow(x, -0.0)",
    "x = 2.0 + x ** 1e999",
    "x = 2.0 + _fpow(x, -1e999)",
    "x = 2.0 + x ** NAN",
    "x = 2.0 + x % n",              # a remainder by a local
    "x = 2.0 + x % 0.0",            # or by zero
], ids=["floordiv", "list", "with", "int-to-float", "global-call", "builtin-call",
        "string-local", "pow-local", "fpow-local", "pow-zero", "fpow-zero", "pow-inf",
        "fpow-inf", "pow-nan", "mod-local", "mod-zero"])
def test_unknown_node_raises(body):
    text = f"def loop(x, n):\n    while x < 1.0:\n        {body}\n    return locals()\n"
    with pytest.raises(NotImplementedError):
        native.resume(text, {"_record": _record, "_fpow": _float_pow_nan, "NAN": math.nan},
                      {"x": 0.5, "n": 3})


def _record(value):
    """A global Python function, which a compiled loop never calls."""


def _run(fn):
    """``x`` of the state ``fn()`` returns, or the exception it raised."""
    try:
        return fn()["x"]
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@pytest.mark.parametrize("statement,caught", [
    ("x = (x / 0.0) + (1e300 ** 2.0)", "OverflowError"),
    ("x = (1e300 ** 2.0) + (x / 0.0)", "ZeroDivisionError"),
    ("i = _floor(x * 1e308 * 1e308)", "ValueError"),
    ("i = _floor(x * 1e308 * 1e308)", "OverflowError"),
], ids=["division-first", "power-first", "floor-of-inf", "floor-of-inf-caught"])
def test_first_exception_python_reaches_decides_the_handler(statement, caught):
    # where two operations raise, Python reaches the left one first, whatever
    # order C evaluates them in; only a matching handler catches it
    text = (f"def loop(x):\n    while x < 1.0:\n        try:\n            {statement}\n"
            f"        except {caught}:\n            pass\n        x = 2.0\n"
            f"    return locals()\n")
    ns = {"_floor": math.floor}
    exec(text, ns)
    want = _run(lambda: ns["loop"](0.5))
    state = {"x": 0.5}
    assert _run(lambda: (native.resume(text, ns, state), state)[1]) == want
    assert (want == 2.0) == (caught == "OverflowError" and "floor" in statement)


# the finite nonzero literal exponents, the only ones a generated loop prints
_EXPONENTS = (2.0, 3.0, 6.0, 7.0, 1.0, -1.0, -2.0, -3.0, 0.5, 1.5, 2.5, 3.5, -0.2, -0.14, 0.06,
              1e-300, 1e300, -1e300)


def _around(x):
    """``x`` and the floats one ulp below and above it."""
    return math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)


# bases whose power by one literal lands on an edge of py_pow's inline path,
# a result strictly between DBL_MIN and HUGE_VAL: for the exponent 2.0 (even)
# DBL_MIN, one base ulp either side, a subnormal result, DBL_MAX - 1 ulp and
# the first overflow; for 3.0 (odd) the same, with DBL_MAX - 3 ulps; for 3.5
# (fractional) DBL_MIN and one base ulp either side; for 1.5 a subnormal
# result, DBL_MAX and the first overflow.  Each lands at least 0.2 ulp from a
# rounding midpoint, so any pow within 0.52 ulp gives these results
_EDGES = {
    2.0: (*_around(2.0**-511), 2.0**-530, float.fromhex("0x1.fffffffffffffp+511"), 2.0**512),
    3.0: (*_around(float.fromhex("0x1.428a2f98d728bp-341")), 2.0**-350,
          *_around(float.fromhex("0x1.428a2f98d728bp+341"))[:2]),
    3.5: _around(2.0**-292),
    1.5: (2.0**-700, *_around(float.fromhex("0x1.965fea53d6e3dp+682"))[:2]),
}
_BASES = (0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 2.0, -2.0, 0.5, -0.5, 5e-324,
          -5e-324, 1e-160, -1e-160, 1e-200, 1e155, -1e155, 1e200, -1e200, sys.float_info.max,
          -sys.float_info.max, sys.float_info.min, -sys.float_info.min, 3.0, 0.999999999,
          *(s * x for bases in _EDGES.values() for x in bases for s in (1.0, -1.0)))
_FRACTIONS = [w for w in _EXPONENTS if w % 1.0]


def test_edge_bases_land_on_the_edges_of_the_inline_path():
    dbl_min, dbl_max = sys.float_info.min, sys.float_info.max

    def power(x, w):
        try:
            return x ** w
        except OverflowError:
            return math.inf

    landed = {w: [power(x, w) for x in bases] for w, bases in _EDGES.items()}
    for w in (2.0, 3.0, 3.5):
        below, at, above = landed[w][:3]
        assert 0.0 < below < dbl_min == at < above
    for w in (2.0, 3.0, 1.5):
        assert 0.0 < landed[w][-3] < dbl_min and landed[w][-2] < math.inf == landed[w][-1]
    assert landed[1.5][-2] == dbl_max


def _power_loop(form, exponent, caught):
    """A loop whose one iteration computes ``y = x ** w`` (``form`` "**"),
    ``y = _fpow(x, w)`` or, for a fractional ``w`` (``form`` "printed"), the
    text ``power_source`` prints for it, ``w`` the ``j``-th of
    ``_EXPONENTS`` printed as a ``literal`` or as the ``global`` number
    ``W<j>``; with ``caught`` the power sits in a ``try`` whose handler sets
    ``i = 2``."""
    def power(j, w):
        if form == "printed" and w % 1.0:
            text = power_source("x", Fraction(w))
            return text if exponent == "literal" else text.replace(repr(w), f"W{j}")
        w = repr(w) if exponent == "literal" else f"W{j}"
        return f"_fpow(x, {w})" if form == "_fpow" else f"x ** {w}"

    body = "\n".join(f"if j == {j}:\n    y = {power(j, w)}" for j, w in enumerate(_EXPONENTS))
    if caught:
        body = "try:\n" + textwrap.indent(body, "    ") + "\nexcept _POW_ERRORS:\n    i = 2"
    return ("def loop(x, j, y, i):\n    while i < 1:\n        i = 1\n"
            + textwrap.indent(body, "        ") + "\n    return locals()\n")


@pytest.mark.parametrize("caught", [False, True], ids=["raises", "caught"])
@pytest.mark.parametrize("exponent", ["literal", "global"])
@pytest.mark.parametrize("form", ["**", "_fpow", "printed"])
def test_powers_match_python_on_every_special_value(form, exponent, caught):
    # each exponent's kind (fractional, even or odd) is decided when the
    # loop is translated; each value or exception is Python's, bit for bit,
    # the zero, subnormal and infinite results of libm's pow included.  The
    # printed conditional of a fractional power evaluates one branch in C
    text = _power_loop(form, exponent, caught)
    if form == "printed":
        assert text.count(" if x > 0.0 else _fpow(x,") == len(_FRACTIONS)
    ns = {"_fpow": _float_pow_nan, "_POW_ERRORS": dynamics._POW_ERRORS,
          **{f"W{j}": w for j, w in enumerate(_EXPONENTS)}}
    exec(text, ns)

    def outcome(fn):
        try:
            state = fn()
        except Exception as exc:  # compared by type and message
            return type(exc), str(exc)
        return bits((state["y"], state["i"]))

    refused = 0
    for j, w in enumerate(_EXPONENTS):
        for x in _BASES:
            args = dict(x=x, j=j, y=0.0, i=0)
            want = outcome(lambda: ns["loop"](**args))
            got = outcome(lambda: (native.resume(text, ns, args), args)[1])
            if form == "**" and -math.inf < x < 0.0 and w % 1.0:
                # a negative base to a fractional power: a complex number in
                # Python, or an OverflowError that the try catches
                assert got == (RuntimeError, f"native loop: {x!r} ** {w!r} has no float result")
                refused += 1
            else:
                assert got == want, (x, w)
    negative = [x for x in _BASES if -math.inf < x < 0.0]
    assert refused == (len(negative) * len(_FRACTIONS) if form == "**" else 0)


def _literal_operand(node, local):
    """Whether the C text prints ``node`` as a literal: a number, a global
    name or the negation of one."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return _literal_operand(node.operand, local)
    return isinstance(node, ast.Constant) or isinstance(node, ast.Name) and node.id not in local


@pytest.mark.parametrize("name,params", [
    ("lienard", {"n": 1}), ("lienard", {"n": 3}), ("lienard", {"n": 5}), ("iy", None),
], ids=["lienard-n1", "lienard-n3", "lienard-n5", "iy"])
def test_literal_operands_take_no_generic_helper(monkeypatch, name, params):
    # every power of these loops has a literal exponent (iy's negative
    # integer ones among them), whose kind is in the C text, and every
    # remainder is by a literal; a division or remainder by a nonzero
    # literal is plain C and cannot raise
    monkeypatch.setattr(native, "_PROGRAMS", {})
    args, kw = plan_args(name, params, tau_end=20.0)
    assert_native_matches_python(monkeypatch, *args, **kw)
    [(text, programs)] = native._PROGRAMS.items()
    c = next(iter(programs.values()))[0].c
    body = c[c.index("int loop("):]
    fdef = ast.parse(text).body[0]
    local = {a.arg for a in fdef.args.args} | {
        n.id for n in ast.walk(fdef) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    [loop] = [s for s in fdef.body if isinstance(s, ast.While)]
    ops = [n for n in ast.walk(loop) if isinstance(n, ast.BinOp)]
    powers = [n for n in ops if isinstance(n.op, ast.Pow)]
    mods = [n for n in ops if isinstance(n.op, ast.Mod)]
    assert powers and all(_literal_operand(n.right, local) for n in powers + mods)
    assert body.count("py_pow(") == len(powers) and body.count("py_rem(") == len(mods)
    generic = [n for n in ops if isinstance(n.op, ast.Div) and not _literal_operand(n.right, local)]
    assert body.count("py_div(") == len(generic)


def test_failed_compile_raises_with_the_compiler_message():
    with pytest.raises(RuntimeError, match="error"):
        native._compiled("this is not C\n")


def test_no_compiler_on_path_stays_in_python(monkeypatch, handoffs):
    args, kw = plan_args("lienard", {"n": 1}, tau_end=60.0)
    want = outcome(monkeypatch, None, *args, **kw)
    monkeypatch.setenv("PATH", "")
    assert native.compiler() is None
    assert outcome(monkeypatch, 0, *args, **kw) == want
    assert not handoffs


def _counted(monkeypatch, *names):
    """The calls of each of ``native``'s functions ``names``, in order, in a
    process that compiled nothing yet."""
    calls = []

    def counted(name):
        fn = getattr(native, name)

        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    for name in names:
        monkeypatch.setattr(native, name, counted(name))
    monkeypatch.setattr(native, "_PROGRAMS", {})
    return calls


def test_compiled_loops_are_cached_by_their_text(monkeypatch):
    # the run from step 0 and the handoff at 7 carry in the same names:
    # the second reuses the first's compiled loop
    calls = _counted(monkeypatch, "_compiled")
    args, kw = plan_args("lienard", {"n": 1}, tau_end=10.0)
    outcome(monkeypatch, 0, *args, **kw)
    outcome(monkeypatch, 7, *args, **kw)
    assert calls == ["_compiled"]


def test_a_warm_text_is_translated_once_per_key(monkeypatch, handoffs):
    # the handoff at 7 and the later ones at 0 see other locals assigned,
    # but the loop carries in the same names: one translation, one compile
    calls = _counted(monkeypatch, "_Translator", "_compiled")
    args, kw = plan_args("lienard", {"n": 1}, tau_end=10.0)
    want = outcome(monkeypatch, 7, *args, **kw)
    for _ in range(3):
        assert warm_outcome(*args, **kw) == want
    assert handoffs == [7, 0, 0, 0]
    assert calls == ["_Translator", "_compiled"]


def test_warm_runs_check_the_table_once(monkeypatch, handoffs):
    # the key reads the Cs/Sn table's length and first row; its float
    # tuples are checked once per list, when it is flattened, not on every
    # resume (8,192 rows of 9 floats)
    monkeypatch.setattr(native, "_PROGRAMS", {})
    shape, seen = native._table_shape, []
    monkeypatch.setattr(native, "_table_shape", lambda t: seen.append(t) or shape(t))
    args, kw = plan_args("lienard", {"n": 1}, tau_end=10.0)
    want = outcome(monkeypatch, 0, *args, **kw)
    for _ in range(2):
        assert warm_outcome(*args, **kw) == want
    assert handoffs == [0, 0, 0]
    hermite = table(args[0].quasipolar_index).lookup_globals["_HERMITE_NODES"]
    assert sum(t is hermite for t in seen) == 1


def test_a_whole_float_step_cap_runs_the_warm_loop(monkeypatch, handoffs):
    # max_steps=1e6 was carried into the loop as a float, a new key: the
    # warm text was translated and compiled again at step 0.  A cap past
    # 64 bits raised OverflowError at the handoff.
    calls = _counted(monkeypatch, "_Translator", "_compiled")
    args, kw = plan_args("lienard", {"n": 1}, tau_end=5.0)
    want = outcome(monkeypatch, 0, *args, **kw)
    for max_steps in (1e6, 10**19, 1e19):
        assert warm_outcome(*args, max_steps=max_steps, **kw) == want
    assert handoffs == [0, 0, 0, 0]
    assert calls == ["_Translator", "_compiled"]
    for value in (1.5, math.inf):
        with pytest.raises(ValueError, match=f"max_steps = {value!r} is not"):
            integrate(*args, max_steps=value, **kw)
    assert handoffs == [0, 0, 0, 0]


@pytest.mark.parametrize("number", ["atol", "rtol"])
@pytest.mark.parametrize("kind", [np.float64, Fraction], ids=["numpy", "fraction"])
def test_any_number_type_runs_as_its_float(monkeypatch, number, kind):
    # a numpy or Fraction atol reached the compiled loop as a number it has
    # no C type for: NotImplementedError at the handoff.  Every run number
    # is coerced to a float the same way
    args, kw = plan_args("lienard", {"n": 1}, tau_end=10.0)
    want = outcome(monkeypatch, None, *args, **kw)
    kw[number] = kind(kw[number])
    for after in (None, 0, 50):
        assert outcome(monkeypatch, after, *args, **kw) == want, after


_KEYED = ("def loop(x, i, out_append):\n"
          "    while i < ROWS:\n"
          "        a, = TABLE[i]\n"
          "        x = x + STEP * a\n"
          "        i = i + 1\n"
          "        out_append(x)\n"
          "    return locals()\n")


def _keyed(ns, x, text=_KEYED):
    """``(x, i, appended values)`` after the loop of ``text`` (a function of
    ``x, i, out_append``) from ``x``, in Python and in C, or the exception
    each raised."""
    results = []
    for compiled in (False, True):
        out = array.array("d")
        state = {"x": x, "i": 0, "out_append": out.append}
        try:
            if compiled:
                out = native.resume(text, ns, state)["out_append"]
            else:
                env = dict(ns)
                exec(text, env)
                state = env["loop"](**state)
        except Exception as exc:  # compared by type and message
            results.append((type(exc), str(exc)))
        else:
            results.append(bits((state["x"], state["i"], out.tolist())))
    return results


def test_translations_are_keyed_by_what_the_c_text_depends_on(monkeypatch):
    # a global number is a literal in the C text, a table's length a bound
    # (its rows go by pointer), a local's type a C type, and CHUNK a test
    # of the buffers: each change is a new translation, never a stale one
    monkeypatch.setattr(native, "_PROGRAMS", {})
    base = {"ROWS": 3, "STEP": 1.0, "TABLE": [(1.0,), (2.0,), (4.0,)]}
    steps = [
        (base, 0.0),
        (base, 0.5),                                  # same key, other values
        (dict(base, STEP=0.5), 0.0),                  # a float literal
        (dict(base, STEP=0.0), -0.0),
        (dict(base, STEP=-0.0), -0.0),                # 0.0 and -0.0 print apart
        (dict(base, ROWS=2), 0.0),                    # an int literal
        (dict(base, STEP=2), 0.0),                    # an int where a float was
        (dict(base, TABLE=[(1.0,), (3.0,), (5.0,)]), 0.0),  # rows by pointer
        (dict(base, TABLE=[(0.5,), (0.5,)]), 0.0),    # IndexError at row 2
    ]
    for ns, x in steps:
        want, got = _keyed(ns, x)
        assert got == want, (ns, x)
    assert len(native._PROGRAMS[_KEYED]) == 7
    # an int x that becomes a float is refused, not run as the float loop
    assert _keyed(base, 0)[1][0] is NotImplementedError
    monkeypatch.setattr(native, "CHUNK", 2)           # three appends in chunks of 2
    want, got = _keyed(base, 0.0)
    assert got == want and len(native._PROGRAMS[_KEYED]) == 8


def test_an_array_stream_starts_its_returned_array_and_is_emptied():
    # the DP5 loop appends to array('d') streams: resume starts each returned
    # array with the local array's values and empties it
    ns = {"ROWS": 3, "STEP": 1.0, "TABLE": [(1.0,), (2.0,), (4.0,)]}
    head = array.array("d", [0.25, 0.5])
    state = {"x": 0.0, "i": 0, "out_append": head.append}
    out = native.resume(_KEYED, ns, state)["out_append"]
    assert out.tolist() == [0.25, 0.5, 1.0, 3.0, 7.0] and len(head) == 0


def test_exception_outside_a_try_leaves_the_loop():
    # the second floor, of x = inf, raises outside any try: the C function
    # returns and resume repeats the floor in Python.  No DP5 loop gets
    # there: on a quasi-polar chart the Cs/Sn lookup at an infinite angle
    # raises inside the end point's try and halves the step first
    text = ("def loop(x, i, out_append):\n"
            "    while x < 1e308:\n"
            "        x = x * 1e300\n"
            "        i = _floor(x)\n"
            "        out_append(x)\n"
            "    return locals()\n")
    assert _keyed({"_floor": math.floor}, 1.0, text) == \
        [(OverflowError, "cannot convert float infinity to integer")] * 2


def test_trajectory_arrays_are_whole(monkeypatch):
    args, kw = plan_args("lienard", {"n": 1}, tau_end=30.0)
    monkeypatch.setattr(dynamics, "_NATIVE_AFTER", 5)
    with cold():
        traj = integrate(*args, **kw)
    assert traj.states.shape == (traj.n_steps + 1, 2) and traj.states.dtype == np.float64
    assert len(traj.tau) == len(traj.t) == len(traj.dt_inc) + 1
    assert math.isclose(traj.t[-1], np.sum(traj.dt_inc), rel_tol=1e-12)


def test_a_compiled_run_holds_one_copy_of_its_trajectory(monkeypatch):
    # the compiled loop writes each stream into one array that grows in
    # place: at its peak the run holds the returned arrays once, beside one
    # CHUNK window per stream, and no concatenated copy
    args, kw = plan_args("lienard", {"n": 1})
    monkeypatch.setattr(dynamics, "_NATIVE_AFTER", 7)
    with cold():
        integrate(*args, **kw)  # the loop compiles here if it has not yet
        tracemalloc.start()
        try:
            traj = integrate(*args, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    arrays = (traj.tau, traj.states, traj.dt_inc, traj.t)
    assert peak < 1.3 * sum(a.nbytes for a in arrays)
    # each array holds exactly its rows
    flat = traj.states.base
    assert flat.shape == ((traj.n_steps + 1) * 2,) and flat.base is None
    assert all(a.base is None for a in (traj.tau, traj.dt_inc, traj.t))
