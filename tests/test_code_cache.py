"""Generated texts become functions one way, `genpoly.function_of`: each
text is compiled once per process, and each function runs a copy of the
code that no run has specialized yet, with globals of its own, so a second
run gives the first run's numbers bit for bit, NaN signs included.  No
module of the package calls `exec` or `eval`, and only the code cache calls
`compile`."""

import ast
import math
import pathlib
import struct

import numpy as np
import pytest

import horizon
from horizon import genpoly
from horizon.casebook import get_case
from horizon.dynamics import _loop_fn, integrate
from horizon.genpoly import CODE_CACHE_SIZE, SOURCE_GLOBALS, function_of, parse_genpoly


def _run(cdef, tau_end=None):
    plan = cdef.runs[0]
    return integrate(cdef.chart, plan.initial, plan.tau_end if tau_end is None else tau_end,
                     rtol=plan.rtol, atol=plan.atol, direction=plan.direction,
                     h_max=plan.h_max, stop_at_equilibrium=plan.stop_at_equilibrium)


def _misses():
    return genpoly._compiled.cache_info().misses


def _bits(v):
    return struct.pack("<d", v)


def test_two_loops_of_one_chart_and_sign_compile_once_with_own_code_and_globals():
    C = get_case("iy").definition().chart
    a, text_a = _loop_fn(C, 1, None, True)
    misses = _misses()
    b, text_b = _loop_fn(C, 1, None, True)
    assert _misses() == misses and text_a == text_b
    assert a.__code__ == b.__code__ and a.__code__ is not b.__code__
    assert a.__globals__ is not b.__globals__


def test_another_sign_or_chart_gets_other_code():
    iy, aiu = (get_case(c).definition().chart for c in ("iy", "aiu"))
    loop = _loop_fn(iy, 1, None, True)[0]
    assert _loop_fn(iy, -1, None, True)[0].__code__ != loop.__code__
    assert _loop_fn(aiu, 1, None, True)[0].__code__ != loop.__code__
    assert iy.compile_rhs().__code__ != aiu.compile_rhs().__code__


def test_a_quasipolar_loop_keeps_its_own_table():
    # the Cs/Sn table and the source names are the globals of each loop
    C = get_case("lienard").definition({"n": 1}).chart
    a, b = (_loop_fn(C, 1, C.quasipolar_index, False)[0] for _ in range(2))
    assert a.__globals__["_HERMITE_NODES"] == b.__globals__["_HERMITE_NODES"]
    assert a.__globals__["_fpow"] is b.__globals__["_fpow"]
    a.__globals__["_HERMITE_NODES"] = None
    assert b.__globals__["_HERMITE_NODES"] is not None


@pytest.mark.parametrize("case, params, tau_end", [
    ("iy", None, None),
    # 6 section crossings
    ("lienard", {"n": 1}, 50.0),
])
def test_a_second_run_is_the_first_bit_for_bit(case, params, tau_end):
    cdef = get_case(case).definition(params)
    first, second = _run(cdef, tau_end), _run(cdef, tau_end)
    if case == "lienard":
        assert len(first.sections) > 0
    for name in ("tau", "states", "dt_inc", "t"):
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
    assert first.sections.dtype == second.sections.dtype
    assert first.sections.tobytes() == second.sections.tobytes()
    counters = ("n_steps", "n_rejected", "n_rhs", "n_nonfinite", "termination")
    assert [getattr(first, k) for k in counters] == [getattr(second, k) for k in counters]


def _text(i):
    return f"def f():\n    return {i}\n"


def test_the_cache_never_holds_more_than_its_bound():
    first = function_of(_text(0), "<cache test>", {})
    misses = _misses()
    again = function_of(_text(0), "<cache test>", {})
    assert _misses() == misses and again.__code__ == first.__code__ and again() == 0
    for i in range(1, CODE_CACHE_SIZE + 10):
        assert function_of(_text(i), "<cache test>", {})() == i
        assert genpoly._compiled.cache_info().currsize <= CODE_CACHE_SIZE
    assert genpoly._compiled.cache_info().currsize == CODE_CACHE_SIZE
    # the first text was dropped, so it is compiled again
    misses = _misses()
    assert function_of(_text(0), "<cache test>", {}).__code__ == first.__code__
    assert _misses() == misses + 1


def test_each_function_gets_a_copy_of_the_code_and_of_the_globals():
    text = "def g(x):\n    return scale * x\n"
    names = {"scale": 2.0}
    a = function_of(text, "<copy test>", names)
    misses = _misses()
    b = function_of(text, "<copy test>", names)
    assert _misses() == misses
    assert a.__name__ == "g" and a.__code__.co_filename == "<copy test>"
    assert a.__code__ == b.__code__ and a.__code__ is not b.__code__
    assert a.__globals__ == b.__globals__ == names
    assert a.__globals__ is not b.__globals__ and a.__globals__ is not names
    names["scale"] = 3.0
    a.__globals__["scale"] = 5.0
    assert (a(1.0), b(1.0)) == (5.0, 2.0)


@pytest.mark.parametrize("text", ["x = 1\n", "def f():\n    pass\ndef g():\n    pass\n"])
def test_a_text_must_define_exactly_one_function(text):
    with pytest.raises(ValueError):
        function_of(text, "<not one function>", {})


def _fresh(p):
    """The function of a compile that bypasses the cache: a lambda of `p`'s
    source, with the bytecode of `compile()`'s ``def``."""
    names = [f"x{i}" for i in range(len(p.vars))]
    src = f"lambda {', '.join(names)}: {p.source(names)}"
    return eval(compile(src, "<fresh>", "eval"), dict(SOURCE_GLOBALS))


def test_equal_polynomials_compile_once_and_give_a_fresh_compiles_values():
    vars = ("x", "y")
    text = "3/2 * x^(5/2) * y^(-1) - x^3 + 1/3 * y^2"
    p, q = parse_genpoly(text, vars), parse_genpoly(text, vars)
    assert p is not q and p == q
    fp = p.compile()
    misses = _misses()
    fq = q.compile()
    assert _misses() == misses and fp.__code__ == fq.__code__
    points = np.random.default_rng(0).uniform(-2.0, 3.0, (200, 2)).tolist()
    want = np.array([_fresh(p)(*pt) for pt in points])
    for f in (fp, fq):
        assert np.array([f(*pt) for pt in points]).tobytes() == want.tobytes()
    assert np.array(p.compile_batch()(*zip(*points))).tobytes() == want.tobytes()


def test_a_text_run_many_times_gives_a_fresh_compiles_nan():
    # at (x, y, z) = (-1, 0, inf) the terms are -0.0*inf, the machine's NaN,
    # and a product with _fpow's NaN; which one their sum returns changes
    # once CPython has specialized the addition.  Every new evaluator starts
    # unspecialized, as after a fresh compile
    p = parse_genpoly("-y^2 * z^(1/2) + 2 * x^(1/2) * z^(1/2)", ("x", "y", "z"))
    point = (-1.0, 0.0, math.inf)
    want = _bits(_fresh(p)(*point))
    assert math.isnan(_fresh(p)(*point))
    for _ in range(20):
        p.compile()(0.5, 1.0, 2.0)
        p.compile_batch()([0.5] * 20, [1.0] * 20, [2.0] * 20)
    assert _bits(p.compile()(*point)) == want
    assert _bits(p.compile_batch()(*([v] for v in point))[0]) == want


def _calls(node):
    """Each call of exec, eval or compile by its bare name under ``node``."""
    return [n.func.id for n in ast.walk(node) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name) and n.func.id in ("exec", "eval", "compile")]


def test_generated_text_becomes_a_function_only_through_function_of():
    # the builtin compile runs only in the code cache, and no module execs
    # or evals text past it
    src = pathlib.Path(horizon.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    cache = next(n for n in ast.walk(trees["genpoly.py"])
                 if isinstance(n, ast.FunctionDef) and n.name == "_compiled")
    assert _calls(cache) == ["compile"]
    assert {name: _calls(tree) for name, tree in trees.items() if _calls(tree)} == {
        "genpoly.py": ["compile"]}
