"""Differential tests of the generated chart rhs and DP5 attempt.

The reference is the previous implementation, kept here verbatim: the
per-polynomial ``compile_rhs`` closure with its table lookup and polynomial
printer, the list-based ``integrate`` loop, and the per-row crossing pass
with its scalar bisection.  The generated code and the array crossing pass
must reproduce it bit for bit: same accepted and rejected steps, same
states, increments and sections.
The reference's float sums go through ``old_sum``, the builtin ``sum`` of
Python up to 3.11, so it is the same reference on every version.  Its section
base is the 0.0 that every caller passed while sections had a base.
"""

import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from horizon import dynamics, native
from horizon.casebook import get_case
from horizon.compactify import CS, SN, ChartField, base_field
from horizon.dynamics import (
    _A,
    _B4,
    _B5,
    _P,
    _build_traj,
    _cross_sections,
    integrate,
)
from horizon.genpoly import GenPoly, _float_pow_nan, format_genpoly, parse_genpoly
from horizon.quasitrig import _NODES, cssn, period, table
from oracles import lienard_coefficients

# -- reference implementation (previous path, verbatim) -------------------------


def _dense_sum(th, values) -> float:
    """``0.0 + w_0*values_0 + ... + w_6*values_6`` left to right over the
    nonzero dense-output weights w_s at the step fraction th."""
    th2 = th * th
    th3 = th2 * th
    th4 = th3 * th
    acc = 0.0
    for (p0, p1, p2, p3), v in zip(_P, values):
        w = p0 * th + p1 * th2 + p2 * th3 + p3 * th4
        if w != 0.0:
            acc += w * v
    return acc


def _angle_sign(y0, y1, si):
    return 1.0 if y1[si] < y0[si] else -1.0


class _DenseSeg:
    """Dense-output polynomial of one accepted step."""

    __slots__ = ("tau0", "h", "y0", "k")

    def __init__(self, tau0, h, y0, k):
        self.tau0 = tau0
        self.h = h
        self.y0 = y0
        self.k = k

    def state_at(self, th: float) -> list[float]:
        return [y + self.h * _dense_sum(th, col) for y, col in zip(self.y0, zip(*self.k))]


def _dt_partial(dense: _DenseSeg, kg, th, h) -> float:
    """Physical-time increment over the partial step [0, th] using the dense
    weights applied to the integrand stage values (same order as the state)."""
    return h * _dense_sum(th, kg)


def _bisect_event(g, lo, hi, iters=80):
    glo = g(lo)
    if glo == 0.0:
        return lo
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        gm = g(mid)
        if gm == 0.0:
            return mid
        if (glo < 0) == (gm < 0):
            lo, glo = mid, gm
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def old_cross_sections(hits, row, period, si):
    """Append the crossings of one accepted step to ``hits``.

    ``row`` is the step's crossing row (see :func:`_loop_fn`) as floats;
    its section counts and step index are ints again here.  Each crossing
    is located by bisection on the dense output of the angle alone, which
    must be monotone within the step, and recorded as (tau, state, t, step
    index, partial increment).
    """
    n = (len(row) - 13) // 9
    count, new_count, tau, h = int(row[0]), int(row[1]), row[2], row[3]
    y, y5, k = row[4:4 + n], row[4 + n:4 + 2 * n], row[4 + 2 * n:4 + 9 * n]
    kg, t_acc, n_acc = row[4 + 9 * n:11 + 9 * n], row[-2], int(row[-1])
    angle_sign = 1.0 if y5[si] < y[si] else -1.0
    y_si, k_si = y[si], k[si::n]
    while new_count > count:
        count += 1
        target = -count * period * angle_sign
        # the angle component of the dense output, by the same operations
        th = _bisect_event(
            lambda s: y_si + h * _dense_sum(s, k_si) - target, 0.0, 1.0)
        state = [yi + h * _dense_sum(th, k[i::n]) for i, yi in enumerate(y)]
        # the physical-time increment over [0, th], by the same dense weights
        partial = h * _dense_sum(th, kg)
        hits.append((tau + th * h, state, t_acc + partial, n_acc, partial))


def old_eval_scalar(self, theta: float) -> tuple[float, float]:
    T = self.T
    x = math.fmod(theta, T)
    if x < 0.0:
        x += T
    h = T / _NODES
    i = int(x / h)
    if i >= _NODES:
        i = _NODES - 1
    u = (x - i * h) / h
    c0, c1 = self.cs[i], self.cs[i + 1]
    s0, s1 = self.sn[i], self.sn[i + 1]
    # derivatives are exact: Cs' = -Sn, Sn' = Cs^(2l-1)
    m = 2 * self.l - 1
    dc0, dc1 = -h * s0, -h * s1
    ds0, ds1 = h * c0**m, h * c1**m
    return (
        old_hermite(u, c0, c1, dc0, dc1),
        old_hermite(u, s0, s1, ds0, ds1),
    )


def old_hermite(u, y0, y1, d0, d1):
    u2 = u * u
    u3 = u2 * u
    return (
        (2 * u3 - 3 * u2 + 1) * y0
        + (u3 - 2 * u2 + u) * d0
        + (-2 * u3 + 3 * u2) * y1
        + (u3 - u2) * d1
    )


def old_compile(self):
    """Compile to a fast scalar function of the variables (in order)."""
    names = [f"x{i}" for i in range(len(self.vars))]
    parts = []
    for ev, c in self.terms:
        factors = [repr(float(c))]
        for name, e in zip(names, ev):
            if e == 0:
                continue
            if e.denominator == 1:
                factors.append(f"{name}**{int(e)}")
            else:
                factors.append(f"_fpow({name},{float(e)!r})")
        parts.append("*".join(factors))
    body = " + ".join(parts) if parts else "0.0"
    src = f"def _f({', '.join(names)}):\n    return {body}\n"
    ns = {"_fpow": _float_pow_nan}
    exec(compile(src, f"<genpoly:{format_genpoly(self)[:40]}>", "exec"), ns)
    return ns["_f"]


def old_compile_rhs(self):
    """Fast callable state -> (component values..., chain product)."""
    comp_fns = [old_compile(c) for c in self.components]
    chain_fns = [old_compile(c) for c in self.time_chain]
    if self.quasipolar_index is None:
        def rhs(state):
            vals = tuple(f(*state) for f in comp_fns)
            g = 1.0
            for f in chain_fns:
                g *= f(*state)
            return vals, g
        return rhs
    l = self.quasipolar_index
    angle_pos = self.vars.index(self.angle)
    tab = table(l)
    def rhs(state):
        args = list(state[:angle_pos]) + list(state[angle_pos + 1 :])
        c, s = old_eval_scalar(tab, state[angle_pos])
        args = args + [c, s]
        vals = tuple(f(*args) for f in comp_fns)
        g = 1.0
        for f in chain_fns:
            g *= f(*args)
        return vals, g
    return rhs


def old_sum(values):
    """The builtin ``sum`` as Python computed it up to 3.11: ``0 + v0 + v1
    + ...`` left to right (from 3.12 on ``sum`` compensates float sums)."""
    total = 0
    for v in values:
        total = total + v
    return total


def old_initial_step(rhs, y, f0, rtol, atol):
    d0 = math.sqrt(old_sum(v * v for v in y)) or 1.0
    d1 = math.sqrt(old_sum(v * v for v in f0))
    h = 0.01 * d0 / d1 if d1 > 0 else 1e-6
    return max(min(h, 1.0), 1e-8)


def old_integrate(
    C,
    x0,
    tau_end,
    *,
    rtol=1e-10,
    atol=1e-12,
    direction=1,
    h_max=math.inf,
    h0=None,
    section=None,
    stop_at_equilibrium=True,
    equilibrium_steps=50,
    max_steps=2_000_000,
):
    if not (1e-13 <= rtol <= 1e-3) or not (1e-14 <= atol <= 1e-3):
        raise ValueError("tolerances out of the supported range")
    rhs_raw = old_compile_rhs(C)
    sgn = 1.0 if direction >= 0 else -1.0
    atol_vec = [
        1e-300 if (v in C.positive or v == C.radial) else atol for v in C.vars
    ]

    def rhs(state):
        vals, g = rhs_raw(state)
        return [sgn * v for v in vals], g

    n = len(x0)
    y = [float(v) for v in x0]
    tau = 0.0
    f_now, g_now = rhs(y)
    if not all(math.isfinite(v) for v in f_now):
        raise ValueError(f"field not finite at the initial state {x0}")

    taus = [0.0]
    states = [list(y)]
    incs = []
    sec_hits = []
    termination = "tau-budget"

    sec_count = None
    base = 0.0
    if section is not None:
        si = C.vars.index(section.var)
        sec_count = math.floor(abs(y[si] - base) / section.period)

    h = h0 if h0 is not None else old_initial_step(rhs, y, f_now, rtol, atol)
    h = min(h, h_max, tau_end)
    eq_run = 0
    n_acc = 0
    n_rej = 0
    err_prev = 1.0
    t_acc = 0.0

    while tau < tau_end and n_acc < max_steps:
        h = min(h, tau_end - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            termination = "step-underflow"
            break

        k = [f_now]
        kg = [g_now]
        bad = False
        for s in range(1, 7):
            ys = list(y)
            a = _A[s]
            for j, aj in enumerate(a):
                if aj != 0.0:
                    for i in range(n):
                        ys[i] += h * aj * k[j][i]
            fs, gs = rhs(ys)
            if not all(math.isfinite(v) for v in fs) or not math.isfinite(gs):
                bad = True
                break
            k.append(fs)
            kg.append(gs)
        if bad:
            h *= 0.5
            n_rej += 1
            continue

        y5 = list(y)
        for i in range(n):
            acc = 0.0
            for s in range(7):
                if _B5[s] != 0.0:
                    acc += _B5[s] * k[s][i]
            y5[i] += h * acc
        dt5 = h * old_sum(_B5[s] * kg[s] for s in range(7))
        dt4 = h * old_sum(_B4[s] * kg[s] for s in range(7))

        # error norm over state components and the time increment
        err = 0.0
        for i in range(n):
            e4 = 0.0
            for s in range(7):
                d = _B5[s] - _B4[s]
                if d != 0.0:
                    e4 += d * k[s][i]
            e4 *= h
            sc = atol_vec[i] + rtol * max(abs(y[i]), abs(y5[i]))
            err += (e4 / sc) ** 2 if sc > 0.0 else 0.0
        sc_t = 1e-300 + rtol * abs(dt5)
        err += ((dt5 - dt4) / sc_t) ** 2 if sc_t > 0.0 else 0.0
        err = math.sqrt(err / (n + 1))

        if err > 1.0:
            n_rej += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        # accepted
        f_new, g_new = rhs(y5)
        if not all(math.isfinite(v) for v in f_new) or not math.isfinite(g_new):
            n_rej += 1
            h *= 0.5
            continue
        tau_new = tau + h

        dense = _DenseSeg(tau, h, list(y), k)

        # sections (assumes monotone angle; crossings at base - j*period)
        if section is not None:
            si = C.vars.index(section.var)
            new_count = math.floor(abs(y5[si] - base) / section.period)
            while new_count > sec_count:
                sec_count += 1
                target = base - sec_count * section.period * _angle_sign(y, y5, si)
                th = _bisect_event(
                    lambda s: dense.state_at(s)[si] - target, 0.0, 1.0
                )
                tau_sec = tau + th * h
                st_sec = dense.state_at(th)
                partial = _dt_partial(dense, kg, th, h)
                sec_hits.append((tau_sec, st_sec, t_acc + partial, n_acc, partial))

        tau = tau_new
        y = y5
        f_now, g_now = f_new, g_new
        t_acc += dt5
        taus.append(tau)
        states.append(list(y))
        incs.append(dt5)
        n_acc += 1

        # equilibrium stop rule
        if stop_at_equilibrium:
            fn = math.sqrt(old_sum(v * v for v in f_now))
            xn = math.sqrt(old_sum(v * v for v in y))
            if fn <= 1e-12 * (1.0 + xn):
                eq_run += 1
                if eq_run >= equilibrium_steps:
                    termination = "converged-to-equilibrium"
                    break
            else:
                eq_run = 0

        # PI controller
        fac = 0.9 * err ** -0.14 * err_prev ** 0.06 if err > 0 else 5.0
        h = min(h * min(5.0, max(0.2, fac)), h_max)
        err_prev = max(err, 1e-10)

    return _build_traj(taus, states, incs, termination, C, record(sec_hits, len(C.vars)),
                       n_acc, n_rej)


def record(hits, n):
    """The reference's crossings, (tau, state, t, step index, partial
    increment) tuples with int steps, as the structured array of an
    ``integrate`` run on a chart of n variables."""
    assert all(type(hit[3]) is int for hit in hits)
    return np.array(hits, dynamics._section_dtype(n))


# -- bitwise comparison ------------------------------------------------------------


def bits(obj):
    """Nested structure with every float replaced by its IEEE bit pattern
    and every array by its shape, dtype (field names included) and bytes."""
    if isinstance(obj, np.ndarray):
        return (obj.shape, obj.dtype, obj.tobytes())
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, (list, tuple)):
        return tuple(bits(v) for v in obj)
    return obj


def assert_same_trajectory(new, old):
    for name in ("termination", "n_steps", "n_rejected"):
        assert getattr(new, name) == getattr(old, name), name
    for name in ("tau", "states", "dt_inc", "t", "sections"):
        assert bits(getattr(new, name)) == bits(getattr(old, name)), name


def plan_kwargs(plan):
    """integrate() arguments of a case run plan, as the casebook passes them."""
    return dict(rtol=plan.rtol, atol=plan.atol, direction=plan.direction,
                h_max=plan.h_max, stop_at_equilibrium=plan.stop_at_equilibrium)


def old_section(chart):
    """The reference's ``section`` argument for a run on ``chart``: the
    angle and period of a quasi-polar chart, where integrate records
    crossings, else None."""
    if chart.quasipolar_index is None:
        return None
    return SimpleNamespace(var=chart.angle, period=period(chart.quasipolar_index))


DEFAULT_PLANS = [
    (name, i)
    for name in ("aiu", "iy", "andrews1", "andrews2", "quench", "kdv")
    for i, plan in enumerate(get_case(name).definition().runs)
    if plan.center_degree is None
]


@pytest.mark.parametrize("name,idx", DEFAULT_PLANS)
def test_default_run_plans_bitwise(name, idx):
    cdef = get_case(name).definition()
    plan = cdef.runs[idx]
    args = (cdef.chart, plan.initial, plan.tau_end)
    kw = plan_kwargs(plan)
    assert_same_trajectory(integrate(*args, **kw),
                           old_integrate(*args, section=old_section(cdef.chart), **kw))


# state of the default lienard n=1 run at tau = 1040; its own first rejected
# step comes only near tau = 1081, too far for a quick run of the reference path
LIENARD1_TAU1040 = (float.fromhex("0x1.26bec8bdb71e6p-7"),
                    float.fromhex("-0x1.eddbc9f6093bap+9"))


@pytest.mark.parametrize("n,starts", [
    (1, [(None, 60.0), (LIENARD1_TAU1040, 25.0)]),
    (3, [(None, 100.0)]),
], ids=["n=1", "n=3"])
def test_lienard_cut_runs_bitwise(n, starts):
    cdef = get_case("lienard").definition({"n": n})
    plan = cdef.runs[0]
    kw = plan_kwargs(plan)
    rejected = sections = 0
    for initial, tau_end in starts:
        args = (cdef.chart, initial or plan.initial, tau_end)
        new = integrate(*args, **kw)
        assert_same_trajectory(new, old_integrate(*args, section=old_section(cdef.chart), **kw))
        rejected += new.n_rejected
        sections = max(sections, len(new.sections))
    assert rejected >= 1 and sections >= 3


@pytest.mark.skipif(native.compiler() is None, reason="no C compiler on PATH")
def test_lienard_native_continuation_bitwise(monkeypatch):
    # the run continues in the compiled loop after 7 steps (a text this
    # process holds compiled would start it at step 0)
    monkeypatch.setattr(dynamics, "_NATIVE_AFTER", 7)
    monkeypatch.setattr(native, "warm", lambda text: False)
    cdef = get_case("lienard").definition({"n": 3})
    plan = cdef.runs[0]
    kw = plan_kwargs(plan)
    args = (cdef.chart, plan.initial, 100.0)
    new = integrate(*args, **kw)
    assert new.n_steps > 7 and new.n_rejected >= 1 and len(new.sections) >= 3
    assert_same_trajectory(new, old_integrate(*args, section=old_section(cdef.chart), **kw))


def test_nonfinite_retry_path_bitwise(monkeypatch):
    # x' = -sqrt(x) reaches 0 at tau = 2; beyond it _fpow returns NaN
    # (the probe sits on the reference path: integrate inlines the field)
    C = base_field(("x",), [parse_genpoly("-x^(1/2)", ("x",))], name="sqrt-decay")
    compiled = old_compile_rhs
    nan_stages = []

    def counting(chart):
        rhs = compiled(chart)

        def wrapped(state):
            vals, g = rhs(state)
            if not all(math.isfinite(v) for v in vals):
                nan_stages.append(tuple(state))
            return vals, g
        return wrapped

    monkeypatch.setitem(globals(), "old_compile_rhs", counting)
    old = old_integrate(C, [1.0], 3.0, stop_at_equilibrium=False)
    assert nan_stages, "the run never met a non-finite stage"
    new = integrate(C, [1.0], 3.0, stop_at_equilibrium=False)
    assert new.n_nonfinite == len(nan_stages)
    assert_same_trajectory(new, old)


@pytest.mark.parametrize("error, shave", [(ZeroDivisionError, 0.0), (OverflowError, 2.0**-40)],
                         ids=["zero-power", "overflow"])
def test_raising_power_retry_path_bitwise(error, shave):
    # theta' = w puts the first stage at theta = 0 exactly (Sn = 0) or, shaved,
    # at 1.8e-163, where Sn^(-2) overflows.  The fused rhs raises there; the
    # old closure computed on numpy scalars and gave inf.  Both are retried.
    pv = ("w", "r", CS, SN)
    C = ChartField(vars=("w", "r", "theta"), provenance=(), time_chain=(),
                   components=tuple(parse_genpoly(t, pv) for t in ("0", "r^2 * _sn^(-2)", "w")),
                   quasipolar_index=1, angle="theta")
    w0 = 1e-150
    x0 = [w0, 0.0, -(0.2 * w0) * (1.0 - shave)]
    # integrate inlines the text compile_rhs runs: the first stage, at
    # x0 + (h0*0.2)*f0, raises there
    rhs = C.compile_rhs()
    f0, _ = rhs(x0)
    with pytest.raises(error):
        rhs([x + (1.0 * 0.2) * f for x, f in zip(x0, f0)])
    kw = dict(h0=1.0, stop_at_equilibrium=False)
    new = integrate(C, x0, 1.0, **kw)
    assert new.n_rejected == 1 and new.n_nonfinite == 1 and new.termination == "tau-budget"
    assert_same_trajectory(new, old_integrate(C, x0, 1.0, section=old_section(C), **kw))
    x0[2] = 0.0
    with pytest.raises(ValueError, match="not finite at the initial state"):
        integrate(C, x0, 1.0)


def test_three_dimensional_field_bitwise():
    vars = ("x", "y", "z")
    C = base_field(vars, [parse_genpoly(t, vars) for t in (
        "10*y - 10*x", "28*x - y - x*z", "x*y - 8/3*z")], name="lorenz")
    for direction in (1, -1):
        kw = dict(rtol=1e-9, atol=1e-11, direction=direction,
                  stop_at_equilibrium=False)
        tau_end = 3.0 if direction > 0 else 0.3
        assert_same_trajectory(integrate(C, [1.0, 1.0, 1.0], tau_end, **kw),
                               old_integrate(C, [1.0, 1.0, 1.0], tau_end, **kw))


# -- the crossing pass -------------------------------------------------------------------


def crossing_row(count, new_count, y, k, kg, tau=3.25, h=0.75, t_acc=0.5, n_acc=17):
    """A crossing row of the loop's layout (see ``dynamics._loop_fn``): the
    section counts, tau, h, the states y and y5 (the dense output at th = 1),
    the stages k (7 rows of len(y) values), their chain products kg, t_acc and
    the step index, as floats."""
    y5 = [yi + h * _dense_sum(1.0, col) for yi, col in zip(y, zip(*k))]
    return [float(v) for v in (count, new_count, tau, h, *y, *y5, *(v for ks in k for v in ks),
                               *kg, t_acc, n_acc)]


def assert_sections_match_reference(rows, period, si):
    want = []
    for row in rows:
        old_cross_sections(want, row, period, si)
    got = _cross_sections(np.array(rows), period, si)
    # the steps are int64, and the reference's ints; every other field float64
    assert got.dtype["step"] == np.int64
    assert bits(got) == bits(record(want, (len(rows[0]) - 13) // 9))
    return got


KG = [1.0, 1.5, 0.75, 2.0, 1.25, 1.0, 0.5]


def test_crossing_pass_matches_scalar_reference():
    # a decreasing angle crossing three sections in one step, an increasing
    # one crossing two, and a step crossing one, located in one array pass
    down = [[0.3 + 0.01 * s, -3.0 - 0.02 * s] for s in range(7)]
    up = [[-0.5, 2.5 + 0.125 * s] for s in range(7)]
    rows = [crossing_row(0, 3, [0.25, -0.9], down, KG),
            crossing_row(0, 2, [1.0, 0.2], up, KG, h=1.0, n_acc=18),
            crossing_row(2, 3, [1.0, 2.9], up, KG, tau=4.0, h=0.25, t_acc=0.75, n_acc=19)]
    assert [(int(row[0]), math.floor(abs(row[7]))) for row in rows] == [(0, 3), (0, 2), (2, 3)]
    got = assert_sections_match_reference(rows, 1.0, 1)
    steps = [rows[0]] * 3 + [rows[1]] * 2 + [rows[2]]
    assert got["step"].tolist() == [row[-1] for row in steps] == [17, 17, 17, 18, 18, 19]
    assert all(row[2] < tau < row[2] + row[3] for tau, row in zip(got["tau"], steps))


def test_crossing_at_an_exact_zero_is_kept():
    # the angle meets its target exactly at th = 0.5, the first midpoint,
    # and, in a second row, at th = 0: a step starts on its target where
    # (c * period) / period rounds below c
    k = [[0.5, 1.0 + 0.125 * s] for s in range(7)]
    y, h = [0.25, 0.1], 0.75
    period = y[1] + h * _dense_sum(0.5, [ks[1] for ks in k])
    rows = [crossing_row(0, 1, y, k, KG, h=h), crossing_row(0, 1, [0.25, period], k, KG, h=h)]
    assert rows[0][5] < rows[0][7] < 2 * period  # an increasing angle: angle sign -1, count 1
    hits = assert_sections_match_reference(rows, period, 1)
    assert hits["tau"].tolist() == [rows[0][2] + 0.5 * h, rows[1][2]]


def test_crossings_per_step_are_bounded():
    # a step crossing the most sections allowed is located; one more, or a
    # count that is not a number, is refused by name before any row repeats
    most = dynamics._MAX_CROSSINGS_PER_STEP
    down = [[0.3 + 0.01 * s, -3.0 - 0.02 * s] for s in range(7)]
    assert len(_cross_sections(np.array([crossing_row(0, most, [0.25, -0.9], down, KG)]),
                               2.9 / most, 1)) == most
    for count in (most + 1, math.nan):
        rows = np.array([crossing_row(0, 1, [0.25, -0.9], down, KG),
                         crossing_row(0, count, [0.25, -0.9], down, KG, tau=4.0)])
        with pytest.raises(ValueError, match=rf"^the step from tau = 4\.0 crosses {count} "
                                             rf"sections, more than {most}$"):
            _cross_sections(rows, 1.0, 1)


@pytest.mark.parametrize("w,h0", [(1e300, 1e10), (1e7, 1.0)])
def test_a_step_across_too_many_sections_is_refused(w, h0):
    # theta' = w from theta = 0: the first accepted step passes about
    # w * h / period sections, ~1e297 (past an int64) or 67,411
    pv = ("w", "r", CS, SN)
    C = ChartField(vars=("w", "r", "theta"), provenance=(), time_chain=(),
                   components=tuple(parse_genpoly(t, pv) for t in ("0", "-r", "w")),
                   quasipolar_index=1, angle="theta")
    with pytest.raises(ValueError, match=r"^the step from tau = 0\.0 crosses \S+ sections, "
                                         r"more than 1024$"):
        integrate(C, [w, 1.0, 0.0], 1e10, h0=h0, max_steps=1, stop_at_equilibrium=False)


PAIR = st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2)
# (count, crossings, y, k, h) of a row; the angle need not be monotone
ROW_SPEC = st.tuples(st.integers(0, 3), st.integers(0, 3), PAIR,
                     st.lists(PAIR, min_size=7, max_size=7), st.floats(1e-6, 2.0))


@settings(max_examples=100, deadline=None)
@given(st.lists(ROW_SPEC, min_size=1, max_size=5), st.floats(0.05, 3.0), st.sampled_from([0, 1]))
def test_crossing_pass_matches_scalar_reference_on_any_rows(specs, period, si):
    rows = [crossing_row(count, count + extra, y, k, KG, h=h, n_acc=j)
            for j, (count, extra, y, k, h) in enumerate(specs)]
    assert_sections_match_reference(rows, period, si)


# -- the fused chart rhs ---------------------------------------------------------------

EXPONENTS = st.one_of(
    st.integers(-2, 4).map(lambda e: str(e) if e >= 0 else f"({e})"),
    st.sampled_from(["(1/2)", "(3/2)", "(-1/2)", "(1/3)"]),
)


@st.composite
def polys(draw, vars):
    terms = []
    for _ in range(draw(st.integers(0, 3))):
        c = draw(st.sampled_from(["1", "-1", "2", "-3/2", "1/4", "0.7"]))
        factors = [f"{v}^{draw(EXPONENTS)}" for v in vars if draw(st.booleans())]
        terms.append(" * ".join([c] + factors))
    if not terms:
        return GenPoly.zero(vars)
    return parse_genpoly(" + ".join(terms).replace("+ -", "- "), vars)


VALUES = st.one_of(st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 1e-3),
                   st.sampled_from([0.0, 1.0, -1.0, 0.5]))


@st.composite
def charts_and_states(draw):
    l = draw(st.sampled_from([None, 1, 2, 4]))
    if l is None:
        vars = poly_vars = ("x", "y")
        state = [draw(VALUES), draw(VALUES)]
    else:
        vars, poly_vars = ("r", "theta"), ("r", CS, SN)
        T = table(l).T
        theta = draw(st.one_of(
            st.floats(-3 * T, -1e-9), st.floats(T, 4 * T),
            st.floats(0.0, T),
            st.integers(-2 * _NODES, 3 * _NODES).map(lambda j: j * (T / _NODES)),
            st.sampled_from([0.0, T, -T, 2 * T]),
        ))
        state = [draw(VALUES), theta]
    comps = tuple(draw(polys(poly_vars)) for _ in vars)
    chain = tuple(draw(polys(poly_vars)) for _ in range(draw(st.integers(0, 2))))
    C = ChartField(vars=vars, components=comps, time_chain=chain, provenance=(),
                   quasipolar_index=l, angle="theta" if l else None)
    return C, state


def _qp_case(comps, state):
    pv = ("r", CS, SN)
    return ChartField(vars=("r", "theta"), provenance=(), time_chain=(),
                      components=tuple(parse_genpoly(t, pv) for t in comps),
                      quasipolar_index=1, angle="theta"), state


@settings(max_examples=150, deadline=None)
@given(charts_and_states())
@example(_qp_case(("0", "r^(1/2) * _cs^(1/2) * _sn^(-2)"), [0.0, 1.965297027187836e-302]))
@example(_qp_case(("_sn^(-1)", "r"), [1.0, 0.0]))
def test_fused_rhs_matches_per_polynomial_evaluation(case):
    C, state = case
    pt = C.state_to_poly_point(state)
    polys_ = C.components + C.time_chain
    try:
        ref = [p.compile()(*pt) for p in polys_]
    except (ZeroDivisionError, OverflowError) as exc:
        # a power of 0**(-n) or one that overflows raises in both; the old
        # closure gave inf for such powers of Cs/Sn (numpy scalars), so it
        # raises or yields a non-finite value, and integrate retries either
        with pytest.raises(type(exc)):
            C.compile_rhs()(state)
        try:
            old_vals, old_g = old_compile_rhs(C)(state)
        except (ZeroDivisionError, OverflowError):
            return
        assert not all(math.isfinite(v) for v in tuple(old_vals) + (old_g,))
        return
    vals, g = C.compile_rhs()(state)
    old_vals, old_g = old_compile_rhs(C)(state)
    assert bits(tuple(vals) + (g,)) == bits(tuple(float(v) for v in old_vals) + (float(old_g),))
    for v, p, r in zip(vals, C.components, ref):
        if math.isnan(r):
            assert math.isnan(v)
        else:
            assert v == p.eval(pt)
    chain_ref = ref[len(C.components):]
    if any(math.isnan(r) for r in chain_ref):
        assert math.isnan(g)
    else:
        prod = 1.0
        for p in C.time_chain:
            prod *= p.eval(pt)
        assert g == prod


# -- one Hermite formula ---------------------------------------------------------------


@pytest.mark.parametrize("l", [1, 2, 4])
def test_cssn_bitwise_unchanged(l):
    tab = table(l)
    rng = np.random.default_rng(l)
    h = tab.T / _NODES
    thetas = np.concatenate([
        rng.uniform(-3 * tab.T, 4 * tab.T, 3000),
        np.arange(-_NODES, 2 * _NODES + 1, 97) * h,
        [0.0, tab.T, -tab.T, 2 * tab.T],
    ])
    old = [old_eval_scalar(tab, float(th)) for th in thetas]
    assert bits([cssn(float(th), l) for th in thetas]) == bits(
        [(float(c), float(s)) for c, s in old])


# float.hex of (T, beta1_T, beta2_T, Gamma_T, C2, C3, alpha(0.7)) from the
# previous lookup
LIENARD_REFERENCE = {
    1: ["0x1.daa4a35759e98p+2", "0x1.fffffffffffbap-1", "-0x1.0cb7600ff8d85p+0",
        "0x1.b7406ab3b657fp-1", "0x1.b12a110cd89aep-1", "0x1.d9d2b1346dc5fp-4",
        "0x1.cf327207f2bc5p-4"],
    3: ["0x1.29e133e740476p+3", "0x1.000000000000bp+0", "-0x1.0cb5225b8c906p-2",
        "0x1.f082ad2db6a1fp-3", "0x1.8505dd801a2b0p-2", "0x1.aab4693ec426dp-6",
        "0x1.f396d6be32cd4p-5"],
    5: ["0x1.5c5ca58fae230p+3", "0x1.00000000000dfp+0", "-0x1.08224ffcd94e4p-3",
        "0x1.f7217f3b99028p-4", "0x1.0dfc0890e3b78p-2", "0x1.71bc17ec5331bp-7",
        "0x1.451400633741fp-5"],
}


@pytest.mark.parametrize("n", [1, 3, 5])
def test_lienard_coefficients_bitwise_unchanged(n):
    co = lienard_coefficients(n)
    got = [co.T, co.beta1_T, co.beta2_T, co.Gamma_T, co.C2, co.C3, co.alpha(0.7)]
    assert [float(v).hex() for v in got] == LIENARD_REFERENCE[n]
