"""Adaptive integration of chart fields and physical-time reconstruction.

The stepper is an explicit Dormand-Prince 5(4) pair with the standard
quartic dense-output interpolant, a PI step controller, and FSAL reuse.
It is deliberately bespoke rather than a library call because the pipeline
needs, per accepted step:

* the increment of physical time dt = (chain product) d(sigma), error
  controlled on the increment scale.  Distances to the singular time are
  later formed by suffix-summing these increments, which stays accurate
  down to s ~ 1e-60 relative where t_max - t(sigma) would cancel away;
* equilibrium detection sustained over consecutive steps;
* on quasi-polar charts, a section crossing each time the angle passes a
  multiple of its Cs/Sn period, located on the dense output (the angle
  must be monotone within a step);
* a maximum step size so rate-fit windows always contain enough samples.

The whole integration loop is generated Python code, one function per
``integrate`` call, specialised to the chart, the direction, the section
variable and the equilibrium stop rule; each loop text is compiled once per
process (:func:`horizon.genpoly.function_of`).  Its DP5 attempt is unrolled
in tableau order, and every stage runs the chart field's printed text
(:meth:`ChartField.rhs_source`: the Cs/Sn table lookup, shared powers,
component and chain expressions) in place, with no call per stage; the
step bookkeeping and the PI controller are inline too.  The initial point is
evaluated with :meth:`ChartField.compile_rhs`, the same text compiled as a
function.  A step that crosses a section appends one flat row of numbers;
after the run :func:`_cross_sections` locates all crossings together from
the array of those rows, on the dense output of the angle alone, and
returns them as one numpy structured array, one record per crossing with
the fields ``tau``, ``state``, ``t``, ``step`` and ``partial``, which every
consumer reads by column (``sections["t"]``).  Every
iteration ends with ``continue``, an unconditional jump back that CPython
3.11 counts towards quickening, so the loop's one call runs specialized
bytecode from its 8th iteration on.

A run still going after ``_NATIVE_AFTER`` accepted steps continues in C
when a C compiler is on ``PATH``: :func:`horizon.native.resume` translates
the same loop text, compiles it once per process and resumes from the
Python loop's exact state (its local variables), with the same float
operations, so the trajectory is the same bit for bit.  The first run of a
loop text in a process pays for the compile after its Python steps; later
runs of it that may go on as long start in C, at step 0.  Accepted steps
and crossing rows come back as one float64 array per stream, which starts
with the Python loop's stream and which the C loop writes in place; the
trajectory uses those arrays as they are.  Shorter runs of a text not
compiled yet, runs capped at fewer steps, and machines without a compiler
stay in the Python loop, which is the reference.

Termination reasons: 'converged-to-equilibrium', 'tau-budget' (tau_end
reached), 'step-budget' (max_steps accepted steps before tau_end),
'step-underflow'.  The loop records the reason as its code, the reason's
index in ``_TERMINATIONS``, so it holds nothing but numbers.
"""

from __future__ import annotations

import array
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import native
from .errors import AmbiguousTailError
from .compactify import ChartField
from .genpoly import function_of
from .quasitrig import table

__all__ = [
    "Trajectory",
    "TmaxEstimate",
    "integrate",
    "check_run_number",
    "accumulate_time",
    "trajectory_to_csv",
    "lstsq",
    "linfit",
]

# Dormand-Prince 5(4) tableau (fields are autonomous: the nodes c_i are unused)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
# dense-output polynomial: y(th) = y0 + h * sum_i k_i * (P[i][0] th + ... + P[i][3] th^4)
_P = (
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
)


@dataclass
class Trajectory:
    tau: np.ndarray                    # accepted-step times, increasing
    states: np.ndarray                 # shape (len(tau), n)
    dt_inc: np.ndarray                 # physical-time increment per step (len-1)
    t: np.ndarray                      # cumulative physical time, t[0] = 0
    termination: str
    # one record per section crossing (dtype ``_section_dtype(n)``), empty
    # but for quasi-polar runs: tau, state, t, the accepted step it falls in
    # and the physical-time increment from that step's start
    sections: np.ndarray
    chart: ChartField | None = None
    n_steps: int = 0
    n_rejected: int = 0                # error-norm and non-finite rejections
    n_rhs: int = 0                     # field evaluations that returned
    n_nonfinite: int = 0               # rejections of a non-finite or raising stage


def integrate(
    C: ChartField,
    x0: Sequence[float],
    tau_end: float,
    *,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    direction: int = 1,
    h_max: float = math.inf,
    h0: float | None = None,
    stop_at_equilibrium: bool = True,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate d(state)/d(sigma) = direction * field over [0, tau_end],
    ``tau_end`` finite and nonnegative.

    The physical-time increment integral of the (always positive) chain
    product is accumulated per step alongside the state, regardless of
    direction, so it measures progress toward the singular edge.  With
    ``stop_at_equilibrium`` the run ends after 50 consecutive accepted steps
    with |field| <= 1e-12 (1 + |state|).  An ``x0`` not finite or of
    another length than ``C.vars`` is refused with ``ValueError``; the run
    numbers are coerced to Python floats (``max_steps`` to an int), so a
    numpy or ``Fraction`` number runs as its float.  A run on a quasi-polar
    chart records a crossing each time ``C.angle`` passes ``-j*T`` or
    ``+j*T`` (T the period of its Cs/Sn pair), one record of
    ``Trajectory.sections`` each (see :func:`_cross_sections`); the angle
    must be monotone within a step.
    """
    numbers = dict(rtol=rtol, atol=atol, tau_end=tau_end, h_max=h_max, max_steps=max_steps,
                   direction=direction)
    for name, value in numbers.items():
        check_run_number(name, value)
    if h0 is not None:
        check_run_number("h0", h0)
    tau_end, h_max, rtol, atol = float(tau_end), float(h_max), float(rtol), float(atol)
    max_steps = int(min(max_steps, 2**62))  # in 64 bits: no run gets to 2**62 steps
    sign = 1 if direction > 0 else -1
    # sign-masked variables never cross zero: give them pure relative error
    # control so exponential decay below atol keeps full relative accuracy
    # (otherwise the controller lets the step explode and the decaying
    # component degenerates into noise).  Same for the time increment.
    atol_vec = tuple(
        1e-300 if (v in C.positive or v == C.radial) else atol for v in C.vars
    )

    y = tuple(float(v) for v in x0)
    if len(y) != len(C.vars):
        raise ValueError(f"x0 has length {len(y)}, the chart {len(C.vars)} variables")
    try:
        f_now, g_now = C.compile_rhs()(y)
    except _POW_ERRORS:
        raise ValueError(f"field not finite at the initial state {x0}") from None
    if sign < 0:
        f_now = tuple(-v for v in f_now)
    if not all(math.isfinite(v) for v in f_now):
        raise ValueError(f"field not finite at the initial state {x0}")
    if not all(map(math.isfinite, y)):
        # from a NaN the first step is NaN and the step halving never ends
        raise ValueError(f"initial state x0 = {y!r} is not finite")

    si = period = sec_count = None
    if C.quasipolar_index is not None:
        si = C.vars.index(C.angle)
        period = table(C.quasipolar_index).T
        sec_count = math.floor(abs(y[si]) / period)

    h = float(h0) if h0 is not None else _initial_step(y, f_now)
    h = min(h, h_max, tau_end)
    loop, text = _loop_fn(C, sign, si, stop_at_equilibrium)
    budget = max_steps
    if max_steps > _NATIVE_AFTER and native.compiler() is not None:
        budget = 0 if native.warm(text) else _NATIVE_AFTER
    st = loop(y, f_now, g_now, h, tau_end, h_max, rtol, atol_vec, budget, period, sec_count)
    if budget < max_steps and _TERMINATIONS[st["termination"]] == "step-budget":
        # not over: the compiled copy continues from the loop's exact state,
        # moving each stream into the array it returns
        st.update(termination=0, max_steps=max_steps)
        arrays = native.resume(text, loop.__globals__, st)
        st.update((name.removesuffix("_append"), a) for name, a in arrays.items())
    # the loop reads no crossing, so locating them after the run changes no
    # result; the one error _cross_sections raises, a step across more than
    # _MAX_CROSSINGS_PER_STEP sections, leaves integrate after the loop
    rows = np.asarray(st["rows"], dtype=float).reshape(-1, 13 + 9 * len(y))
    sections = _cross_sections(rows, period, si)
    # every accepted step evaluated the field 7 times, the initial point once
    return _build_traj(st["taus"], st["states"], st["incs"], _TERMINATIONS[st["termination"]],
                       C, sections, st["n_acc"], st["n_rej"],
                       1 + 7 * st["n_acc"] + st["n_rhs_rej"], st["n_nonfinite"])


# the termination reasons by the code the loop assigns to ``termination``
_TERMINATIONS = ("tau-budget", "step-budget", "step-underflow", "converged-to-equilibrium")


# a run allowed more accepted steps than this continues in the compiled loop
# when a C compiler is on PATH: the first run of a loop text in a process
# after this many Python steps (one compile, 0.22-0.46 s on a 2-vCPU x86-64
# host with gcc 12, costs about as much as 28,000-41,000 specialized ones,
# and the longest run outside lienard takes 14,599), later runs of it start
# in C
_NATIVE_AFTER = 32_768


# the run numbers integrate accepts (a NaN fails every test): (test, requirement)
_RUN_NUMBERS = {
    "rtol": (lambda x: 1e-13 <= x <= 1e-3, "in [1e-13, 1e-3]"),
    "atol": (lambda x: 1e-14 <= x <= 1e-3, "in [1e-14, 1e-3]"),
    "tau_end": (lambda x: 0.0 <= x < math.inf, "finite and nonnegative"),
    "h_max": (lambda x: x > 0.0, "positive"),
    "max_steps": (lambda x: x >= 0 and x % 1 == 0, "a nonnegative whole number"),
    "direction": (lambda x: x in (1, -1), "1 or -1"),
    "h0": (lambda x: 0.0 < x < math.inf, "finite and positive"),
}


def check_run_number(name: str, value, label: str | None = None) -> None:
    """Raise ``ValueError`` unless ``value`` is an admissible ``integrate``
    argument ``name`` (``label`` names it in the message).  A NaN or negative
    ``tau_end``, or a NaN or non-positive ``h_max``, would end a run as
    'tau-budget' after 0 steps or lift the step cap without a word, and an
    infinite ``tau_end`` would run to the step budget."""
    test, need = _RUN_NUMBERS[name]
    if not test(value):
        label = label or ("initial step h0" if name == "h0" else name)
        raise ValueError(f"{label} = {value!r} is not {need}")


# what a compiled chart rhs raises where a power of a Python float overflows
# or is 0**(-n) (numpy scalars gave inf there instead), and where the Cs/Sn
# lookup floors a NaN angle (an infinite one is NaN after the ``%``)
_POW_ERRORS = (OverflowError, ZeroDivisionError, ValueError)


def _loop_fn(C: ChartField, sign: int, si: int | None, stop_at_equilibrium: bool):
    """The whole DP5 integration loop for one chart, generated as one
    function; returns ``(loop, text)``, the function and its source.

    The text is compiled once per process (:func:`function_of`): two calls
    for one chart, sign, section variable and stop rule compile once and
    return functions with equal code, each with a copy of the code that no
    run has specialized yet and with globals of its own (its copy of the
    chart's names, the Cs/Sn table among them).

    ``loop(y, f, g0, h, tau_end, h_max, rtol, atol, max_steps, period,
    sec_count)`` starts at the state tuple y with its (direction-signed)
    field f and chain product g0 and the first step h, and returns its
    local variables, among them ``taus``, ``states`` and ``incs`` (the
    accepted times, states and time increments), ``rows`` (the crossing
    rows), ``termination`` (the code of the reason: 0 'tau-budget', 1
    'step-budget', 2 'step-underflow', 3 'converged-to-equilibrium', its
    index in ``_TERMINATIONS``), ``n_acc`` and ``n_rej`` (the accepted and
    rejected steps), ``n_nonfinite`` (the rejections of a non-finite or
    raising stage) and ``n_rhs_rej`` (the field evaluations that returned in
    rejected attempts).  On 'step-budget' they are the exact state at the
    top of the iteration that stopped (the state ``y{i}``, its derivative
    ``k0_{i}``, ``g0``, ``h``, ``tau``, ``t_acc``, ``err_prev``, ``eq_run``,
    ``sec_count`` and the counters), from which
    :func:`horizon.native.resume` continues the run.

    An accepted step that raises the count of the section variable ``si``
    (if any) from ``sec_count`` to ``nc`` appends its crossing row to
    ``rows``: the 13 + 9n numbers ``sec_count, nc, tau, h``, the states
    ``y{i}`` and ``y5_{i}``, the stages ``k0_{i}`` .. ``k6_{i}``, the chain
    products ``g0`` .. ``g6``, ``t_acc`` and ``n_acc``, each with its own
    ``rows_append`` like the accepted states, so the loop only computes and
    stores numbers.  :func:`_cross_sections` takes all rows as one array.

    Each stage assigns its inputs to the chart's variables and runs the
    :meth:`ChartField.rhs_source` text in place.  A stage (or the end point)
    that is not finite or raises one of ``_POW_ERRORS`` halves the step; an
    error norm above 1 or NaN shrinks it by the usual factor.  The floating-point
    operations are those of the textbook loops, in the same order, so
    trajectories are reproduced bit for bit: stage and solution sums are
    ``y + (h*a_j)*k_j + ...`` and ``y + h*(0.0 + b_j*k_j + ...)`` left to
    right, zero coefficients skipped; the time increments are
    ``h*(0.0 + b_0*g_0 + ... + b_6*g_6)`` over all seven terms, zero weights
    included, which is what the builtin ``sum`` computed up to Python 3.11
    (from 3.12 on ``sum`` compensates, so it is not used).  ``min`` and
    ``max`` of two floats are written as the conditional expressions the
    builtins evaluate, argument order (and so NaN handling) included.
    ``abs(x)`` is ``-x if x < 0.0 else x``, whose zeros may differ in sign
    only where no result shows it (scales add a positive tolerance, the
    floor of -0.0 is 0), and ``abs(tau)`` is tau, which never goes negative.
    The squares of the error norm are ``** 2.0`` inside one ``try``: a
    square that overflows makes the norm inf, which rejects the step and
    shrinks it by 0.2.  Every stream (``taus``, ``states``, ``incs``,
    ``rows``) is one ``array('d')``, 8 bytes a value; accepted states append
    their components to one flat array, which :func:`_build_traj` reshapes.

    The body ends with ``continue``, which changes no float operation: each
    iteration then jumps back to the ``while`` test unconditionally.
    CPython 3.11 quickens a code object after 8 function entries or
    unconditional backward jumps, and does not count the conditional jump
    that closes a ``while`` body otherwise.  The loop is called once per
    run, so without it a run that rejects fewer than 8 steps would spend
    its whole call on generic bytecode; with it, the loop runs specialized
    float operations from its 8th iteration on.  In the C translation the
    final ``continue;`` is a no-op.
    """
    n = len(C.vars)
    I = range(n)
    names = [f"x{i}" for i in I]
    src = C.rhs_source(names)
    neg = "" if sign > 0 else "-"
    code = {reason: k for k, reason in enumerate(_TERMINATIONS)}
    lines = [
        "if n_acc >= max_steps:",
        f"    termination = {code['step-budget']}",
        "    break",
        # the step the controller asks for underflows; a last step cut to
        # reach tau_end may be shorter than that and still finish the run
        "if h < 1e-14 * (tau if tau > 1.0 else 1.0):",
        f"    termination = {code['step-underflow']}",
        "    break",
        "d = tau_end - tau",
        "if d < h:",
        "    h = d",
    ]

    def halve(returned):
        """The retry of a non-finite or raising stage, after `returned`
        field evaluations of the attempt returned."""
        count = [f"    n_rhs_rej += {returned}"] if returned else []
        return ["    h *= 0.5", "    n_rej += 1", "    n_nonfinite += 1", *count, "    continue"]

    def stage(s, args):
        """Stage s (7: the end point) at the component expressions args."""
        kv = [f"k{s}_{i}" for i in I]
        body = [f"{x} = {a}" for x, a in zip(names, args)] + list(src.statements)
        body += [f"{k} = {neg}({c})" for k, c in zip(kv, src.components)]
        body.append(f"g{s} = {src.chain}")
        lines.append("try:")
        lines.extend(f"    {line}" for line in body)
        lines.append("except _POW_ERRORS:")
        lines.extend(halve(s - 1))
        # x - x is 0.0 for finite x and NaN otherwise, and NaN propagates
        zero = " + ".join(f"({v} - {v})" for v in kv + [f"g{s}"])
        lines.append(f"if not {zero} == 0.0:")
        lines.extend(halve(s))

    def combo(coef, i):
        """Source of `` + c_s * k{s}_i`` over the nonzero weights c_s."""
        return "".join(f" + {c!r} * k{s}_{i}" for s, c in enumerate(coef) if c != 0.0)

    for s in range(1, 7):
        used = [j for j, a in enumerate(_A[s]) if a != 0.0]
        lines += [f"c{j} = h * {_A[s][j]!r}" for j in used]
        stage(s, [f"y{i}" + "".join(f" + c{j} * k{j}_{i}" for j in used) for i in I])

    lines += [f"y5_{i} = y{i} + h * (0.0{combo(_B5, i)})" for i in I]
    for name, b in (("dt5", _B5), ("dt4", _B4)):
        lines.append(f"{name} = h * (0.0{''.join(f' + {c!r} * g{s}' for s, c in enumerate(b))})")
    b_err = [b5 - b4 for b5, b4 in zip(_B5, _B4)]
    lines += ["try:", "    err = 0.0"]
    for i in I:
        lines += [
            f"    e = (0.0{combo(b_err, i)}) * h",
            f"    u = -y{i} if y{i} < 0.0 else y{i}",
            f"    v = -y5_{i} if y5_{i} < 0.0 else y5_{i}",
            f"    sc = a{i} + rtol * (v if v > u else u)",
            "    err += (e / sc) ** 2.0 if sc > 0.0 else 0.0",
        ]
    lines += [
        "    sc = 1e-300 + rtol * (-dt5 if dt5 < 0.0 else dt5)",
        "    err += ((dt5 - dt4) / sc) ** 2.0 if sc > 0.0 else 0.0",
        f"    err = _sqrt(err / {n + 1})",
        "except OverflowError:",
        "    err = _inf",
        "if not err <= 1.0:",  # a NaN norm rejects the step too
        "    n_rej += 1",
        "    n_rhs_rej += 6",
        "    r = 0.9 * err ** -0.2",
        "    h *= r if r > 0.2 else 0.2",
        "    continue",
    ]
    stage(7, [f"y5_{i}" for i in I])  # the end point, first stage of the next step

    # accepted
    if si is not None:  # crossings at -j*period or +j*period
        row = ["sec_count", "nc", "tau", "h", *(f"y{i}" for i in I), *(f"y5_{i}" for i in I),
               *(f"k{s}_{i}" for s in range(7) for i in I), *(f"g{s}" for s in range(7)),
               "t_acc", "n_acc"]
        lines += [
            f"nc = _floor((-y5_{si} if y5_{si} < 0.0 else y5_{si}) / period)",
            "if nc > sec_count:",
            *(f"    rows_append({v})" for v in row),
            "    sec_count = nc",
        ]
    lines += ["tau += h"]
    lines += [f"y{i} = y5_{i}" for i in I]
    lines += [f"k0_{i} = k7_{i}" for i in I]
    lines += [
        "g0 = g7",
        "t_acc += dt5",
        "taus_append(tau)",
        *(f"states_append(y{i})" for i in I),
        "incs_append(dt5)",
        "n_acc += 1",
    ]
    if stop_at_equilibrium:
        lines += [
            f"fn = _sqrt(0.0{''.join(f' + k0_{i} * k0_{i}' for i in I)})",
            f"xn = _sqrt(0.0{''.join(f' + y{i} * y{i}' for i in I)})",
            "if fn <= 1e-12 * (1.0 + xn):",
            "    eq_run += 1",
            "    if eq_run >= 50:",
            f"        termination = {code['converged-to-equilibrium']}",
            "        break",
            "else:",
            "    eq_run = 0",
        ]
    # PI controller
    lines += [
        "fac = 0.9 * err ** -0.14 * err_prev ** 0.06 if err > 0 else 5.0",
        "fac = fac if fac > 0.2 else 0.2",
        "fac = fac if fac < 5.0 else 5.0",
        "h = h * fac",
        "if h_max < h:",
        "    h = h_max",
        "err_prev = 1e-10 if 1e-10 > err else err",
        # an unconditional jump back to the test, which 3.11 counts towards
        # quickening the loop (see the docstring)
        "continue",
    ]

    head = [
        f"{_tup(f'y{i}' for i in I)} = y",
        f"{_tup(f'k0_{i}' for i in I)} = f",
        f"{_tup(f'a{i}' for i in I)} = atol",
        "tau = t_acc = 0.0",
        "err_prev = 1.0",
        "eq_run = n_acc = n_rej = n_nonfinite = n_rhs_rej = 0",
        "taus = _array('d', (0.0,))",
        "states = _array('d', y)",
        "incs = _array('d')",
        "rows = _array('d')",
        "taus_append, states_append, incs_append = taus.append, states.append, incs.append",
        "rows_append = rows.append",
        f"termination = {code['tau-budget']}",
        "while tau < tau_end:",
    ]
    text = (
        "def loop(y, f, g0, h, tau_end, h_max, rtol, atol, max_steps, period, sec_count):\n"
        + "".join(f"    {line}\n" for line in head)
        + "".join(f"        {line}\n" for line in lines)
        + "    return locals()\n"
    )
    ns = dict(src.globals, _sqrt=math.sqrt, _floor=math.floor, _inf=math.inf,
              _POW_ERRORS=_POW_ERRORS, _array=array.array)
    return function_of(text, f"<dp5 loop {','.join(C.vars)} sign={sign}>", ns), text


def _tup(names) -> str:
    """Source of a tuple display (or unpacking target) of the names."""
    return "(" + "".join(f"{v}, " for v in names) + ")"


# a step may cross at most this many sections.  Each crossing repeats the
# step's row of 13 + 9n numbers, and a step's count is a float difference cast
# to int: an angle passing ~1e307 periods in one step overflows the cast, and
# 1e7 periods per unit tau gave 67,411 crossings from one step.  The built-in
# runs cross at most one section per step (lienard n = 1, 3 and 5).
_MAX_CROSSINGS_PER_STEP = 1024


def _section_dtype(n: int) -> np.dtype:
    """The dtype of a crossing record on a chart of n variables."""
    return np.dtype([("tau", "f8"), ("state", "f8", (n,)), ("t", "f8"), ("step", "i8"),
                     ("partial", "f8")])


def _cross_sections(rows, period, si):
    """The crossings of a run's (m, 13 + 9n) array of crossing rows (see
    :func:`_loop_fn`) as one structured array of dtype ``_section_dtype(n)``:
    per crossing its ``tau``, ``state`` (n values), physical time ``t``,
    ``step`` (the index of the accepted step it falls in) and ``partial``
    (the time increment from that step's start), empty for no rows.

    A row is repeated once per section its step crosses, and all crossings
    are located together by bisection on the dense output of the angle
    alone, which must be monotone within the step.  The midpoints are
    dyadic, so hi - lo is exactly 2**-i after i halvings: the 50 halvings,
    first exact zero kept, are those of a scalar bisection that stops once
    hi - lo < 1e-15.  A step across more than ``_MAX_CROSSINGS_PER_STEP``
    sections raises ValueError.
    """
    n = (rows.shape[1] - 13) // 9
    if not len(rows):
        return np.empty(0, _section_dtype(n))
    crossings = rows[:, 1] - rows[:, 0]
    over = np.flatnonzero(~(crossings <= _MAX_CROSSINGS_PER_STEP))
    if len(over):
        i = over[0]
        raise ValueError(f"the step from tau = {float(rows[i, 2])!r} crosses {crossings[i]:.15g} "
                         f"sections, more than {_MAX_CROSSINGS_PER_STEP}")
    at = np.repeat(np.arange(len(rows)), crossings.astype(np.int64))
    rows = rows[at]
    # a step's crossings reach the counts sec_count + 1, sec_count + 2, ...
    count = rows[:, 0] + 1.0 + (np.arange(len(at)) - np.searchsorted(at, at))
    tau, h, y, y5 = rows[:, 2], rows[:, 3], rows[:, 4:4 + n], rows[:, 4 + n:4 + 2 * n]
    k = rows[:, 4 + 2 * n:4 + 9 * n].reshape(-1, 7, n).transpose(1, 0, 2)
    kg, t_acc, n_acc = rows[:, 4 + 9 * n:11 + 9 * n].T, rows[:, -2], rows[:, -1]
    target = -count * period * np.where(y5[:, si] < y[:, si], 1.0, -1.0)
    lo, hi = np.zeros(len(at)), np.ones(len(at))
    with np.errstate(over="ignore", invalid="ignore"):  # as on Python floats
        # the angle component of the dense output minus its target
        glo = y[:, si] + h * _dense_sum(lo, k[:, :, si]) - target
        th, found = lo, glo == 0.0
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            gm = y[:, si] + h * _dense_sum(mid, k[:, :, si]) - target
            th, found = np.where(found, th, mid), found | (gm == 0.0)
            same = (glo < 0) == (gm < 0)
            lo, glo, hi = np.where(same, mid, lo), np.where(same, gm, glo), np.where(same, hi, mid)
        th = np.where(found, th, 0.5 * (lo + hi))
        state = y + h[:, None] * _dense_sum(th[:, None], k)
        # the physical-time increment over [0, th], by the same dense weights
        partial = h * _dense_sum(th, kg)
    sec = np.empty(len(at), _section_dtype(n))
    sec["tau"], sec["state"], sec["t"] = tau + th * h, state, t_acc + partial
    sec["step"], sec["partial"] = n_acc.astype(np.int64), partial
    return sec


def _dense_sum(th, values):
    """``0.0 + w_0*values_0 + ... + w_6*values_6`` left to right over the
    dense-output weights ``w_s = p0*th + p1*th^2 + p2*th^3 + p3*th^4`` at the
    step fraction th, on numbers or elementwise on arrays, with the all-zero
    row of ``_P`` and every zero coefficient left out.

    It equals the rolled loop that skips zero weights bit for bit: a
    left-out zero term changes at most the sign of a zero weight, and adding
    a zero product to the sum changes nothing, since the sum starts at +0.0,
    never returns to -0.0 and every stage value is finite.
    """
    th2 = th * th
    th3 = th2 * th
    powers = (th, th2, th3, th3 * th)
    total = 0.0
    for row, v in zip(_P, values):
        w = None
        for p, x in zip(row, powers):
            if p != 0.0:
                w = p * x if w is None else w + p * x
        if w is not None:
            total = total + w * v
    return total


def _sum_sq(v) -> float:
    """``0.0 + v0*v0 + v1*v1 + ...`` left to right, on every Python version
    (the builtin ``sum`` compensates from 3.12 on)."""
    total = 0.0
    for x in v:
        total += x * x
    return total


def _initial_step(y, f0):
    d0 = math.sqrt(_sum_sq(y)) or 1.0
    d1 = math.sqrt(_sum_sq(f0))
    h = 0.01 * d0 / d1 if d1 > 0 else 1e-6
    return max(min(h, 1.0), 1e-8)


def _build_traj(taus, states, incs, termination, C, sec, n_acc, n_rej,
                n_rhs=0, n_nonfinite=0):
    """The trajectory of the lists or arrays a loop returns, taken without
    a copy where they are float arrays (numpy's or ``array('d')``);
    ``states`` holds one row per time in ``taus``, flat (components one
    after another) or nested."""
    incs = np.asarray(incs)
    t = np.empty(len(incs) + 1)
    t[0] = 0.0
    np.cumsum(incs, out=t[1:])
    return Trajectory(
        tau=np.asarray(taus),
        states=np.asarray(states).reshape(len(taus), -1),
        dt_inc=incs,
        t=t,
        termination=termination,
        chart=C,
        sections=sec,
        n_steps=n_acc,
        n_rejected=n_rej,
        n_rhs=n_rhs,
        n_nonfinite=n_nonfinite,
    )


# -- physical-time accumulation and tail handling -----------------------------


@dataclass
class TmaxEstimate:
    """Total physical time to the singular edge along a trajectory."""

    value: float                 # may be math.inf
    integrated: float
    tail: float
    tail_model: str              # 'exponential' | 'power' | 'negligible' | 'divergent'
    error_bound: float
    r2: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)


def accumulate_time(traj: Trajectory) -> TmaxEstimate:
    """Estimate total physical time, extrapolating the integrand tail.

    The integrand decay over the final 30% of the trajectory's tau span (at
    least its last 10 samples) is fit with an exponential model (finite
    closed-form tail) and a power model (exponent <= 1 means the total time
    diverges: grow-up).  A model is accepted only with R^2 >= 0.999, the
    exponential one when it fits at least as well and decays; with none
    accepted, ``AmbiguousTailError`` names the growth rate the exponential
    model fits, if it grows.  With at least 8 section crossings (only
    quasi-polar charts record them) the fit runs on per-revolution averages
    so the Cs/Sn oscillation does not mask the decay.
    """
    if traj.termination == "step-underflow":
        raise AmbiguousTailError("trajectory ended in step underflow")
    integrated = float(traj.t[-1])

    if len(traj.sections) >= 8:
        sec_tau, sec_t = traj.sections["tau"], traj.sections["t"]
        mid = 0.5 * (sec_tau[1:] + sec_tau[:-1])
        g = np.diff(sec_t) / np.diff(sec_tau)
        taus, gs = mid, g
    else:
        dtau = np.diff(traj.tau)
        taus = 0.5 * (traj.tau[1:] + traj.tau[:-1])
        gs = traj.dt_inc / dtau

    keep = gs > 0
    taus, gs = taus[keep], gs[keep]
    if len(gs) < 10:
        raise AmbiguousTailError("too few positive integrand samples")
    t_start = traj.tau[-1] - 0.3 * (traj.tau[-1] - traj.tau[0])
    sel = taus >= t_start
    if sel.sum() < 10:
        sel = np.zeros_like(taus, dtype=bool)
        sel[-10:] = True
    tw, gw = taus[sel], gs[sel]
    logg = np.log(gw)
    tau_end = float(traj.tau[-1])

    # integrand has decayed below anything that could matter (or below double
    # precision entirely): no model fit is meaningful, none is needed
    crude_bound = float(gw.max()) * max(tau_end, 1.0)
    if crude_bound <= 1e-40 * max(integrated, 1e-30):
        return TmaxEstimate(integrated + crude_bound, integrated, crude_bound,
                            "negligible", crude_bound, 1.0)

    def exp_tail(t, lg):
        c, a, r2 = linfit(t, lg)
        if c >= 0:
            return math.inf, r2, c
        return math.exp(a + c * tau_end) / (-c), r2, c

    def pow_tail(t, lg):
        c, a, r2 = linfit(np.log(t), lg)
        p = -c
        if p <= 1.0:
            return math.inf, r2, p
        g_end = math.exp(a + c * math.log(tau_end))
        return g_end * tau_end / (p - 1.0), r2, p

    # inner half of the window provides an internal-consistency error gauge
    half = len(tw) // 2
    tw_i, lg_i = tw[half:], logg[half:]
    tail_exp, r2e, rate = exp_tail(tw, logg)
    tail_pow, r2p, p = pow_tail(tw, logg) if tw[0] > 0 else (math.inf, -math.inf, 0.0)

    candidates = [x for x in (tail_exp, tail_pow) if math.isfinite(x)]
    if candidates and max(candidates) <= 1e-12 * max(integrated, 1e-300):
        tail = max(candidates)
        return TmaxEstimate(integrated + tail, integrated, tail, "negligible",
                            tail, max(r2e, r2p))

    if r2e >= r2p and r2e >= 0.999 and math.isfinite(tail_exp):
        tail_inner = exp_tail(tw_i, lg_i)[0] if len(tw_i) >= 10 else tail_exp
        err = abs(tail_exp - tail_inner) + tail_exp * max(1 - r2e, 1e-6)
        return TmaxEstimate(integrated + tail_exp, integrated, tail_exp,
                            "exponential", min(err, tail_exp), r2e)
    if r2p >= 0.999:
        if p <= 1.0:
            return TmaxEstimate(math.inf, integrated, math.inf, "divergent",
                                math.inf, r2p)
        tail_inner, _, _ = pow_tail(tw_i, lg_i) if len(tw_i) >= 10 else (tail_pow, 0, p)
        err = abs(tail_pow - tail_inner) + tail_pow * max(1 - r2p, 1e-6)
        return TmaxEstimate(integrated + tail_pow, integrated, tail_pow, "power",
                            min(err, tail_pow), r2p)
    if r2e >= 0.999 and rate >= 0:
        raise AmbiguousTailError(
            f"the integrand grows like exp({rate:.6g} tau) (R2(exp) = {r2e:.6f}, "
            f"R2(power) = {r2p:.6f}): it has no finite tail, and the power "
            "model does not fit"
        )
    raise AmbiguousTailError(
        f"neither tail model fits: R2(exp) = {r2e:.6f}, R2(power) = {r2p:.6f}"
    )


def lstsq(A, y):
    """Linear least squares A @ coef ~ y: (coef, residual sum of squares, R^2)."""
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) ** 2).sum()) or 1e-300
    return coef, ss_res, 1.0 - ss_res / ss_tot


def linfit(x, y):
    """Least-squares slope/intercept/R^2."""
    coef, _, r2 = lstsq(np.column_stack([x, np.ones_like(x)]), y)
    return float(coef[0]), float(coef[1]), r2


def remaining_time(traj: Trajectory, est: TmaxEstimate) -> np.ndarray:
    """s_j = (singular-edge time) - t_j at every sample, by suffix summation.

    Accurate to the relative accuracy of the per-step increments even when
    s is dozens of orders of magnitude below t_max.
    """
    return _suffix_sums(traj) + est.tail


def remaining_time_at_sections(traj: Trajectory, est: TmaxEstimate) -> np.ndarray:
    """Remaining time at each section crossing (its step's suffix sum less
    its partial increment), with the same accuracy as :func:`remaining_time`."""
    sec = traj.sections
    return _suffix_sums(traj)[sec["step"]] - sec["partial"] + est.tail


def _suffix_sums(traj: Trajectory) -> np.ndarray:
    """Sum of the increments from each sample to the end (0 at the last)."""
    sums = np.empty(len(traj.dt_inc) + 1)
    sums[-1] = 0.0
    np.cumsum(traj.dt_inc[::-1], out=sums[-2::-1])
    return sums


def trajectory_to_csv(traj: Trajectory, path):
    """Write the trajectory to ``path`` as one uncompressed ``.npz`` of exact
    float64 arrays: ``tau``, the cumulative physical time ``t``, ``states``
    (one row per accepted step) and ``vars``, the chart's variable names as a
    unicode array, so ``np.load(path)`` reads it without pickle.  A variable
    may be named ``t`` or ``tau``, so the columns stay in ``states``.

    It keeps its CSV-era name because ``perfbench``'s tracer wraps
    ``casebook.trajectory_to_csv`` by that name.
    """
    np.savez(path, tau=traj.tau, t=traj.t, states=traj.states,
             vars=np.array(traj.chart.vars, dtype=str))
