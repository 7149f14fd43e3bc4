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
* angular-section crossings (for quasi-polar charts) located on the dense
  output;
* a maximum step size so rate-fit windows always contain enough samples.

Both hot layers are generated Python code.  The chart field is compiled to
one function returning all components and the chain product
(:meth:`ChartField.compile_rhs`), and one DP5 attempt (six stages, the 5th-
and 4th-order solutions and increments, the error norm and the end-point
evaluation) is generated per state dimension and direction, unrolled in
tableau order.  The dense output is formed only for steps that contain a
section crossing.

Termination reasons: 'converged-to-equilibrium', 'tau-budget' (tau_end
reached), 'step-budget' (max_steps accepted steps before tau_end),
'step-underflow'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import AmbiguousTailError
from .compactify import ChartField

__all__ = [
    "Trajectory",
    "TmaxEstimate",
    "SectionSpec",
    "integrate",
    "accumulate_time",
    "trajectory_to_csv",
    "lstsq",
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
class SectionSpec:
    """Angular section crossings at var = -j*period (decreasing angle) or
    +j*period (increasing angle); the angle must be monotone."""

    var: str
    period: float


@dataclass
class Trajectory:
    tau: np.ndarray                    # accepted-step times, increasing
    states: np.ndarray                 # shape (len(tau), n)
    dt_inc: np.ndarray                 # physical-time increment per step (len-1)
    t: np.ndarray                      # cumulative physical time, t[0] = 0
    termination: str
    chart: ChartField | None = None
    sections: list = field(default_factory=list)    # (tau, state, t, step_idx, partial_inc)
    n_steps: int = 0
    n_rejected: int = 0

    @property
    def final_state(self):
        return self.states[-1]


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
    section: SectionSpec | None = None,
    stop_at_equilibrium: bool = True,
    max_steps: int = 2_000_000,
) -> Trajectory:
    """Integrate d(state)/d(sigma) = direction * field over [0, tau_end].

    The physical-time increment integral of the (always positive) chain
    product is accumulated per step alongside the state, regardless of
    direction, so it measures progress toward the singular edge.  With
    ``stop_at_equilibrium`` the run ends after 50 consecutive accepted steps
    with |field| <= 1e-12 (1 + |state|).
    """
    if not (1e-13 <= rtol <= 1e-3) or not (1e-14 <= atol <= 1e-3):
        raise ValueError("tolerances out of the supported range")
    rhs = C.compile_rhs()
    sign = 1 if direction >= 0 else -1
    # sign-masked variables never cross zero: give them pure relative error
    # control so exponential decay below atol keeps full relative accuracy
    # (otherwise the controller lets the step explode and the decaying
    # component degenerates into noise).  Same for the time increment.
    atol_vec = tuple(
        1e-300 if (v in C.positive or v == C.radial) else atol for v in C.vars
    )

    n = len(x0)
    attempt = _attempt_fn(n, sign)
    y = tuple(float(v) for v in x0)
    tau = 0.0
    try:
        f_now, g_now = rhs(y)
    except _POW_ERRORS:
        raise ValueError(f"field not finite at the initial state {x0}") from None
    if sign < 0:
        f_now = tuple(-v for v in f_now)
    if not all(math.isfinite(v) for v in f_now):
        raise ValueError(f"field not finite at the initial state {x0}")

    taus = [0.0]
    states = [y]
    incs: list[float] = []
    sec_hits = []
    termination = "tau-budget"

    if section is not None:
        si = C.vars.index(section.var)
        sec_count = math.floor(abs(y[si]) / section.period)

    h = h0 if h0 is not None else _initial_step(y, f_now)
    h = min(h, h_max, tau_end)
    eq_run = 0
    n_acc = 0
    n_rej = 0
    err_prev = 1.0
    t_acc = 0.0

    while tau < tau_end:
        if n_acc >= max_steps:
            termination = "step-budget"
            break
        h = min(h, tau_end - tau)
        if h < 1e-14 * max(1.0, abs(tau)):
            termination = "step-underflow"
            break

        res = attempt(rhs, y, f_now, g_now, h, atol_vec, rtol)
        if res is None:  # a stage or the end-point derivative is not finite
            h *= 0.5
            n_rej += 1
            continue
        err = res[0]
        if err > 1.0:
            n_rej += 1
            h *= max(0.2, 0.9 * err ** -0.2)
            continue

        # accepted
        _, y5, f_new, g_new, dt5, k, kg = res

        # sections (assumes monotone angle; crossings at -j*period or +j*period)
        if section is not None:
            new_count = math.floor(abs(y5[si]) / section.period)
            if new_count > sec_count:
                dense = _DenseSeg(tau, h, y, k)
            while new_count > sec_count:
                sec_count += 1
                target = -sec_count * section.period * _angle_sign(y, y5, si)
                th = _bisect_event(
                    lambda s: dense.state_at(s)[si] - target, 0.0, 1.0
                )
                tau_sec = tau + th * h
                st_sec = dense.state_at(th)
                partial = _dt_partial(dense, kg, th, h)
                sec_hits.append((tau_sec, st_sec, t_acc + partial, n_acc, partial))

        tau += h
        y = y5
        f_now, g_now = f_new, g_new
        t_acc += dt5
        taus.append(tau)
        states.append(y)
        incs.append(dt5)
        n_acc += 1

        # equilibrium stop rule
        if stop_at_equilibrium:
            fn = math.sqrt(_sum_sq(f_now))
            xn = math.sqrt(_sum_sq(y))
            if fn <= 1e-12 * (1.0 + xn):
                eq_run += 1
                if eq_run >= 50:
                    termination = "converged-to-equilibrium"
                    break
            else:
                eq_run = 0

        # PI controller
        fac = 0.9 * err ** -0.14 * err_prev ** 0.06 if err > 0 else 5.0
        h = min(h * min(5.0, max(0.2, fac)), h_max)
        err_prev = max(err, 1e-10)

    return _build_traj(taus, states, incs, termination, C, sec_hits, n_acc, n_rej)


# what a compiled chart rhs raises where a power of a Python float overflows
# or is 0**(-n); numpy scalars gave inf there instead
_POW_ERRORS = (OverflowError, ZeroDivisionError)


@lru_cache(maxsize=None)
def _attempt_fn(n: int, sign: int):
    """One DP5 attempt for state dimension n, generated in tableau order.

    ``attempt(rhs, y, f, g0, h, atol, rtol)`` takes the state tuple, the
    (direction-signed) field f and chain product g0 at it, and returns
    ``None`` if a stage or the end-point field is not finite or raises one
    of ``_POW_ERRORS``, ``(err,)`` if the error norm exceeds 1, and otherwise
    ``(err, y5, f_new, g_new, dt5, k, kg)`` with the stage values k, kg for
    dense output.

    The floating-point operations are those of the textbook loops, in the
    same order, so trajectories are reproduced bit for bit: stage and
    solution sums are ``y + (h*a_j)*k_j + ...`` and
    ``y + h*(0.0 + b_j*k_j + ...)`` left to right, zero coefficients
    skipped; the time increments are ``h*(0.0 + b_0*g_0 + ... + b_6*g_6)``
    over all seven terms, zero weights included, which is what the builtin
    ``sum`` computed up to Python 3.11 (from 3.12 on ``sum`` compensates, so
    it is not used).
    """
    I = range(n)
    lines = [f"{_tup(f'y{i}' for i in I)} = y", "k0 = f", f"{_tup(f'k0_{i}' for i in I)} = f"]

    def stage(s, args):
        """Evaluate stage s at the given component expressions."""
        kv = [f"k{s}_{i}" for i in I]
        got = f"k{s}" if sign > 0 else f"_v{s}"
        # a power that overflows or is 0**(-n) raises in Python floats; it is
        # retried like a non-finite stage
        lines.extend(["try:",
                      f"    {got}, g{s} = rhs(({''.join(a + ', ' for a in args)}))",
                      "except _POW_ERRORS:",
                      "    return None"])
        if sign > 0:
            lines.append(f"{_tup(kv)} = k{s}")
        else:
            lines.append(f"{_tup(f'_v{s}_{i}' for i in I)} = _v{s}")
            lines.extend(f"{kv[i]} = -_v{s}_{i}" for i in I)
            lines.append(f"k{s} = {_tup(kv)}")
        # x - x is 0.0 for finite x and NaN otherwise, and NaN propagates
        zero = " + ".join(f"({v} - {v})" for v in kv + [f"g{s}"])
        lines.append(f"if not {zero} == 0.0:")
        lines.append("    return None")

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
    d = [b5 - b4 for b5, b4 in zip(_B5, _B4)]
    lines.append(f"{_tup(f'a{i}' for i in I)} = atol")
    lines.append("err = 0.0")
    for i in I:
        lines += [
            f"e = (0.0{combo(d, i)}) * h",
            f"u = abs(y{i})",
            f"v = abs(y5_{i})",
            f"sc = a{i} + rtol * (v if v > u else u)",
            "err += (e / sc) ** 2 if sc > 0.0 else 0.0",
        ]
    lines += [
        "sc = 1e-300 + rtol * abs(dt5)",
        "err += ((dt5 - dt4) / sc) ** 2 if sc > 0.0 else 0.0",
        f"err = _sqrt(err / {n + 1})",
        "if err > 1.0:",
        "    return (err,)",
    ]
    stage(7, [f"y5_{i}" for i in I])  # the end point, first stage of the next step
    lines.append(f"return err, {_tup(f'y5_{i}' for i in I)}, k7, g7, dt5, "
                 f"{_tup(f'k{s}' for s in range(7))}, {_tup(f'g{s}' for s in range(7))}")
    src = "def attempt(rhs, y, f, g0, h, atol, rtol):\n" + "".join(
        f"    {line}\n" for line in lines
    )
    ns = {"_sqrt": math.sqrt, "_POW_ERRORS": _POW_ERRORS}
    exec(compile(src, f"<dp5 attempt n={n} sign={sign}>", "exec"), ns)
    return ns["attempt"]


def _tup(names) -> str:
    """Source of a tuple display (or unpacking target) of the names."""
    return "(" + "".join(f"{v}, " for v in names) + ")"


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
        th2 = th * th
        th3 = th2 * th
        th4 = th3 * th
        w = [
            _P[s][0] * th + _P[s][1] * th2 + _P[s][2] * th3 + _P[s][3] * th4
            for s in range(7)
        ]
        out = list(self.y0)
        for i in range(len(out)):
            acc = 0.0
            for s in range(7):
                if w[s] != 0.0:
                    acc += w[s] * self.k[s][i]
            out[i] += self.h * acc
        return out


def _dt_partial(dense: _DenseSeg, kg, th, h) -> float:
    """Physical-time increment over the partial step [0, th] using the dense
    weights applied to the integrand stage values (same order as the state)."""
    th2 = th * th
    th3 = th2 * th
    th4 = th3 * th
    acc = 0.0
    for s in range(7):
        w = _P[s][0] * th + _P[s][1] * th2 + _P[s][2] * th3 + _P[s][3] * th4
        if w != 0.0:
            acc += w * kg[s]
    return h * acc


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


def _build_traj(taus, states, incs, termination, C, sec, n_acc, n_rej):
    t = np.concatenate([[0.0], np.cumsum(np.asarray(incs))]) if incs else np.zeros(1)
    return Trajectory(
        tau=np.asarray(taus),
        states=np.asarray(states),
        dt_inc=np.asarray(incs),
        t=t,
        termination=termination,
        chart=C,
        sections=sec,
        n_steps=n_acc,
        n_rejected=n_rej,
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
    window: tuple[float, float]  # sigma-range used for the tail fit
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
    exponential one when it fits at least as well.  For quasi-polar charts
    with at least 8 section crossings the fit runs on per-revolution
    averages so the Cs/Sn oscillation does not mask the decay.
    """
    if traj.termination == "step-underflow":
        raise AmbiguousTailError("trajectory ended in step underflow")
    integrated = float(traj.t[-1])
    quasipolar = traj.chart is not None and traj.chart.quasipolar_index is not None

    if quasipolar and len(traj.sections) >= 8:
        sec_tau = np.array([s[0] for s in traj.sections])
        sec_t = np.array([s[2] for s in traj.sections])
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
                            "negligible", crude_bound,
                            (float(tw[0]), tau_end), 1.0)

    def exp_tail(t, lg):
        c, a, r2 = _linfit(t, lg)
        if c >= 0:
            return math.inf, r2
        return math.exp(a + c * tau_end) / (-c), r2

    def pow_tail(t, lg):
        c, a, r2 = _linfit(np.log(t), lg)
        p = -c
        if p <= 1.0:
            return math.inf, r2, p
        g_end = math.exp(a + c * math.log(tau_end))
        return g_end * tau_end / (p - 1.0), r2, p

    # inner half of the window provides an internal-consistency error gauge
    half = len(tw) // 2
    tw_i, lg_i = tw[half:], logg[half:]
    tail_exp, r2e = exp_tail(tw, logg)
    tail_pow, r2p, p = pow_tail(tw, logg) if tw[0] > 0 else (math.inf, -math.inf, 0.0)

    candidates = [x for x in (tail_exp, tail_pow) if math.isfinite(x)]
    if candidates and max(candidates) <= 1e-12 * max(integrated, 1e-300):
        tail = max(candidates)
        return TmaxEstimate(integrated + tail, integrated, tail, "negligible",
                            tail, (float(tw[0]), tau_end), max(r2e, r2p))

    if r2e >= r2p and r2e >= 0.999 and math.isfinite(tail_exp):
        tail_inner, _ = exp_tail(tw_i, lg_i) if len(tw_i) >= 10 else (tail_exp, 0)
        err = abs(tail_exp - tail_inner) + tail_exp * max(1 - r2e, 1e-6)
        return TmaxEstimate(integrated + tail_exp, integrated, tail_exp,
                            "exponential", min(err, tail_exp),
                            (float(tw[0]), tau_end), r2e)
    if r2p >= 0.999:
        if p <= 1.0:
            return TmaxEstimate(math.inf, integrated, math.inf, "divergent",
                                math.inf, (float(tw[0]), tau_end), r2p)
        tail_inner, _, _ = pow_tail(tw_i, lg_i) if len(tw_i) >= 10 else (tail_pow, 0, p)
        err = abs(tail_pow - tail_inner) + tail_pow * max(1 - r2p, 1e-6)
        return TmaxEstimate(integrated + tail_pow, integrated, tail_pow, "power",
                            min(err, tail_pow), (float(tw[0]), tau_end), r2p)
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


def _linfit(x, y):
    """Least-squares slope/intercept/R^2."""
    coef, _, r2 = lstsq(np.column_stack([x, np.ones_like(x)]), y)
    return float(coef[0]), float(coef[1]), r2


def remaining_time(traj: Trajectory, est: TmaxEstimate) -> np.ndarray:
    """s_j = (singular-edge time) - t_j at every sample, by suffix summation.

    Accurate to the relative accuracy of the per-step increments even when
    s is dozens of orders of magnitude below t_max.
    """
    return _suffix_sums(traj) + est.tail


def remaining_time_at_marks(traj: Trajectory, est: TmaxEstimate, marks) -> np.ndarray:
    """Remaining time at section marks (step index + partial increment),
    with the same suffix-sum accuracy as :func:`remaining_time`."""
    suffix = _suffix_sums(traj)
    return np.asarray([suffix[m[-2]] - m[-1] + est.tail for m in marks])


def _suffix_sums(traj: Trajectory) -> np.ndarray:
    """Sum of the increments from each sample to the end (0 at the last)."""
    return np.concatenate([np.cumsum(traj.dt_inc[::-1])[::-1], [0.0]])


def trajectory_to_csv(traj: Trajectory, path):
    """CSV export: tau, state columns, cumulative physical time."""
    names = traj.chart.vars if traj.chart is not None else tuple(
        f"x{i}" for i in range(traj.states.shape[1])
    )
    header = "tau," + ",".join(names) + ",t"
    data = np.column_stack([traj.tau, traj.states, traj.t])
    np.savetxt(path, data, delimiter=",", header=header, comments="",
               fmt="%.17g")
