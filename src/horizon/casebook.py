"""Built-in case studies and pipeline orchestration.

Each case builds its base vector field and chart chain (replayable
provenance; its type read off the field by :func:`type_at_infinity`),
declares its expected horizon equilibria, and runs with observables and
predicted rates.  run_case executes the four-step pipeline: chart +
equilibria, integrate, reconstruct physical time, fit and compare rates.

Case families (parameters in parentheses, defaults chosen inside the
documented basins):

  aiu            planar inverse-power blow-up with sqrt-log corrections
  iy(a)          coupled fractional-power blow-up; rate depends on initial line
  andrews1(a,t)  ratio-compactified cubic system; three log-correction regimes
  andrews2(a,a1) three-species quadratic system via a nested compactification
  quench(alpha,c) traveling-front quenching profile (edge exponents / sqrt-log)
  fhn(m,p,a,c)   degenerate-diffusion front extinction edge, exponent 1/(1-p)
  kdv(m,n,c)     nonlinear-dispersion compacton edges, exponent 2/(n-1)
  lienard(n)     periodic divergence: finite-time for n>=3, grow-up for n=1
"""

from __future__ import annotations

import itertools
import math
import pathlib
import time
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Callable, Sequence

import numpy as np

from .compactify import (
    ChartField,
    _jsonable,
    base_field,
    blowup_chart,
    desingularize,
    directional_compactify,
    divide_common_factor,
    monomial_chart,
    quasi_polar_compactify,
    restrict_invariant,
    time_rescale,
)
from .dynamics import (
    accumulate_time,
    integrate,
    linfit,
    remaining_time,
    trajectory_to_csv,
)
from .errors import ParameterError, StepBudgetError
from .genpoly import (
    GenMonomial,
    GenPoly,
    batch_function,
    format_genpoly,
    parse_genpoly,
    power_source,
)
from .localanalysis import (
    SEARCH_RANGE,
    center_manifold_series_1d,
    check_seed,
    equilibria_of,
    horizon_equilibria,
)
from .rates import RateModel, compare_rate, fit_rate, phase_section_sampler
from .structure import newton_data, type_at_infinity

__all__ = ["CaseSpec", "CaseDefinition", "RunPlan", "RunReport", "builtin_cases",
           "equilibrium_search", "get_case", "run_case", "sweep"]


@dataclass(frozen=True)
class Observable:
    name: str
    expr: GenPoly
    expected: RateModel | None = None
    tol_rho: float = 0.05
    tol_q: float = 0.1


@dataclass
class RunPlan:
    """One run of a case.  The chart fixes how it is sampled: along the
    center flow of the chart origin, solved to ``center_degree``, when that
    is set (``initial``, ``tau_end`` and ``window`` unread); on a quasi-polar
    chart at the section crossings ``integrate`` records there, once per
    revolution of the chart's angle (``window`` unread); else on the
    trajectory inside ``window``, scaled by the edge time (the integrated
    time where the edge is infinite) while ``window_relative`` holds.  A run
    with ``edge_behind_s0`` (kdv) has no edge time, so its window must be
    absolute.  ``tau_end`` and ``window`` default to a spec's defaults."""

    label: str
    initial: tuple[float, ...] = ()
    tau_end: float = 50.0
    window: tuple[float, float] = (1e-10, 1e-4)
    observables: tuple[Observable, ...] = ()
    direction: int = 1
    h_max: float = math.inf
    rtol: float = 1e-11
    atol: float = 1e-12
    window_relative: bool = True
    stop_at_equilibrium: bool = True
    # False on a quasi-polar chart also checks log(1/r) is linear in t
    expect_finite_edge: bool = True
    center_degree: int | None = None
    # the singular edge lies this far BEHIND the initial state (departure
    # from a saddle along its unstable manifold): s_j = edge_behind_s0 + t_j.
    # Used where approaching the opposite saddle is numerically unstable.
    edge_behind_s0: float | None = None


@dataclass
class CaseDefinition:
    """A case at checked parameters."""

    name: str
    chart: ChartField
    runs: list[RunPlan]
    params: dict = field(default_factory=dict)
    expected_equilibria: tuple[tuple[float, ...], ...] = ()

    @property
    def eq_box(self) -> dict:
        """A Newton search's range: SEARCH_RANGE, 0.5 past each expected root."""
        box = {}
        for eq in self.expected_equilibria:
            for v, x in zip(self.chart.vars, eq):
                lo, hi = box.get(v, SEARCH_RANGE)
                if not lo <= x <= hi:
                    box[v] = (min(lo, x - 0.5), max(hi, x + 0.5))
        return box


@dataclass(frozen=True)
class CaseSpec:
    name: str
    defaults: dict
    admissible: dict
    build: Callable[..., CaseDefinition]
    summary: str

    def check(self, params: dict | None = None) -> dict:
        """The defaults updated by ``params``, each of its default's type
        (:func:`_typed`) and admissible range, else ParameterError."""
        p = dict(self.defaults)
        for k, v in (params or {}).items():
            if k not in self.defaults:
                raise ParameterError(f"unknown parameter {k!r} for case {self.name}")
            p[k] = _typed(k, v, self.defaults[k])
        for k, (lo, hi) in self.admissible.items():
            if not (lo <= _float(p[k]) <= hi):
                raise ParameterError(
                    f"parameter {k} = {p[k]} outside admissible range [{lo}, {hi}]"
                )
        return p

    def definition(self, params: dict | None = None) -> CaseDefinition:
        p = self.check(params)
        cdef = self.build(**p)
        cdef.params = p
        return cdef


def _typed(name, v, default):
    """``v`` as the type of ``default``: an int when integral, a Fraction (a
    float becomes the decimal it prints as, 0.05 -> 1/20) or a float."""
    if isinstance(v, float) and not math.isfinite(v):
        raise ParameterError(f"parameter {name} = {v} is not finite")
    if isinstance(default, int):
        if v != int(v):
            raise ParameterError(f"parameter {name} = {v} is not an integer")
        return int(v)
    if isinstance(default, F):
        return F(repr(v)) if isinstance(v, float) else F(v)
    return _float(v)


def _float(v) -> float:
    """``float(v)``, or the infinity of v's sign past the float range."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


# -- case builders -------------------------------------------------------------


def _abs_base(chart: ChartField, var: str) -> GenPoly:
    """|var| of the base variable ``var``, read from the chart's inverse."""
    m = dict(chart.inverse)[var]
    return GenPoly.monomial(chart.poly_vars, GenMonomial(abs(m.coeff), m.exps))


def _blowup(C: ChartField, chart_var: str) -> ChartField:
    """The weighted blow-up of the degenerate equilibrium at the origin of
    ``C`` in the chart fixing ``chart_var``, with the primitive weights of the
    first face of its Newton diagram, divided by its common factor."""
    return divide_common_factor(blowup_chart(
        C, newton_data(list(C.components)).weights[0], chart_var, radial="r"))


def _build_aiu() -> CaseDefinition:
    vars = ("u0", "u1")
    f = [parse_genpoly("u1 * u0^(-2)", vars), parse_genpoly("u1^2 * u0^(-1)", vars)]
    base = base_field(vars, f, positive=vars, name="aiu")
    t = type_at_infinity(base.components)
    chart = divide_common_factor(desingularize(directional_compactify(base, t, "u1"), t.k))
    runs = [
        RunPlan(
            label="blow-up",
            initial=(1.0, 1.0),
            tau_end=11.0,
            h_max=0.02,
            window=(1e-9, 1e-3),
            window_relative=False,
            stop_at_equilibrium=False,
            observables=(
                Observable("u1", _abs_base(chart, "u1"), RateModel(1.0, 0.5), 0.05, 0.1),
                Observable("u0", _abs_base(chart, "u0"), RateModel(0.0, 0.5), 0.05, 0.1),
            ),
        )
    ]
    return CaseDefinition(
        name="aiu",
        chart=chart,
        runs=runs,
        # no horizon equilibrium: the orbit escapes along the horizon
        expected_equilibria=(),
    )


def _build_iy(a) -> CaseDefinition:
    vars = ("v0", "v1")
    e = (a + 1) / a
    f = [GenPoly(vars, {(e, F(1)): a}), GenPoly(vars, {(F(1), e): a})]
    base = base_field(vars, f, positive=vars, name="iy")
    t = type_at_infinity(base.components)
    chart = divide_common_factor(desingularize(directional_compactify(base, t, "v0"), t.k))
    af = float(a)
    # the ratio line v1/v0 = 1 is invariant: on it the rate is the
    # scaling-type prediction a/(a+1); off it the degenerate corner gives a
    obs_v0 = lambda rho, tol: (
        Observable("v0", _abs_base(chart, "v0"), RateModel(rho, 0.0), tol, 0.1),
    )
    runs = [
        RunPlan(
            label="generic (v0 > v1)",
            initial=(0.5, 0.5),
            tau_end=45.0,
            h_max=0.05,
            window=(1e-10, 1e-4),
            observables=obs_v0(af, 0.03),
        ),
        RunPlan(
            label="symmetric line (v0 = v1)",
            initial=(0.5, 1.0),
            tau_end=40.0,
            h_max=0.05,
            window=(1e-10, 1e-4),
            observables=obs_v0(af / (af + 1), 0.03),
        ),
    ]
    return CaseDefinition(
        name="iy",
        chart=chart,
        runs=runs,
        expected_equilibria=((0.0, 0.0), (0.0, 1.0)),
    )


def _build_andrews1(a, theta) -> CaseDefinition:
    ct, st = math.cos(theta), math.sin(theta)
    vars = ("u0", "u1")
    # polynomial form: field multiplied by sin(t)(u1 + 2cos(t)u0) > 0,
    # carried in the time chain as a prefactor
    f1 = GenPoly(vars, {(F(2), F(2)): 1.0, (F(3), F(1)): 2 * (1 - a) * ct,
                        (F(4), F(0)): -4 * a * ct * ct})
    f2 = GenPoly(vars, {(F(1), F(3)): 1.0, (F(2), F(2)): 2 * a * ct})
    mu = GenPoly(vars, {(F(0), F(1)): st, (F(1), F(0)): 2 * st * ct})
    base = base_field(vars, [f1, f2], positive=vars, prefactor=mu, name="andrews1")
    t = type_at_infinity(base.components)
    chart = divide_common_factor(desingularize(directional_compactify(base, t, "u1"), t.k))
    if a > 0.5:
        window, tau_end, q1, q0 = (1e-45, 1e-18), 46.0, 0.5, -0.5
        rho, tol_q = 0.5, 0.15
        expected_eqs = ((0.0, 0.0), (0.0, (1 - 2 * a) / (2 * a * ct)))
        init = (0.5, 0.5)
    elif a == 0.5:
        window, tau_end, q1, q0 = (1e-45, 1e-18), 46.0, 0.25, -0.25
        rho, tol_q = 0.5, 0.1
        expected_eqs = ((0.0, 0.0),)
        init = (0.5, 0.5)
    else:
        # transverse settling at the sink decays like s^(|l2|/rate): sample
        # deep enough that it no longer bends the log-log fit
        window, tau_end, q1, q0 = (1e-22, 1e-12), 30.0, 0.0, 0.0
        rho, tol_q = 0.5, 0.1
        x_star = (1 - 2 * a) / (2 * a * ct)
        expected_eqs = ((0.0, 0.0), (0.0, x_star))
        init = (0.5, 0.55 * x_star)
    runs = [
        RunPlan(
            label=f"a={a}",
            initial=init,
            tau_end=tau_end,
            h_max=0.02,
            window=window,
            observables=(
                Observable("u1", _abs_base(chart, "u1"), RateModel(rho, q1), 0.05, tol_q),
                Observable("u0", _abs_base(chart, "u0"), RateModel(rho, q0), 0.05, tol_q),
            ),
        )
    ]
    return CaseDefinition(
        name="andrews1",
        chart=chart,
        runs=runs,
        expected_equilibria=expected_eqs,
    )


def _build_andrews2(a, a1) -> CaseDefinition:
    vars = ("u1", "u2", "u3")
    f = [
        GenPoly(vars, {(F(2), F(1), F(0)): a, (F(2), F(0), F(1)): a,
                       (F(3), F(0), F(0)): -a1}),
        GenPoly(vars, {(F(0), F(2), F(1)): a, (F(1), F(2), F(0)): a1,
                       (F(0), F(3), F(0)): -a}),
        GenPoly(vars, {(F(1), F(0), F(2)): a1, (F(0), F(1), F(2)): a,
                       (F(0), F(0), F(3)): -a}),
    ]
    base = base_field(vars, f, positive=vars, name="andrews2")
    M = monomial_chart(
        base,
        {
            "u1": GenMonomial.make(1, {"r": -1}),
            "u2": GenMonomial.make(1, {"r": -1, "w": -1}),
            "u3": GenMonomial.make(1, {"r": -1, "w": -1, "y": 1}),
        },
        ("r", "w", "y"),
        radial="r",
        positive=("r", "w", "y"),
    )
    chart = divide_common_factor(restrict_invariant(divide_common_factor(M), "y", 1))
    af, a1f = float(a), float(a1)
    if a1f > 2 * af:
        rho1, rho2 = 2 * af / (2 * af + a1f), a1f / (2 * af + a1f)
        q1 = q2 = 0.0
        tol_r, tol_q = 0.03, 0.1
        window, tau_end = (1e-10, 1e-4), 40.0
        expected_eqs = ((0.0, 0.0),)
    elif a1f == 2 * af:
        rho1 = rho2 = 0.5
        q1, q2 = -0.5, 0.5
        tol_r, tol_q = 0.05, 0.15
        window, tau_end = (1e-20, 1e-8), 65.0
        expected_eqs = ((0.0, 0.0),)
    else:
        rho1 = rho2 = 0.5
        q1 = q2 = 0.0
        tol_r, tol_q = 0.05, 0.1
        # near the regime boundary a1 = 2a the sink's transverse eigenvalue
        # is small; corrections decay like s^(|l2|/rate), so sample deep
        window, tau_end = (1e-26, 1e-16), 110.0
        w_star = float((2 * a - a1) / a1)
        expected_eqs = ((0.0, 0.0), (0.0, w_star))
    runs = [
        RunPlan(
            label=f"a1={a1f}",
            initial=(0.5, 0.5),
            tau_end=tau_end,
            h_max=0.05,
            window=window,
            observables=(
                Observable("u1", _abs_base(chart, "u1"), RateModel(rho1, q1), tol_r, tol_q),
                Observable("u2", _abs_base(chart, "u2"), RateModel(rho2, q2), tol_r, tol_q),
            ),
        )
    ]
    return CaseDefinition(
        name="andrews2",
        chart=chart,
        runs=runs,
        expected_equilibria=expected_eqs,
    )


def _build_quench(alpha, c) -> CaseDefinition:
    vars = ("phi", "psi")
    fbase = [
        parse_genpoly("psi", vars),
        GenPoly(vars, {(F(0), F(1)): -c, (F(-alpha), F(0)): -1}),
    ]
    base = base_field(vars, fbase, positive=("phi",), name="quench")
    D0 = divide_common_factor(base)
    t = type_at_infinity(D0.components)
    DC = directional_compactify(D0, t, "psi", sign=-1, radial="lam")
    DS = desingularize(DC, t.k)
    cf = float(c)
    if alpha > 1:
        chart = _blowup(DS, "lam")
        x_sink = (2 / (alpha - 1)) ** (1 / (alpha - 1))
        # edge exponents from the dominant balance phi'' ~ -phi^(-alpha):
        # phi ~ s^(2/(alpha+1)), |psi| ~ s^((1-alpha)/(alpha+1)).  The
        # primitive weights are (alpha-1, alpha+1)/g with
        # g = gcd(alpha-1, alpha+1), so lam = r^((alpha-1)/g) and
        # s ~ r^((alpha+1)/g) at the sink, where phi_b settles at a nonzero
        # constant
        runs = [
            RunPlan(
                label=f"alpha={alpha}",
                initial=(0.4, 0.5),
                tau_end=25.0,
                h_max=0.02,
                window=(1e-10, 1e-4),
                observables=(
                    Observable("phi", _abs_base(chart, "phi"),
                               RateModel(-2.0 / (alpha + 1), 0.0), 0.03, 0.1),
                    Observable("abs_psi", _abs_base(chart, "psi"),
                               RateModel((alpha - 1.0) / (alpha + 1), 0.0), 0.03, 0.1),
                ),
            )
        ]
        expected_eqs = ((0.0, 0.0), (0.0, x_sink))
    else:
        chart = DS
        runs = [
            RunPlan(
                label="alpha=1",
                initial=(0.6, 0.3),
                tau_end=45.0,
                h_max=0.05,
                window=(1e-10, 1e-4),
                observables=(
                    Observable("abs_psi", _abs_base(chart, "psi"),
                               RateModel(0.0, 0.5), 0.03, 0.15),
                    Observable("phi", _abs_base(chart, "phi"),
                               RateModel(-1.0, 0.5), 0.05, 0.2),
                ),
            )
        ]
        expected_eqs = ((0.0, 0.0), (0.0, 1.0 / cf))
    return CaseDefinition(
        name="quench",
        chart=chart,
        runs=runs,
        expected_equilibria=expected_eqs,
    )


def _build_fhn(m, p, a, c) -> CaseDefinition:
    N = m + p
    vars = ("phi", "psi")
    # profile system: phi' = phi^-m psi, psi' = -c phi^-m psi - f_p(phi)
    f = [
        GenPoly(vars, {(F(-m), F(1)): 1}),
        GenPoly(
            vars,
            {
                (F(-m), F(1)): -c,
                (p, F(0)): a,
                (p + 1, F(0)): -(1 + a),
                (p + 2, F(0)): 1,
            },
        ),
    ]
    base = base_field(vars, f, positive=("phi",), name="fhn")
    chart = divide_common_factor(base)
    runs = [
        RunPlan(
            label=f"m={m}, p={p}",
            observables=(
                Observable("phi", _abs_base(chart, "phi"),
                           RateModel(-1.0 / (1.0 - float(p)), 0.0), 0.1, 0.2),
            ),
            center_degree=int(math.ceil(float(N))) + 4,
        )
    ]
    return CaseDefinition(
        name="fhn",
        chart=chart,
        runs=runs,
        expected_equilibria=((0.0, 0.0), (1.0, 0.0)),
    )


def _build_kdv(m, n, c) -> CaseDefinition:
    vars = ("phi", "psi")
    f = [
        GenPoly(vars, {(F(1 - n), F(1)): F(1, n)}),
        GenPoly(vars, {(F(1), F(0)): c, (F(m), F(0)): -1}),
    ]
    base = base_field(vars, f, positive=("phi",), name="kdv")
    D0 = time_rescale(base, GenMonomial.make(n, {"phi": n - 1}))
    chart = _blowup(D0, "phi")
    psi_plus = math.sqrt(2 * n * float(c) / (n + 1))
    edge_rho = -2.0 / (n - 1)
    u = _abs_base(chart, "phi")  # phi = r^w1
    obs = (Observable("u", u, RateModel(edge_rho, 0.0), 0.1, 0.15),)
    # The connection between the two saddles is followed OUTWARD from each:
    # approaching the far saddle amplifies transverse noise at rate
    # (n+1)|psi_bar| and ejects the orbit, so each edge is measured on the
    # stable departure leg.  There r ~ r0 e^(lambda_r tau), with
    # lambda_r = psi_plus / w1 for the weight w1 of phi = r^w1, and the time
    # chain is n r^e, so the edge lies n*r0^e/(e*lambda_r) behind the start
    # (linearization of the frame-time integral).
    r0 = 1e-8
    lam_r = psi_plus / u.min_exponent("r")
    e = sum(f.min_exponent("r") for f in chart.time_chain)
    s0 = n * r0**e / (e * lam_r)
    tau_end = 26.0 / math.sqrt(c)  # the saddle's radial rate scales like sqrt(c)
    runs = [
        RunPlan(
            label="leading edge",
            initial=(r0, psi_plus),
            tau_end=tau_end,
            h_max=0.05,
            window=(1e-6, 1e-2),
            observables=obs,
            direction=1,
            stop_at_equilibrium=False,
            window_relative=False,
            edge_behind_s0=s0,
        ),
        RunPlan(
            label="trailing edge",
            initial=(r0, -psi_plus),
            tau_end=tau_end,
            h_max=0.05,
            window=(1e-6, 1e-2),
            observables=obs,
            direction=-1,
            stop_at_equilibrium=False,
            window_relative=False,
            edge_behind_s0=s0,
        ),
    ]
    return CaseDefinition(
        name="kdv",
        chart=chart,
        runs=runs,
        expected_equilibria=((0.0, -psi_plus), (0.0, psi_plus)),
    )


def _build_lienard(n) -> CaseDefinition:
    if n % 2 == 0:
        raise ParameterError(f"parameter n = {n} is even; lienard needs an odd n")
    vars = ("x", "y")
    f = [
        parse_genpoly("y", vars),
        parse_genpoly(f"-x^{2 * n + 1} - x^{2 * n} - x^{n}*y", vars),
    ]
    base = base_field(vars, f, name="lienard")
    t = type_at_infinity(base.components)
    chart = quasi_polar_compactify(base, t.alpha[1], t.k)
    if n >= 3:
        runs = [
            RunPlan(
                label=f"n={n} periodic blow-up",
                initial=(0.08, 0.0),
                tau_end=27000.0,
                observables=(
                    Observable("inv_r", parse_genpoly("r^(-1)", chart.poly_vars),
                               RateModel(1.0 / (n - 1), 0.0), 0.05, 0.2),
                ),
                rtol=1e-8,
                atol=1e-10,
                stop_at_equilibrium=False,
            )
        ]
    else:
        runs = [
            RunPlan(
                label="n=1 grow-up",
                initial=(0.08, 0.0),
                tau_end=2400.0,
                rtol=1e-10,
                stop_at_equilibrium=False,
                expect_finite_edge=False,
            )
        ]
    return CaseDefinition(
        name="lienard",
        chart=chart,
        runs=runs,
        # the horizon carries an attracting non-hyperbolic periodic orbit
        expected_equilibria=(),
    )


def builtin_cases() -> dict[str, CaseSpec]:
    """The eight built-in case families."""
    return {
        "aiu": CaseSpec(
            "aiu", {}, {}, _build_aiu,
            "inverse-power planar blow-up, sqrt-log corrected rates",
        ),
        "iy": CaseSpec(
            "iy", {"a": F(1, 2)}, {"a": (0.01, 0.99)},
            _build_iy,
            "fractional-power blow-up; rate a off the symmetric line, a/(a+1) on it",
        ),
        "andrews1": CaseSpec(
            "andrews1", {"a": 0.75, "theta": math.pi / 4},
            {"a": (0.05, 0.95), "theta": (0.1, 1.47)},
            _build_andrews1,
            "three log-correction regimes across a = 1/2",
        ),
        "andrews2": CaseSpec(
            "andrews2", {"a": F(1, 4), "a1": F(1)},
            {"a": (0.05, 2.0), "a1": (0.05, 4.0)},
            _build_andrews2,
            "nested compactification; exponents depend on coefficient ratios",
        ),
        "quench": CaseSpec(
            "quench", {"alpha": 2, "c": F(1)},
            {"alpha": (1, 6), "c": (0.1, 10.0)},
            _build_quench,
            "front quenching: edge exponents (alpha > 1) or sqrt-log slope (alpha = 1)",
        ),
        "fhn": CaseSpec(
            "fhn", {"m": 1, "p": F(1, 2), "a": F(1, 4), "c": F(1)},
            {"m": (1, 4), "p": (0.05, 0.95), "a": (0.05, 0.45), "c": (0.1, 10.0)},
            _build_fhn,
            "degenerate-diffusion extinction edge, exponent 1/(1-p)",
        ),
        "kdv": CaseSpec(
            "kdv", {"m": 2, "n": 2, "c": F(1)},
            {"m": (2, 3), "n": (2, 3), "c": (0.1, 10.0)},
            _build_kdv,
            "compacton edges, exponent 2/(n-1), weights from the Newton diagram",
        ),
        "lienard": CaseSpec(
            "lienard", {"n": 3}, {"n": (1, 5)},
            _build_lienard,
            "periodic divergence: finite-time blow-up (n odd >= 3) or grow-up (n = 1)",
        ),
    }


def get_case(name: str) -> CaseSpec:
    cases = builtin_cases()
    if name not in cases:
        raise KeyError(f"unknown case {name!r}; known: {', '.join(sorted(cases))}")
    return cases[name]


# -- pipeline execution --------------------------------------------------------


REPORT_SCHEMA = 2  # version of the report.json layout


@dataclass
class RunReport:
    case: str
    params: dict
    seed: int
    status: str                    # PASS | FAIL | ERROR
    chart: dict
    equilibria: list
    eq_check: dict
    runs: list
    wallclock_s: float
    error: str | None = None

    def to_dict(self):
        """The ``report.json`` document of this run, which the CLI writes as
        it is: a Fraction parameter as its string, a non-finite float as
        ``"inf"``, ``"-inf"`` or ``"nan"`` (:func:`compactify._jsonable`)."""
        return _jsonable({
            "schema": REPORT_SCHEMA,
            "case": self.case,
            "params": self.params,
            "seed": self.seed,
            "status": self.status,
            "chart": self.chart,
            "equilibria": self.equilibria,
            "equilibrium_check": self.eq_check,
            "runs": self.runs,
            "wallclock_s": self.wallclock_s,
            "error": self.error,
        })


def run_case(
    spec: CaseSpec | CaseDefinition | str,
    params: dict | None = None,
    *,
    seed: int = 0,
    out_dir=None,
) -> RunReport:
    """Execute a case end to end; every module error is captured into the
    report and the run is marked ERROR.  A built ``CaseDefinition`` runs
    as it is, with its own ``params``: ``params`` given with it raise
    ParameterError.  A ``seed`` that is not an int, 0 or more, raises
    ``ValueError`` before the run (:func:`check_seed`)."""
    check_seed(seed)
    if isinstance(spec, CaseDefinition) and params is not None:
        raise ParameterError(f"params {params} given with the built case {spec.name}")
    t0 = time.perf_counter()
    if isinstance(spec, str):
        spec = get_case(spec)
    # parameter errors are the caller's
    cdef = spec if isinstance(spec, CaseDefinition) else spec.definition(params)
    error = None
    try:
        status, equilibria, eq_check, runs = _execute(cdef, seed, out_dir)
    except Exception as exc:
        status, equilibria, eq_check, runs = "ERROR", [], {}, []
        error = f"{type(exc).__name__}: {exc}"
    return RunReport(
        case=cdef.name,
        params=cdef.params,
        seed=seed,
        status=status,
        chart=cdef.chart.to_dict(),
        equilibria=equilibria,
        eq_check=eq_check,
        runs=runs,
        wallclock_s=time.perf_counter() - t0,
        error=error,
    )


def _execute(cdef, seed, out_dir):
    """``(status, equilibria, equilibrium check, runs)`` of ``cdef``, the
    fields of its report that the runs decide."""
    chart = cdef.chart

    # Step 1-2: invariant sets (on the horizon, if any) and their linear type
    eqs = equilibrium_search(chart)(chart, box=cdef.eq_box, seed=seed)
    eq_check = _check_expected_equilibria(cdef, eqs)

    runs_out = []
    any_fail = not eq_check.get("all_found", True)
    for plan in cdef.runs:
        entry = _execute_run(cdef, plan, out_dir)
        runs_out.append(entry)
        if any(not v["passed"] for v in entry.get("verdicts", [])):
            any_fail = True

    return "FAIL" if any_fail else "PASS", [e.to_dict() for e in eqs], eq_check, runs_out


def _check_expected_equilibria(cdef, eqs, tol=1e-8):
    found = []
    for exp in cdef.expected_equilibria:
        hit = any(
            max(abs(a - b) for a, b in zip(exp, e.coords)) <= tol for e in eqs
        )
        found.append({"coords": list(exp), "found": bool(hit)})
    return {
        "expected": found,
        "all_found": all(f["found"] for f in found),
        "n_found": len(eqs),
    }


def equilibrium_search(chart: ChartField):
    """The search for ``chart``'s equilibria: on its horizon ``{r = 0}``
    (:func:`horizon_equilibria`) when it has a radial variable, else over
    the whole field (:func:`equilibria_of`)."""
    return equilibria_of if chart.radial is None else horizon_equilibria


def _execute_run(cdef, plan, out_dir):
    """The report entry of one run of ``cdef``: what its sampler records
    (:func:`_center_flow` with ``center_degree``, else :func:`_samples` of
    the integrated run), then each observable's fit and the verdicts."""
    chart = cdef.chart
    entry, verdicts = {"label": plan.label}, []
    if plan.center_degree is not None:
        s, values, min_samples = _center_flow(chart, plan, entry)
    else:
        if plan.edge_behind_s0 is not None and plan.window_relative:
            # there is no edge time to scale the window by
            raise ValueError(f"run {plan.label!r} has its edge behind the start, so "
                             "its window must be absolute (window_relative=False)")
        # a quasi-polar run records one section crossing per revolution
        sectioned = chart.quasipolar_index is not None
        entry["sampler"] = "sections" if sectioned else "trajectory"
        traj = integrate(chart, plan.initial, plan.tau_end, rtol=plan.rtol, atol=plan.atol,
                         direction=plan.direction, h_max=plan.h_max,
                         stop_at_equilibrium=plan.stop_at_equilibrium)
        if traj.termination == "step-budget":
            raise StepBudgetError(f"run {plan.label!r} stopped after {traj.n_steps} steps "
                                  f"at tau = {traj.tau[-1]:.6g}, before tau_end")
        entry["termination"] = traj.termination
        entry["n_steps"] = traj.n_steps
        if out_dir is not None:
            tdir = pathlib.Path(out_dir) / "trajectories"
            tdir.mkdir(parents=True, exist_ok=True)
            fname = f"{cdef.name}_{plan.label}".replace(" ", "_").replace("=", "")
            fname = "".join(ch for ch in fname if ch.isalnum() or ch in "_-") + ".npz"
            trajectory_to_csv(traj, tdir / fname)
        s, states, min_samples = _samples(plan, traj, sectioned, entry, verdicts)
        values = (obs.expr.compile_batch()(*chart.poly_columns(states))
                  for obs in plan.observables)
    # each observable's values are computed as it is fitted
    entry["fits"] = [_fit_row(obs, fit_rate(s, y, min_samples=min_samples), verdicts)
                     for obs, y in zip(plan.observables, values)]
    entry["verdicts"] = verdicts
    return entry


def _samples(plan, traj, sectioned, entry, verdicts):
    """``(s, states, min_samples)``: the distances to the edge and chart
    states every observable of the run is fitted on, at the ``sectioned``
    run's section crossings or inside its window.  Records the edge in
    ``entry`` and appends the edge verdicts to ``verdicts``."""
    if plan.edge_behind_s0 is not None:
        entry["edge"] = {"behind_start_at": plan.edge_behind_s0}
        s = plan.edge_behind_s0 + traj.t
        lo, hi = plan.window
        sel = (s >= lo) & (s <= hi)
        return s[sel], traj.states[sel], 50
    est = accumulate_time(traj)
    entry["edge"] = {
        "value": est.value,
        "integrated": est.integrated,
        "tail": est.tail,
        "tail_model": est.tail_model,
        "error_bound": est.error_bound,
    }
    verdicts.append({
        "name": "edge finiteness",
        "passed": bool(est.is_finite == plan.expect_finite_edge),
        "detail": f"edge is {'finite' if est.is_finite else 'infinite'}, "
                  f"expected {'finite' if plan.expect_finite_edge else 'infinite'}",
    })
    if not sectioned:
        s = remaining_time(traj, est)
        lo, hi = plan.window
        if plan.window_relative:
            scale = est.value if est.is_finite else est.integrated
            lo, hi = lo * scale, hi * scale
        # samples whose distance-to-edge is dominated by the extrapolated
        # tail carry its uncertainty; keep a 100x margin over its error bound
        lo = max(lo, 100.0 * est.error_bound)
        sel = (s >= lo) & (s <= hi)
        return s[sel], traj.states[sel], 50

    s, r, t = phase_section_sampler(traj, est)
    if not plan.expect_finite_edge:
        keep = t > 0.25 * t.max()
        slope, _, r2 = linfit(t[keep], np.log(1.0 / r[keep]))
        verdicts.append({
            "name": "grow-up envelope log-linear in t",
            "passed": bool(r2 >= 0.999 and slope > 0),
            "detail": f"slope {slope:.4f}, R2 {r2:.6f}",
        })
        entry["growup"] = {"slope": slope, "r2": r2}
    # drop the initial transient (a fixed burn-in of revolutions) and
    # samples dominated by the edge-time uncertainty
    burn = 32
    s = s[burn:]
    keep = (s > 0) & (s < math.inf) & (s >= 100.0 * est.error_bound)
    return s[keep], traj.sections["state"][burn:][keep], 40


def _fit_row(obs, fit, verdicts):
    """The report row of one fitted observable; its rate verdict, when one is
    declared, is appended to ``verdicts``."""
    if obs.expected is not None:
        verdicts.append(compare_rate(fit, obs.expected, obs.tol_rho, obs.tol_q, obs.name))
    return {
        "observable": obs.name,
        "rho": fit.rho,
        "q": fit.q,
        "C": fit.C,
        "rho_se": fit.rho_se,
        "q_se": fit.q_se,
        "r2": fit.r2,
        "window": list(fit.window),
        "n_samples": fit.n_samples,
        "drift_rho": fit.drift_rho if math.isfinite(fit.drift_rho) else None,
        "collinear_q": fit.collinear_q,
    }


# the 24-node Gauss-Legendre rule on [-1, 1]: the nodes and weights of
# numpy's np.polynomial.legendre.leggauss(24), bit for bit
_GL24_NODES = (
    -0.9951872199970213, -0.9747285559713095, -0.9382745520027328,
    -0.8864155270044011, -0.820001985973903, -0.7401241915785544,
    -0.6480936519369755, -0.5454214713888396, -0.4337935076260451,
    -0.3150426796961634, -0.1911188674736163, -0.06405689286260563,
    0.06405689286260563, 0.1911188674736163, 0.3150426796961634,
    0.4337935076260451, 0.5454214713888396, 0.6480936519369755,
    0.7401241915785544, 0.820001985973903, 0.8864155270044011,
    0.9382745520027328, 0.9747285559713095, 0.9951872199970213,
)
_GL24_WEIGHTS = (
    0.01234122979998869, 0.02853138862893356, 0.04427743881741941,
    0.05929858491543636, 0.07334648141108016, 0.0861901615319532,
    0.09761865210411393, 0.10744427011596556, 0.11550566805372552,
    0.1216704729278033, 0.12583745634682825, 0.12793819534675202,
    0.12793819534675202, 0.12583745634682825, 0.1216704729278033,
    0.11550566805372552, 0.10744427011596556, 0.09761865210411393,
    0.0861901615319532, 0.07334648141108016, 0.05929858491543636,
    0.04427743881741941, 0.02853138862893356, 0.01234122979998869,
)


def _center_flow(chart, plan, entry):
    """``(s, values, min_samples)`` along the analytically reduced center
    flow: the distances to the edge and each observable's values there.
    Records the sampler and the center manifold series in ``entry``.

    Near the degenerate equilibrium at the chart origin the transverse
    direction is exponentially unstable backward in time, so instead of
    integrating toward it the run solves the invariance equation, restricts
    the full field and the time chain to the manifold, and quadratures
    s(x) = int chain / speed dx.  The measured exponent comes from the
    actual field, not the predicted rate.

    The quadrature's nodes (400 segments of 24 Gauss-Legendre nodes, the
    literals ``_GL24_NODES`` and ``_GL24_WEIGHTS``, which are numpy's
    ``leggauss(24)`` without importing ``numpy.polynomial``) and the
    observables' samples are each evaluated in one batch on Python floats
    (:func:`horizon.genpoly.batch_function`); the segments are summed left
    to right.
    """
    series = center_manifold_series_1d(chart, plan.center_degree)
    chain_prod = GenPoly.const(chart.poly_vars, 1)
    for f in chart.time_chain:
        chain_prod = chain_prod * f
    speed = series.reduced_flow

    xs = np.geomspace(1e-12, 1e-4, 400)
    # s(x) = int_0^x chain(u)/speed(u) du; substitute u = z^q with q the
    # exponent-lattice denominator so the integrand is smooth at 0
    q = max(int(e.denominator) for ev, _ in speed.terms for e in ev)
    nodes, weights = np.array(_GL24_NODES), np.array(_GL24_WEIGHTS)
    zs = xs ** (1.0 / q)
    z0 = np.concatenate([[0.0], zs[:-1]])
    half = 0.5 * (zs - z0)
    z = (0.5 * (z0 + zs))[:, None] + half[:, None] * nodes
    integrand = batch_function(
        f"({series.on_manifold(chain_prod).source(['u'])}) / ({speed.source(['u'])})"
        f" * {float(q)!r} * {power_source('z', F(q - 1))}", ["u", "z"], "center flow")
    vals = integrand((z**q).ravel().tolist(), z.ravel().tolist())
    # each segment's weighted sum on its own contiguous row of one array, as
    # a dot of the row's length; the segments accumulate left to right
    rows = np.array(vals).reshape(len(half), len(nodes))
    segs = [float(h * (weights @ row)) for h, row in zip(half, rows)]
    s = np.array(list(itertools.accumulate(segs)))
    entry["sampler"] = entry["termination"] = "center-flow"
    entry["series"] = {
        "center_var": series.center_var,
        "d": str(series.d),
        "c_d": float(series.c_d),
        "h": format_genpoly(series.coefficients),
        "exact": series.exact,
    }
    return s, (series.on_manifold(obs.expr).compile_batch()(xs.tolist())
               for obs in plan.observables), 50


def sweep(
    spec: CaseSpec | str,
    grid: Sequence[dict],
    *,
    seed: int = 0,
    jobs: int = 1,
) -> list[RunReport]:
    """Independent runs over a parameter grid, in ``min(jobs, len(grid))``
    worker processes when that is more than one.  Every point's definition
    is built before any runs, so a bad point (one that fails a check or a
    builder's rule) raises ParameterError first, and a ``seed`` that is not
    an int, 0 or more, ValueError."""
    check_seed(seed)
    if isinstance(spec, str):
        spec = get_case(spec)
    cdefs = [spec.definition(params) for params in grid]
    workers = min(jobs, len(cdefs))
    if workers <= 1:
        return [run_case(cdef, None, seed=seed) for cdef in cdefs]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        futs = [pool.submit(run_case, cdef, None, seed=seed) for cdef in cdefs]
        return [f.result() for f in futs]
