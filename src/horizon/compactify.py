"""Chart transforms with full time-scale provenance.

A ChartField is a vector field in some chart together with the ordered list
of time-rescale factors whose product equals dt/d(sigma), where t is the time
of the base system and sigma the chart's own time.  Every transform keeps
that bookkeeping exact, so physical time (and hence the distance to the
singularity) can always be reconstructed from a chart trajectory.

Transforms provided:

* directional compactification  y_i = sign/r^(a_i), y_j = x_j/r^(a_j)
  of a field certified asymptotically quasi-homogeneous of its type
  (:func:`horizon.structure.certify_type`)
* generic monomial coordinate changes (nested compactifications, weighted
  blow-up charts) via the logarithmic-derivative pushforward
* time-scale desingularization by r^k and monomial rescalings, each
  certified positive: a positive coefficient and every variable declared
  positive (see :func:`time_rescale`)
* quasi-polar compactification of planar fields certified of type (1,m),
  with components
  expressed as polynomials in (r, Cs, Sn) using the closure identity
  Cs^(2m) = 1 - m Sn^2
* restriction to an invariant coordinate slice
* the exact inverse back to base coordinates, as a record only: every
  chart keeps each base variable as a monomial over its polynomial
  variables (Cs, Sn on a quasi-polar chart) in ``ChartField.inverse``, from
  which observables are written; nothing here evaluates it at a point

Each transform records one provenance step: its op and the keyword
arguments it was called with, in JSON form.  That record is the only
description of how a chart was built; :func:`apply_recipe` rebuilds a chart
by calling the transform of each step with the step's params.

Sign conventions: a time rescale with factor phi means d(old time)/d(new
time) = phi, so components are multiplied by phi and phi joins the chain.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ClosureError, ResidualSingularityError, SignError
from .genpoly import (
    SOURCE_GLOBALS,
    GenMonomial,
    GenPoly,
    format_genpoly,
    frac,
    parse_genpoly,
    power_source,
)
from .quasitrig import table
from .structure import TypeVector, certify_type

__all__ = [
    "ChartField",
    "TransformStep",
    "base_field",
    "monomial_chart",
    "directional_compactify",
    "desingularize",
    "time_rescale",
    "quasi_polar_compactify",
    "blowup_chart",
    "restrict_invariant",
    "horizon_slice",
    "apply_recipe",
]

CS, SN = "_cs", "_sn"  # symbol names for Cs(theta), Sn(theta) in components


@dataclass(frozen=True)
class TransformStep:
    op: str
    params: dict

    def to_dict(self):
        return {"op": self.op, "params": _jsonable(self.params)}


def _jsonable(obj):
    """``obj`` in the form ``json`` writes as it is, with ``allow_nan=False``:
    a Fraction as its string, a non-finite float as ``"inf"``, ``"-inf"`` or
    ``"nan"`` (a finite one unchanged, so ``json`` writes its shortest exact
    repr), a tuple as a list and a GenMonomial as its coefficient and
    exponents.  The one normaliser of provenance steps and of
    ``RunReport.to_dict()``."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, GenMonomial):
        return {"coeff": _jsonable(obj.coeff), "exps": {v: str(e) for v, e in obj.exps}}
    return obj


class RhsSource(NamedTuple):
    """Python text of a chart field (:meth:`ChartField.rhs_source`)."""

    statements: tuple[str, ...]   # unindented lines, run first
    components: tuple[str, ...]   # one expression per state variable
    chain: str                    # expression of the time-chain product
    globals: dict                 # names the text reads besides the state


@dataclass(frozen=True)
class ChartField:
    """A vector field in a chart, with time-chain and provenance."""

    vars: tuple[str, ...]                 # state variables, in order
    components: tuple[GenPoly, ...]       # d(var)/d(sigma), over poly_vars
    time_chain: tuple[GenPoly, ...]       # product = dt/d(sigma), over poly_vars
    provenance: tuple[TransformStep, ...]
    radial: str | None = None
    positive: tuple[str, ...] = ()        # sign-masked (positive-only) variables
    quasipolar_index: int | None = None   # l for (Cs, Sn) symbols, if present
    angle: str | None = None
    inverse: tuple[tuple[str, GenMonomial], ...] = ()  # base var -> monomial over poly_vars

    def __post_init__(self):  # chart algebra can overflow a float coefficient
        for p in self.components + self.time_chain:
            if not all(abs(c) < math.inf for _, c in p.terms):
                raise ValueError(f"coefficient outside the float range in {format_genpoly(p)}")

    @property
    def poly_vars(self) -> tuple[str, ...]:
        """Variables the component polynomials range over (adds Cs/Sn symbols
        in quasi-polar charts, where the angle itself never appears)."""
        if self.quasipolar_index is None:
            return self.vars
        return tuple(v for v in self.vars if v != self.angle) + (CS, SN)

    @cached_property
    def jacobian(self) -> tuple[tuple[GenPoly, ...], ...]:
        """Entry (i, j) is d(component i)/d(state variable j) over ``poly_vars``,
        built once.  A quasi-polar angle column is -Sn dP/dCs + Cs^(2l-1) dP/dSn,
        exact by Cs' = -Sn and Sn' = Cs^(2l-1) (l = ``quasipolar_index``)."""
        def d(c, v):
            if v != self.angle:
                return c.partial(v)
            pv, l = self.poly_vars, self.quasipolar_index
            return (GenPoly.var(pv, SN, 1, -1) * c.partial(CS)
                    + GenPoly.var(pv, CS, 2 * l - 1) * c.partial(SN))

        return tuple(tuple(d(c, v) for v in self.vars) for c in self.components)

    # -- evaluation --------------------------------------------------------

    def poly_columns(self, states) -> list[list[float]]:
        """The columns of the 2-D array of chart ``states`` over ``poly_vars``,
        as Python floats: on a quasi-polar chart the angle column is replaced
        by the Cs and Sn columns of the chart's table."""
        cols = np.asarray(states, dtype=float).T.tolist()
        if self.quasipolar_index is not None:
            lookup = table(self.quasipolar_index).lookup
            cssn = [lookup(theta) for theta in cols.pop(self.vars.index(self.angle))]
            cols += [[c for c, _ in cssn], [s for _, s in cssn]]
        return cols

    def state_to_poly_point(self, state: Sequence[float]) -> list[float]:
        """The point the polynomials take at ``state``: a row of :meth:`poly_columns`."""
        return [col[0] for col in self.poly_columns([state])]

    def eval_components(self, state: Sequence[float]) -> list[float]:
        pt = self.state_to_poly_point(state)
        return [comp.eval(pt) for comp in self.components]

    def rhs_source(self, names: Sequence[str]) -> RhsSource:
        """The chart field as Python text over the state variable ``names``.

        The statements inline the Cs/Sn table lookup in quasi-polar charts and
        compute each distinct power once; the component and chain expressions
        read what they assign.  Besides ``names`` the text assigns and reads
        only names that start with an underscore.  Terms and powers are
        printed by :meth:`GenPoly.source`, so the values equal those of the
        per-polynomial :meth:`GenPoly.compile` functions bit for bit.
        """
        names = list(names)
        statements: list[str] = []
        ns = dict(SOURCE_GLOBALS)
        if self.quasipolar_index is None:
            poly_names = names
        else:
            tab = table(self.quasipolar_index)
            a = self.vars.index(self.angle)
            statements += tab.lookup_source(names[a], CS, SN)
            ns.update(tab.lookup_globals)
            poly_names = names[:a] + names[a + 1:] + [CS, SN]
        powers: dict[str, str] = {}

        def power(name, e):
            expr = power_source(name, e)
            if expr == name:
                return name
            if expr not in powers:
                powers[expr] = f"_p{len(powers)}"
                statements.append(f"{powers[expr]} = {expr}")
            return powers[expr]

        comps = tuple(c.source(poly_names, power) for c in self.components)
        chain = " * ".join(f"({c.source(poly_names, power)})" for c in self.time_chain)
        return RhsSource(tuple(statements), comps, chain or "1.0", ns)

    def compile_rhs(self):
        """Callable state -> (component values, chain product).

        One exec-compiled function of the :meth:`rhs_source` text.
        :func:`horizon.dynamics.integrate` evaluates the initial point with
        it; the integration loop inlines the same text in every stage.  A
        power that overflows or is ``0**(-n)`` raises ``OverflowError`` or
        ``ZeroDivisionError``.
        """
        names = [f"x{i}" for i in range(len(self.vars))]
        src = self.rhs_source(names)
        body = [f"{', '.join(names)}, = state", *src.statements,
                f"return ({''.join(c + ', ' for c in src.components)}), {src.chain}"]
        text = "def rhs(state):\n" + "".join(f"    {line}\n" for line in body)
        exec(compile(text, f"<chart rhs {','.join(self.vars)}>", "exec"), src.globals)
        return src.globals["rhs"]

    def to_dict(self):
        return {
            "vars": list(self.vars),
            "components": [format_genpoly(c) for c in self.components],
            "time_chain": [format_genpoly(c) for c in self.time_chain],
            "radial": self.radial,
            "positive": list(self.positive),
            "quasipolar_index": self.quasipolar_index,
            "angle": self.angle,
            "provenance": [s.to_dict() for s in self.provenance],
        }


def base_field(
    vars: Sequence[str],
    components: Sequence[GenPoly],
    *,
    positive: Sequence[str] = (),
    prefactor: GenPoly | None = None,
    name: str = "base",
) -> ChartField:
    """Wrap a base system as the trivial chart (time chain = 1 or the
    positive prefactor by which the stored field was multiplied)."""
    vars = tuple(vars)
    comps = tuple(c.with_vars(vars) for c in components)
    chain: tuple[GenPoly, ...] = ()
    if prefactor is not None:
        chain = (prefactor.with_vars(vars),)
    step = TransformStep(
        "base",
        {
            "name": name,
            "vars": list(vars),
            "components": [format_genpoly(c) for c in comps],
            "prefactor": format_genpoly(prefactor) if prefactor is not None else None,
            "positive": list(positive),
        },
    )
    inverse = tuple((v, GenMonomial.make(1, {v: 1})) for v in vars)
    return ChartField(
        vars=vars,
        components=comps,
        time_chain=chain,
        provenance=(step,),
        positive=tuple(positive),
        inverse=inverse,
    )


# -- generic monomial coordinate change --------------------------------------


def _fraction_matrix_inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(M)
    A = [row[:] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] != 0), None)
        if piv is None:
            raise ValueError("monomial exponent matrix is singular")
        A[col], A[piv] = A[piv], A[col]
        pval = A[col][col]
        A[col] = [x / pval for x in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def monomial_chart(
    C: ChartField,
    assignments: Mapping[str, GenMonomial],
    new_vars: Sequence[str],
    *,
    radial: str | None = None,
    positive: Sequence[str] = (),
) -> ChartField:
    """Push the field through an invertible monomial map old = m(new).

    Each old variable must be assigned a monomial with coefficient +-1 in the
    new variables (a GenMonomial or its recorded form).  Uses
    d(log old_i) = sum_j E_ij d(log new_j), so
    new_j' = new_j * sum_i (E^-1)_ji * old_i' / old_i, evaluated exactly.
    """
    if C.quasipolar_index is not None:
        raise ValueError("cannot re-chart a quasi-polar chart")
    assignments = {v: _monomial(m) for v, m in assignments.items()}
    new_vars = tuple(new_vars)
    old_vars = C.vars
    n = len(old_vars)
    if len(new_vars) != n:
        raise ValueError("monomial chart must preserve dimension")
    E: list[list[Fraction]] = []
    signs: list[int] = []
    for v in old_vars:
        m = assignments[v]
        if m.coeff not in (1, -1):
            raise ValueError("monomial chart coefficients must be +-1")
        signs.append(int(m.coeff))
        row = [Fraction(0)] * n
        for nv, e in m.exps:
            row[new_vars.index(nv)] = e
        E.append(row)
    Einv = _fraction_matrix_inverse(E)

    # old component fields pushed into new coordinates, divided by old_i(new)
    pushed_over_old = []
    for i, (v, comp) in enumerate(zip(old_vars, C.components)):
        sub = comp.substitute_power(assignments, new_vars)
        inv_m = GenMonomial(signs[i], tuple((nv, -e) for nv, e in assignments[v].exps))
        pushed_over_old.append(sub * GenPoly.monomial(new_vars, inv_m))

    new_components = []
    for j, nv in enumerate(new_vars):
        acc = GenPoly.zero(new_vars)
        for i in range(n):
            coef = Einv[j][i]
            if coef != 0:
                acc = acc + pushed_over_old[i] * coef
        new_components.append(acc * GenPoly.var(new_vars, nv))

    chain = tuple(f.substitute_power(assignments, new_vars) for f in C.time_chain)
    step = TransformStep(
        "monomial_chart",
        {
            "assignments": {v: _jsonable(m) for v, m in assignments.items()},
            "new_vars": list(new_vars),
            "radial": radial,
            "positive": list(positive),
        },
    )
    return ChartField(
        vars=new_vars,
        components=tuple(new_components),
        time_chain=chain,
        provenance=C.provenance + (step,),
        radial=radial,
        positive=tuple(positive),
        inverse=_compose_inverse(C, assignments, new_vars),
    )


def _compose_inverse(C, sub, new_vars):
    """``C.inverse`` with each chart variable replaced by its monomial in
    ``new_vars`` (``sub``): base variable -> monomial in ``new_vars``."""
    inverse = []
    for bv, mono in C.inverse:
        composed = GenPoly.monomial(C.vars, mono).substitute_power(sub, new_vars)
        [(ev, c)] = composed.terms if composed.terms else [((Fraction(0),) * len(new_vars), 0)]
        inverse.append((bv, GenMonomial.make(c, dict(zip(new_vars, ev)))))
    return tuple(inverse)


def _monomial(m) -> GenMonomial:
    """``m``, or the GenMonomial its recorded form ``{"coeff", "exps"}`` names."""
    if isinstance(m, GenMonomial):
        return m
    c = m["coeff"]
    return GenMonomial.make(frac(c) if isinstance(c, str) else c, m["exps"])


def _relabel(C: ChartField, op: str, params: dict) -> ChartField:
    """``C`` with its last provenance step recorded as ``op`` with ``params``."""
    return replace(C, provenance=C.provenance[:-1] + (TransformStep(op, params),))


def directional_compactify(
    C: ChartField,
    t: TypeVector,
    index: int | str,
    sign: int = 1,
    *,
    radial: str = "r",
) -> ChartField:
    """Directional compactification in direction ``index``: y_i = sign * r^-a_i,
    y_j = x_j * r^-a_j.  This is the weighted chart of a blow-up with the
    negated type as weights, keeping the variable names.  The result is the
    pushed-forward field BEFORE any time rescaling; the inverse map is
    recorded.  The field must be certified of type ``t``
    (:func:`certify_type`), else ResidualSingularityError."""
    certify_type(C.components, t)
    vars = C.vars
    if isinstance(index, str):
        index = vars.index(index)
    if t.alpha[index] == 0:
        raise ValueError(f"direction {vars[index]!r} has type entry 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    return _relabel(
        _weighted_chart(C, [-a for a in t.alpha], index, sign, radial, ""),
        "directional",
        {
            "alpha": [str(a) for a in t.alpha],
            "k": str(t.k),
            "index": vars[index],
            "sign": sign,
            "radial": radial,
        },
    )


def _weighted_chart(C, weights, i, sign, radial, suffix):
    """The chart x_i = sign * r^w_i, x_j = r^w_j * x_j<suffix> (j != i) with
    radial variable r: a weighted blow-up, or with negative weights a
    directional compactification."""
    vars = C.vars
    new_vars = (radial,) + tuple(v + suffix for j, v in enumerate(vars) if j != i)
    assignments = {}
    for j, v in enumerate(vars):
        if j == i:
            assignments[v] = GenMonomial.make(sign, {radial: weights[j]})
        else:
            assignments[v] = GenMonomial.make(1, {v + suffix: 1, radial: weights[j]})
    return monomial_chart(
        C,
        assignments,
        new_vars,
        radial=radial,
        positive=(radial,) + tuple(v for v in C.positive if v in new_vars),
    )


def desingularize(C: ChartField, k) -> ChartField:
    """Multiply the field by r^k (time rescale dtau/dt = r^-k).

    Fails with ResidualSingularityError if any component keeps a negative
    power of the radial variable, i.e. the field does not extend to {r = 0}.
    """
    if C.radial is None:
        raise ValueError("chart has no radial variable")
    k = frac(k)
    out = time_rescale(C, GenMonomial.make(1, {C.radial: k}))
    for v, comp in zip(out.vars, out.components):
        e = comp.min_exponent(out.radial)
        if e is not None and e < 0:
            raise ResidualSingularityError(
                f"component {v!r} keeps {out.radial}^{e} after multiplying by "
                f"{out.radial}^{k}; the field is not asymptotically "
                "quasi-homogeneous for this type"
            )
    return _relabel(out, "desingularize", {"k": str(k)})


def time_rescale(C: ChartField, monomial: GenMonomial | dict) -> ChartField:
    """Orbital-equivalence rescale: monomial = d(old time)/d(new time).

    Components are multiplied by the monomial (a GenMonomial or its recorded
    form) and it joins the time chain.  It is certified positive by a
    positive coefficient and every variable in it sign-masked positive (in
    ``C.positive``: declared positive, or a radial variable), so it neither
    vanishes nor changes sign; Cs/Sn never qualify.  Otherwise SignError.
    """
    monomial = _monomial(monomial)
    fpoly = GenPoly.monomial(C.poly_vars, monomial)
    if not monomial.coeff > 0:
        raise SignError(f"time factor {format_genpoly(fpoly)} is not positive: "
                        f"coefficient {monomial.coeff}")
    for v, e in monomial.exps:
        if v not in C.positive:
            raise SignError(f"time factor {format_genpoly(fpoly)} is not positive: "
                            f"{v} has exponent {e} and is not declared positive")
    step = TransformStep("time_rescale", {"monomial": _jsonable(monomial)})
    return replace(
        C,
        components=tuple(c * fpoly for c in C.components),
        time_chain=C.time_chain + (fpoly,),
        provenance=C.provenance + (step,),
    )


# -- quasi-polar --------------------------------------------------------------


def quasi_polar_compactify(
    C: ChartField,
    m: int,
    k,
    *,
    radial: str = "r",
    angle: str = "theta",
) -> ChartField:
    """Quasi-polar compactification of a planar type-(1,m) field.

    y1 = Cs(theta)/r, y2 = Sn(theta)/r^m with the (1,m) quasi-trig pair.
    The field must be certified of type (1, m) with order parameter k
    (:func:`certify_type`), else ResidualSingularityError.  The returned
    chart is already desingularized (multiplied by r^k, time chain gains
    r^k) and its components are polynomials in (r, Cs, Sn) reduced by
    Cs^(2m) -> 1 - m*Sn^2.  Its inverse is recorded over the same
    polynomial variables (y1 = Cs r^-1, y2 = Sn r^-m).  An ``m`` below 1,
    for which the reduction has no fixpoint, raises ValueError.
    """
    if len(C.vars) != 2:
        raise ValueError("quasi-polar compactification needs a planar field")
    m = int(m)
    if m < 1:
        raise ValueError(f"quasi-polar compactification needs m >= 1, not m = {m}")
    k = frac(k)
    certify_type(C.components, TypeVector.make((1, m), k))
    pv = (radial, CS, SN)
    sub = {
        C.vars[0]: GenMonomial.make(1, {CS: 1, radial: -1}),
        C.vars[1]: GenMonomial.make(1, {SN: 1, radial: -m}),
    }
    F1 = C.components[0].substitute_power(sub, pv)
    F2 = C.components[1].substitute_power(sub, pv)
    def power(v, e=1):
        return GenPoly.var(pv, v, e)

    # dr = -(Cs^(2m-1) r^2 F1 + Sn r^(m+1) F2),  dtheta = -m Sn r F1 + Cs r^m F2
    dr = -(F1 * power(radial, 2) * power(CS, 2 * m - 1) + F2 * power(radial, m + 1) * power(SN))
    dth = F2 * power(radial, m) * power(CS) - m * F1 * power(radial) * power(SN)
    rk = power(radial, k)
    dr = _quasitrig_reduce(dr * rk, m)
    dth = _quasitrig_reduce(dth * rk, m)
    chain = tuple(
        _quasitrig_reduce(f.substitute_power(sub, pv), m) for f in C.time_chain
    ) + (rk,)
    step = TransformStep(
        "quasi_polar", {"m": m, "k": str(k), "radial": radial, "angle": angle}
    )
    return ChartField(
        vars=(radial, angle),
        components=(dr, dth),
        time_chain=chain,
        provenance=C.provenance + (step,),
        radial=radial,
        positive=(radial,),
        quasipolar_index=m,
        angle=angle,
        inverse=_compose_inverse(C, sub, pv),
    )


def _quasitrig_reduce(p: GenPoly, m: int) -> GenPoly:
    """Rewrite Cs^(2m) -> 1 - m*Sn^2 to a fixpoint (Cs degree < 2m)."""
    vars = p.vars
    ci = vars.index(CS)
    si = vars.index(SN)
    rule_terms = {  # 1 - m*Sn^2 as exponent-shift patterns
        (0, 0): 1,
        (0, 2): -m,
    }
    changed = True
    cur = dict(p.terms)
    while changed:
        changed = False
        nxt: dict = {}
        for ev, c in cur.items():
            e = ev[ci]
            if e.denominator != 1:
                raise ClosureError(f"fractional Cs power {e}")
            if e >= 2 * m:
                changed = True
                for (dc, ds), rc in rule_terms.items():
                    nev = list(ev)
                    nev[ci] = e - 2 * m + dc
                    nev[si] = ev[si] + ds
                    key = tuple(nev)
                    nxt[key] = nxt.get(key, 0) + c * rc
            else:
                nxt[ev] = nxt.get(ev, 0) + c
        cur = {ev: c for ev, c in nxt.items() if c != 0}
    out = GenPoly(vars, cur)
    for ev, _ in out.terms:
        if ev[si].denominator != 1 or ev[si] < 0 or ev[ci] < 0:
            raise ClosureError("could not reduce to a polynomial in (r, Cs, Sn)")
    return out


# -- blow-up charts -----------------------------------------------------------


def blowup_chart(
    C: ChartField,
    weights: tuple[int, int],
    chart_var: int | str,
    sign: int = 1,
    *,
    radial: str = "r",
) -> ChartField:
    """Weighted blow-up of a degenerate equilibrium at the chart origin.

    With weights (w1, w2), the chart fixing variable i replaces
    x_i = sign * r^w_i and x_j = r^w_j * xbar_j.  The pushed-forward field is
    returned unrescaled; follow with time_rescale to remove the common power
    of r.
    """
    vars = C.vars
    if isinstance(chart_var, str):
        chart_var = vars.index(chart_var)
    return _relabel(
        _weighted_chart(C, weights, chart_var, sign, radial, "_b"),
        "blowup",
        {
            "weights": [str(frac(w)) for w in weights],
            "chart_var": vars[chart_var],
            "sign": sign,
            "radial": radial,
        },
    )


def restrict_invariant(C: ChartField, var: str, value) -> ChartField:
    """Restrict to the invariant slice {var = value}.

    The sliced component must vanish identically on the slice (exact check);
    otherwise the slice is not invariant and ValueError is raised.  A float
    ``value`` is kept as it is, any other (as recorded, ``"1/2"``) is exact.
    """
    if not isinstance(value, float):
        value = frac(value)
    i = C.vars.index(var)
    on_slice = C.components[i].substitute_value(var, value)
    if not on_slice.is_zero():
        raise ValueError(
            f"{{{var} = {value}}} is not invariant: component reduces to "
            f"{format_genpoly(on_slice)}"
        )
    new_vars = C.vars[:i] + C.vars[i + 1 :]
    comps = tuple(
        c.substitute_value(var, value) for j, c in enumerate(C.components) if j != i
    )
    chain = tuple(f.substitute_value(var, value) for f in C.time_chain)
    inverse = tuple(
        (bv, m) for bv, m in C.inverse if all(v != var or e == 0 for v, e in m.exps)
    )
    step = TransformStep("restrict", {"var": var, "value": _jsonable(value)})
    return ChartField(
        vars=new_vars,
        components=comps,
        time_chain=chain,
        provenance=C.provenance + (step,),
        radial=C.radial if C.radial != var else None,
        positive=tuple(v for v in C.positive if v != var),
        inverse=inverse,
    )


# -- horizon and inversion ----------------------------------------------------


def horizon_slice(C: ChartField) -> tuple[tuple[str, ...], tuple[GenPoly, ...]]:
    """The field restricted to {r = 0} in the non-radial variables.

    The radial component must vanish identically there (horizon invariance);
    negative radial powers are a ResidualSingularityError.
    """
    r = C.radial
    if r is None:
        raise ValueError("chart has no radial variable")
    ri = C.poly_vars.index(r)
    rstate = C.vars.index(r)
    sliced = []
    for j, comp in enumerate(C.components):
        e = comp.min_exponent(r)
        if e is not None and e < 0:
            raise ResidualSingularityError(f"component {C.vars[j]} singular at {r}=0")
        kept = {
            ev[:ri] + ev[ri + 1 :]: c for ev, c in comp.terms if ev[ri] == 0
        }
        rest_vars = C.poly_vars[:ri] + C.poly_vars[ri + 1 :]
        sliced.append(GenPoly(rest_vars, kept))
    if not sliced[rstate].is_zero():
        raise ResidualSingularityError(
            "radial component does not vanish on the horizon"
        )
    slice_vars = tuple(v for v in C.vars if v != r)
    return slice_vars, tuple(p for j, p in enumerate(sliced) if j != rstate)


# -- recipe replay ------------------------------------------------------------


def _replay_base(_, name, vars, components, prefactor, positive):
    """A base step starts a new chart: its field parsed from the recorded text."""
    return base_field(
        vars,
        [parse_genpoly(c, vars) for c in components],
        positive=positive,
        prefactor=parse_genpoly(prefactor, vars) if prefactor else None,
        name=name,
    )


def _replay_directional(C, alpha, k, index, sign, radial):
    """A directional step: its type recorded as ``alpha`` and ``k``."""
    t = TypeVector.make([frac(a) for a in alpha], frac(k))
    return directional_compactify(C, t, index, sign, radial=radial)


# op -> the transform that records it, called with the step's params
_REPLAY = {
    "base": _replay_base,
    "monomial_chart": monomial_chart,
    "directional": _replay_directional,
    "desingularize": desingularize,
    "time_rescale": time_rescale,
    "quasi_polar": quasi_polar_compactify,
    "blowup": blowup_chart,
    "restrict": restrict_invariant,
}


def apply_recipe(C: ChartField | None, steps: Sequence[TransformStep | dict]) -> ChartField:
    """Replay provenance steps (TransformSteps or their ``to_dict`` form)
    onto ``C``: each step calls the transform that recorded it with the
    step's params as keywords.  A ``base`` step starts a new chart, so
    ``apply_recipe(None, chart.to_dict()["provenance"])`` rebuilds a chart.
    An unknown op, or params its transform does not take, is a ValueError
    naming the op, raised before the transform runs."""
    for s in steps:
        op, params = (s.op, s.params) if isinstance(s, TransformStep) else (s["op"], s["params"])
        if op not in _REPLAY:
            raise ValueError(f"unknown transform op {op!r}")
        transform = _REPLAY[op]
        try:
            inspect.signature(transform).bind(C, **params)
        except TypeError as exc:
            raise ValueError(f"transform op {op!r}: {exc}") from None
        C = transform(C, **params)
    return C
