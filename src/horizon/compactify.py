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
* exact inversion back to base coordinates

Sign conventions: a time rescale with factor phi means d(old time)/d(new
time) = phi, so components are multiplied by phi and phi joins the chain.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import (
    ClosureError,
    DomainError,
    ResidualSingularityError,
    SignError,
)
from .genpoly import (
    SOURCE_GLOBALS,
    GenMonomial,
    GenPoly,
    format_genpoly,
    frac,
    power_source,
)
from .quasitrig import cssn, table
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
    "inverse_transform",
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
    inverse: tuple[tuple[str, GenMonomial], ...] = ()  # base var -> monomial in chart vars

    @property
    def poly_vars(self) -> tuple[str, ...]:
        """Variables the component polynomials range over (adds Cs/Sn symbols
        in quasi-polar charts, where the angle itself never appears)."""
        if self.quasipolar_index is None:
            return self.vars
        return tuple(v for v in self.vars if v != self.angle) + (CS, SN)

    # -- evaluation --------------------------------------------------------

    def state_to_poly_point(self, state: Sequence[float]) -> list[float]:
        if self.quasipolar_index is None:
            return list(state)
        out = []
        theta = None
        for v, x in zip(self.vars, state):
            if v == self.angle:
                theta = x
            else:
                out.append(x)
        c, s = cssn(theta, self.quasipolar_index)
        return out + [c, s]

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
    op: str = "monomial_chart",
    params: dict | None = None,
) -> ChartField:
    """Push the field through an invertible monomial map old = m(new).

    Each old variable must be assigned a monomial with coefficient +-1 in the
    new variables.  Uses d(log old_i) = sum_j E_ij d(log new_j), so
    new_j' = new_j * sum_i (E^-1)_ji * old_i' / old_i, evaluated exactly.
    """
    if C.quasipolar_index is not None:
        raise ValueError("cannot re-chart a quasi-polar chart")
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
        pushed_over_old.append(sub.mul_monomial(inv_m))

    new_components = []
    for j, nv in enumerate(new_vars):
        acc = GenPoly.zero(new_vars)
        for i in range(n):
            coef = Einv[j][i]
            if coef != 0:
                acc = acc + pushed_over_old[i] * coef
        new_components.append(acc.mul_monomial(GenMonomial.make(1, {nv: 1})))

    chain = tuple(f.substitute_power(assignments, new_vars) for f in C.time_chain)
    inverse = []
    for bv, mono in C.inverse:
        composed = GenPoly.monomial(old_vars, mono).substitute_power(assignments, new_vars)
        [(ev, c)] = composed.terms if composed.terms else [((Fraction(0),) * n, 0)]
        inverse.append(
            (bv, GenMonomial.make(c, dict(zip(new_vars, ev))))
        )
    step = TransformStep(
        op,
        params
        or {
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
        inverse=tuple(inverse),
    )


def directional_compactify(
    C: ChartField,
    t: TypeVector,
    i: int | str,
    sign: int = 1,
    *,
    radial_name: str = "r",
) -> ChartField:
    """Directional compactification in direction i: y_i = sign * r^-a_i,
    y_j = x_j * r^-a_j.  This is the weighted chart of a blow-up with the
    negated type as weights, keeping the variable names.  The result is the
    pushed-forward field BEFORE any time rescaling; the inverse map is
    recorded.  The field must be certified of type ``t``
    (:func:`certify_type`), else ResidualSingularityError."""
    certify_type(C.components, t)
    vars = C.vars
    if isinstance(i, str):
        i = vars.index(i)
    if t.alpha[i] == 0:
        raise ValueError(f"direction {vars[i]!r} has type entry 0")
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    return _weighted_chart(
        C, [-a for a in t.alpha], i, sign, radial_name, "",
        "directional",
        {
            "alpha": [str(a) for a in t.alpha],
            "k": str(t.k),
            "index": vars[i],
            "sign": sign,
            "radial": radial_name,
        },
    )


def _weighted_chart(C, weights, i, sign, radial_name, suffix, op, params):
    """The chart x_i = sign * r^w_i, x_j = r^w_j * x_j<suffix> (j != i) with
    radial variable r: a weighted blow-up, or with negative weights a
    directional compactification."""
    vars = C.vars
    new_vars = (radial_name,) + tuple(v + suffix for j, v in enumerate(vars) if j != i)
    assignments = {}
    for j, v in enumerate(vars):
        if j == i:
            assignments[v] = GenMonomial.make(sign, {radial_name: weights[j]})
        else:
            assignments[v] = GenMonomial.make(1, {v + suffix: 1, radial_name: weights[j]})
    return monomial_chart(
        C,
        assignments,
        new_vars,
        radial=radial_name,
        positive=(radial_name,) + tuple(v for v in C.positive if v in new_vars),
        op=op,
        params=params,
    )


def desingularize(C: ChartField, k) -> ChartField:
    """Multiply the field by r^k (time rescale dtau/dt = r^-k).

    Fails with ResidualSingularityError if any component keeps a negative
    power of the radial variable, i.e. the field does not extend to {r = 0}.
    """
    if C.radial is None:
        raise ValueError("chart has no radial variable")
    k = frac(k)
    out = time_rescale(
        C,
        GenMonomial.make(1, {C.radial: k}),
        op="desingularize",
        params={"k": str(k)},
    )
    for v, comp in zip(out.vars, out.components):
        e = comp.min_exponent(out.radial)
        if e is not None and e < 0:
            raise ResidualSingularityError(
                f"component {v!r} keeps {out.radial}^{e} after multiplying by "
                f"{out.radial}^{k}; the field is not asymptotically "
                "quasi-homogeneous for this type"
            )
    return out


def time_rescale(
    C: ChartField,
    factor: GenMonomial,
    *,
    op: str = "time_rescale",
    params: dict | None = None,
) -> ChartField:
    """Orbital-equivalence rescale: factor = d(old time)/d(new time).

    Components are multiplied by the monomial factor and the factor joins
    the time chain.  It is certified positive by a positive coefficient and
    every variable in it sign-masked positive (in ``C.positive``: declared
    positive, or a radial variable), so it neither vanishes nor changes
    sign; Cs/Sn never qualify.  Otherwise SignError.
    """
    fpoly = GenPoly.monomial(C.poly_vars, factor)
    if not factor.coeff > 0:
        raise SignError(f"time factor {format_genpoly(fpoly)} is not positive: "
                        f"coefficient {factor.coeff}")
    for v, e in factor.exps:
        if v not in C.positive:
            raise SignError(f"time factor {format_genpoly(fpoly)} is not positive: "
                            f"{v} has exponent {e} and is not declared positive")
    step = TransformStep(op, params or {"monomial": _jsonable(factor)})
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
    radial_name: str = "r",
    angle_name: str = "theta",
) -> ChartField:
    """Quasi-polar compactification of a planar type-(1,m) field.

    y1 = Cs(theta)/r, y2 = Sn(theta)/r^m with the (1,m) quasi-trig pair.
    The field must be certified of type (1, m) with order parameter k
    (:func:`certify_type`), else ResidualSingularityError.  The returned
    chart is already desingularized (multiplied by r^k, time chain gains
    r^k) and its components are polynomials in (r, Cs, Sn) reduced by
    Cs^(2m) -> 1 - m*Sn^2.
    """
    if len(C.vars) != 2:
        raise ValueError("quasi-polar compactification needs a planar field")
    m = int(m)
    k = frac(k)
    certify_type(C.components, TypeVector.make((1, m), k))
    pv = (radial_name, CS, SN)
    sub = {
        C.vars[0]: GenMonomial.make(1, {CS: 1, radial_name: -1}),
        C.vars[1]: GenMonomial.make(1, {SN: 1, radial_name: -m}),
    }
    F1 = C.components[0].substitute_power(sub, pv)
    F2 = C.components[1].substitute_power(sub, pv)
    r2 = GenMonomial.make(1, {radial_name: 2})
    rm1 = GenMonomial.make(1, {radial_name: m + 1})
    r1 = GenMonomial.make(1, {radial_name: 1})
    rm = GenMonomial.make(1, {radial_name: m})
    cs_pow = GenMonomial.make(1, {CS: 2 * m - 1})
    sn1 = GenMonomial.make(1, {SN: 1})
    cs1 = GenMonomial.make(1, {CS: 1})
    # dr = -(Cs^(2m-1) r^2 F1 + Sn r^(m+1) F2),  dtheta = -m Sn r F1 + Cs r^m F2
    dr = -(F1.mul_monomial(r2).mul_monomial(cs_pow) + F2.mul_monomial(rm1).mul_monomial(sn1))
    dth = F2.mul_monomial(rm).mul_monomial(cs1) - m * F1.mul_monomial(r1).mul_monomial(sn1)
    rk = GenMonomial.make(1, {radial_name: k})
    dr = _quasitrig_reduce(dr.mul_monomial(rk), m)
    dth = _quasitrig_reduce(dth.mul_monomial(rk), m)
    chain = tuple(
        _quasitrig_reduce(f.substitute_power(sub, pv), m) for f in C.time_chain
    ) + (GenPoly.monomial(pv, rk),)
    step = TransformStep(
        "quasi_polar", {"m": m, "k": str(k), "radial": radial_name, "angle": angle_name}
    )
    return ChartField(
        vars=(radial_name, angle_name),
        components=(dr, dth),
        time_chain=chain,
        provenance=C.provenance + (step,),
        radial=radial_name,
        positive=(radial_name,),
        quasipolar_index=m,
        angle=angle_name,
        inverse=(),  # inversion handled specially (needs Cs/Sn evaluation)
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
    radial_name: str = "r",
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
    return _weighted_chart(
        C, weights, chart_var, sign, radial_name, "_b",
        "blowup",
        {
            "weights": [str(frac(w)) for w in weights],
            "chart_var": vars[chart_var],
            "sign": sign,
            "radial": radial_name,
        },
    )


def restrict_invariant(C: ChartField, var: str, value) -> ChartField:
    """Restrict to the invariant slice {var = value}.

    The sliced component must vanish identically on the slice (exact check);
    otherwise the slice is not invariant and ValueError is raised.
    """
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
    step = TransformStep("restrict", {"var": var, "value": _jsonable(frac(value) if not isinstance(value, float) else value)})
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


def horizon_is_invariant_syntactically(C: ChartField) -> bool:
    """Every term of the radial component carries a positive radial power."""
    r = C.radial
    comp = C.components[C.vars.index(r)]
    e = comp.min_exponent(r)
    return e is None or e >= 1


def inverse_transform(C: ChartField, state: Sequence[float]) -> dict[str, float]:
    """Map a chart point back to base coordinates (exact monomial inverse)."""
    if C.quasipolar_index is not None:
        return _quasipolar_inverse(C, state)
    out = {}
    for bv, m in C.inverse:
        val = float(m.coeff)
        for v, e in m.exps:
            x = state[C.vars.index(v)]
            if x == 0.0 and e < 0:
                raise DomainError(f"inverse transform undefined at {v} = 0")
            if x < 0.0 and e.denominator != 1:
                raise DomainError(f"inverse transform undefined at {v} < 0")
            val *= float(x) ** float(e)
        out[bv] = val
    return out


def _quasipolar_inverse(C: ChartField, state):
    step = next(s for s in C.provenance if s.op == "quasi_polar")
    m = step.params["m"]
    r = state[C.vars.index(C.radial)]
    theta = state[C.vars.index(C.angle)]
    if r == 0.0:
        raise DomainError("inverse transform undefined on the horizon")
    c, s = cssn(theta, m)
    base_step = C.provenance[0]
    y1, y2 = base_step.params["vars"]
    return {y1: c / r, y2: s / r**m}


def forward_point(C: ChartField, base_point: Mapping[str, float]) -> list[float]:
    """Map a base point into the chart (numeric inverse of inverse_transform,
    valid for monomial chains)."""
    if C.quasipolar_index is not None:
        raise ValueError("forward mapping into quasi-polar charts is not monomial")
    import math

    # Solve the monomial system log|base| = E log|chart| for log|chart|.
    names = list(C.vars)
    n = len(names)
    rows, rhs, signs = [], [], {}
    for bv, m in C.inverse:
        row = [0.0] * n
        for v, e in m.exps:
            row[names.index(v)] = float(e)
        rows.append(row)
        val = base_point[bv] / float(m.coeff)
        rhs.append(math.log(abs(val)))
        signs[bv] = 1.0 if val > 0 else -1.0
    sol = np.linalg.solve(np.array(rows), np.array(rhs))
    state = [math.exp(s) for s in sol]
    # signs: positive-sector charts only; reject genuine sign mismatches
    chk = inverse_transform(C, state)
    for bv, target in base_point.items():
        if bv not in chk:
            continue  # variable eliminated by a restriction step
        if abs(chk[bv] - target) > 1e-9 * max(1.0, abs(target)):
            raise DomainError(
                f"base point {dict(base_point)} is outside this chart's sector"
            )
    return state


# -- recipe replay ------------------------------------------------------------


def apply_recipe(C: ChartField, steps: Sequence[TransformStep | dict]) -> ChartField:
    """Replay a provenance list (minus the base step) onto a base chart."""
    out = C
    for s in steps:
        if isinstance(s, TransformStep):
            op, params = s.op, s.params
        else:
            op, params = s["op"], s["params"]
        if op == "base":
            continue
        elif op == "monomial_chart":
            assignments = {
                v: GenMonomial.make(
                    _coeff_from_json(m["coeff"]),
                    {nv: frac(e) for nv, e in m["exps"].items()},
                )
                for v, m in params["assignments"].items()
            }
            out = monomial_chart(
                out, assignments, tuple(params["new_vars"]),
                radial=params.get("radial"),
                positive=tuple(params.get("positive", ())),
            )
        elif op == "directional":
            t = TypeVector.make([frac(a) for a in params["alpha"]], frac(params["k"]))
            out = directional_compactify(
                out, t, params["index"], params["sign"], radial_name=params["radial"]
            )
        elif op == "desingularize":
            out = desingularize(out, frac(params["k"]))
        elif op == "time_rescale":
            m = params["monomial"]
            mono = GenMonomial.make(
                _coeff_from_json(m["coeff"]), {v: frac(e) for v, e in m["exps"].items()}
            )
            out = time_rescale(out, mono)
        elif op == "quasi_polar":
            out = quasi_polar_compactify(
                out,
                int(params["m"]),
                frac(params["k"]),
                radial_name=params["radial"],
                angle_name=params["angle"],
            )
        elif op == "blowup":
            out = blowup_chart(
                out,
                tuple(frac(w) for w in params["weights"]),
                params["chart_var"],
                int(params["sign"]),
                radial_name=params.get("radial", "r"),
            )
        elif op == "restrict":
            v = params["value"]
            out = restrict_invariant(out, params["var"], frac(v) if isinstance(v, str) else v)
        else:
            raise ValueError(f"unknown transform op {op!r}")
    return out


def _coeff_from_json(c):
    if isinstance(c, str):
        return frac(c)
    return c
