"""Exact algebra for generalized polynomials.

A generalized polynomial is a finite sum of monomials ``c * prod(v_i^e_i)``
whose coefficients are real (int, Fraction, or float) and whose exponents are
exact rationals, possibly negative or fractional.  This is enough to express
every vector field handled by the pipeline, including inverse powers like
``u0^-2`` and fractional powers like ``v^(3/2)``.

Exponents are never floats: scaling identities, Newton-polyhedron vertices and
order-by-order series solving all require exact exponent arithmetic.
Coefficients stay exact (int/Fraction) as long as the inputs are exact; float
coefficients are carried through unchanged.

Terms are kept in a canonical order (sorted by exponent vector), zero
coefficients are dropped eagerly, and values are immutable, so equality is
term-set equality and instances are safely shareable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import CodeType, FunctionType
from typing import Callable, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import DomainError, ParseError

Coeff = Union[int, float, Fraction]
ExponentVec = tuple[Fraction, ...]

__all__ = [
    "GenMonomial",
    "GenPoly",
    "batch_function",
    "function_of",
    "frac",
    "parse_genpoly",
    "format_genpoly",
    "rows_function",
]


def frac(value) -> Fraction:
    """Coerce to an exact Fraction (ints, strings like '3/2', Fractions)."""
    if isinstance(value, float):
        raise TypeError("exponents must be exact rationals, not floats")
    return Fraction(value)


@dataclass(frozen=True)
class GenMonomial:
    """A single monomial: coefficient times a power product of named variables."""

    coeff: Coeff
    exps: tuple[tuple[str, Fraction], ...]  # (variable, exponent), exponent != 0

    @staticmethod
    def make(coeff: Coeff, exps: Mapping[str, object] | None = None) -> "GenMonomial":
        items = tuple(sorted((v, frac(e)) for v, e in (exps or {}).items() if frac(e) != 0))
        return GenMonomial(coeff, items)


class GenPoly:
    """Immutable generalized polynomial over an ordered tuple of variables."""

    # _eval: the :meth:`compile` function that :meth:`eval` runs, set on first use
    __slots__ = ("vars", "terms", "_eval")

    def __init__(self, vars: Sequence[str], terms: Mapping[ExponentVec, Coeff] | Iterable):
        object.__setattr__(self, "vars", tuple(vars))
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        cleaned = {}
        n = len(self.vars)
        for exps, c in items:
            ev = tuple(frac(e) for e in exps)
            if len(ev) != n:
                raise ValueError(f"exponent vector {ev} does not match variables {self.vars}")
            if c == 0:
                continue
            if ev in cleaned:
                c = cleaned[ev] + c
                if c == 0:
                    del cleaned[ev]
                    continue
            cleaned[ev] = c
        object.__setattr__(self, "terms", tuple(sorted(cleaned.items(), key=lambda t: t[0])))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> "GenPoly":
        return GenPoly(vars, {})

    @staticmethod
    def const(vars: Sequence[str], c: Coeff) -> "GenPoly":
        return GenPoly(vars, {(Fraction(0),) * len(vars): c})

    @staticmethod
    def var(vars: Sequence[str], name: str, power=1, coeff: Coeff = 1) -> "GenPoly":
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"unknown variable {name!r}")
        ev = [Fraction(0)] * len(vars)
        ev[vars.index(name)] = frac(power)
        return GenPoly(vars, {tuple(ev): coeff})

    @staticmethod
    def monomial(vars: Sequence[str], m: GenMonomial) -> "GenPoly":
        vars = tuple(vars)
        ev = [Fraction(0)] * len(vars)
        for v, e in m.exps:
            if v not in vars:
                raise ValueError(f"unknown variable {v!r}")
            ev[vars.index(v)] = e
        return GenPoly(vars, {tuple(ev): m.coeff})

    # -- basic protocol ----------------------------------------------------

    def __setattr__(self, *a):  # immutability
        raise AttributeError("GenPoly is immutable")

    def __reduce__(self):  # pickle through the constructor, which sets the slots
        return GenPoly, (self.vars, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GenPoly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.vars, self.terms))

    def __repr__(self):
        return f"GenPoly({format_genpoly(self)!r}, vars={self.vars})"

    def _check_same_vars(self, other: "GenPoly"):
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = GenPoly.const(self.vars, other)
        self._check_same_vars(other)
        acc = dict(self.terms)
        for ev, c in other.terms:
            acc[ev] = acc.get(ev, 0) + c
        return GenPoly(self.vars, acc)

    __radd__ = __add__

    def __neg__(self):
        return GenPoly(self.vars, {ev: -c for ev, c in self.terms})

    def __sub__(self, other):
        if isinstance(other, (int, float, Fraction)):
            other = GenPoly.const(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, Fraction)):
            return GenPoly(self.vars, {ev: c * other for ev, c in self.terms})
        self._check_same_vars(other)
        acc: dict[ExponentVec, Coeff] = {}
        for ev1, c1 in self.terms:
            for ev2, c2 in other.terms:
                ev = tuple(a + b for a, b in zip(ev1, ev2))
                acc[ev] = acc.get(ev, 0) + c1 * c2
        return GenPoly(self.vars, acc)

    __rmul__ = __mul__

    # -- calculus and evaluation -------------------------------------------

    def partial(self, var: str) -> "GenPoly":
        """Term-wise partial derivative with the rational power rule."""
        i = self.vars.index(var)
        acc: dict[ExponentVec, Coeff] = {}
        for ev, c in self.terms:
            e = ev[i]
            if e == 0:
                continue
            nev = list(ev)
            nev[i] = e - 1
            coeff = c * e if isinstance(c, (int, Fraction)) else c * float(e)
            acc_key = tuple(nev)
            acc[acc_key] = acc.get(acc_key, 0) + coeff
        return GenPoly(self.vars, acc)

    def eval(self, x: Sequence[float]) -> float:
        """Evaluate at a real point.

        Negative exponents require the corresponding coordinate to be nonzero
        with a defined sign; fractional exponents require it nonnegative
        (zero is allowed for positive exponents and evaluates to 0).
        Never returns NaN: bad inputs raise DomainError instead.

        The value is ``0.0 +`` that of the :meth:`compile` function at the
        coordinates as floats; the function is compiled on first use and
        kept on the instance.  Only where it raises ``ZeroDivisionError`` or
        ``OverflowError`` or returns NaN are the powers walked in the text's
        order: the first one outside its domain raises DomainError naming
        its variable, and an overflowing one raises ``OverflowError``.
        """
        if len(x) != len(self.vars):
            raise ValueError("point dimension mismatch")
        try:
            fn = self._eval
        except AttributeError:
            fn = self.compile()
            object.__setattr__(self, "_eval", fn)
        try:
            v = 0.0 + fn(*map(float, x))
        except (ZeroDivisionError, OverflowError):
            v = math.nan
        if v != v:
            for ev, _ in self.terms:
                for xi, e, name in zip(map(float, x), ev, self.vars):
                    if e == 0:
                        continue
                    if xi == 0.0:
                        if e < 0:
                            raise DomainError(f"negative power of {name}=0")
                    elif xi < 0.0 and e.denominator != 1:
                        raise DomainError(f"fractional power of negative {name}={xi}")
                    else:
                        xi ** float(e)  # an overflowing power raises here
            raise DomainError("evaluation produced NaN")
        return v

    # -- structural operations ----------------------------------------------

    def substitute_power(
        self, assignments: Mapping[str, GenMonomial], new_vars: Sequence[str]
    ) -> "GenPoly":
        """Substitute a single monomial (in new variables) for each variable.

        Variables absent from ``assignments`` are mapped to themselves and
        must exist among ``new_vars``.  The result is exact.
        """
        new_vars = tuple(new_vars)
        mono_exps = {}
        mono_coeff = {}
        for v in self.vars:
            m = assignments.get(v)
            if m is None:
                if v not in new_vars:
                    raise ValueError(f"variable {v!r} has no assignment and is not kept")
                m = GenMonomial.make(1, {v: 1})
            ev = [Fraction(0)] * len(new_vars)
            for nv, e in m.exps:
                ev[new_vars.index(nv)] = e
            mono_exps[v] = tuple(ev)
            mono_coeff[v] = m.coeff
        acc: dict[ExponentVec, Coeff] = {}
        for ev, c in self.terms:
            out_ev = [Fraction(0)] * len(new_vars)
            coeff = c
            for v, e in zip(self.vars, ev):
                if e == 0:
                    continue
                coeff = coeff * _coeff_pow(mono_coeff[v], e)
                for j, me in enumerate(mono_exps[v]):
                    out_ev[j] += e * me
            key = tuple(out_ev)
            acc[key] = acc.get(key, 0) + coeff
        return GenPoly(new_vars, acc)

    def substitute_value(self, var: str, value: Coeff) -> "GenPoly":
        """Substitute an exact constant for one variable (integer exponents,
        unless the value is positive)."""
        i = self.vars.index(var)
        rest = self.vars[:i] + self.vars[i + 1 :]
        acc: dict[ExponentVec, Coeff] = {}
        for ev, c in self.terms:
            e = ev[i]
            coeff = c if e == 0 else c * _coeff_pow(value, e)
            key = ev[:i] + ev[i + 1 :]
            acc[key] = acc.get(key, 0) + coeff
        return GenPoly(rest, acc)

    def min_exponent(self, var: str) -> Fraction | None:
        """Least exponent of ``var`` over all terms (None for the zero poly)."""
        if not self.terms:
            return None
        i = self.vars.index(var)
        return min(ev[i] for ev, _ in self.terms)

    def with_vars(self, vars: Sequence[str]) -> "GenPoly":
        """Re-express over a superset/reordering of the current variables."""
        vars = tuple(vars)
        idx = []
        for v in self.vars:
            if v not in vars:
                raise ValueError(f"variable {v!r} missing from {vars}")
            idx.append(vars.index(v))
        acc = {}
        for ev, c in self.terms:
            out = [Fraction(0)] * len(vars)
            for j, e in zip(idx, ev):
                out[j] = e
            acc[tuple(out)] = c
        return GenPoly(vars, acc)

    def source(
        self,
        names: Sequence[str],
        power: Callable[[str, Fraction], str] | None = None,
    ) -> str:
        """Python expression for the polynomial over the variable ``names``.

        Terms appear in storage order as ``coeff*factor*...``; ``power(name,
        e)`` renders each nonzero power (default :func:`power_source`) and
        terms are joined by ``+``.  A negative coefficient stays a factor,
        ``a + -c*x``, not ``a - c*x``: the two differ in the sign of a NaN
        result when both operands are NaN (the sum returns the right NaN,
        the difference the left).  A unit coefficient is left out, since
        ``1.0*x`` is ``x`` exactly.
        The expression reads the names in :data:`SOURCE_GLOBALS`.
        """
        power = power or power_source
        text = ""
        for ev, c in self.terms:
            factors = [power(name, e) for name, e in zip(names, ev) if e != 0]
            c = float(c)
            if text:
                text += " + "
            if c != 1.0 or not factors:
                factors.insert(0, repr(c))
            text += "*".join(factors)
        return text or "0.0"

    def compile(self) -> Callable[..., float]:
        """Compile to a fast scalar function of the variables (in order): a
        ``def`` of the :meth:`source` text, the function :meth:`eval` runs.

        Where :meth:`eval` raises ``DomainError`` for a fractional power of a
        negative base (or a non-positive fractional power of zero), the
        compiled function returns NaN.  Integer powers are Python float
        powers: ``0.0**-n`` raises ``ZeroDivisionError`` and an overflowing
        power raises ``OverflowError``.  Equal polynomials print one text,
        which is compiled once per process (:func:`function_of`).
        """
        names = [f"x{i}" for i in range(len(self.vars))]
        src = f"def _f({', '.join(names)}):\n    return {self.source(names)}\n"
        return function_of(src, f"<genpoly:{format_genpoly(self)[:40]}>", SOURCE_GLOBALS)

    def compile_batch(self) -> Callable[..., list]:
        """Compile to a function of one column per variable (in order) that
        returns the list of :meth:`compile`'s values, row by row.

        The text is :meth:`compile`'s, so each finite value is
        :meth:`compile`'s at the row bit for bit: on the row's numbers, or on
        numpy float64 scalars of them where :func:`batch_function` falls
        back to those.  A NaN may come out with either sign: from its 8th row
        on, CPython 3.11 runs the batch's loop specialized, and a specialized
        float addition of two NaNs returns the other operand.
        """
        names = [f"x{i}" for i in range(len(self.vars))]
        return batch_function(self.source(names), names, format_genpoly(self)[:40])


def rows_function(polys: Sequence[GenPoly]) -> Callable[[list], list]:
    """The batched :meth:`GenPoly.eval` of ``polys`` (over one set of
    variables): a function of a list of points of Python floats that gives
    each point the tuple of ``p.eval(point)`` over ``polys``, or else the
    ``DomainError`` or ``OverflowError`` the first raising ``eval`` raises.

    One compiled loop takes each value as ``0.0 + (text)`` of the
    :meth:`GenPoly.source` text, as ``eval`` does, so a finite value is
    ``eval``'s bit for bit; a point where the loop raises, or whose values
    sum to NaN, is evaluated again by ``eval`` itself."""
    names = [f"x{i}" for i in range(len(polys[0].vars) if polys else 0)]
    values = "".join(f"0.0 + ({p.source(names)}), " for p in polys)
    src = (f"def _f(_rows):\n    _out = []\n"
           f"    for ({''.join(n + ', ' for n in names)}) in _rows:\n"
           f"        try:\n            _out.append(({values}))\n"
           f"        except (ZeroDivisionError, OverflowError):\n"
           f"            _out.append(None)\n    return _out\n")
    fn = function_of(src, "<genpoly rows>", SOURCE_GLOBALS)

    def eval_rows(points):
        out = fn(points)
        for i, v in enumerate(out):
            if v is None or math.isnan(sum(v)):
                try:
                    out[i] = tuple(p.eval(points[i]) for p in polys)
                except (DomainError, OverflowError) as exc:
                    out[i] = exc
        return out

    return eval_rows


def batch_function(expr: str, names: Sequence[str], label: str) -> Callable[..., list]:
    """Compile the expression text ``expr`` over ``names`` (at least one),
    which reads :data:`SOURCE_GLOBALS`, to a function of one column per name
    that returns the list of its values, row by row; ``label`` names the code
    in tracebacks.

    The function is one list comprehension over the columns; its text is
    compiled once per process (:func:`function_of`).  Its columns are meant to
    be lists of Python floats, on which the arithmetic is 2-3x faster than
    on numpy scalars and gives the same values; only a NaN may come out
    with the other sign.
    A Python float power or division raises where numpy gives an infinity or
    NaN (``0.0**-1.0``, an overflowing power, ``x/0.0``); then the whole batch
    is evaluated again on numpy float64 scalars, so it returns numpy's values,
    with numpy's RuntimeWarning, and does not raise.
    """
    cols = [f"_c{i}" for i in range(len(names))]
    if len(names) == 1:
        rows = f"{names[0]} in {cols[0]}"
    else:
        rows = f"{', '.join(names)} in zip({', '.join(cols)})"
    src = f"def _f({', '.join(cols)}):\n    return [{expr} for {rows}]\n"
    fn = function_of(src, f"<genpoly batch:{label}>", SOURCE_GLOBALS)

    def batch(*columns):
        try:
            return fn(*columns)
        except (ZeroDivisionError, OverflowError):
            return fn(*[np.asarray(c, dtype=np.float64) for c in columns])

    return batch


# how many generated texts keep their compiled code (see function_of)
CODE_CACHE_SIZE = 256


def function_of(text: str, label: str, globals: dict) -> FunctionType:
    """The function that the generated Python ``text``, one ``def``
    statement, defines, with ``label`` as its file name and a copy of
    ``globals`` as its globals: the one way the package turns the text it
    generates into a function (chart fields, DP5 loops, GenPoly evaluators
    and batches, quasitrig lookups).

    Each ``(text, label)`` is compiled once per process; the last
    :data:`CODE_CACHE_SIZE` used are kept, least recently used dropped
    first, and the cache is empty at import.  Each call returns a function
    of a copy of the compiled code, nested code included, that no run has
    specialized yet, so it runs as a fresh compile of the text would:
    CPython's specialized float addition may return the other operand's NaN
    when both are NaN, so code shared with earlier runs could give a NaN of
    the other sign.  A copy costs microseconds, a compile milliseconds.
    """
    return FunctionType(_unspecialized(_compiled(text, label)), dict(globals))


@lru_cache(maxsize=CODE_CACHE_SIZE)
def _compiled(text: str, label: str) -> CodeType:
    """The code of the one function that ``text`` defines."""
    (code,) = (c for c in compile(text, label, "exec").co_consts if isinstance(c, CodeType))
    return code


def _unspecialized(code: CodeType) -> CodeType:
    """A copy of ``code`` and of the code in its constants, built from
    their unspecialized bytecode."""
    return code.replace(co_consts=tuple(
        _unspecialized(c) if isinstance(c, CodeType) else c for c in code.co_consts))


def power_source(name: str, e: Fraction) -> str:
    """Python expression for ``name**e`` in every printed polynomial (the
    :meth:`GenPoly.compile` function that :meth:`GenPoly.eval` runs, batches,
    chart fields and the DP5 loop): the name itself for e = 1 (``x**1`` is
    ``x`` exactly), ``**`` with a float exponent for other integer e,
    otherwise ``(x**e if x > 0.0 else _fpow(x,e))``, ``_fpow``'s value
    (NaN on a negative or NaN base or 0**(e<=0)) with no call where the base
    is positive, the one branch in which ``_fpow`` returns ``x**e`` itself.

    ``x**3.0`` is ``x**3`` on floats, values and exceptions alike (the float
    power converts both operands to double first, and so does numpy's
    scalar power), and it skips the interpreter's int-to-float path."""
    if e == 1:
        return name
    if e.denominator == 1:
        return f"{name}**{float(e)!r}"
    return f"({name}**{float(e)!r} if {name} > 0.0 else _fpow({name},{float(e)!r}))"


def _float_pow_nan(x: float, e: float) -> float:
    if x < 0.0:
        return math.nan
    if x == 0.0:
        return 0.0 if e > 0 else math.nan
    return x**e


# globals of the expressions printed by GenPoly.source, which prints an
# infinite or NaN float coefficient as inf or nan
SOURCE_GLOBALS = {"_fpow": _float_pow_nan, "inf": math.inf, "nan": math.nan}


def _coeff_pow(c: Coeff, e: Fraction) -> Coeff:
    """c**e, exact when possible; fractional e requires c > 0 (or c == +-1)."""
    if c == 1:
        return 1
    if e.denominator == 1:
        n = int(e)
        if isinstance(c, (int, Fraction)):
            return Fraction(c) ** n if n < 0 else c**n
        return c**n
    if c > 0:
        return float(c) ** float(e)
    raise DomainError(f"cannot raise coefficient {c} to fractional power {e}")


# -- textual syntax ---------------------------------------------------------
#
#   poly     := term ((+|-) term)*
#   term     := [coeff *] factor (* factor)*   |   coeff
#   factor   := var [^ exponent]
#   exponent := int | (int/int) | (-int/int) | (int)
#   coeff    := decimal [/ int]
#
# Example: "2 * u1^2 * u0^(-1) - 0.5*x"


def parse_genpoly(text: str, vars: Sequence[str], line: int = 1, col0: int = 0) -> GenPoly:
    """Parse the textual monomial syntax into a GenPoly over ``vars``.

    ``line``/``col0`` offset error positions for embedding in larger files.
    """
    vars = tuple(vars)
    toks = _tokenize(text, line, col0)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    poly = GenPoly.zero(vars)
    sign = 1
    first = True
    while peek() is not None:
        tk = peek()
        if tk.kind in "+-":
            take()
            sign = 1 if tk.kind == "+" else -1
        elif not first:
            raise ParseError(f"expected '+' or '-', got {tk.text!r}", line, tk.col)
        poly = poly + _parse_term(vars, sign, take, peek, line)
        sign = 1
        first = False
    if first:
        raise ParseError("empty expression", line, col0 + 1)
    return poly


def _parse_term(vars, sign, take, peek, line):
    coeff: Coeff = sign
    exps = {}
    saw_factor = False
    expect_factor = True
    while True:
        tk = peek()
        if tk is None or tk.kind in "+-":
            break
        if tk.kind == "*":
            take()
            expect_factor = True
            continue
        if not expect_factor:
            break
        take()
        if tk.kind == "num":
            try:  # every evaluator prints float(coeff)
                coeff = coeff * tk.value
                finite = math.isfinite(coeff)
            except OverflowError:  # an exact coefficient past the float range
                finite = False
            if not finite:
                raise ParseError(f"coefficient is outside the float range at {tk.text!r}",
                                 line, tk.col)
        elif tk.kind == "name":
            if tk.text not in vars:
                raise ParseError(f"unknown variable {tk.text!r}", line, tk.col)
            e = Fraction(1)
            if peek() is not None and peek().kind == "^":
                take()
                e = _parse_exponent(take, peek, line)
            exps[tk.text] = exps.get(tk.text, Fraction(0)) + e
        else:
            raise ParseError(f"unexpected {tk.text!r}", line, tk.col)
        saw_factor = True
        expect_factor = False
    if not saw_factor:
        t = peek()
        raise ParseError("empty term", line, t.col if t else 1)
    ev = [Fraction(0)] * len(vars)
    for v, e in exps.items():
        ev[vars.index(v)] = e
    return GenPoly(vars, {tuple(ev): coeff})


def _parse_exponent(take, peek, line) -> Fraction:
    tk = peek()
    if tk is None:
        raise ParseError("missing exponent after '^'", line, 1)
    if tk.kind == "num":
        take()
        if isinstance(tk.value, Fraction):
            return tk.value
        raise ParseError("exponents must be exact (use p/q, not decimals)", line, tk.col)
    if tk.kind == "(":
        take()
        sign = 1
        inner = peek()
        if inner is not None and inner.kind in "+-":
            take()
            sign = 1 if inner.kind == "+" else -1
            inner = peek()
        if inner is None or inner.kind != "num" or not isinstance(inner.value, Fraction):
            raise ParseError("expected rational exponent", line, tk.col + 1)
        take()
        closing = peek()
        if closing is None or closing.kind != ")":
            raise ParseError("missing ')'", line, inner.col)
        take()
        return sign * inner.value
    raise ParseError(f"bad exponent {tk.text!r}", line, tk.col)


class _Tok:
    __slots__ = ("kind", "text", "value", "col")

    def __init__(self, kind, text, value, col):
        self.kind = kind
        self.text = text
        self.value = value
        self.col = col


def _tokenize(text: str, line: int, col0: int) -> list[_Tok]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        col = col0 + i + 1
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^()":
            out.append(_Tok(ch, ch, None, col))
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            lit = text[i:j]
            # optional exact rational p/q
            if j < n and text[j] == "/" and "." not in lit and "e" not in lit and "E" not in lit:
                k = j + 1
                if k < n and (text[k].isdigit() or text[k] == "-"):
                    m = k + 1 if text[k] == "-" else k
                    while m < n and text[m].isdigit():
                        m += 1
                    den_txt = text[k:m]
                    try:
                        val = Fraction(int(lit), int(den_txt))
                    except ZeroDivisionError:
                        raise ParseError("zero denominator in exponent or coefficient", line, col)
                    out.append(_Tok("num", text[i:m], val, col))
                    i = m
                    continue
            try:
                val = Fraction(int(lit)) if ("." not in lit and "e" not in lit and "E" not in lit) else float(lit)
            except ValueError:
                raise ParseError(f"bad number {lit!r}", line, col)
            out.append(_Tok("num", lit, val, col))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(_Tok("name", text[i:j], None, col))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    return out


def format_genpoly(p: GenPoly) -> str:
    """Canonical textual form; parse(format(p)) reproduces p term-for-term."""
    if not p.terms:
        return "0"
    parts = []
    for ev, c in p.terms:
        factors = []
        for v, e in zip(p.vars, ev):
            if e == 0:
                continue
            if e == 1:
                factors.append(v)
            elif e.denominator == 1:
                factors.append(f"{v}^{'(' + str(e) + ')' if e < 0 else e}")
            else:
                factors.append(f"{v}^({e})")
        cstr = _format_coeff(c)
        if factors and c == 1:
            term = " * ".join(factors)
        elif factors and c == -1:
            term = "-" + " * ".join(factors)
        else:
            term = " * ".join([cstr] + factors)
        parts.append(term)
    out = parts[0]
    for t in parts[1:]:
        if t.startswith("-"):
            out += " - " + t[1:]
        else:
            out += " + " + t
    return out


def _format_coeff(c: Coeff) -> str:
    if isinstance(c, Fraction):
        return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
    return repr(c)
