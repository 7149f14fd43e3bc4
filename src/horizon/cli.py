"""Command-line front end.

``horizon analyze <spec-file | builtin-name>`` parses a system description
(from a regular file; any other target names a builtin case), runs the
pipeline, and writes report.json, fits.csv and trajectories/*.npz into the
output directory.  ``horizon sweep <builtin-name> --param a=...``
runs a parameter grid and writes an aggregate CSV.  Both take only
``--seed`` (an int, 0 or more), ``--out`` and ``--jobs`` (an int, 1 or
more: a sweep runs in ``min(jobs, points)`` worker processes, ``analyze``
ignores it); every other setting of a run comes from its case.

A ``--param`` value takes its default's type: an int must be integral, a
fraction reads a decimal as written (``0.05`` is ``1/20``), a float stays
a float; a sweep builds every point's case before it runs any, so a
builder's rule (lienard's odd ``n``) is checked first too.  A chart with a
radial variable is searched on its horizon, one without over the whole
field; ``--seed`` reaches only the searches no closed form decides.

Exit codes, for both commands: 0 every report PASS (or no report), 1 some
report FAIL (a verdict failed or an expected equilibrium is missing),
2 parse error (with line/column), an unreadable spec file or one that is
not UTF-8, an ``--out`` path that cannot be written (an existing regular
file, say) or bad argument (none, unknown, mistyped, out of range or
repeated, an even lienard ``n``, a ``--jobs`` below 1 or a negative
``--seed``), 3 some report ERROR or a pipeline error.

Spec files are UTF-8, with or without a byte order mark, line oriented,
'#' comments.  Example::

    name demo
    var u0 positive
    var u1 positive
    field u0 : u1 * u0^(-2)
    field u1 : u1^2 * u0^(-1)
    type 0 1
    order 1
    transform directional index=u1
    transform desingularize
    transform rescale u0^2
    initial r=1 u0=1
    tau-end 11
    h-max 0.02
    window 1e-9 1e-3 absolute
    observable u1 : r^(-1) expect rho=1 q=0.5
    kind blow-up

Each ``transform`` line is lowered to one provenance step of the chart and
applied by :func:`horizon.compactify.apply_recipe`, the same code that
replays a report's chart (``apply_recipe(None,
report["chart"]["provenance"])``), so a spec chart and its replay cannot
differ.  ``sign`` is ``+`` (default) or ``-``; ``radial`` defaults to ``r``;
a key not listed for its transform is a parse error:

    transform directional index=<var> sign=± radial=<name>   (needs type, order)
    transform desingularize                                    (multiply by r^k)
    transform rescale <monomial>          (time factor; must be certified > 0)
    transform quasipolar m=<int>                     (needs type 1 <m>, order)
    transform blowup var=<var> w1=<w> w2=<w> sign=± radial=<name>
    transform restrict var=<var> value=<number>

``directional`` and ``quasipolar`` certify the declared ``type`` exactly
on the field they transform: it has one entry per variable, no term
``c x^e`` of the field of ``x_j`` has weighted degree ``<alpha, e>`` above
``k + alpha_j`` (``k`` is ``order``), and some term reaches it.  A
``quasipolar`` type is ``1 <m>``.  A failed certificate, or a float
coefficient the transform overflows, is a parse error at that line.  A
``type`` with a negative entry, with no positive one or without ``order``
is a parse error at the ``type`` line.

A ``rescale`` monomial is certified positive by a positive coefficient and
every variable in it declared ``positive`` (or the chart's radial
variable), so it neither vanishes nor changes sign: rescaling by ``x^2`` or
``x^(1/2)`` needs ``var x positive``.

A spec number is a decimal or a fraction (``tau-end 90/2``), one past the
float range a parse error at its line; ``direction`` is an integer.  The
run numbers ``tau-end``, ``h-max``, ``rtol``, ``atol`` and
``direction`` are checked at their line as ``integrate`` checks them, so a
value it refuses is a parse error there: ``tau-end`` must be finite and
nonnegative.  ``direction`` is ``1`` (the
default: forward in the chart's time) or ``-1`` (backward).  An
``initial`` value, an ``expect`` ``rho`` or ``q`` or an ``equilibrium``
number that is not finite, an ``expect`` ``tol-rho`` or ``tol-q`` that is
NaN, infinite or negative, an ``expect`` without ``rho``, an
``observable`` with no ``:`` or no name before it, and a ``window`` whose
low bound is not below its high one are parse errors at their line too.

``kind`` states whether the run's edge is finite: ``blow-up`` (the
default), ``extinction``, ``quenching`` and ``compacton-edge`` expect a
finite edge, ``grow-up`` an infinite one.  Any other kind is a parse error.

A spec word the format does not define is a parse error at its line: an
``expect`` key other than ``rho``, ``q``, ``tol-rho`` and ``tol-q``, an
``initial`` name that is not a variable of the chart, a ``var`` flag other
than ``positive``, and a ``window`` word after the bounds other than
``absolute``; and at the repeated line, a second ``var`` or ``field`` line
for one variable, an ``initial`` name given again, a second ``observable``
line of one name, a key repeated in one ``transform``, ``expect`` or
``initial`` line, and a second line of a
directive that takes one value: ``name``, ``prefactor``, ``type``,
``order``, ``tau-end``, ``h-max``, ``rtol``, ``atol``, ``direction``,
``window`` or ``kind``.  So is an ``equilibrium``
line that does not give one number per chart variable, the radial one
included.  No line states where to search: the search derives its range
from the ``equilibrium`` lines.

The chart sets how observables are sampled.  A ``quasipolar`` chart is
sampled once per revolution of its angle ``theta`` and ignores ``window``;
other charts are sampled at every step inside ``window`` (a fraction of
the edge time unless ``absolute``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import sys
from fractions import Fraction

from .casebook import (
    REPORT_SCHEMA,
    CaseDefinition,
    Observable,
    RunPlan,
    builtin_cases,
    get_case,
    run_case,
    sweep,
)
from .compactify import apply_recipe, base_field
from .dynamics import check_run_number
from .errors import HorizonError, ParameterError, ParseError
from .genpoly import parse_genpoly
from .rates import RateModel
from .structure import TypeVector

__all__ = ["main", "parse_spec_file"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horizon",
        description="Finite-time singularity analysis of autonomous ODEs",
    )
    sub = parser.add_subparsers(dest="command")

    pa = sub.add_parser("analyze", help="run one system (spec file or builtin case)")
    pa.add_argument("target", nargs="?", help="spec file path or builtin case name")
    pa.add_argument("--list-cases", action="store_true")
    _common_flags(pa)

    ps = sub.add_parser("sweep", help="run a builtin case over a parameter grid")
    ps.add_argument("case")
    ps.add_argument("--param", action="append", default=[],
                    metavar="NAME=V1,V2,...",
                    help="grid values for one parameter (repeatable)")
    _common_flags(ps)

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "analyze" and args.list_cases:
        for name, spec in sorted(builtin_cases().items()):
            print(f"{name:10s} {spec.summary}")
        return 0
    # ParseError and ParameterError are ValueErrors: their arms come first
    try:
        reports = _analyze(args) if args.command == "analyze" else _sweep(args)
        _write_outputs(args.out, reports, sweep_csv=args.command == "sweep")
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (_BadArgument, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (HorizonError, ValueError) as exc:
        print(f"pipeline error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for rep in reports:
        _print_report(rep)
    statuses = {r.status for r in reports}
    return 3 if "ERROR" in statuses else 1 if "FAIL" in statuses else 0


class _BadArgument(Exception):
    """An argument the command cannot use: ``error: <message>``, exit 2."""


def _common_flags(p):
    p.add_argument("--jobs", type=_int_from(1), default=1)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--out", type=pathlib.Path, default=pathlib.Path("horizon-out"))


def _int_from(low: int):
    """An argparse type: an int of at least ``low``; any other value is a
    usage error, exit code 2."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, not {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


def _analyze(args) -> list:
    if not args.target:
        raise _BadArgument("no spec file or case name given")
    # a spec is read only from a regular file: an output directory named
    # like a case (``analyze iy --out iy``) leaves the name to the case
    if pathlib.Path(args.target).is_file():
        try:
            case = parse_spec_file(pathlib.Path(args.target))
        except OSError as exc:
            raise _BadArgument(f"cannot read spec file {args.target!r}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise _BadArgument(f"spec file {args.target!r} is not UTF-8: byte "
                               f"{exc.object[exc.start]:#04x} at offset {exc.start}") from None
    else:
        case = _case(args.target)
    _write_outputs(args.out)  # the run writes its trajectories there: fail before it
    return [run_case(case, None, seed=args.seed, out_dir=args.out)]


def _sweep(args) -> list:
    spec = _case(args.case)
    grid = [{}] if args.param else []
    for p in args.param:
        name, eq, vals = p.partition("=")
        if not eq:
            raise _BadArgument(f"bad --param {p!r}")
        name = name.strip()
        if name in grid[0]:
            raise _BadArgument(f"--param {name!r} given twice")
        try:
            values = [_parse_number(v) for v in vals.split(",") if v]
        except (ValueError, ZeroDivisionError):
            values = []
        if not values:
            raise _BadArgument(f"bad --param {p!r}")
        grid = [dict(g, **{name: v}) for g in grid for v in values]
    return sweep(spec, grid, seed=args.seed, jobs=args.jobs)


def _case(name: str):
    try:
        return get_case(name)
    except KeyError as exc:
        raise _BadArgument(str(exc)) from None


def _write_outputs(out: pathlib.Path, reports=None, sweep_csv=False):
    """Make the directory ``out``, then write sweep.csv for a sweep, then
    report.json and fits.csv (with ``reports``); a bad argument names a
    path that cannot be written."""
    try:
        out.mkdir(parents=True, exist_ok=True)
        if sweep_csv:
            _write_sweep_csv(out / "sweep.csv", reports)
        if reports is not None:
            _write_report(out, reports)
    except OSError as exc:
        path = out if exc.filename is None else exc.filename
        raise _BadArgument(f"cannot write output {str(path)!r}: {exc.strerror or exc}") from None


def _parse_number(text: str):
    text = text.strip()
    if "/" in text:
        return Fraction(text)
    if "." in text or "e" in text or "E" in text:
        return float(text)
    return int(text)


# -- report emission -----------------------------------------------------------


def _write_report(out_dir: pathlib.Path, reports):
    """report.json, each report's ``to_dict()`` as it is, and fits.csv."""
    docs = [r.to_dict() for r in reports]
    payload = docs[0] if len(docs) == 1 else {"schema": REPORT_SCHEMA, "reports": docs}
    with open(out_dir / "report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(out_dir / "fits.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "params", "run", "observable", "rho", "q", "C",
                    "r2", "s_min", "s_max", "n_samples", "collinear_q"])
        for r, pstr, run, f in _fit_rows(reports):
            w.writerow([r.case, pstr, run["label"], f["observable"],
                        f"{f['rho']:.17g}", f"{f['q']:.17g}", f"{f['C']:.17g}",
                        f"{f['r2']:.17g}", f"{f['window'][0]:.17g}",
                        f"{f['window'][1]:.17g}", f["n_samples"], f["collinear_q"]])


def _write_sweep_csv(path, reports):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["case", "params", "status", "observable", "rho", "q", "r2"])
        for r, pstr, _, f in _fit_rows(reports):
            w.writerow([r.case, pstr, r.status, f["observable"],
                        f"{f['rho']:.17g}", f"{f['q']:.17g}", f"{f['r2']:.17g}"])


def _fit_rows(reports):
    """``(report, params, run, fit)`` for each fit in ``reports``, ``params``
    as ``name=value`` pairs joined by ``;``: the rows of both CSV files."""
    for r in reports:
        pstr = ";".join(f"{k}={v}" for k, v in r.params.items())
        for run in r.runs:
            for f in run.get("fits", []):
                yield r, pstr, run, f


def _print_report(report):
    print(f"[{report.status}] {report.case} "
          + " ".join(f"{k}={v}" for k, v in report.params.items()))
    if report.error:
        print(f"  error: {report.error}")
    ec = report.eq_check
    if ec.get("expected"):
        ok = "all found" if ec["all_found"] else "MISSING"
        print(f"  equilibria: {len(report.equilibria)} found; expected {ok}")
    for run in report.runs:
        print(f"  run {run['label']}: {run.get('termination', '-')}")
        for v in run.get("verdicts", []):
            print(f"    {v.get('detail', v['name'] + ': ' + str(v['passed']))}")


# -- spec files -----------------------------------------------------------------


def parse_spec_file(path: pathlib.Path) -> CaseDefinition:
    """Parse the key-value system description into a CaseDefinition.  A
    leading byte order mark is dropped after decoding, so the offset a
    ``UnicodeDecodeError`` names is one in the file."""
    text = path.read_text(encoding="utf-8").removeprefix("\ufeff")
    st = _SpecState()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        try:
            _spec_line(st, line, lineno)
        except ParseError:
            raise
        except (ValueError, KeyError) as exc:
            raise ParseError(str(exc), lineno, 1)
        except OverflowError:  # float() of an exact number
            raise ParseError("a number is outside the float range", lineno, 1)
        except ZeroDivisionError:  # Fraction("p/0")
            raise ParseError("a number has a zero denominator", lineno, 1)
    return st.finish()


def _words(rest: str, n: int, usage: str, lineno: int) -> list[str]:
    """The arguments of a directive; a ParseError when fewer than ``n``."""
    parts = rest.split()
    if len(parts) < n:
        raise ParseError(f"expected '{usage}'", lineno, 1)
    return parts


class _SpecState:
    def __init__(self):
        self.name = "system"
        self.vars = []
        self.positive = []
        self.fields = {}
        self.alpha = None
        self.k = None
        self.transforms = []
        self.initial = {}               # name -> (value, line)
        self.plan = {}                  # RunPlan keywords given by directives
        self.observables = []
        self.expected_eqs = []          # (coords, line)
        self.prefactor = None
        self.once = {}                  # single-value directive -> its line

    def finish(self) -> CaseDefinition:
        if not self.vars:
            raise ParseError("no variables declared")
        missing = [v for v in self.vars if v not in self.fields]
        if missing:
            raise ParseError(f"missing field components for {missing}")
        chart = base_field(
            self.vars,
            [self.fields[v] for v in self.vars],
            positive=tuple(self.positive),
            prefactor=self.prefactor,
            name=self.name,
        )
        t = None
        if self.alpha is not None:
            line = self.once["type"]
            if self.k is None:
                raise ParseError("'type' declared without 'order'", line, 1)
            try:
                t = TypeVector.make(self.alpha, self.k)
            except ValueError as exc:
                raise ParseError(str(exc), line, 1)
        for op, params, lineno in self.transforms:
            try:
                chart = apply_recipe(chart, [_recipe_step(chart, t, op, params, lineno)])
            except ParseError:
                raise
            except KeyError as exc:
                raise ParseError(f"transform {op}: missing parameter {exc}", lineno, 1)
            except (HorizonError, ValueError) as exc:
                raise ParseError(f"transform {op}: {exc}", lineno, 1)
        for v, (_, lineno) in self.initial.items():
            if v not in chart.vars:
                raise ParseError(f"initial value for {v!r}, which is not a chart "
                                 f"variable ({', '.join(chart.vars)})", lineno, 1)
        for coords, lineno in self.expected_eqs:
            if len(coords) != len(chart.vars):
                raise ParseError(f"equilibrium needs one number per chart variable "
                                 f"({', '.join(chart.vars)}), not {len(coords)}",
                                 lineno, 1)
        pv = chart.poly_vars
        observables = []
        for name, expr_text, expect, lineno, col0 in self.observables:
            expr = parse_genpoly(expr_text, pv, line=lineno, col0=col0)
            observables.append(Observable(name, expr, **expect))
        init = []
        for v in chart.vars:
            if v not in self.initial:
                raise ParseError(f"initial value for {v!r} missing")
            init.append(self.initial[v][0])
        plan = RunPlan(
            label=self.name,
            initial=tuple(init),
            observables=tuple(observables),
            stop_at_equilibrium=False,
            **self.plan,
        )
        return CaseDefinition(
            name=self.name,
            chart=chart,
            runs=[plan],
            expected_equilibria=tuple(tuple(e) for e, _ in self.expected_eqs),
        )


def _real(text: str, name: str = "") -> float:
    """The double nearest a decimal or a fraction ``p/q``, or a nan/inf
    spelling; a number past the float range raises OverflowError.  With a
    ``name``, a value that is not finite is refused."""
    if "/" in text:
        value = float(Fraction(text))
    else:  # float() rounds a decimal as float(Fraction()) does, in linear time
        value = float(text)
        if math.isinf(value) and any(ch.isdigit() for ch in text):
            raise OverflowError(text)
    if name and not math.isfinite(value):
        raise ValueError(f"{name} = {text} is not finite")
    return value


# single-number directives: directive -> (RunPlan keyword, parser)
_NUMBER_DIRECTIVES = {
    "direction": ("direction", int),
    "tau-end": ("tau_end", _real),
    "h-max": ("h_max", _real),
    "rtol": ("rtol", _real),
    "atol": ("atol", _real),
}

# directives a spec may give at most once
_ONCE = {*_NUMBER_DIRECTIVES, "window", "kind", "type", "order", "prefactor", "name"}

# spec kinds -> whether the edge is finite
_KINDS = {"blow-up": True, "extinction": True, "quenching": True,
          "compacton-edge": True, "grow-up": False}


def _spec_line(st: _SpecState, line: str, lineno: int):
    head, _, rest = line.strip().partition(" ")
    rest = rest.strip()
    if head in _ONCE:
        if head in st.once:
            raise ParseError(f"{head!r} given twice (first at line {st.once[head]})",
                             lineno, 1)
        st.once[head] = lineno
    if head in _NUMBER_DIRECTIVES:
        key, parse = _NUMBER_DIRECTIVES[head]
        st.plan[key] = parse(rest)
        check_run_number(key, st.plan[key], head)  # refused at its line
    elif head == "name":
        st.name = rest
    elif head == "var":
        parts = _words(rest, 1, "var <name> [positive]", lineno)
        for flag in parts[1:]:
            if flag != "positive":
                raise ParseError(f"unknown var flag {flag!r}; the only flag is "
                                 "'positive'", lineno, 1)
        if parts[0] in st.vars:
            raise ParseError(f"variable {parts[0]!r} declared twice", lineno, 1)
        st.vars.append(parts[0])
        if "positive" in parts[1:]:
            st.positive.append(parts[0])
    elif head == "field":
        name, _, expr = rest.partition(":")
        name = name.strip()
        if name not in st.vars:
            raise ParseError(f"field for undeclared variable {name!r}", lineno, 7)
        if name in st.fields:
            raise ParseError(f"field for {name!r} given twice", lineno, 7)
        col0 = line.index(":") + 1
        st.fields[name] = parse_genpoly(expr, st.vars, line=lineno, col0=col0)
    elif head == "prefactor":
        st.prefactor = parse_genpoly(rest, st.vars, line=lineno,
                                     col0=len("prefactor "))
    elif head == "type":
        st.alpha = [Fraction(x) for x in rest.split()]
    elif head == "order":
        st.k = Fraction(rest)
    elif head == "transform":
        op, _, params_text = rest.partition(" ")
        if op == "rescale":
            # a rescale monomial may contain spaces ("2 * x^2 * y") and ends the line
            mono = params_text.strip()
            params = {"monomial": mono, "col0": len(line) - len(mono)}
        elif op in _TRANSFORM_KEYS:
            params = _kv(params_text, _TRANSFORM_KEYS[op], f"transform {op}", lineno)
        else:
            raise ParseError(f"unknown transform {op!r}", lineno, 1)
        st.transforms.append((op, params, lineno))
    elif head == "initial":
        for k, v in _kv(rest, None, "initial", lineno, given=st.initial).items():
            st.initial[k] = (_real(v, f"initial {k}"), lineno)
    elif head == "window":
        parts = _words(rest, 2, "window <low> <high> [absolute]", lineno)
        if parts[2:] not in ([], ["absolute"]):
            raise ParseError(f"window takes only 'absolute' after its bounds, "
                             f"not {' '.join(parts[2:])!r}", lineno, 1)
        low, high = _real(parts[0]), _real(parts[1])
        if not low < high:  # a NaN bound too
            raise ParseError(f"window needs low < high, not {low!r} {high!r}", lineno, 1)
        st.plan["window"] = (low, high)
        st.plan["window_relative"] = parts[2:] != ["absolute"]
    elif head == "observable":
        name, colon, tail = rest.partition(":")
        if not colon:
            raise ParseError("observable needs ':' between name and expression", lineno, 1)
        name = name.strip()
        if not name:
            raise ParseError("observable needs a name before ':'", lineno, 1)
        first = next((ln for n, _, _, ln, _ in st.observables if n == name), None)
        if first is not None:
            raise ParseError(f"observable {name!r} given twice (first at line {first})",
                             lineno, 1)
        expr_text, _, expect_text = tail.partition(" expect ")
        expect = {}  # Observable keywords; Observable has the default tolerances
        if expect_text:
            kv = _kv(expect_text, ("rho", "q", "tol-rho", "tol-q"), "expect", lineno)
            if "rho" not in kv:
                raise ParseError("expect needs rho=<number>", lineno, 1)
            expect["expected"] = RateModel(_real(kv["rho"], "expect rho"),
                                           _real(kv.get("q", "0"), "expect q"))
            for key in ("tol-rho", "tol-q"):
                if key in kv:
                    tol = expect[key.replace("-", "_")] = _real(kv[key])
                    if not 0.0 <= tol < math.inf:
                        raise ParseError(f"expect {key} = {tol!r} is not finite and "
                                         "nonnegative", lineno, 1)
        st.observables.append((name, expr_text, expect, lineno, line.find(":") + 1))
    elif head == "kind":
        if rest not in _KINDS:
            raise ParseError(f"unknown kind {rest!r}; expected one of "
                             f"{', '.join(_KINDS)}", lineno, 1)
        st.plan["expect_finite_edge"] = _KINDS[rest]
    elif head == "equilibrium":
        st.expected_eqs.append(([_real(x, "equilibrium") for x in rest.split()], lineno))
    else:
        raise ParseError(f"unknown directive {head!r}", lineno, 1)


def _kv(text: str, keys, what: str, lineno: int, given=()) -> dict:
    """The ``key=value`` words of ``text``; a key not in ``keys`` (unless
    None), repeated, or in ``given`` (keys of earlier lines) is a ParseError
    at ``lineno`` naming it."""
    out = {}
    for item in text.split():
        k, _, v = item.partition("=")
        if keys is not None and k not in keys:
            takes = f"; it takes {', '.join(keys)}" if keys else ""
            raise ParseError(f"{what} does not take {k!r}{takes}", lineno, 1)
        if k in out or k in given:
            raise ParseError(f"{what} gives {k!r} twice", lineno, 1)
        out[k] = v
    return out


# spec transform (other than rescale) -> the keys its line may give
_TRANSFORM_KEYS = {
    "directional": ("index", "sign", "radial"),
    "desingularize": (),
    "quasipolar": ("m",),
    "blowup": ("var", "w1", "w2", "sign", "radial"),
    "restrict": ("var", "value"),
}


def _recipe_step(chart, t, op, params, lineno) -> dict:
    """Lower the spec ``transform`` line ``lineno`` to the provenance step its
    transform records; :func:`horizon.compactify.apply_recipe` calls it."""
    if op in ("directional", "desingularize", "quasipolar") and t is None:
        raise ValueError("needs 'type' and 'order'")
    if op == "directional":
        return {"op": "directional", "params": {
            "alpha": t.alpha, "k": t.k, "index": params["index"],
            "sign": _sign(params), "radial": params.get("radial", "r")}}
    if op == "desingularize":
        return {"op": "desingularize", "params": {"k": t.k}}
    if op == "rescale":
        if not params["monomial"]:
            raise ValueError("rescale needs a monomial factor")
        poly = parse_genpoly(params["monomial"], chart.poly_vars, line=lineno,
                             col0=params["col0"])
        if len(poly.terms) != 1:
            raise ValueError("rescale factor must be a single monomial")
        (ev, c), = poly.terms
        return {"op": "time_rescale",
                "params": {"monomial": {"coeff": c, "exps": dict(zip(poly.vars, ev))}}}
    if op == "quasipolar":
        if t.alpha != (1, Fraction(params["m"])):
            raise ValueError(f"m={params['m']} does not match the declared "
                             f"type {' '.join(map(str, t.alpha))}")
        return {"op": "quasi_polar", "params": {"m": params["m"], "k": t.k}}
    if op == "blowup":
        return {"op": "blowup", "params": {
            "weights": [params["w1"], params["w2"]], "chart_var": params["var"],
            "sign": _sign(params), "radial": params.get("radial", "r")}}
    return {"op": "restrict", "params": params}


def _sign(params) -> int:
    sign = params.get("sign", "+")
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', not {sign!r}")
    return 1 if sign == "+" else -1


if __name__ == "__main__":
    sys.exit(main())
