"""Continuation of a long integration loop in a compiled copy of its text.

:func:`resume` runs the ``while`` statement of a function generated by
:mod:`horizon.dynamics` (the whole DP5 loop: stages with the inlined chart
field and Cs/Sn lookup, error norm, PI controller, section test) as C.  The
C is not a second loop: it is the loop's own Python text, translated
statement by statement through :mod:`ast`, so its float operations and
their order are the Python loop's and trajectories agree bit for bit.

* Every binary operation keeps its AST grouping (the C is fully
  parenthesised), and float constants are printed as exact ``float.hex``
  literals.
* Each name of the loop is a C local: ``double`` for floats and for the
  Python ints that ``math.floor`` returns (the table index, the section
  count: exact there), ``long long`` for the other ints (the counters).
* The loop only computes and stores numbers, floats and ints (a string
  constant, say, is refused).  It may use float and int arithmetic and
  comparisons, ``math.floor``, ``math.sqrt`` and ``_fpow``, rows of a global
  table of float tuples, ``if``, ``try``, ``break`` and ``continue``, and
  ``x_append(v)`` of the ``append`` of a local ``array('d')`` with a float
  or an int ``v``, stored as a double (an int is exact there below 2**53).
* Each appended stream is one float64 array that starts with the local
  array's values.  The C function writes it through a window of ``CHUNK``
  doubles from the stream's length, and returns when a window may not hold one more
  iteration; the array then grows in place (``ndarray.resize``, a realloc)
  and the next window starts at the new length.  At the end the array is
  trimmed to its length, so a run holds its appended values once.
* A node the translator does not know, a call of any other Python function
  among them, raises ``NotImplementedError``; it never falls back to
  anything.

CPython's float rules are reproduced where Python raises or differs from C:

* ``x ** y`` and ``_fpow(x, y)`` take only the exponents a generated loop
  prints: a finite nonzero literal (a float or int constant, a global
  number, or the negation of one).  Any other, a local, 0, NaN or an
  infinity, raises ``NotImplementedError`` when the loop is translated.
* ``x ** y`` is then ``float_pow``: NaN and infinite bases are
  special-cased, ``0.0 ** -y`` raises ``ZeroDivisionError``, a negative
  base to an integral power is ``-pow(-x, y)`` for odd y, and libm's
  ``pow`` with the ``errno``/``ERANGE`` adjustment (underflow to 0 clears
  it, an infinite result sets it) raises ``OverflowError``.  A negative
  base to a fractional power, a complex number in Python (or an
  ``OverflowError``), is refused.
* The branch of ``float_pow`` that depends on the exponent alone is decided
  when the loop is translated: whether it is fractional, or an even or an
  odd integer.  ``py_pow`` takes that kind as a constant and is inlined at
  every power.  With an even or odd exponent it computes
  ``r = pow(|x|, y)``, with a fractional one and ``x > 0``
  ``r = pow(x, y)``, and returns ``r`` (``copysign(r, x)`` for an odd one)
  if ``DBL_MIN < r < HUGE_VAL``.  That is CPython's value: a NaN, zero or
  infinite base gives NaN, 0 or an infinite ``r``, so the base is finite
  and nonzero, where ``float_pow`` returns ``+-pow(|x|, y)`` (``x = +-1``
  included: C99 makes ``pow(1, y)`` 1), and ``errno`` cannot be set
  (below).  Every other case, a zero, subnormal, infinite or NaN result or
  a refused power, calls ``py_pow_slow`` out of line.  It tests the base in
  CPython's order (NaN, infinite, zero, negative, 1.0).
* ``errno`` is read only where it can be set: C99 (7.12.1) sets
  ``ERANGE`` only with an infinite result or one that underflows, whose
  magnitude is then at most ``DBL_MIN``.  So ``py_pow_slow`` returns a
  result above ``DBL_MIN`` and below ``HUGE_VAL`` as it is, and for any
  other repeats the call with ``errno`` zeroed and applies CPython's
  adjustment.
* ``_fpow`` (:func:`horizon.genpoly._float_pow_nan`) is NaN on a negative
  base and on 0 to a non-positive power, and ``float_pow`` otherwise.
* ``x % y`` is taken only by a nonzero literal, as the Cs/Sn lookup prints
  it, and by any other divisor raises ``NotImplementedError`` when the loop
  is translated.  It is ``float_rem``: ``fmod`` plus the sign fix (a
  nonzero remainder takes the divisor's sign by adding it, a zero one is
  ``+-0.0`` with the divisor's sign), which cannot raise.
* ``x / y`` raises ``ZeroDivisionError`` on a zero divisor.  By a nonzero
  literal it is C's division, which cannot raise, so it is not numbered or
  tested.
* ``math.floor`` raises ``ValueError`` on NaN and ``OverflowError`` on an
  infinity; ``math.sqrt`` raises ``ValueError`` below zero.
* A list subscript wraps negative indices and raises ``IndexError``.

A raising operation records which one it was and its operands; a statement
that recorded one jumps to the innermost ``try`` whose ``except`` catches it
(its ``except`` body runs, as in Python), or leaves the C function, and
:func:`resume` then repeats the operation in Python, so the exception comes
out of it with CPython's own type and message.  Within one statement the
operation Python would have reached first wins: operations are numbered in
Python's evaluation order (C's order of operands is unspecified, and a
statement that failed does not assign).

Compiler flags, besides ``-shared -fPIC`` and ``-lm``:

* ``-ffp-contract=off``: no fused multiply-add.  GCC contracts ``a*b + c``
  into one FMA, rounded once, by default wherever the target has one
  (aarch64 always), and CPython rounds the product and the sum apart;
* ``-fno-builtin-pow``: every power is the libm ``pow`` call CPython makes,
  with its ``errno``, never folded into ``x*x`` or a compile-time value;
* ``-O1``: on a 2-vCPU x86-64 host (gcc 12.2) it compiled the lienard n=3
  loop in 0.38 s (median of 16 alternating compiles, 0.31 s at the
  fastest) against 0.66 s at ``-O2`` (0.49 s), and the warm loop ran at
  the ``-O2`` speed (0.687 against 0.685 s, medians of 18 runs).  The
  inline powers cost 0.04-0.08 s of that compile and save about 0.09 s in
  the 372,000 steps a fresh lienard n=3 run takes in C.

A translation and its compiled loop are cached per process by the loop
text and everything the C text depends on besides it: the chunk size, the
value of each number the loop reads from its globals (printed as a
literal), the length of each table and of its first row (its rows go by
pointer on every call, checked and flattened once per table list), any
other global object itself, and the type letter of each value the loop
carries in: the function's arguments and the names it assigns before its
``while``.  A name the loop assigns takes its type from those values and
from the loop's own assignments, so a handoff at any step translates the
same way: one translation and one compile per text and key in a process
(:func:`warm` tells whether a text has one).  Each library is built in a
temporary directory that is removed once it is loaded; nothing is cached
on disk.  ``ctypes`` and ``subprocess`` are imported on first use.
"""

from __future__ import annotations

import array
import ast
import builtins
import functools
import itertools
import math
import os
import shutil
import struct
import tempfile
import types

import numpy as np

from .genpoly import _float_pow_nan

__all__ = ["compiler", "resume", "warm"]

FLAGS = ("-O1", "-ffp-contract=off", "-fno-builtin-pow")
CHUNK = 1 << 16        # doubles in one chunk of appended values
_FULL, _RAISED = 1, 2  # what the C function returns besides 0, done

# what the C helpers record: the exception (kind 1-4 here; 5 is a power with
# no float result), and the operation (code 1-5 in _REPEAT) and its operands
_EXCEPTIONS = (ZeroDivisionError, OverflowError, ValueError, IndexError)
_REPEAT = (None, lambda a, b: a / b, lambda a, b: a ** b, lambda a, b: math.floor(a),
           lambda a, b: math.sqrt(a), lambda a, b: [][0])
_FUNCS = {math.floor: ("py_floor", "n"), math.sqrt: ("py_sqrt", "f"),
          _float_pow_nan: ("py_fpow", "f")}
_BINOPS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*"}
_CMPOPS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==",
           ast.NotEq: "!="}

_PRELUDE = r"""#include <errno.h>
#include <float.h>
#include <math.h>

typedef struct { int kind, site, op; double a, b; } exc_t;
static const union { unsigned long long u; double d; } py_nan = { %(nan)s };

static double fail(exc_t *x, int site, int kind, int op, double a, double b)
{
    if (!x->kind || site < x->site) {
        x->kind = kind; x->site = site; x->op = op; x->a = a; x->b = b;
    }
    return 0.0;
}

static double py_div(exc_t *x, int site, double a, double b)
{
    return b == 0.0 ? fail(x, site, 1, 1, a, b) : a / b;
}

static double py_rem(double a, double b)
{
    double m = fmod(a, b);
    if (m) {
        if ((b < 0) != (m < 0))
            m += b;
    } else {
        m = copysign(0.0, b);
    }
    return m;
}

enum { POW_FRACTION, POW_EVEN, POW_ODD };

static __attribute__((noinline)) double py_pow_slow(exc_t *x, int site, double iv, double iw,
                                                    int k)
{
    double a = iv, ix;
    int negate = 0;
    if (isnan(iv))
        return iv;
    if (isinf(iv)) {
        if (iw > 0.0)
            return k == POW_ODD ? iv : fabs(iv);
        return k == POW_ODD ? copysign(0.0, iv) : 0.0;
    }
    if (iv == 0.0) {
        if (iw < 0.0)
            return fail(x, site, 1, 2, a, iw);
        return k == POW_ODD ? iv : 0.0;
    }
    if (iv < 0.0) {
        if (k == POW_FRACTION)
            return fail(x, site, 5, 2, a, iw);
        iv = -iv;
        negate = k == POW_ODD;
    }
    if (iv == 1.0)
        return negate ? -1.0 : 1.0;
    ix = pow(iv, iw);
    if (!(ix > DBL_MIN && ix < HUGE_VAL)) {
        errno = 0;
        ix = pow(iv, iw);
        if (errno == 0) {
            if (ix == HUGE_VAL || ix == -HUGE_VAL)
                errno = ERANGE;
        } else if (errno == ERANGE && ix == 0.0) {
            errno = 0;
        }
        if (errno)
            return fail(x, site, errno == ERANGE ? 2 : 3, 2, a, iw);
    }
    return negate ? -ix : ix;
}

static inline __attribute__((always_inline)) double py_pow(exc_t *x, int site, double iv,
                                                           double iw, int k)
{
    double r;
    if (k == POW_EVEN || k == POW_ODD) {
        r = pow(fabs(iv), iw);
        if (r > DBL_MIN && r < HUGE_VAL)
            return k == POW_ODD ? copysign(r, iv) : r;
    } else if (k == POW_FRACTION && iv > 0.0) {
        r = pow(iv, iw);
        if (r > DBL_MIN && r < HUGE_VAL)
            return r;
    }
    return py_pow_slow(x, site, iv, iw, k);
}

static double py_fpow(exc_t *x, int site, double b, double e, int k)
{
    if (b < 0.0)
        return py_nan.d;
    if (b == 0.0)
        return e > 0 ? 0.0 : py_nan.d;
    return py_pow(x, site, b, e, k);
}

static double py_floor(exc_t *x, int site, double a)
{
    if (isnan(a))
        return fail(x, site, 3, 3, a, 0.0);
    if (isinf(a))
        return fail(x, site, 2, 3, a, 0.0);
    return floor(a);
}

static double py_sqrt(exc_t *x, int site, double a)
{
    return a < 0.0 ? fail(x, site, 3, 4, a, 0.0) : sqrt(a);
}

static const double *py_row(exc_t *x, int site, const double *t, long long n, int w, double i)
{
    if (i < 0)
        i += n;
    if (!(i >= 0 && i < n)) {
        fail(x, site, 4, 5, i, 0.0);
        i = 0;
    }
    return t + (long long)i * w;
}

"""


def compiler() -> str | None:
    """The C compiler on ``PATH`` (``cc``, else ``gcc``), or None."""
    return shutil.which("cc") or shutil.which("gcc")


def resume(text: str, ns: dict, state: dict) -> dict[str, np.ndarray]:
    """Run the ``while`` loop of the function ``text`` to its end in C.

    ``ns`` holds the function's globals and ``state`` its local variables
    at the top of an iteration (``locals()`` of the Python loop, say); the
    loop continues from exactly there and ``state`` is updated to where it
    stopped.  Each ``<name>(value)`` call of the ``append`` of a local
    ``array('d')`` appends to one float64 array instead, returned by that
    name: it starts with the local array's values, and the local array is
    emptied (``del a[:]``; an array has no ``clear()`` before Python 3.13).
    An exception the loop raises outside a ``try`` (or that no ``except``
    catches) is raised here.
    """
    prog, fn = _program(text, ns, state)
    F = np.array([float(state.get(v, 0.0)) for v in prog.floats])
    I = np.array([state.get(v, 0) for v in prog.ints], dtype=np.int64)
    tables = [_table_array(prog, name, ns[name]) for name in prog.tables]
    streams = []
    for name in prog.buffers:
        values = state[name].__self__
        streams.append(np.array(values, dtype=np.float64))
        del values[:]
    # each stream is written through a window of CHUNK doubles that starts
    # at its length; a full one starts again at the new length.  No view of
    # a stream exists until it is returned, so it grows (a realloc) in place
    starts = [len(a) for a in streams]
    counts = np.zeros(len(streams), dtype=np.int64)
    exc = np.zeros(4)
    import ctypes

    def addresses(pointers):
        return (ctypes.c_void_p * max(len(pointers), 1))(*pointers)

    tab_ptrs = addresses([t.ctypes.data for t in tables])
    status = _FULL
    while status == _FULL:
        for k, a in enumerate(streams):
            if len(a) < starts[k] + CHUNK:
                a.resize(starts[k] + CHUNK, refcheck=False)
        windows = addresses([a.ctypes.data + 8 * n for a, n in zip(streams, starts)])
        status = fn(F.ctypes.data, I.ctypes.data, windows, counts.ctypes.data, tab_ptrs,
                    exc.ctypes.data)
        for k, sites in enumerate(prog.buffers.values()):
            if status != _FULL or counts[k] + sites > CHUNK:
                starts[k], counts[k] = starts[k] + int(counts[k]), 0
    for a, n in zip(streams, starts):
        a.resize(n, refcheck=False)
    for name, value in zip(prog.floats, F.tolist()):
        state[name] = int(value) if prog.types[name] == "n" else value
    state.update(zip(prog.ints, I.tolist()))
    if status == _RAISED:
        kind, op, a, b = exc.tolist()  # Python floats: numpy's own would not raise
        if kind == 5:  # complex in Python, or an OverflowError that a try may catch
            raise RuntimeError(f"native loop: {a!r} ** {b!r} has no float result")
        _REPEAT[int(op)](a, b)
        raise RuntimeError(f"native loop: operation {op} on ({a!r}, {b!r}) raised "
                           f"exception kind {kind}, but not in Python")
    return dict(zip(prog.buffers, streams))


def warm(text: str) -> bool:
    """Whether this process holds a compiled loop of the function ``text``."""
    return text in _PROGRAMS


_PROGRAMS: dict[str, dict[tuple, tuple]] = {}  # loop text: {_key: (program, function)}


def _program(text: str, ns: dict, state: dict):
    """The translation of the loop of ``text`` and its compiled function,
    made once per process for each :func:`_key`."""
    programs = _PROGRAMS.get(text, {})
    key = _key(text, ns, state)
    if key not in programs:
        prog = _Translator(text, ns, state).program()
        programs[key] = prog, _compiled(prog.c)
        _PROGRAMS[text] = programs
    return programs[key]


def _table_array(prog, name: str, rows: list) -> np.ndarray:
    """The rows of the loop's global table ``name`` as one flat float64
    array, checked and made once per program and list (no loop changes its
    tables)."""
    held = prog.arrays.get(name)
    if held is None or held[0] is not rows:
        held = prog.arrays[name] = rows, _flat_table(name, rows)
    return held[1]


def _flat_table(name: str, rows) -> np.ndarray:
    """The rows of the table ``name`` as one flat float64 array, or
    NotImplementedError if it is not a list of float tuples."""
    if _table_shape(rows) is None:
        raise NotImplementedError(f"{name} is not a list of float tuples")
    return np.array(rows, dtype=np.float64).ravel()


def _key(text: str, ns: dict, state: dict) -> tuple:
    """What the C text of the loop of ``text`` depends on besides the text:
    ``CHUNK``, each global name of the loop as the translator reads it, and
    the type letter of the value of each name the loop carries in (or that
    it is the ``append`` of an ``array('d')``)."""
    _, _, global_names, carried = _parse(text)
    return (CHUNK, tuple(_global_shape(ns.get(v)) for v in global_names),
            tuple("append" if _is_append(state.get(v)) else _value_type(state.get(v))
                  for v in carried))


def _global_shape(value):
    """A global as the translator reads it: a float's exact value (0.0 and
    -0.0 print apart), a table's length and the length of its first row (the
    rest of it is checked where it is flattened, :func:`_table_array`), else
    the value itself with its type (just the type if it is not hashable: the
    translator then only finds it is no number)."""
    kind = type(value)
    if kind is float:
        return kind, value.hex()
    if kind is list:
        return kind, len(value), len(value[0]) if value and type(value[0]) is tuple else None
    try:
        hash(value)
    except TypeError:
        return kind
    return kind, value


def _table_shape(table) -> tuple[int, int] | None:
    """(rows, width) of a nonempty list of float tuples of one width, else None."""
    if not (isinstance(table, list) and table and set(map(type, table)) == {tuple}):
        return None
    widths, values = set(map(len, table)), itertools.chain.from_iterable(table)
    if len(widths) != 1 or not set(map(type, values)) <= {float}:
        return None
    return len(table), len(table[0])


def _is_append(fn) -> bool:
    """Whether ``fn`` is the ``append`` method of an ``array('d')``."""
    owner = getattr(fn, "__self__", None)
    return (isinstance(fn, types.BuiltinMethodType) and fn.__name__ == "append"
            and isinstance(owner, array.array) and owner.typecode == "d")


@functools.lru_cache(maxsize=None)
def _parse(text: str):
    """``(loop, locals, global names, carried names)``: the ``while``
    statement of the function ``text``, the function's local names, and the
    sorted global names the loop reads and local names it carries in (the
    arguments and the names assigned before the ``while`` that it uses)."""
    fdef = ast.parse(text).body[0]
    loops = [s for s in fdef.body if isinstance(s, ast.While)]
    if not isinstance(fdef, ast.FunctionDef) or len(loops) != 1 or loops[0].orelse:
        raise NotImplementedError("the text must define a function with one while loop")

    def stored(nodes):
        return {n.id for node in nodes for n in ast.walk(node)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}

    args = {a.arg for a in fdef.args.args}
    carried = args | stored(fdef.body[:fdef.body.index(loops[0])])
    local = args | stored(fdef.body)
    names = {n.id for n in ast.walk(loops[0]) if isinstance(n, ast.Name)}
    return loops[0], frozenset(local), sorted(names - local), sorted(names & carried)


def _compiled(c_text: str):
    """The C function ``loop`` of ``c_text``, compiled (the function keeps
    its library loaded)."""
    import ctypes
    import subprocess

    cc = compiler()
    if cc is None:
        raise RuntimeError("no C compiler (cc or gcc) on PATH")
    with tempfile.TemporaryDirectory() as tmp:
        src, lib = os.path.join(tmp, "loop.c"), os.path.join(tmp, "loop.so")
        with open(src, "w") as fh:
            fh.write(c_text)
        proc = subprocess.run([cc, *FLAGS, "-shared", "-fPIC", "-o", lib, src, "-lm"],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{cc} failed to compile the native loop:\n{proc.stderr}")
        fn = ctypes.CDLL(lib).loop
    fn.restype = ctypes.c_int
    fn.argtypes = [ctypes.c_void_p] * 6
    return fn


class _Program(types.SimpleNamespace):
    """The C text and the layout of what it loads and stores."""


def _value_type(value):
    """The type letter of a Python value: 'f' float, 'i' int, else None."""
    return {float: "f", int: "i"}.get(type(value))


def _unify(a, b, what):
    if a == b:
        return a
    if {a, b} == {"i", "n"}:
        return "n"
    raise NotImplementedError(f"{what} is both {a!r} and {b!r}")


def _literal(value) -> str:
    """Exact C text of a float or int constant."""
    if type(value) is int:
        return f"({value}LL)"
    if type(value) is float and not math.isnan(value):
        return f"({value.hex()})" if math.isfinite(value) else (
            "HUGE_VAL" if value > 0 else "(-HUGE_VAL)")
    raise NotImplementedError(f"constant {value!r}")


def _pow_kind(w: float | None) -> str:
    """The kind that ``py_pow`` takes of a finite nonzero literal exponent
    ``w``, the only exponents a generated loop prints (any other raises
    ``NotImplementedError``)."""
    if not w or not math.isfinite(w):
        raise NotImplementedError(f"a power with exponent {w!r}, not a finite nonzero literal")
    if not w.is_integer():
        return "POW_FRACTION"
    return "POW_ODD" if math.fmod(abs(w), 2.0) == 1.0 else "POW_EVEN"


class _Translator:
    """C text of the ``while`` statement of a generated function."""

    def __init__(self, text: str, ns: dict, state: dict):
        self.loop, self.locals, _, self.carried = _parse(text)
        self.ns, self.state = ns, state
        self.types: dict[str, str] = {}
        self.buffers: dict[str, int] = {}  # appending name: calls per iteration
        self.arrays: dict[str, tuple] = {}  # table name: (list, flat array), in order
        self.sites = self.labels = 0
        self.lines: list[str] = []
        self._infer_types()

    # -- types ---------------------------------------------------------------

    def _infer_types(self):
        """Name types: 'f' float, 'i' int, 'n' an int from ``math.floor``
        (held in a double); seeded by the values the loop carries in and
        unified over the loop's assignments to a fixed point."""
        for name in self.carried:
            kind = _value_type(self.state.get(name))
            if kind is not None:
                self.types[name] = kind
        assigned = []
        for node in ast.walk(self.loop):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Tuple):
                    assigned += [(t, None) for t in target.elts]
                else:
                    assigned.append((target, node.value))
            elif isinstance(node, ast.AugAssign):
                assigned.append((node.target, _augmented(node)))
            elif isinstance(node, ast.Assign):
                raise NotImplementedError("chained assignment")
        changed = True
        while changed:
            changed = False
            for target, value in assigned:
                if not isinstance(target, ast.Name):
                    raise NotImplementedError(ast.dump(target))
                kind = "f" if value is None else self._type(value, strict=False)
                old = self.types.get(target.id)
                new = old if kind is None else kind if old is None else _unify(old, kind, target.id)
                if new != old:
                    self.types[target.id], changed = new, True

    def _type(self, node, strict=True):
        """The type of an expression ('b' for a truth value), None where an
        operand's type is not known yet (with ``strict``, that raises)."""
        def t(n):
            return self._type(n, strict)

        if isinstance(node, ast.Constant):
            return _value_type(node.value)
        if isinstance(node, ast.Name):
            if node.id not in self.locals:
                return _value_type(self.ns[node.id])
            if strict and self.types.get(node.id) not in ("f", "i", "n"):
                raise NotImplementedError(f"no number in {node.id!r}")
            return self.types.get(node.id)
        if isinstance(node, ast.UnaryOp):
            return "b" if isinstance(node.op, ast.Not) else t(node.operand)
        if isinstance(node, ast.BinOp):
            a, b = t(node.left), t(node.right)
            if a is None or b is None:
                return None
            return "f" if "f" in (a, b) or isinstance(node.op, ast.Div) else a
        if isinstance(node, ast.Compare):
            return "b"
        if isinstance(node, ast.IfExp):
            a, b = t(node.body), t(node.orelse)
            return _unify(a, b, "a conditional expression") if a and b else None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return _FUNCS.get(self.ns.get(node.func.id), (None, None))[1]
        raise NotImplementedError(ast.dump(node))

    # -- expressions -------------------------------------------------------------

    def expr(self, node) -> str:
        """C text of an expression.  Each raising operation is numbered
        after its operands, in Python's order of evaluation."""
        if isinstance(node, ast.Constant):
            return _literal(node.value)
        if isinstance(node, ast.Name):
            self._type(node)
            return f"v_{node.id}" if node.id in self.locals else _literal(self.ns[node.id])
        if isinstance(node, ast.UnaryOp):
            kind, operand = self._type(node.operand), self.expr(node.operand)
            if isinstance(node.op, ast.USub) and kind in ("f", "i"):
                return f"(-{operand})"
            if isinstance(node.op, ast.Not) and kind == "b":
                return f"(!{operand})"
        elif isinstance(node, ast.BinOp):
            kinds = (self._type(node.left), self._type(node.right))
            a, b = self.expr(node.left), self.expr(node.right)
            op = type(node.op)
            if set(kinds) <= {"f", "i"} and op in _BINOPS:
                return f"({a} {_BINOPS[op]} {b})"
            c = self._number(node.right)
            if set(kinds) <= {"f", "i"} and op is ast.Div:
                return f"({a} / {_literal(c)})" if c else f"py_div(&ex, {self._site()}, {a}, {b})"
            if kinds[0] == "f" and kinds[1] in ("f", "i"):
                if op is ast.Pow:
                    return f"py_pow(&ex, {self._site()}, {a}, {b}, {_pow_kind(c)})"
                if op is ast.Mod and c:
                    return f"py_rem({a}, {b})"
        elif isinstance(node, ast.Compare):
            sides = (node.left, *node.comparators)
            if len(sides) == 2 and type(node.ops[0]) in _CMPOPS and all(
                    self._type(s) in ("f", "i", "n") for s in sides):
                a, b = (self.expr(s) for s in sides)
                return f"({a} {_CMPOPS[type(node.ops[0])]} {b})"
        elif isinstance(node, ast.IfExp):
            self._type(node)
            if self._type(node.test) == "b":
                test, a, b = self.expr(node.test), self.expr(node.body), self.expr(node.orelse)
                return f"({test} ? {a} : {b})"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            fn = _FUNCS.get(self.ns.get(node.func.id))
            if fn and not node.keywords and all(self._type(a) in ("f", "i") for a in node.args):
                args = [self.expr(a) for a in node.args]
                if fn[0] == "py_fpow":
                    args.append(_pow_kind(self._number(node.args[-1])))
                return f"{fn[0]}(&ex, {self._site()}, {', '.join(args)})"
        raise NotImplementedError(ast.dump(node))

    def _number(self, node) -> float | None:
        """The value of an operand the C text prints as a literal (a number,
        a global number or the negation of one) as a float, else None."""
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value = self._number(node.operand)
            return None if value is None else -value
        if isinstance(node, ast.Constant):
            value = node.value
        elif isinstance(node, ast.Name) and node.id not in self.locals:
            value = self.ns.get(node.id)
        else:
            return None
        return float(value) if _value_type(value) else None

    def _site(self) -> int:
        self.sites += 1
        return self.sites

    def value(self, node, kind, depth, handler) -> str:
        """C text of an expression of type ``kind``; if it may raise, its
        value is first stored in a temporary and a recorded exception jumps
        to ``handler``."""
        if self._type(node) != kind and {self._type(node), kind} != {"i", "n"}:
            raise NotImplementedError(f"{ast.dump(node)} is not of type {kind!r}")
        first = self.sites
        text = self.expr(node)
        if self.sites == first:
            return text
        temp = {"b": "t_b", "i": "t_i"}.get(kind, "t_f")
        self.emit(f"{temp} = {text};", depth)
        self.emit(f"if (ex.kind) goto {handler};", depth)
        return temp

    # -- statements ------------------------------------------------------------

    def emit(self, line, depth):
        self.lines.append("    " * depth + line)

    def block(self, body, depth, handler):
        for node in body:
            self.stmt(node, depth, handler)

    def stmt(self, node, depth, handler):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Tuple):
            self.unpack(node.targets[0], node.value, depth, handler)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            target = node.targets[0] if isinstance(node, ast.Assign) else node.target
            kind = self.types.get(target.id)
            value = node.value if isinstance(node, ast.Assign) else _augmented(node)
            self.emit(f"v_{target.id} = {self.value(value, kind, depth, handler)};", depth)
        elif isinstance(node, ast.If):
            self.emit(f"if ({self.value(node.test, 'b', depth, handler)}) {{", depth)
            self.block(node.body, depth + 1, handler)
            if node.orelse:
                self.emit("} else {", depth)
                self.block(node.orelse, depth + 1, handler)
            self.emit("}", depth)
        elif isinstance(node, ast.Try):
            self.try_(node, depth, handler)
        elif isinstance(node, (ast.Break, ast.Continue)):
            self.emit(f"{type(node).__name__.lower()};", depth)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            self.call(node.value, depth, handler)
        elif not isinstance(node, ast.Pass):
            raise NotImplementedError(ast.dump(node))

    def unpack(self, target, value, depth, handler):
        """``a, b, ... = TABLE[i]``: a row of a global list of float tuples."""
        names = [t.id for t in target.elts]
        if not (isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name)
                and value.value.id not in self.locals):
            raise NotImplementedError(ast.dump(value))
        table = self.ns[value.value.id]
        if value.value.id not in self.arrays:  # checked and flattened once
            self.arrays[value.value.id] = table, _flat_table(value.value.id, table)
        if len(table[0]) != len(names):
            raise NotImplementedError(f"{len(names)} names for rows of {len(table[0])}")
        index = self.value(value.slice, "n" if self._type(value.slice) == "n" else "i",
                           depth, handler)
        k = list(self.arrays).index(value.value.id)
        self.emit(f"t_r = py_row(&ex, {self._site()}, tab{k}, {len(table)}, {len(names)}, {index});",
                  depth)
        self.emit(f"if (ex.kind) goto {handler};", depth)
        for j, name in enumerate(names):
            self.emit(f"v_{name} = t_r[{j}];", depth)

    def try_(self, node, depth, handler):
        """``try``/``except`` as a block whose recorded exceptions jump to
        the handlers' tests; one that none catches goes on to ``handler``."""
        if node.orelse or node.finalbody:
            raise NotImplementedError("try with else or finally")
        self.labels += 1
        label = f"try{self.labels}"
        self.block(node.body, depth, f"{label}_except")
        self.emit(f"goto {label}_end;", depth)
        self.emit(f"{label}_except:", depth - 1)
        for h in node.handlers:
            if h.name is not None or not isinstance(h.type, ast.Name):
                raise NotImplementedError(ast.dump(h))
            caught = self.ns.get(h.type.id) or getattr(builtins, h.type.id)
            kinds = [k for k, e in enumerate(_EXCEPTIONS, 1) if issubclass(e, caught)]
            test = " || ".join(f"ex.kind == {k}" for k in kinds) or "0"
            self.emit(f"if ({test}) {{", depth)
            self.emit("ex.kind = 0;", depth + 1)
            self.block(h.body, depth + 1, handler)
            self.emit(f"goto {label}_end;", depth + 1)
            self.emit("}", depth)
        self.emit(f"goto {handler};", depth)
        self.emit(f"{label}_end: ;", depth - 1)

    def call(self, node, depth, handler):
        """A call statement ``x_append(v)`` of a local ``array('d')``'s
        ``append``, with a float or an int ``v``: a double in the buffer of
        ``x_append``."""
        name = node.func.id if isinstance(node.func, ast.Name) else None
        fn = self.state.get(name) if name in self.carried else None
        if not (_is_append(fn) and len(node.args) == 1 and not node.keywords):
            raise NotImplementedError(ast.dump(node))
        kind = self._type(node.args[0])
        if kind not in ("f", "i", "n"):
            raise NotImplementedError(f"appending {ast.dump(node.args[0])}")
        self.buffers[name] = self.buffers.get(name, 0) + 1
        k = list(self.buffers).index(name)
        self.emit(f"b{k}[n{k}++] = {self.value(node.args[0], kind, depth, handler)};", depth)

    # -- the function --------------------------------------------------------------

    def program(self) -> _Program:
        first = self.sites
        test = self.expr(self.loop.test)
        if self.sites != first or self._type(self.loop.test) != "b":
            raise NotImplementedError("the loop test must be a comparison that cannot raise")
        self.block(self.loop.body, 2, "raise_out")
        body, self.lines = self.lines, []
        floats = sorted(v for v, k in self.types.items() if k in ("f", "n"))
        ints = sorted(v for v, k in self.types.items() if k == "i")
        if set(self.types.values()) - {"f", "n", "i"}:
            raise NotImplementedError(f"names of types {set(self.types.values())}")
        full = " || ".join(f"n{k} + {sites} > {CHUNK}"
                           for k, sites in enumerate(self.buffers.values()))
        nan = "0x%016xULL" % struct.unpack("<Q", struct.pack("<d", math.nan))[0]
        lines = [
            _PRELUDE % {"nan": nan},
            "int loop(double *F, long long *I, double **B, long long *N, double **T,",
            "         double *E)",
            "{",
            "    exc_t ex = {0, 0, 0, 0.0, 0.0};",
            "    int status = 0, t_b;",
            "    long long t_i;",
            "    double t_f;",
            "    const double *t_r;",
            *(f"    double v_{v} = F[{j}];" for j, v in enumerate(floats)),
            *(f"    long long v_{v} = I[{j}];" for j, v in enumerate(ints)),
            *(f"    double *b{k} = B[{k}];\n    long long n{k} = N[{k}];"
              for k in range(len(self.buffers))),
            *(f"    const double *tab{k} = T[{k}];" for k in range(len(self.arrays))),
            f"    while ({test}) {{",
            *([f"        if ({full}) {{", "            status = 1;", "            break;",
               "        }"] if full else []),
            *body,
            "    }",
            "    goto store;",
            "raise_out:",
            "    status = 2;",
            "    E[0] = ex.kind;",
            "    E[1] = ex.op;",
            "    E[2] = ex.a;",
            "    E[3] = ex.b;",
            "store:",
            *(f"    F[{j}] = v_{v};" for j, v in enumerate(floats)),
            *(f"    I[{j}] = v_{v};" for j, v in enumerate(ints)),
            *(f"    N[{k}] = n{k};" for k in range(len(self.buffers))),
            "    return status;",
            "}",
            "",
        ]
        return _Program(c="\n".join(lines), types=self.types, floats=floats, ints=ints,
                        tables=list(self.arrays), buffers=self.buffers, arrays=self.arrays)


def _augmented(node: ast.AugAssign) -> ast.BinOp:
    """``x op= v`` as the expression ``x op v`` it assigns (on floats and
    ints the in-place operators are the binary ones)."""
    return ast.BinOp(ast.Name(node.target.id, ast.Load()), node.op, node.value)
