"""The (1,l)-quasi-trigonometric functions Cs, Sn.

Cs and Sn solve  Cs' = -Sn,  Sn' = Cs^(2l-1)  with Cs(0)=1, Sn(0)=0, satisfy
the algebraic identity  Cs^(2l) + l*Sn^2 = 1,  and are T-periodic.  l = 1
gives the circular functions.  Quasi-polar charts and the periodic-orbit
coefficient quadratures evaluate these heavily, so values come from a dense
precomputed table with Hermite interpolation (the derivatives are known in
closed form), not from per-call integration.  The lookup is printed as
Python text of float operations only (``%``, ``math.floor``, float
products and sums), which the DP5 loop inlines in every stage.

The period is computed independently of the table, by quadrature of the
Beta-type integral; the first-return time of the ODE serves as a cross-check
in the tests.

The table's DOP853 integration and the period's QUADPACK quadrature are the
ports in :mod:`horizon._dop853_qags`, which reproduce
``scipy.integrate.solve_ivp`` and ``scipy.integrate.quad`` bit for bit
without importing scipy; the tests compare them with scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from ._dop853_qags import dop853, qags

__all__ = ["QuasiTrigTable", "cssn", "period", "table"]

_NODES = 8192


def period(l: int) -> float:
    """Period T of the (1,l)-quasi-trigonometric pair.

    T = (2/sqrt(l)) * integral_0^1 (1-t)^(-1/2) t^((1-2l)/(2l)) dt.  The
    substitutions t = s^(2l) followed by s = 1-u^2 remove both endpoint
    singularities, leaving a smooth integrand (:func:`_period_integrand`)
    for plain adaptive quadrature.  A quadrature that ends with a QUADPACK
    error code raises ``ValueError``.
    """
    if l < 1 or int(l) != l:
        raise ValueError("l must be a positive integer")
    l = int(l)
    if l == 1:
        return 2.0 * math.pi
    val, err, _, ier, _ = qags(_period_integrand(l), 0.0, 1.0, 1e-14, 1e-12, 200)
    if ier != 0:
        raise ValueError(f"period quadrature for l={l} ended with QUADPACK ier={ier} "
                         f"(value {val!r}, error estimate {err!r})")
    return 2.0 / math.sqrt(l) * val


def _period_integrand(l: int) -> Callable[[float], float]:
    """The smooth integrand over [0, 1] whose integral is sqrt(l)/2 * T."""

    def smooth(u):
        s = 1.0 - u * u
        return 4.0 * l * u / math.sqrt(1.0 - s ** (2 * l))

    return smooth


@dataclass(frozen=True)
class QuasiTrigTable:
    """Dense samples of (Cs, Sn) over one period with Hermite evaluation.

    Scalar lookups read Python-float copies of the nodes and of the node
    derivatives (exact: Cs' = -Sn, Sn' = Cs^(2l-1), scaled by the spacing),
    grouped per interval after the interval's left end.  :meth:`lookup_source`
    is the single text of the Hermite formula; it is exec-compiled into
    :meth:`lookup` and inlined by the chart-rhs printer
    (:meth:`horizon.compactify.ChartField.rhs_source`).
    Both build the node lists on first use, not with the table.
    """

    l: int
    T: float
    cs: np.ndarray
    sn: np.ndarray

    @cached_property
    def lookup_globals(self) -> dict:
        """Names read by :meth:`lookup_source` statements."""
        h = self.T / _NODES
        m = 2 * self.l - 1
        cs, sn = self.cs.tolist(), self.sn.tolist()
        dc = [-h * s for s in sn]
        ds = [h * c**m for c in cs]
        # per interval i: its left end i*h, then (Cs, Cs', Sn, Sn') at nodes
        # i and i+1
        ends = list(zip(cs, dc, sn, ds))
        intervals = [(i * h, *a, *b) for i, (a, b) in enumerate(zip(ends, ends[1:]))]
        return {"_floor": math.floor, "_HERMITE_NODES": intervals}

    @cached_property
    def lookup(self) -> Callable[[float], tuple[float, float]]:
        """Scalar (Cs(theta), Sn(theta)) for a Python float theta."""
        body = self.lookup_source("theta", "cs", "sn") + ["return cs, sn"]
        src = "def lookup(theta):\n" + "".join(f"    {line}\n" for line in body)
        ns = dict(self.lookup_globals)
        exec(compile(src, f"<quasitrig l={self.l}>", "exec"), ns)
        return ns["lookup"]

    def lookup_source(self, theta: str, cs: str, sn: str) -> list[str]:
        """Statements, one unindented line each, assigning (Cs, Sn) at the
        angle expression ``theta`` to the names ``cs`` and ``sn``; they read
        :attr:`lookup_globals`.

        The arithmetic is that of cubic Hermite interpolation on the node
        interval containing theta mod T, with weights shared by Cs and Sn.
        Every operation is a float operation: ``theta % T`` is ``fmod`` plus
        T on a negative remainder (and +0.0 for a zero one), the interval
        index is the floor of a nonnegative quotient, the interval's left end
        ``i*h`` is read from the table and the weights' constants are float
        literals.  A NaN or infinite angle raises ``ValueError`` in the
        floor.
        """
        T = self.T
        h = T / _NODES
        return [
            f"_x = ({theta}) % {T!r}",
            f"_i = _floor(_x / {h!r})",
            f"if _i >= {_NODES}:",
            f"    _i = {_NODES - 1}",
            "_b, _c0, _dc0, _s0, _ds0, _c1, _dc1, _s1, _ds1 = _HERMITE_NODES[_i]",
            f"_u = (_x - _b) / {h!r}",
            "_u2 = _u * _u",
            "_u3 = _u2 * _u",
            "_w0 = 2.0 * _u3 - 3.0 * _u2 + 1.0",
            "_w1 = _u3 - 2.0 * _u2 + _u",
            "_w2 = -2.0 * _u3 + 3.0 * _u2",
            "_w3 = _u3 - _u2",
            f"{cs} = _w0 * _c0 + _w1 * _dc0 + _w2 * _c1 + _w3 * _dc1",
            f"{sn} = _w0 * _s0 + _w1 * _ds0 + _w2 * _s1 + _w3 * _ds1",
        ]


@lru_cache(maxsize=None)
def table(l: int) -> QuasiTrigTable:
    """Build (and cache) the sampled table for index l: DOP853 at
    ``rtol=1e-13``, ``atol=1e-14`` over one period, read at the nodes."""
    l = int(l)
    T = period(l)
    m = 2 * l - 1

    def rhs(y):
        return np.array([-y[1], y[0] ** m])

    nodes = np.linspace(0.0, T, _NODES + 1)
    vals = dop853(rhs, [1.0, 0.0], T, 1e-13, 1e-14, nodes)
    cs = np.ascontiguousarray(vals[0])
    sn = np.ascontiguousarray(vals[1])
    # pin the endpoints to the exact periodic values
    cs[-1], sn[-1] = 1.0, 0.0
    return QuasiTrigTable(l, T, cs, sn)


def cssn(theta, l: int):
    """(Cs(theta), Sn(theta)) of the (1,l) pair at a number theta."""
    return table(l).lookup(float(theta))
