"""Quasi-trigonometric functions: identity, symmetry, period."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from horizon import _dop853_qags, quasitrig
from horizon.quasitrig import _period_integrand, cssn, period, table
from oracles import scipy_period, scipy_table


def test_initial_values():
    for l in (1, 2, 4):
        c, s = cssn(0.0, l)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert s == pytest.approx(0.0, abs=1e-12)


def test_l1_matches_circular():
    assert period(1) == pytest.approx(2 * math.pi, abs=1e-9)
    rng = np.random.default_rng(0)
    for th in rng.uniform(-10, 10, 200):
        c, s = cssn(th, 1)
        assert c == pytest.approx(math.cos(th), abs=1e-9)
        assert s == pytest.approx(math.sin(th), abs=1e-9)


def test_half_period_symmetry():
    for l in (2, 3, 4):
        T = period(l)
        c, s = cssn(T / 2, l)
        assert c == pytest.approx(-1.0, abs=1e-9)
        assert s == pytest.approx(0.0, abs=1e-9)


def test_algebraic_identity_random_points():
    rng = np.random.default_rng(1)
    for l in (1, 2, 4):
        thetas = rng.uniform(-50, 50, 10_000)
        c, s = np.array([cssn(th, l) for th in thetas.tolist()]).T
        resid = np.abs(c ** (2 * l) + l * s**2 - 1.0)
        assert float(resid.max()) <= 1e-9


def test_parity():
    rng = np.random.default_rng(2)
    for l in (2, 3):
        for th in rng.uniform(0, 20, 100):
            cp, sp = cssn(th, l)
            cm, sm = cssn(-th, l)
            assert cm == pytest.approx(cp, abs=1e-9)
            assert sm == pytest.approx(-sp, abs=1e-9)


def test_periodicity():
    rng = np.random.default_rng(3)
    for l in (2, 4):
        T = period(l)
        for th in rng.uniform(0, 5, 50):
            a = cssn(th, l)
            b = cssn(th + T, l)
            assert a[0] == pytest.approx(b[0], abs=1e-8)
            assert a[1] == pytest.approx(b[1], abs=1e-8)


def test_derivative_finite_difference():
    h = 1e-6
    rng = np.random.default_rng(4)
    for l in (2, 3):
        for th in rng.uniform(0, 10, 50):
            cp, _ = cssn(th + h, l)
            cm, _ = cssn(th - h, l)
            _, s = cssn(th, l)
            assert (cp - cm) / (2 * h) == pytest.approx(-s, abs=1e-6)


def test_period_against_first_return_oracle():
    # independent oracle: integrate the defining ODE until (Cs, Sn) first
    # returns to (1, 0) crossing Sn = 0 upward with Cs > 0
    l = 2
    m = 2 * l - 1

    def rhs(_, y):
        return [-y[1], y[0] ** m]

    def event(_, y):
        return y[1]

    event.direction = 1.0
    event.terminal = False
    T_quad = period(l)
    sol = solve_ivp(
        rhs, (1e-3, 2.5 * T_quad), [*cssn(1e-3, l)], method="DOP853",
        rtol=1e-12, atol=1e-14, events=event,
    )
    returns = [t for t in sol.t_events[0]]
    assert returns, "no first return found"
    T_ode = returns[0] - 1e-3 + 1e-3  # event at theta = T given the shift
    assert abs(T_ode - T_quad) <= 1e-7 * T_quad


@pytest.mark.parametrize("l", range(1, 9))
def test_table_matches_scipy_dop853_bit_for_bit(l):
    ours, ref = table(l), scipy_table(l)
    assert ours.T == ref.T
    assert ours.cs.tobytes() == ref.cs.tobytes()
    assert ours.sn.tobytes() == ref.sn.tobytes()


def test_period_matches_scipy_quadpack_bit_for_bit():
    for l in range(1, 129):
        assert period(l).hex() == scipy_period(l).hex(), l
        if l == 1:
            continue  # 2 pi, no quadrature
        f = _period_integrand(l)
        val, err, neval, ier, last = _dop853_qags.qags(f, 0.0, 1.0, 1e-14, 1e-12, 200)
        ref_val, ref_err, info = quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12,
                                      limit=200, full_output=1)
        assert ier == 0
        assert (val.hex(), err.hex(), neval, last) == (
            ref_val.hex(), ref_err.hex(), info["neval"], info["last"]), l


def test_period_pinned():
    # a scipy release that changes its own routines fails only the oracle
    # comparisons above, not these
    assert period(2).hex() == "0x1.daa4a35759e98p+2"
    assert period(4).hex() == "0x1.29e133e740476p+3"
    assert period(6).hex() == "0x1.5c5ca58fae230p+3"


def test_period_refuses_a_failed_quadrature(monkeypatch):
    monkeypatch.setattr(quasitrig, "qags", lambda *args: (1.0, 0.5, 105, 1, 3))
    with pytest.raises(ValueError, match="ier=1"):
        period(3)


def _log_over_sqrt(x):
    return math.log(x) / math.sqrt(x)


@pytest.mark.parametrize("f,a,b,epsabs,epsrel,limit,ier", [
    # the epsilon-algorithm extrapolation (dqelg) at an endpoint singularity
    (_log_over_sqrt, 0.0, 1.0, 1.49e-8, 1.49e-8, 50, 0),
    (_log_over_sqrt, 0.0, 1.0, 1e-14, 1e-12, 200, 0),
    (lambda x: x ** -0.9, 0.0, 1.0, 1e-10, 0.0, 200, 0),
    # the subdivision limit
    (_log_over_sqrt, 0.0, 1.0, 1.49e-8, 1.49e-8, 3, 1),
    (_log_over_sqrt, 0.0, 1.0, 1.49e-8, 1.49e-8, 1, 1),
    (lambda x: math.sin(30 * x) / (x + 1e-3), 0.0, 2.0, 1e-14, 1e-12, 10, 1),
    # smooth, and a kink
    (lambda x: math.exp(-x * x), -3.0, 5.0, 1e-14, 1e-12, 200, 0),
    (lambda x: abs(x - 0.3), 0.0, 1.0, 1e-14, 1e-12, 200, 0),
])
def test_qags_matches_scipy_quad(f, a, b, epsabs, epsrel, limit, ier, monkeypatch):
    calls = []
    qelg = _dop853_qags._qelg
    monkeypatch.setattr(_dop853_qags, "_qelg", lambda *args: calls.append(1) or qelg(*args))
    val, err, neval, got_ier, last = _dop853_qags.qags(f, a, b, epsabs, epsrel, limit)
    ref = quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit, full_output=1)
    info = ref[2]
    assert (val.hex(), err.hex(), neval, last) == (
        ref[0].hex(), ref[1].hex(), info["neval"], info["last"])
    assert got_ier == ier
    if ier == 0:
        assert len(ref) == 3
    else:
        assert "maximum number of subdivisions" in ref[3]
    if f is _log_over_sqrt and limit > 3:
        assert calls, "dqelg was not reached"


_COLD_PATH = """
import json, sys
import horizon.cli
from horizon import casebook, quasitrig
casebook.run_case("iy")
casebook.run_case("andrews2")
casebook.get_case("lienard").definition({"n": 3})
tab = quasitrig.table(4)
casebook.run_case("lienard", {"n": 1})
resid = max(abs(c**8 + 4 * s * s - 1.0) for c, s in zip(tab.cs, tab.sn))
print(json.dumps({"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "resid": resid}))
"""


def test_no_run_imports_scipy():
    """Neither polynomial-chart nor quasi-polar runs import scipy: the
    lienard definition, its table and a whole lienard run, and the table
    is still correct."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["scipy"] == []
    assert out["resid"] <= 1e-10  # DOP853 at rtol 1e-13 over one period
