"""Quasi-trigonometric functions: identity, symmetry, period."""

import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from horizon.quasitrig import cssn, period, table


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


_COLD_PATH = """
import json, sys
import horizon.cli
from horizon import casebook, quasitrig
casebook.run_case("iy")
casebook.run_case("andrews2")
polynomial = "scipy" in sys.modules
casebook.get_case("lienard").definition({"n": 3})
tab = quasitrig.table(4)
resid = max(abs(c**8 + 4 * s * s - 1.0) for c, s in zip(tab.cs, tab.sn))
print(json.dumps({"polynomial": polynomial, "lienard": "scipy" in sys.modules,
                  "resid": resid}))
"""


def test_scipy_loaded_only_for_quasipolar_charts():
    """Polynomial-chart runs never import scipy; a quasi-polar chart does,
    on its first table or period, and its table is still correct."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PATH], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["polynomial"] is False
    assert out["lienard"] is True
    assert out["resid"] <= 1e-10  # DOP853 at rtol 1e-13 over one period
