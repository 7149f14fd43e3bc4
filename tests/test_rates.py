"""Rate fitting: synthetic recovery, comparison verdicts, section sampling."""

import math
import warnings

import numpy as np
import pytest

import test_dynamics
from horizon import rates
from horizon.dynamics import accumulate_time, integrate
from horizon.errors import CollinearityWarning, InsufficientSpanError
from horizon.rates import RateModel, compare_rate, fit_rate, phase_section_sampler


def synthetic(rho, q, C=3.0, lo=1e-10, hi=1e-2, n=200):
    s = np.geomspace(lo, hi, n)
    y = C * s ** (-rho) * np.log(1.0 / s) ** q
    return s, y


class TestFitRate:
    def test_pure_power_law(self):
        s, y = synthetic(0.75, 0.0, lo=1e-9, hi=1e-3)
        fit = fit_rate(s, y)
        assert fit.rho == pytest.approx(0.75, abs=1e-3)
        assert fit.q == pytest.approx(0.0, abs=0.05)

    def test_grid_recovery(self):
        for rho in (0.0, 1 / 3, 0.5, 1.0, 2.0):
            for q in (-0.5, -0.25, 0.0, 0.25, 0.5):
                s, y = synthetic(rho, q)
                fit = fit_rate(s, y)
                assert abs(fit.rho - rho) <= 1e-3, (rho, q, fit)
                assert abs(fit.q - q) <= 5e-2, (rho, q, fit)

    def test_negative_rho_edge_exponent(self):
        # vanishing observable y ~ s^(4/7)
        s, y = synthetic(-4 / 7, 0.0)
        fit = fit_rate(s, y)
        assert fit.rho == pytest.approx(-4 / 7, abs=1e-3)

    def test_window_halving_stability(self, monkeypatch):
        s, y = synthetic(1.0, 0.5)
        fit = fit_rate(s, y)
        mid = math.sqrt(s.min() * s.max())
        inner = s <= mid
        monkeypatch.setattr(rates, "MIN_SPAN", 10.0)
        fit2 = fit_rate(s[inner], y[inner])
        assert abs(fit2.rho - fit.rho) <= 2e-2

    def test_insufficient_span(self):
        s = np.geomspace(1e-4, 1e-3, 100)
        y = s**-1.0
        with pytest.raises(InsufficientSpanError):
            fit_rate(s, y)
        with pytest.raises(InsufficientSpanError):
            fit_rate(s[:10], y[:10])

    def test_collinearity_warning(self):
        # tiny log-log range: s confined deep below 1 over a narrow band of
        # log(1/s) forces loglog range < 0.5 while still spanning 1e3
        s = np.geomspace(1e-30, 1e-26, 120)
        y = 2.0 * s**-0.5
        with pytest.warns(CollinearityWarning):
            fit = fit_rate(s, y)
        assert fit.collinear_q
        assert fit.q == 0.0
        assert fit.rho == pytest.approx(0.5, abs=1e-3)

    def test_drift_reported(self):
        s, y = synthetic(1.0, 0.0)
        fit = fit_rate(s, y)
        assert fit.drift_rho == pytest.approx(0.0, abs=1e-6)


class TestCompareRate:
    """``compare_rate`` returns the report's verdict dict; its ``detail``
    strings are pinned byte for byte."""

    def test_pass(self):
        s, y = synthetic(1.002, 0.48)
        fit = fit_rate(s, y)
        v = compare_rate(fit, RateModel(1.0, 0.5), 0.05, 0.1, "y")
        assert v == {
            "name": "rate of y",
            "passed": True,
            "detail": "PASS y: rho +1.0020 vs +1.0000 (|d|=0.0020 <= 0.05), "
                      "q +0.4800 vs +0.5000 (|d|=0.0200 <= 0.1)",
            "fitted": {"rho": fit.rho, "q": fit.q},
            "predicted": {"rho": 1.0, "q": 0.5},
        }

    def test_fail_on_q(self):
        s, y = synthetic(0.52, 0.0)
        fit = fit_rate(s, y)
        v = compare_rate(fit, RateModel(0.5, 0.5), 0.05, 0.1, "y")
        assert v["passed"] is False
        assert v["detail"] == ("FAIL y: rho +0.5200 vs +0.5000 (|d|=0.0200 <= 0.05), "
                               "q +0.0000 vs +0.5000 (|d|=0.5000 <= 0.1)")

    def test_pinned_q_is_reported_as_pinned(self):
        s = np.geomspace(1e-30, 1e-26, 120)
        with pytest.warns(CollinearityWarning):
            fit = fit_rate(s, 2.0 * s**-0.5)
        v = compare_rate(fit, RateModel(0.5, 0.0), 0.05, 0.1, "y")
        assert v["passed"] is True
        assert v["detail"] == ("PASS y: rho +0.5000 vs +0.5000 (|d|=0.0000 <= 0.05), "
                               "q pinned to 0 (not fitted) vs +0.0000 (|d|=0.0000 <= 0.1)")
        free = compare_rate(fit_rate(*synthetic(1.0, 0.5)), RateModel(1.0, 0.5), 0.05, 0.1, "y")
        assert "pinned" not in free["detail"] and " q +0.5" in free["detail"]

    def test_predicted_pair_for_three_species_case(self):
        # coefficient ratios: rho(u1) = 2a/(2a+a1), rho(u2) = a1/(2a+a1)
        a, a1 = 0.25, 1.0
        assert 2 * a / (2 * a + a1) == pytest.approx(1 / 3)
        assert a1 / (2 * a + a1) == pytest.approx(2 / 3)
        s, y = synthetic(1 / 3, 0.0)
        fit = fit_rate(s, y)
        v = compare_rate(fit, RateModel(1 / 3, 0.0), 0.03, 0.1, "u1")
        assert v["passed"] is True and v["name"] == "rate of u1"
        assert v["predicted"] == {"rho": 1 / 3, "q": 0.0}


class TestPhaseSectionSampler:
    def test_rotationally_symmetric_decay(self, monkeypatch):
        # the l = 1 quasi-polar chart of (x^2 + y^2)(x - y, x + y): r' = -r,
        # theta' = 1 and dt/dtau = r^2, so t_max - t = r^2 / 2 = e^(-2 tau) / 2
        C = test_dynamics.spiral_chart("x^3 - x^2*y + x*y^2 - y^3",
                                       "x^3 + x^2*y + x*y^2 + y^3", k=2)
        test_dynamics.assert_chart_is(C, "-r", "1", "r^2")
        traj = integrate(C, [1.0, 0.0], 50.0,
                         stop_at_equilibrium=False, rtol=1e-11, atol=1e-13)
        # under 8 crossings accumulate_time fits the per-step integrand
        assert len(traj.sections) == 7
        est = accumulate_time(traj)
        s, r, t = phase_section_sampler(traj, est)
        # s is exact even where it is ~3e-28 (suffix summation keeps
        # relative accuracy)
        assert np.allclose(s[:-2], r[:-2] ** 2 / 2, rtol=1e-6)
        # the columns' array expression is the per-crossing loop bit for bit
        suffix = np.concatenate([np.cumsum(traj.dt_inc[::-1])[::-1], [0.0]])
        per_crossing = [suffix[step] - partial + est.tail
                        for step, partial in zip(traj.sections["step"].tolist(),
                                                 traj.sections["partial"].tolist())]
        assert s.tobytes() == np.asarray(per_crossing).tobytes()
        monkeypatch.setattr(rates, "MIN_SPAN", 10.0)
        fit = fit_rate(s[:-2], 1.0 / r[:-2], min_samples=5)
        assert fit.rho == pytest.approx(0.5, abs=1e-3)
