"""Integrator and physical-time reconstruction against closed-form oracles."""

import array
import dis
import math
import sys
import warnings
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from horizon import native
from horizon.casebook import get_case
from horizon.compactify import (
    base_field,
    desingularize,
    directional_compactify,
    quasi_polar_compactify,
    time_rescale,
)
from horizon.dynamics import (
    _build_traj,
    _loop_fn,
    _suffix_sums,
    accumulate_time,
    integrate,
    remaining_time,
    trajectory_to_csv,
)
from horizon.errors import AmbiguousTailError
from horizon.genpoly import GenMonomial, GenPoly, parse_genpoly
from horizon.structure import TypeVector
from oracles import concatenated_suffix_sums, concatenated_times


def gp(text, vars):
    return parse_genpoly(text, vars)


def aiu_chart():
    vars = ("u0", "u1")
    C = base_field(
        vars,
        [gp("u1 * u0^(-2)", vars), gp("u1^2 * u0^(-1)", vars)],
        positive=vars,
        name="aiu",
    )
    D = desingularize(directional_compactify(C, TypeVector.make((0, 1), 1), "u1"), 1)
    return time_rescale(D, GenMonomial.make(1, {"u0": 2}))


class TestAgainstClosedForms:
    def test_rescaled_inverse_power_flow(self):
        # dx/dtau = 1, dr/dtau = -r x from (r, x) = (1, 1):
        # x = tau + 1, r = e^(1/2) e^(-(tau+1)^2/2)
        C = aiu_chart()
        traj = integrate(C, [1.0, 1.0], 5.0, rtol=1e-12, atol=1e-14,
                         stop_at_equilibrium=False)
        r_end, x_end = traj.states[-1]
        assert x_end == pytest.approx(6.0, abs=1e-8)
        assert r_end == pytest.approx(math.e**0.5 * math.exp(-18.0), rel=1e-8)

    def test_linear_diagonal_field(self):
        vars = ("x", "y")
        C = base_field(vars, [gp("-x", vars), gp("2*y", vars)], name="lin")
        traj = integrate(C, [1.0, 1.0], 3.0, rtol=1e-12, atol=1e-14,
                         stop_at_equilibrium=False)
        x, y = traj.states[-1]
        assert x == pytest.approx(math.exp(-3.0), rel=1e-9)
        assert y == pytest.approx(math.exp(6.0), rel=1e-9)

    def test_harmonic_oscillator_energy_drift(self):
        vars = ("q", "p")
        C = base_field(vars, [gp("p", vars), gp("-q", vars)], name="ho")
        traj = integrate(C, [1.0, 0.0], 100.0, rtol=1e-10, atol=1e-12,
                         stop_at_equilibrium=False)
        E = 0.5 * (traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2)
        assert np.max(np.abs(E - 0.5)) <= 1e-8

    def test_tolerance_halving_sanity(self):
        vars = ("x", "y")
        C = base_field(vars, [gp("y", vars), gp("-x - 1/10*y", vars)], name="d")
        tol = 1e-8
        a = integrate(C, [1.0, 0.0], 20.0, rtol=tol, atol=tol, stop_at_equilibrium=False)
        b = integrate(C, [1.0, 0.0], 20.0, rtol=tol / 2, atol=tol / 2,
                      stop_at_equilibrium=False)
        diff = np.max(np.abs(a.states[-1] - b.states[-1]))
        assert diff < 10 * tol


class TestTermination:
    def test_equilibrium_stop(self):
        vars = ("x",)
        C = base_field(vars, [gp("-x", vars)], name="decay")
        traj = integrate(C, [1.0], 1e6, rtol=1e-10, atol=1e-13)
        assert traj.termination == "converged-to-equilibrium"
        assert abs(traj.states[-1][0]) < 1e-10

    def test_tau_budget(self):
        vars = ("x",)
        C = base_field(vars, [gp("1", vars)], name="drift")
        traj = integrate(C, [0.0], 2.0, stop_at_equilibrium=False)
        assert traj.termination == "tau-budget"
        assert traj.states[-1][0] == pytest.approx(2.0, abs=1e-10)

    def test_short_last_step_still_reaches_tau_end(self):
        # the first step ends 1e-14 short of tau_end; the remainder is below
        # the underflow threshold, but the controller's step is not
        vars = ("x",)
        C = base_field(vars, [gp("1", vars)], name="drift")
        traj = integrate(C, [0.0], 1.0, h0=0.99999999999999, stop_at_equilibrium=False)
        assert traj.termination == "tau-budget"
        assert traj.n_steps == 2 and traj.tau[-1] == 1.0

    def test_step_budget(self):
        cdef = get_case("lienard").definition({"n": 3})
        plan = cdef.runs[0]
        traj = integrate(cdef.chart, plan.initial, plan.tau_end, rtol=plan.rtol,
                         atol=plan.atol, stop_at_equilibrium=False, max_steps=500)
        assert traj.termination == "step-budget"
        assert traj.n_steps == 500
        assert traj.tau[-1] < plan.tau_end

    def test_nan_error_norm_rejects_the_step(self):
        # with a time chain of 1e300 the first increments overflow, so
        # dt5 - dt4 and with it the error norm are NaN: the step is rejected
        # and shrunk until the increments are finite
        vars = ("x",)
        C = base_field(vars, [gp("-x", vars)], prefactor=GenPoly.const(vars, 1e300),
                       name="huge-chain")
        traj = integrate(C, [1.0], 1e20, h0=1e10, max_steps=3,
                         stop_at_equilibrium=False)
        assert traj.n_steps == 3 and traj.n_rejected > 0
        assert np.all(np.isfinite(traj.dt_inc)) and np.all(np.isfinite(traj.t))

    @pytest.mark.parametrize("number,value", [
        ("tau_end", math.nan), ("tau_end", -1.0), ("tau_end", math.inf), ("h_max", math.nan),
        ("h_max", 0.0), ("h_max", -1.0), ("max_steps", -1), ("rtol", math.nan), ("atol", math.nan),
        ("max_steps", 1.5), ("max_steps", math.inf), ("direction", 0), ("direction", 7),
        ("direction", -3),
    ])
    def test_run_numbers_that_make_the_termination_untrue_are_refused(self, number, value):
        # tau_end = nan or -1 ended after 0 steps as 'tau-budget', tau_end =
        # inf ran to the step budget, h_max = nan lifted the step cap, and a
        # direction of 0 or 7 ran forward and -3 backward
        vars = ("x",)
        C = base_field(vars, [gp("-x", vars)], name="decay")
        kw = {"tau_end": 10.0, number: value}
        with pytest.raises(ValueError, match=f"{number} = "):
            integrate(C, [1.0], **kw)

    def test_zero_tau_end_is_a_run_of_no_steps(self):
        vars = ("x",)
        C = base_field(vars, [gp("-x", vars)], name="decay")
        traj = integrate(C, [1.0], 0.0)
        assert traj.termination == "tau-budget" and traj.n_steps == 0

    @pytest.mark.parametrize("h0", [math.nan, math.inf, 0.0, -1e-3])
    def test_initial_step_must_be_finite_and_positive(self, h0):
        # a NaN h0 made every attempt non-finite and the loop never ended
        vars = ("x",)
        C = base_field(vars, [gp("-x", vars)], name="decay")
        with pytest.raises(ValueError, match="initial step"):
            integrate(C, [1.0], 10.0, h0=h0)

    @pytest.mark.parametrize("x0,message", [
        ((math.nan, 1.0), "initial state x0 = (nan, 1.0) is not finite"),
        ((math.inf, 1.0), "initial state x0 = (inf, 1.0) is not finite"),
        ((-math.inf, 1.0), "initial state x0 = (-inf, 1.0) is not finite"),
        ((0.0, math.nan), "field not finite at the initial state (0.0, nan)"),
        ((0.0, -math.inf), "field not finite at the initial state (0.0, -inf)"),
    ], ids=["nan", "inf", "minus-inf", "field-nan", "field-minus-inf"])
    def test_initial_state_must_be_finite(self, x0, message):
        # from (inf, 1) the run ended as 'tau-budget' with an infinite state;
        # from (nan, 1) the first step was NaN and the halving never ended.
        # A non-finite y makes the field -y non-finite, which is named first.
        vars = ("x", "y")
        C = base_field(vars, [gp("1", vars), gp("-y", vars)], name="drift-decay")
        with pytest.raises(ValueError) as err:
            integrate(C, x0, 10.0, max_steps=10)
        assert str(err.value) == message


def spiral_chart(fx, fy, k=0):
    """The l = 1 quasi-polar chart (r, theta) of the planar field (fx, fy)
    of type (1, 1) and order k; its angle period is 2 pi."""
    vars = ("x", "y")
    return quasi_polar_compactify(base_field(vars, [gp(fx, vars), gp(fy, vars)],
                                             name="spiral"), 1, k)


def assert_chart_is(C, dr, dtheta, chain):
    pv = C.poly_vars
    assert C.components == (gp(dr, pv), gp(dtheta, pv))
    assert C.time_chain == (gp(chain, pv),)


def section_fields(n):
    """(name, dtype, shape) of each field of a crossing record on a chart of
    n variables, in order."""
    return [("tau", "<f8", ()), ("state", "<f8", (n,)), ("t", "<f8", ()), ("step", "<i8", ()),
            ("partial", "<f8", ())]


def fields_of(sections):
    """(name, dtype, shape) of each field of the record ``sections``."""
    return [(name, sections.dtype[name].base.str, sections.dtype[name].shape)
            for name in sections.dtype.names]


class TestSections:
    def test_crossings_are_one_record_read_by_column(self):
        # a few revolutions of lienard n=1: one record per crossing
        cdef = get_case("lienard").definition({"n": 1})
        plan = cdef.runs[0]
        traj = integrate(cdef.chart, plan.initial, 60.0, rtol=plan.rtol, atol=plan.atol,
                         h_max=plan.h_max, stop_at_equilibrium=False)
        sec = traj.sections
        assert type(sec) is np.ndarray and sec.shape == (7,)
        assert fields_of(sec) == section_fields(2)
        assert sec["state"].shape == (7, 2) and len(sec[2:]) == 5 and sec[2:].dtype == sec.dtype
        # each crossing falls in its step, and its time is the step's start
        # time plus its partial increment
        step = sec["step"]
        assert (traj.tau[step] < sec["tau"]).all() and (sec["tau"] <= traj.tau[step + 1]).all()
        assert sec["t"].tobytes() == (traj.t[step] + sec["partial"]).tobytes()

    @pytest.mark.parametrize("case,tau_end", [("iy", 1.0), ("lienard", 1.0)],
                             ids=["polynomial", "quasipolar-before-a-crossing"])
    def test_a_run_without_crossings_has_an_empty_record(self, case, tau_end):
        cdef = get_case(case).definition()
        traj = integrate(cdef.chart, cdef.runs[0].initial, tau_end)
        assert traj.sections.shape == (0,) and traj.n_steps > 0
        assert fields_of(traj.sections) == section_fields(2)
        assert traj.sections["state"].shape == (0, 2)

    def test_rotation_sections_reproduce_exponential_decay(self):
        C = spiral_chart("x + y", "-x + y")
        assert_chart_is(C, "-r", "-1", "1")
        traj = integrate(C, [1.0, 0.0], 40.0,
                         stop_at_equilibrium=False, rtol=1e-11, atol=1e-13)
        assert len(traj.sections) >= 5
        for tau_c, st in zip(traj.sections["tau"], traj.sections["state"]):
            assert st[0] == pytest.approx(math.exp(-tau_c), rel=1e-8)
            # crossing located precisely on the section
            assert abs((st[1]) % (2 * math.pi)) <= 1e-9 or \
                abs((st[1]) % (2 * math.pi) - 2 * math.pi) <= 1e-9

    def test_crossing_count_matches_angular_speed_oracle(self):
        C = spiral_chart("x + y", "-x + y")
        tau_end = 50.0
        traj = integrate(C, [1.0, 0.0], tau_end, stop_at_equilibrium=False)
        # theta(tau) = -tau: crossings at tau = 2 pi k
        expected = math.floor(tau_end / (2 * math.pi))
        assert len(traj.sections) == expected

    def test_increasing_angle_crosses_at_positive_multiples(self):
        C = spiral_chart("x - y", "x + y")
        assert_chart_is(C, "-r", "1", "1")
        traj = integrate(C, [1.0, 0.0], 40.0,
                         stop_at_equilibrium=False, rtol=1e-11, atol=1e-13)
        # theta(tau) = tau: crossings at theta = tau = 2 pi j, j = 1, 2, ...
        assert len(traj.sections) == math.floor(40.0 / (2 * math.pi))
        for j, (tau_c, st) in enumerate(zip(traj.sections["tau"], traj.sections["state"]),
                                        start=1):
            assert tau_c == pytest.approx(2 * math.pi * j, rel=1e-9)
            assert st[1] == pytest.approx(2 * math.pi * j, rel=1e-12)
            assert st[0] == pytest.approx(math.exp(-tau_c), rel=1e-8)


class TestAccumulateTime:
    def test_finite_time_for_superexponential_integrand(self):
        # dt/d(eta) = r u0^2 with r = e^(1/2 - (tau+1)^2/2), u0 = tau + 1:
        # t_max = 1 + e^(1/2) sqrt(pi/2) erfc(1/sqrt(2))
        C = aiu_chart()
        traj = integrate(C, [1.0, 1.0], 11.0, rtol=1e-12, atol=1e-14,
                         stop_at_equilibrium=False)
        est = accumulate_time(traj)
        t_exact = 1.0 + math.e**0.5 * math.sqrt(math.pi / 2) * math.erfc(1 / math.sqrt(2))
        assert est.is_finite
        assert est.value == pytest.approx(t_exact, rel=1e-9)

    def test_divergent_harmonic_tail(self):
        # dw/dtau = -w^2, dt/dtau = w, w(0) = 1: integrand (tau+1)^-1 diverges
        vars = ("w",)
        C = base_field(vars, [gp("-w^2", vars)], name="h",
                       prefactor=gp("w", vars))
        traj = integrate(C, [1.0], 5e3, rtol=1e-10, atol=1e-13,
                         stop_at_equilibrium=False, h_max=5.0)
        est = accumulate_time(traj)
        assert not est.is_finite
        assert est.tail_model == "divergent"

    def test_finite_power_tail(self):
        # dw/dtau = -w^2, dt/dtau = w^3: integrand ~ tau^-3, finite tail
        vars = ("w",)
        C = base_field(vars, [gp("-w^2", vars)], name="h",
                       prefactor=gp("w^3", vars))
        traj = integrate(C, [1.0], 2e3, rtol=1e-11, atol=1e-14,
                         stop_at_equilibrium=False, h_max=2.0)
        est = accumulate_time(traj)
        # exact: t_max = int_0^inf (tau+1)^-3 = 1/2
        assert est.is_finite
        assert est.value == pytest.approx(0.5, rel=1e-4)

    def test_growing_integrand_names_its_growth(self):
        # x' = 1 rescaled by x: dx/dtau = x and dt/dtau = x = e^tau, which the
        # exponential model fits exactly; it grows, so there is no finite tail
        C = time_rescale(base_field(("x",), [gp("1", ("x",))], positive=("x",),
                                    name="lin"), GenMonomial.make(1, {"x": 1}))
        traj = integrate(C, [1.0], 20.0)
        with pytest.raises(AmbiguousTailError, match=r"grows like exp\(1 tau\) "
                           r"\(R2\(exp\) = 1\.000000"):
            accumulate_time(traj)

    def test_remaining_time_suffix_accuracy(self):
        C = aiu_chart()
        traj = integrate(C, [1.0, 1.0], 9.0, rtol=1e-12, atol=1e-14,
                         stop_at_equilibrium=False, h_max=0.05)
        est = accumulate_time(traj)
        s = remaining_time(traj, est)
        # s(tau) ~ C' e^(-(tau+1)^2/2) ((tau+1)^2 + ...) via integration by parts;
        # check against high-precision quadrature of the exact integrand
        from scipy.integrate import quad

        for idx in range(len(traj.tau) - 5, len(traj.tau)):
            tau_i = traj.tau[idx]
            exact, _ = quad(
                lambda u: math.e**0.5 * math.exp(-((u + 1) ** 2) / 2) * (u + 1) ** 2,
                tau_i,
                np.inf,
            )
            assert s[idx] == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("p", [F(3, 2), F(2), F(5, 2), F(3), F(5)])
    def test_remaining_time_of_power_blowup(self, p):
        # x' = x^p blows up after s = x^(1-p)/(p-1); in the chart x = 1/r,
        # desingularized by r^(p-1), that is s = r^(p-1)/(p-1) at every sample,
        # down to s below 1e-21 at every p
        C = base_field(("x",), [gp(f"x^({p})", ("x",))], positive=("x",), name="power")
        chart = desingularize(directional_compactify(C, TypeVector.make((1,), p - 1), "x"),
                              p - 1)
        traj = integrate(chart, [1.0], 100.0, rtol=1e-11, atol=1e-12,
                         stop_at_equilibrium=False)
        est = accumulate_time(traj)
        s = remaining_time(traj, est)
        exact = traj.states[:, 0] ** float(p - 1) / float(p - 1)
        assert s.min() < 1e-21
        assert np.all(np.abs(s - exact) <= est.error_bound + 1e-9 * exact)


def test_time_reconstruction_is_chart_invariant():
    # inserting an extra positive rescale must not change the physical time
    # to the singular edge
    C = aiu_chart()
    C2 = time_rescale(C, GenMonomial.make(1, {"u0": 1}))  # extra factor x
    kw = dict(rtol=1e-12, atol=1e-14, stop_at_equilibrium=False)
    # u0 = tau + 1 in C, u0 = e^tau in C2: both runs end past u0 = 12
    t1 = accumulate_time(integrate(C, [1.0, 1.0], 11.0, **kw)).value
    t2 = accumulate_time(integrate(C2, [1.0, 1.0], 3.0, **kw)).value
    assert t2 == pytest.approx(t1, rel=1e-12)


# a planar polynomial: {(i, j): c} is the sum of c x^i y^j
PLANAR_POLY = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                              st.floats(-1.0, 1.0), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(PLANAR_POLY, PLANAR_POLY, st.floats(0.0, 1.0), st.floats(0.0, 1.0))
# the initial step is 1e-14 short of tau_end
@example({(0, 0): 1e-16, (0, 1): 0.01}, {(0, 1): 0.01}, 0.0, 0.0)
# leaves the box: the reference ran 395 s and 1,582,771 steps toward the blow-up
@example({(2, 2): -0.1639219557348286, (0, 2): 0.9561072008935212,
          (2, 0): -0.09194255566674969, (0, 1): 0.9217575935758946},
         {(1, 1): 0.6285890210623859, (0, 2): 0.2810541214464133, (2, 2): 0.9561072008935212},
         0.7131806244677933, 0.42915683934765114)
def test_dp5_matches_dop853_on_random_planar_fields(fx, fy, a, b):
    check_planar_field_against_dop853(fx, fy, a, b)


def check_planar_field_against_dop853(fx, fy, a, b):
    """The chart x' = fx, y' = fy with time chain dt/dtau = 1 + a x^2 + b y^2
    from (0.5, 0.5) over [0, 1], against scipy's DOP853 on the state
    augmented by t; returns the trajectory."""
    vars = ("x", "y")
    comps = [GenPoly(vars, {(F(i), F(j)): c for (i, j), c in f.items()}) for f in (fx, fy)]
    chain = GenPoly(vars, {(F(0), F(0)): 1.0, (F(2), F(0)): a, (F(0), F(2)): b})
    C = base_field(vars, comps, prefactor=chain, name="random")

    def augmented(tau, z):
        x, y = z[0], z[1]
        return [*(sum(c * x**i * y**j for (i, j), c in f.items()) for f in (fx, fy)),
                1.0 + a * x * x + b * y * y]

    def leaves_box(tau, z):
        return 100.0 - np.max(np.abs(z))

    # a run that leaves the box is rejected below: stopping it there spares a
    # field that blows up the reference's millions of steps toward it
    leaves_box.terminal = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # fields that blow up
        ref = solve_ivp(augmented, (0.0, 1.0), [0.5, 0.5, 0.0], method="DOP853",
                        rtol=1e-12, atol=1e-14, events=leaves_box)
    assume(ref.status == 0 and np.all(np.abs(ref.y) <= 100.0))
    traj = integrate(C, [0.5, 0.5], 1.0, rtol=1e-12, atol=1e-14,
                     stop_at_equilibrium=False)
    assert traj.termination == "tau-budget"
    for got, want in zip([*traj.states[-1], traj.t[-1]], ref.y[:, -1]):
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
    return traj


def assert_npz_is_trajectory(path, traj):
    """The .npz at ``path`` holds exactly ``traj``'s tau, t and states, bit for
    bit, and its chart's variable names, and loads without pickle."""
    with np.load(path) as saved:
        assert sorted(saved.files) == ["states", "t", "tau", "vars"]
        for name in ("tau", "t", "states"):
            want = getattr(traj, name)
            assert saved[name].dtype == want.dtype and saved[name].shape == want.shape
            assert saved[name].tobytes() == want.tobytes()
        assert tuple(saved["vars"].tolist()) == traj.chart.vars


def test_npz_export(tmp_path):
    C = aiu_chart()
    traj = integrate(C, [1.0, 1.0], 1.0, stop_at_equilibrium=False)
    out = tmp_path / "traj.npz"
    trajectory_to_csv(traj, out)
    assert_npz_is_trajectory(out, traj)
    with np.load(out) as saved:
        assert saved["vars"].tolist() == ["r", "u0"]


def test_npz_export_of_a_quasipolar_run(tmp_path):
    cdef = get_case("lienard").definition({"n": 1})
    plan = cdef.runs[0]
    traj = integrate(cdef.chart, plan.initial, 50.0, rtol=plan.rtol, atol=plan.atol,
                     stop_at_equilibrium=False)
    assert len(traj.sections) and len(traj.tau) > 100
    out = tmp_path / "lienard.npz"
    trajectory_to_csv(traj, out)
    assert_npz_is_trajectory(out, traj)


@pytest.mark.parametrize("n", [0, 1, 2, 1001, native.CHUNK + 3])
def test_in_place_sums_match_the_concatenated_ones(n):
    # Trajectory.t and the suffix sums are written into preallocated arrays;
    # they are the concatenated sums bit for bit, over increments spread
    # across 1e-300..1
    incs = 10.0 ** np.random.default_rng(n).uniform(-300.0, 0.0, n)
    traj = _build_traj(np.arange(n + 1.0), np.zeros(n + 1), incs, "tau-budget", None, [], n, 0)
    assert traj.t.tobytes() == concatenated_times(incs).tobytes()
    assert _suffix_sums(traj).tobytes() == concatenated_suffix_sums(incs).tobytes()


def test_python_loop_streams_are_float_arrays_the_trajectory_views():
    # 8 bytes a value in the loop, and no copy into the trajectory
    C = get_case("iy").definition().chart
    y = (0.5, 0.5)
    f, g = C.compile_rhs()(y)
    st = _loop_fn(C, 1, None, True)[0](y, f, g, 1e-3, 1.0, 1.0, 1e-8, (1e-10, 1e-10), 100,
                                       None, None)
    streams = [st[k] for k in ("taus", "states", "incs", "rows")]
    assert all(type(a) is array.array and a.typecode == "d" for a in streams)
    traj = _build_traj(*streams[:3], "tau-budget", C, [], st["n_acc"], st["n_rej"])
    for got, stream in zip((traj.tau, traj.states, traj.dt_inc), streams):
        assert np.shares_memory(got, np.frombuffer(stream))


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the counters that decide when a code object is quickened are 3.11's")
@pytest.mark.parametrize("case, stop_at_equilibrium", [("aiu", False), ("iy", True)])
def test_one_call_of_the_python_loop_runs_specialized(case, stop_at_equilibrium):
    # 3.11 quickens a code object after 8 function entries or unconditional
    # backward jumps.  The loop is called once per run, and a run without a
    # rejected step takes no `continue` but the one that ends every iteration
    C = get_case(case).definition().chart
    y = (1.0, 1.0)
    f, g = C.compile_rhs()(y)
    loop = _loop_fn(C, 1, None, stop_at_equilibrium)[0]
    st = loop(y, f, g, 1e-3, 1.0, 1.0, 1e-8, (1e-10, 1e-10), 100, None, None)
    assert st["n_acc"] > 8 and st["n_rej"] == 0
    ops = {i.opname for i in dis.get_instructions(loop, adaptive=True)}
    assert {"BINARY_OP_MULTIPLY_FLOAT", "BINARY_OP_ADD_FLOAT"} <= ops
    assert not [op for op in ops if op.startswith("POP_JUMP_BACKWARD")]
