"""Acceptance criteria.

Each test prints one PASS/FAIL line per criterion (visible even on success).
Two subchecks are implemented faithfully to their stated numbers and marked
as strict expected failures, with the blocking analysis recorded in the
reviewer notes:

* criterion 1 (q-exponents on the pinned window): the honest least-squares
  fit of the stated model on exact-solution data yields q(u1) = 0.346 and
  q(u0) = 0.394 on s in [1e-9, 1e-3]; the log-log correction converges to
  1/2 like 1/log s, so no implementation can reach 0.5 +- 0.1 on that
  window.  A deep-window companion check shows the fitted q approaching 1/2.
* criterion 5 (quenching edge exponents at alpha = 2): the stated values
  4/7 and 1/7 are inconsistent with the dominant balance of the profile
  equation phi'' ~ -phi^(-alpha) near the edge, whose exact local solution
  forces phi ~ s^(2/(alpha+1)) = s^(2/3) and |psi| ~ s^(-1/3); the pipeline
  measures the balance-consistent exponents to 4 decimals.
"""

import math
import time
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from horizon.casebook import get_case, run_case
from horizon.dynamics import accumulate_time, integrate, remaining_time
from horizon.localanalysis import center_manifold_series_1d, horizon_orbit
from horizon.rates import fit_rate
from oracles import h_coefficient, lienard_coefficients

warnings.filterwarnings("ignore", message=".*q is indeterminate.*")


def _say(capsys, text):
    with capsys.disabled():
        print(text)


def _verdict_map(report):
    out = {}
    for run in report.runs:
        for v in run.get("verdicts", []):
            if "fitted" in v:
                out[(run["label"], v["name"])] = v
    return out


def _fit(report, label_contains, obs):
    for run in report.runs:
        if label_contains in run["label"]:
            for f in run["fits"]:
                if f["observable"] == obs:
                    return f
    raise KeyError((label_contains, obs))


# -- criterion 1: AIU ---------------------------------------------------------


@pytest.fixture(scope="module")
def aiu_report():
    t0 = time.perf_counter()
    rep = run_case("aiu")
    rep.wallclock_s = time.perf_counter() - t0
    return rep


def test_criterion_1_aiu_power_exponents_and_runtime(aiu_report, capsys):
    f1 = _fit(aiu_report, "blow-up", "u1")
    f0 = _fit(aiu_report, "blow-up", "u0")
    ok = (
        abs(f1["rho"] - 1.0) <= 0.05
        and abs(f0["rho"] - 0.0) <= 0.05
        and aiu_report.wallclock_s <= 30.0
    )
    _say(capsys,
         f"ACCEPT 1a [aiu rho(u1)=1, rho(u0)=0 on s in [1e-9,1e-3]; "
         f"runtime<=30s]: {'PASS' if ok else 'FAIL'} "
         f"(rho1={f1['rho']:+.4f}, rho0={f0['rho']:+.4f}, "
         f"t={aiu_report.wallclock_s:.1f}s)")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="log-log exponent converges like 1/log s: the stated window "
           "[1e-9,1e-3] mathematically yields q(u1)=0.35, q(u0)=0.39 "
           "(verified against the closed-form solution); 0.5 +- 0.1 is "
           "unattainable there. See the deep-window companion check.",
)
def test_criterion_1_aiu_log_exponents_on_pinned_window(aiu_report, capsys):
    f1 = _fit(aiu_report, "blow-up", "u1")
    f0 = _fit(aiu_report, "blow-up", "u0")
    ok = abs(f1["q"] - 0.5) <= 0.1 and abs(f0["q"] - 0.5) <= 0.1
    _say(capsys,
         f"ACCEPT 1b [aiu q(u1)=q(u0)=1/2 +- 0.1 on s in [1e-9,1e-3]]: "
         f"{'PASS' if ok else 'FAIL'} "
         f"(q1={f1['q']:+.4f}, q0={f0['q']:+.4f}; see notes: window too "
         f"shallow for the stated tolerance)")
    assert ok


def test_criterion_1_companion_deep_window_convergence(capsys):
    # the fitted q approaches 1/2 from below as the window deepens
    cdef = get_case("aiu").definition()
    traj = integrate(cdef.chart, cdef.runs[0].initial, 16.0, rtol=1e-12,
                     atol=1e-13, h_max=0.02, stop_at_equilibrium=False)
    est = accumulate_time(traj)
    s = remaining_time(traj, est)
    u1 = np.array([1.0 / st[0] for st in traj.states])
    qs = []
    for lo, hi in [(1e-9, 1e-3), (1e-25, 1e-9), (1e-48, 1e-20)]:
        sel = (s >= lo) & (s <= hi)
        qs.append(fit_rate(s[sel], u1[sel]).q)
    ok = qs[0] < qs[1] < qs[2] and qs[2] > 0.42
    _say(capsys,
         f"ACCEPT 1c [companion: q(u1) climbs toward 1/2 with window depth]: "
         f"{'PASS' if ok else 'FAIL'} (q = {qs[0]:.3f} -> {qs[1]:.3f} -> "
         f"{qs[2]:.3f})")
    assert ok


# -- criterion 2: IY ----------------------------------------------------------


def test_criterion_2_iy(capsys):
    rep = run_case("iy", {"a": F(1, 2)})
    gen = _fit(rep, "generic", "v0")
    sym = _fit(rep, "symmetric", "v0")
    ok = (
        abs(gen["rho"] - 0.5) <= 0.03
        and abs(gen["q"]) <= 0.1
        and abs(sym["rho"] - 1 / 3) <= 0.03
    )
    _say(capsys,
         f"ACCEPT 2 [iy a=1/2: generic rho=0.50+-0.03 q=0+-0.1; symmetric "
         f"rho=1/3+-0.03]: {'PASS' if ok else 'FAIL'} "
         f"(generic rho={gen['rho']:+.4f} q={gen['q']:+.4f}, "
         f"symmetric rho={sym['rho']:+.4f})")
    assert ok


# -- criterion 3: Andrews-1 ----------------------------------------------------


def test_criterion_3_andrews1(capsys):
    rep_hi = run_case("andrews1", {"a": 0.75})
    f1 = _fit(rep_hi, "a=0.75", "u1")
    f0 = _fit(rep_hi, "a=0.75", "u0")
    ok_hi = (
        abs(f1["rho"] - 0.5) <= 0.05 and abs(f1["q"] - 0.5) <= 0.15
        and abs(f0["rho"] - 0.5) <= 0.05 and abs(f0["q"] + 0.5) <= 0.15
    )
    rep_c = run_case("andrews1", {"a": 0.5})
    g1 = _fit(rep_c, "a=0.5", "u1")
    g0 = _fit(rep_c, "a=0.5", "u0")
    ok_c = abs(g1["q"] - 0.25) <= 0.1 and abs(g0["q"] + 0.25) <= 0.1
    _say(capsys,
         f"ACCEPT 3 [andrews1 a=0.75: (1/2,1/2)&(1/2,-1/2)+-(0.05,0.15); "
         f"a=0.5: q=+-1/4+-0.1]: {'PASS' if ok_hi and ok_c else 'FAIL'} "
         f"(a=0.75: q1={f1['q']:+.3f} q0={f0['q']:+.3f}; "
         f"a=0.5: q1={g1['q']:+.3f} q0={g0['q']:+.3f})")
    assert ok_hi and ok_c


# -- criterion 4: Andrews-2 ----------------------------------------------------


def test_criterion_4_andrews2(capsys):
    rep2 = run_case("andrews2", {"a": F(1, 4), "a1": F(1)})
    u1 = _fit(rep2, "a1=1", "u1")
    u2 = _fit(rep2, "a1=1", "u2")
    ok2 = abs(u1["rho"] - 1 / 3) <= 0.03 and abs(u2["rho"] - 2 / 3) <= 0.03
    rep3 = run_case("andrews2", {"a": F(1, 4), "a1": F(1, 2)})
    v1 = _fit(rep3, "a1=0.5", "u1")
    v2 = _fit(rep3, "a1=0.5", "u2")
    ok3 = (
        abs(v1["q"] + 0.5) <= 0.15 and abs(v2["q"] - 0.5) <= 0.15
        and abs(v1["rho"] - 0.5) <= 0.05 and abs(v2["rho"] - 0.5) <= 0.05
    )
    _say(capsys,
         f"ACCEPT 4 [andrews2 a=1/4: a1=1 rho=(1/3,2/3)+-0.03; a1=2a "
         f"q=(-1/2,+1/2)+-0.15 rho=1/2+-0.05]: "
         f"{'PASS' if ok2 and ok3 else 'FAIL'} "
         f"(case2 rho=({u1['rho']:+.4f},{u2['rho']:+.4f}); "
         f"case3 q=({v1['q']:+.3f},{v2['q']:+.3f}))")
    assert ok2 and ok3


# -- criterion 5: quenching ----------------------------------------------------


def test_criterion_5_quench_alpha1(capsys):
    cdef = get_case("quench").definition({"alpha": 1})
    series = center_manifold_series_1d(cdef.chart, degree=6)
    zeros_exact = (
        series.exact
        and h_coefficient(series, 2) == 0
        and h_coefficient(series, 3) == 0
        and h_coefficient(series, 4) == 0
    )
    rep = run_case("quench", {"alpha": 1})
    psi = _fit(rep, "alpha=1", "abs_psi")
    ok = (
        zeros_exact
        and abs(psi["rho"]) <= 0.03
        and abs(psi["q"] - 0.5) <= 0.15
    )
    _say(capsys,
         f"ACCEPT 5a [quench alpha=1: series x2=x3=x4=0 exactly; slope model "
         f"(0,1/2)+-(0.03,0.15)]: {'PASS' if ok else 'FAIL'} "
         f"(exact zeros={zeros_exact}, rho={psi['rho']:+.4f}, "
         f"q={psi['q']:+.4f})")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the stated exponents 4/7 and 1/7 contradict the dominant balance "
           "phi'' ~ -phi^(-alpha) at the edge (exact local solution gives "
           "2/3 and 1/3 at alpha=2); the pipeline measures the balance "
           "values to 4 decimals. Recorded in the reviewer notes.",
)
def test_criterion_5_quench_alpha2_stated_exponents(capsys):
    rep = run_case("quench", {"alpha": 2})
    phi = _fit(rep, "alpha=2", "phi")
    psi = _fit(rep, "alpha=2", "abs_psi")
    ok = abs(abs(phi["rho"]) - 0.571) <= 0.03 and abs(abs(psi["rho"]) - 0.143) <= 0.03
    _say(capsys,
         f"ACCEPT 5b [quench alpha=2 stated edge exponents 0.571/0.143 "
         f"+-0.03]: {'PASS' if ok else 'FAIL'} "
         f"(measured |rho|: phi={abs(phi['rho']):.4f}, "
         f"psi={abs(psi['rho']):.4f}; balance predicts 2/3 and 1/3)")
    assert ok


def test_criterion_5_companion_balance_exponents(capsys):
    rep = run_case("quench", {"alpha": 2})
    phi = _fit(rep, "alpha=2", "phi")
    psi = _fit(rep, "alpha=2", "abs_psi")
    ok = (
        rep.status == "PASS"
        and abs(abs(phi["rho"]) - 2 / 3) <= 0.03
        and abs(abs(psi["rho"]) - 1 / 3) <= 0.03
    )
    _say(capsys,
         f"ACCEPT 5c [companion: quench alpha=2 balance-consistent exponents "
         f"2/3 and 1/3 +- 0.03]: {'PASS' if ok else 'FAIL'} "
         f"(phi={abs(phi['rho']):.4f}, psi={abs(psi['rho']):.4f})")
    assert ok


# -- criterion 6: FHN extinction -------------------------------------------------


def test_criterion_6_fhn(capsys):
    exps = {}
    for m in (1, 2):
        rep = run_case("fhn", {"m": m, "p": F(1, 2)})
        f = _fit(rep, f"m={m}", "phi")
        exps[m] = abs(f["rho"])
    ok = (
        abs(exps[1] - 2.0) <= 0.1
        and abs(exps[2] - 2.0) <= 0.1
        and abs(exps[1] - exps[2]) <= 0.05
    )
    _say(capsys,
         f"ACCEPT 6 [fhn edge exponent 1/(1-p)=2.0+-0.1 for m=1,2; "
         f"m-independent within 0.05]: {'PASS' if ok else 'FAIL'} "
         f"(m=1: {exps[1]:.4f}, m=2: {exps[2]:.4f})")
    assert ok


# -- criterion 7: compacton edges -----------------------------------------------


def test_criterion_7_kdv(capsys):
    rep = run_case("kdv", {"n": 2, "m": 2, "c": F(1)})
    lead = _fit(rep, "leading", "u")
    trail = _fit(rep, "trailing", "u")
    steps = {s["op"]: s["params"] for s in rep.chart["provenance"]}
    weights_ok = steps["blowup"]["weights"] == ["2", "3"]
    ok = (
        abs(abs(lead["rho"]) - 2.0) <= 0.1
        and abs(abs(trail["rho"]) - 2.0) <= 0.1
        and weights_ok
    )
    _say(capsys,
         f"ACCEPT 7 [kdv n=m=2,c=1: both edges 2/(n-1)=2.0+-0.1; weights "
         f"(2,3) from the diagram]: {'PASS' if ok else 'FAIL'} "
         f"(leading={abs(lead['rho']):.4f}, trailing={abs(trail['rho']):.4f}, "
         f"weights={steps['blowup']['weights']})")
    assert ok


# -- criterion 8: periodic blow-up / grow-up -------------------------------------


def test_criterion_8_lienard_n3(capsys):
    co = lienard_coefficients(3)
    orbit = horizon_orbit(get_case("lienard").definition({"n": 3}).chart)
    rep = run_case("lienard", {"n": 3})
    f = _fit(rep, "n=3", "inv_r")
    ok = (
        abs(co.alpha(co.T)) <= 1e-8
        and co.beta2_T < 0.0
        and co.Gamma_T > 0.0
        and abs(orbit.beta1 - 1.0) <= 1e-8
        and orbit.beta2 < 0.0
        and abs(f["rho"] - 0.5) <= 0.05
    )
    _say(capsys,
         f"ACCEPT 8a [lienard n=3: alpha(T)~0, beta2(T)<0, Gamma_T>0, "
         f"horizon_orbit beta1~1 and beta2<0, section exponent 1/2+-0.05]: "
         f"{'PASS' if ok else 'FAIL'} "
         f"(alpha(T)={co.alpha(co.T):+.2e}, beta2={co.beta2_T:+.4f}, "
         f"Gamma_T={co.Gamma_T:+.4f}, orbit beta1-1={orbit.beta1 - 1.0:+.2e}, "
         f"orbit beta2={orbit.beta2:+.4f}, rho={f['rho']:+.4f})")
    assert ok


def test_criterion_8_lienard_n1_growup(capsys):
    rep = run_case("lienard", {"n": 1})
    run = rep.to_dict()["runs"][0]
    edge_inf = run["edge"]["value"] == "inf"
    gu = run["growup"]
    ok = edge_inf and gu["r2"] >= 0.999 and gu["slope"] > 0
    _say(capsys,
         f"ACCEPT 8b [lienard n=1: infinite edge time; log(1/r) linear in t "
         f"with R2>=0.999]: {'PASS' if ok else 'FAIL'} "
         f"(edge={'inf' if edge_inf else 'finite'}, R2={gu['r2']:.6f})")
    assert ok


# -- criterion 9: property suites -------------------------------------------------


def test_criterion_9_property_suites(capsys):
    import random

    from horizon.casebook import builtin_cases
    from horizon.genpoly import parse_genpoly
    from horizon.quasitrig import cssn
    from oracles import forward_point, horizon_is_invariant, inverse_transform

    results = {}

    # derivative vs central finite differences, rel <= 1e-6
    rng = random.Random(11)
    p = parse_genpoly("2*x^2*y - x^(-1) + y^(5/2) - 3*x*y^(-2)", ("x", "y"))
    worst = 0.0
    for i, v in enumerate(("x", "y")):
        dp = p.partial(v)
        for _ in range(20):
            pt = [rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)]
            h = 1e-6 * abs(pt[i])
            hi, lo = list(pt), list(pt)
            hi[i] += h
            lo[i] -= h
            fd = (p.eval(hi) - p.eval(lo)) / (2 * h)
            ex = dp.eval(pt)
            worst = max(worst, abs(fd - ex) / max(1.0, abs(ex)))
    results["derivative-fd"] = worst <= 1e-6

    # chart roundtrip <= 1e-12
    cdef = get_case("iy").definition()
    rng2 = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        st = [rng2.uniform(0.2, 2.0), rng2.uniform(0.2, 2.0)]
        y = inverse_transform(cdef.chart, st)
        back = forward_point(cdef.chart, y)
        worst = max(worst, float(np.max(np.abs(np.array(back) - st))))
    results["chart-roundtrip"] = worst <= 1e-12

    # horizon invariance, syntactic and exact
    ok_h = True
    for name in builtin_cases():
        d = get_case(name).definition()
        if d.chart.radial is not None:
            ok_h = ok_h and horizon_is_invariant(d.chart)
    results["horizon-syntactic"] = ok_h

    # quasi-trig identity <= 1e-9
    th = np.random.default_rng(5).uniform(-40, 40, 10_000)
    worst = 0.0
    for l in (1, 2, 4):
        c, s = np.array([cssn(t, l) for t in th.tolist()]).T
        worst = max(worst, float(np.max(np.abs(c ** (2 * l) + l * s**2 - 1))))
    results["quasitrig-identity"] = worst <= 1e-9

    # synthetic rate-grid recovery
    ok_fit = True
    sgrid = np.geomspace(1e-10, 1e-2, 160)
    for rho in (0.0, 1 / 3, 0.5, 1.0, 2.0):
        for q in (-0.5, -0.25, 0.0, 0.25, 0.5):
            y = 3.0 * sgrid ** (-rho) * np.log(1 / sgrid) ** q
            fit = fit_rate(sgrid, y)
            ok_fit = ok_fit and abs(fit.rho - rho) <= 1e-3 and abs(fit.q - q) <= 5e-2
    results["fit-grid"] = ok_fit

    # orbital equivalence (spot check; the full sweep runs in the casebook suite)
    from test_casebook import test_orbital_equivalence

    try:
        test_orbital_equivalence("iy")
        test_orbital_equivalence("kdv")
        results["orbital-equivalence"] = True
    except AssertionError:
        results["orbital-equivalence"] = False

    ok = all(results.values())
    detail = ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in results.items())
    _say(capsys, f"ACCEPT 9 [property suites]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok
