"""Micro-layer timings: medians over repeats of single calls into one layer.

Inputs are fixed (they do not depend on the workload seed) so the numbers
compare across runs and commits:

* ``genpoly.call_us``: the compiled first component of the ``lienard n=3``
  quasi-polar chart, ``r*Cs^3*Sn^2 + r^2*Cs^6*Sn``, at ``(r, theta) = (0.08, 1.0)``.
* ``compactify.rhs_us.quasipolar``: ``compile_rhs()`` of that chart at the same state.
* ``compactify.rhs_us.polynomial``: ``compile_rhs()`` of the default ``iy``
  chart at its initial state ``(0.5, 0.5)``.
* ``quasitrig.cssn_us``: scalar ``cssn(theta, 4)`` over 1000 angles drawn
  uniformly from ``[-T, 2T)`` by ``numpy.random.default_rng(MICRO_SEED)``.
* ``rates.fit_rate_us.3k``: ``fit_rate`` on 3000 samples, ``s`` log-spaced on
  ``[1e-12, 1e-2]``, ``y = 1.3 s^-0.5 (log 1/s)^0.25 (1 + 1e-4 N(0,1))`` with
  the same generator.
* ``quasitrig.table_build_ms``: one uncached ``quasitrig.table(4)`` build.

Each timing is the median over ``REPEATS`` repeats of a loop of calls.
Every micro input is also checked against an independent evaluation.
"""

from __future__ import annotations

import math
import statistics
import time

MICRO_SEED = 1806
REPEATS = 9


def _per_call_us(fn, args_list, loops):
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(loops):
            for args in args_list:
                fn(*args)
        samples.append((time.perf_counter() - t0) / (loops * len(args_list)) * 1e6)
    return statistics.median(samples)


def _close(a, b, rel=1e-12):
    return all(abs(x - y) <= rel * max(1.0, abs(y)) for x, y in zip(a, b))


def run_micro() -> tuple[dict, list[str]]:
    """(metric -> value, names of failed input checks)."""
    import numpy as np

    from horizon import casebook, quasitrig
    from horizon.rates import fit_rate

    failed = []
    out = {}
    lienard = casebook.get_case("lienard").definition({"n": 3}).chart
    iy_def = casebook.get_case("iy").definition()
    state_qp = (0.08, 1.0)
    pt = lienard.state_to_poly_point(state_qp)

    comp = lienard.components[0]
    fn = comp.compile()
    if not _close([fn(*pt)], [comp.eval(pt)]):
        failed.append("genpoly.call_us")
    out["genpoly.call_us"] = _per_call_us(fn, [pt], 50_000)

    for name, chart, state in (
        ("compactify.rhs_us.quasipolar", lienard, state_qp),
        ("compactify.rhs_us.polynomial", iy_def.chart, iy_def.runs[0].initial),
    ):
        rhs = chart.compile_rhs()
        vals, _ = rhs(state)
        if not _close(vals, chart.eval_components(state)):
            failed.append(name)
        out[name] = _per_call_us(rhs, [(state,)], 5_000)

    rng = np.random.default_rng(MICRO_SEED)
    T = quasitrig.period(4)
    thetas = [(float(th), 4) for th in rng.uniform(-T, 2 * T, 1000)]
    if not all(abs(c**8 + 4 * s * s - 1.0) < 1e-9
               for c, s in (quasitrig.cssn(*a) for a in thetas)):
        failed.append("quasitrig.cssn_us")
    out["quasitrig.cssn_us"] = _per_call_us(quasitrig.cssn, thetas, 20)

    s = np.geomspace(1e-12, 1e-2, 3000)
    y = 1.3 * s**-0.5 * np.log(1 / s) ** 0.25 * (1 + 1e-4 * rng.standard_normal(3000))
    fit = fit_rate(s, y)
    if abs(fit.rho - 0.5) > 1e-3 or abs(fit.q - 0.25) > 1e-2:
        failed.append("rates.fit_rate_us.3k")
    out["rates.fit_rate_us.3k"] = _per_call_us(fit_rate, [(s, y)], 10)

    build = quasitrig.table.__wrapped__
    builds = []
    for _ in range(3):
        t0 = time.perf_counter()
        tab = build(4)
        builds.append((time.perf_counter() - t0) * 1e3)
        if not (math.isclose(tab.T, T, rel_tol=1e-12) and tab.cs[0] == 1.0):
            failed.append("quasitrig.table_build_ms")
    out["quasitrig.table_build_ms"] = statistics.median(builds)
    return out, sorted(set(failed))
