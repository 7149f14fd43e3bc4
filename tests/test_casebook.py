"""Casebook: definitions, invariants shared by all cases, orbital equivalence,
replay determinism.  Full rate verdicts live in the acceptance suite."""

import ast
import dataclasses
import functools
import json
import math
import os
import pathlib
import struct
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from horizon import casebook
from horizon.casebook import builtin_cases, get_case, run_case, sweep
from horizon.compactify import _jsonable, apply_recipe, base_field, blowup_chart
from horizon.dynamics import integrate
from horizon.errors import InsufficientSpanError, ParameterError
from horizon.genpoly import GenMonomial, parse_genpoly
from horizon.localanalysis import center_manifold_series_1d
from horizon.quasitrig import cssn
from horizon.structure import TypeVector, certify_type, type_at_infinity
import oracles
from oracles import forward_point, horizon_is_invariant, inverse_transform

ALL_CASES = sorted(builtin_cases())


def test_eight_builtin_families():
    assert len(builtin_cases()) == 8
    assert ALL_CASES == ["aiu", "andrews1", "andrews2", "fhn", "iy", "kdv",
                         "lienard", "quench"]


def test_parameter_validation():
    with pytest.raises(ValueError):
        get_case("iy").definition({"a": 5})
    with pytest.raises(ValueError):
        get_case("iy").definition({"nope": 1})
    with pytest.raises(KeyError):
        get_case("unknown")


def test_a_built_definition_refuses_params(monkeypatch):
    # they were ignored: iy ran and reported a = 1/2 under {"a": 0.9}
    monkeypatch.setattr(casebook, "_execute", lambda *_: pytest.fail("ran"))
    cdef = get_case("iy").definition()
    with pytest.raises(ParameterError, match=r"params \{'a': 0.9\} given with the built case iy"):
        run_case(cdef, {"a": 0.9})


def test_fhn_reaction_polynomial():
    # psi component carries -u^p (1-u)(u-a) = a u^p - (1+a) u^(p+1) + u^(p+2)
    m, p, a = 1, F(1, 2), F(1, 4)
    cdef = get_case("fhn").definition({"m": m, "p": p, "a": a})
    psi_dot = apply_recipe(None, cdef.chart.provenance[:1]).components[1]
    terms = dict(psi_dot.terms)
    assert terms[(p, F(0))] == a
    assert terms[(p + 1, F(0))] == -(1 + a)
    assert terms[(p + 2, F(0))] == 1


def test_andrews2_slice_is_invariant_only_with_equal_couplings():
    # the y = 1 restriction inside the builder requires a2 = a3; the builder
    # enforces it structurally, and the slice component vanishes exactly
    cdef = get_case("andrews2").definition()
    prov_ops = [s.op for s in cdef.chart.provenance]
    assert "restrict" in prov_ops


def _blowup_steps(cdef):
    """The blow-up step and the time rescale that follows it."""
    ops = [s.op for s in cdef.chart.provenance]
    i = ops.index("blowup")
    return cdef.chart.provenance[i].params, cdef.chart.provenance[i + 1]


def test_quench_blowup_weights_from_diagram():
    # primitive weights (alpha-1, alpha+1)/g; the rescale divides by the
    # least power of r, r^(-(alpha^2-1)/g)
    for alpha in range(2, 7):
        cdef = get_case("quench").definition({"alpha": alpha})
        weights, rescale = _blowup_steps(cdef)
        g = math.gcd(alpha - 1, alpha + 1)
        assert weights["weights"] == [str((alpha - 1) // g), str((alpha + 1) // g)]
        assert rescale.op == "time_rescale"
        assert rescale.params["monomial"]["exps"] == {"r": str(-(alpha**2 - 1) // g)}


def test_kdv_blowup_weights_from_diagram():
    # primitive weights (2, n+1)/g; the rescale is r^(-(n-1)/g)
    for n in (2, 3):
        cdef = get_case("kdv").definition({"n": n})
        weights, rescale = _blowup_steps(cdef)
        g = math.gcd(2, n + 1)
        assert weights["weights"] == [str(2 // g), str((n + 1) // g)]
        assert rescale.params["monomial"]["exps"] == {"r": str(-(n - 1) // g)}


# Every time rescale a built-in records, in order, as (coefficient, exponents).
# The builders typed these literals before each became its field's common
# factor (divide_common_factor); kdv's coefficient n is still stated.  The
# blow-up factors are the r powers of the two tests above.
STATED_RESCALES = {
    "aiu": lambda p: [(1, {"u0": 2})],
    "iy": lambda p: [(1, {"v1": -1})],
    "andrews1": lambda p: [(1, {"u0": -1})],
    "andrews2": lambda p: [(1, {"r": 2, "w": 2}), (1, {"w": -1})],
    "quench": lambda p: [(1, {"phi": p["alpha"]})] + (
        [(1, {"r": -(p["alpha"] ** 2 - 1) // math.gcd(p["alpha"] - 1, p["alpha"] + 1)})]
        if p["alpha"] > 1 else []),
    "fhn": lambda p: [(1, {"phi": p["m"]})],
    "kdv": lambda p: [(p["n"], {"phi": p["n"] - 1}),
                      (1, {"r": -(p["n"] - 1) // math.gcd(2, p["n"] + 1)})],
    "lienard": lambda p: [],
}

# the parameter grids of ROADMAP item 2's failure map, with the defaults
ITEM2_GRID = {
    "aiu": [{}],
    "iy": [{}] + [{"a": F(a)} for a in
                  "1/20 1/5 2/5 1/2 3/5 7/10 3/4 4/5 9/10 19/20".split()],
    "andrews1": [{}] + [{"a": a, "theta": t} for a in (0.05, 0.3, 0.5, 0.6, 0.9)
                        for t in (0.1, 1.47)],
    "andrews2": [{}] + [{"a": F(a), "a1": F(a1)} for a in "1/10 1/4 1 2".split()
                        for a1 in "1/10 1/5 1/2 1".split()],
    "quench": [{}] + [{"alpha": 1, "c": F(c)} for c in "1/10 1/2 1 2 5 10".split()]
              + [{"alpha": al, "c": F(c)} for al in (2, 3, 4, 6) for c in ("1/10", "10")],
    "fhn": [{}] + [{"m": m, "p": F(p)} for m in (1, 2)
                   for p in "1/10 1/4 1/2 2/3 3/4 9/10".split()],
    "kdv": [{}] + [{"n": n, "c": F(c)} for n in (2, 3) for c in "1/10 1/5 1/2".split()],
    "lienard": [{"n": n} for n in (1, 3, 5)],
}


@pytest.mark.parametrize("name", ALL_CASES)
def test_each_rescale_is_the_stated_literal(name):
    for params in ITEM2_GRID[name]:
        cdef = get_case(name).definition(params)
        recorded = [s.to_dict()["params"]["monomial"] for s in cdef.chart.provenance
                    if s.op == "time_rescale"]
        stated = [_jsonable(GenMonomial.make(c, exps))
                  for c, exps in STATED_RESCALES[name](cdef.params)]
        assert recorded == stated, params


def _calls(node, name):
    """Each call of the dotted ``name``, bare or as an attribute, under ``node``."""
    return [n for n in ast.walk(node) if isinstance(n, ast.Call)
            and f".{ast.unparse(n.func)}".endswith(f".{name}")]


def _casebook_tree():
    return ast.parse(pathlib.Path(casebook.__file__).read_text(encoding="utf-8"))


def test_only_kdv_states_its_time_rescale():
    # every other built-in rescale is its field's common factor
    tree = _casebook_tree()
    kdv = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_build_kdv")
    assert len(_calls(tree, "time_rescale")) == len(_calls(kdv, "time_rescale")) == 1


# The compactification type and order, (alpha, k), each built-in typed before
# it read them off the field its directional or quasi-polar step receives
# (type_at_infinity): quench's field divided by its common factor, the
# others' base field.
STATED_TYPES = {
    "aiu": lambda p: ((0, 1), 1),
    "iy": lambda p: ((1, 1), 1 + 1 / p["a"]),
    "andrews1": lambda p: ((1, 1), 3),
    "quench": lambda p: ((1, 1), p["alpha"]),
    "lienard": lambda p: ((1, p["n"] + 1), p["n"]),
}


@pytest.mark.parametrize("name", sorted(STATED_TYPES))
def test_each_type_is_the_stated_literal(name):
    for params in ITEM2_GRID[name]:
        cdef = get_case(name).definition(params)
        ops = [s.op for s in cdef.chart.provenance]
        i = next(i for i, op in enumerate(ops) if op in ("directional", "quasi_polar"))
        step = cdef.chart.provenance[i].to_dict()["params"]
        t = TypeVector.make(*STATED_TYPES[name](cdef.params))
        received = apply_recipe(None, cdef.chart.provenance[:i]).components
        assert type_at_infinity(received) == t, params
        alpha = step["alpha"] if "alpha" in step else ["1", str(step["m"])]
        assert (alpha, step["k"]) == ([str(a) for a in t.alpha], str(t.k)), params


def test_no_builtin_states_its_type():
    # aiu, iy, andrews1, quench and lienard each called TypeVector.make
    tree = _casebook_tree()
    assert _calls(tree, "TypeVector.make") == _calls(tree, "TypeVector") == []
    assert len(_calls(tree, "type_at_infinity")) == len(STATED_TYPES)


# report names of observables that name no base variable
OBSERVED_VAR = {"abs_psi": "psi", "u": "phi"}


OBSERVABLE_POINTS = [(n, {}) for n in ALL_CASES] + [
    ("quench", {"alpha": 1}), ("quench", {"alpha": 3}), ("kdv", {"n": 3})]


@pytest.mark.parametrize("name,params", OBSERVABLE_POINTS, ids=[
    " ".join([n, *(f"{k}={v}" for k, v in p.items())]) for n, p in OBSERVABLE_POINTS])
def test_base_variable_observables_match_inverse(name, params):
    cdef = get_case(name).definition(params)
    chart = cdef.chart
    state = [0.3 + 0.2 * i for i in range(len(chart.vars))]
    base = inverse_transform(chart, state)
    checked = 0
    for plan in cdef.runs:
        for obs in plan.observables:
            var = OBSERVED_VAR.get(obs.name, obs.name)
            if var not in base:
                continue  # lienard's inv_r = 1/r
            value = obs.expr.compile()(*chart.state_to_poly_point(state))
            assert value == pytest.approx(abs(base[var]), rel=1e-13), obs.name
            checked += 1
    assert checked or name == "lienard"


@pytest.mark.parametrize("name", ["aiu", "iy", "andrews1", "andrews2",
                                  "quench", "kdv", "lienard"])
def test_horizon_invariance_syntactic(name):
    cdef = get_case(name).definition()
    if cdef.chart.radial is None:
        pytest.skip("no radial variable")
    assert horizon_is_invariant(cdef.chart)


# equilibria of each default case (seed 0): coordinates and classification
BUILTIN_EQUILIBRIA = {
    "aiu": [],
    "iy": [((0.0, 0.0), "hyperbolic"), ((0.0, 1.0), "hyperbolic")],
    "andrews1": [((0.0, -0.47140452079103173), "hyperbolic"),
                 ((0.0, 0.0), "semi-hyperbolic")],
    "andrews2": [((0.0, -0.5), "hyperbolic"), ((0.0, 0.0), "hyperbolic")],
    "quench": [((0.0, 0.0), "hyperbolic"), ((0.0, 2.0), "hyperbolic")],
    "fhn": [((0.0, 0.0), "semi-hyperbolic"), ((0.24999999999999997, 0.0), "hyperbolic"),
            ((1.0, 0.0), "hyperbolic")],
    "kdv": [((0.0, -1.1547005383792515), "hyperbolic"),
            ((0.0, 1.1547005383792517), "hyperbolic")],
    "lienard": [],
}


@pytest.mark.parametrize("name", ALL_CASES)
def test_equilibrium_stage_of_builtin(name):
    cdef = get_case(name).definition()
    search = casebook.equilibrium_search(cdef.chart)
    eqs = search(cdef.chart, box=cdef.eq_box, seed=0)
    check = casebook._check_expected_equilibria(cdef, eqs)
    assert check["all_found"]
    assert check["n_found"] == len(BUILTIN_EQUILIBRIA[name])
    for e, (coords, label) in zip(eqs, BUILTIN_EQUILIBRIA[name]):
        assert e.classification == label
        assert max(abs(a - b) for a, b in zip(e.coords, coords)) <= 1e-12


def test_full_field_search_reaches_an_expected_equilibrium_outside_its_range(tmp_path):
    # the range is [-2, 2] per variable, widened only past an expected
    # equilibrium outside it: the andrews2 sink w* = 3, the kdv saddles
    # +-3.65 at c = 10 on both sides, those at +-1.15 at c = 1 not at all
    assert get_case("andrews2").definition({"a": 2, "a1": 1}).eq_box == {"w": (-2.0, 3.5)}
    cdef = get_case("kdv").definition({"c": 10})
    psi = cdef.expected_equilibria[1][1]
    assert cdef.eq_box == {"psi_b": (-psi - 0.5, psi + 0.5)}
    assert get_case("kdv").definition().eq_box == {}
    # x' = 3 - x has no radial variable, so Newton searches the whole field,
    # in the range widened past the equilibrium its spec expects
    from horizon.cli import parse_spec_file

    path = tmp_path / "far.spec"
    path.write_text("name far\nvar x\nfield x : 3 - x\ninitial x=1\nequilibrium 3\n")
    cdef = parse_spec_file(path)
    assert cdef.eq_box == {"x": (-2.0, 3.5)}
    search = casebook.equilibrium_search(cdef.chart)
    assert search is casebook.equilibria_of
    for seed in (0, 1, 7):
        eqs = search(cdef.chart, box=cdef.eq_box, seed=seed)
        assert [e.coords for e in eqs] == [(3.0,)]
        assert casebook._check_expected_equilibria(cdef, eqs)["all_found"]
    # in the range [-2, 2] alone, the root is dropped
    assert search(cdef.chart, box={}, seed=0) == []


@pytest.mark.parametrize("name,params,seeds,coords", [
    # the slice -a v1 + a v1^(1/a) has the root v1 = -1, which a seeded
    # search in a typed box found at some seeds only
    ("iy", {"a": F(1, 5)}, (0, 1, 7), [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]),
    ("iy", {"a": F(1, 7)}, (0, 1, 7), [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]]),
    # Newton from the seeded starts ended on phi = 1/4 or on the double
    # below it, by the seed; the polished root is 1/4 at every seed
    ("fhn", {"m": 1}, (0, 1, 2, 7, 11), [[0.0, 0.0], [0.25, 0.0], [1.0, 0.0]]),
    ("fhn", {"m": 2}, (0, 1, 2, 7, 11), [[0.0, 0.0], [0.25, 0.0], [1.0, 0.0]]),
], ids=["1/5", "1/7", "fhn-m1", "fhn-m2"])
def test_reported_equilibria_do_not_depend_on_the_seed(name, params, seeds, coords):
    eqs = [run_case(name, params, seed=s).equilibria for s in seeds]
    assert all(e == eqs[0] for e in eqs)
    assert [e["coords"] for e in eqs[0]] == coords


# a whole-field Newton search (fhn) and closed-form horizon roots (iy)
@pytest.mark.parametrize("name", ["fhn", "iy"])
@pytest.mark.parametrize("seed", [-1, 1.5, None, True, "0", 2.0])
def test_a_bad_seed_is_refused_before_any_run(name, seed, monkeypatch):
    def no_run(*_):
        raise AssertionError("ran")

    monkeypatch.setattr(casebook, "_execute", no_run)
    for call in (lambda: run_case(name, seed=seed), lambda: sweep(name, [{}], seed=seed)):
        with pytest.raises(ValueError, match=f"seed = {seed!r} is not an int, 0 or more"):
            call()
    cdef = get_case(name).definition()
    with pytest.raises(ValueError, match="seed = "):
        casebook.equilibrium_search(cdef.chart)(cdef.chart, box=cdef.eq_box, seed=seed)


def test_center_flow_nodes_are_leggauss_24():
    nodes, weights = np.polynomial.legendre.leggauss(24)
    assert [v.hex() for v in casebook._GL24_NODES] == [v.hex() for v in nodes.tolist()]
    assert [v.hex() for v in casebook._GL24_WEIGHTS] == [v.hex() for v in weights.tolist()]


def test_a_run_loads_neither_numpy_random_nor_numpy_polynomial():
    # numpy 2 loads both lazily, and the Newton starts and the quadrature
    # nodes no longer need them; numpy 1 imports them with numpy itself
    lazy = ("numpy.random", "numpy.polynomial")
    probe = f"import sys, numpy; print(any(m in sys.modules for m in {lazy!r}))"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(casebook.__file__).parents[1]))
    if subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                      text=True, check=True).stdout.strip() == "True":
        pytest.skip("import numpy loads numpy.random and numpy.polynomial itself")
    script = f"""
import sys
from horizon import casebook, localanalysis
report = casebook.run_case("fhn")
assert report.status == "PASS", report.error
chart = casebook.get_case("fhn").definition().chart
assert localanalysis.equilibria_of(chart, seed=7)
print(sorted(m for m in sys.modules if m.startswith({lazy!r})))
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name,t,qh", [
    ("aiu", TypeVector.make((0, 1), 1), True),
    ("iy", TypeVector.make((1, 1), 3), True),
    ("andrews1", TypeVector.make((1, 1), 3), True),
    ("andrews2", TypeVector.make((1, 1, 1), 2), True),
    ("lienard", TypeVector.make((1, 4), 3), False),
], ids=["aiu-True", "iy-True", "andrews1-True", "andrews2-True", "lienard-False"])
def test_declared_scaling_types(name, t, qh):
    cdef = get_case(name).definition()
    base = apply_recipe(None, cdef.chart.provenance[:1])
    assert (certify_type(list(base.components), t) is None) == qh


def test_replay_determinism():
    a = run_case("iy", seed=3)
    b = run_case("iy", seed=3)
    da, db = a.to_dict(), b.to_dict()
    da.pop("wallclock_s")
    db.pop("wallclock_s")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_exhausted_step_budget_is_an_error(monkeypatch):
    monkeypatch.setattr(casebook, "integrate",
                        functools.partial(integrate, max_steps=500))
    rep = run_case("lienard", {"n": 3})
    assert rep.status == "ERROR"
    assert rep.error.startswith("StepBudgetError: ")


SPEC_FILES = sorted(pathlib.Path(__file__).resolve().parents[1].glob("cases/*.spec"))


@pytest.mark.parametrize("source", ALL_CASES + [f.name for f in SPEC_FILES])
def test_provenance_replay_reproduces_chart(source):
    from horizon.cli import parse_spec_file

    if source.endswith(".spec"):
        chart = parse_spec_file(SPEC_FILES[0].parent / source).chart
    else:
        chart = get_case(source).definition().chart
    doc = chart.to_dict()
    rebuilt = apply_recipe(None, json.loads(json.dumps(doc))["provenance"])
    assert rebuilt.vars == chart.vars
    assert rebuilt.radial == chart.radial
    assert rebuilt.to_dict() == doc  # components, time chain, provenance


def test_blowup_replay_keeps_radial_name():
    vars = ("phi", "psi")
    base = base_field(vars, [parse_genpoly("psi", vars),
                             parse_genpoly("-psi - phi^2", vars)], name="wave")
    chart = blowup_chart(base, (1, 2), "phi", radial="rho")
    rebuilt = apply_recipe(None, chart.to_dict()["provenance"])
    assert rebuilt.vars == ("rho", "psi_b")
    assert rebuilt.radial == "rho"


class TestSweep:
    def test_empty_grid(self):
        assert sweep("iy", []) == []

    def test_error_isolated_per_run(self):
        reports = sweep("iy", [{"a": F(1, 2)}])
        assert len(reports) == 1
        assert reports[0].status in ("PASS", "FAIL")

    def test_parallel_matches_serial(self):
        grid = [{"a": 0.3}, {"a": 0.5}]
        docs = []
        for jobs in (1, 2):
            reports = [r.to_dict() for r in sweep("andrews1", grid, jobs=jobs)]
            for d in reports:
                d.pop("wallclock_s")
            docs.append(reports)
        assert docs[0] == docs[1]

    @pytest.mark.parametrize("points,jobs,workers", [
        (3, 64, [3]), (3, 10**20, [3]), (3, 2, [2]), (1, 64, []), (3, 1, []),
    ])
    def test_workers_never_outnumber_the_points(self, monkeypatch, points, jobs, workers):
        # a fork-started pool forks all its workers at the first submit: a
        # stand-in pool records how many a sweep asks for, and starts none
        import concurrent.futures

        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args, **kw):
                future = concurrent.futures.Future()
                future.set_result(fn(*args, **kw))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(casebook, "run_case", lambda cdef, out, seed=0: cdef.params)
        grid = [{"a": F(1, k + 2)} for k in range(points)]
        assert sweep("iy", grid, jobs=jobs) == [get_case("iy").definition(g).params
                                                 for g in grid]
        assert started == workers


# -- orbital equivalence -------------------------------------------------------


def _resample_by_arclength(points, n=200):
    pts = np.asarray(points)
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    arc = np.concatenate([[0.0], np.cumsum(seg)])
    keep = np.concatenate([[True], seg > 1e-300])
    pts, arc = pts[keep], arc[keep]
    total = arc[-1]
    if total == 0:
        raise ValueError("degenerate curve")
    spl = CubicSpline(arc / total, pts, axis=0)
    u = np.linspace(0.0, 1.0, n)
    return spl(u), total


def _orbit_distance(curve_a, curve_b):
    a, _ = _resample_by_arclength(curve_a)
    b, _ = _resample_by_arclength(curve_b)
    return float(np.max(np.linalg.norm(a - b, axis=1)))


# per case: an interior base point and the chart-time span run from it
ORBITAL_CHECKS = {
    "aiu": ({"u0": 1.0, "u1": 1.0}, 1.2),
    "iy": ({"v0": 2.0, "v1": 1.0}, 1.0),
    "andrews1": ({"u0": 1.0, "u1": 2.0}, 0.4),
    "andrews2": ({"u1": 2.0, "u2": 1.0, "u3": 1.0}, 0.5),
    "quench": ({"phi": 1.0, "psi": -1.0}, 0.5),
    "fhn": ({"phi": 0.5, "psi": 0.1}, 2.0),
    "kdv": ({"phi": 0.5, "psi": 0.2}, 2.0),
    "lienard": ({"x": 1.2, "y": 0.4}, 0.6),
}


@pytest.mark.parametrize("name", ["aiu", "iy", "andrews1", "andrews2",
                                  "quench", "fhn", "kdv", "lienard"])
def test_orbital_equivalence(name):
    """Integrating the base field and the fully rescaled chart from the same
    interior point must trace the same orbit (different clocks)."""
    cdef = get_case(name).definition()
    chart = cdef.chart
    base = apply_recipe(None, chart.provenance[:1])
    check_point, span = ORBITAL_CHECKS[name]
    if chart.quasipolar_index is not None:
        chart_start = [0.5, 0.3]
    else:
        chart_start = forward_point(chart, check_point)
    traj_c = integrate(chart, chart_start, span, rtol=1e-12, atol=1e-13,
                       h_max=span / 1500, stop_at_equilibrium=False)
    # compare in the base coordinates the chart can reconstruct (a restriction
    # step eliminates variables tied to others on the invariant slice)
    probe = inverse_transform(chart, traj_c.states[0])
    cmp_vars = [v for v in base.vars if v in probe]
    cmp_idx = [base.vars.index(v) for v in cmp_vars]
    curve_a = np.array([
        [inverse_transform(chart, st)[v] for v in cmp_vars]
        for st in traj_c.states
    ])
    y0_full = dict(check_point)
    for v, val in zip(cmp_vars, curve_a[0]):
        y0_full[v] = val
    y0 = np.array([y0_full[v] for v in base.vars])
    y1 = curve_a[-1]

    # coarse pass to bracket the closest approach to the chart endpoint
    scale_speed = np.linalg.norm(base.eval_components(list(y0)))
    arc_est = float(np.sum(np.linalg.norm(np.diff(curve_a, axis=0), axis=1)))
    t_span = 3.0 * arc_est / max(scale_speed, 1e-12)
    traj_b = integrate(base, list(y0), t_span, rtol=1e-12, atol=1e-13,
                       h_max=t_span / 4000, stop_at_equilibrium=False)
    d_end = np.linalg.norm(traj_b.states[:, cmp_idx] - y1, axis=1)
    stop = int(np.argmin(d_end))
    assert stop > 5, f"base run never approached the chart endpoint ({name})"

    # refine: stop exactly where the distance to y1 is minimal (the radial
    # derivative (y - y1) . f turns from negative to positive there), by
    # bisecting on the end time of short runs from a few steps before
    def radial_derivative(state):
        f = base.eval_components(state)
        return sum((state[i] - b) * f[i] for i, b in zip(cmp_idx, y1))

    i0 = max(stop - 3, 0)
    t_seg = traj_b.tau[min(stop + 3, len(traj_b.tau) - 1)] - traj_b.tau[i0]

    def run_to(t_end):
        return integrate(base, list(traj_b.states[i0]), t_end, rtol=1e-12,
                         atol=1e-13, h_max=t_seg / 50, stop_at_equilibrium=False)

    lo, hi = 0.0, t_seg
    while hi - lo > 1e-14 * t_seg:
        mid = 0.5 * (lo + hi)
        if radial_derivative(run_to(mid).states[-1]) < 0.0:
            lo = mid
        else:
            hi = mid
    seg = run_to(hi)
    curve_b = np.vstack([traj_b.states[: i0 + 1], seg.states[1:]])[:, cmp_idx]
    gap = float(np.linalg.norm(curve_b[-1] - y1))
    assert gap <= 1e-7, f"endpoint refinement left a gap {gap:.2e} ({name})"
    dist = _orbit_distance(curve_a, curve_b)
    assert dist <= 1e-6, f"orbit mismatch {dist:.2e} for {name}"


def test_andrews1_log_exponent_transition_sweep():
    # fitted q for u1 steps 0 -> 1/4 -> 1/2 across the coefficient threshold
    qs = {}
    for a in (0.3, 0.5, 0.7):
        rep = run_case("andrews1", {"a": a})
        fit = next(f for r in rep.runs for f in r["fits"] if f["observable"] == "u1")
        qs[a] = fit["q"]
    assert abs(qs[0.3]) <= 0.1
    assert abs(qs[0.5] - 0.25) <= 0.1
    assert abs(qs[0.7] - 0.5) <= 0.15
    assert qs[0.3] < qs[0.5] < qs[0.7]


def test_andrews2_exponents_across_regime_boundary():
    # rho is continuous through a1 = 2a while q jumps exactly there
    rows = {}
    for a1 in (F(2, 5), F(1, 2), F(1)):
        rep = run_case("andrews2", {"a": F(1, 4), "a1": a1})
        fits = {f["observable"]: f for r in rep.runs for f in r["fits"]}
        rows[a1] = fits
    # case 1 and the boundary share rho = 1/2; case 2 moves continuously off it
    assert abs(rows[F(2, 5)]["u1"]["rho"] - 0.5) <= 0.05
    assert abs(rows[F(1, 2)]["u1"]["rho"] - 0.5) <= 0.05
    assert abs(rows[F(1)]["u1"]["rho"] - 1 / 3) <= 0.03
    # q jumps only at the boundary
    assert abs(rows[F(2, 5)]["u2"]["q"]) <= 0.1
    assert abs(rows[F(1, 2)]["u2"]["q"] - 0.5) <= 0.15
    assert abs(rows[F(1)]["u2"]["q"]) <= 0.1


def _bits(obj):
    """A run entry with every float as its bytes."""
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, dict):
        return {k: _bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_bits(v) for v in obj]
    return obj


def _center_flow_outcome(run, cdef, plan):
    try:
        return _bits(run(cdef, plan))
    except InsufficientSpanError as exc:
        return str(exc)


# q = 10, 4, 2, 3, 4: the quadrature's substitution u = z^q
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("p", [F(1, 10), F(1, 4), F(1, 2), F(2, 3), F(3, 4)])
def test_batched_center_flow_matches_per_sample_run(p, m, monkeypatch):
    cdef = get_case("fhn").definition({"m": m, "p": p})
    plan = cdef.runs[0]
    # both runs solve the same series; solve it once
    series = center_manifold_series_1d(cdef.chart, plan.center_degree)
    for module in (casebook, oracles):
        monkeypatch.setattr(module, "center_manifold_series_1d", lambda *_: series)
    run = functools.partial(casebook._execute_run, out_dir=None)
    assert (_center_flow_outcome(run, cdef, plan)
            == _center_flow_outcome(oracles.per_sample_center_flow, cdef, plan))


@pytest.mark.parametrize("name,params", [("lienard", {"n": 3}), ("iy", {})])
def test_batched_observables_match_per_state_calls(name, params):
    cdef = get_case(name).definition(params)
    chart = cdef.chart
    states = np.random.default_rng(5).uniform(-20.0, 20.0, (200, len(chart.vars)))
    # each state's point built here: the angle replaced by (Cs, Sn) at its end
    points = [list(st) for st in states.tolist()]
    if chart.quasipolar_index is not None:
        a = chart.vars.index(chart.angle)
        points = [p[:a] + p[a + 1:] + list(cssn(p[a], chart.quasipolar_index))
                  for p in points]
    cols = chart.poly_columns(states)
    assert all(type(x) is float for col in cols for x in col)
    assert cols == [list(c) for c in zip(*points)]
    assert [chart.state_to_poly_point(st) for st in states] == points
    for obs in cdef.runs[0].observables:
        fn = obs.expr.compile()
        per_state = [fn(*pt) for pt in points]
        assert (np.array(obs.expr.compile_batch()(*cols)).tobytes()
                == np.array(per_state).tobytes())


def test_edge_behind_start_refuses_a_relative_window(monkeypatch):
    # such a run has no edge time to scale its window by; kdv's runs state
    # absolute windows.  The plan is refused before any integration runs
    cdef = get_case("kdv").definition()
    assert not any(plan.window_relative for plan in cdef.runs)
    plan = dataclasses.replace(cdef.runs[0], window_relative=True)
    monkeypatch.setattr(casebook, "integrate",
                        lambda *a, **k: pytest.fail("integrated a refused plan"))
    with pytest.raises(ValueError, match="run 'leading edge' has its edge behind the "
                                         "start, so its window must be absolute"):
        casebook._execute_run(cdef, plan, None)
    cdef.runs = [plan]
    rep = run_case(cdef)
    assert rep.status == "ERROR" and rep.error.startswith("ValueError: run 'leading edge'")
