"""CLI: spec parsing, exit codes, report emission and replay."""

import json
import math
import pathlib
import re
import struct
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from horizon import casebook
from horizon.casebook import get_case
from horizon.cli import _write_report, main, parse_spec_file
from horizon.compactify import apply_recipe
from horizon.dynamics import integrate
from horizon.errors import ParameterError, ParseError
from horizon.genpoly import parse_genpoly
from test_dynamics import assert_npz_is_trajectory

CASES_DIR = pathlib.Path(__file__).resolve().parents[1] / "cases"


GOOD_SPEC = """
name demo
var x positive
field x : -x^2
type 1
order 1
transform directional index=x
transform desingularize
initial r=1
tau-end 30
h-max 0.1
window 1e-8 1e-3
kind blow-up
observable xval : r^(-1) expect rho=1 q=0 tol-rho=0.05 tol-q=0.1
"""


# the built-in lienard n=3 field and chart, cut at tau 3000, no observable
LIENARD3_SPEC = """
name lienard
var x
var y
field x : y
field y : -x^7 - x^6 - x^3*y
type 1 4
order 3
transform quasipolar m=4
initial r=0.08 theta=0
tau-end 3000
rtol 1e-8
atol 1e-10
"""


def write(tmp_path, text, name="system.spec"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestSpecParsing:
    def test_good_spec(self, tmp_path):
        cdef = parse_spec_file(write(tmp_path, GOOD_SPEC))
        assert cdef.name == "demo"
        assert cdef.chart.vars == ("r",)

    @pytest.mark.parametrize("expect,tols", [
        ("", (0.05, 0.1)),
        (" expect rho=1", (0.05, 0.1)),
        (" expect rho=1 tol-q=0.25", (0.05, 0.25)),
        (" expect rho=1 tol-rho=0.01", (0.01, 0.1)),
    ], ids=["no-expect", "no-tolerance", "tol-q-only", "tol-rho-only"])
    def test_missing_tolerance_is_observable_default(self, tmp_path, expect, tols):
        # (0.05, 0.1) are Observable's field defaults, which a spec takes
        assert (casebook.Observable.tol_rho, casebook.Observable.tol_q) == (0.05, 0.1)
        text = GOOD_SPEC.replace(" expect rho=1 q=0 tol-rho=0.05 tol-q=0.1", expect)
        obs, = parse_spec_file(write(tmp_path, text)).runs[0].observables
        assert (obs.tol_rho, obs.tol_q) == tols
        assert (obs.expected is None) == (expect == "")

    def test_zero_denominator_position(self, tmp_path):
        p = write(tmp_path, "var x\nfield x : x^(1/0)\n")
        with pytest.raises(ParseError) as err:
            parse_spec_file(p)
        assert err.value.line == 2

    def test_unknown_directive(self, tmp_path):
        p = write(tmp_path, "frobnicate 1\n")
        with pytest.raises(ParseError):
            parse_spec_file(p)

    def test_bundled_case_files_parse(self):
        for f in sorted(CASES_DIR.glob("*.spec")):
            cdef = parse_spec_file(f)
            assert cdef.runs

    @pytest.mark.parametrize("params", ["index=x sign=-1", "index=x sign=minus",
                                        "index=x sign=", "sign=+"])
    def test_bad_transform_parameters_name_their_line(self, tmp_path, params):
        spec = GOOD_SPEC.replace("index=x", params)
        with pytest.raises(ParseError) as err:
            parse_spec_file(write(tmp_path, spec))
        assert err.value.line == 7

    def test_quasipolar_spec_samples_sections(self, tmp_path, monkeypatch):
        trajs = []

        def recording(*args, **kw):
            trajs.append(integrate(*args, **kw))
            return trajs[-1]

        monkeypatch.setattr(casebook, "integrate", recording)
        out = tmp_path / "out"
        rc = main(["analyze", str(write(tmp_path, LIENARD3_SPEC)), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["runs"][0]["sampler"] == "sections"
        cdef = get_case("lienard").definition({"n": 3})
        plan = cdef.runs[0]
        ref = integrate(cdef.chart, plan.initial, 3000.0, rtol=plan.rtol,
                        atol=plan.atol, direction=plan.direction, h_max=plan.h_max,
                        stop_at_equilibrium=plan.stop_at_equilibrium)
        (traj,) = trajs
        assert len(ref.sections) >= 300
        assert _bits(traj.sections) == _bits(ref.sections)

    def test_transform_lowers_to_recorded_steps(self):
        chart = parse_spec_file(CASES_DIR / "quench1.spec").chart
        steps = {s.op: s.params for s in chart.provenance}
        assert steps["directional"]["sign"] == -1
        assert steps["directional"]["radial"] == "lam"
        assert chart.vars == ("lam", "phi")


# the built-in kdv chart at its defaults (m = n = 2, c = 1), written as a spec
KDV_SPEC = """
name kdv
var phi positive
var psi
field phi : 1/2 * phi^(-1) * psi
field psi : phi - phi^2
transform rescale 2 * phi
transform blowup var=phi w1=2 w2=3
transform rescale r^(-1)
initial r=1e-8 psi_b=1
"""

# an invariant line y = 1 of the field
LINE_SPEC = """
name line
var x
var y
field x : x^2
field y : x*y - x
transform restrict var=y value=1
initial x=1
"""


class TestSpecTransforms:
    def test_blowup_spec_is_the_builtin_chart(self, tmp_path):
        chart = parse_spec_file(write(tmp_path, KDV_SPEC)).chart
        ref = get_case("kdv").definition().chart
        for name in ("vars", "components", "time_chain", "inverse"):
            assert getattr(chart, name) == getattr(ref, name), name
        # the recorded steps differ only in how the rescale coefficient is written
        steps = [s.to_dict() for s in chart.provenance]
        ref_steps = [s.to_dict() for s in ref.provenance]
        assert steps[1]["params"]["monomial"]["coeff"] == "2"
        assert ref_steps[1]["params"]["monomial"]["coeff"] == 2
        steps[1]["params"]["monomial"]["coeff"] = 2
        assert steps == ref_steps

    def test_restrict_to_invariant_line(self, tmp_path):
        chart = parse_spec_file(write(tmp_path, LINE_SPEC)).chart
        assert chart.vars == ("x",)
        assert chart.components == (parse_genpoly("x^2", ("x",)),)

    def test_restrict_to_line_that_is_not_invariant_is_2(self, tmp_path, capsys):
        spec = LINE_SPEC.replace("value=1", "value=2")
        rc = main(["analyze", str(write(tmp_path, spec)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 7 " in err and "{y = 2} is not invariant" in err


def _bits(obj):
    """Nested structure with every float replaced by its IEEE bit pattern
    and every array by its dtype, shape and bytes."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype, obj.shape, obj.tobytes())
    if isinstance(obj, float):
        return struct.pack("<d", obj)
    if isinstance(obj, (list, tuple)):
        return tuple(_bits(v) for v in obj)
    return obj


class TestExitCodes:
    @pytest.mark.parametrize("argv,flag", [
        (["analyze", "fhn", "--seed", "-1"], "--seed"),   # a Newton search drew from it
        (["analyze", "iy", "--seed", "-1"], "--seed"),    # closed-form equilibria
        (["sweep", "andrews2", "--param", "a1=1/2", "--seed", "-3"], "--seed"),
        (["analyze", "iy", "--jobs", "0"], "--jobs"),
        (["sweep", "iy", "--param", "a=1/2", "--jobs", "0"], "--jobs"),
        (["sweep", "iy", "--param", "a=1/2", "--jobs", "-2"], "--jobs"),
    ], ids=["seed-fhn", "seed-iy", "seed-sweep", "jobs-analyze", "jobs-0", "jobs-negative"])
    def test_out_of_range_flag_is_2(self, tmp_path, capsys, monkeypatch, argv, flag):
        # refused when the arguments are parsed, before any run
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exit_.value.code == 2
        assert f"argument {flag}: must be at least" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_parse_error_is_2(self, tmp_path, capsys):
        p = write(tmp_path, "var x\nfield x : x^(1/0)\n")
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_bad_sign_is_2(self, tmp_path, capsys):
        p = write(tmp_path, GOOD_SPEC.replace("index=x", "index=x sign=-1"))
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "line 7 " in capsys.readouterr().err

    def test_zero_type_entry_is_2(self, tmp_path, capsys):
        spec = ("var u0 positive\nvar u1 positive\nfield u0 : u1\n"
                "field u1 : u0\ntype 0 1\norder 1\n"
                "transform directional index=u0\n")
        rc = main(["analyze", str(write(tmp_path, spec)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 7 " in err and "type entry 0" in err

    @pytest.mark.parametrize("old,new,message", [
        ("field u1 : u1^2 * u0^(-1)", "field u1 : u1^2 * u0^(-1) + u1^(5/2)",
         "component 'u1' has the term u1^(5/2)"),
        ("type 0 1", "type 1", "length 1 for a field of dimension 2"),
        ("type 0 1", "type 0 1 1", "length 3 for a field of dimension 2"),
    ], ids=["term-above-type", "short-type", "long-type"])
    def test_uncertified_type_is_2(self, tmp_path, capsys, old, new, message):
        # the type is certified on the field at the directional line
        text = (CASES_DIR / "aiu.spec").read_text()
        assert old in text
        line = next(i for i, ln in enumerate(text.splitlines(), 1)
                    if ln.startswith("transform directional"))
        rc = main(["analyze", str(write(tmp_path, text.replace(old, new))),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line} " in err and message in err

    def test_quasipolar_m_must_match_type_is_2(self, tmp_path, capsys):
        spec = LIENARD3_SPEC.replace("type 1 4", "type 1 3")
        rc = main(["analyze", str(write(tmp_path, spec)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 9 " in err and "m=4 does not match the declared type 1 3" in err

    def test_quasipolar_m_below_one_is_2(self, tmp_path, capsys):
        # type 1 0 with m = 0 left the Cs/Sn reduction rewriting Cs^0 forever
        spec = (LIENARD3_SPEC.replace("-x^7 - x^6 - x^3*y", "x").replace("type 1 4", "type 1 0")
                .replace("order 3", "order 1").replace("m=4", "m=0"))
        rc = main(["analyze", str(write(tmp_path, spec)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: line 9 col 1: ") and "needs m >= 1, not m = 0" in err

    @pytest.mark.parametrize("old,new,message", [
        ("type 1 1", "type -1 1", "type entries must be nonnegative"),
        ("type 1 1", "type 0 0", "at least one positive type entry is required"),
        ("order 3\n", "", "'type' declared without 'order'"),
    ], ids=["negative", "all-zero", "no-order"])
    def test_refused_type_is_2_at_its_line(self, tmp_path, capsys, old, new, message):
        # these ended as a pipeline error (exit 3), or at line 1
        text = (CASES_DIR / "iy.spec").read_text()
        assert old in text
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if ln.startswith("type "))
        rc = main(["analyze", str(write(tmp_path, text.replace(old, new))),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"parse error: line {line} col 1: ") and message in err

    @pytest.mark.parametrize("line,usage", [
        ("window 1e-8", "window <low> <high>"),
        ("box x 1", "unknown directive 'box'"),  # no spec states a search range
        ("var", "var <name>"),
        # an observable without a name ran, fitted and reported under ''
        ("observable : r^(-1)", "observable needs a name before ':'"),
        # without its ':' the whole line was the name: "empty expression"
        ("observable xval r^(-1)", "observable needs ':' between name and expression"),
    ], ids=["window", "box", "var", "observable-name", "observable-colon"])
    def test_missing_directive_argument_is_2(self, tmp_path, capsys, line, usage):
        spec = GOOD_SPEC.replace("window 1e-8 1e-3", line)
        rc = main(["analyze", str(write(tmp_path, spec)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 12 " in err and usage in err

    @pytest.mark.parametrize("old,new,message", [
        ("tau-end 45", "tau-end nan", "tau-end = nan is not finite and nonnegative"),
        ("tau-end 45", "tau-end -1", "tau-end = -1.0 is not finite and nonnegative"),
        ("tau-end 45", "tau-end inf", "tau-end = inf is not finite and nonnegative"),
        ("h-max 0.05", "h-max nan", "h-max = nan is not positive"),
        ("h-max 0.05", "h-max 0", "h-max = 0.0 is not positive"),
        ("kind blow-up", "kind blow-up\nrtol nan", "rtol = nan is not in"),
        ("kind blow-up", "kind blow-up\natol 1", "atol = 1.0 is not in"),
    ], ids=["tau-end-nan", "tau-end-negative", "tau-end-inf", "h-max-nan", "h-max-zero",
            "rtol-nan", "atol-1"])
    def test_run_number_integrate_refuses_is_2(self, tmp_path, capsys, old, new, message):
        # a NaN tau-end ended the run after 0 steps and exited 3 on the tail;
        # an infinite one ran to the 2,000,000-step budget and exited 3; a
        # NaN h-max lifted the step cap and passed
        text = (CASES_DIR / "iy.spec").read_text()
        assert old in text
        text = text.replace(old, new)
        line = next(i for i, ln in enumerate(text.splitlines(), 1)
                    if ln == new.splitlines()[-1])
        rc = main(["analyze", str(write(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line} " in err and message in err

    @pytest.mark.parametrize("value", ["0", "7", "-3"])
    def test_direction_other_than_one_or_minus_one_is_2(self, tmp_path, capsys, monkeypatch,
                                                         value):
        # direction 0 and 7 ran forward and -3 backward, and each exited 0
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        text = (CASES_DIR / "extinction.spec").read_text() + f"direction {value}\n"
        rc = main(["analyze", str(write(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {len(text.splitlines())} " in err
        assert f"direction = {value} is not 1 or -1" in err

    def test_direction_minus_one_is_read(self, tmp_path):
        text = (CASES_DIR / "extinction.spec").read_text() + "direction -1\n"
        assert parse_spec_file(write(tmp_path, text)).runs[0].direction == -1

    @pytest.mark.parametrize("old,new,message", [
        ("tol-rho=0.03", "tol-rho=nan", "expect tol-rho = nan is not finite and nonnegative"),
        ("tol-rho=0.03", "tol-rho=-1", "expect tol-rho = -1.0 is not finite and nonnegative"),
        ("tol-q=0.1", "tol-q=inf", "expect tol-q = inf is not finite and nonnegative"),
        ("window 1e-10 1e-4", "window nan 1e-4", "window needs low < high, not nan 0.0001"),
        ("window 1e-10 1e-4", "window 1e-4 1e-10", "window needs low < high, not 0.0001 1e-10"),
        ("initial r=0.5 v1=0.5", "initial r=nan v1=0.5", "initial r = nan is not finite"),
        ("initial r=0.5 v1=0.5", "initial r=0.5 v1=-inf", "initial v1 = -inf is not finite"),
        ("rho=1/2 q=0", "q=0", "expect needs rho=<number>"),
        # Fraction refused these spellings; the one number reader passes
        # them to float, so they are refused as not finite
        ("rho=1/2 q=0", "rho=nan q=0", "expect rho = nan is not finite"),
        ("rho=1/2 q=0", "rho=1/2 q=-inf", "expect q = -inf is not finite"),
        ("equilibrium 0 1", "equilibrium 0 inf", "equilibrium = inf is not finite"),
    ], ids=["tol-rho-nan", "tol-rho-negative", "tol-q-inf", "window-nan", "window-reversed",
            "initial-nan", "initial-inf", "expect-no-rho", "expect-rho-nan", "expect-q-inf",
            "equilibrium-inf"])
    def test_spec_number_no_run_can_use_is_2(self, tmp_path, capsys, monkeypatch, old, new,
                                             message):
        # a NaN or negative tolerance gave a verdict that could never pass
        # (exit 1); the window and initial values gave ERROR (exit 3); an
        # expect without rho was a parse error that named only 'rho'
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        text = (CASES_DIR / "iy.spec").read_text()
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if old in ln)
        rc = main(["analyze", str(write(tmp_path, text.replace(old, new))),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line} " in err and message in err

    @pytest.mark.parametrize("old,new,message", [
        ("equilibrium 0 1\n", "equilibrium 0 1e400\n", "a number is outside the float range"),
        ("equilibrium 0 1\n", "equilibrium 0 1/0\n", "a number has a zero denominator"),
        ("q=0 tol-rho", "q=1e400 tol-rho", "a number is outside the float range"),
        # float() read 1e400 as inf: initial refused it as not finite and
        # window took it as its high bound; tau-end refused 1/0 as no float
        ("initial r=0.5", "initial r=1e400", "a number is outside the float range"),
        ("window 1e-10 1e-4\n", "window 1e-10 1e400\n", "a number is outside the float range"),
        ("tau-end 45\n", "tau-end 1/0\n", "a number has a zero denominator"),
    ], ids=["equilibrium-1e400", "equilibrium-1/0", "expect-q-1e400", "initial-1e400",
            "window-1e400", "tau-end-1/0"])
    def test_spec_number_past_float_range_is_2(self, tmp_path, capsys, monkeypatch, old, new,
                                               message):
        # float(Fraction(...)) raised OverflowError or ZeroDivisionError out
        # of the parser: a traceback and exit 1
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        text = (CASES_DIR / "iy.spec").read_text()
        assert old in text
        text = text.replace(old, new)
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if new.strip() in ln)
        rc = main(["analyze", str(write(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert f"parse error: line {line} col 1: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec,old,new", [
        ("iy.spec", "field v1 : 1/2 * v1^3", "field v1 : 1e400 * v1^3"),
        ("iy.spec", "observable v0 : r^(-1)", "observable v0 : 1e400 * r^(-1)"),
        ("aiu.spec", "transform rescale u0^2", "transform rescale 1e400 * u0^2"),
    ], ids=["field", "observable", "rescale"])
    def test_coefficient_past_float_range_is_2_at_its_column(self, tmp_path, capsys,
                                                            monkeypatch, spec, old, new):
        # the coefficient was inf: the field and the observable ended as
        # ERROR reports (NameError: name 'inf' is not defined, OverflowError)
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        text = (CASES_DIR / spec).read_text()
        assert old in text
        text = text.replace(old, new)
        line, col = next((i, ln.index("1e400") + 1)
                         for i, ln in enumerate(text.splitlines(), 1) if new in ln)
        rc = main(["analyze", str(write(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"parse error: line {line} col {col}: coefficient is outside the float range "
                "at '1e400'") in capsys.readouterr().err

    def test_transform_that_overflows_a_coefficient_is_2_at_its_line(self, tmp_path, capsys,
                                                                      monkeypatch):
        # both numbers are floats, but the rescale multiplies them to inf: the
        # run ended as ERROR (OverflowError from the horizon root, exit 3)
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        text = (CASES_DIR / "iy.spec").read_text()
        for old, new in (("field v1 : 1/2 * v1^3 * v0", "field v1 : 1e200 * v1^3 * v0"),
                         ("transform rescale v1^(-1)", "transform rescale 1e200 * v1^(-1)")):
            assert old in text
            text = text.replace(old, new)
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if "rescale" in ln)
        rc = main(["analyze", str(write(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert (f"parse error: line {line} col 1: transform rescale: coefficient outside "
                "the float range in -5e+199 * v1 + inf * v1^2") in capsys.readouterr().err

    @pytest.mark.parametrize("case,param", [
        ("lienard", "n=1" + "0" * 400),
        ("iy", "a=1" + "0" * 400 + "/3"),
        ("andrews1", "a=-1" + "0" * 400),
    ], ids=["lienard-int", "iy-fraction", "andrews1-float"])
    def test_param_past_float_range_is_2(self, tmp_path, capsys, monkeypatch, case, param):
        # float(p[k]) raised OverflowError in the range check: exit 1
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        rc = main(["sweep", case, "--param", param, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "outside admissible range" in capsys.readouterr().err
        # every finite value keeps its decision on the float range check
        spec = get_case("iy")
        for a in (0.01, 0.99, F(99, 100), F(1, 100)):
            assert spec.check({"a": a})["a"] == (F(repr(a)) if isinstance(a, float) else a)
        for a in (0.0099, 1, F(991, 1000)):
            with pytest.raises(ParameterError, match="outside admissible range"):
                spec.check({"a": a})

    @pytest.mark.parametrize("old,new,message", [
        ("var v1 positive", "var v1 positive\nvar v1", "variable 'v1' declared twice"),
        ("field v1 : 1/2 * v1^3 * v0", "field v1 : 1/2 * v1^3 * v0\nfield v1 : v0",
         "field for 'v1' given twice"),
        ("initial r=0.5 v1=0.5", "initial r=0.5 v1=0.5\ninitial v1=1",
         "initial gives 'v1' twice"),
        ("initial r=0.5 v1=0.5", "initial r=0.5 v1=0.5 r=1", "initial gives 'r' twice"),
        ("tol-rho=0.03 tol-q=0.1", "rho=1", "expect gives 'rho' twice"),
        ("index=v0 sign=+", "index=v0 sign=+ index=v1",
         "transform directional gives 'index' twice"),
        ("observable v0 : r^(-1) expect", "observable v0 : r^(-1)\nobservable v0 : r^(-1) expect",
         "observable 'v0' given twice (first at line"),
    ], ids=["var", "field", "initial-line", "initial-key", "expect-key", "transform-key",
            "observable"])
    def test_repeated_name_is_2(self, tmp_path, capsys, monkeypatch, old, new, message):
        # a second var line failed at a later transform line, a second
        # field line, initial name or key replaced the first without a word,
        # and a second observable gave two verdicts no reader could tell apart
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        text = (CASES_DIR / "iy.spec").read_text()
        # refused at the repeated line, the last of ``new``
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if old in ln)
        line += new.count("\n")
        rc = main(["analyze", str(write(tmp_path, text.replace(old, new))),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line} " in err and message in err

    @pytest.mark.parametrize("directive", [
        "tau-end 45", "h-max 0.05", "rtol 1e-10", "atol 1e-12", "direction 1",
        "window 1e-10 1e-4", "kind blow-up", "type 1 1", "order 3", "prefactor 1",
        "name iy-generic",
    ], ids=lambda d: d.split()[0])
    def test_repeated_single_value_directive_is_2(self, tmp_path, capsys, monkeypatch,
                                                   directive):
        # a second line replaced the first without a word: 'tau-end 1' after
        # iy's 'tau-end 45' gave ERROR (exit 3) and named no line
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: pytest.fail("a run started"))
        text = (CASES_DIR / "iy.spec").read_text() + f"{directive}\n{directive}\n"
        head = directive.split()[0]
        first, second = [i for i, ln in enumerate(text.splitlines(), 1)
                         if ln.split(" ", 1)[0] == head][:2]
        rc = main(["analyze", str(write(tmp_path, text)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {second} " in err
        assert f"'{head}' given twice (first at line {first})" in err

    def test_rescale_by_sign_changing_factor_is_2(self, tmp_path, capsys):
        # psi takes both signs, so rescaling time by it would reverse time
        # on part of the phase plane
        text = (CASES_DIR / "quench1.spec").read_text()
        p = write(tmp_path, text.replace("transform rescale phi",
                                         "transform rescale psi"))
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 10 " in err and "SignError" not in err
        assert "not positive" in err

    def test_even_rescale_of_unmasked_variable_is_2(self, tmp_path, capsys):
        # psi^2 vanishes on psi = 0, where the rescaled chart would gain a
        # line of equilibria the base field does not have
        text = (CASES_DIR / "quench1.spec").read_text()
        p = write(tmp_path, text.replace("transform rescale phi",
                                         "transform rescale phi * psi^2"))
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 10 " in err and "psi has exponent 2" in err

    def test_fractional_rescale_of_unmasked_variable_is_2(self, tmp_path, capsys):
        # x^(1/2) is certified positive only where x is declared positive
        text = (CASES_DIR / "extinction.spec").read_text()
        p = write(tmp_path, text.replace("var x positive", "var x"))
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 9 " in err and "not positive" in err

    def test_chart_without_radial_searches_the_whole_field(self, tmp_path, capsys):
        # x' = -x after the rescale: no horizon, so the search runs over x
        rc = main(["analyze", str(CASES_DIR / "extinction.spec"),
                   "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "equilibria: 1 found; expected all found" in out
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [e["coords"] for e in doc["equilibria"]] == [[0.0]]

    @pytest.mark.parametrize("spec,old,new,word", [
        ("quench1.spec", "sign=-", "sgn=-", "'sgn'"),
        ("iy.spec", "tol-rho=0.03", "tol_rho=0.001", "'tol_rho'"),
        ("iy.spec", "initial r=0.5 v1=0.5", "initial r=0.5 v1=0.5 v2=3", "'v2'"),
        ("aiu.spec", "var u1 positive", "var u1 postive", "'postive'"),
        ("aiu.spec", "1e-3 absolute", "1e-3 absolut", "'absolut'"),
    ], ids=["transform-key", "expect-key", "initial-name", "var-flag", "window-word"])
    def test_undefined_word_is_2(self, tmp_path, capsys, spec, old, new, word):
        # each of these was ignored: the run went ahead without the word
        text = (CASES_DIR / spec).read_text()
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if old in ln)
        rc = main(["analyze", str(write(tmp_path, text.replace(old, new))),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line} " in err and word in err

    @pytest.mark.parametrize("spec,old,new,message", [
        ("iy.spec", "equilibrium 0 1", "equilibrium 0",
         "equilibrium needs one number per chart variable (r, v1), not 1"),
        # the equilibria are decided without a search range, so a box line
        # takes the place of the line it is put before
        ("iy.spec", "equilibrium 0 0", "box zz 0 2\nequilibrium 0 0",
         "unknown directive 'box'"),
        ("iy.spec", "equilibrium 0 0", "box r 0 2\nequilibrium 0 0",
         "unknown directive 'box'"),
    ], ids=["equilibrium-arity", "box-unknown-var", "box-radial-var"])
    def test_spec_fact_the_search_cannot_use_is_2(self, tmp_path, capsys, spec, old,
                                                  new, message):
        # each was dropped or compared on a prefix: the run went ahead
        text = (CASES_DIR / spec).read_text()
        line = next(i for i, ln in enumerate(text.splitlines(), 1) if ln == old)
        rc = main(["analyze", str(write(tmp_path, text.replace(old, new))),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"line {line} " in err and message in err

    def test_quasipolar_chart_takes_no_box(self, tmp_path, capsys):
        # no chart takes one: a box line is an unknown directive
        spec = LIENARD3_SPEC + "box theta 0 1\n"
        rc = main(["analyze", str(write(tmp_path, spec)), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 14 " in err and "unknown directive 'box'" in err

    def test_exponentially_growing_integrand_is_3(self, tmp_path, capsys):
        # x' = 1 rescaled by x: dt/dtau = x = e^tau grows, so no edge lies ahead
        spec = ("name lin\nvar x positive\nfield x : 1\ntransform rescale x\n"
                "initial x=1\ntau-end 20\nobservable x : x\n")
        rc = main(["analyze", str(write(tmp_path, spec)), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "grows like exp(1 tau)" in capsys.readouterr().out

    def test_unknown_kind_is_2(self, tmp_path, capsys):
        p = write(tmp_path, GOOD_SPEC.replace("kind blow-up", "kind blowup"))
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 13 " in err and "unknown kind 'blowup'" in err

    def test_grow_up_kind_expects_infinite_edge(self, tmp_path, capsys):
        text = (CASES_DIR / "iy.spec").read_text()
        p = write(tmp_path, text.replace("kind blow-up", "kind grow-up"))
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "edge is finite, expected infinite" in capsys.readouterr().out

    def test_unknown_case_is_2(self, tmp_path):
        rc = main(["analyze", "not-a-case", "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_pass_is_0(self, tmp_path, capsys):
        # dx/dt = -x^2 backwards in s = 1/x: blow-up rate 1 with no log factor
        p = write(tmp_path, GOOD_SPEC.replace("-x^2", "x^2"))
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "[PASS]" in out

    def test_verdict_failure_is_1(self, tmp_path, capsys):
        bad = GOOD_SPEC.replace("-x^2", "x^2").replace("rho=1", "rho=2")
        p = write(tmp_path, bad)
        rc = main(["analyze", str(p), "--out", str(tmp_path / "out")])
        assert rc == 1

    def test_list_cases(self, capsys):
        rc = main(["analyze", "--list-cases"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 8

    def test_builtin_by_name(self, tmp_path, capsys):
        rc = main(["analyze", "iy", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "report.json").exists()
        assert (tmp_path / "out" / "fits.csv").exists()
        written = sorted(p.name for p in (tmp_path / "out" / "trajectories").iterdir())
        assert written == ["iy_generic_v0__v1.npz", "iy_symmetric_line_v0__v1.npz"]
        assert not list((tmp_path / "out" / "trajectories").rglob("*.csv"))

    def test_directory_named_like_a_case_is_the_case(self, tmp_path, capsys, monkeypatch):
        # the output of ``analyze iy --out iy`` is no spec for the next run
        monkeypatch.chdir(tmp_path)
        (tmp_path / "iy").mkdir()
        assert main(["analyze", "iy", "--out", "iy"]) == 0
        assert "[PASS] iy" in capsys.readouterr().out

    def test_unreadable_spec_file_is_2(self, tmp_path, capsys, monkeypatch):
        p = write(tmp_path, GOOD_SPEC)

        def refuse(path, *args, **kw):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(pathlib.Path, "read_text", refuse)
        assert main(["analyze", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot read spec file {str(p)!r}: Permission denied\n")

    def test_spec_file_not_utf8_is_2(self, tmp_path, capsys):
        p = tmp_path / "latin.spec"
        p.write_bytes(b"# caf\xe9\n" + GOOD_SPEC.encode())
        assert main(["analyze", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: spec file {str(p)!r} is not UTF-8: byte 0xe9 at offset 5\n")
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path):
        # a BOM was an unknown directive '\ufeff' at line 1 col 1 (exit 2)
        plain, bom = tmp_path / "iy.spec", tmp_path / "iy-bom.spec"
        plain.write_bytes((CASES_DIR / "iy.spec").read_bytes())
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        docs = []
        for p in (plain, bom):
            assert main(["analyze", str(p), "--out", str(tmp_path / p.stem)]) == 0
            docs.append(json.loads((tmp_path / p.stem / "report.json").read_text()))
            docs[-1].pop("wallclock_s")
        assert docs[0] == docs[1]

    def test_fractions_read_as_the_decimals_they_equal(self, tmp_path):
        # initial, tau-end and window took only float() spellings:
        # "could not convert string to float: '1/2'"
        text = (CASES_DIR / "iy.spec").read_text()
        frac = text
        for old, new in [("initial r=0.5 v1=0.5", "initial r=1/2 v1=1/2"),
                         ("tau-end 45", "tau-end 90/2"),
                         ("window 1e-10 1e-4", "window 1/10000000000 1/10000")]:
            assert old in frac
            frac = frac.replace(old, new)
        docs = []
        for name, spec in (("plain", text), ("frac", frac)):
            assert main(["analyze", str(write(tmp_path, spec, f"{name}.spec")),
                         "--out", str(tmp_path / name)]) == 0
            docs.append(json.loads((tmp_path / name / "report.json").read_text()))
            docs[-1].pop("wallclock_s")
        assert docs[0] == docs[1]

    def test_not_utf8_after_a_byte_order_mark_names_the_file_offset(self, tmp_path, capsys):
        p = tmp_path / "latin.spec"
        p.write_bytes(b"\xef\xbb\xbf# caf\xe9\n" + GOOD_SPEC.encode())
        assert main(["analyze", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: spec file {str(p)!r} is not UTF-8: byte 0xe9 at offset 8\n")

    @pytest.mark.parametrize("argv", [["analyze", "iy"], ["sweep", "iy"]],
                             ids=["analyze", "sweep"])
    def test_out_an_existing_file_is_2(self, tmp_path, capsys, argv):
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write output {str(out)!r}: File exists\n"
        assert out.read_text() == "not a directory\n"


class TestReports:
    def test_report_roundtrip_and_replay(self, tmp_path):
        rc = main(["analyze", "iy", "--out", str(tmp_path / "out")])
        assert rc == 0
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        assert doc["schema"] == 2
        rebuilt = apply_recipe(None, doc["chart"]["provenance"])
        from horizon.genpoly import format_genpoly

        assert [format_genpoly(c) for c in rebuilt.components] == \
            doc["chart"]["components"]
        assert [format_genpoly(c) for c in rebuilt.time_chain] == \
            doc["chart"]["time_chain"]

    def test_float_fidelity(self, tmp_path):
        main(["analyze", "iy", "--out", str(tmp_path / "out")])
        doc = json.loads((tmp_path / "out" / "report.json").read_text())
        rho = doc["runs"][0]["fits"][0]["rho"]
        assert isinstance(rho, float)
        # round-trips exactly through the emitted representation
        assert float(repr(rho)) == rho

    def test_nonfinite_floats_are_strings(self, tmp_path):
        inf, nan = math.inf, math.nan
        fit = {"observable": "y", "rho": 0.1, "q": -inf, "C": inf, "rho_se": nan,
               "q_se": inf, "r2": 1.0, "window": (1e-9, inf), "n_samples": 50,
               "drift_rho": None, "collinear_q": True}
        report = casebook.RunReport(
            case="x", params={"a": F(1, 3), "b": inf}, seed=0, status="PASS", chart={},
            equilibria=[{"eigenvalues": [[-inf, 0.0], [nan, inf]]}],
            eq_check={}, wallclock_s=0.5,
            runs=[{"label": "x", "edge": {"value": inf, "integrated": 2.0, "tail": inf,
                                          "error_bound": nan}, "fits": [fit]}])
        doc = report.to_dict()
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc
        assert doc["params"] == {"a": "1/3", "b": "inf"}
        assert doc["equilibria"] == [{"eigenvalues": [["-inf", 0.0], ["nan", "inf"]]}]
        run, = doc["runs"]
        assert run["edge"] == {"value": "inf", "integrated": 2.0, "tail": "inf",
                               "error_bound": "nan"}
        assert run["fits"] == [dict(fit, q="-inf", C="inf", rho_se="nan", q_se="inf",
                                    window=[1e-9, "inf"])]
        _write_report(tmp_path, [report])
        text = (tmp_path / "report.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text) == doc
        # the CSV reads the report's own floats
        rows = (tmp_path / "fits.csv").read_text().splitlines()
        assert rows[1] == ("x,a=1/3;b=inf,x,y,0.10000000000000001,-inf,inf,1,"
                           "1.0000000000000001e-09,inf,50,True")

    @pytest.mark.parametrize("argv", [
        *(["analyze", c] for c in ("aiu", "iy", "andrews1", "andrews2", "quench", "fhn", "kdv")),
        *(["analyze", f.name] for f in sorted(CASES_DIR.glob("*.spec"))),
        ["sweep", "fhn", "--param", "p=3/4"],
    ], ids=" ".join)
    def test_report_json_is_to_dict(self, tmp_path, argv):
        # report.json holds to_dict() as it is; the sweep point is an ERROR report
        if argv[1].endswith(".spec"):
            argv = [argv[0], str(CASES_DIR / argv[1])]
            source, params = parse_spec_file(pathlib.Path(argv[1])), None
        else:
            source, params = argv[1], {"p": F(3, 4)} if argv[0] == "sweep" else None
        main([*argv, "--out", str(tmp_path / "out"), "--seed", "0"])
        written = json.loads((tmp_path / "out" / "report.json").read_text())
        doc = casebook.run_case(source, params, seed=0).to_dict()
        json.dumps(doc, allow_nan=False)
        assert (doc["status"] == "ERROR") == (argv[0] == "sweep")
        written.pop("wallclock_s")
        doc.pop("wallclock_s")
        assert written == doc


class TestTrajectoryFiles:
    @staticmethod
    def analyze(monkeypatch, target, out):
        """Run ``analyze target --out out``; return the exit code and each
        (trajectory, path) the run wrote."""
        written, write = [], casebook.trajectory_to_csv

        def recording(traj, path):
            written.append((traj, path))
            write(traj, path)

        monkeypatch.setattr(casebook, "trajectory_to_csv", recording)
        return main(["analyze", str(target), "--out", str(out)]), written

    def test_directional_run_reads_back_bit_for_bit(self, tmp_path, monkeypatch, capsys):
        rc, written = self.analyze(monkeypatch, CASES_DIR / "iy.spec", tmp_path / "out")
        assert rc == 0 and len(written) == 1
        traj, path = written[0]
        assert path == tmp_path / "out" / "trajectories" / "iy-generic_iy-generic.npz"
        assert traj.chart.quasipolar_index is None
        assert_npz_is_trajectory(path, traj)

    def test_variable_named_t_keeps_every_column(self, tmp_path, monkeypatch, capsys):
        text = re.sub(r"\bu0\b", "t", (CASES_DIR / "aiu.spec").read_text())
        rc, written = self.analyze(monkeypatch, write(tmp_path, text), tmp_path / "out")
        assert rc == 1 and len(written) == 1  # aiu's q FAIL by design (test_acceptance)
        traj, path = written[0]
        assert traj.chart.vars == ("r", "t")
        assert_npz_is_trajectory(path, traj)


class TestSweep:
    def test_empty_grid_empty_csv(self, tmp_path):
        rc = main(["sweep", "iy", "--out", str(tmp_path / "out")])
        assert rc == 0
        rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) == 1  # header only

    def test_invalid_parameter_is_2(self, tmp_path):
        rc = main(["sweep", "iy", "--param", "zeta=1", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["quench", "--param", "alpha=1.5"],
        ["kdv", "--param", "n=2.5"],
        ["iy", "--param", "a=5"],
        ["iy", "--param", "a=1e400"],
        ["lienard", "--param", "n=2"],
    ], ids=["non-integral-alpha", "non-integral-n", "out-of-range", "infinite",
            "even-lienard-n"])
    def test_bad_parameter_value_is_2(self, tmp_path, capsys, argv):
        rc = main(["sweep", *argv, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: parameter ")
        assert not (tmp_path / "o").exists()

    def test_bad_last_point_runs_no_point(self, tmp_path, monkeypatch):
        ran = []
        monkeypatch.setattr(casebook, "run_case",
                            lambda spec, params, seed=0: ran.append(params))
        rc = main(["sweep", "iy", "--param", "a=1/2,5", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ran == []
        assert not (tmp_path / "o").exists()

    def test_builder_rule_runs_no_point(self, tmp_path, capsys, monkeypatch):
        # lienard's odd-n rule is the builder's; n=2 must stop the sweep
        # before n=1 integrates
        ran = []
        monkeypatch.setattr(casebook, "integrate", lambda *a, **k: ran.append(a))
        rc = main(["sweep", "lienard", "--param", "n=1,2", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert ran == []
        assert "lienard needs an odd n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv,params", [
        (["andrews2", "--param", "a1=0.05"], {"a": "1/4", "a1": "1/20"}),
        (["andrews1", "--param", "a=0.3"], {"a": 0.3, "theta": math.pi / 4}),
    ], ids=["exact", "float"])
    def test_parameter_takes_the_type_of_its_default(self, tmp_path, argv, params):
        main(["sweep", *argv, "--out", str(tmp_path / "o")])
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        assert doc["params"] == params

    @pytest.mark.parametrize("param", ["a=abc", "a=1/0", "a=", "a=,"])
    def test_unparsable_value_is_2(self, tmp_path, capsys, param):
        rc = main(["sweep", "iy", "--param", param, "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad --param {param!r}\n"

    def test_repeated_parameter_is_2(self, tmp_path, capsys):
        rc = main(["sweep", "kdv", "--param", "c=1,10", "--param", "c=2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == "error: --param 'c' given twice\n"
        assert not (tmp_path / "o").exists()

    def test_far_sink_is_found(self, tmp_path, capsys):
        # the sink of the a < 1/2 regime, at u0 = 12.7, is found
        rc = main(["sweep", "andrews1", "--param", "a=0.05", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "MISSING" not in out

    def test_failing_report_is_1(self, tmp_path, capsys, monkeypatch):
        # no built-in sweep point fails: every point runs the aiu case, whose
        # rate verdicts fail (criterion 1b)
        run_case = casebook.run_case
        monkeypatch.setattr(casebook, "run_case",
                            lambda spec, params, seed=0: run_case("aiu", seed=seed))
        rc = main(["sweep", "iy", "--param", "a=1/2", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "[FAIL] aiu" in capsys.readouterr().out

    def test_single_point(self, tmp_path):
        rc = main(["sweep", "iy", "--param", "a=1/2", "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = (tmp_path / "o" / "sweep.csv").read_text().strip().splitlines()
        assert len(rows) >= 2


@pytest.mark.parametrize("argv", [
    ["quench", "--param", "alpha=3,5"],
    ["kdv", "--param", "n=3", "--param", "m=2,3"],
], ids=["quench", "kdv"])
def test_primitive_blowup_weights_pass(argv, tmp_path, capsys):
    # (alpha-1, alpha+1) and (2, n+1) share a factor 2 at these points
    rc = main(["sweep", *argv, "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().out
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert [r["status"] for r in doc["reports"]] == ["PASS", "PASS"]
    verdicts = [v for r in doc["reports"] for run in r["runs"] for v in run["verdicts"]]
    assert len(verdicts) >= 4 and all(v["passed"] for v in verdicts)


@pytest.mark.parametrize("argv", [
    ["quench", "--param", "alpha=1", "--param", "c=1/10"],
    ["andrews2", "--param", "a=2", "--param", "a1=1"],
    ["kdv", "--param", "c=1/10,1/5"],
], ids=["quench-far-sink", "andrews2-far-sink", "kdv-small-c"])
def test_far_equilibria_and_slow_saddles_pass(argv, tmp_path, capsys):
    # the sinks at phi = 10 and w = 3 are found, and at small c the kdv
    # saddles take longer to reach the fit window
    rc = main(["sweep", *argv, "--out", str(tmp_path / "o")])
    assert rc == 0, capsys.readouterr().out
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    reports = doc.get("reports", [doc])
    assert all(r["status"] == "PASS" for r in reports)
    assert all(r["equilibrium_check"]["all_found"] for r in reports)
    verdicts = [v for r in reports for run in r["runs"] for v in run["verdicts"]]
    assert verdicts and all(v["passed"] for v in verdicts)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "horizon.cli", "analyze", "--list-cases"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "lienard" in proc.stdout


# (x^2 + y^2)^m (x - 100 y, 100 x + y), expanded: its norm rho = 1/r obeys
# rho' = rho^(2m+1), so from rho = 2 it blows up at t_max = 1/(2m 4^m) as
# rho = C (t_max - t)^(-1/(2m)) with C = (2m)^(-1/(2m))
CLOSED_FORM_FIELDS = {
    1: ("x^3 - 100*x^2*y + x*y^2 - 100*y^3", "100*x^3 + x^2*y + 100*x*y^2 + y^3"),
    2: ("x^5 - 100*x^4*y + 2*x^3*y^2 - 200*x^2*y^3 + x*y^4 - 100*y^5",
        "100*x^5 + x^4*y + 200*x^3*y^2 + 2*x^2*y^3 + 100*x*y^4 + y^5"),
}


# x' = x^2 from x = 2, so x = 1/s with t_max = 1/2, and y' a hyperbolic sink
# in the directional chart (r = 1/x): with y' = x y/2 the chart is r' = -r,
# y' = -y/2 and x = r^(-1) has rho = 1, q = 0, C = 1; with y' = x it is
# r' = -r, y' = r - y, a Jordan block at -1, and from y = log 2 (chart y =
# log(2)/2) the solution is y = log(1/s), so rho = 0, q = 1, C = 1.  Each
# fit is bounded around its measured error: (value, tolerance)
SINK_SPEC = """name {name}
var x positive
var y
field x : x^2
field y : {field}
type 1 1
order 1
transform directional index=x sign=+
transform desingularize
initial r=0.5 y={y}
tau-end 40
window 1e-10 1e-4
observable {observable}
"""
CLOSED_FORM_SINKS = {
    "sink": (SINK_SPEC.format(name="sink", field="1/2*x*y", y=0.5, observable="x : r^(-1)"),
             {"rho": (1.0, 2e-8), "q": (0.0, 3e-7), "C": (1.0, 5e-7)}),
    "resonant-sink": (SINK_SPEC.format(name="resonant", field="x", y=math.log(2.0) / 2.0,
                                       observable="y : r^(-1) * y"),
                      {"rho": (0.0, 1e-9), "q": (1.0, 1.5e-8), "C": (1.0, 2.5e-8)}),
}


@pytest.mark.parametrize("case", [*CLOSED_FORM_FIELDS, *CLOSED_FORM_SINKS], ids=str)
def test_closed_form_blowup_through_the_pipeline(case, tmp_path):
    if case in CLOSED_FORM_SINKS:
        spec, want = CLOSED_FORM_SINKS[case]
        t_max, t_tol = 0.5, 1e-14
    else:
        m, (fx, fy) = case, CLOSED_FORM_FIELDS[case]
        spec = (f"name radial{m}\nvar x\nvar y\nfield x : {fx}\nfield y : {fy}\n"
                f"type 1 1\norder {2 * m}\ntransform quasipolar m=1\n"
                "initial r=0.5 theta=0\ntau-end 40\nobservable rho : r^(-1)\n")
        t_max = 1 / (2 * m * 4**m)
        t_tol = 1e-12 * t_max
        # the rate to within the revolution sampling, not yet the edge's tail
        C = (2 * m) ** (-1 / (2 * m))
        want = {"rho": (1 / (2 * m), 5e-4), "q": (0.0, 5e-3), "C": (C, 0.01 * C)}
    out = tmp_path / "out"
    assert main(["analyze", str(write(tmp_path, spec)), "--out", str(out)]) == 0
    (run,) = json.loads((out / "report.json").read_text())["runs"]
    assert abs(run["edge"]["value"] - t_max) <= t_tol
    assert case not in CLOSED_FORM_SINKS or run["n_steps"] == 4604
    (fit,) = run["fits"]
    for key, (value, tol) in want.items():
        assert abs(fit[key] - value) <= tol, (key, fit[key])
