"""The integrator's field-evaluation counters against the reference path.

``integrate`` inlines the chart field into its loop, so it counts the
evaluations itself.  The reference loop of ``test_fused_stepper`` calls a
compiled field per stage; counting those calls that return (and the
non-finite ones among them, each of which halves the step) gives what
``Trajectory.n_rhs`` and ``Trajectory.n_nonfinite`` must read.
"""

import math

import pytest

import test_fused_stepper as ref
from horizon.casebook import get_case
from horizon.compactify import base_field
from horizon.dynamics import integrate
from horizon.genpoly import parse_genpoly


def counted_reference(monkeypatch, *args, **kw):
    """The reference trajectory and [returned calls, non-finite returns]."""
    compiled = ref.old_compile_rhs
    calls = [0, 0]

    def counting(chart):
        rhs = compiled(chart)

        def wrapped(state):
            vals, g = rhs(state)
            calls[0] += 1
            if not all(math.isfinite(v) for v in (*vals, g)):
                calls[1] += 1
            return vals, g
        return wrapped

    monkeypatch.setattr(ref, "old_compile_rhs", counting)
    return ref.old_integrate(*args, **kw), calls


def assert_counts(monkeypatch, args, kw):
    new = integrate(*args, **kw)
    old, (n_rhs, n_nonfinite) = counted_reference(monkeypatch, *args, **kw)
    assert (new.n_steps, new.n_rejected) == (old.n_steps, old.n_rejected)
    assert new.n_rhs == n_rhs
    assert new.n_nonfinite == n_nonfinite
    return new


@pytest.mark.parametrize("name,idx", ref.DEFAULT_PLANS)
def test_default_run_plans_count_rhs(monkeypatch, name, idx):
    cdef = get_case(name).definition()
    plan = cdef.runs[idx]
    new = assert_counts(monkeypatch, (cdef.chart, plan.initial, plan.tau_end),
                        ref.plan_kwargs(plan))
    assert new.n_rhs >= 1 + 7 * new.n_steps


@pytest.mark.parametrize("n,initial,tau_end", [
    (1, None, 60.0), (1, ref.LIENARD1_TAU1040, 25.0), (3, None, 100.0),
], ids=["n=1", "n=1-tau1040", "n=3"])
def test_lienard_cut_runs_count_rhs(monkeypatch, n, initial, tau_end):
    cdef = get_case("lienard").definition({"n": n})
    plan = cdef.runs[0]
    new = assert_counts(monkeypatch, (cdef.chart, initial or plan.initial, tau_end),
                        ref.plan_kwargs(plan))
    # every error rejection evaluated the six stages, not the end point
    assert new.n_rhs == 1 + 7 * new.n_steps + 6 * new.n_rejected


def test_nonfinite_retries_are_counted(monkeypatch):
    # x' = -sqrt(x) reaches 0 at tau = 2; beyond it the field is NaN
    C = base_field(("x",), [parse_genpoly("-x^(1/2)", ("x",))], name="sqrt-decay")
    new = assert_counts(monkeypatch, (C, [1.0], 3.0), dict(stop_at_equilibrium=False))
    assert 0 < new.n_nonfinite <= new.n_rejected
