"""Span recorder for the traced benchmark run.

The pipeline is traced from outside: `traced()` temporarily replaces the
public names the pipeline calls through (``horizon.casebook``'s imported
helpers, ``CaseSpec.definition``, ``ChartField.compile_rhs`` and the CLI
entry points) with wrappers that record spans, then restores them.  Nothing
under ``src/`` changes.

A span is ``[name, start, end, parent, attrs]`` with ``perf_counter``
seconds and ``parent`` the index of the enclosing span (or None).  The
chart-rhs closure runs millions of times per case, so its calls are not
spans: each closure adds its time and call count to the ``rhs`` counter
[seconds, calls] of the span that compiled it, and self time subtracts them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def start(self, name, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def wrap(self, name, fn, attrs_of=None, counts_of=None):
        """`fn` recording a span per call; `attrs_of(args)` and
        `counts_of(result)` add attrs to it."""

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            idx = self.start(name, **(attrs_of(args) if attrs_of else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if counts_of is not None:
                self.spans[idx][4].update(counts_of(result))
            return result

        return traced_call

    def wrap_compile_rhs(self, compile_rhs):
        @functools.wraps(compile_rhs)
        def traced_compile_rhs(chart):
            rhs = compile_rhs(chart)
            attrs = self.spans[self._open[-1]][4] if self._open else {}
            acc = attrs.setdefault("rhs", [0.0, 0])
            clock = time.perf_counter

            def traced_rhs(state):
                t0 = clock()
                out = rhs(state)
                acc[0] += clock() - t0
                acc[1] += 1
                return out

            return traced_rhs

        return traced_compile_rhs

    def write(self, path):
        """Write the spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp) + "\n")


def _case_name(args):
    spec = args[0]
    return {"case": spec if isinstance(spec, str) else spec.name}


def _traj_counts(traj):
    return {"accepted": traj.n_steps, "rejected": traj.n_rejected,
            "sections": len(traj.sections)}


def _fit_counts(fit):
    return {"samples": fit.n_samples}


# casebook's module-level names: (layer span name, counts_of)
_CASEBOOK_CALLS = {
    "integrate": ("dynamics.integrate", _traj_counts),
    "accumulate_time": ("dynamics.accumulate_time", None),
    "trajectory_to_csv": ("dynamics.trajectory_to_csv", None),
    "fit_rate": ("rates.fit_rate", _fit_counts),
    "phase_section_sampler": ("rates.phase_section_sampler", None),
    "horizon_equilibria": ("localanalysis.horizon_equilibria", None),
    "equilibria_of": ("localanalysis.equilibria_of", None),
    "center_manifold_series_1d": ("localanalysis.center_manifold_series_1d", None),
}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install span wrappers on the pipeline's public names; restore on exit."""
    from horizon import casebook, cli, compactify

    patches = [
        (casebook, attr, tracer.wrap(name, getattr(casebook, attr), counts_of=counts))
        for attr, (name, counts) in _CASEBOOK_CALLS.items()
    ]
    patches += [
        (casebook, "run_case",
         tracer.wrap("casebook.run_case", casebook.run_case, attrs_of=_case_name)),
        (cli, "run_case",
         tracer.wrap("casebook.run_case", cli.run_case, attrs_of=_case_name)),
        (cli, "parse_spec_file",
         tracer.wrap("cli.parse_spec_file", cli.parse_spec_file)),
        (cli, "main", tracer.wrap("cli.main", cli.main)),
        (casebook.CaseSpec, "definition",
         tracer.wrap("casebook.CaseSpec.definition", casebook.CaseSpec.definition)),
        (compactify.ChartField, "compile_rhs",
         tracer.wrap_compile_rhs(compactify.ChartField.compile_rhs)),
    ]
    saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
    try:
        for obj, attr, fn in patches:
            setattr(obj, attr, fn)
        yield tracer
    finally:
        for obj, attr, fn in saved:
            setattr(obj, attr, fn)


# -- per-layer aggregation -------------------------------------------------------

# span name -> layer that receives the span's self time
SELF_LAYER = {
    "bench.pass": "unattributed",
    "cli.main": "cli.self",
    "cli.parse_spec_file": "cli.parse_spec",
    "casebook.run_case": "casebook.self",
    "casebook.CaseSpec.definition": "compactify.chart_build",
    "localanalysis.horizon_equilibria": "localanalysis.equilibria",
    "localanalysis.equilibria_of": "localanalysis.equilibria",
    "localanalysis.center_manifold_series_1d": "localanalysis.center_manifold",
    "dynamics.integrate": "dynamics.loop_self",
    "dynamics.accumulate_time": "dynamics.accumulate_time",
    "dynamics.trajectory_to_csv": "dynamics.trajectory_csv",
    "rates.fit_rate": "rates.fit_rate",
    "rates.phase_section_sampler": "rates.section_sampler",
}


def _subtree(spans, root):
    """Indices of `root` and its descendants, in start order."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


def integrate_counts(spans, root) -> list[list[int]]:
    """[accepted, rejected, sections] of each integrate call under `root`."""
    return [
        [spans[i][4].get(k, 0) for k in ("accepted", "rejected", "sections")]
        for i in _subtree(spans, root) if spans[i][0] == "dynamics.integrate"
    ]


def layer_totals(spans, root) -> dict:
    """Self seconds per layer, plus counts, for the span tree under `root`.

    The self times in ``totals["self"]`` (the chart rhs included) add up to
    the root's wall time exactly; ``unattributed`` is the part no layer span
    covers.
    """
    idx = _subtree(spans, root)
    child_s = {i: 0.0 for i in idx}
    for i in idx:
        parent = spans[i][3]
        if i != root and parent in child_s:
            child_s[parent] += spans[i][2] - spans[i][1]
    self_s = {layer: 0.0 for layer in SELF_LAYER.values()}
    self_s["compactify.rhs"] = 0.0
    tot = {"self": self_s, "integrate_s": 0.0, "rhs_calls": 0, "fit_calls": 0,
           "fit_samples": 0, "steps": [0, 0, 0], "run_case": {}}
    for i in idx:
        name, t0, t1, _, attrs = spans[i]
        rhs_s, rhs_calls = attrs.get("rhs", (0.0, 0))
        self_s[SELF_LAYER[name]] += (t1 - t0) - child_s[i] - rhs_s
        self_s["compactify.rhs"] += rhs_s
        tot["rhs_calls"] += rhs_calls
        if name == "dynamics.integrate":
            tot["integrate_s"] += t1 - t0
            for k, key in enumerate(("accepted", "rejected", "sections")):
                tot["steps"][k] += attrs.get(key, 0)
        elif name == "rates.fit_rate":
            tot["fit_calls"] += 1
            tot["fit_samples"] += attrs.get("samples", 0)
        elif name == "casebook.run_case":
            case = attrs["case"]
            tot["run_case"][case] = tot["run_case"].get(case, 0.0) + (t1 - t0)
    return tot
