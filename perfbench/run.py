"""Layered benchmark of the singularity-rate pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-golden

One single-threaded process (BLAS pools pinned to one thread) runs a closed
loop: one operation at a time, the next starting when the previous returns,
pass after pass until ``--seconds`` have elapsed (at least one pass).  The
seed is forwarded to ``run_case`` and to the CLI's ``--seed``.  Every
operation's outcome is checked against ``golden.json``; a mismatch counts as
a failed operation.  Times are ``time.perf_counter`` intervals normalised to
a reference host speed (see refspeed.py); the raw figures go to stderr as
one JSON line starting with ``raw``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes, then runs the micro-layer harness, and prints
the per-layer metrics.  The last line of standard output is the JSON result.
``--record-golden`` rewrites ``golden.json`` from the current program.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

import micro
import pipeline_ops as ops
import spans
from refspeed import RefSpeed

SETUP_REPEATS = 11
# |fit - golden| allowed on each verdict's rho and q
GOLDEN_TOL = {"rho": 1e-7, "q": 1e-7}
# case families whose run_case time is reported (spec files included)
RUN_CASE_NAMES = ("aiu", "iy", "andrews1", "andrews2", "quench", "fhn", "kdv",
                  "lienard", "iy-generic", "quench1")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=ops.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    if not args.record_golden and args.workload is None:
        p.error("--workload is required")
    ops.load_horizon()
    if args.record_golden:
        record_golden()
        return 0
    run = traced_run if args.trace else timed_run
    print(json.dumps(run(args.workload, args.seed, args.seconds)))
    return 0


# -- passes --------------------------------------------------------------------


class OpResult(NamedTuple):
    op: object
    t0: float
    t1: float
    value: object
    exc: Exception | None
    first_span: int | None       # index of the op's first span (traced passes)


class PassResult(NamedTuple):
    t0: float
    t1: float
    root: int | None             # the pass's span (traced passes)
    ops: list


def run_pass(oplist, seed, tracer=None) -> PassResult:
    for op in oplist:
        op.reset()
    root = tracer.start("bench.pass") if tracer else None
    results = []
    t_pass = time.perf_counter()
    for op in oplist:
        first_span = len(tracer.spans) if tracer else None
        value = exc = None
        t0 = time.perf_counter()
        try:
            value = op.call(seed)
        except Exception as e:  # an operation that raised is a failed one
            exc = e
        results.append(OpResult(op, t0, time.perf_counter(), value, exc, first_span))
    t_end = time.perf_counter()
    if tracer:
        tracer.end(root)
    return PassResult(t_pass, t_end, root, results)


class Checker:
    """Compares outcomes with the golden records and keeps the tallies."""

    def __init__(self):
        golden = ops.load_golden()
        self.golden, self.tol = golden["ops"], golden["tolerance"]
        self.attempted = self.failed = 0
        self.rho_err = self.q_err = 0.0

    def check(self, pass_result, tracer=None):
        for r in pass_result.ops:
            self.attempted += 1
            if r.exc is not None:
                self.failed += 1
                ops.report_failure(r.op.id, [], r.exc)
                continue
            summary = ops.summarise(*r.op.outcome(r.value))
            steps = (spans.integrate_counts(tracer.spans, r.first_span)
                     if tracer else None)
            problems = ops.mismatches(summary, steps, self.golden[r.op.id], self.tol)
            if problems:
                self.failed += 1
                ops.report_failure(r.op.id, problems)
            rho, q = ops.rate_errors(summary)
            self.rho_err, self.q_err = max(self.rho_err, rho), max(self.q_err, q)

    def result(self, metrics):
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def _percentile(xs, p):
    xs = sorted(xs)
    k = (len(xs) - 1) * p
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def _metric(value, unit):
    return {"value": value, "unit": unit}


# -- end-to-end run -----------------------------------------------------------


def setup_seconds(workload) -> tuple[float, float]:
    """A fresh interpreter brought to ready (ready.py): (raw, normalised)
    seconds, the reference kernel sampled by the child during its set-up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ops.BENCH_DIR / "ready.py"), workload, repr(t0)],
        cwd=ops.ROOT, env=ops.single_thread_env(), capture_output=True,
        text=True, timeout=120, check=True,
    )
    t1 = time.perf_counter()
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    if not t0 <= child["ready"] <= t1:
        raise RuntimeError("set-up probe clock is not shared with this process")
    return child["raw"], child["normalised"]


def timed_run(workload, seed, seconds) -> dict:
    setups = [setup_seconds(workload) for _ in range(SETUP_REPEATS)]
    ref = RefSpeed()
    ops.prepare(workload)
    oplist = ops.workload_ops(workload)
    checker = Checker()
    passes = []
    with ref:
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < seconds:
            passes.append(run_pass(oplist, seed))
            checker.check(passes[-1])
    walls = [ref.seconds(p.t0, p.t1) for p in passes]
    latencies = [ref.seconds(r.t0, r.t1) for p in passes for r in p.ops]
    raw_latencies = [ref.raw_seconds(r.t0, r.t1) for p in passes for r in p.ops]
    # the unnormalised figures, for checking the normalisation (baseline.py)
    print("raw " + json.dumps({
        "wall_s": statistics.median(ref.raw_seconds(p.t0, p.t1) for p in passes),
        "op_s.p50": _percentile(raw_latencies, 0.5),
        "op_s.p90": _percentile(raw_latencies, 0.9),
        "setup_s": statistics.median(raw for raw, _ in setups),
        "ref_kernel_ms": ref.kernel_ms(),
    }), file=sys.stderr)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = (checker.attempted - checker.failed) / checker.attempted
    return checker.result({
        "wall_s": _metric(statistics.median(walls), "s"),
        "op_s.p50": _metric(_percentile(latencies, 0.5), "s"),
        "op_s.p90": _metric(_percentile(latencies, 0.9), "s"),
        "setup_s": _metric(statistics.median(norm for _, norm in setups), "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "ok_ratio": _metric(ok, "ratio"),
        "rho_abs_err.max": _metric(checker.rho_err, "1"),
        "q_abs_err.max": _metric(checker.q_err, "1"),
    })


# -- traced run -----------------------------------------------------------------


def pass_layers(tot, wall, scale) -> dict:
    """Per-layer metrics of one traced pass from its span totals; seconds
    are multiplied by the pass's host-speed `scale`."""
    s = {k: v * scale for k, v in tot["self"].items()}
    integrate_s = tot["integrate_s"] * scale
    accepted, rejected, sections = tot["steps"]
    per_step = accepted or 1
    out = {
        "dynamics.integrate_s": (integrate_s, "s"),
        "compactify.rhs_s": (s["compactify.rhs"], "s"),
        "dynamics.loop_self_s": (s["dynamics.loop_self"], "s"),
        "dynamics.accepted_steps": (accepted, "count"),
        "dynamics.rejected_steps": (rejected, "count"),
        "dynamics.accept_ratio": (accepted / ((accepted + rejected) or 1), "ratio"),
        "dynamics.rhs_calls": (tot["rhs_calls"], "count"),
        "dynamics.rhs_per_step": (tot["rhs_calls"] / per_step, "calls/step"),
        "dynamics.section_crossings": (sections, "count"),
        "dynamics.step_us": (integrate_s / per_step * 1e6, "us"),
        "compactify.chart_build_ms": (s["compactify.chart_build"] * 1e3, "ms"),
        "localanalysis.equilibria_s": (s["localanalysis.equilibria"], "s"),
        "localanalysis.center_manifold_s": (s["localanalysis.center_manifold"], "s"),
        "dynamics.accumulate_time_ms": (s["dynamics.accumulate_time"] * 1e3, "ms"),
        "rates.fit_rate_ms": (s["rates.fit_rate"] * 1e3, "ms"),
        "rates.fit_calls": (tot["fit_calls"], "count"),
        "rates.fit_samples": (tot["fit_samples"], "count"),
        "rates.section_sampler_ms": (s["rates.section_sampler"] * 1e3, "ms"),
        "casebook.self_s": (s["casebook.self"], "s"),
        "cli.parse_spec_ms": (s["cli.parse_spec"] * 1e3, "ms"),
        "dynamics.trajectory_csv_s": (s["dynamics.trajectory_csv"], "s"),
        "cli.self_s": (s["cli.self"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (s["unattributed"], "s"),
    }
    for case in RUN_CASE_NAMES:
        out[f"casebook.run_case_s.{case}"] = (tot["run_case"].get(case, 0.0) * scale, "s")
    return out


def traced_run(workload, seed, seconds) -> dict:
    ops.prepare(workload)
    oplist = ops.workload_ops(workload)
    checker = Checker()
    tracer = spans.Tracer()
    ref = RefSpeed()
    plain, layers = [], []
    t_start = time.perf_counter()
    while not layers or time.perf_counter() - t_start < seconds:
        with ref:
            p = run_pass(oplist, seed)
        plain.append(ref.seconds(p.t0, p.t1))
        checker.check(p)
        with ref, spans.traced(tracer):
            p = run_pass(oplist, seed, tracer)
        checker.check(p, tracer)
        # kernel samples land in whichever span is open, in proportion to
        # its share of the pass, so one factor rescales every layer
        wall = ref.seconds(p.t0, p.t1)
        tot = spans.layer_totals(tracer.spans, p.root)
        layers.append(pass_layers(tot, wall, wall / (p.t1 - p.t0)))
    tracer.write(ops.WORK / "spans" / f"{workload}-seed{seed}.jsonl")

    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit not in ("count", "calls/step", "ratio"):
            value = statistics.median(p[name][0] for p in layers)
        metrics[name] = _metric(value, unit)
    untraced = statistics.median(plain)
    metrics["trace.untraced_wall_s"] = _metric(untraced, "s")
    metrics["trace.overhead_s"] = _metric(metrics["trace.wall_s"]["value"] - untraced, "s")

    with ref:
        t0 = time.perf_counter()
        micro_values, micro_failed = micro.run_micro()
        t1 = time.perf_counter()
    scale = ref.seconds(t0, t1) / (t1 - t0)
    for name, value in micro_values.items():
        metrics[name] = _metric(value * scale, "ms" if name.endswith("_ms") else "us")
    metrics["host.ref_kernel_ms"] = _metric(ref.kernel_ms(), "ms")
    checker.attempted += len(micro_values)
    for name in micro_failed:
        checker.failed += 1
        ops.report_failure(f"micro {name}", ["input check failed"])
    return checker.result(metrics)


# -- golden records ---------------------------------------------------------------


def record_golden():
    """Write golden.json from one traced pass of every workload (seed 0)."""
    golden = {"tolerance": GOLDEN_TOL, "ops": {}}
    for workload in ops.WORKLOADS:
        ops.prepare(workload)
        tracer = spans.Tracer()
        with spans.traced(tracer):
            p = run_pass(ops.workload_ops(workload), 0, tracer)
        for r in p.ops:
            if r.exc is not None:
                raise r.exc
            rec = ops.summarise(*r.op.outcome(r.value))
            rec["steps"] = spans.integrate_counts(tracer.spans, r.first_span)
            golden["ops"][r.op.id] = rec
            print(r.op.id, [x["status"] for x in rec["reports"]], rec["exit_code"])
    ops.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
