"""Workloads of the pipeline benchmark: operations, set-up and golden checks.

An operation is one public-API call whose latency is measured: one
``run_case`` (in-memory workloads) or one ``horizon.cli.main`` command
(``cli-sweep``).  A pass runs a workload's operations once, in order.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import traceback
from dataclasses import dataclass

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"

_BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

DEFAULT_CASES = ("aiu", "iy", "andrews1", "andrews2", "quench", "fhn", "kdv")

# the grids README and the tests already use
CLI_COMMANDS = (
    ("analyze", "cases/aiu.spec"),
    ("analyze", "cases/iy.spec"),
    ("analyze", "cases/quench1.spec"),
    ("sweep", "andrews1", "--param", "a=0.3,0.5,0.75"),
    ("sweep", "andrews2", "--param", "a1=1/2,1"),
    ("sweep", "fhn", "--param", "m=1,2"),
    ("sweep", "quench", "--param", "alpha=1,2"),
)

WORKLOADS = ("lienard-blowup", "defaults-inmem", "cli-sweep")


def single_thread_env() -> dict:
    """This process's environment with every BLAS pool pinned to one thread."""
    return dict(os.environ, **{k: "1" for k in _BLAS_THREAD_VARS})


def load_horizon() -> None:
    """Import the checkout's own ``horizon`` package, single-threaded.

    Exits with status 2 when the checkout holds no ``src/horizon``, so the
    benchmark never measures an installed copy by accident.
    """
    if not (SRC / "horizon" / "__init__.py").is_file():
        print(f"error: no horizon package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    os.environ.update(single_thread_env())
    sys.path.insert(0, str(SRC))
    # imported here so import time stays out of the first operation
    import horizon.casebook
    import horizon.cli  # noqa: F401


# -- operations ----------------------------------------------------------------


@dataclass(frozen=True)
class CaseOp:
    """``run_case(case, params)`` in-process, without an output directory."""

    case: str
    params: dict

    @property
    def id(self) -> str:
        args = " ".join(f"{k}={v}" for k, v in self.params.items())
        return f"run_case {self.case} {args}".rstrip()

    def reset(self):
        pass

    def call(self, seed):
        from horizon import casebook

        return casebook.run_case(self.case, self.params or None, seed=seed)

    def outcome(self, report):
        """(exit code or None, report documents) of a finished call."""
        return None, [report.to_dict()]


@dataclass(frozen=True)
class CliOp:
    """``horizon.cli.main(argv)`` in-process, writing into its own directory."""

    argv: tuple
    out: pathlib.Path

    @property
    def id(self) -> str:
        return "horizon " + " ".join(self.argv)

    def reset(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def call(self, seed):
        import contextlib
        import io

        from horizon import cli

        argv = [str(ROOT / a) if a.startswith("cases/") else a for a in self.argv]
        argv += ["--out", str(self.out), "--jobs", "1", "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def outcome(self, code):
        path = self.out / "report.json"
        if not path.is_file():
            return code, []
        doc = json.loads(path.read_text())
        return code, doc.get("reports", [doc])


def workload_ops(name: str) -> list:
    if name == "lienard-blowup":
        return [CaseOp("lienard", {"n": 3})]
    if name == "defaults-inmem":
        return [CaseOp(c, {}) for c in DEFAULT_CASES]
    if name == "cli-sweep":
        return [CliOp(argv, WORK / "cli" / str(i)) for i, argv in enumerate(CLI_COMMANDS)]
    raise KeyError(name)


def prepare(name: str) -> None:
    """Bring a fresh interpreter to ready for workload `name`: the workload's
    case definitions (spec files included) and the quasitrig tables they use."""
    from horizon import casebook, cli, quasitrig

    charts = []
    for op in workload_ops(name):
        if isinstance(op, CaseOp):
            charts.append(casebook.get_case(op.case).definition(op.params).chart)
        elif op.argv[0] == "analyze":
            charts.append(cli.parse_spec_file(ROOT / op.argv[1]).chart)
        else:
            spec = casebook.get_case(op.argv[1])
            pname, _, values = op.argv[3].partition("=")
            for v in values.split(","):
                charts.append(spec.definition({pname: cli._parse_number(v)}).chart)
    for chart in charts:
        if chart.quasipolar_index is not None:
            quasitrig.table(chart.quasipolar_index)


# -- outcomes and the golden check ---------------------------------------------


def summarise(exit_code, docs) -> dict:
    """The golden-comparable part of an operation's outcome."""
    reports = []
    for d in docs:
        runs = []
        for r in d.get("runs", []):
            runs.append({
                "termination": r.get("termination"),
                "n_steps": r.get("n_steps"),
                "verdicts": [
                    {
                        "name": v["name"],
                        "passed": bool(v["passed"]),
                        **({"rho": v["fitted"]["rho"], "q": v["fitted"]["q"],
                            "rho_pred": v["predicted"]["rho"],
                            "q_pred": v["predicted"]["q"]}
                           if "fitted" in v else {}),
                    }
                    for v in r.get("verdicts", [])
                ],
            })
        reports.append({
            "case": d["case"],
            "params": {k: str(v) for k, v in d["params"].items()},
            "status": d["status"],
            "runs": runs,
        })
    return {"exit_code": exit_code, "reports": reports}


def rate_errors(summary) -> tuple[float, float]:
    """Largest |fit - declared| of rho and of q over the verdicts."""
    rho = q = 0.0
    for rep in summary["reports"]:
        for run in rep["runs"]:
            for v in run["verdicts"]:
                if "rho" in v:
                    rho = max(rho, abs(v["rho"] - v["rho_pred"]))
                    q = max(q, abs(v["q"] - v["q_pred"]))
    return rho, q


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def mismatches(summary, steps, golden_op, tol) -> list[str]:
    """Differences between an outcome and its golden record.

    `steps` lists (accepted, rejected, section crossings) per ``integrate``
    call and is compared only when the run was traced (otherwise None).
    """
    out = []
    if summary["exit_code"] != golden_op["exit_code"]:
        out.append(f"exit code {summary['exit_code']} != {golden_op['exit_code']}")
    got, want = summary["reports"], golden_op["reports"]
    if len(got) != len(want):
        return out + [f"{len(got)} reports != {len(want)}"]
    for g, w in zip(got, want):
        tag = f"{w['case']} {w['params']}"
        for key in ("case", "params", "status"):
            if g[key] != w[key]:
                out.append(f"{tag}: {key} {g[key]!r} != {w[key]!r}")
        if len(g["runs"]) != len(w["runs"]):
            out.append(f"{tag}: {len(g['runs'])} runs != {len(w['runs'])}")
            continue
        for gr, wr in zip(g["runs"], w["runs"]):
            for key in ("termination", "n_steps"):
                if gr[key] != wr[key]:
                    out.append(f"{tag}: {key} {gr[key]!r} != {wr[key]!r}")
            if len(gr["verdicts"]) != len(wr["verdicts"]):
                out.append(f"{tag}: verdict count differs")
                continue
            for gv, wv in zip(gr["verdicts"], wr["verdicts"]):
                if (gv["name"], gv["passed"]) != (wv["name"], wv["passed"]):
                    out.append(f"{tag}: {gv['name']} passed={gv['passed']} "
                               f"!= {wv['name']} passed={wv['passed']}")
                for key in ("rho", "q"):
                    if key in wv and not (key in gv and abs(gv[key] - wv[key]) <= tol[key]):
                        out.append(f"{tag}: {wv['name']} {key} {gv.get(key)!r} "
                                   f"!= {wv[key]!r} (tol {tol[key]})")
    if steps is not None and steps != golden_op["steps"]:
        out.append(f"steps (accepted, rejected, sections) {steps} != {golden_op['steps']}")
    return out


def report_failure(op_id, problems, exc=None):
    print(f"FAILED {op_id}", file=sys.stderr)
    if exc is not None:
        traceback.print_exception(exc, file=sys.stderr)
    for p in problems:
        print(f"  {p}", file=sys.stderr)
