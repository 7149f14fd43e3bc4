"""Run every workload over several seeds and summarise each metric.

    python3 perfbench/baseline.py [--seeds 1,2,3] [--trace 0|1]

Runs ``run.py`` once per (workload, seed) as its own process, with the
``run_seconds`` of BENCHMARK.json, and prints, per workload and metric, the
median and the quartile spread (Q3 - Q1 over the median, the steadiness
measure the bounds in BENCHMARK.json are checked against), and the same
for the unnormalised figures each run prints on its ``raw`` stderr line, so
the effect of the host-speed normalisation stays on record.  Exits non-zero
if any run failed or reported an incorrect output.  The last line of
standard output is the summary as JSON (``baseline.json`` holds one).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import pipeline_ops as ops


def main(argv=None) -> int:
    bench = json.loads((ops.ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seeds", default="1")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    ok = True
    summary = {"seeds": seeds, "trace": args.trace,
               "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in ops.WORKLOADS:
        values, units, raw = {}, {}, {}
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(ops.BENCH_DIR / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ops.ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                continue
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            for line in proc.stderr.splitlines():
                if line.startswith("raw "):
                    for name, v in json.loads(line[4:]).items():
                        raw.setdefault(name, []).append(v)
        rows = {}
        for name, xs in values.items():
            rows[name] = {"unit": units[name], **median_spread(xs)}
            if name in raw:
                rows[name]["raw"] = median_spread(raw[name])
            print(f"{workload:15s} {name:34s} {rows[name]['median']:14.6g} "
                  f"{units[name]:10s} spread {shown(rows[name])}"
                  + (f"  raw spread {shown(rows[name]['raw'])}" if name in raw else ""),
                  file=sys.stderr)
        if "ref_kernel_ms" in raw:
            rows["raw.ref_kernel_ms"] = {"unit": "ms", **median_spread(raw["ref_kernel_ms"])}
        summary["workloads"][workload] = rows
    print(json.dumps(summary))
    return 0 if ok else 1


def median_spread(xs) -> dict:
    """Median and quartile spread (Q3 - Q1 over the median) of `xs`."""
    med = statistics.median(xs)
    spread = None
    if len(xs) >= 2 and med:
        q1, _, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / abs(med)
    return {"median": med, "spread": spread, "values": xs}


def shown(row) -> str:
    return "-" if row["spread"] is None else f"{row['spread']:.4f}"


if __name__ == "__main__":
    sys.exit(main())
