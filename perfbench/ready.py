"""Set-up probe: bring a fresh interpreter to ready for one workload.

    python3 perfbench/ready.py <workload> <t0>

`t0` is the parent's ``time.perf_counter()`` reading taken just before it
started this interpreter (CLOCK_MONOTONIC on Linux, shared by all
processes).  Imports ``horizon`` from the checkout and builds the workload's
case definitions and quasitrig tables, with the reference kernel sampled
throughout (refspeed.py), then prints one JSON line: the raw and the
normalised seconds from `t0` to ready, and the clock reading at ready, and
exits at once, without the interpreter's teardown.
"""

import json
import os
import sys
import time

import refspeed

if __name__ == "__main__":
    t0 = float(sys.argv[2])
    ref = refspeed.RefSpeed()
    with ref:
        import pipeline_ops

        pipeline_ops.load_horizon()
        pipeline_ops.prepare(sys.argv[1])
        ready = time.perf_counter()
    print(json.dumps({"ready": ready, "raw": ref.raw_seconds(t0, ready),
                      "normalised": ref.seconds(t0, ready)}), flush=True)
    os._exit(0)
