"""One execution of one workload in a fresh interpreter.

run.py starts this once per measurement, so import and table set-up are paid
in full each time and peak memory is this process's own.  It prints one JSON
object on its last line of output.

    python3 bench/child.py --workload exact-k2 --seed 1 --trace 0 --started <monotonic>
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import traceback

import speed
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program(modules):
    """Import phylorank from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    for name in modules:
        importlib.import_module(name)
    pr = sys.modules["phylorank"]
    where = os.path.dirname(os.path.abspath(pr.__file__))
    if where != os.path.join(SRC, "phylorank"):
        raise ImportError(f"phylorank was imported from {where}, not from {SRC}")
    return pr


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = parser.parse_args(argv)
    workload = (workloads.SMOKE if args.smoke else workloads.FULL)[args.workload]

    # Untraced executions scale their times to the reference speed (see
    # speed.py); traced ones measure plain wall time.
    probe = speed.NoProbe() if args.trace else speed.SpeedProbe()
    probe.start()
    try:
        pr = import_program(workload.modules)
        tracer = tracing.Tracer() if args.trace else tracing.NoTracer()
        if args.trace:
            tracer.install()
        state = workload.setup(pr)
        rec = workloads.Recorder(tracer, probe)
        workload.run(pr, state, args.seed, rec)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    finally:
        probe.stop()

    setup_wall, run_wall = rec.first_op_at - args.started, sum(rec.op_s)
    setup_factor, run_factor = probe.factors()
    result = {
        "setup_s": setup_wall * setup_factor,
        "run_s": run_wall * run_factor,
        "setup_wall_s": setup_wall,
        "run_wall_s": run_wall,
        "speed_samples": len(probe.samples),
        "speed_factors": [setup_factor, run_factor],
        "op_ms": [s * 1e3 for s in rec.op_s],
        "attempted": rec.attempted,
        "failed": rec.failed,
        "problems": rec.problems[:10],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if args.trace:
        result["layers"], result["idle"] = tracer.layer_metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
