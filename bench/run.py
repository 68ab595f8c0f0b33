"""The phylorank benchmark.

    python3 bench/run.py --workload exact-k2|sample-k2|verify-k3 --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout.  Each execution of the workload is a fresh
child process (bench/child.py) that imports ``phylorank`` from this
checkout's ``src/``; executions run one after another, never in parallel,
until ``--seconds`` have passed and at least MIN_UNTRACED (with ``--trace 1``,
MIN_TRACED of each kind) have finished.  End-to-end metrics are medians over the
untraced executions, their times scaled to a reference machine speed
(speed.py); per-layer metrics are medians over the traced ones, in wall time.

The last line of output is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics of BENCHMARK.json with ``--trace 0``, its
per-layer metrics with ``--trace 1``).  The full record, with the machine it
ran on, goes to ``bench/out/`` (or ``--out``); ``bench/report.py`` reads it.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")

MIN_UNTRACED = 2  # setup_s and run_s are medians of at least this many processes
MIN_TRACED = 1  # with --trace 1, at least this many of each kind
# A run must end within 180 s: no execution starts after START_BY_S, and
# whatever still runs at DEADLINE_S (both from the run's start) is killed.
START_BY_S = 120.0
DEADLINE_S = 170.0
WARM_UP_TIMEOUT_S = 40.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------- context


def _git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest(root: str) -> str:
    """sha256 over the program's sources, which identifies the code measured
    even where there is no git commit."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "phylorank", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def machine_context() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "src_digest": _src_digest(ROOT),
    }


# -------------------------------------------------------------- children


def warm_up() -> str | None:
    """Import the program once, so that every measured process finds its
    bytecode cached; also proves the checkout holds the program."""
    code = (
        f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
        "import phylorank, phylorank.cli"
    )
    try:
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                              text=True, timeout=WARM_UP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "importing phylorank timed out"
    if proc.returncode != 0:
        return proc.stderr.strip() or f"exit code {proc.returncode}"
    return None


def run_child(workload: str, seed: int, trace: int, smoke: bool, timeout: float) -> dict:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"error": f"exit code {proc.returncode}, no result; stderr: {proc.stderr.strip()[-2000:]}"}
    if proc.returncode != 0 and "error" not in result:
        result = {"error": f"exit code {proc.returncode}; stderr: {proc.stderr.strip()[-2000:]}"}
    return result


def run_children(workload, seed, seconds, trace, smoke, started) -> dict[int, list[dict]]:
    """Untraced (0) and traced (1) executions, alternating, one at a time.

    Once the minimum counts are met, no execution starts that would, at the
    mean duration so far, end after ``seconds``.
    """
    kinds = (0, 1) if trace else (0,)
    minimum = {0: MIN_TRACED, 1: MIN_TRACED} if trace else {0: MIN_UNTRACED}
    done: dict[int, list[dict]] = {k: [] for k in kinds}
    begin = time.monotonic()
    turn = 0
    while True:
        elapsed = time.monotonic() - begin
        if time.monotonic() - started >= START_BY_S:
            break
        if turn and all(len(done[k]) >= minimum[k] for k in kinds) \
                and elapsed + elapsed / turn > seconds:
            break
        kind = kinds[turn % len(kinds)]
        turn += 1
        timeout = started + DEADLINE_S - time.monotonic()
        done[kind].append(run_child(workload, seed, kind, smoke, timeout))
    return done


# ------------------------------------------------------------- summaries


def end_to_end(untraced: list[dict]) -> dict:
    ok = [c for c in untraced if "error" not in c]
    if not ok:
        return {}
    ops = [ms for c in ok for ms in c["op_ms"]]
    deciles = statistics.quantiles(ops, n=10, method="inclusive")
    return {
        "setup_s": statistics.median(c["setup_s"] for c in ok),
        "run_s": statistics.median(c["run_s"] for c in ok),
        "setup_wall_s": statistics.median(c["setup_wall_s"] for c in ok),
        "run_wall_s": statistics.median(c["run_wall_s"] for c in ok),
        "speed_factor": statistics.median(c["speed_factors"][1] for c in ok),
        "op_p50_ms": deciles[4],
        "op_p90_ms": deciles[8],
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in ok),
        "op_samples": len(ops),
        "executions": len(ok),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict, list[str]]:
    ok = [c for c in traced if "error" not in c]
    if not ok:
        return {}, []
    metrics = {name: statistics.median(c["layers"][name] for c in ok) for name in ok[0]["layers"]}
    # Traced executions run without the speed probe: compare wall times.
    plain = [c["run_wall_s"] for c in untraced if "error" not in c]
    if plain:
        metrics["trace.overhead_ratio"] = (
            statistics.median(c["run_wall_s"] for c in ok) / statistics.median(plain)
        )
    idle = sorted(set.intersection(*(set(c["idle"]) for c in ok)))
    return metrics, idle


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for the full record (default: bench/out)")
    args = parser.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(ROOT, "src", "phylorank", "__init__.py")):
        print(f"error: no phylorank sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    spec = load_spec()
    problem = warm_up()
    if problem is not None:
        print(f"error: cannot import phylorank: {problem}", file=sys.stderr)
        return 2

    context = machine_context()
    load_start = os.getloadavg()[0]
    wall = time.monotonic()
    done = run_children(args.workload, args.seed, args.seconds, args.trace, args.smoke, started)
    wall = time.monotonic() - wall
    context["loadavg_1m_start"] = load_start
    context["loadavg_1m_end"] = os.getloadavg()[0]

    children = [c for kind in done.values() for c in kind]
    attempted = sum(c.get("attempted", 1) for c in children)
    failed = sum(c.get("failed", 1) for c in children)
    problems = []
    for c in children:
        problems += c.get("problems", []) + ([c["error"]] if "error" in c else [])

    untraced = done[0]
    e2e = end_to_end(untraced)
    layers, idle = per_layer(done.get(1, []), untraced)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    measured = layers if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        failed += 1
        attempted += 1
        problems.append(f"no value for {', '.join(missing)}: every execution failed")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "wall_s": wall,
        "context": context,
        "end_to_end": e2e,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted if attempted else 1.0,
        "per_layer": layers,
        "per_layer_idle": idle,  # metrics of layers this workload never calls: reported as 0
        "problems": problems[:20],
        "executions": children,
    }
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, f"{args.workload}.trace{args.trace}.seed{args.seed}.{time.time_ns()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} machine: nproc={context['nproc']} python={context['python']} "
          f"cpu={context['cpu_model']} load1m={load_start:.2f}..{context['loadavg_1m_end']:.2f} "
          f"commit={context['git_commit']} executions={len(children)} wall={wall:.1f}s")
    for name, m in metrics.items():
        note = " (layer not called)" if name in idle else ""
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}{note}")
    for p in problems[:5]:
        print(f"{args.workload} FAILED CHECK: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
