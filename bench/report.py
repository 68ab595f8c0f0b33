"""Summarise and compare benchmark records written by bench/run.py.

    python3 bench/report.py summary [DIR ...]      # default: bench/out
    python3 bench/report.py compare BASE_DIR NEW_DIR

``summary`` prints every metric of every workload by name with its unit: the
median and quartiles across runs (each run is one record), the spread
(quartile distance over median) next to the metric's bound, and for the op
percentiles the number of op latencies behind each run's value.

``compare`` sets two record sets side by side, per workload and per
end-to-end metric, against the bounds in BENCHMARK.json.  A metric is
"unresolved" when either side's spread is wider than its bound, unless every
new run beats every base run; "regressed" when the new median is worse than
the base median by more than the bound.  The exit code is 1 when anything
regressed or failed more often, else 0.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from collections import defaultdict

from run import HERE, load_spec

PERCENTILE_MIN_OPS = 100  # p90 needs at least ten latencies beyond it
# Recorded for every untraced run but not in BENCHMARK.json.  The op
# percentiles mean something only where an execution has PERCENTILE_MIN_OPS
# ops (sample-k2); the wall times are setup_s and run_s before scaling to the
# reference speed, and speed_factor is that scale (see speed.py).
RECORD_ONLY = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower"},
    {"name": "setup_wall_s", "unit": "s", "better": "lower"},
    {"name": "run_wall_s", "unit": "s", "better": "lower"},
    {"name": "speed_factor", "unit": "ratio", "better": "higher"},
]
PERCENTILES = ("op_p50_ms", "op_p90_ms")


def load_records(dirs) -> dict[tuple[str, int], list[dict]]:
    """Records grouped by (workload, trace); smoke-size runs are skipped."""
    groups = defaultdict(list)
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(d, "*.json"))):
            with open(path, encoding="utf-8") as fh:
                rec = json.load(fh)
            if not rec.get("smoke"):
                groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def metric_values(records, section: str, name: str) -> list[float]:
    return [r[section][name] for r in records if name in r.get(section, {})]


def machine_line(records) -> str:
    ctx = [r["context"] for r in records]
    loads = [c[k] for c in ctx for k in ("loadavg_1m_start", "loadavg_1m_end")]

    def kinds(key):
        return ",".join(sorted({str(c.get(key)) for c in ctx}))

    return (f"machine: nproc={kinds('nproc')} python={kinds('python')} cpu={kinds('cpu_model')} "
            f"load1m={min(loads):.2f}..{max(loads):.2f} commit={kinds('git_commit')}")


def summary(dirs) -> int:
    spec = load_spec()
    groups = load_records(dirs)
    if not groups:
        print(f"no records in {', '.join(dirs)}")
        return 1
    print(f"{'workload':<10} {'metric':<36} {'unit':<7} {'runs':>4} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  note")
    for (workload, trace), records in sorted(groups.items()):
        if trace:
            section, metrics = "per_layer", spec["per_layer"]
        else:
            section, metrics = "end_to_end", spec["end_to_end"] + RECORD_ONLY
        idle = set.intersection(*(set(r.get("per_layer_idle", [])) for r in records)) if trace else set()
        print(f"{workload:<10} {'(trace)' if trace else ''} {machine_line(records)}")
        for m in metrics:
            values = metric_values(records, section, m["name"])
            if not values:
                print(f"{workload:<10} {m['name']:<36} {m['unit']:<7} {0:>4}  no value")
                continue
            q1, med, q3 = quartiles(values)
            bound = f"{m['bound']:.2f}" if "bound" in m else "-"
            note = "layer not called" if m["name"] in idle else ""
            if m["name"] in PERCENTILES:
                ops = statistics.median(r["end_to_end"]["op_samples"] for r in records)
                per_exec = ops / statistics.median(r["end_to_end"]["executions"] for r in records)
                note = f"{ops:.0f} op latencies per run, {per_exec:.0f} per execution"
                if per_exec < PERCENTILE_MIN_OPS:
                    note += " (too few: indicative only)"
            print(f"{workload:<10} {m['name']:<36} {m['unit']:<7} {len(values):>4} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {spread(values):>7.3f} {bound:>6}  {note}")
        if not trace:
            attempted = sum(r["attempted"] for r in records)
            ratios = [r["fail_ratio"] for r in records]
            print(f"{workload:<10} {'fail_ratio':<36} {'ratio':<7} {len(ratios):>4} "
                  f"{statistics.median(ratios):>12.6g} {min(ratios):>12.6g} {max(ratios):>12.6g}"
                  f" {'':>7} {'':>6}  {attempted} ops attempted; q1/q3 columns show min/max")
    return 0


def compare(base_dir: str, new_dir: str) -> int:
    spec = load_spec()
    base, new = load_records([base_dir]), load_records([new_dir])
    status = 0
    print(f"{'workload':<10} {'metric':<12} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>13} {'bound':>6}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, trace = key
        if trace:
            continue
        a, b = base.get(key, []), new.get(key, [])
        if not a or not b:
            print(f"{workload:<10} only in {'new' if b else 'base'}")
            continue
        for m in spec["end_to_end"] + RECORD_ONLY:
            va = metric_values(a, "end_to_end", m["name"])
            vb = metric_values(b, "end_to_end", m["name"])
            if not va or not vb:
                print(f"{workload:<10} {m['name']:<12} missing values")
                status = 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (mb - ma) / ma
            widest = max(spread(va), spread(vb))
            all_better = all(sign * (y - x) < 0 for x in va for y in vb)
            bound = m.get("bound")
            if bound is None:
                verdict = "no bound"
            elif widest > bound and not all_better:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "REGRESSED"
                status = 1
            elif all_better or -worse > spread(va):
                verdict = "better"
            else:
                verdict = "same"
            print(f"{workload:<10} {m['name']:<12} {ma:>12.6g} {mb:>12.6g} {(mb - ma) / ma:>+8.1%} "
                  f"{spread(va):>6.3f}/{spread(vb):<6.3f} {bound or '-':>6}  {verdict}")
        fa = statistics.median(r["fail_ratio"] for r in a)
        fb = statistics.median(r["fail_ratio"] for r in b)
        if fb > fa:
            print(f"{workload:<10} {'fail_ratio':<12} {fa:>12.6g} {fb:>12.6g}  more ops fail")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("summary", help="every metric of every workload, across runs")
    p.add_argument("dirs", nargs="*", default=[os.path.join(HERE, "out")])
    p = sub.add_parser("compare", help="two record sets against the bounds")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    if args.command == "summary":
        return summary(args.dirs)
    return compare(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
