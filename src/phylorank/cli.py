"""Command-line interface.

Subcommands: count, census, limits, sample, estimate, convergence, verify.
Every command is deterministic given its full flag set (seeds included).
Exit codes: 0 success, 2 domain/usage error, 3 internal consistency failure.

Exact values print as decimal integers or "p/q" rationals, accompanied by
12-significant-digit decimals where a magnitude helps; JSON output follows
docs/cli_output.schema.json.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import log10
from typing import Sequence

from . import bruteforce, seriesoracle, stats
from .errors import ConsistencyError, DomainError, PhyloRankError
from .exactcount import CountTable, c_index, is_admissible, limit_distribution
from .render import decimal_str, fraction_str
from .sampler import sample_batch
from .treecore import RankCensus, to_newick

LARGE_TABLE_VERIFY_TO = 501  # bound for the quadratic cross-checks on huge tables
# largest integer ``limits`` prints, in digits: rendering is quadratic in the
# digit count (about 2 s for k=2, rank 18: 157,826 digits)
LIMITS_MAX_DIGITS = 200_000


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _make_table(k: int, n_max: int, full_verify: bool) -> CountTable:
    verify_to = None if full_verify else min(n_max, LARGE_TABLE_VERIFY_TO)
    return CountTable(k, n_max, verify_to=verify_to)


# ------------------------------------------------------------------ commands


def _cmd_count(args) -> int:
    table = _make_table(args.k, args.n, args.full_verify)
    _emit(str(table.tree_count(args.n)) + "\n", args.output)
    return 0


def _cmd_census(args) -> int:
    table = _make_table(args.k, args.n, args.full_verify)
    census = table.rank_census(args.n, args.max_rank)
    if args.format == "json":
        payload = {
            "command": "census",
            "k": args.k,
            "n": args.n,
            "max_rank": args.max_rank,
            "total": str(census.total),
            "tail": str(census.tail),
            "rows": [
                {
                    "rank": i,
                    "count": str(e),
                    "ratio": fraction_str(r),
                    "ratio_decimal": decimal_str(r),
                }
                for i, (e, r) in enumerate(zip(census.exact, census.ratios))
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = ["rank\tcount\tratio\tratio_decimal"]
        for i, (e, r) in enumerate(zip(census.exact, census.ratios)):
            lines.append(f"{i}\t{e}\t{fraction_str(r)}\t{decimal_str(r)}")
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_limits(args) -> int:
    k, i = args.k, args.max_rank + 1
    # the largest printed integer, k**c_i, has c_i*log10(k) digits; c_i >=
    # k**(i-1), so a large rank is refused before k**i is formed
    if k >= 2 and i >= 1 and ((i - 1) * log10(k) > 20 or c_index(k, i) * log10(k) > LIMITS_MAX_DIGITS):
        raise DomainError(f"k**c_{i} at k={k} would print more than {LIMITS_MAX_DIGITS} digits")
    dist = limit_distribution(args.k, args.max_rank)
    if args.format == "json":
        payload = {
            "command": "limits",
            "k": args.k,
            "max_rank": args.max_rank,
            "rows": [
                {
                    "rank": e.rank,
                    "c": str(e.c),
                    "tail_prob": fraction_str(e.tail_prob),
                    "tail_prob_decimal": decimal_str(e.tail_prob),
                    "point_prob": fraction_str(e.point_prob),
                    "point_prob_decimal": decimal_str(e.point_prob),
                }
                for e in dist.entries
            ],
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        lines = ["rank\tc\ttail_prob\ttail_prob_decimal\tpoint_prob\tpoint_prob_decimal"]
        for e in dist.entries:
            lines.append(
                f"{e.rank}\t{e.c}\t{fraction_str(e.tail_prob)}\t{decimal_str(e.tail_prob)}\t"
                f"{fraction_str(e.point_prob)}\t{decimal_str(e.point_prob)}"
            )
        _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_sample(args) -> int:
    newicks = [to_newick(t) for t in sample_batch(args.k, args.n, args.count, args.seed)]
    if args.format == "json":
        payload = {
            "command": "sample",
            "k": args.k,
            "n": args.n,
            "count": args.count,
            "seed": args.seed,
            "trees": newicks,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit("".join(line + "\n" for line in newicks), args.output)
    return 0


def _cmd_estimate(args) -> int:
    report = stats.estimate_rank_distribution(
        args.k, args.n, args.samples, args.seed, args.max_rank
    )
    if args.format == "json":
        payload = {"command": "estimate", **report.to_json_dict()}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit(report.to_tsv(), args.output)
    return 0


def _cmd_convergence(args) -> int:
    grid = [int(x) for x in args.n_grid.split(",") if x.strip()]
    if not grid:
        raise DomainError("--n-grid must list at least one n")
    powers = [int(x) for x in args.negligibility.split(",") if x.strip()] if args.negligibility else []
    table = _make_table(args.k, max(grid), args.full_verify)
    report = stats.convergence_table(
        args.k, args.i, grid, table=table, negligibility_powers=powers
    )
    if args.format == "json":
        payload = {"command": "convergence", **report.to_json_dict()}
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        _emit(report.to_tsv(), args.output)
    return 0


def _cmd_verify(args) -> int:
    """Run the self-verification suite and print one line per check."""
    k, n_max, order = args.k, args.n_max, args.order
    failures = 0
    lines: list[str] = []

    def check(name: str, ok: bool) -> None:
        nonlocal failures
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    table = CountTable(k, max(n_max, order))

    # triple agreement: enumeration vs recurrence/closed table, per n, in one
    # enumeration pass that also counts (and optionally dumps) the trees
    dump_lines: list[str] = []
    for n in range(1, n_max + 1):
        count = 0

        def enumerated():
            nonlocal count
            for tree in bruteforce.enumerate_all(k, n):
                count += 1
                if args.dump_newick:
                    dump_lines.append(to_newick(tree))
                yield tree

        brute = RankCensus.of_trees(k, n, enumerated(), max_rank=3)
        check(
            f"triple agreement at n={n}",
            brute == table.rank_census(n, 3) and count == table.tree_count(n),
        )
    if args.dump_newick:
        _emit("".join(line + "\n" for line in dump_lines), args.dump_newick)

    # series identities at the requested truncation order
    check(f"compositional inverse through order {order}", seriesoracle.verify_inverse(k, order))
    for i in range(3):
        R = seriesoracle.oracle_R(k, i, order)
        ok = all(R.labeled(n) == table.root_rank_count(i, n) for n in range(1, order + 1))
        check(f"root-rank series identity i={i}", ok)
        M = seriesoracle.oracle_M(k, i, order)
        ok = all(M.labeled(n) == table.rank_ge_count(i, n) for n in range(1, order + 1))
        check(f"rank-at-least series identity i={i}", ok)
        check(
            f"polynomial split identity i={i}",
            seriesoracle.verify_theorem_decomposition(k, i, order),
        )

    # sampler uniformity on the smallest interesting support
    n_chi = next(
        (n for n in range(2, n_max + 1) if 3 <= table.tree_count(n) <= 200), None
    )
    if n_chi is not None:
        rep = stats.chi_square_uniformity(k, n_chi, samples=3000, base_seed=args.seed)
        check(
            f"chi-square uniformity at n={n_chi} "
            f"(stat {rep.statistic:.2f} < {rep.critical:.2f})",
            rep.passed,
        )

    lines.append("FAIL" if failures else "PASS")
    _emit("\n".join(lines) + "\n", args.output)
    return 3 if failures else 0


# -------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phylorank",
        description="Exact counting, uniform sampling and rank statistics of "
        "k-phylogenetic trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, fmt_choices=("tsv", "json")):
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        if fmt_choices:
            p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    def add_k(p):
        p.add_argument("--k", type=int, required=True, help="branching factor (>= 2)")

    p = sub.add_parser("count", help="number of trees on {1..n}")
    add_k(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--full-verify", action="store_true",
                   help="run quadratic cross-checks at every n, however large")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("census", help="exact per-rank vertex counts over all trees")
    add_k(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-rank", type=int, default=3)
    p.add_argument("--full-verify", action="store_true",
                   help="run quadratic cross-checks at every n, however large")
    add_common(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("limits", help="limiting rank distribution (exact rationals)")
    add_k(p)
    p.add_argument("--max-rank", type=int, default=3)
    add_common(p)
    p.set_defaults(func=_cmd_limits)

    p = sub.add_parser("sample", help="uniform random trees as canonical Newick")
    add_k(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, fmt_choices=("newick", "json"))
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("estimate", help="Monte Carlo rank frequencies vs limits")
    add_k(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-rank", type=int, default=3)
    add_common(p)
    p.set_defaults(func=_cmd_estimate)

    p = sub.add_parser("convergence", help="exact m_i(n)/m_0(n) ratios vs the limit")
    add_k(p)
    p.add_argument("--i", type=int, required=True, help="rank index")
    p.add_argument("--n-grid", required=True, help="comma-separated admissible n values")
    p.add_argument("--negligibility", default="",
                   help="comma-separated series powers to tabulate as vanishing ratios")
    p.add_argument("--full-verify", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("verify", help="run the whole self-verification suite")
    add_k(p)
    p.add_argument("--n-max", type=int, default=8,
                   help="exhaustively check all n up to this (default 8)")
    p.add_argument("--order", type=int, default=64, help="series truncation order")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--dump-newick", default=None,
                   help="write all enumerated trees to this file, one per line")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (DomainError, PhyloRankError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
