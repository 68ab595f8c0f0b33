"""Command-line interface.

Subcommands: count, census, limits, sample, estimate, convergence, verify.
Every command is deterministic given its full flag set (seeds included).
Exit codes: 0 success, 2 domain/usage error, 3 internal consistency failure.

Exact values print as decimal integers or "p/q" rationals, accompanied by
12-significant-digit decimals where a magnitude helps; JSON output follows
docs/cli_output.schema.json.  One writer, ``_emit_table``, streams every
report (census, limits, estimate, convergence, and sample's JSON) a row or tree
at a time; convergence alone builds different rows for its TSV and its JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice
from math import lgamma, log, log10
from typing import Iterable, Iterator, Sequence

from . import bruteforce, checks, stats
from .errors import ConsistencyError, DomainError, PhyloRankError, require_int
from .exactcount import (
    CountTable,
    c_index,
    limit_distribution,
    require_table_size,
)
from .render import decimal_str, exact
from .sampler import sample_batch
from .treecore import to_newick

# largest integer an exact limit prints, in digits: rendering is quadratic in
# the digit count (about 2 s for k=2, rank 18: 157,826 digits)
LIMITS_MAX_DIGITS = 200_000

# largest series truncation order verify checks at: its table and series checks grow
# 3- to 7-fold per doubling (k=2, through the library: 0.03 s at 128, 0.14-0.20 s at 256)
VERIFY_MAX_ORDER = 128
# one report item at indent 2; made once, as with an indent it runs in pure Python
_ITEM_JSON = json.JSONEncoder(indent=2, check_circular=False)  # an item holds no cycle


def _require_printable_limit(k: int, i: int) -> None:
    """Refuse an i whose k**c_i, of c_i*log10(k) digits, tops LIMITS_MAX_DIGITS;
    c_i >= k**(i-1), so a large i is refused before k**i is formed."""
    if k >= 2 and i >= 1 and ((i - 1) * log10(k) > 20 or c_index(k, i) * log10(k) > LIMITS_MAX_DIGITS):
        raise DomainError(f"k**c_{i} at k={k} would print more than {LIMITS_MAX_DIGITS} digits")


def _require_printable_ratios(k: int, i: int, grid: Sequence[int], powers: Sequence[int]) -> None:
    """Refuse an n at which m_i/m_0 or a negligibility ratio, unreduced, tops LIMITS_MAX_DIGITS:
    c_i factors of at most n+s, or (p-1)/(k-1) factors of at most (n+s) k! for the power p.  A
    zero ratio (n < k^i, n < p) is one digit; an inadmissible n is left to convergence_table."""
    c = c_index(k, i)  # small once _require_printable_limit(k, i) has passed
    kfac_digits = lgamma(min(k, LIMITS_MAX_DIGITS) + 1) / log(10)  # k! alone tops it from there
    for n in (n for n in grid if n >= 1 and (n - 1) % (k - 1) == 0):
        s = (n - 1) // (k - 1)
        sizes = [c * log10(n + s)] if s >= c else []
        sizes += [(p - 1) // (k - 1) * (log10(n + s) + kfac_digits)
                  for p in powers if 1 <= p <= n and (p - 1) % (k - 1) == 0]
        if max(sizes, default=0) > LIMITS_MAX_DIGITS:
            raise DomainError(
                f"the ratios at n={n} would print more than {LIMITS_MAX_DIGITS} digits"
            )


def _emit(chunks: Iterable[str], path: str | None) -> None:
    """Write ``chunks`` one by one, so that a stream of them is never held whole."""
    if path is None or path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _emit_table(args, head: dict, columns: Sequence[str], rows: Iterable, key="rows") -> None:
    """Write a report in ``args.format``, formatting each item of ``rows`` as
    it is written.  JSON is ``json.dumps`` at indent 2, byte for byte, of the
    command, the ``head`` fields and the items as ``key``; TSV is the
    ``columns`` line, then each row's values in column order, a float as %.6e."""
    def json_chunks() -> Iterator[str]:  # [:-2] drops the head's closing "\n}"
        yield json.dumps({"command": args.command, **head}, indent=2)[:-2] + f',\n  "{key}": ['
        sep, end = "\n    ", "]\n}\n"
        for item in rows:
            yield sep + _ITEM_JSON.encode(item).replace("\n", "\n    ")
            sep, end = ",\n    ", "\n  ]\n}\n"
        yield end

    if args.format == "json":
        _emit(json_chunks(), args.output)
    else:
        lines = ("\t".join(f"{v:.6e}" if isinstance(v, float) else str(v)
                           for v in map(row.__getitem__, columns)) + "\n" for row in rows)
        _emit(chain(["\t".join(columns) + "\n"], lines), args.output)


def _int_list(text: str) -> list[int]:
    """An argparse type: comma-separated integers, empty items skipped."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text!r}")


# ------------------------------------------------------------------ commands


def _cmd_count(args) -> int:
    _emit([str(CountTable(args.k, args.n).tree_count(args.n)) + "\n"], args.output)
    return 0


def _cmd_census(args) -> int:
    census = CountTable(args.k, args.n).rank_census(args.n, args.max_rank)
    head = {"k": args.k, "n": args.n, "max_rank": args.max_rank,
            "total": str(census.total), "tail": str(census.tail)}
    rows = (
        {"rank": i, "count": str(e), **exact("ratio", r)}
        for i, (e, r) in enumerate(zip(census.exact, census.ratios))
    )
    _emit_table(args, head, ("rank", "count", "ratio", "ratio_decimal"), rows)
    return 0


def _cmd_limits(args) -> int:
    _require_printable_limit(args.k, args.max_rank + 1)
    dist = limit_distribution(args.k, args.max_rank)
    rows = (
        {"rank": e.rank, "c": str(e.c), **exact("tail_prob", e.tail_prob),
         **exact("point_prob", e.point_prob)}
        for e in dist.entries
    )
    columns = ("rank", "c", "tail_prob", "tail_prob_decimal", "point_prob", "point_prob_decimal")
    _emit_table(args, {"k": args.k, "max_rank": args.max_rank}, columns, rows)
    return 0


def _cmd_sample(args) -> int:
    """Write the trees one by one.  The sampler refuses its arguments before
    its first tree, so that tree is drawn before the output is opened."""
    newicks = map(to_newick, sample_batch(args.k, args.n, args.count, args.seed))
    newicks = chain(list(islice(newicks, 1)), newicks)
    if args.format == "json":
        head = {"k": args.k, "n": args.n, "count": args.count, "seed": args.seed}
        _emit_table(args, head, (), newicks, "trees")
    else:
        _emit((line + "\n" for line in newicks), args.output)
    return 0


def _cmd_estimate(args) -> int:
    _require_printable_limit(args.k, args.max_rank + 1)
    report = stats.estimate_rank_distribution(
        args.k, args.n, args.samples, args.seed, args.max_rank
    )
    head = {"k": report.k, "n": report.n, "samples": report.samples, "seed": report.seed,
            "max_rank": report.max_rank, "total_vertices": report.total_vertices,
            "tail_count": report.tail_count}
    rows = (
        {"rank": r.rank, "count": str(r.count), **exact("frequency", r.frequency),
         **exact("limit", r.limit), "deviation": r.deviation}
        for r in report.rows
    )
    columns = ("rank", "count", "frequency", "frequency_decimal", "limit", "limit_decimal",
               "deviation")
    _emit_table(args, head, columns, rows)
    return 0


def _cmd_convergence(args) -> int:
    _require_printable_limit(args.k, args.i)
    grid, powers = args.n_grid, args.negligibility
    _require_printable_ratios(args.k, args.i, grid, powers)
    report = stats.convergence_table(args.k, args.i, grid, negligibility_powers=powers)
    # JSON: a head with the exact limit, the gap exactly, the negligibility ratios
    # as a map; TSV: no head, the limit's decimal on each row, decimals only
    if args.format == "json":
        head = {"k": report.k, "i": report.i, **exact("limit", report.limit)}
        columns: tuple[str, ...] = ()
        rows = (
            {"n": r.n, **exact("ratio", r.ratio), **exact("gap", r.gap),
             "negligibility": {str(p): str(v) for p, v in r.negligibility.items()}}
            for r in report.rows
        )
    else:
        head, negs, limit = {}, sorted(set(powers)), decimal_str(report.limit)
        columns = ("n", "ratio", "ratio_decimal", "limit_decimal", "gap_decimal",
                   *(f"neg_T^{p}" for p in negs))
        rows = (
            {"n": r.n, **exact("ratio", r.ratio), "limit_decimal": limit,
             "gap_decimal": decimal_str(r.gap),
             **{f"neg_T^{p}": decimal_str(r.negligibility[p]) for p in negs}}
            for r in report.rows
        )
    _emit_table(args, head, columns, rows)
    return 0


def _cmd_verify(args) -> int:
    """Run the self-verification suite and print one line per check."""
    k, n_max, order = args.k, args.n_max, args.order
    # Refuse bad input before building or enumerating anything: n_max, the
    # order and its bound, the table's size bound (arithmetic only), then the
    # enumeration cap, n upward.  t grows with n, so the scan stops at the
    # first n over the cap (n = 10 at k = 2, n = 13 at k = 3) and forms only
    # small factorials.
    require_int(n_max, "--n-max", 1)
    require_int(order, "truncation order", 1)
    if order > VERIFY_MAX_ORDER:
        raise DomainError(f"truncation order {order} is over the bound of {VERIFY_MAX_ORDER}")
    require_table_size(k, max(n_max, order))
    for n in range(1, n_max + 1):
        bruteforce.require_within_cap(k, n)
    table = CountTable(k, max(n_max, order))
    if args.dump_newick:
        trees = (tree for n in range(1, n_max + 1) for tree in bruteforce.enumerate_all(k, n))
        _emit((to_newick(tree) + "\n" for tree in trees), args.dump_newick)

    results = [(f"triple agreement at n={n}", checks.triple_agreement(table, n))
               for n in range(1, n_max + 1)]
    results += checks.series_identities(table, order) + checks.chi_square(table, n_max, args.seed)
    failed = not all(passed for _, passed in results)
    lines = [f"{'PASS' if passed else 'FAIL'} {name}" for name, passed in results]
    _emit(["\n".join([*lines, "FAIL" if failed else "PASS"]) + "\n"], args.output)
    return 3 if failed else 0


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
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    def add_k(p):
        p.add_argument("--k", type=int, required=True, help="branching factor (>= 2)")

    p = sub.add_parser("count", help="number of trees on {1..n}")
    add_k(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("census", help="exact per-rank vertex counts over all trees")
    add_k(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-rank", type=int, default=3)
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
    p.add_argument("--n-grid", type=_int_list, required=True,
                   help="comma-separated admissible n values")
    p.add_argument("--negligibility", type=_int_list, default="",
                   help="comma-separated series powers to tabulate as vanishing ratios")
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
