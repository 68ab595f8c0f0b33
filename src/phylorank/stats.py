"""Empirical and exact verification of the limiting rank distribution.

Three instruments:

* Monte Carlo estimation of rank frequencies against the limiting values
  (the fraction of vertices of rank i tends to k^(-c_i) - k^(-c_{i+1})),
* Pearson chi-square uniformity testing of the sampler over a fully
  enumerated support, and
* exact convergence tables of the ratio m_i(n)/m_0(n) toward k^(-c_i),
  computed with big-integer recurrences (no floating point in the ratios).

All sampling here goes through the deterministic batch contract, so every
report is reproducible from its seed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import bruteforce
from .errors import ConsistencyError, DomainError, require_int
from .exactcount import (
    CountTable,
    internal_vertices,
    is_admissible,
    negligibility_ratio,
    rank_eq_limit,
    rank_ge_limit,
)
from .render import decimal_str, fraction_str
from .sampler import sample_batch
from .treecore import census_of, to_newick

__all__ = [
    "RankEstimateRow",
    "EstimateReport",
    "estimate_rank_distribution",
    "UniformityReport",
    "chi_square_uniformity",
    "chi_square_critical",
    "ConvergenceRow",
    "ConvergenceTable",
    "convergence_table",
]


# ---------------------------------------------------------------- estimates


@dataclass(frozen=True)
class RankEstimateRow:
    rank: int
    count: int
    frequency: Fraction  # count / total vertices observed
    limit: Fraction  # limiting probability of this exact rank
    deviation: float  # |frequency - limit|


@dataclass(frozen=True)
class EstimateReport:
    k: int
    n: int
    samples: int
    seed: int
    max_rank: int
    total_vertices: int
    rows: tuple[RankEstimateRow, ...]
    tail_count: int  # vertices of rank > max_rank

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "max_rank": self.max_rank,
            "total_vertices": self.total_vertices,
            "tail_count": self.tail_count,
            "rows": [
                {
                    "rank": r.rank,
                    "count": str(r.count),
                    "frequency": fraction_str(r.frequency),
                    "frequency_decimal": decimal_str(r.frequency),
                    "limit": fraction_str(r.limit),
                    "limit_decimal": decimal_str(r.limit),
                    "deviation": r.deviation,
                }
                for r in self.rows
            ],
        }

    def to_tsv(self) -> str:
        lines = ["rank\tcount\tfrequency\tfrequency_decimal\tlimit\tlimit_decimal\tdeviation"]
        for r in self.rows:
            lines.append(
                f"{r.rank}\t{r.count}\t{fraction_str(r.frequency)}\t"
                f"{decimal_str(r.frequency)}\t{fraction_str(r.limit)}\t"
                f"{decimal_str(r.limit)}\t{r.deviation:.6e}"
            )
        return "\n".join(lines) + "\n"


def estimate_rank_distribution(
    k: int,
    n: int,
    samples: int,
    base_seed: int,
    max_rank: int,
) -> EstimateReport:
    """Monte Carlo rank frequencies over ``samples`` uniform trees.

    Aggregates every vertex of every sampled tree.  At fixed n all trees have
    exactly k*s+1 vertices, so per-vertex aggregation and the two-stage
    "random vertex of a random tree" model coincide; this is asserted per
    sampled tree.
    """
    require_int(samples, "samples", 1)
    require_int(max_rank, "max_rank", 0)
    if not is_admissible(k, n):
        raise DomainError(f"n={n} is inadmissible for k={k}")
    expected_vertices = k * internal_vertices(k, n) + 1

    counts = [0] * (max_rank + 1)
    tail = 0
    total = 0
    for tree in sample_batch(k, n, samples, base_seed):
        census = census_of(tree, max_rank)
        if census.total != expected_vertices:
            raise ConsistencyError(
                f"sampled tree has {census.total} vertices, expected {expected_vertices}"
            )
        total += census.total
        tail += census.tail
        counts = [a + b for a, b in zip(counts, census.exact)]

    rows = []
    for i in range(max_rank + 1):
        freq = Fraction(counts[i], total)
        limit = rank_eq_limit(k, i)
        rows.append(
            RankEstimateRow(
                rank=i,
                count=counts[i],
                frequency=freq,
                limit=limit,
                deviation=abs(float(freq - limit)),
            )
        )
    if sum(r.count for r in rows) + tail != total:
        raise ConsistencyError("estimate rows do not sum to the vertex total")
    return EstimateReport(
        k=k,
        n=n,
        samples=samples,
        seed=base_seed,
        max_rank=max_rank,
        total_vertices=total,
        rows=tuple(rows),
        tail_count=tail,
    )


# ------------------------------------------------------------- chi-square


def _chi_square_sf(x: float, df: int) -> float:
    """P(X > x) for chi-square X, integer df > 0, x > 0 (Abramowitz & Stegun
    26.4): erfc(sqrt(x/2)) if df is odd, plus (x/2)^s e^(-x/2) / Gamma(s+1) for
    s = df%2/2 + j, j < df//2, each term formed in log space so none overflows."""
    y = x / 2
    half = (df % 2) / 2
    terms = [
        math.exp((j + half) * math.log(y) - y - math.lgamma(j + half + 1))
        for j in range(df // 2)
    ]
    if half:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


def chi_square_critical(significance: float, df: int) -> float:
    """Upper critical value of the chi-square distribution: the x with
    P(X > x) = significance, by bisection until the bracket stops shrinking."""
    if df < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if not 0 < significance < 1:
        raise DomainError("significance must be in (0, 1)")
    lo, hi = 0.0, float(df)
    while _chi_square_sf(hi, df) > significance:
        lo, hi = hi, 2 * hi
    while lo < (mid := (lo + hi) / 2) < hi:
        if _chi_square_sf(mid, df) > significance:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class UniformityReport:
    k: int
    n: int
    samples: int
    seed: int
    significance: float
    support: int  # number of distinct trees
    df: int
    statistic_exact: Fraction
    statistic: float
    critical: float
    passed: bool


def chi_square_uniformity(
    k: int,
    n: int,
    samples: int,
    base_seed: int,
    significance: float = 0.001,
    support_cap: int = 10**5,
) -> UniformityReport:
    """Pearson goodness-of-fit of the sampler against the uniform distribution.

    Enumerates the full support (error if larger than ``support_cap``),
    buckets samples by canonical Newick string, and compares the exact
    statistic to the chi-square critical value at ``significance`` with
    support-1 degrees of freedom.
    """
    require_int(samples, "samples", 1)
    support = [to_newick(t) for t in bruteforce.enumerate_all(k, n, cap=support_cap)]
    size = len(support)
    if size == 0:
        raise DomainError(f"n={n} is inadmissible for k={k}: empty support")

    counts = Counter(to_newick(t) for t in sample_batch(k, n, samples, base_seed))
    unknown = set(counts) - set(support)
    if unknown:
        raise ConsistencyError(f"sampler produced trees outside the support: {unknown}")

    if size == 1:
        return UniformityReport(
            k=k, n=n, samples=samples, seed=base_seed, significance=significance,
            support=1, df=0, statistic_exact=Fraction(0), statistic=0.0,
            critical=0.0, passed=True,
        )

    expected = Fraction(samples, size)
    stat = Fraction(0)
    for newick in support:
        obs = counts.get(newick, 0)
        diff = obs - expected
        stat += diff * diff / expected
    df = size - 1
    critical = chi_square_critical(significance, df)
    stat_f = float(stat)
    return UniformityReport(
        k=k,
        n=n,
        samples=samples,
        seed=base_seed,
        significance=significance,
        support=size,
        df=df,
        statistic_exact=stat,
        statistic=stat_f,
        critical=critical,
        passed=stat_f < critical,
    )


# ------------------------------------------------------------ convergence


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    ratio: Fraction  # m_i(n) / m_0(n)
    gap: Fraction  # |ratio - limit|
    negligibility: dict[int, Fraction]  # power -> [x^n]T^power / [x^n]M_0


@dataclass(frozen=True)
class ConvergenceTable:
    k: int
    i: int
    limit: Fraction  # k^(-c_i)
    rows: tuple[ConvergenceRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "i": self.i,
            "limit": fraction_str(self.limit),
            "limit_decimal": decimal_str(self.limit),
            "rows": [
                {
                    "n": r.n,
                    "ratio": fraction_str(r.ratio),
                    "ratio_decimal": decimal_str(r.ratio),
                    "gap": fraction_str(r.gap),
                    "gap_decimal": decimal_str(r.gap),
                    "negligibility": {
                        str(p): fraction_str(v) for p, v in r.negligibility.items()
                    },
                }
                for r in self.rows
            ],
        }

    def to_tsv(self) -> str:
        powers = sorted(self.rows[0].negligibility) if self.rows else []
        header = "n\tratio\tratio_decimal\tlimit_decimal\tgap_decimal"
        header += "".join(f"\tneg_T^{p}" for p in powers)
        lines = [header]
        for r in self.rows:
            line = (
                f"{r.n}\t{fraction_str(r.ratio)}\t{decimal_str(r.ratio)}\t"
                f"{decimal_str(self.limit)}\t{decimal_str(r.gap)}"
            )
            line += "".join(f"\t{decimal_str(r.negligibility[p])}" for p in powers)
            lines.append(line)
        return "\n".join(lines) + "\n"


def convergence_table(
    k: int,
    i: int,
    n_grid: Sequence[int] | Iterable[int],
    table: CountTable | None = None,
    negligibility_powers: Sequence[int] = (),
) -> ConvergenceTable:
    """Exact ratios m_i(n)/m_0(n) over ``n_grid`` with gaps to the limit k^(-c_i).

    Optionally also tabulates, for each requested series power, the exact
    ratio of [x^n]T^power to the all-vertex coefficient (which tends to 0).
    Every n in the grid must be admissible; the table must cover max(n_grid).
    """
    points = list(n_grid)
    if not points:
        raise DomainError("n_grid must be nonempty")
    for n in points:
        if not is_admissible(k, n):
            raise DomainError(f"grid point n={n} is inadmissible for k={k}")
    grid = sorted(set(points))
    if table is None:
        table = CountTable(k, grid[-1])
    limit = rank_ge_limit(k, i)
    rows = []
    for n in grid:
        m0 = table.total_vertex_count(n)
        mi = table.rank_ge_count(i, n)
        ratio = Fraction(mi, m0)
        neg = {p: negligibility_ratio(k, p, n) for p in negligibility_powers}
        rows.append(ConvergenceRow(n=n, ratio=ratio, gap=abs(ratio - limit), negligibility=neg))
    return ConvergenceTable(k=k, i=i, limit=limit, rows=tuple(rows))
