"""Empirical and exact verification of the limiting rank distribution.

Three instruments:

* Monte Carlo estimation of rank frequencies against the limiting values
  (the fraction of vertices of rank i tends to k^(-c_i) - k^(-c_{i+1})),
* Pearson chi-square uniformity testing of the sampler over a fully
  enumerated support, and
* exact convergence tables of the ratio m_i(n)/m_0(n) toward k^(-c_i),
  computed as closed products of small integers (no floating point in the
  ratios).

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
    internal_vertices,
    is_admissible,
    negligibility_ratio,
    rank_eq_limit,
    rank_ge_limit,
    rank_ge_ratio,
)
from .sampler import sample_batch, sample_rank_counts
from .treecore import to_newick

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


def estimate_rank_distribution(
    k: int,
    n: int,
    samples: int,
    base_seed: int,
    max_rank: int,
) -> EstimateReport:
    """Monte Carlo rank frequencies over ``samples`` uniform trees.

    Counts every vertex of every sampled tree by rank, straight from the
    tree's partition (``sample_rank_counts``).  At fixed n all trees have
    exactly k*s+1 vertices, so per-vertex aggregation and the two-stage
    "random vertex of a random tree" model coincide; this is asserted per tree.
    """
    require_int(samples, "samples", 1)
    require_int(max_rank, "max_rank", 0)
    if not is_admissible(k, n):
        raise DomainError(f"n={n} is inadmissible for k={k}")
    expected_vertices = k * internal_vertices(k, n) + 1

    by_rank = Counter()
    for tree_counts in sample_rank_counts(k, n, samples, base_seed):
        if (vertices := sum(tree_counts.values())) != expected_vertices:
            raise ConsistencyError(
                f"sampled tree has {vertices} vertices, expected {expected_vertices}"
            )
        by_rank.update(tree_counts)
    total = samples * expected_vertices
    counts = [by_rank[i] for i in range(max_rank + 1)]

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
    return EstimateReport(
        k=k,
        n=n,
        samples=samples,
        seed=base_seed,
        max_rank=max_rank,
        total_vertices=total,
        rows=tuple(rows),
        tail_count=total - sum(counts),
    )


# ------------------------------------------------------------- chi-square


def _chi_square_sf(x: float, df: int) -> float:
    """P(X > x) for chi-square X, integer df > 0, x > 0 (Abramowitz & Stegun
    26.4): erfc(sqrt(x/2)) if df is odd, plus (x/2)^s e^(-x/2) / Gamma(s+1) for
    s = df%2/2 + j, j < df//2.  The first term is formed in log space and each
    next one as a running product, times y/(j + df%2/2) with y = x/2, so the
    terms cost one multiplication each."""
    y = x / 2
    half = (df % 2) / 2
    scale = half * math.log(y) - y - math.lgamma(half + 1)  # log of the first term
    total, term = 0.0, 1.0  # the sum so far and the next term, both over e^scale
    for j in range(1, df // 2 + 1):
        total += term
        term *= y / (j + half)
        if term > 2.0**900:  # move 2^900 into the scale, so that no term overflows
            total, term, scale = total / 2.0**900, term / 2.0**900, scale + 900 * math.log(2)
    sf = math.exp(scale + math.log(total)) if total else 0.0
    return sf + math.erfc(math.sqrt(y)) if half else sf


def chi_square_critical(significance: float, df: int) -> float:
    """Upper critical value of the chi-square distribution: the x with
    P(X > x) = significance, by Newton steps on log P(X > x), nearly linear in
    the tail, from x = df.  Every evaluated x narrows a bracket of the root; a
    step that leaves the bracket is replaced by bisection (or by doubling x
    while there is no upper end), and the steps stop at a few ulps."""
    if df < 1:
        raise DomainError("degrees of freedom must be >= 1")
    if not 0 < significance < 1:
        raise DomainError("significance must be in (0, 1)")
    lo, hi, x = 0.0, math.inf, float(df)
    while True:
        sf, y = _chi_square_sf(x, df), x / 2
        lo, hi = (x, hi) if sf > significance else (lo, x)
        density = math.exp((df / 2 - 1) * math.log(y) - y - math.lgamma(df / 2)) / 2
        # a Newton step on log P(X > x), nan where the tail is too thin for a float
        step = math.log(sf / significance) * sf / density if sf and density else math.nan
        if abs(step) <= 4 * math.ulp(x):
            return x + step
        x = x + step if lo < x + step < hi else 2 * x if hi == math.inf else (lo + hi) / 2
        if not lo < x < hi:  # the bracket is two neighbouring floats
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

    # sum (o - e)^2 / e over the support, e = samples/size, each sample lying in it
    stat = Fraction(size * sum(o * o for o in counts.values()), samples) - samples
    df = size - 1
    critical = chi_square_critical(significance, df) if df else 0.0
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
        passed=stat_f < critical or not df,
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


def convergence_table(
    k: int,
    i: int,
    n_grid: Sequence[int] | Iterable[int],
    negligibility_powers: Sequence[int] = (),
) -> ConvergenceTable:
    """Exact ratios m_i(n)/m_0(n) over ``n_grid`` with gaps to the limit k^(-c_i).

    Optionally also tabulates, for each requested series power, the exact
    ratio of [x^n]T^power to the all-vertex coefficient (which tends to 0).
    Every n in the grid must be admissible.  Both ratios are closed products
    (``rank_ge_ratio``, ``negligibility_ratio``); no table is built.
    """
    points = list(n_grid)
    if not points:
        raise DomainError("n_grid must be nonempty")
    for n in points:
        if not is_admissible(k, n):
            raise DomainError(f"grid point n={n} is inadmissible for k={k}")
    limit = rank_ge_limit(k, i)
    rows = []
    for n in sorted(set(points)):
        ratio = rank_ge_ratio(k, i, n)
        neg = {p: negligibility_ratio(k, p, n) for p in negligibility_powers}
        rows.append(ConvergenceRow(n=n, ratio=ratio, gap=abs(ratio - limit), negligibility=neg))
    return ConvergenceTable(k=k, i=i, limit=limit, rows=tuple(rows))
