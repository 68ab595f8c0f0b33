import math
from collections import Counter
from fractions import Fraction

import pytest

from phylorank import bruteforce, stats
from phylorank.errors import ConsistencyError, DomainError
from phylorank.exactcount import rank_eq_limit
from phylorank.sampler import sample_batch, sample_rank_counts
from phylorank.stats import (
    chi_square_critical,
    chi_square_uniformity,
    convergence_table,
    estimate_rank_distribution,
)
from phylorank.treecore import RankCensus, Tree, internal, leaf, to_newick


# ---------------------------------------------------------------- estimates


def test_estimate_single_leaf():
    report = estimate_rank_distribution(2, 1, samples=1, base_seed=0, max_rank=2)
    assert report.rows[0].frequency == 1
    assert report.rows[1].count == 0
    assert report.total_vertices == 1


def test_estimate_reproducible():
    a = estimate_rank_distribution(2, 9, 50, base_seed=3, max_rank=2)
    b = estimate_rank_distribution(2, 9, 50, base_seed=3, max_rank=2)
    assert [r.count for r in a.rows] == [r.count for r in b.rows]


def test_estimate_counts_add_up():
    report = estimate_rank_distribution(2, 17, 40, base_seed=5, max_rank=3)
    assert report.total_vertices == 40 * (2 * 17 - 1)
    assert sum(r.count for r in report.rows) + report.tail_count == report.total_vertices
    assert sum(r.frequency for r in report.rows) + Fraction(
        report.tail_count, report.total_vertices
    ) == 1


def test_estimate_matches_limits_roughly():
    report = estimate_rank_distribution(2, 33, 400, base_seed=12, max_rank=1)
    assert abs(float(report.rows[0].frequency) - 0.5) < 0.05
    assert abs(float(report.rows[1].frequency) - 0.375) < 0.05


def test_estimate_consistency_under_doubling():
    # doubling the sample count moves each frequency by less than the two
    # runs' combined 3-sigma binomial bound (computed over trees)
    n, max_rank = 17, 2
    small = estimate_rank_distribution(2, n, 100, base_seed=21, max_rank=max_rank)
    large = estimate_rank_distribution(2, n, 200, base_seed=21, max_rank=max_rank)
    for r_small, r_large in zip(small.rows, large.rows):
        p = float(rank_eq_limit(2, r_small.rank))
        bound = 3 * math.sqrt(p * (1 - p) / 100) + 3 * math.sqrt(p * (1 - p) / 200)
        assert abs(float(r_small.frequency) - float(r_large.frequency)) <= bound


def test_estimate_domain_errors():
    with pytest.raises(DomainError):
        estimate_rank_distribution(2, 9, 0, base_seed=1, max_rank=2)
    with pytest.raises(DomainError):
        estimate_rank_distribution(3, 4, 5, base_seed=1, max_rank=2)
    with pytest.raises(DomainError, match="seed"):  # it once ran and reported seed "x"
        estimate_rank_distribution(2, 7, 2, base_seed="x", max_rank=1)


def test_estimate_checks_each_tree_vertex_count(monkeypatch):
    # a counter that loses one leaf of every tree must not go unnoticed
    counted = stats.sample_rank_counts

    def dropping_one(*args):
        for counts in counted(*args):
            counts[0] -= 1
            yield counts

    monkeypatch.setattr(stats, "sample_rank_counts", dropping_one)
    with pytest.raises(ConsistencyError, match="sampled tree has 16 vertices, expected 17"):
        estimate_rank_distribution(2, 9, 3, base_seed=1, max_rank=2)


@pytest.mark.parametrize("bad", [True, False, 2.5, "3", None])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: estimate_rank_distribution(2, 5, v, 1, 2),
        lambda v: estimate_rank_distribution(2, 5, 4, 1, v),
        lambda v: chi_square_uniformity(2, 3, v, 1),
        lambda v: RankCensus.of_counts(2, 3, {}, v),
        lambda v: list(sample_batch(2, 5, v, 1)),
        lambda v: list(sample_rank_counts(2, 5, v, 1)),
    ],
    ids=["estimate-samples", "estimate-max_rank", "chi-square-samples", "census-max_rank", "sample-count",
         "rank-counts-count"],
)
def test_counts_must_be_ints(call, bad):
    with pytest.raises(DomainError, match="must be an integer"):
        call(bad)


# --------------------------------------------------------------- chi-square


def test_chi_square_critical_values():
    # frozen from the standard quantile routine before the build
    assert chi_square_critical(0.001, 2) == pytest.approx(13.8155, abs=2e-4)
    assert chi_square_critical(0.001, 14) == pytest.approx(36.1233, abs=2e-4)
    assert chi_square_critical(0.001, 104) == pytest.approx(154.3141, abs=2e-4)


def test_chi_square_critical_matches_reference_quantiles():
    chi2 = pytest.importorskip("scipy.stats").chi2
    for df in range(1, 301):
        for significance in (1e-6, 0.001, 0.01, 0.05, 0.5):
            expected = chi2.isf(significance, df)
            got = chi_square_critical(significance, df)
            assert abs(got - expected) <= 1e-10 * expected, (significance, df)


def test_chi_square_critical_where_a_term_leaves_the_float_range():
    # from df of about 1,300 on, the running product of the survival
    # function's terms passes 2^900 and is rescaled; from about 1,500 on,
    # e^(-x/2) underflows as well
    chi2 = pytest.importorskip("scipy.stats").chi2
    for df in (2_000, 20_001, 99_999):
        for significance in (1e-6, 0.05, 0.5):
            expected = chi2.isf(significance, df)
            got = chi_square_critical(significance, df)
            assert abs(got - expected) <= 1e-10 * expected, (significance, df)


def test_chi_square_critical_domain_errors():
    for significance, df in ((0.05, 0), (0.0, 3), (1.0, 3)):
        with pytest.raises(DomainError):
            chi_square_critical(significance, df)


def test_chi_square_single_support_trivial_pass():
    report = chi_square_uniformity(2, 2, samples=10, base_seed=1)
    assert report.support == 1 and report.df == 0
    assert report.passed and report.statistic == 0.0


def test_chi_square_n3():
    report = chi_square_uniformity(2, 3, samples=3000, base_seed=1)
    assert report.df == 2
    assert report.critical == pytest.approx(13.8155, abs=2e-4)
    assert report.passed


def test_chi_square_exact_statistic():
    report = chi_square_uniformity(2, 4, samples=1500, base_seed=2)
    assert report.df == 14
    assert report.statistic == pytest.approx(float(report.statistic_exact))
    # statistic is a sum of (obs-expected)^2/expected with expected = 100
    assert report.statistic_exact >= 0


@pytest.mark.parametrize("k, n, samples, seed", [(2, 4, 1500, 2), (3, 7, 2800, 3)])
def test_chi_square_statistic_is_the_pearson_sum_over_the_support(k, n, samples, seed):
    support = [to_newick(t) for t in bruteforce.enumerate_all(k, n)]
    counts = Counter(to_newick(t) for t in sample_batch(k, n, samples, seed))
    expected = Fraction(samples, len(support))
    stat = sum((counts[s] - expected) ** 2 / expected for s in support)
    report = chi_square_uniformity(k, n, samples, seed)
    assert report.statistic_exact == stat
    assert report.statistic == float(stat)
    assert report.df == len(support) - 1 and report.passed


@pytest.mark.parametrize("k, n", [(2, 2), (3, 3)])
def test_chi_square_one_tree_support(k, n):
    report = chi_square_uniformity(k, n, samples=25, base_seed=4)
    assert (report.support, report.df) == (1, 0)
    assert report.statistic_exact == 0 and report.statistic == 0.0
    assert report.critical == 0.0 and report.passed


def test_chi_square_statistic_flags_degenerate_source():
    # the same Pearson formula applied to a source that always emits one of
    # the 15 trees: statistic = 1500*14 + 14*100, far above the critical value
    expected = Fraction(1500, 15)
    counts = [1500] + [0] * 14
    stat = sum((obs - expected) ** 2 / expected for obs in counts)
    assert float(stat) > chi_square_critical(0.001, 14)


def test_chi_square_support_cap():
    with pytest.raises(DomainError):
        chi_square_uniformity(2, 9, samples=10, base_seed=1, support_cap=100)


def test_chi_square_refuses_a_tree_outside_the_support(monkeypatch):
    real = stats.sample_batch

    def with_an_outsider(k, n, samples, seed):
        # the right shape and size, but on {1,2,4}: no tree the enumeration holds
        *trees, _ = real(k, n, samples, seed)
        return [*trees, Tree(internal([internal([leaf(1), leaf(2)]), leaf(4)]), k)]

    monkeypatch.setattr(stats, "sample_batch", with_an_outsider)
    with pytest.raises(ConsistencyError, match="outside the support"):
        chi_square_uniformity(2, 3, samples=30, base_seed=1)


def test_chi_square_inadmissible():
    with pytest.raises(DomainError):
        chi_square_uniformity(3, 4, samples=10, base_seed=1)


# -------------------------------------------------------------- convergence


def test_convergence_first_ratios():
    report = convergence_table(2, 1, [3, 4])
    assert report.limit == Fraction(1, 2)
    assert report.rows[0].ratio == Fraction(6, 15)
    assert report.rows[1].ratio == Fraction(45, 105)


def test_convergence_rank_zero_is_exactly_one():
    report = convergence_table(2, 0, [1, 5, 9, 33])
    assert all(row.ratio == 1 for row in report.rows)
    assert all(row.gap == 0 for row in report.rows)


def test_convergence_gap_shrinks():
    report = convergence_table(2, 1, [3, 9, 17, 33])
    gaps = [row.gap for row in report.rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_convergence_ternary():
    report = convergence_table(3, 1, [3, 21, 45])
    assert report.limit == Fraction(1, 3)
    gaps = [row.gap for row in report.rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_convergence_ternary_rank_two():
    # k=3, i=2 needs at least 9 leaves; the gap to 1/81 shrinks along the grid
    report = convergence_table(3, 2, [9, 21, 45, 63])
    assert report.limit == Fraction(1, 81)
    gaps = [row.gap for row in report.rows]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))


def test_convergence_negligibility_columns():
    report = convergence_table(2, 1, [3, 9], negligibility_powers=(2, 3))
    assert report.rows[0].negligibility[2] == Fraction(2, 5)
    assert set(report.rows[1].negligibility) == {2, 3}


def test_convergence_rejects_inadmissible_grid():
    with pytest.raises(DomainError):
        convergence_table(3, 1, [3, 4])


def test_convergence_requires_nonempty_grid():
    with pytest.raises(DomainError):
        convergence_table(2, 1, [])
