"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.  Criterion 8 asserts a
claimed inequality that exact arithmetic refutes (see the printed
counterexamples); it is expected to fail and is marked xfail(strict) so the
suite documents the refutation instead of hiding it.
"""

import random
from fractions import Fraction

import pytest

from phylorank import bruteforce, seriesoracle
from phylorank.exactcount import (
    CountTable,
    log_concavity_check,
    log_concavity_over_ranks,
    negligibility_ratio,
    rank_ge_limit,
)
from phylorank.sampler import sample_batch
from phylorank.stats import chi_square_uniformity, convergence_table, estimate_rank_distribution
from phylorank.treecore import from_newick, rank_of, to_newick

CHI_SEED = 1
MC_SEED = 7
GRID = (3, 11, 101, 501, 1001, 2001)

# chi-square 0.001-significance critical values, frozen from the quantile
# routine before the build
CRITICAL = {2: 13.8155, 14: 36.1233, 34: 65.2472, 104: 154.3141, 279: 357.7288}


def _report(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}")
    return ok


# -------------------------------------------------------------- criterion 1


@pytest.mark.parametrize("k,n_max", [(2, 8), (3, 7)])
def test_criterion_1_triple_oracle_agreement(k, n_max):
    """Enumeration vs integer recurrences vs closed forms, exactly."""
    table = CountTable(k, n_max)  # recurrence-vs-closed asserted internally
    ok = True
    for n in range(1, n_max + 1):
        trees = 0
        m = [0] * 5  # vertices of rank >= i
        r = [0] * 5  # trees whose root has rank >= i
        e = [0] * 4  # vertices of rank exactly i
        for tree in bruteforce.enumerate_all(k, n):
            trees += 1
            for i in range(5):
                r[i] += tree.root.rank >= i
            for v in tree.vertices():
                for i in range(5):
                    m[i] += v.rank >= i
                if v.rank <= 3:
                    e[v.rank] += 1
        ok &= trees == table.tree_count(n)
        for i in range(4):
            ok &= r[i] == table.root_rank_count(i, n)
            ok &= m[i] == table.rank_ge_count(i, n)
        census = table.rank_census(n, 3)
        if census.exact:
            ok &= census.exact == tuple(e)
        else:
            ok &= trees == 0
    assert _report(
        f"criterion 1: triple-oracle agreement for k={k}, n <= {n_max}, i <= 3", ok
    )


# -------------------------------------------------------------- criterion 2


def test_criterion_2_figure_one_reproduction():
    got = {to_newick(t) for t in bruteforce.enumerate_all(2, 3)}
    expected = {"((1,2),3);", "((1,3),2);", "((2,3),1);"}
    assert _report("criterion 2: the three trees on {1,2,3}", got == expected)


# -------------------------------------------------------------- criterion 3


@pytest.mark.parametrize("k", [2, 3, 4])
def test_criterion_3_series_identities_order_64(k, request):
    table = request.getfixturevalue(f"table_k{k}")
    order = 64
    ok = seriesoracle.verify_inverse(k, order)
    for i in range(3):
        R = seriesoracle.oracle_R(k, i, order)
        M = seriesoracle.oracle_M(k, i, order)
        for n in range(1, order + 1):
            ok &= R.labeled(n) == table.root_rank_count(i, n)
            ok &= M.labeled(n) == table.rank_ge_count(i, n)
        ok &= seriesoracle.verify_theorem_decomposition(k, i, order)
    assert _report(
        f"criterion 3: series identities at order {order}, k={k}, i in 0..2 (exact)", ok
    )


# -------------------------------------------------------------- criterion 4


@pytest.mark.parametrize("i", [1, 2])
def test_criterion_4_limit_convergence(i, big_table_k2):
    report = convergence_table(2, i, GRID, table=big_table_k2)
    limit = rank_ge_limit(2, i)
    final_gap = report.rows[-1].gap
    gaps = [row.gap for row in report.rows]
    ok = final_gap < Fraction(1, 100)
    ok &= all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert _report(
        f"criterion 4: m_{i}(n)/m_0(n) -> {limit} (gap at n=2001 is "
        f"{float(final_gap):.2e} < 0.01, nonincreasing over {GRID})",
        ok,
    )


# -------------------------------------------------------------- criterion 5


@pytest.mark.parametrize("power", [2, 3])
def test_criterion_5_negligibility(power):
    values = [negligibility_ratio(2, power, n) for n in GRID]
    ok = values[-1] < Fraction(1, 1000)
    ok &= all(a > b for a, b in zip(values, values[1:]))
    assert _report(
        f"criterion 5: [x^n]T^{power}/[x^n]M_0 = {float(values[-1]):.2e} < 1e-3 "
        "at n=2001 and decreasing",
        ok,
    )


# -------------------------------------------------------------- criterion 6


def test_criterion_6_monte_carlo_limit_law():
    report = estimate_rank_distribution(2, 1001, samples=200, base_seed=MC_SEED, max_rank=2)
    expected = [Fraction(1, 2), Fraction(3, 8), Fraction(15, 128)]
    ok = True
    for row, want in zip(report.rows, expected):
        ok &= row.limit == want
        ok &= row.deviation < 0.01
    assert _report(
        "criterion 6: 200 samples at n=1001 (seed 7) within 0.01 of 1/2, 3/8, 15/128 "
        f"(max deviation {max(r.deviation for r in report.rows):.2e})",
        ok,
    )


# -------------------------------------------------------------- criterion 7


def _uniformity_passes(k, n, samples, df):
    report = chi_square_uniformity(k, n, samples, base_seed=CHI_SEED)
    ok = report.df == df
    ok &= abs(report.critical - CRITICAL[df]) < 2e-3
    ok &= report.passed
    return _report(
        f"criterion 7: chi-square at k={k}, n={n}, {samples} samples (seed {CHI_SEED}): "
        f"{report.statistic:.2f} < {report.critical:.2f} at significance 0.001",
        ok,
    )


@pytest.mark.parametrize("n,samples,df", [(3, 3000, 2), (4, 15000, 14), (5, 105000, 104)])
def test_criterion_7_chi_square_uniformity(n, samples, df):
    assert _uniformity_passes(2, n, samples, df)


def test_criterion_7_chi_square_uniformity_k3():
    # all 280 ternary trees on 7 leaves, about 100 samples each
    assert _uniformity_passes(3, 7, 28000, 279)


def test_criterion_7_chi_square_uniformity_k4():
    # all 35 quaternary trees on 7 leaves, 100 samples each
    assert _uniformity_passes(4, 7, 3500, 34)


def test_criterion_7_chi_square_rejects_unpermuted_labels(monkeypatch):
    # fault injection: with no shuffle every draw deals the same partition,
    # {1,2}, {3,4}, {5,6}, and so the same tree
    monkeypatch.setattr(random.Random, "shuffle", lambda self, x: None)
    report = chi_square_uniformity(2, 4, 1500, base_seed=CHI_SEED)
    assert not report.passed


def test_criterion_7_batch_determinism():
    def batch(count):
        return [to_newick(t) for t in sample_batch(2, 33, count, base_seed=CHI_SEED)]

    full = batch(400)
    ok = batch(400) == full and batch(150) == full[:150]
    assert _report(
        "criterion 7: batch of 400 at n=33 reproducible; its first 150 trees are the batch of 150",
        ok,
    )


# -------------------------------------------------------------- criterion 8


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the claimed inequality is false over k at rank 1: P_{k,1} ~ 1/k is "
    "log-convex over k, so every k in 4..19 violates (first: P_{4,1}^2 = "
    "65025/1048576 < P_{3,1}*P_{5,1} = 81224/1265625). Ranks 0 and 2..5 do "
    "satisfy it; the rank-indexed direction at fixed k holds too (printed "
    "below). Exactness of the refutation is cross-checked by census ratios "
    "and Monte Carlo elsewhere in the suite.",
)
def test_criterion_8_log_concavity_over_k():
    def approx(pair):
        num, den = pair
        shift = max(den.bit_length(), num.bit_length()) - 53
        if shift > 0:
            num, den = num >> shift, den >> shift
        return num / den if den else float("inf")

    ok = True
    for i in range(6):
        report = log_concavity_check(i, 20)
        if not report.ok:
            first = report.violations[0]
            print(
                f"FAIL criterion 8: rank {i}: {len(report.violations)} violations "
                f"over k in 3..19; first at k={first[0]}: "
                f"{approx(first[1]):.6e} < {approx(first[2]):.6e}"
            )
            ok = False
        else:
            print(f"PASS criterion 8: rank {i}: log-concave over k in 3..19")
    # context: the other direction of the claim, exploratory per the design
    for k in (2, 3, 4):
        over_i = log_concavity_over_ranks(k, 7)
        print(
            f"INFO criterion 8: rank-indexed sequence at k={k} is "
            f"{'log-concave' if over_i.ok else 'NOT log-concave'} for i in 1..6"
        )
    assert ok


# -------------------------------------------------------------- criterion 9


@pytest.mark.parametrize("k,n_max", [(2, 6), (3, 5)])
def test_criterion_9_newick_roundtrip(k, n_max):
    ok = True
    checked = 0
    for n in range(1, n_max + 1):
        for tree in bruteforce.enumerate_all(k, n):
            s = to_newick(tree)
            back = from_newick(s, k)
            ok &= back == tree and to_newick(back) == s
            ok &= rank_of(back, back.root) == rank_of(tree, tree.root)
            checked += 1
    assert _report(
        f"criterion 9: Newick round-trip for all {checked} trees, k={k}, n <= {n_max}", ok
    )
