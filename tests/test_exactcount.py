import random
import sys
import tracemalloc
from decimal import Decimal, Inexact, Rounded, localcontext
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from math import comb, factorial, gcd, prod
from operator import mul

import pytest

from phylorank import bruteforce, exactcount
from phylorank.errors import ConsistencyError, DomainError, TableCoverageError
from phylorank.exactcount import (
    CountTable,
    c_index,
    coeff_T_pow,
    internal_vertices,
    is_admissible,
    limit_distribution,
    log_concavity_check,
    log_concavity_over_ranks,
    negligibility_ratio,
    rank_eq_limit,
    rank_ge_limit,
    rank_ge_ratio,
    tree_count_closed,
)
from phylorank.stats import convergence_table
from phylorank.treecore import rank_of


# ------------------------------------------------------------- admissibility


def test_is_admissible_examples():
    assert is_admissible(2, 7) and internal_vertices(2, 7) == 6
    assert not is_admissible(3, 4)
    assert is_admissible(3, 5) and internal_vertices(3, 5) == 2


def test_admissibility_domain_errors():
    for k, n in [(1, 3), (0, 1), (2, 0), (2, -1)]:
        with pytest.raises(DomainError):
            is_admissible(k, n)
    with pytest.raises(DomainError):
        internal_vertices(3, 4)


# ----------------------------------------------------------------- c index


def test_c_index_examples():
    assert c_index(2, 3) == 7
    assert c_index(3, 2) == 4
    assert all(c_index(k, 0) == 0 for k in range(2, 8))


def test_c_index_recurrence():
    for k in (2, 3, 5):
        for i in range(1, 8):
            assert c_index(k, i) == k * c_index(k, i - 1) + 1


# ----------------------------------------------------------- closed forms


def test_coeff_T_pow_examples():
    assert coeff_T_pow(2, 1, 3) == Fraction(1, 2)  # t_{2,3} = 3!/2 = 3
    assert coeff_T_pow(2, 2, 3) == 1  # 6 ordered pairs of trees on {1,2,3}
    assert coeff_T_pow(2, 2, 2) == 1  # T^2 = x^2 + ...
    assert coeff_T_pow(2, 3, 2) == 0  # no valid s when n < power
    assert coeff_T_pow(3, 1, 5) == Fraction(1, 12)  # t_{3,5} = 120/12 = 10


def test_coeff_T_pow_zero_off_lattice():
    assert coeff_T_pow(3, 1, 4) == 0
    assert coeff_T_pow(4, 2, 7) == 0


def test_coeff_T_pow_domain_errors():
    with pytest.raises(DomainError):
        coeff_T_pow(1, 1, 3)
    with pytest.raises(DomainError):
        coeff_T_pow(2, 0, 3)
    with pytest.raises(DomainError):
        coeff_T_pow(2, 1, 0)


def test_tree_count_closed_matches_factorial_scaling():
    from math import factorial

    for k, n in [(2, 6), (3, 7), (5, 13)]:
        assert tree_count_closed(k, n) == coeff_T_pow(k, 1, n) * factorial(n)


# ------------------------------------------------------------- count table


def test_tree_count_examples(table_k2, table_k3):
    assert [table_k2.tree_count(n) for n in (1, 2, 3)] == [1, 1, 3]
    assert [table_k2.tree_count(n) for n in (4, 5, 6)] == [15, 105, 945]
    assert [table_k3.tree_count(n) for n in (3, 5, 7)] == [1, 10, 280]
    assert table_k3.tree_count(4) == 0


def test_forest_count_examples(table_k2, table_k3):
    assert table_k2.forest_count(1, 4) == 15  # a 1-forest is a tree
    assert table_k2.forest_count(2, 3) == 3  # {singleton, cherry} x 3 labels
    # brute-force confirmed: {leaf, 3-star of the other three}, 4 label choices
    assert table_k3.forest_count(2, 4) == 4


def test_forest_count_beyond_k(table_k2):
    # 4 disjoint binary trees on {1..6}: block sizes (3,1,1,1) give
    # C(6,3)*3 = 60 forests, sizes (2,2,1,1) give C(6,2)*C(4,2)/2 = 45
    assert table_k2.forest_count(4, 6) == 105
    assert table_k2.forest_count(6, 6) == 1  # six singletons
    assert table_k2.forest_count(5, 6) == 15  # choose the one cherry


def test_root_rank_count_examples(table_k2):
    assert table_k2.root_rank_count(1, 2) == 1
    assert table_k2.root_rank_count(1, 3) == 3
    assert table_k2.root_rank_count(2, 4) == 3  # exactly the balanced trees
    assert table_k2.root_rank_count(0, 5) == table_k2.tree_count(5)


def test_root_rank_count_brute(table_k2):
    # frozen from enumeration: root rank >= i over all trees on [n]
    for i, n in [(1, 4), (2, 5), (2, 6), (3, 6)]:
        brute = sum(
            1 for t in bruteforce.enumerate_all(2, n) if rank_of(t, t.root) >= i
        )
        assert table_k2.root_rank_count(i, n) == brute


def test_rank_ge_count_examples(table_k2, table_k3):
    assert table_k2.rank_ge_count(0, 3) == 15  # 3 trees x 5 vertices
    assert table_k2.rank_ge_count(1, 4) == 45
    assert table_k2.rank_ge_count(2, 4) == 3
    assert table_k3.rank_ge_count(1, 5) == 20
    # the cherry: one root of rank 1
    assert [table_k2.rank_ge_count(1, n) for n in (1, 2, 3, 4)] == [0, 1, 6, 45]


def test_total_vertex_count_examples(table_k2, table_k3):
    assert table_k2.total_vertex_count(3) == 15
    assert table_k2.total_vertex_count(4) == 105
    assert table_k3.total_vertex_count(5) == 70
    assert table_k3.total_vertex_count(4) == 0  # inadmissible


def test_total_matches_rank_ge_zero(table_k2, table_k3):
    for table in (table_k2, table_k3):
        for n in range(1, 30):
            assert table.total_vertex_count(n) == table.rank_ge_count(0, n)


def test_scaling_identity(table_k2, table_k3, table_k4):
    for table in (table_k2, table_k3, table_k4):
        k = table.k
        for n in range(1, 50):
            if is_admissible(k, n):
                s = internal_vertices(k, n)
                assert table.rank_ge_count(0, n) == (k * s + 1) * table.tree_count(n)


def test_monotone_tail(table_k2, table_k3):
    for table in (table_k2, table_k3):
        for n in range(1, 40):
            values = [table.rank_ge_count(i, n) for i in range(5)]
            assert all(a >= b >= 0 for a, b in zip(values, values[1:]))


def test_rank_census_examples(table_k2, table_k3):
    census = table_k2.rank_census(4, 2)
    assert census.exact == (60, 42, 3)
    assert census.tail == 0
    assert census.total == 105
    assert census.ratios[1] == Fraction(42, 105)

    census = table_k2.rank_census(3, 2)
    assert census.exact == (9, 6, 0)

    census = table_k3.rank_census(1, 3)
    assert census.exact == (1, 0, 0, 0)
    assert census.total == 1


def test_rank_census_inadmissible_is_empty(table_k3):
    census = table_k3.rank_census(4, 3)
    assert census.exact == () and census.total == 0


def test_rank_census_tail_accounts_for_everything(table_k2):
    census = table_k2.rank_census(16, 1)
    assert sum(census.exact) + census.tail == census.total
    assert census.tail == table_k2.rank_ge_count(2, 16)


def test_rank_census_refuses_counts_that_are_not_monotone(monkeypatch):
    # m_2 one above m_1
    rank_ge = CountTable.rank_ge_count
    monkeypatch.setattr(
        CountTable, "rank_ge_count", lambda self, i, n: rank_ge(self, i - (i == 2), n) + (i == 2)
    )
    with pytest.raises(ConsistencyError, match="not monotone"):
        CountTable(2, 16).rank_census(16, 3)


def test_rank_census_checks_m_0_against_the_vertex_total(monkeypatch):
    table = CountTable(2, 16)
    m_0 = table.rank_ge_count(0, 16)
    total = CountTable.total_vertex_count
    monkeypatch.setattr(CountTable, "total_vertex_count", lambda self, n: total(self, n) + 1)
    with pytest.raises(ConsistencyError, match=rf"m_0\(16\) = {m_0} != \(k\*s\+1\)\*t = {m_0 + 1}"):
        table.rank_census(16, 3)


def test_brute_force_equivalence_small():
    # every counting sequence vs exhaustive enumeration
    for k, n_max in [(2, 6), (3, 7)]:
        table = CountTable(k, n_max)
        for n in range(1, n_max + 1):
            brute = bruteforce.brute_census(k, n, max_rank=3)
            assert table.tree_count(n) == sum(
                1 for _ in bruteforce.enumerate_all(k, n)
            )
            for i in range(4):
                assert table.rank_ge_count(i, n) == brute.count_rank_ge(i)
            census = table.rank_census(n, 3)
            if census.exact:
                assert census.exact == brute.exact


@pytest.mark.parametrize(
    "call",
    [
        lambda: c_index(2, True),
        lambda: rank_ge_limit(2, False),
        lambda: CountTable(2, 8).rank_ge_count(True, 5),
        lambda: CountTable(2, 8).root_rank_count(False, 5),
        lambda: CountTable(2, 8).rank_census(5, True),
        lambda: limit_distribution(2, True),
        lambda: convergence_table(2, 1, [5.5, "7"]),
        lambda: convergence_table(2, 1, [5, 7.0]),
        lambda: convergence_table(2, 1, [True]),
    ],
    ids=[
        "c_index", "limit", "rank_ge", "root_rank", "census", "distribution",
        "grid_mixed", "grid_float", "grid_bool",
    ],
)
def test_non_integer_arguments_are_rejected(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: CountTable(2, 8).forest_count(True, 5),
        lambda: CountTable(2, 8).ordered_forest_counts(True),
        lambda: coeff_T_pow(2, True, 3),
        lambda: negligibility_ratio(2, True, 5),
        lambda: log_concavity_over_ranks(2, 2.5),
        lambda: log_concavity_check(0, 4.5),
        lambda: log_concavity_check(0.5, 6),
    ],
    ids=["forest_count", "ordered_forest_counts", "coeff_T_pow", "negligibility", "over_ranks",
         "concavity_k_max", "concavity_rank"],
)
def test_sizes_and_powers_must_be_integers(call):
    with pytest.raises(DomainError, match="must be an integer"):
        call()


@pytest.mark.parametrize("k, n_max", [(2, 40), (5, 101)])
def test_table_size_bound(k, n_max, monkeypatch):
    need = exactcount._table_bytes(k, n_max)
    monkeypatch.setattr(exactcount, "MAX_TABLE_BYTES", need - 1)
    with pytest.raises(DomainError, match="MiB"):
        CountTable(k, n_max)
    monkeypatch.setattr(exactcount, "MAX_TABLE_BYTES", need)
    assert CountTable(k, n_max).n_max == n_max


def test_table_size_bound_admits_every_documented_table():
    # the largest tables of the tests, the README and the benchmark
    assert exactcount._table_bytes(2, 2001) <= exactcount.MAX_TABLE_BYTES
    assert exactcount._table_bytes(3, 1001) <= exactcount.MAX_TABLE_BYTES
    # the bound's edge for k = 2, as the MAX_TABLE_BYTES docstring states
    assert exactcount._table_bytes(2, 10_360) <= exactcount.MAX_TABLE_BYTES
    assert exactcount._table_bytes(2, 10_361) > exactcount.MAX_TABLE_BYTES


def test_table_coverage_errors(table_k2):
    with pytest.raises(TableCoverageError):
        table_k2.tree_count(65)
    with pytest.raises(TableCoverageError):
        table_k2.rank_ge_count(1, 1000)
    with pytest.raises(DomainError):
        table_k2.root_rank_count(-1, 4)
    with pytest.raises(DomainError):
        table_k2.forest_count(0, 4)
    with pytest.raises(DomainError):
        CountTable(1, 5)


def test_huge_rank_is_all_zero(table_k2):
    assert table_k2.rank_ge_count(30, 64) == 0
    assert table_k2.root_rank_count(30, 64) == 0


@pytest.mark.parametrize("k,n,top", [(2, 64, 6), (3, 63, 3)])
def test_tallest_rank_bound(k, n, top, request):
    # a vertex of rank i has at least k^i descendant leaves, so at n_max = 64
    # the tallest rank is floor(log_k 64); the rank just past it is all zero
    table = request.getfixturevalue(f"table_k{k}")
    assert table.root_rank_count(top, n) > 0
    assert table.rank_ge_count(top, n) > 0
    assert table.root_rank_count(top + 1, n) == 0
    assert table.rank_ge_count(top + 1, n) == 0


def test_ranks_past_the_tallest_share_one_zero_sequence():
    # a stored zero sequence per rank would take about 7 MB here
    table = CountTable(2, 64)
    tracemalloc.start()
    try:
        census = table.rank_census(64, 10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert census.exact[7:] == (0,) * (10_001 - 7)
    assert peak < 2_000_000


@pytest.mark.parametrize("k, n", [(2, 64), (3, 63)])
def test_rank_census_lifts_no_rank_past_the_tallest(k, n, monkeypatch):
    # m_0..m_{top} and one tree count (the m_0 check): each lift forms n! and k!^n
    table = CountTable(k, n)
    lifted = []
    lift = exactcount._lift
    monkeypatch.setattr(
        exactcount, "_lift", lambda name, *rest: lifted.append(name) or lift(name, *rest)
    )
    census = table.rank_census(n, 10**4)
    assert len(lifted) <= table._top_rank + 2
    assert census.exact[table._top_rank + 1:] == (0,) * (10**4 - table._top_rank)
    assert census.tail == 0 and sum(census.exact) == census.total


# ------------------------------------------------------------------ limits


def test_rank_ge_limit_examples():
    assert rank_ge_limit(2, 1) == Fraction(1, 2)
    assert rank_ge_limit(2, 2) == Fraction(1, 8)
    assert rank_ge_limit(3, 2) == Fraction(1, 81)
    assert all(rank_ge_limit(k, 0) == 1 for k in range(2, 7))


def test_rank_eq_limit_examples():
    assert rank_eq_limit(2, 1) == Fraction(3, 8)
    assert rank_eq_limit(2, 2) == Fraction(15, 128)
    for k in range(2, 7):
        assert rank_eq_limit(k, 0) == 1 - Fraction(1, k)


def test_rank_eq_limit_closed_form_agreement():
    # difference of tails equals the single closed expression
    for k in (2, 3, 4):
        for i in range(5):
            c = c_index(k, i)
            assert rank_eq_limit(k, i) == Fraction(1, k**c) - Fraction(
                1, k ** (k * c + 1)
            )


def test_limit_distribution_invariants():
    dist = limit_distribution(3, 4)
    assert dist.entries[0].c == 0 and dist.entries[0].tail_prob == 1
    for prev, cur in zip(dist.entries, dist.entries[1:]):
        assert cur.c == 3 * prev.c + 1
        assert prev.point_prob == prev.tail_prob - cur.tail_prob
        assert prev.point_prob > 0
    # points telescope: their sum through rank i plus the tail at i+1 is 1
    assert sum(e.point_prob for e in dist.entries) + rank_ge_limit(3, 5) == 1


def test_power_bound_refuses_ranks_just_over_it():
    from phylorank.exactcount import MAX_POWER_BITS, _bounded_c, _point_prob_pair

    # at k=2, k**c_i has c_i = 2^i - 1 bits: rank 25 is the last one under 2^25
    assert MAX_POWER_BITS == 2**25
    assert rank_ge_limit(2, 25).denominator.bit_length() == 2**25
    with pytest.raises(DomainError, match="bits"):
        rank_ge_limit(2, 26)
    for refused in (rank_eq_limit, limit_distribution, _point_prob_pair):
        with pytest.raises(DomainError, match="bits"):
            refused(2, 25)  # each needs k**c_26
    # a huge rank is refused from i and k alone, before any power is formed
    with pytest.raises(DomainError, match="bits"):
        rank_ge_limit(3, 10**12)
    # criterion 8 needs k**c_6 at k=20, about 14.6M bits
    assert _bounded_c(20, 6) == c_index(20, 6)


# ------------------------------------------------------------ log-concavity


def test_log_concavity_over_k_holds_at_rank_zero():
    report = log_concavity_check(0, 20)
    assert report.ok and report.checked == tuple(range(3, 20))


def test_log_concavity_over_k_fails_at_rank_one():
    # exact fact: with P ~ 1/k^c in leading order, the sequence over k is
    # log-convex, so violations appear from k=4 on; the checker must report
    # them (a finding, not an error)
    report = log_concavity_check(1, 20)
    assert not report.ok
    violating_k = [v[0] for v in report.violations]
    assert violating_k == list(range(4, 20))
    k, lhs, rhs = report.violations[0]
    assert k == 4
    assert Fraction(*lhs) == Fraction(255, 1024) ** 2
    assert Fraction(*rhs) == Fraction(26, 81) * Fraction(3124, 15625)
    assert Fraction(*lhs) < Fraction(*rhs)


def test_point_prob_pair_matches_limit():
    from phylorank.exactcount import _point_prob_pair

    for k in (2, 3, 7):
        for i in range(4):
            num, den = _point_prob_pair(k, i)
            assert Fraction(num, den) == rank_eq_limit(k, i)


def test_log_concavity_big_exponents_still_exact():
    report = log_concavity_check(5, 10)  # c_5 exponents get huge; must not crash
    assert report.checked == tuple(range(3, 10))


def test_log_concavity_domain_errors():
    with pytest.raises(DomainError):
        log_concavity_check(-1, 20)
    with pytest.raises(DomainError):
        log_concavity_check(1, 3)


def test_log_concavity_over_ranks_direction_holds():
    # the rank-indexed sequence at fixed k collapses doubly exponentially,
    # so this (exploratory) direction does hold on every tested range
    for k in (2, 3, 7):
        report = log_concavity_over_ranks(k, 6)
        assert report.axis == "rank"
        assert report.checked == tuple(range(1, 6))
        assert report.ok


# ------------------------------------------------------------ negligibility


def test_negligibility_ratio_power_one_closed_form():
    # for k=2 the ratio collapses to 1/(2n-1)
    for n in (3, 5, 9, 33):
        assert negligibility_ratio(2, 1, n) == Fraction(1, 2 * n - 1)


def test_negligibility_ratio_example():
    assert negligibility_ratio(2, 2, 3) == Fraction(2, 5)


def test_negligibility_ratio_vanishing_numerator():
    assert negligibility_ratio(3, 2, 5) == 0  # power 2 misses the lattice


def test_negligibility_ratio_inadmissible_errors():
    with pytest.raises(DomainError):
        negligibility_ratio(3, 2, 4)


def test_negligibility_ratio_decreases():
    values = [negligibility_ratio(2, 2, n) for n in (3, 9, 27, 81)]
    assert all(a > b for a, b in zip(values, values[1:]))


# The two laws, closed products of small ratios, against the routes they
# replace: the table's m_i(n)/m_0(n) and the quotient of coeff_T_pow terms.


@pytest.mark.parametrize("k, fixture", [(2, "big_table_k2"), (3, "table_k3"), (4, "table_k4")])
def test_rank_ge_ratio_matches_the_table(k, fixture, request):
    table = request.getfixturevalue(fixture)
    for n in range(1, table.n_max + 1, k - 1):
        m = [table.rank_ge_count(i, n) for i in range(table._top_rank + 2)]
        assert m[0] == table.total_vertex_count(n)
        assert [rank_ge_ratio(k, i, n) for i in range(len(m))] == [Fraction(x, m[0]) for x in m]


@pytest.mark.parametrize("k, n_max", [(2, 201), (3, 151), (4, 101), (5, 101)])
def test_negligibility_ratio_matches_coeff_T_pow(k, n_max):
    for n in range(1, n_max + 1, k - 1):
        den = (k * internal_vertices(k, n) + 1) * coeff_T_pow(k, 1, n)
        for power in range(1, 12):
            assert negligibility_ratio(k, power, n) == coeff_T_pow(k, power, n) / den


class _Reached(Exception):
    pass


def _reached(*args, **kwargs):
    raise _Reached


def test_laws_refuse_a_product_over_the_power_bound(monkeypatch):
    # m_3/m_0 at k=2, n=1001 has 7 factors up to n+s = 2001: 76.8 bits; the
    # negligibility of T^8 there 7 factors up to 2000, times 2! each: 83.8
    monkeypatch.setattr(exactcount, "perm", _reached)
    for law, args, bits in ((rank_ge_ratio, (2, 3, 1001), 77),
                            (negligibility_ratio, (2, 8, 1001), 84)):
        monkeypatch.setattr(exactcount, "MAX_POWER_BITS", bits - 1)
        with pytest.raises(DomainError, match=f"bound of {bits - 1} bits"):
            law(*args)
        monkeypatch.setattr(exactcount, "MAX_POWER_BITS", bits)
        with pytest.raises(_Reached):
            law(*args)
    # a huge k is refused before k! is formed, a huge rank is 0 before k**i is
    monkeypatch.setattr(exactcount, "factorial", _reached)
    with pytest.raises(DomainError, match="bits"):
        negligibility_ratio(10**9, 10**9, 10**9)
    assert rank_ge_ratio(2, 10**12, 5) == 0


# ---------------------------------------------------- internal consistency


def test_larger_branching_factor_builds_clean():
    table = CountTable(5, 21)
    assert table.tree_count(21) > 0
    assert table.rank_ge_count(1, 21) > 0
    assert table.rank_ge_count(2, 21) == 0  # needs 25 leaves


def test_dual_route_tripwire_fires_on_corruption():
    # white-box: corrupt a forest count and watch the convolution-vs-closed
    # check refuse to build the rank sequence
    table = CountTable(2, 8)
    table._fkm1[3] += 1
    with pytest.raises(ConsistencyError):
        table.rank_ge_count(1, 8)


# Every fault below is injected through one seam: CountTable._closed, the
# builder of every closed sequence, returns the sequence named ``seq`` off by
# ``delta`` at n.  r_1 has no closed form: it is t = g_1 off n = 1, so its
# fault is one in g_1.  The public query that builds a sequence of each kind:
_QUERY = {"g": "forest_count", "r": "root_rank_count", "m": "rank_ge_count"}


def _corrupt(monkeypatch, seq, n, delta=1):
    closed = CountTable._closed
    source = "g_1" if seq == "r_1" else seq

    def corrupt(self, name, *args, **kwargs):
        out = closed(self, name, *args, **kwargs)
        if name == source:
            assert out[n], f"{seq}({n}) is 0 already"
            out[n] = exactcount._EXACT.add(out[n], delta)
        return out

    monkeypatch.setattr(CountTable, "_closed", corrupt)


def test_composition_total_tripwire(monkeypatch):
    # g_k must equal k! r_1, r_1 being t off n = 1, at every n: a corrupt
    # closed t = g_1 at n_max escapes the tower check g_2 = t * t, which
    # reads t below n_max only
    _corrupt(monkeypatch, "g_1", 12)
    with pytest.raises(ConsistencyError, match=r"^root-rank count at n=12: closed form r_1\(12\)"):
        CountTable(2, 12)


def test_forest_tower_check_fires_on_corruption(monkeypatch):
    # k=3: a corrupt closed g_2 leaves the composition totals (g_3 = 3! * t)
    # intact; only the convolution g_2 = g_1 * g_1 can see it
    _corrupt(monkeypatch, "g_2", 6)
    with pytest.raises(ConsistencyError, match="2-forest count at n=6"):
        CountTable(3, 12)


def test_forest_count_checks_the_tower_below_it(monkeypatch):
    # g_5 asked for first: g_3 and g_4 are built and checked on the way up,
    # so the corrupt closed g_5 still meets the convolution t * g_4.  The
    # fault, 5! 2^7 on the reduced value, lifts to 5! 7!, a whole number of
    # unordered 5-forests, so only that check can see it
    _corrupt(monkeypatch, "g_5", 7, factorial(5) * 2**7)
    with pytest.raises(ConsistencyError, match="5-forest count at n=7"):
        CountTable(2, 10).forest_count(5, 7)


def test_root_rank_check_fires_on_corruption(monkeypatch):
    # r_1 is checked at construction, before any query
    _corrupt(monkeypatch, "r_1", 13)
    with pytest.raises(ConsistencyError, match=r"r_1\(13\)"):
        CountTable(3, 13)


# Each closed form corrupted by one at the first n where it is nonzero and at
# n_max: the identity that checks that sequence must name it and the n.


def _check_fires_at_both_ends(monkeypatch, k, seq, idx, n_first, at_end, n_max, what):
    n = n_max if at_end else n_first
    clean = CountTable(k, n_max)
    query = getattr(clean, _QUERY[seq])
    assert query(idx, n) and not any(query(idx, m) for m in range(1, n_first))
    _corrupt(monkeypatch, f"{seq}_{idx}", n)
    with pytest.raises(ConsistencyError, match=rf"{what} at n={n}: .*{seq}_{idx}\({n}\)"):
        getattr(CountTable(k, n_max), _QUERY[seq])(idx, n_max)


@pytest.mark.parametrize("k,j,n_first", [(3, 2, 2), (2, 3, 3)])
@pytest.mark.parametrize("at_end", [False, True], ids=["first_nonzero", "n_max"])
def test_forest_tower_check_covers_both_ends(monkeypatch, k, j, n_first, at_end):
    # (3, 2): g_2 built at construction, below g_k; (2, 3): g_3 = g_{k+1},
    # built by forest_count through the same per-level check
    _check_fires_at_both_ends(monkeypatch, k, "g", j, n_first, at_end, 12, f"{j}-forest count")


@pytest.mark.parametrize("k,i,n_first", [(2, 1, 2), (2, 2, 4), (3, 1, 3)])
@pytest.mark.parametrize("at_end", [False, True], ids=["first_nonzero", "n_max"])
def test_root_rank_check_covers_both_ends(monkeypatch, k, i, n_first, at_end):
    # a fault in t below n_max meets the tower g_2 = t * t first, so the
    # first-nonzero case of r_1 is a table that ends at n_first
    n_max = n_first if i == 1 and not at_end else 13
    _check_fires_at_both_ends(monkeypatch, k, "r", i, n_first, at_end, n_max, "root-rank count")


@pytest.mark.parametrize("k,i,n_first", [(2, 0, 1), (2, 1, 2), (2, 2, 4), (3, 1, 3)])
@pytest.mark.parametrize("at_end", [False, True], ids=["first_nonzero", "n_max"])
def test_rank_ge_check_covers_both_ends(monkeypatch, k, i, n_first, at_end):
    # the stored m_i is the closed form itself, so only this check guards it
    _check_fires_at_both_ends(monkeypatch, k, "m", i, n_first, at_end, 13, "rank-at-least count")


def test_forest_count_builds_the_tower_by_halving(monkeypatch):
    # g_40 needs g_20, g_10, g_5, g_3 and g_2: one checked identity each, not
    # one per level from g_3 up
    calls = []
    check = CountTable._check_identity

    def counting(self, what, *args, **kwargs):
        calls.append(what)
        return check(self, what, *args, **kwargs)

    monkeypatch.setattr(CountTable, "_check_identity", counting)
    table = CountTable(2, 64)
    assert table.forest_count(40, 64) == coeff_T_pow(2, 40, 64) * factorial(64) / factorial(40)
    assert len(calls) <= 12


# The reduced route against the labelled convolution computed term by term.


def _cauchy_product(u, v, upto):
    """w(n) = sum_a u(a) v(n-a) for n <= upto, with u(0) = v(0) = 0, term by
    term in ``_EXACT``: the reference that ``_packed_product`` is held to.

    A square (``u is v``) multiplies each pair of mirror terms once."""
    out = [0] * (upto + 1)
    with localcontext(exactcount._EXACT):
        for n in range(2, upto + 1):
            if u is v:
                half = n // 2
                acc = 2 * sum(map(mul, u[1:n - half], u[n - 1:half:-1]))
                out[n] = acc + u[half] * u[half] if n % 2 == 0 else acc
            else:
                out[n] = sum(map(mul, u[1:n], v[n - 1:0:-1]))
    return out


def _binomial_convolution(u, v, upto):
    """w(n) = sum_a C(n,a) u(a) v(n-a) for n <= upto, with u(0)=v(0)=0."""
    out = [0] * (upto + 1)
    for n in range(2, upto + 1):
        out[n] = sum(comb(n, a) * u[a] * v[n - a] for a in range(1, n))
    return out


def _via_reduction(k, reduced, upto):
    """The labelled convolution as CountTable checks it: the Cauchy product
    of the stored reduced sequences (a factor repeated as the same list takes
    the squaring path), lifted to counts exactly."""
    w = reduce(lambda x, y: _cauchy_product(x, y, upto), reduced)
    out = [0] * (upto + 1)
    for n in range(1, upto + 1):
        q, r = divmod(int(w[n]) * factorial(n), factorial(k) ** n)
        assert r == 0
        out[n] = q
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reduced_product_is_the_labelled_convolution(k):
    n_max = 60
    table = CountTable(k, n_max)
    ns = range(1, n_max + 1)

    def forest(j):  # (stored reduced g_j, public counts g_j)
        return table._forest_tower(j), [0] + [table.forest_count(j, n) * factorial(j) for n in ns]

    def rank(get, query, i):
        return get(i), [0] + [query(i, n) for n in ns]

    f_km1 = table._fkm1, [0] + [table.forest_count(k - 1, n) for n in ns]
    pairs = []
    for j in range(2, 2 * k + 1):
        pairs.append([forest(1), forest(j - 1)])
        pairs.append([forest(j // 2), forest(j - j // 2)])
    for i in range(1, table._top_rank + 1):
        pairs.append([rank(table._get_r, table.root_rank_count, i - 1)] * k)
    for i in range(table._top_rank + 1):
        pairs.append([rank(table._get_m, table.rank_ge_count, i), f_km1])
    for factors in pairs:
        reduced, counts = zip(*factors)
        assert _via_reduction(k, reduced, n_max) == reduce(
            lambda u, v: _binomial_convolution(u, v, n_max), counts
        )


# Each identity fails on either route.  A stored reduced value off by (k-1)!
# (which keeps f_{k-1} = g_{k-1} / (k-1)! exact) is no multiple of
# d = k!^n/gcd(n!, k!^n) at these n, so it does not lift to a count: with the
# identity checks off, the query's lift refuses it.  One off by d lifts to an
# integer, and the identity's comparison must see it.  Each fault is at the
# table's last n, the one n at which only r_1's check reads t.


@pytest.mark.parametrize(
    "k,seq,idx,n",
    [(3, "g", 2, 12), (2, "g", 3, 12), (2, "r", 1, 12), (3, "r", 1, 13), (2, "m", 1, 12), (3, "m", 1, 13)],
)
@pytest.mark.parametrize("route", ["inexact", "product"])
def test_identity_check_fires_on_both_routes(monkeypatch, k, seq, idx, n, route):
    d = factorial(k) ** n // gcd(factorial(n), factorial(k) ** n)
    assert factorial(k - 1) % d
    _corrupt(monkeypatch, f"{seq}_{idx}", n, factorial(k - 1) if route == "inexact" else d)
    if route == "inexact":
        monkeypatch.setattr(CountTable, "_check_identity", lambda *args, **kwargs: None)
    name = rf"{seq}_{idx}\({n}\) = \d+"
    message = f"{name} is no count" if route == "inexact" else f"closed form {name} breaks"
    with pytest.raises(ConsistencyError, match=rf"at n={n}: {message}"):
        table = CountTable(k, n)
        getattr(table, _QUERY[seq])(idx, n)


# The exact law at finite n: the one-term forms of m_i and r_i, divided by
# their i = 0 terms, leave a product of c_i small ratios.


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_exact_finite_n_rank_law(k):
    n_max = 120
    table = CountTable(k, n_max)
    for i in range(5):
        c = c_index(k, i)
        for n in range(1, n_max + 1):
            if not is_admissible(k, n):
                continue
            s = internal_vertices(k, n)
            vertex_law = root_law = Fraction(1)
            for j in range(c):
                if s == j:  # the product is 0 here; ks - j could vanish next
                    vertex_law = root_law = Fraction(0)
                    break
                vertex_law *= Fraction(s - j, k * s + 1 - j)
                root_law *= Fraction(s - j, k * s - j)
            assert Fraction(table.rank_ge_count(i, n), table.total_vertex_count(n)) == vertex_law
            assert Fraction(table.root_rank_count(i, n), table.tree_count(n)) == k**i * root_law


# The paper's polynomial split, the former closed form of m_i: the rank-i
# series is the all-vertex series minus sum_{j<c_i} T^((k-1)j+1)/(k-1)!^j,
# divided by k^(c_i).  Every division is exact.


def _polynomial_split_m(k, i, n):
    c = c_index(k, i)
    acc = Fraction(0)
    if is_admissible(k, n):
        acc += (k * internal_vertices(k, n) + 1) * tree_count_closed(k, n)
    for j in range(c):
        power = (k - 1) * j + 1
        if power > n:
            break
        acc -= coeff_T_pow(k, power, n) * factorial(n) / factorial(k - 1) ** j
    val = acc / k**c
    assert val.denominator == 1 and val >= 0
    return int(val)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_polynomial_split_equals_the_one_term_form(k):
    n_max = 301
    table = CountTable(k, n_max)
    for i in range(5):
        assert [table.rank_ge_count(i, n) for n in range(1, n_max + 1)] == [
            _polynomial_split_m(k, i, n) for n in range(1, n_max + 1)
        ]


@pytest.mark.parametrize("k,i", [(2, 3), (3, 2)])
def test_closed_m_reads_one_forest_count_per_n(monkeypatch, k, i):
    # every m_i(n) reads g_{k^i+1}(n + 1) from one array, built once
    n_max = 40
    table = CountTable(k, n_max)
    table.root_rank_count(i, n_max)  # build r_1..r_i before counting
    calls = []
    forest_counts = exactcount._forest_count_array

    def counting(*args):
        calls.append(args)
        return forest_counts(*args)

    monkeypatch.setattr(exactcount, "_forest_count_array", counting)
    table.rank_ge_count(i, n_max)
    assert calls == [(k, k**i + 1, n_max + 1)]


# The closed g_p arrays are built along n by the exact term ratio; the
# per-n Lagrange form coeff_T_pow is the reference.  m_i(n_max) reads
# g_{k^i+1}(n_max + 1), one term past the table, so both parities of n_max
# are covered.


@pytest.mark.parametrize("n_max", [129, 130])
@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_ratio_built_forms_match_the_lagrange_form(k, n_max):
    table = CountTable(k, n_max)
    for j in range(1, 2 * k + 2):
        expected = [coeff_T_pow(k, j, n) * factorial(n) for n in range(1, n_max + 1)]
        if j <= k:
            assert list(table.ordered_forest_counts(j)[1:]) == expected
        assert [table.forest_count(j, n) * factorial(j) for n in range(1, n_max + 1)] == expected
    for i in range(4):
        kfac_c = factorial(k) ** c_index(k, i)
        r = coeff_T_pow(k, k**i, n_max) * factorial(n_max) / kfac_c
        m = coeff_T_pow(k, k**i + 1, n_max + 1) * factorial(n_max + 1) / ((k**i + 1) * kfac_c)
        assert table.root_rank_count(i, n_max) == r
        assert table.rank_ge_count(i, n_max) == m


@pytest.mark.parametrize("k", [2, 3, 5])
def test_reduced_builder_matches_the_lagrange_form(k):
    # G_p(n) = k!^n [x^n] T^p, the term ratio against the binomial form
    for p in sorted({1, 2, 3, k, k + 1, k * k + 1}):
        built = exactcount._forest_count_array(k, p, 200)
        assert built[0] == 0
        assert built[1:] == [factorial(k) ** n * coeff_T_pow(k, p, n) for n in range(1, 201)]


def test_a_forest_count_past_its_range_forms_no_power(monkeypatch):
    # G_p is 0 below n = p: no factorial, let alone k!^p or k!^(k-2), is
    # formed, so a large k at small n_max costs nothing per g_j
    def refuse(n):
        raise AssertionError(f"{n}! formed")

    monkeypatch.setattr(exactcount, "factorial", refuse)
    assert exactcount._forest_count_array(20_000, 20_000, 1) == [0, 0]
    assert exactcount._forest_count_array(3, 2, 1) == [0, 0]


def test_term_ratio_refuses_an_inexact_step(monkeypatch):
    # rising factorials one factor short at the top: at k=2 each step
    # multiplies by N+1 and divides by s+1 alone, and the step to n=5 is 5 * 7 / 4
    monkeypatch.setattr(exactcount, "prod", lambda xs: prod(list(xs)[:-1]))
    with pytest.raises(ConsistencyError, match=r"G_1\(5\) is no integer"):
        CountTable(2, 10)


def test_table_forms_no_binomial_per_n(monkeypatch):
    # the per-n Lagrange form called comb once per n per sequence
    calls = []

    def counting(*args):
        calls.append(args)
        return comb(*args)

    monkeypatch.setattr(exactcount, "comb", counting)
    CountTable(2, 200).rank_ge_count(2, 200)
    assert len(calls) <= 2


# The packed product against the quadratic reference.  Every product is
# formed by Kronecker substitution in blocks sized from the product;
# _cauchy_product on the ints stays the independent route.  A share of
# 1/NO_GROWTH never grows an operand budget past PACK_DIGITS, so a test that
# sets PACK_DIGITS sets the block size.

NO_GROWTH = 10**9


def _packed(u, v, upto):
    """``_packed_product`` on ``Decimal`` copies of the int sequences u and v;
    a square (``v is u``) stays one list, so it takes the squaring path."""
    x = [Decimal(c) for c in u]
    return exactcount._packed_product(x, x if v is u else [Decimal(c) for c in v], upto)


def _random_sequence(rng, length, digits, zeros=0.0):
    return [0] + [
        0 if rng.random() < zeros else rng.randrange(10 ** rng.randrange(digits + 1))
        for _ in range(length)
    ]


@pytest.mark.parametrize("budget", [1, 20, 45, 100, 1000, None])
@pytest.mark.parametrize("zeros", [0.0, 0.8], ids=["dense", "zero_heavy"])
def test_packed_product_matches_the_quadratic_reference(monkeypatch, budget, zeros):
    # every upto from 0 to 40, so that the product ends just before, at and
    # just after each block boundary; a tiny budget cuts many blocks
    if budget is not None:
        monkeypatch.setattr(exactcount, "PACK_DIGITS", budget)
        monkeypatch.setattr(exactcount, "PACK_SHARE", NO_GROWTH)
    rng = random.Random(f"packed {budget} {zeros}")
    for upto in range(41):
        u = _random_sequence(rng, upto + 3, 25, zeros)
        v = _random_sequence(rng, upto, 25, zeros)
        assert _packed(u, v, upto) == _cauchy_product(u, v, upto)
        assert _packed(u, u, upto) == _cauchy_product(u, u, upto)
    assert _packed([0] * 41, [0] * 41, 40) == [0] * 41
    # all nines: every slot as full as the slot width allows
    nines = [0] + [10**25 - 1] * 40
    assert _packed(nines, nines, 40) == _cauchy_product(nines, nines, 40)
    assert _packed(nines, nines[:], 40) == _cauchy_product(nines, nines, 40)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, None])
@pytest.mark.parametrize(
    "u_digits, v_digits, uptos",
    [(25, 25, range(12, 41)), (25, 26, range(12, 41)), (25, 26, range(101, 111))],
    ids=["D_even", "product_D_odd", "square_D_odd"],
)
def test_packed_product_of_full_slots(monkeypatch, size, u_digits, v_digits, uptos):
    # all nines: from n = 12 on, slot n sums enough terms to need all
    # D = digits(upto) + digits(u) + digits(v) digits, so the 2h-digit
    # windows are full for even D, and h below ceil(D/2) overflows for odd D
    # (the product in the second case, the square in the third).  The budget
    # cuts blocks of exactly ``size`` indices (the default: one block), and
    # upto ends the last block at every offset, so the even and odd slots
    # split at block edges of either parity.
    for upto in uptos:
        u, v = ([0] + [10**digits - 1] * upto for digits in (u_digits, v_digits))
        for x, y in ((u, v), (u, u), (u, u[:])):
            if size is not None:
                h = (len(str(x[1])) + len(str(y[1])) + len(str(upto)) + 1) // 2
                monkeypatch.setattr(exactcount, "PACK_DIGITS", h * (size + 1))
                monkeypatch.setattr(exactcount, "PACK_SHARE", NO_GROWTH)
            assert _packed(x, y, upto) == _cauchy_product(x, y, upto)


@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_packed_product_matches_at_the_crossover(shift):
    rng = random.Random(shift)
    upto = 300 + shift
    u, v = _random_sequence(rng, upto, 40), _random_sequence(rng, upto, 40)
    assert _packed(u, v, upto) == _cauchy_product(u, v, upto)
    assert _packed(u, u, upto) == _cauchy_product(u, u, upto)


def test_packed_product_ignores_the_int_str_digit_limit():
    # 5000-digit coefficients, over CPython's default limit of 4300 digits
    # for str(int) and int(str), which importing render raises for the CLI
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit in this Python")
    rng = random.Random(5000)
    u = [0] + [rng.randrange(10**4999, 10**5000) for _ in range(30)]
    v = [0] + [rng.randrange(10**4999, 10**5000) for _ in range(30)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError):
            str(u[1])
        assert _packed(u, v, 30) == _cauchy_product(u, v, 30)
        assert _packed(u, u, 30) == _cauchy_product(u, u, 30)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("k", [2, 3])
def test_packed_product_of_the_table_sequences(k):
    # the factors of g_2, r_1, r_2, m_1 and m_2, about 300 terms long;
    # at k=3, r_i is a 3-fold product whose second step is no square
    n = 303
    table = CountTable(k, n)
    factors = [[table._g[1]] * 2]
    for i in (1, 2):
        factors.append([table._get_r(i - 1)] * k)
        factors.append([table._get_m(i), table._fkm1])
    for seqs in factors:
        packed = reduce(lambda x, y: exactcount._packed_product(x, y, n), seqs)
        assert packed == reduce(lambda x, y: _cauchy_product(x, y, n), seqs)


@pytest.mark.parametrize(
    "k,seq",
    [(2, "g_2"), (2, "r_3"), (3, "r_3"), (2, "m_1"), (3, "m_1")],
)
@pytest.mark.parametrize("at", ["half", "n_max"])
def test_packed_checks_fail_like_the_quadratic_ones(monkeypatch, k, seq, at):
    # images about 300 terms long; the same fault must fail the packed check
    # at the same n, with the same message, as with _cauchy_product in place
    # of _packed_product.  r_3 is the first r_i whose check forms products
    n_max = (k - 1) * 300 + 3
    n = n_max // 2 if at == "half" else n_max
    _corrupt(monkeypatch, seq, n)

    def failure(product):
        calls = []
        monkeypatch.setattr(
            exactcount, "_packed_product", lambda *args: calls.append(args) or product(*args)
        )
        with pytest.raises(ConsistencyError, match=rf"at n={n}: closed form {seq}\({n}\)") as err:
            table = CountTable(k, n_max)
            getattr(table, _QUERY[seq[0]])(int(seq[2:]), n_max)
        assert calls
        return str(err.value)

    packed = failure(exactcount._packed_product)
    assert failure(_cauchy_product) == packed


# The kernel's slot reads and operand sizes.  Each term's digit count is its
# adjusted() + 1, and each slot is split off its sum by shift and subtract on
# the coefficient, which no int/str digit limit bounds.


def test_slots_are_read_under_the_lowest_digit_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int/str digit limit in this Python")
    # all nines in slots of 2h = 640 and 1280 digits: D = 2 + 319 + 319 and 2 + 639 + 639
    products = [([0] + [10**d - 1] * 20, 20) for d in (319, 639)]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(ValueError):
            int("1" * 641)
        for u, upto in products:
            assert _packed(u, u, upto) == _cauchy_product(u, u, upto)
            assert _packed(u, u[:], upto) == _cauchy_product(u, u, upto)
    finally:
        sys.set_int_max_str_digits(limit)


class _MultiplicationSpy:
    """Stands in for ``exactcount._EXACT``, keeping the digits of each pair
    of operands that ``fma`` multiplies."""

    def __init__(self, context):
        self.context = context
        self.operands = []

    def fma(self, x, y, z):
        self.operands.append((x.adjusted() + 1, y.adjusted() + 1))
        return self.context.fma(x, y, z)

    def __getattr__(self, name):
        return getattr(self.context, name)


@pytest.mark.parametrize("n, pairs", [(701, 1), (1001, 3)], ids=["one_block", "two_blocks"])
def test_packed_product_of_the_table_factors_in_one_and_two_blocks(monkeypatch, n, pairs):
    # the factors of g_2 = r_1 (a square), m_1, r_2 and m_2; the non-square
    # m_1 * f_1 takes one block pair at n = 701 and three at n = 1001
    table = CountTable(2, n)
    factors = [
        [table._t] * 2, [table._get_m(1), table._fkm1],
        [table._get_r(1)] * 2, [table._get_m(2), table._fkm1],
    ]
    for u, v in factors:
        expected = _cauchy_product(u, v, n)  # in _EXACT, so before the spy stands in
        spy = _MultiplicationSpy(exactcount._EXACT)
        monkeypatch.setattr(exactcount, "_EXACT", spy)
        assert exactcount._packed_product(u, v, n) == expected
        monkeypatch.undo()
        if u is table._get_m(1):
            assert len(spy.operands) == 2 * pairs


@pytest.mark.parametrize("n", [701, 1001, 2001])
def test_no_operand_exceeds_the_budget(monkeypatch, request, n):
    # the benchmark's tables, n = 701 and 1001, keep the budget PACK_DIGITS; at
    # n = 2001 it is the least PACK_DIGITS 2^j that holds 1/PACK_SHARE of the
    # one-shot operand (n + 1) h, so below twice that share
    table = request.getfixturevalue("big_table_k2") if n == 2001 else CountTable(2, n)
    products = [(table._get_m(1), table._fkm1)]
    if n < 2001:
        products.append((table._t, table._t))
    for u, v in products:
        spy = _MultiplicationSpy(exactcount._EXACT)
        monkeypatch.setattr(exactcount, "_EXACT", spy)
        exactcount._packed_product(u, v, n)
        monkeypatch.undo()
        biggest = max(max(pair) for pair in spy.operands)
        if n < 2001:
            assert biggest <= exactcount.PACK_DIGITS
            continue
        # the kernel's h: half the digits of the largest slot, u(i) v(i') over i + i' <= n
        nu, nv = ([x.adjusted() + 1 for x in f[:n + 1]] for f in (u, v))
        top = list(accumulate(nv, max))
        h = (max(nu[i] + top[n - i] for i in range(1, n)) + len(str(n)) + 1) // 2
        assert exactcount.PACK_DIGITS < biggest <= 2 * (n + 1) * h // exactcount.PACK_SHARE


def _blocks_of(monkeypatch, size, u, v, upto):
    """Make ``_packed_product(u, v, upto)`` cut blocks of ``size`` indices (None: one block)."""
    if size is not None:
        h = (len(str(max(u))) + len(str(max(v))) + len(str(upto)) + 1) // 2
        monkeypatch.setattr(exactcount, "PACK_DIGITS", h * (size + 1))
        monkeypatch.setattr(exactcount, "PACK_SHARE", NO_GROWTH)


@pytest.mark.parametrize("size", [1, 3, 8, None], ids=["size1", "size3", "size8", "one_block"])
def test_every_product_term_is_an_exponent_0_decimal(monkeypatch, size):
    # shift acts on the coefficient, so a slot is only its digits when every
    # value it is split from has exponent 0
    rng = random.Random(f"exponent {size}")
    for upto in (0, 1, 2, 17, 40):
        u, v = _random_sequence(rng, upto, 25, 0.3), _random_sequence(rng, upto, 25, 0.3)
        for x, y in ((u, v), (u, u)):
            _blocks_of(monkeypatch, size, x, y, upto)
            packed = _packed(x, y, upto)
            assert packed == _cauchy_product(x, y, upto)
            assert all(type(w) is Decimal and w.as_tuple().exponent == 0 for w in packed)


class _SignSpy(_MultiplicationSpy):
    """Also keeps whether either operand of each ``fma`` is negative."""

    def fma(self, x, y, z):
        self.operands.append(x.is_signed() or y.is_signed())
        return self.context.fma(x, y, z)


@pytest.mark.parametrize("size", [2, 4, None], ids=["size2", "size4", "one_block"])
def test_a_negative_minus_point_gives_the_right_product(monkeypatch, size):
    # large terms at even n and small ones at odd n: a block of an even number
    # of rows that starts at an odd index has its top term in O, so O > E, and
    # its value at x = -10^h, E - O 10^h, is negative
    upto = 31
    u = [0] + [10**30 - 7 if n % 2 == 0 else n for n in range(1, upto + 1)]
    v = [0] + [10**20 + n if n % 2 == 0 else 3 for n in range(1, upto + 1)]
    for x, y in ((u, v), (u, u)):
        expected = _cauchy_product(x, y, upto)
        _blocks_of(monkeypatch, size, x, y, upto)
        spy = _SignSpy(exactcount._EXACT)
        monkeypatch.setattr(exactcount, "_EXACT", spy)
        assert _packed(x, y, upto) == expected
        monkeypatch.undo()
        assert any(spy.operands)


@pytest.mark.parametrize("size", [2, 3, 4, 7])
def test_the_digits_above_the_last_slot_are_dropped_at_every_block_edge(monkeypatch, size):
    # all nines, and terms past upto: the blocks that the last rows cut short
    # still multiply out past upto, so a sum of slots holds non-zero digits
    # above its last slot read; upto ends the last block at every offset
    for upto in range(2, 3 * size + 4):
        u = [0] + [10**12 - 1] * (upto + 5)
        v = [0] + [10**9 - 1] * (upto + 5)
        assert any(_cauchy_product(u, v, 2 * upto)[upto + 1:])
        for x, y in ((u, v), (u, u)):
            _blocks_of(monkeypatch, size, x, y, upto)
            assert _packed(x, y, upto) == _cauchy_product(x, y, upto)


# At k >= 3 each check maps its factors onto their residue class of n modulo
# k - 1 before multiplying; a factor non-zero off its class is refused.


@pytest.mark.parametrize("route", ["packed", "quadratic"])
@pytest.mark.parametrize("at", ["half", "n_max"])
def test_a_factor_off_its_residue_class_is_refused(monkeypatch, route, at):
    n_max = 603  # k = 3: images about 300 terms long
    n = n_max // 2 if at == "half" else n_max
    product, calls = exactcount._packed_product if route == "packed" else _cauchy_product, []
    monkeypatch.setattr(
        exactcount, "_packed_product", lambda *args: calls.append(args) or product(*args)
    )
    table = CountTable(3, n_max)  # f_2 is non-zero at even n only; g_2 took the route
    assert calls and table._fkm1[n] == 0 and n % 2
    table._fkm1[n] = 1
    with pytest.raises(
        ConsistencyError, match=rf"^rank-at-least count at n={n}: f_2\({n}\) = 1 lies off"
    ):
        table.rank_ge_count(1, n_max)


@pytest.mark.parametrize("k", [4, 5])
@pytest.mark.parametrize("route", ["packed", "quadratic"])
def test_residue_class_images_pass_every_identity(monkeypatch, k, route):
    # r_3 is a k-fold product; g_5 = g_2 * g_3 multiplies two classes.  The
    # quadratic route puts _cauchy_product in place of _packed_product
    n = 503
    if route == "quadratic":
        monkeypatch.setattr(exactcount, "_packed_product", _cauchy_product)
    table = CountTable(k, n)
    for i in (1, 2, 3):
        table.root_rank_count(i, n)
        table.rank_ge_count(i, n)
    table.forest_count(5, n)


def test_k2_products_run_on_the_stored_lists(monkeypatch):
    # at k = 2 every n is on the class: an image is [0] and the stored terms
    # from the first non-zero one on, the terms themselves, not copies
    calls = []
    product = exactcount._packed_product
    monkeypatch.setattr(
        exactcount, "_packed_product", lambda u, v, upto: calls.append((u, v)) or product(u, v, upto)
    )
    table = CountTable(2, 30)
    table.rank_ge_count(1, 30)
    (t, t_again), (m_1, f_1) = calls  # g_2's one square, then m_1; r_1 forms none
    assert t is t_again
    for image, stored in ((t, table._t), (m_1, table._get_m(1)), (f_1, table._fkm1)):
        lo = next(n for n, x in enumerate(stored) if x)
        assert image[0] == 0 and len(image) == len(stored) - lo + 1
        assert all(x is y for x, y in zip(image[1:], stored[lo:]))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_root_rank_one_forms_no_product(monkeypatch, k):
    # r_1 is t off n = 1, checked against g_k at construction with no
    # product; k! r_2 = r_1^{*k} is the binomial sum of the checked g_j, no
    # product either; k! r_3 = r_2^{*k} still takes its k - 1 products
    n_max = k**3 + 1
    table = CountTable(k, n_max)
    calls, spied = [], exactcount._packed_product
    monkeypatch.setattr(exactcount, "_packed_product",
                        lambda *args: calls.append(args) or spied(*args))
    table.root_rank_count(1, n_max)
    table.root_rank_count(2, n_max)
    assert calls == []
    table.root_rank_count(3, n_max)
    assert len(calls) == k - 1


def test_r_2_and_r_1_form_no_product_beside_the_m_checks(monkeypatch):
    # the benchmark's queries on CountTable(2, 701): construction squares t
    # for g_2 once; r_1 and r_2 then form no product, m_1 and m_2 one each
    calls, spied = [], exactcount._packed_product
    monkeypatch.setattr(exactcount, "_packed_product",
                        lambda *args: calls.append(args) or spied(*args))
    table = CountTable(2, 701)
    made = [len(calls)]
    for query, i in [(table.root_rank_count, 1), (table.rank_ge_count, 1),
                     (table.root_rank_count, 2), (table.rank_ge_count, 2)]:
        query(i, 701)
        made.append(len(calls) - sum(made))
    assert made == [1, 0, 1, 0, 1]


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_r_1_power_is_the_k_fold_cauchy_power(k):
    # R_1 = T - x: the binomial sum of C(k, j) (-k!)^j G_{k-j}(n - j) is
    # r_1^{*k} term by term, the terms from n = k to k^2 - 1 cancelling to 0
    n_max = 120
    table = CountTable(k, n_max)
    power = reduce(lambda x, y: _cauchy_product(x, y, n_max), [table._get_r(1)] * k)
    assert table._r_1_power() == power
    assert not any(power[:k * k]) and power[k * k]


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("at", ["half", "n_max"])
def test_a_fault_in_r_2_meets_the_binomial_sum(monkeypatch, k, at):
    # +1 on the closed r_2 at about n_max/2 or at n_max: the message is the one
    # the k-fold product route gave, its right side r_1^{*k} by _cauchy_product
    n_max = (k - 1) * 100 + 1
    n = 1 + (k - 1) * 50 if at == "half" else n_max
    clean = CountTable(k, n_max)
    closed = exactcount._EXACT.add(clean._get_r(2)[n], 1)
    power = reduce(lambda x, y: _cauchy_product(x, y, n_max), [clean._get_r(1)] * k)
    left = exactcount._EXACT.multiply(closed, factorial(k))
    _corrupt(monkeypatch, "r_2", n)
    with pytest.raises(ConsistencyError) as err:
        CountTable(k, n_max).root_rank_count(2, n_max)
    assert str(err.value) == (
        f"root-rank count at n={n}: closed form r_2({n}) = {closed} breaks its "
        f"convolution identity ({left} != {power[n]}, all reduced)"
    )


@pytest.mark.parametrize("k", [2, 3, 4])
def test_root_rank_one_builds_no_closed_form(monkeypatch, k):
    # r_1 is stored at construction: its queries build no sequence
    table = CountTable(k, 31)
    closed, built = CountTable._closed, []
    monkeypatch.setattr(
        CountTable, "_closed", lambda self, name, *a: built.append(name) or closed(self, name, *a)
    )
    expected = [coeff_T_pow(k, k, n) * factorial(n) / factorial(k) for n in range(1, 32)]
    assert [table.root_rank_count(1, n) for n in range(1, 32)] == expected
    assert built == []


@pytest.mark.parametrize("k", [2, 3, 4])
def test_a_fault_in_t_at_n_max_is_refused_as_r_1(monkeypatch, k):
    # the tower reads t below n_max only; k! r_1 = g_k reads it at n_max too,
    # at construction
    _corrupt(monkeypatch, "g_1", 13)
    with pytest.raises(ConsistencyError, match=r"^root-rank count at n=13: closed form r_1\(13\)"):
        CountTable(k, 13)


# Every reduced term is an exact Decimal integer, and all arithmetic on the
# terms runs in exactcount._EXACT, whatever the thread's context.


@pytest.mark.parametrize("k,n", [(2, 701), (3, 601), (4, 301)])
def test_a_rounding_thread_context_changes_no_value(k, n):
    expected = CountTable(k, n).rank_census(n, 3)
    with localcontext() as context:
        context.prec = 10
        context.traps[Inexact] = True
        assert CountTable(k, n).rank_census(n, 3) == expected


def test_a_term_that_would_round_is_refused(monkeypatch):
    narrow = exactcount._EXACT.copy()
    narrow.prec = 50
    monkeypatch.setattr(exactcount, "_EXACT", narrow)
    closed, built = CountTable._closed, []

    def recording(self, name, *args, **kwargs):
        out = closed(self, name, *args, **kwargs)
        built.append(name)
        return out

    monkeypatch.setattr(CountTable, "_closed", recording)
    with pytest.raises((Rounded, Inexact)):
        CountTable(2, 301)
    assert built == []


@pytest.mark.parametrize("k", [2, 3])
def test_every_stored_term_is_a_decimal_integer(k):
    table = CountTable(k, 64)
    for i in (1, 2):
        table.root_rank_count(i, 64)
        table.rank_ge_count(i, 64)
    assert set(table._r) == {0, 1, 2} and set(table._m) == {1, 2}
    stored = [*table._g.values(), table._fkm1, *table._r.values(), *table._m.values()]
    for seq in stored:
        assert all(type(x) is Decimal and x.as_tuple().exponent == 0 for x in seq)
