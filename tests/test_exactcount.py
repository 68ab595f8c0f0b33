import tracemalloc
from fractions import Fraction
from functools import reduce
from math import comb, factorial, gcd

import pytest

from phylorank import bruteforce, exactcount
from phylorank.errors import ConsistencyError, DomainError, TableCoverageError
from phylorank.exactcount import (
    CountTable,
    _cauchy_product,
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


def test_verify_to_does_not_change_values():
    for k in (2, 3):
        full = CountTable(k, 40)
        partial = CountTable(k, 40, verify_to=10)
        for n in range(1, 41):
            assert full.tree_count(n) == partial.tree_count(n)
            for j in range(1, k + 3):
                assert full.forest_count(j, n) == partial.forest_count(j, n)
            for i in range(4):
                assert full.root_rank_count(i, n) == partial.root_rank_count(i, n)
                assert full.rank_ge_count(i, n) == partial.rank_ge_count(i, n)


@pytest.mark.parametrize("verify_to", [2.5, "3", True, False, 0, -1])
def test_verify_to_must_be_a_positive_integer(verify_to):
    with pytest.raises(DomainError, match="verify_to"):
        CountTable(2, 10, verify_to=verify_to)


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
    ],
    ids=["forest_count", "ordered_forest_counts", "coeff_T_pow", "negligibility", "over_ranks"],
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


def test_composition_total_tripwire(monkeypatch):
    # g_k must equal k! * t at every n, also above verify_to: a table whose
    # closed g_k is corrupt there refuses to build
    closed = CountTable._closed_g_array

    def corrupt(self, j):
        arr = closed(self, j)
        if j == self.k:
            arr[6] += 1
        return arr

    monkeypatch.setattr(CountTable, "_closed_g_array", corrupt)
    with pytest.raises(ConsistencyError, match="n=6"):
        CountTable(2, 12, verify_to=3)


def test_forest_tower_check_fires_on_corruption(monkeypatch):
    # k=3: a corrupt closed g_2 leaves the composition totals (g_3 = 3! * t)
    # intact; only the convolution g_2 = g_1 * g_1 can see it
    closed = CountTable._closed_g_array

    def corrupt(self, j):
        arr = closed(self, j)
        if j == 2:
            arr[6] += 1
        return arr

    monkeypatch.setattr(CountTable, "_closed_g_array", corrupt)
    with pytest.raises(ConsistencyError, match="2-forest count at n=6"):
        CountTable(3, 12)


def test_forest_count_checks_the_tower_below_it(monkeypatch):
    # g_5 asked for first: g_3 and g_4 are built and checked on the way up,
    # so the corrupt closed g_5 still meets the convolution t * g_4
    closed = CountTable._closed_g_array

    def corrupt(self, j):
        arr = closed(self, j)
        if j == 5:
            arr[7] += factorial(5)
        return arr

    monkeypatch.setattr(CountTable, "_closed_g_array", corrupt)
    with pytest.raises(ConsistencyError, match="5-forest count at n=7"):
        CountTable(2, 10).forest_count(5, 7)


def test_root_rank_check_fires_on_corruption(monkeypatch):
    closed = CountTable._closed_r

    def corrupt(self, i, n):
        return closed(self, i, n) + (i == 1 and n == 6)

    monkeypatch.setattr(CountTable, "_closed_r", corrupt)
    table = CountTable(2, 12)
    with pytest.raises(ConsistencyError, match=r"r_1\(6\)"):
        table.root_rank_count(1, 12)


# Each closed form corrupted by one at the first n where it is nonzero and at
# n_max: the identity that checks that sequence must name it and the n.


@pytest.mark.parametrize("k,j,n_first", [(3, 2, 2), (2, 3, 3)])
@pytest.mark.parametrize("at_end", [False, True], ids=["first_nonzero", "n_max"])
def test_forest_tower_check_covers_both_ends(monkeypatch, k, j, n_first, at_end):
    # (3, 2): g_2 built at construction, below g_k; (2, 3): g_3 = g_{k+1},
    # built by forest_count through the same per-level check
    n_max = 12
    n = n_max if at_end else n_first
    closed = CountTable._closed_g_array

    def corrupt(self, h):
        arr = closed(self, h)
        if h == j:
            assert arr[n] and not any(arr[:n_first])
            arr[n] += 1
        return arr

    monkeypatch.setattr(CountTable, "_closed_g_array", corrupt)
    with pytest.raises(ConsistencyError, match=rf"{j}-forest count at n={n}: .*g_{j}\({n}\)"):
        CountTable(k, n_max).forest_count(j, n_max)


@pytest.mark.parametrize("k,i,n_first", [(2, 1, 2), (2, 2, 4), (3, 1, 3)])
@pytest.mark.parametrize("at_end", [False, True], ids=["first_nonzero", "n_max"])
def test_root_rank_check_covers_both_ends(monkeypatch, k, i, n_first, at_end):
    n_max = 13
    n = n_max if at_end else n_first
    closed = CountTable._closed_r

    def corrupt(self, h, m):
        return closed(self, h, m) + (h == i and m == n)

    monkeypatch.setattr(CountTable, "_closed_r", corrupt)
    table = CountTable(k, n_max)
    assert closed(table, i, n) and not closed(table, i, n_first - 1)
    with pytest.raises(ConsistencyError, match=rf"at n={n}: .*r_{i}\({n}\)"):
        table.root_rank_count(i, n_max)


@pytest.mark.parametrize("k,i,n_first", [(2, 0, 1), (2, 1, 2), (2, 2, 4), (3, 1, 3)])
@pytest.mark.parametrize("at_end", [False, True], ids=["first_nonzero", "n_max"])
def test_rank_ge_check_covers_both_ends(monkeypatch, k, i, n_first, at_end):
    # the stored m_i is the closed form itself, so only this check guards it;
    # verify_to does not shorten it
    n_max = 13
    n = n_max if at_end else n_first
    closed = CountTable._closed_m

    def corrupt(self, h, m):
        return closed(self, h, m) + (h == i and m == n)

    monkeypatch.setattr(CountTable, "_closed_m", corrupt)
    table = CountTable(k, n_max, verify_to=1)
    assert closed(table, i, n) and (n_first == 1 or not closed(table, i, n_first - 1))
    with pytest.raises(ConsistencyError, match=rf"at n={n}: .*m_{i}\({n}\)"):
        table.rank_ge_count(i, n_max)


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


def _binomial_convolution(u, v, upto):
    """w(n) = sum_a C(n,a) u(a) v(n-a) for n <= upto, with u(0)=v(0)=0."""
    out = [0] * (upto + 1)
    for n in range(2, upto + 1):
        out[n] = sum(comb(n, a) * u[a] * v[n - a] for a in range(1, n))
    return out


def _via_reduction(table, factors, upto):
    """The labelled convolution of ``factors`` as CountTable checks it: a
    Cauchy product of reduced sequences (one list per distinct factor, so a
    repeated factor takes the squaring path), mapped back to counts exactly."""
    reduced = {id(f): table._reduced("test", "f", f, upto) for f in factors}
    w = reduce(lambda x, y: _cauchy_product(x, y, upto), [reduced[id(f)] for f in factors])
    out = [0] * (upto + 1)
    for n in range(1, upto + 1):
        q, r = divmod(w[n] * factorial(n), factorial(table.k) ** n)
        assert r == 0
        out[n] = q
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_reduced_product_is_the_labelled_convolution(k):
    n_max = 60
    table = CountTable(k, n_max)
    t = table._forest_tower(1)
    pairs = []
    for j in range(2, 2 * k + 1):
        pairs.append([t, table._forest_tower(j - 1)])
        pairs.append([table._forest_tower(j // 2), table._forest_tower(j - j // 2)])
    for i in range(1, table._top_rank + 1):
        pairs.append([table._get_r(i - 1)] * k)
    for i in range(table._top_rank + 1):
        pairs.append([table._get_m(i), table._fkm1])
    for factors in pairs:
        assert _via_reduction(table, factors, n_max) == reduce(
            lambda u, v: _binomial_convolution(u, v, n_max), factors
        )


# Each identity fails on either route: a corruption by 1 is no multiple of
# n!/gcd(n!, k!^n) (> 1 at these n), so its reduction is inexact; one by that
# multiple reduces to an integer, and the product comparison must see it.


@pytest.mark.parametrize(
    "k,seq,idx,n",
    [(3, "g", 2, 12), (2, "g", 3, 12), (2, "r", 1, 12), (3, "r", 1, 13), (2, "m", 1, 12), (3, "m", 1, 13)],
)
@pytest.mark.parametrize("route", ["inexact", "product"])
def test_identity_check_fires_on_both_routes(monkeypatch, k, seq, idx, n, route):
    d = factorial(n) // gcd(factorial(n), factorial(k) ** n)
    assert d > 1
    delta = 1 if route == "inexact" else d
    if seq == "g":
        closed_g = CountTable._closed_g_array

        def corrupt_g(self, j):
            arr = closed_g(self, j)
            if j == idx:
                assert arr[n]
                arr[n] += delta
            return arr

        monkeypatch.setattr(CountTable, "_closed_g_array", corrupt_g)
    else:
        closed = getattr(CountTable, f"_closed_{seq}")

        def corrupt(self, i, m):
            return closed(self, i, m) + delta * (i == idx and m == n)

        monkeypatch.setattr(CountTable, f"_closed_{seq}", corrupt)
    name = rf"{seq}_{idx}\({n}\) = \d+"
    message = f"{name} is no count" if route == "inexact" else f"closed form {name} breaks"
    with pytest.raises(ConsistencyError, match=rf"at n={n}: {message}"):
        table = CountTable(k, 13)
        query = {"g": table.forest_count, "r": table.root_rank_count, "m": table.rank_ge_count}
        query[seq](idx, 13)


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
    n_max = 40
    table = CountTable(k, n_max)
    table.root_rank_count(i, n_max)  # build r_1..r_i before counting
    calls = []
    closed_g = CountTable._closed_g

    def counting(self, j, n):
        calls.append((j, n))
        return closed_g(self, j, n)

    monkeypatch.setattr(CountTable, "_closed_g", counting)
    table.rank_ge_count(i, n_max)
    assert calls == [(k**i + 1, n + 1) for n in range(1, n_max + 1)]


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
    assert not table._closed  # each g_p array is dropped once r_i or m_i is formed


def test_term_ratio_refuses_an_inexact_step(monkeypatch):
    # a wrong k! (3 for k=2) makes the first step 1 * (1*2) / 3
    monkeypatch.setattr(exactcount, "factorial", lambda m: 3 if m == 2 else factorial(m))
    with pytest.raises(ConsistencyError, match=r"g_1\(2\) is no integer"):
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
