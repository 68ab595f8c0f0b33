import pytest

from phylorank import bruteforce
from phylorank.errors import DomainError
from phylorank.exactcount import CountTable, tree_count_closed
from phylorank.treecore import to_newick

FIGURE_ONE = {"((1,2),3);", "((1,3),2);", "((2,3),1);"}

# frozen by running this enumerator; cross-checked against the double factorial
# (2n-3)!! for k=2 and against the closed form for k=3
COUNTS_K2 = {1: 1, 2: 1, 3: 3, 4: 15, 5: 105, 6: 945, 7: 10395}
COUNTS_K3 = {1: 1, 2: 0, 3: 1, 4: 0, 5: 10, 7: 280}


def test_three_trees_on_three_leaves():
    assert {to_newick(t) for t in bruteforce.enumerate_all(2, 3)} == FIGURE_ONE


@pytest.mark.parametrize("n,expected", sorted(COUNTS_K2.items()))
def test_counts_k2(n, expected):
    assert sum(1 for _ in bruteforce.enumerate_all(2, n)) == expected
    assert tree_count_closed(2, n) == expected


@pytest.mark.parametrize("n,expected", sorted(COUNTS_K3.items()))
def test_counts_k3(n, expected):
    assert sum(1 for _ in bruteforce.enumerate_all(3, n)) == expected
    assert tree_count_closed(3, n) == expected


def test_double_factorial_identity_k2():
    for n in range(2, 8):
        df = 1
        for odd in range(1, 2 * n - 2, 2):
            df *= odd
        assert tree_count_closed(2, n) == df


def test_no_duplicates():
    for k, n in [(2, 6), (3, 7), (4, 7)]:
        newicks = [to_newick(t) for t in bruteforce.enumerate_all(k, n)]
        assert len(newicks) == len(set(newicks))


def test_inadmissible_gives_empty_stream():
    assert list(bruteforce.enumerate_all(3, 4)) == []
    assert list(bruteforce.enumerate_all(4, 5)) == []


def test_every_enumerated_tree_is_valid():
    from phylorank.treecore import validate

    for tree in bruteforce.enumerate_all(3, 7):
        assert validate(tree) is None
        assert sorted(tree.leaf_labels()) == list(range(1, 8))


def test_domain_errors():
    with pytest.raises(DomainError):
        list(bruteforce.enumerate_all(1, 3))
    with pytest.raises(DomainError):
        list(bruteforce.enumerate_all(2, 0))


def test_cap_enforced():
    # t_{2,12} = 13749310575 blows the default cap
    with pytest.raises(DomainError, match="cap"):
        next(iter(bruteforce.enumerate_all(2, 12)))
    # a custom tiny cap trips early
    with pytest.raises(DomainError, match="cap"):
        next(iter(bruteforce.enumerate_all(2, 5, cap=10)))


def test_brute_census_figures():
    c = bruteforce.brute_census(2, 3, max_rank=2)
    assert (c.total, c.count_rank_ge(1), c.count_rank_ge(2)) == (15, 6, 0)
    c = bruteforce.brute_census(2, 4, max_rank=2)
    assert (c.total, c.count_rank_ge(1), c.count_rank_ge(2)) == (105, 45, 3)
    c = bruteforce.brute_census(3, 5, max_rank=2)
    assert (c.total, c.count_rank_ge(1), c.count_rank_ge(2)) == (70, 20, 0)


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in (2, 3) for n in range(1, 8)] + [(4, 7)]
)
def test_brute_census_matches_exact_table(k, n):
    # one comparison covers counts, ratios, tail and total, admissible n or not
    assert bruteforce.brute_census(k, n, max_rank=3) == CountTable(k, n).rank_census(n, 3)
