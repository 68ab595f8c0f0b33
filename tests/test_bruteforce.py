import hashlib
from collections import Counter
from itertools import islice
from math import comb

import pytest

from phylorank import bruteforce, exactcount
from phylorank.errors import DomainError
from phylorank.exactcount import CountTable, is_admissible, tree_count_closed
from phylorank.treecore import census_of, rank_of, to_newick

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


def test_arguments_checked_when_called():
    # no next(): the errors come before the stream is returned
    for args in [(1, 3), (2, 0), (2, True), (2, 12)]:
        with pytest.raises(DomainError):
            bruteforce.enumerate_all(*args)
    with pytest.raises(DomainError, match="cap"):
        bruteforce.enumerate_all(2, 5, cap=10)
    with pytest.raises(DomainError):
        bruteforce.enumerate_all(2, 5, cap=None)
    # the stored subtrees grow with the trees, so the cap cannot be raised
    with pytest.raises(DomainError, match="largest allowed"):
        bruteforce.enumerate_all(2, 5, cap=bruteforce.DEFAULT_CAP + 1)


def test_cap_enforced():
    # t_{2,12} = 13749310575 blows the default cap
    with pytest.raises(DomainError, match="cap"):
        next(iter(bruteforce.enumerate_all(2, 12)))
    # a custom tiny cap trips early
    with pytest.raises(DomainError, match="cap"):
        next(iter(bruteforce.enumerate_all(2, 5, cap=10)))


def test_a_cap_of_zero_admits_no_tree():
    # t(1) = 1: the one tree on {1} is over a cap of 0
    message = "enumeration at k=2, n=1 exceeds the safety cap 0: 1 trees on 1 labels"
    with pytest.raises(DomainError) as err:
        bruteforce.enumerate_all(2, 1, cap=0)
    assert str(err.value) == message
    with pytest.raises(DomainError, match="1 trees on 1 labels"):
        bruteforce.require_within_cap(3, 7, 0)
    # a cap of 1 still admits it, and the 3 trees on {1,2,3} are over it
    assert [tree.n_leaves for tree in bruteforce.enumerate_all(2, 1, cap=1)] == [1]
    with pytest.raises(DomainError, match="cap 1: 3 trees on 3 labels"):
        bruteforce.require_within_cap(2, 3, 1)


def test_cap_check_forms_no_large_factorial(monkeypatch):
    real = exactcount.factorial

    def small_only(m):
        if m > 10**4:
            raise AssertionError(f"factorial({m}) formed")
        return real(m)

    monkeypatch.setattr(exactcount, "factorial", small_only)
    monkeypatch.setattr(bruteforce, "factorial", small_only, raising=False)
    # t climbs from n = 1 and is over the cap by n = 10 (k=2) and n = 13 (k=3)
    for k, n in [(2, 10**9), (3, 10**9 + 1), (2, 10**4 + 1)]:
        with pytest.raises(DomainError, match="cap"):
            bruteforce.enumerate_all(k, n)
    # inadmissible: no trees, no factorial, and no partition of the labels
    real_blocks = bruteforce._admissible_blocks

    def few_labels(labels, k):
        if len(labels) > 10**4:
            raise AssertionError(f"partitions of {len(labels)} labels tried")
        return real_blocks(labels, k)

    monkeypatch.setattr(bruteforce, "_admissible_blocks", few_labels)
    assert tree_count_closed(3, 10**9) == 0
    assert list(bruteforce.enumerate_all(3, 10**6)) == []


def test_root_block_is_streamed(monkeypatch):
    calls = 0
    real = bruteforce.internal

    def counting(children):
        nonlocal calls
        calls += 1
        return real(children)

    monkeypatch.setattr(bruteforce, "internal", counting)
    # the first root partition is {1} beside {2..8}: its first tree needs the
    # stored trees on {3..8} (945 and their subtrees), not all 10,395 on {2..8}
    next(bruteforce.enumerate_all(2, 8))
    assert calls < tree_count_closed(2, 7)


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


@pytest.mark.parametrize("k", [2, 3, 4])
def test_tallied_census_matches_a_walk_of_every_tree(k):
    # census_of walks each tree's vertices: the reference the tallies must match
    for n in range(1, 8):
        trees = list(bruteforce.enumerate_all(k, n))
        walked = [census_of(tree, 3) for tree in trees]
        census, roots = bruteforce.brute_census_with_roots(k, n, 3)
        assert (census.exact, census.tail, census.total) == (
            tuple(map(sum, zip(*(c.exact for c in walked)))),
            sum(c.tail for c in walked), sum(c.total for c in walked))
        by_root = Counter(tree.root.rank for tree in trees)
        assert roots.exact == (tuple(by_root[i] for i in range(4)) if trees else ())
        assert roots.total == len(trees)


def test_a_corrupted_tally_shows_in_the_census(monkeypatch):
    # one vertex of rank 0 too many in the tally of the first stored tree on
    # {1,2,3}; at n = 5 three trees hold it, as many as the trees on it, 4 and 5
    real = bruteforce._stored

    def stored(block, *rest):
        trees, tallies = real(block, *rest)
        return (trees, (tallies[0] + 1, *tallies[1:])) if block == (1, 2, 3) else (trees, tallies)

    monkeypatch.setattr(bruteforce, "_stored", stored)
    brute, table = bruteforce.brute_census(2, 5, 3), CountTable(2, 5).rank_census(5, 3)
    assert brute != table
    assert (brute.exact[0], brute.exact[1:], brute.total) == (
        table.exact[0] + 3, table.exact[1:], table.total + 3)
    assert bruteforce.brute_census(2, 4, 3) == CountTable(2, 4).rank_census(4, 3)  # streamed at n = 4


# sha256 of the Newick stream, one tree per line, recorded before subtrees
# were stored: `verify --dump-newick` and the support lists of test_remy.py
# and test_recursive.py depend on this order
STREAM_SHA256 = {
    (2, 7): "06ada4ceaae43034ba2e351164bf7a2fce61ddb85818a45b1a2373785d6fd7f2",
    (3, 9): "90b91b4383a9ad9b73732753b17cd0a227264d8348be4ab2c8250926aeae20a7",
    (4, 10): "6cc427029d1d04a3b1e75b2e8b2dc0d13316f894880aa171373c105eb6a1cb26",
}


@pytest.mark.parametrize("k,n", sorted(STREAM_SHA256))
def test_stream_order_is_pinned(k, n):
    digest = hashlib.sha256()
    for tree in bruteforce.enumerate_all(k, n):
        digest.update(to_newick(tree).encode() + b"\n")
    assert digest.hexdigest() == STREAM_SHA256[k, n]


def test_each_subtree_is_built_once(monkeypatch):
    calls = 0
    real = bruteforce.internal

    def counting(children):
        nonlocal calls
        calls += 1
        return real(children)

    monkeypatch.setattr(bruteforce, "internal", counting)
    assert sum(1 for _ in bruteforce.enumerate_all(3, 9)) == tree_count_closed(3, 9)
    # one call per root, plus one per tree on each proper subset of more than one label
    expected = tree_count_closed(3, 9) + sum(
        comb(9, m) * tree_count_closed(3, m) for m in range(2, 9) if is_admissible(3, m)
    )
    assert calls == expected == 26_824
    # the census builds the same trees, each once, and reads their roots
    calls = 0
    census, roots = bruteforce.brute_census_with_roots(3, 9, 3)
    assert calls == expected and roots.total == tree_count_closed(3, 9)


def test_shared_subtrees_belong_to_every_tree_that_holds_them():
    trees = list(islice(bruteforce.enumerate_all(2, 6), 20))
    a = trees[0]
    inner = {id(v): v for v in a.vertices() if not v.is_leaf and v is not a.root}
    b = next(t for t in trees[1:] if inner.keys() & {id(v) for v in t.vertices()})
    for v in b.vertices():
        if id(v) in inner:
            assert rank_of(a, v) == rank_of(b, v) == v.rank
    with pytest.raises(DomainError, match="does not belong"):
        rank_of(b, a.root)
    with pytest.raises(DomainError, match="does not belong"):
        rank_of(a, b.root)
