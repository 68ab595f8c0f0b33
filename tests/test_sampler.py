from collections import Counter

import pytest

from phylorank.errors import ConsistencyError, DomainError, TableCoverageError
from phylorank.exactcount import CountTable
from phylorank.sampler import sample_batch
from phylorank.treecore import to_newick, validate

FIGURE_ONE = {"((1,2),3);", "((1,3),2);", "((2,3),1);"}


@pytest.fixture(scope="module")
def table():
    return CountTable(2, 40)


def test_single_leaf(table):
    (tree,) = sample_batch(2, 1, 1, base_seed=5, table=table)
    assert to_newick(tree) == "1;"


def test_n3_support(table):
    for tree in sample_batch(2, 3, 30, base_seed=5, table=table):
        assert to_newick(tree) in FIGURE_ONE


def test_batch_reproducible(table):
    first = [to_newick(t) for t in sample_batch(2, 9, 5, base_seed=123, table=table)]
    again = [to_newick(t) for t in sample_batch(2, 9, 5, base_seed=123, table=table)]
    assert first == again
    # different sample indices generally give different trees at this size
    assert len(set(first)) > 1


def test_batch_prefix_determinism(table):
    # sample j depends only on (base_seed, j): a batch's first m trees are
    # the batch of count m
    long = [to_newick(t) for t in sample_batch(2, 9, 8, base_seed=4, table=table)]
    for m in (1, 4, 8):
        assert [to_newick(t) for t in sample_batch(2, 9, m, base_seed=4, table=table)] == long[:m]


def test_batch_empty(table):
    assert list(sample_batch(2, 5, 0, base_seed=1, table=table)) == []


def test_batch_builds_table_when_missing():
    trees = list(sample_batch(3, 7, 4, base_seed=2))
    assert len(trees) == 4
    for t in trees:
        assert validate(t) is None


def test_samples_are_valid_trees(table):
    for t in sample_batch(2, 33, 25, base_seed=0, table=table):
        assert validate(t) is None
        assert sorted(t.leaf_labels()) == list(range(1, 34))
        assert t.n_vertices == 2 * 33 - 1


def test_samples_are_valid_ternary():
    table3 = CountTable(3, 15)
    for t in sample_batch(3, 15, 25, base_seed=0, table=table3):
        assert validate(t) is None
        assert t.n_vertices == 3 * 7 + 1


def test_every_support_tree_reachable(table):
    # 15 trees at n=4; 600 draws miss one with prob ~ (14/15)^600 ~ 1e-18
    seen = Counter(to_newick(t) for t in sample_batch(2, 4, 600, base_seed=13, table=table))
    assert len(seen) == 15
    assert min(seen.values()) > 10


def test_inadmissible_rejected(table):
    with pytest.raises(DomainError):
        list(sample_batch(3, 4, 1, base_seed=1, table=CountTable(3, 8)))
    with pytest.raises(DomainError):
        list(sample_batch(3, 4, 2, base_seed=1))


def test_table_too_small(table):
    with pytest.raises(TableCoverageError):
        list(sample_batch(2, 99, 1, base_seed=1, table=table))


def test_k_mismatch(table):
    with pytest.raises(DomainError, match="k=2"):
        list(sample_batch(3, 7, 1, base_seed=1, table=table))


def test_bad_arguments(table):
    with pytest.raises(DomainError):
        list(sample_batch(2, 5, -1, base_seed=1, table=table))


def test_composition_total_tripwire(monkeypatch):
    # the sampler's weights g_k must sum to k! * t at every n, also above
    # verify_to: a table whose closed g_k is corrupt there refuses to build
    closed = CountTable._closed_g_array

    def corrupt(self, j):
        arr = closed(self, j)
        if j == self.k:
            arr[6] += 1
        return arr

    monkeypatch.setattr(CountTable, "_closed_g_array", corrupt)
    with pytest.raises(ConsistencyError, match="n=6"):
        CountTable(2, 12, verify_to=3)
