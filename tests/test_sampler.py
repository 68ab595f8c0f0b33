import hashlib
import random
import tracemalloc
from collections import Counter
from heapq import heapify, heappop, heappush
from math import factorial

import pytest

from phylorank import sampler
from phylorank.bruteforce import enumerate_all
from phylorank.errors import DomainError
from phylorank.exactcount import CountTable, MAX_TABLE_BYTES, internal_vertices
from phylorank.sampler import (
    BYTES_PER_VERTEX, _blocks_in_order, _shuffle, sample_batch, sample_rank_counts,
)
from phylorank.treecore import census_of, rank_of, to_newick, validate

FIGURE_ONE = {"((1,2),3);", "((1,3),2);", "((2,3),1);"}


def test_single_leaf():
    (tree,) = sample_batch(2, 1, 1, base_seed=5)
    assert to_newick(tree) == "1;"


def test_n3_support():
    for tree in sample_batch(2, 3, 30, base_seed=5):
        assert to_newick(tree) in FIGURE_ONE


def test_batch_reproducible():
    first = [to_newick(t) for t in sample_batch(2, 9, 5, base_seed=123)]
    again = [to_newick(t) for t in sample_batch(2, 9, 5, base_seed=123)]
    assert first == again
    # different sample indices generally give different trees at this size
    assert len(set(first)) > 1


def test_batch_prefix_determinism():
    # sample j depends only on (base_seed, j): a batch's first m trees are
    # the batch of count m
    long = [to_newick(t) for t in sample_batch(2, 9, 8, base_seed=4)]
    for m in (1, 4, 8):
        assert [to_newick(t) for t in sample_batch(2, 9, m, base_seed=4)] == long[:m]


def test_batch_empty():
    assert list(sample_batch(2, 5, 0, base_seed=1)) == []


def test_batch_builds_table_when_missing():
    # no table is built or read: a given one, even for another k, is ignored
    trees = [to_newick(t) for t in sample_batch(3, 7, 4, base_seed=2)]
    assert [to_newick(t) for t in sample_batch(3, 7, 4, 2, table=CountTable(2, 5))] == trees
    for t in sample_batch(3, 7, 4, base_seed=2):
        assert validate(t) is None


def test_samples_are_valid_trees():
    for t in sample_batch(2, 33, 25, base_seed=0):
        assert validate(t) is None
        assert sorted(t.leaf_labels()) == list(range(1, 34))
        assert t.n_vertices == 2 * 33 - 1


def test_samples_are_valid_ternary():
    for t in sample_batch(3, 15, 25, base_seed=0):
        assert validate(t) is None
        assert t.n_vertices == 3 * 7 + 1


def test_every_support_tree_reachable():
    # 15 trees at n=4; 600 draws miss one with prob ~ (14/15)^600 ~ 1e-18
    seen = Counter(to_newick(t) for t in sample_batch(2, 4, 600, base_seed=13))
    assert len(seen) == 15
    assert min(seen.values()) > 10


def test_trees_of_a_batch_share_their_leaves():
    a, b = sample_batch(2, 9, 2, base_seed=3)
    leaves = {v.label: v for v in a.vertices() if v.is_leaf}
    shared = [v for v in b.vertices() if v.is_leaf]
    assert len(shared) == 9 and all(leaves[v.label] is v for v in shared)
    for v in shared:
        assert rank_of(a, v) == rank_of(b, v) == 0
    # the internal vertices are each tree's own
    for v in a.vertices():
        if not v.is_leaf:
            with pytest.raises(DomainError, match="does not belong"):
                rank_of(b, v)
    with pytest.raises(DomainError, match="does not belong"):
        rank_of(a, b.root)


def test_inadmissible_rejected():
    with pytest.raises(DomainError):
        list(sample_batch(3, 4, 1, base_seed=1))
    with pytest.raises(DomainError):
        list(sample_batch(3, 4, 2, base_seed=1))


def test_bad_arguments():
    with pytest.raises(DomainError):
        list(sample_batch(2, 5, -1, base_seed=1))


def test_memory_guard_refuses_huge_trees_at_once():
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="MiB"):
            list(sample_batch(2, 10**9, 1, 0))
        with pytest.raises(DomainError, match="MiB"):
            list(sample_rank_counts(2, 10**9, 1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    # the largest admitted tree at k=2, and the first refused one
    largest = (MAX_TABLE_BYTES // BYTES_PER_VERTEX - 1) // 2 + 1
    with pytest.raises(DomainError):
        next(sample_batch(2, largest + 1, 1, 0))
    assert (2 * internal_vertices(2, largest) + 1) * BYTES_PER_VERTEX <= MAX_TABLE_BYTES


# sha256 of the canonical Newick strings, one per line, of these seeded
# batches, recorded with the block-partition sampler.  The goldens only
# cover tiny n; this pins the random stream, and so every shuffle and the
# tree built from it, at real sizes.
STREAM_PIN_BATCHES = [(2, 1001, 20), (3, 301, 50), (5, 201, 50)]
STREAM_PIN_SEED = 2026
STREAM_PIN_SHA256 = "46870f5a8ffc62636f0f8e137fd5dac5dd85612ac92926be92a03c21b79f41c3"


def test_stream_pin_at_real_sizes():
    digest = hashlib.sha256()
    for k, n, count in STREAM_PIN_BATCHES:
        for t in sample_batch(k, n, count, base_seed=STREAM_PIN_SEED):
            digest.update(to_newick(t).encode() + b"\n")
    assert digest.hexdigest() == STREAM_PIN_SHA256


@pytest.mark.parametrize("seed", [0, 1, 2026, 2**64 + 7, 2**127 - 1])
def test_shuffle_is_random_shuffle(seed):
    # _shuffle writes out Random.shuffle's draws; should this interpreter's
    # Random.shuffle draw otherwise, this fails before the stream moves.
    # Lengths 1023..1025 and 2047..2049 cross the bit-length edges of i + 1.
    for length in [*range(71), 1023, 1024, 1025, 2047, 2048, 2049]:
        ours, theirs = list(range(1, length + 1)), list(range(1, length + 1))
        _shuffle(ours, seed)
        random.Random(seed).shuffle(theirs)
        assert ours == theirs, length


# ----- the bijection between trees and block partitions -------------------


def _partition_of(tree):
    """The forward map: give the internal non-root vertices the labels
    n+1, n+2, ... by the sampler's rule (among those whose children are all
    labelled, the one whose least child label is smallest), then return the
    sibling sets, the root's last."""
    label, parent, unlabelled, ready = {}, {}, {}, []

    def key(v):
        return min(c.label if c.is_leaf else label[id(c)] for c in v.children)

    inner = [v for v in tree.vertices() if not v.is_leaf]
    for v in inner:
        for c in v.children:
            parent[id(c)] = v
        unlabelled[id(v)] = sum(not c.is_leaf for c in v.children)
        if v is not tree.root and not unlabelled[id(v)]:
            ready.append((key(v), id(v), v))
    heapify(ready)
    made = tree.n_leaves
    while ready:
        v = heappop(ready)[2]
        made += 1
        label[id(v)] = made
        p = parent[id(v)]
        unlabelled[id(p)] -= 1
        if p is not tree.root and not unlabelled[id(p)]:
            heappush(ready, (key(p), id(p), p))
    return [[c.label if c.is_leaf else label[id(c)] for c in v.children] for v in inner[1:] + inner[:1]]


def _blocks_by_the_rule(k, n, labels):
    """The blocks of ``labels`` in parent order, by scanning every block
    left for the ready one with the smallest least label: O(N^2)."""
    left = [tuple(labels[i:i + k]) for i in range(0, len(labels), k)]
    out = []
    for label in range(n + 1, len(labels) + 2):
        block = min((b for b in left if max(b) < label), key=min)
        left.remove(block)
        out.append(block)
    return out


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_blocks_in_order_follow_the_rule(k):
    rng = random.Random(f"blocks {k}")
    for s in (0, 1, 2, 3, 4, 7, 30, 150):
        for _ in range(5):
            labels = list(range(1, k * s + 1))
            rng.shuffle(labels)
            n = (k - 1) * s + 1
            assert list(_blocks_in_order(k, n, labels)) == _blocks_by_the_rule(k, n, labels)


@pytest.mark.parametrize("k, n", [(2, 7), (3, 9), (4, 10)])
def test_round_trip_is_a_bijection_onto_every_tree(k, n, monkeypatch):
    # the sampler deals the partition's blocks, last one first and each
    # reversed, in place of a shuffle; it must give back the very tree
    dealt = []
    monkeypatch.setattr(sampler, "_shuffle", lambda labels, seed: labels.__setitem__(slice(None), dealt))
    s = internal_vertices(k, n)
    partitions = set()
    for tree in enumerate_all(k, n):
        blocks = _partition_of(tree)
        assert sorted(x for b in blocks for x in b) == list(range(1, k * s + 1))
        partitions.add(frozenset(map(frozenset, blocks)))
        dealt[:] = [x for b in reversed(blocks) for x in reversed(b)]
        (back,) = sample_batch(k, n, 1, base_seed=0)
        assert to_newick(back) == to_newick(tree)
    # the forward map is one-to-one into the partitions of {1..ks} into s
    # blocks of k, and there are as many trees: the sampler's map, its
    # inverse, is a bijection
    assert len(partitions) == factorial(k * s) // (factorial(s) * factorial(k) ** s)


def _census_counts(tree):
    census = census_of(tree, max_rank=max(v.rank for v in tree.vertices()))
    assert census.tail == 0
    return Counter(dict(enumerate(census.exact)))


@pytest.mark.parametrize("k, n", [(2, 7), (3, 9), (4, 10)])
def test_rank_counts_match_the_census_of_every_tree(k, n, monkeypatch):
    # each tree's own partition, dealt in place of the shuffle as above
    dealt = []
    monkeypatch.setattr(sampler, "_shuffle", lambda labels, seed: labels.__setitem__(slice(None), dealt))
    for tree in enumerate_all(k, n):
        dealt[:] = [x for b in _partition_of(tree) for x in b]
        (counts,) = sample_rank_counts(k, n, 1, base_seed=0)
        assert counts == _census_counts(tree)


@pytest.mark.parametrize("k", [2, 3])
def test_rank_counts_match_the_census_of_a_seeded_batch(k):
    trees = sample_batch(k, 1001, 30, base_seed=77)
    counted = sample_rank_counts(k, 1001, 30, base_seed=77)
    for tree, counts in zip(trees, counted, strict=True):
        assert counts == _census_counts(tree)
        assert sum(counts.values()) == tree.n_vertices
