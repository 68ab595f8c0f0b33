"""Exactly uniform random generation of k-phylogenetic trees.

A tree on leaves {1..n} with s = (n-1)/(k-1) internal vertices has
N = k*s non-root vertices: the n leaves and s-1 internal ones.  There are
t_{k,n} = N!/(s! k!^s) such trees, which is the number of partitions of
{1..N} into s blocks of size k, and the trees are in bijection with those
partitions (Diaconis & Holmes, "Matchings and phylogenetic trees", PNAS 95,
1998, for k = 2; the same argument holds for every k).

From a partition to a tree: call a block ready once each of its labels is a
leaf or an internal vertex already made.  Repeatedly take the ready block
with the smallest least label, make its parent, and give that parent the
next unused label of n+1..N; the last block hangs under the root.  A ready
block always exists: after j parents are made, the s-1-j labels still to be
made lie in the s-j remaining blocks, so one block holds none of them.  The
map back labels a tree's internal non-root vertices by the same rule and
reads off its sibling sets.

So a tree needs one uniform partition: one shuffle of {1..N}, cut into s
blocks of k (each partition arises from s! k!^s permutations), then the map
above, run by one core with a heap of ready blocks.  ``sample_batch`` makes
each block's parent vertex; ``sample_rank_counts`` keeps only the parent's
rank, 1 + the least rank in its block.  A batch's trees share their leaves,
which is safe as vertices are immutable and know no parent.  No count table,
big integer or float is involved, and a tree costs O(N log N).

Sample j draws from its own generator, seeded by a keyed hash of
(base_seed, j), so a batch's first m trees are the batch of count m.  Its
shuffle, ``_shuffle``, is ``random.Random(seed).shuffle`` written out: the
same Fisher–Yates swaps from the same ``getrandbits`` draws, so the stream
is Random.shuffle's, without its per-swap method calls.
"""

from __future__ import annotations

import random
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import Iterator

from .errors import DomainError, require_int
from .exactcount import MAX_TABLE_BYTES, is_admissible
from .treecore import Tree, internal, leaf

__all__ = ["sample_batch", "sample_rank_counts"]

# Peak RSS per vertex of one sampled tree, its batch's leaves and its Newick
# string: 190 to 195 B at k = 2, 3, 5 and n = 100,001 to 400,001 (CPython 3.11);
# the bound keeps a margin over that.
BYTES_PER_VERTEX = 216


def _blocks_in_order(k: int, n: int, labels: list[int]) -> Iterator[tuple[int, ...]]:
    """The blocks of the partition ``labels`` (read k at a time) in the order
    their parents n+1, n+2, ... are made; the last is the root's.  A block
    waits for its largest label; the ready heap holds least labels.  One
    list holds each block as a tuple at a label no other block has: a waiting
    block at its largest, a ready one at its least.  A slot is emptied when
    read, so that a made block is freed."""
    at = [None] * (len(labels) + 2)
    ready = []
    for block in zip(*[iter(labels)] * k):
        last = max(block)
        if last <= n:
            ready.append(least := min(block))
            at[least] = block
        else:
            at[last] = block
    heapify(ready)
    for label in range(n + 1, len(labels) + 2):
        least = heappop(ready)
        block, at[least] = at[least], None
        yield block
        block, at[label] = at[label], None
        if block is not None:
            heappush(ready, least := min(block))
            at[least] = block


def _shuffle(labels: list[int], seed: int) -> None:
    """``random.Random(seed).shuffle(labels)``: j is drawn for each i as
    ``Random._randbelow_with_getrandbits(i + 1)`` draws it."""
    getrandbits = random.Random(seed).getrandbits
    for i in range(len(labels) - 1, 0, -1):
        bits = (i + 1).bit_length()
        j = getrandbits(bits)
        while j > i:
            j = getrandbits(bits)
        labels[i], labels[j] = labels[j], labels[i]


def _shuffles(k: int, n: int, count: int, base_seed: int) -> Iterator[list[int]]:
    """For each sample j, {1..ks} shuffled by its own seeded generator, once
    the arguments and the memory bound are checked."""
    require_int(count, "count", 0)
    if count == 0:
        return
    if not is_admissible(k, n):
        raise DomainError(f"n={n} is inadmissible for k={k}: nothing to sample")
    s = (n - 1) // (k - 1)
    if (k * s + 1) * BYTES_PER_VERTEX > MAX_TABLE_BYTES:
        raise DomainError(
            f"a tree for k={k}, n={n} has {k * s + 1} vertices, over the "
            f"{MAX_TABLE_BYTES >> 20} MiB bound at {BYTES_PER_VERTEX} bytes each"
        )
    from hashlib import blake2b  # here, not at start-up: hashlib loads the OpenSSL binding
    for j in range(count):
        labels = list(range(1, k * s + 1))
        digest = blake2b(f"phylorank:{base_seed}:{j}".encode(), digest_size=16).digest()
        _shuffle(labels, int.from_bytes(digest, "big"))
        yield labels


def sample_batch(k: int, n: int, count: int, base_seed: int, table=None) -> Iterator[Tree]:
    """``count`` independent trees, each exactly uniform over all t_{k,n}
    trees on leaf set {1..n}.

    Sample j is generated from a seed derived from (base_seed, j), so the
    batch is reproducible and its first m trees equal the batch of count m.
    A tree whose k*s+1 vertices would need more than ``MAX_TABLE_BYTES``
    raises :class:`DomainError` before anything is built.  ``table`` is
    ignored (no count table is read); it stays only while
    ``bench/workloads.py`` still passes one.
    """
    leaves = None
    for labels in _shuffles(k, n, count, base_seed):
        if leaves is None:  # after the checks; vertices are immutable, so shared
            leaves = [None] + [leaf(label) for label in range(1, n + 1)]
        made = leaves.copy()  # made[x] is the vertex labelled x
        vertex = made.__getitem__
        for block in _blocks_in_order(k, n, labels):
            made.append(internal(map(vertex, block)))
        yield Tree(made[-1], k)


def sample_rank_counts(k: int, n: int, count: int, base_seed: int) -> Iterator[Counter]:
    """Vertex counts by rank of each tree of ``sample_batch(k, n, count,
    base_seed)``, from the same shuffles, with one rank per label and no vertex."""
    for labels in _shuffles(k, n, count, base_seed):
        rank = [0] * (len(labels) + 2)
        for label, block in enumerate(_blocks_in_order(k, n, labels), n + 1):
            rank[label] = 1 + min(map(rank.__getitem__, block))
        yield Counter(rank[1:])
