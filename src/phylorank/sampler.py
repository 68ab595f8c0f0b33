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
above with a heap of ready blocks.  No count table, big integer or float is
involved, and a tree costs O(N log N).

Sample j draws from its own generator, seeded by a keyed hash of
(base_seed, j), so a batch's first m trees are the batch of count m.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heapify, heappop, heappush
from typing import Iterator

from .errors import DomainError, require_int
from .exactcount import MAX_TABLE_BYTES, is_admissible
from .treecore import Tree, Vertex, internal, leaf

__all__ = ["sample_batch"]

# Peak memory of one sampled tree and its Newick string, per vertex: 204 to
# 213 B of peak RSS at k = 2, 3, 5 and n = 100,001 to 400,001 (CPython 3.11).
BYTES_PER_VERTEX = 216


def _rng_for(base_seed: int, index: int) -> random.Random:
    digest = hashlib.blake2b(
        f"phylorank:{base_seed}:{index}".encode(), digest_size=16
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _build_root(k: int, n: int, top: int, rng: random.Random) -> Vertex:
    """The tree of a uniform partition of {1..top} into blocks of k: made[x]
    is the vertex labelled x, and a block waits for its largest label."""
    labels = list(range(1, top + 1))
    rng.shuffle(labels)
    made = [None] + [leaf(label) for label in range(1, n + 1)]
    ready, waiting = [], {}  # heap of (least label, block); largest -> block
    for i in range(0, top, k):
        block = labels[i:i + k]
        last = max(block)
        if last <= n:
            ready.append((min(block), block))
        else:
            waiting[last] = block
    heapify(ready)
    for label in range(n + 1, top + 2):  # the last parent made is the root
        made.append(internal([made[x] for x in heappop(ready)[1]]))
        block = waiting.pop(label, None)
        if block is not None:
            heappush(ready, (min(block), block))
    return made[-1]


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
    for j in range(count):
        yield Tree(_build_root(k, n, k * s, _rng_for(base_seed, j)), k)
