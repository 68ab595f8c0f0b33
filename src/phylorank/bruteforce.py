"""Exhaustive enumeration of all k-phylogenetic trees on a small leaf set.

This is the ground-truth oracle: it constructs every tree explicitly and
counts whatever is asked by direct inspection, sharing no arithmetic with the
closed-form or recurrence counting paths.

Enumeration scheme: a tree on more than one leaf is an unordered set of k
subtrees whose leaf sets partition the labels.  Unordered partitions are
produced without duplicates by always anchoring the smallest remaining label
to the next block; blocks therefore come out sorted by their minimum label,
which is exactly the canonical child order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from . import exactcount
from .errors import DomainError
from .treecore import RankCensus, Tree, Vertex, internal, leaf

DEFAULT_CAP = 10**7


def _admissible_blocks(labels: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Unordered partitions of ``labels`` into k blocks of admissible sizes.

    Yielded blocks are ordered by minimum element.  ``labels`` must be sorted.
    A block size b is admissible when (b - 1) % (k - 1) == 0; every b here
    is at least 1.
    """

    def rec(remaining: tuple[int, ...], blocks_left: int):
        if blocks_left == 1:
            if (len(remaining) - 1) % (k - 1) == 0:
                yield (remaining,)
            return
        anchor, rest = remaining[0], remaining[1:]
        # anchor's block has admissible size b and must leave enough for the rest
        for b in range(1, len(remaining) - blocks_left + 2):
            if (b - 1) % (k - 1):
                continue
            if (len(remaining) - b - (blocks_left - 1)) % (k - 1) != 0:
                continue
            for extra in combinations(rest, b - 1):
                block = (anchor,) + extra
                left = tuple(x for x in rest if x not in extra)
                for tail in rec(left, blocks_left - 1):
                    yield (block,) + tail

    yield from rec(labels, k)


def _trees_on(labels: tuple[int, ...], k: int) -> Iterator[Vertex]:
    if len(labels) == 1:
        yield leaf(labels[0])
        return

    def assemble(blocks, idx, acc):
        if idx == len(blocks):
            yield internal(tuple(acc))
            return
        for sub in _trees_on(blocks[idx], k):
            acc.append(sub)
            yield from assemble(blocks, idx + 1, acc)
            acc.pop()

    for blocks in _admissible_blocks(labels, k):
        yield from assemble(blocks, 0, [])


def enumerate_all(k: int, n: int, cap: int = DEFAULT_CAP) -> Iterator[Tree]:
    """Yield every k-phylogenetic tree on leaf set {1..n} exactly once (lazily).

    The stream is empty for inadmissible n.  Raises :class:`DomainError` when
    the total count would exceed ``cap``.
    """
    total = exactcount.tree_count_closed(k, n)  # checks k and n
    if total > cap:
        raise DomainError(
            f"enumeration of {total} trees exceeds the safety cap {cap}"
        )
    labels = tuple(range(1, n + 1))
    for root in _trees_on(labels, k):
        yield Tree(root, k)


def brute_census(k: int, n: int, max_rank: int, cap: int = DEFAULT_CAP) -> RankCensus:
    """Aggregate per-rank vertex counts over every tree on {1..n}, by inspection."""
    return RankCensus.of_trees(k, n, enumerate_all(k, n, cap=cap), max_rank)
