"""Exhaustive enumeration of all k-phylogenetic trees on a small leaf set.

This is the ground-truth oracle: it constructs every tree explicitly and
counts whatever is asked by direct inspection, sharing no arithmetic with the
closed-form or recurrence counting paths.

Enumeration scheme: a tree on more than one leaf is an unordered set of k
subtrees whose leaf sets partition the labels.  Unordered partitions are
produced without duplicates by always anchoring the smallest remaining label
to the next block; blocks therefore come out sorted by their minimum label,
which ``internal`` re-sorts into the canonical child order: more leaves
first, ties broken by the least label.

Within one enumeration the trees on each block are built once, kept, and
shared by every tree that contains that block (vertices are immutable); the
trees on a root block of n-k+1 labels, which is never reused, are streamed.
Every tree is still assembled vertex by vertex and counted by inspection, so
the oracle keeps sharing no arithmetic with the other routes.
"""

from __future__ import annotations

from itertools import combinations, product
from math import factorial, prod
from typing import Iterator

from . import exactcount
from .errors import DomainError, require_int
from .render import decimal_str
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


def enumerate_all(k: int, n: int, cap: int = DEFAULT_CAP) -> Iterator[Tree]:
    """Every k-phylogenetic tree on leaf set {1..n} exactly once, as a lazy stream.

    The stream is empty for inadmissible n.  k, n and ``cap`` are checked when
    this is called, before the stream is returned, by
    :func:`require_within_cap`.

    The trees on each subset of fewer than n-k+1 labels are built once
    and kept until the stream ends or is dropped, so memory grows with their
    number, not with the number of trees yielded; that is why ``cap`` may
    not exceed ``DEFAULT_CAP``.  The trees on a block of n-k+1 labels are
    streamed.  The largest enumeration that cap admits, ``enumerate_all(2, 9)``
    (2,027,025 trees), keeps 469,017 trees on subsets of at most 7 labels,
    the most of any k; on a shared 2-core x86-64 host it took 13 s at an
    88 MB peak RSS, against 117 s at 20 MB when every subtree was rebuilt
    for each tree that contains it.
    """
    require_within_cap(k, n, cap)
    return _enumerate(k, n)


def require_within_cap(k: int, n: int, cap: int = DEFAULT_CAP) -> None:
    """Raise :class:`DomainError` unless k and n are valid, ``cap`` is an
    integer from 0 to ``DEFAULT_CAP``, and the trees on {1..n} number at most
    ``cap``.  A larger cap is refused because the subtrees an enumeration
    keeps grow with its trees (see :func:`enumerate_all`).

    The count climbs t's exact term ratio over admissible m = 1, k, 2k-1, ...
    up to n and stops at the first count over the cap, so a huge n forms no
    large integer."""
    require_int(cap, "enumeration cap", 0)
    if cap > DEFAULT_CAP:
        raise DomainError(f"enumeration cap {cap} exceeds the largest allowed, {DEFAULT_CAP}")
    if not exactcount.is_admissible(k, n):  # checks k and n
        return
    kfac, total = factorial(k), 1  # t(1)
    for s in range(1, (n - 1) // (k - 1) + 1):
        # t((k-1)s + 1) = t((k-1)(s-1) + 1) * (ks-k+1)...(ks) / (s k!)
        total = total * prod(range(k * s - k + 1, k * s + 1)) // (s * kfac)
        if total > cap:
            raise DomainError(
                f"enumeration at k={k}, n={n} exceeds the safety cap {cap}: "
                f"{decimal_str(total)} trees on {(k - 1) * s + 1} labels"
            )


def _trees_on(labels: tuple[int, ...], k: int, memo: dict) -> Iterator[Vertex]:
    """Every tree on ``labels``, one at a time, over the stored trees of each block."""
    if len(labels) == 1:
        yield leaf(labels[0])
        return
    for blocks in _admissible_blocks(labels, k):
        for kids in product(*(_stored(block, k, memo) for block in blocks)):
            yield internal(kids)


def _stored(block: tuple[int, ...], k: int, memo: dict) -> list[Vertex]:
    found = memo.get(block)
    if found is None:
        found = memo[block] = list(_trees_on(block, k, memo))
    return found


def _enumerate(k: int, n: int) -> Iterator[Tree]:
    if (n - 1) % (k - 1):
        return  # inadmissible: no trees, and no label tuple to build
    if n == 1:
        yield Tree(leaf(1), k)
        return
    # label tuple -> its trees; a local of this generator (no cycle through a
    # closure), so it is freed as soon as the stream ends or is dropped
    memo: dict[tuple[int, ...], list[Vertex]] = {}
    for blocks in _admissible_blocks(tuple(range(1, n + 1)), k):
        big = max(blocks, key=len)
        if len(big) == n - k + 1:
            # The other k-1 blocks are single leaves, and this block occurs
            # once per complement: its trees are streamed, never stored.
            at = blocks.index(big)
            kids = [leaf(block[0]) for block in blocks]
            for sub in _trees_on(big, k, memo):
                kids[at] = sub
                yield Tree(internal(tuple(kids)), k)
        else:
            # product varies the last block fastest, which fixes the stream's order
            for kids in product(*(_stored(block, k, memo) for block in blocks)):
                yield Tree(internal(kids), k)


def brute_census(k: int, n: int, max_rank: int, cap: int = DEFAULT_CAP) -> RankCensus:
    """Aggregate per-rank vertex counts over every tree on {1..n}, by inspection."""
    return RankCensus.of_trees(k, n, enumerate_all(k, n, cap=cap), max_rank)
