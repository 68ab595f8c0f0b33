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
For a census, beside each kept tree is its tally, its vertices counted by
rank in one int: its children's tallies plus one at the rank of its built
root.  The census adds up each tree's children's tallies and counts its
root, k additions a tree in place of a walk; every tree is still built and
every vertex counted by inspection, so the oracle shares no arithmetic with
the other routes.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, product, repeat
from typing import Iterator

from . import exactcount
from .errors import DomainError, require_int
from .render import decimal_str
from .treecore import RankCensus, Tree, internal, leaf

DEFAULT_CAP = 10**7


def _admissible_blocks(labels: tuple[int, ...], k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Unordered partitions of ``labels`` into k blocks of admissible sizes.

    Yielded blocks are ordered by minimum element.  ``labels`` must be sorted,
    and their number admissible.  A block size b is admissible when
    (b - 1) % (k - 1) == 0, so b = 1, k, 2k-1, ...; what a block of admissible
    size leaves then splits into admissible sizes whenever it is large enough.
    """

    def rec(remaining: tuple[int, ...], blocks_left: int):
        if blocks_left == 1:
            yield (remaining,)
            return
        anchor, rest = remaining[0], remaining[1:]
        # anchor's block must leave at least one label to each other block
        for b in range(1, len(remaining) - blocks_left + 2, k - 1):
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
    the most of any k; on a shared 2-core x86-64 host it took 5.6 to 7.1 s
    of CPU at an 88 MB peak RSS.  No tally is formed here: only a census
    (:func:`brute_census_with_roots`) keeps them.
    """
    require_within_cap(k, n, cap)
    return map(Tree, _enumerate(k, n, None), repeat(k))


def require_within_cap(k: int, n: int, cap: int = DEFAULT_CAP) -> None:
    """Raise :class:`DomainError` unless k and n are valid, ``cap`` is an
    integer from 0 to ``DEFAULT_CAP``, and the trees on {1..n} number at most
    ``cap``.  A larger cap is refused because the subtrees an enumeration
    keeps grow with its trees (see :func:`enumerate_all`).

    The count climbs t's closed form over admissible m = 1, k, 2k-1, ... up
    to n and stops at the first count over the cap, so a huge n forms no
    large integer."""
    require_int(cap, "enumeration cap", 0)
    if cap > DEFAULT_CAP:
        raise DomainError(f"enumeration cap {cap} exceeds the largest allowed, {DEFAULT_CAP}")
    if not exactcount.is_admissible(k, n):  # checks k and n
        return
    for m in range(1, n + 1, k - 1):
        if (total := exactcount.tree_count_closed(k, m)) > cap:
            raise DomainError(
                f"enumeration at k={k}, n={n} exceeds the safety cap {cap}: "
                f"{decimal_str(total)} trees on {m} labels"
            )


def _joined(parts, k: int, memo: dict, unit: list[int] | None, side: int) -> Iterator[tuple]:
    """Lazily, the children (side 0) or their tallies (side 1) of each tree with a stored
    tree on each block of one of ``parts``; product varies the last block fastest."""
    return chain.from_iterable(product(*(_stored(block, k, memo, unit)[side] for block in blocks))
                               for blocks in parts)


def _stored(block: tuple[int, ...], k: int, memo: dict, unit: list[int] | None) -> tuple:
    """The trees on ``block`` and, given ``unit``, their tallies, built on first use; the
    memo keeps one int object per distinct tally, under itself."""
    found = memo.get(block)
    if found is None and len(block) == 1:
        found = memo[block] = (leaf(block[0]),), (1,)
    elif found is None:
        parts, tallies = list(_admissible_blocks(block, k)), None
        trees = tuple(map(internal, _joined(parts, k, memo, unit, 0)))
        if unit:  # a tree's tally: its children's, plus one at its root's rank
            below = map(sum, _joined(parts, k, memo, unit, 1))
            tallies = [b + unit[tree.rank] for tree, b in zip(trees, below)]
            tallies = tuple(map(memo.setdefault, tallies, tallies))
        found = memo[block] = trees, tallies
    return found


def _enumerate(k: int, n: int, unit: list[int] | None) -> Iterator:
    """Every tree on {1..n} as its root or, given ``unit`` (``unit[i]``: the tally of one
    vertex of rank i), as its root beside the sum of its children's tallies."""
    if (n - 1) % (k - 1):
        return  # inadmissible: no trees, and no label tuple to build
    if n == 1:
        yield (leaf(1), 0) if unit else leaf(1)
        return
    # label tuple -> (its trees, their tallies or None), and each distinct tally ->
    # itself; a local of this generator (no cycle through a closure), so it is
    # freed as soon as the stream ends or is dropped
    memo: dict = {}
    for blocks in _admissible_blocks(tuple(range(1, n + 1)), k):
        big = max(blocks, key=len)
        if len(big) < n - k + 1 or len(big) == 1:
            trees = map(internal, _joined([blocks], k, memo, unit, 0))
            yield from zip(trees, map(sum, _joined([blocks], k, memo, unit, 1))) if unit else trees
            continue
        # The other k-1 blocks are single leaves, and this block occurs once per
        # complement: its trees are streamed, never stored.
        parts, at = list(_admissible_blocks(big, k)), blocks.index(big)
        kids = [leaf(block[0]) for block in blocks]
        below = map(sum, _joined(parts, k, memo, unit, 1)) if unit else repeat(0)
        for sub, b in zip(map(internal, _joined(parts, k, memo, unit, 0)), below):
            kids[at] = sub
            root = internal(kids)
            yield (root, b + unit[sub.rank] + k - 1) if unit else root


def brute_census(k: int, n: int, max_rank: int) -> RankCensus:
    """Aggregate per-rank vertex counts over every tree on {1..n}, by inspection."""
    return brute_census_with_roots(k, n, max_rank)[0]


def brute_census_with_roots(k: int, n: int, max_rank: int) -> tuple[RankCensus, RankCensus]:
    """From one enumeration of the trees on {1..n}, at most ``DEFAULT_CAP`` of them:
    :func:`brute_census`, and the census of their roots alone (so
    ``count_rank_ge(i)`` is r_i(n))."""
    require_within_cap(k, n)
    require_int(max_rank, "max_rank", 0)
    # a rank's field in a tally holds every vertex of the most trees the cap
    # admits, so that the tallies of all trees on {1..n} add up without carry
    width = ((k * ((n - 1) // (k - 1)) + 1) * DEFAULT_CAP).bit_length()
    below, roots, ranks = 0, Counter(), range(n.bit_length())
    for root, children in _enumerate(k, n, [1 << width * rank for rank in ranks]):
        below += children  # every vertex below a root
        roots[root.rank] += 1
    fields = {rank: below >> width * rank & (1 << width) - 1 for rank in ranks}
    return (RankCensus.of_counts(k, n, roots + Counter(fields), max_rank),
            RankCensus.of_counts(k, n, roots, max_rank))
