"""Exactly uniform random generation of k-phylogenetic trees.

The generator inverts the root-removal decomposition: an internal node over a
block of m leaves picks the ordered sizes of its k sub-blocks with
probability proportional to  multinomial(m; sizes) * product of subtree
counts, and recurses.  Every draw uses exact integer cumulative weights
against a uniform big integer, so there is no floating-point bias at any
size.  Labels come from one uniform permutation of {1..n} per tree, and each
block is a contiguous range of it.  A contiguous slice of a uniform
permutation is a uniform ordering of its block, so each ordered labelled
tree has probability 1/(k!^s * t(n)).  Forgetting the order
of children is harmless: sibling subtrees carry disjoint label sets, so each
unordered set of k children corresponds to exactly k! ordered tuples.

Reproducibility: sample index j derives its own generator from
(base_seed, j) through a keyed hash, so a batch is one fixed sequence of
trees and its first m trees are the batch of count m for the same seed.
"""

from __future__ import annotations

import hashlib
import random
from math import comb
from typing import Iterator, Sequence

from .errors import ConsistencyError, DomainError
from .exactcount import CountTable, is_admissible
from .treecore import Tree, Vertex, internal, leaf

__all__ = ["sample_batch"]


def _rng_for(base_seed: int, index: int) -> random.Random:
    digest = hashlib.blake2b(
        f"phylorank:{base_seed}:{index}".encode(), digest_size=16
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _draw_block_size(g: Sequence[Sequence[int]], m: int, slots: int, rng: random.Random) -> int:
    """Size of the next sub-block when `slots` blocks remain at node size m.

    ``g[j]`` holds the ordered j-forest counts, so ``g[1]`` is t.  Weight of
    size a is C(m,a) * t(a) * g_{slots-1}(m-a); the scan walks the
    candidates from both ends inward because most of the probability mass
    sits near the extremes, keeping the expected number of big-integer
    products small.
    """
    t_arr = g[1]
    g_prev = g[slots - 1]
    total = g[slots][m]
    u = rng.randrange(total)
    lo, hi = 1, m - (slots - 1)
    c_lo = m  # C(m, 1)
    c_hi = comb(m, slots - 1)  # C(m, hi) via symmetry
    acc = 0
    while lo <= hi:
        ta = t_arr[lo]
        if ta:
            gb = g_prev[m - lo]
            if gb:
                acc += c_lo * ta * gb
                if acc > u:
                    return lo
        if lo == hi:
            break
        ta = t_arr[hi]
        if ta:
            gb = g_prev[m - hi]
            if gb:
                acc += c_hi * ta * gb
                if acc > u:
                    return hi
        lo += 1
        hi -= 1
        if lo > hi:
            break
        c_lo = c_lo * (m - lo + 1) // lo
        c_hi = c_hi * (hi + 1) // (m - hi)
    raise ConsistencyError(
        f"block-size draw at m={m}, slots={slots} exhausted its weights"
    )


class _Frame:
    __slots__ = ("parent", "expect", "children")

    def __init__(self, parent, expect):
        self.parent = parent
        self.expect = expect
        self.children = []


def _attach(frame: _Frame, node: Vertex) -> None:
    # close completed frames upward without recursion
    while True:
        frame.children.append(node)
        if frame.parent is None or len(frame.children) < frame.expect:
            return
        node = internal(frame.children)
        frame = frame.parent


def _build_root(g: Sequence[Sequence[int]], n: int, rng: random.Random) -> Vertex:
    k = len(g) - 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    sentinel = _Frame(parent=None, expect=1)
    # (start, size, parent): the block perm[start:start+size] under parent
    work: list[tuple[int, int, _Frame]] = [(0, n, sentinel)]
    while work:
        start, m, parent = work.pop()
        if m == 1:
            _attach(parent, leaf(perm[start]))
            continue
        frame = _Frame(parent=parent, expect=k)
        for slots in range(k, 1, -1):
            a = _draw_block_size(g, m, slots, rng)
            work.append((start, a, frame))
            start += a
            m -= a
        work.append((start, m, frame))
    return sentinel.children[0]


def sample_batch(
    k: int,
    n: int,
    count: int,
    base_seed: int,
    table: CountTable | None = None,
) -> Iterator[Tree]:
    """``count`` independent trees, each exactly uniform over all t_{k,n}
    trees on leaf set {1..n}.

    Sample j is generated from a seed derived from (base_seed, j), so the
    batch is reproducible and its first m trees equal the batch of count m.
    A missing ``table`` is built on the fly.
    """
    if count < 0:
        raise DomainError("count must be >= 0")
    if count == 0:
        return
    if not is_admissible(k, n):
        raise DomainError(f"n={n} is inadmissible for k={k}: nothing to sample")
    if table is None:
        table = CountTable(k, n)
    if table.k != k:
        raise DomainError(f"table was built for k={table.k}, not k={k}")
    table.tree_count(n)  # raises unless the table covers n
    g = [()] + [table.ordered_forest_counts(j) for j in range(1, k + 1)]
    for j in range(count):
        yield Tree(_build_root(g, n, _rng_for(base_seed, j)), k)
