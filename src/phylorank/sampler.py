"""Exactly uniform random generation of k-phylogenetic trees.

The generator inverts the root-removal decomposition: an internal node over a
block of m leaves picks the ordered sizes of its k sub-blocks with
probability proportional to  multinomial(m; sizes) * product of subtree
counts, and recurses.  Each size draw takes a uniform big integer u below the
exact total weight and picks the first candidate whose exact cumulative
weight exceeds u.  A floating-point walk over the candidates' probabilities
makes that pick whenever a proven error margin shows the exact comparison
agrees; within the margin of a boundary, the exact big-integer scan decides
(Denise & Zimmermann, TCS 218, 1999).  So every pick is the exact one and
there is no floating-point bias at any size.  Labels come from one uniform
permutation of {1..n} per tree, and each block is a contiguous range of it.
A contiguous slice of a uniform permutation is a uniform ordering of its
block, so each ordered labelled tree has probability 1/(k!^s * t(n)).
Forgetting the order of children is harmless: sibling subtrees carry
disjoint label sets, so each unordered set of k children corresponds to
exactly k! ordered tuples.

Reproducibility: sample index j derives its own generator from
(base_seed, j) through a keyed hash, so a batch is one fixed sequence of
trees and its first m trees are the batch of count m for the same seed.
"""

from __future__ import annotations

import hashlib
import random
from math import comb, exp, inf, log
from typing import Iterator, Sequence

from .errors import ConsistencyError, DomainError, require_int
from .exactcount import CountTable, is_admissible
from .treecore import Tree, Vertex, internal, leaf

__all__ = ["sample_batch"]


def _rng_for(base_seed: int, index: int) -> random.Random:
    digest = hashlib.blake2b(
        f"phylorank:{base_seed}:{index}".encode(), digest_size=16
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def _log_table(g: Sequence[Sequence[int]], n: int) -> tuple[list[list[float]], float]:
    """``logs[j][b] = log(g_j(b) / b!)`` for 1 <= j <= k and b <= n (-inf where
    g_j(b) = 0), each from the exact integers, and the float filter's margin
    for them."""
    log_fact = [0.0] * (n + 1)
    fact = 1
    for b in range(2, n + 1):
        fact *= b
        log_fact[b] = log(fact)
    log_max = log_fact[n]
    logs: list[list[float]] = [[]]
    for j in range(1, len(g)):
        row = [-inf] * (n + 1)
        for b in range(1, n + 1):
            if g[j][b]:
                lg = log(g[j][b])
                log_max = max(log_max, lg)
                row[b] = lg - log_fact[b]
        logs.append(row)
    return logs, _margin(log_max, n)


def _margin(log_max: float, n: int) -> float:
    """Twice a bound on how far the float walk can stray from the exact one.

    Let e = 2**-53, and let log_max >= 0 be the largest log of any integer
    the logs were taken of, so that every |L| <= log_max.

    * math.log on an int rounds it to 53 bits (beyond the float range, its
      mantissa, then adds exponent * log 2) and takes a log good to one ulp:
      off by at most 4e(1 + log_max).
    * L = log g - log b! adds one rounding: off by at most 9e(1 + log_max).
    * L_1 + L_{slots-1} - L_slots has three such errors and two roundings
      of values below 3 log_max: off by at most 32e(1 + log_max).
    * exp turns that, with its own ulp, into a relative error of at most
      rho = 36e(1 + log_max) in each term p(a).
    * The terms sum to at most 1 and there are fewer than n of them, so
      every running sum is off by at most rho + 1.02ne; a term that
      underflows loses under 2**-1074 more.
    * x = u / total is rounded once: off by at most e.

    The bound grows with n and log_max, so the margin stays safe at any
    size a table admits (the steps above need e * log_max far below 1); at
    n = 1001, k = 2 it is about 5e-11.
    """
    return 2.0 * 2.0**-53 * (36.0 * (1.0 + log_max) + 2.0 * n + 1.0)


def _exact_block_size(g: Sequence[Sequence[int]], m: int, slots: int, u: int) -> int:
    """The first candidate, in scan order, whose exact cumulative weight
    exceeds u.

    ``g[j]`` holds the ordered j-forest counts, so ``g[1]`` is t.  Weight of
    size a is C(m,a) * t(a) * g_{slots-1}(m-a); the scan walks the
    candidates from both ends inward because most of the probability mass
    sits near the extremes, keeping the expected number of big-integer
    products small.
    """
    t_arr = g[1]
    g_prev = g[slots - 1]
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


def _pick_block_size(
    g: Sequence[Sequence[int]], logs: Sequence[Sequence[float]], margin: float,
    m: int, slots: int, u: int,
) -> int:
    """Size of the next sub-block when `slots` blocks remain at node size m,
    given u uniform below the exact total weight g_slots(m): the candidate
    :func:`_exact_block_size` picks for u, found in floating point when the
    margin proves it.

    The walk takes the exact scan's order and adds the probabilities
    p(a) = exp(L_1(a) + L_{slots-1}(m-a) - L_slots(m)), L from ``logs``.  A
    sum above x + margin (x = u / total) shows the exact cumulative weight
    exceeds u while every earlier one, which stayed below x - margin, did
    not; a sum within the margin of x, or a walk that ends undecided, is
    left to the exact scan, which also raises when the weights run out.
    """
    x = u / g[slots][m]
    below, above = x - margin, x + margin
    l_one, l_rest, l_all = logs[1], logs[slots - 1], logs[slots][m]
    lo, hi = 1, m - (slots - 1)
    acc = 0.0
    while lo <= hi:
        acc += exp(l_one[lo] + l_rest[m - lo] - l_all)
        if acc > above:
            return lo
        if acc >= below or lo == hi:
            break
        acc += exp(l_one[hi] + l_rest[m - hi] - l_all)
        if acc > above:
            return hi
        if acc >= below:
            break
        lo += 1
        hi -= 1
    return _exact_block_size(g, m, slots, u)


def _build_root(
    g: Sequence[Sequence[int]], logs: Sequence[Sequence[float]], margin: float,
    n: int, rng: random.Random,
) -> Vertex:
    k = len(g) - 1
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    # (start, size): expand the block perm[start:start+size]; None: the k
    # vertices on top of `built` are complete, join them under one parent
    work: list[tuple[int, int] | None] = [(0, n)]
    built: list[Vertex] = []
    while work:
        block = work.pop()
        if block is None:
            kids = built[-k:]
            del built[-k:]
            built.append(internal(kids))
            continue
        start, m = block
        if m == 1:
            built.append(leaf(perm[start]))
            continue
        work.append(None)
        for slots in range(k, 1, -1):
            # u uniform below the exact total weight g_slots(m)
            u = rng.randrange(g[slots][m])
            a = _pick_block_size(g, logs, margin, m, slots, u)
            work.append((start, a))
            start += a
            m -= a
        work.append((start, m))
    return built[0]


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
    require_int(count, "count", 0)
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
    logs, margin = _log_table(g, n)
    for j in range(count):
        yield Tree(_build_root(g, logs, margin, n, _rng_for(base_seed, j)), k)
