"""The recursive method: a second, independent uniform generator for every k.

An internal vertex over a block of m labelled leaves splits it into an
ordered k-tuple of subtrees.  The first subtree takes a leaves with
probability C(m, a) * t(a) * g_{j-1}(m - a) / g_j(m) when j subtrees are
still to place, g_j(m) = m! [x^m] T^j being the ordered j-forest counts of
a ``CountTable``.  Each draw here is an exact big-integer scan below a
uniform integer, and the labels of a block are a contiguous run of one
uniform permutation, so each ordered tree has the same probability; each
unordered tree arises from k!^s ordered ones (Nijenhuis & Wilf,
*Combinatorial Algorithms*, 1978, ch. 29; Flajolet, Zimmermann & Van
Cutsem, TCS 132, 1994).  The package's sampler shares nothing with it but
the tree type, so agreement between the two is evidence for both.
"""

import random
from collections import Counter
from fractions import Fraction
from math import comb, sqrt

from test_remy import FREQUENCY_Z, _mean_and_variance, _rank1_frequencies

from phylorank.bruteforce import enumerate_all
from phylorank.exactcount import CountTable
from phylorank.sampler import sample_batch
from phylorank.stats import chi_square_critical
from phylorank.treecore import Tree, internal, leaf, to_newick, validate

RECURSIVE_SEED = 30


def recursive_tree(table: CountTable, n: int, rng: random.Random) -> Tree:
    k = table.k
    g = [None] + [table.ordered_forest_counts(j) for j in range(1, k + 1)]
    labels = list(range(1, n + 1))
    rng.shuffle(labels)

    def build(block):
        m = len(block)
        if m == 1:
            return leaf(block[0])
        kids = []
        for j in range(k, 1, -1):
            u, acc, a = rng.randrange(g[j][m]), 0, 0
            while acc <= u:
                a += 1
                acc += comb(m, a) * g[1][a] * g[j - 1][m - a]
            kids.append(build(block[:a]))
            block, m = block[a:], m - a
        return internal(kids + [build(block)])

    return Tree(build(labels), k)


def test_recursive_trees_are_valid():
    rng = random.Random(RECURSIVE_SEED)
    for k, n in ((2, 1), (2, 17), (3, 7), (3, 61), (5, 41)):
        table = CountTable(k, n)
        for _ in range(5):
            tree = recursive_tree(table, n, rng)
            assert validate(tree) is None
            assert sorted(tree.leaf_labels()) == list(range(1, n + 1))


def test_recursive_chi_square_over_the_full_support():
    # all 280 ternary trees on 7 leaves, 100 expected draws each
    support = [to_newick(t) for t in enumerate_all(3, 7)]
    assert len(support) == 280
    samples, table = 28_000, CountTable(3, 7)
    rng = random.Random(RECURSIVE_SEED)
    counts = Counter(to_newick(recursive_tree(table, 7, rng)) for _ in range(samples))
    assert set(counts) <= set(support)
    expected = Fraction(samples, len(support))
    stat = sum((counts[s] - expected) ** 2 / expected for s in support)
    assert float(stat) < chi_square_critical(0.001, len(support) - 1)


def test_sampler_and_recursive_method_agree_on_rank_one_frequency():
    k, n, count = 3, 301, 100
    ours = _rank1_frequencies(sample_batch(k, n, count, base_seed=RECURSIVE_SEED))
    table, rng = CountTable(k, n), random.Random(RECURSIVE_SEED)
    theirs = _rank1_frequencies(recursive_tree(table, n, rng) for _ in range(count))
    (m1, v1), (m2, v2) = _mean_and_variance(ours), _mean_and_variance(theirs)
    stderr = sqrt(v1 / count + v2 / count)
    assert stderr > 0
    assert abs(m1 - m2) < FREQUENCY_Z * stderr, (m1, m2, stderr)
