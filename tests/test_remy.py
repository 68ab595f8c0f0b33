"""Rémy insertion: a second, independent uniform generator for k = 2.

A binary tree on leaves {1..j} arises from exactly one tree on {1..j-1}
(delete leaf j and its parent) and one of that tree's 2j-3 vertices (the one
leaf j was inserted above).  So inserting leaf j above a uniformly chosen
vertex, for j = 2..n, reaches each of the t_{2,n} = (2n-3)!! trees in exactly
one way: the result is uniform, with no big integers and no count table
(J.-L. Rémy, RAIRO Inform. Théor. 19, 1985).  The package's sampler shares
nothing with it, so agreement between the two is evidence for both.
"""

import random
from collections import Counter
from fractions import Fraction
from math import sqrt

from phylorank.bruteforce import enumerate_all
from phylorank.sampler import sample_batch
from phylorank.stats import chi_square_critical
from phylorank.treecore import Tree, internal, leaf, to_newick, validate

REMY_SEED = 20
FREQUENCY_Z = 6  # standard errors, as in the benchmark's frequency check


def remy_tree(n: int, rng: random.Random) -> Tree:
    # vertex ids: 0 is leaf 1; step j adds internal vertex 2j-3 and leaf 2j-2
    parent = [-1]
    children = [[]]
    label = [1]
    root = 0
    for j in range(2, n + 1):
        v = rng.randrange(2 * j - 3)
        w, new_leaf = 2 * j - 3, 2 * j - 2
        p = parent[v]
        parent += [p, w]
        children += [[v, new_leaf], []]
        label += [None, j]
        if p < 0:
            root = w
        else:
            kids = children[p]
            kids[kids.index(v)] = w
        parent[v] = w
    # children before parents: reverse preorder
    order, stack = [], [root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(children[v])
    built = {}
    for v in reversed(order):
        built[v] = leaf(label[v]) if label[v] else internal([built[c] for c in children[v]])
    return Tree(built[root], 2)


def test_remy_trees_are_valid():
    rng = random.Random(REMY_SEED)
    for n in (1, 2, 3, 17, 200):
        tree = remy_tree(n, rng)
        assert validate(tree) is None
        assert sorted(tree.leaf_labels()) == list(range(1, n + 1))
        assert tree.n_vertices == 2 * n - 1


def test_remy_chi_square_over_the_full_support():
    # all 105 trees on {1..5}, 200 expected draws each, significance 0.001
    support = [to_newick(t) for t in enumerate_all(2, 5)]
    assert len(support) == 105
    samples = 21_000
    rng = random.Random(REMY_SEED)
    counts = Counter(to_newick(remy_tree(5, rng)) for _ in range(samples))
    assert set(counts) <= set(support)
    expected = Fraction(samples, len(support))
    stat = sum((counts[s] - expected) ** 2 / expected for s in support)
    assert float(stat) < chi_square_critical(0.001, len(support) - 1)


def _rank1_frequencies(trees):
    out = []
    for tree in trees:
        ranks = [v.rank for v in tree.vertices()]
        out.append(ranks.count(1) / len(ranks))
    return out


def _mean_and_variance(xs):
    mean = sum(xs) / len(xs)
    return mean, sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)


def test_sampler_and_remy_agree_on_rank_one_frequency(table_k2_1001):
    n, count = 1001, 100
    ours = _rank1_frequencies(sample_batch(2, n, count, base_seed=REMY_SEED, table=table_k2_1001))
    rng = random.Random(REMY_SEED)
    remy = _rank1_frequencies(remy_tree(n, rng) for _ in range(count))
    (m1, v1), (m2, v2) = _mean_and_variance(ours), _mean_and_variance(remy)
    stderr = sqrt(v1 / count + v2 / count)
    assert stderr > 0
    assert abs(m1 - m2) < FREQUENCY_Z * stderr, (m1, m2, stderr)
