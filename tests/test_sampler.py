import hashlib
import math
from collections import Counter

import pytest

from phylorank import sampler
from phylorank.errors import ConsistencyError, DomainError, TableCoverageError
from phylorank.exactcount import CountTable, internal_vertices
from phylorank.sampler import sample_batch
from phylorank.treecore import to_newick, validate

FIGURE_ONE = {"((1,2),3);", "((1,3),2);", "((2,3),1);"}


@pytest.fixture(scope="module")
def table():
    return CountTable(2, 40)


def test_single_leaf(table):
    (tree,) = sample_batch(2, 1, 1, base_seed=5, table=table)
    assert to_newick(tree) == "1;"


def test_n3_support(table):
    for tree in sample_batch(2, 3, 30, base_seed=5, table=table):
        assert to_newick(tree) in FIGURE_ONE


def test_batch_reproducible(table):
    first = [to_newick(t) for t in sample_batch(2, 9, 5, base_seed=123, table=table)]
    again = [to_newick(t) for t in sample_batch(2, 9, 5, base_seed=123, table=table)]
    assert first == again
    # different sample indices generally give different trees at this size
    assert len(set(first)) > 1


def test_batch_prefix_determinism(table):
    # sample j depends only on (base_seed, j): a batch's first m trees are
    # the batch of count m
    long = [to_newick(t) for t in sample_batch(2, 9, 8, base_seed=4, table=table)]
    for m in (1, 4, 8):
        assert [to_newick(t) for t in sample_batch(2, 9, m, base_seed=4, table=table)] == long[:m]


def test_batch_empty(table):
    assert list(sample_batch(2, 5, 0, base_seed=1, table=table)) == []


def test_batch_builds_table_when_missing():
    trees = list(sample_batch(3, 7, 4, base_seed=2))
    assert len(trees) == 4
    for t in trees:
        assert validate(t) is None


def test_samples_are_valid_trees(table):
    for t in sample_batch(2, 33, 25, base_seed=0, table=table):
        assert validate(t) is None
        assert sorted(t.leaf_labels()) == list(range(1, 34))
        assert t.n_vertices == 2 * 33 - 1


def test_samples_are_valid_ternary():
    table3 = CountTable(3, 15)
    for t in sample_batch(3, 15, 25, base_seed=0, table=table3):
        assert validate(t) is None
        assert t.n_vertices == 3 * 7 + 1


def test_every_support_tree_reachable(table):
    # 15 trees at n=4; 600 draws miss one with prob ~ (14/15)^600 ~ 1e-18
    seen = Counter(to_newick(t) for t in sample_batch(2, 4, 600, base_seed=13, table=table))
    assert len(seen) == 15
    assert min(seen.values()) > 10


def test_inadmissible_rejected(table):
    with pytest.raises(DomainError):
        list(sample_batch(3, 4, 1, base_seed=1, table=CountTable(3, 8)))
    with pytest.raises(DomainError):
        list(sample_batch(3, 4, 2, base_seed=1))


def test_table_too_small(table):
    with pytest.raises(TableCoverageError):
        list(sample_batch(2, 99, 1, base_seed=1, table=table))


def test_k_mismatch(table):
    with pytest.raises(DomainError, match="k=2"):
        list(sample_batch(3, 7, 1, base_seed=1, table=table))


def test_bad_arguments(table):
    with pytest.raises(DomainError):
        list(sample_batch(2, 5, -1, base_seed=1, table=table))


# sha256 of the canonical Newick strings, one per line, of these seeded
# batches, recorded with the sampler of commit 062ff24 (frame-based tree
# assembly).  The goldens only cover tiny n; this pins the random stream,
# and so every size draw and its assembly, at real sizes.
STREAM_PIN_BATCHES = [(2, 1001, 20), (3, 301, 50), (5, 201, 50)]
STREAM_PIN_SEED = 2026
STREAM_PIN_SHA256 = "96bf5676e7a0021b40262b299e7cf75604e8629e17804419fdead824c9d70304"


def test_stream_pin_at_real_sizes(table_k2_1001):
    digest = hashlib.sha256()
    for k, n, count in STREAM_PIN_BATCHES:
        table = table_k2_1001 if k == 2 else CountTable(k, n)
        for t in sample_batch(k, n, count, base_seed=STREAM_PIN_SEED, table=table):
            digest.update(to_newick(t).encode() + b"\n")
    assert digest.hexdigest() == STREAM_PIN_SHA256


def test_composition_total_tripwire(monkeypatch):
    # the sampler's weights g_k must sum to k! * t at every n, also above
    # verify_to: a table whose closed g_k is corrupt there refuses to build
    closed = CountTable._closed_g_array

    def corrupt(self, j):
        arr = closed(self, j)
        if j == self.k:
            arr[6] += 1
        return arr

    monkeypatch.setattr(CountTable, "_closed_g_array", corrupt)
    with pytest.raises(ConsistencyError, match="n=6"):
        CountTable(2, 12, verify_to=3)


# ----- the float filter in front of the exact block-size scan -------------


def _forest_arrays(table):
    return [()] + [table.ordered_forest_counts(j) for j in range(1, table.k + 1)]


def _boundaries(g, m, slots):
    """(candidate, cumulative exact weight) in the scan's order: 1, hi, 2,
    hi-1, ...; candidates of weight 0 are left out."""
    lo, hi = 1, m - (slots - 1)
    order = []
    while lo <= hi:
        order += [lo] if lo == hi else [lo, hi]
        lo, hi = lo + 1, hi - 1
    acc, out = 0, []
    for a in order:
        w = math.comb(m, a) * g[1][a] * g[slots - 1][m - a]
        if w:
            acc += w
            out.append((a, acc))
    assert acc == g[slots][m]
    return out


def _count_exact_calls(monkeypatch):
    calls = []
    exact = sampler._exact_block_size

    def counted(g, m, slots, u):
        calls.append(m)
        return exact(g, m, slots, u)

    monkeypatch.setattr(sampler, "_exact_block_size", counted)
    return calls


def _check_boundaries(g, logs, margin, m, slots, picks):
    """At u = W - 1 and u = W for the picked cumulative boundaries W, the
    exact scan and the filter both pick the boundary's candidate, then the
    next one.  Returns how many values of u were checked."""
    bounds = _boundaries(g, m, slots)
    checked = 0
    for pos in picks(len(bounds)):
        a, w = bounds[pos]
        cases = [(w - 1, a)] + ([(w, bounds[pos + 1][0])] if pos + 1 < len(bounds) else [])
        for u, expected in cases:
            assert sampler._exact_block_size(g, m, slots, u) == expected
            assert sampler._pick_block_size(g, logs, margin, m, slots, u) == expected
            checked += 1
    return checked


@pytest.mark.parametrize("k", [2, 3, 4])
def test_filter_agrees_with_exact_scan_at_every_boundary(k, table_k2, table_k3, table_k4):
    table = {2: table_k2, 3: table_k3, 4: table_k4}[k]
    g = _forest_arrays(table)
    logs, margin = sampler._log_table(g, 40)
    checked = 0
    for slots in range(2, k + 1):
        for m in range(slots, 41):
            if g[slots][m]:
                _check_boundaries(g, logs, margin, m, slots, range)
                checked += 1
    assert checked > 20


@pytest.mark.parametrize("k", [2, 3])
def test_filter_falls_back_where_floats_cannot_tell(k, table_k2_1001, monkeypatch):
    # 1/total is far below the float resolution at m = 1001, so x reads the
    # same at u = W - 1 and u = W: only the exact scan can decide there
    g = _forest_arrays(table_k2_1001 if k == 2 else CountTable(k, 1001))
    logs, margin = sampler._log_table(g, 1001)
    calls = _count_exact_calls(monkeypatch)
    checked = 0
    for slots in range(2, k + 1):
        if g[slots][1001]:
            checked += _check_boundaries(
                g, logs, margin, 1001, slots,
                lambda size: [0, 1, 2, 3, 4, 5, 17, 60, size // 2, size - 2, size - 1],
            )
    # per u, one direct call of the exact scan and one fallback from the filter
    assert checked >= 21
    assert len(calls) == 2 * checked
    assert margin < 1e-9


@pytest.mark.parametrize("k, n", [(2, 63), (3, 63)])
def test_forced_fallback_gives_the_same_trees(k, n, table_k2, table_k3, monkeypatch):
    table = {2: table_k2, 3: table_k3}[k]
    filtered = [to_newick(t) for t in sample_batch(k, n, 12, base_seed=8, table=table)]
    calls = _count_exact_calls(monkeypatch)
    monkeypatch.setattr(sampler, "_margin", lambda log_max, n: math.inf)
    exact = [to_newick(t) for t in sample_batch(k, n, 12, base_seed=8, table=table)]
    assert exact == filtered
    # k-1 draws per internal vertex, every one of them by the exact scan
    assert len(calls) == 12 * (k - 1) * internal_vertices(k, n)


def test_filter_decides_large_draws(table_k2, monkeypatch):
    # u lands on or next to an exact boundary often at tiny m (at m = 3 the
    # total is 6), almost never once the totals are large
    calls = _count_exact_calls(monkeypatch)
    trees = list(sample_batch(2, 64, 20, base_seed=3, table=table_k2))
    assert len(trees) == 20
    assert calls and max(calls) < 16


def test_exhausted_weights_raise_on_both_routes(table_k2):
    # an inconsistent g whose total exceeds the sum of its weights
    g = [list(row) for row in _forest_arrays(table_k2)]
    m = 40
    g[2][m] *= 2
    logs, margin = sampler._log_table(g, m)
    u = g[2][m] - 1
    for route_margin in (margin, math.inf):
        with pytest.raises(ConsistencyError, match="m=40, slots=2 exhausted its weights"):
            sampler._pick_block_size(g, logs, route_margin, m, 2, u)
