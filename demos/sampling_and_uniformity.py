"""Exactly uniform random trees: reproducible batches, prefix determinism,
and a chi-square audit against the fully enumerated support.
"""

from collections import Counter

from phylorank import (
    chi_square_uniformity,
    enumerate_all,
    estimate_rank_distribution,
    sample_batch,
    to_newick,
)


def main():
    print("=== a batch is pinned by its seed ===")
    first = [to_newick(t) for t in sample_batch(2, 9, 3, base_seed=42)]
    for newick in first:
        print(" ", newick)
    again = [to_newick(t) for t in sample_batch(2, 9, 3, base_seed=42)]
    print(f"{'PASS' if first == again else 'FAIL'} same seed, same trees")

    print("\n=== sample j depends only on (seed, j) ===")
    long = [to_newick(t) for t in sample_batch(2, 21, 6, base_seed=3)]
    short = [to_newick(t) for t in sample_batch(2, 21, 2, base_seed=3)]
    same = long[:2] == short
    print(f"{'PASS' if same else 'FAIL'} the first 2 of a batch of 6 equal a batch of 2")

    print("\n=== sampling really is uniform: chi-square over the support ===")
    print("  support at n=4 is all", sum(1 for _ in enumerate_all(2, 4)), "trees")
    report = chi_square_uniformity(2, 4, samples=15000, base_seed=1)
    print(f"{'PASS' if report.passed else 'FAIL'} uniform: statistic {report.statistic:.2f} "
          f"vs critical {report.critical:.2f} (significance {report.significance}, df {report.df})")

    print("\n=== observed frequencies at n=3 ===")
    counts = Counter(to_newick(t) for t in sample_batch(2, 3, 3000, base_seed=5))
    for newick, count in sorted(counts.items()):
        print(f"  {newick}  {count}  (expected 1000)")

    print("\n=== a Monte Carlo run against the limiting rank law ===")
    report = estimate_rank_distribution(2, 101, samples=400, base_seed=9, max_rank=2)
    for row in report.rows:
        print(f"  rank {row.rank}: frequency {float(row.frequency):.4f}  "
              f"limit {float(row.limit):.4f}  deviation {row.deviation:.4f}")

    print("\n=== a big tree, sampled in milliseconds ===")
    tree = next(iter(sample_batch(2, 101, 1, base_seed=30)))
    newick = to_newick(tree)
    print(f"  n=101 tree ({tree.n_vertices} vertices): {newick[:60]}...")


if __name__ == "__main__":
    main()
