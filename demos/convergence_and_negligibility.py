"""Watching the exact ratios converge to their limits, the polynomial
coefficients become negligible, and the log-concavity landscape — including
the exact counterexample at rank 1.
"""

from fractions import Fraction

from phylorank import (
    convergence_table,
    log_concavity_check,
    log_concavity_over_ranks,
    negligibility_ratio,
    rank_ge_limit,
)
from phylorank.render import decimal_str


def main():
    print("=== m_i(n)/m_0(n) -> k^(-c_i), exactly tabulated ===")
    for i in (1, 2):
        report = convergence_table(2, i, [3, 11, 51, 101, 301])
        print(f"  k=2, i={i} (limit {report.limit}):")
        for row in report.rows:
            print(f"    n={row.n:4d}  ratio {str(row.ratio):>12s}"
                  f"  gap {decimal_str(row.gap)}")

    print("\n=== powers of the tree series are negligible against the vertex series ===")
    for power in (2, 3):
        values = [(n, negligibility_ratio(2, power, n)) for n in (3, 11, 101, 1001)]
        rendered = ", ".join(f"n={n}: {decimal_str(v)}" for n, v in values)
        print(f"  T^{power}: {rendered}")

    print("\n=== log-concavity landscape of the limiting point probabilities ===")
    print("over the branching factor k (rank fixed):")
    for i in range(4):
        report = log_concavity_check(i, 20)
        if report.ok:
            print(f"  rank {i}: log-concave for all k in 3..19")
        else:
            ks = [v[0] for v in report.violations]
            k0, lhs, rhs = report.violations[0]
            print(f"  rank {i}: FAILS at k={ks}")
            print(f"          first counterexample, k={k0}: "
                  f"P^2 = {Fraction(*lhs)} < {Fraction(*rhs)} = P-*P+")

    print("over the rank (k fixed) the sequence collapses doubly exponentially,")
    print("so this direction is log-concave wherever we look:")
    for k in (2, 3, 4):
        print(f"  k={k}, ranks 1..5:", log_concavity_over_ranks(k, 6).ok)

    print("\n=== why rank >= i means about k^(-c_i): the tail probabilities ===")
    for k in (2, 3):
        tails = ", ".join(str(rank_ge_limit(k, i)) for i in range(4))
        print(f"  k={k}: {tails}")


if __name__ == "__main__":
    main()
