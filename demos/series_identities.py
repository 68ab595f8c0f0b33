"""The truncated-series oracle: solving T = x + T^k/k! and checking that
every counting identity holds coefficientwise in exact rationals.
"""

from fractions import Fraction
from math import factorial

from phylorank import (
    CountTable,
    oracle_M,
    oracle_R,
    solve_T,
    verify_inverse,
    verify_theorem_decomposition,
)


def main():
    order = 24

    print("=== the tree series ===")
    T = solve_T(2, order)
    print("k=2 coefficients of x^1..x^6:", [str(T.coeff(n)) for n in range(1, 7)])
    print("times n! they are the tree counts:",
          [int(T.labeled(n)) for n in range(1, 7)])

    print("\nk=3: only every other coefficient is nonzero:")
    T3 = solve_T(3, 9)
    print(" ", [str(T3.coeff(n)) for n in range(1, 10)])

    print("\n=== T is the compositional inverse of x - x^k/k! ===")
    for k in (2, 3, 5):
        print(f"  k={k}: T(F(x)) == x through order 30:", verify_inverse(k, 30))

    print("\n=== root-rank and rank-at-least series vs the integer recurrences ===")
    table = CountTable(2, order)
    R2 = oracle_R(2, 2, order)
    M1 = oracle_M(2, 1, order)
    print("  n! [x^n] T^(k^2)/k!^(c_2) vs r_2(n), n=4..8:",
          all(R2.labeled(n) == table.root_rank_count(2, n) for n in range(4, 9)))
    print("  n! [x^n] M_1 vs m_1(n), n=1..%d:" % order,
          all(M1.labeled(n) == table.rank_ge_count(1, n) for n in range(1, order + 1)))
    print("  m_1 values at n=1..4:", [int(M1.labeled(n)) for n in range(1, 5)])

    print("\n=== the polynomial-split identity behind the limiting ratios ===")
    print("T^(k^i)/(1 - T^(k-1)/(k-1)!) splits into a short polynomial in T")
    print("plus (k-1)!^(c_i) times the all-vertex series; checked exactly:")
    for k, i in [(2, 1), (2, 3), (3, 2), (4, 2)]:
        ok = verify_theorem_decomposition(k, i, 30)
        print(f"  k={k}, i={i} (c_i as geometric sum): {ok}")

    print("\n=== everything is exact: a spot check ===")
    value = T.coeff(20)
    print(f"  [x^20] T_2 = {value}")
    assert value * factorial(20) == table.tree_count(20)
    assert isinstance(value, Fraction)


if __name__ == "__main__":
    main()
