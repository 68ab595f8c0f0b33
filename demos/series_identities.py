"""The truncated-series oracle: solving T = x + T^k/k! and checking that
every counting identity holds coefficientwise in exact rationals.
"""

from phylorank import CountTable, checks, oracle_M, solve_T


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

    print(f"\n=== the series oracle against the integer tables, through order {order} ===")
    print("T inverts x - x^k/k!; n! [x^n] of the root-rank series T^(k^i)/k!^(c_i) and of")
    print("the rank-at-least series M_i are r_i(n) and m_i(n); T^(k^i)/(1 - T^(k-1)/(k-1)!)")
    print("splits into a short polynomial in T plus (k-1)!^(c_i) times the all-vertex series:")
    for k in (2, 3, 4):
        for name, passed in checks.series_identities(CountTable(k, order), order):
            print(f"{'PASS' if passed else 'FAIL'} k={k}: {name}")
    print("m_1 values at n=1..4:", [int(oracle_M(2, 1, order).labeled(n)) for n in range(1, 5)])

    print("\n=== everything is exact ===")
    print(f"  [x^20] T_2 = {T.coeff(20)!r}; times 20! it is t(20) = {T.labeled(20)}")


if __name__ == "__main__":
    main()
