import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial

import pytest

from phylorank import cli, seriesoracle
from phylorank.errors import ConsistencyError, DomainError
from phylorank.exactcount import CountTable, is_admissible
from phylorank.seriesoracle import (
    TruncatedSeries,
    oracle_M,
    oracle_R,
    solve_T,
    verify_inverse,
    verify_theorem_decomposition,
)


def test_solve_T_binary_coefficients():
    T = solve_T(2, 5)
    assert list(T.coeffs) == [0, 1, Fraction(1, 2), Fraction(1, 2), Fraction(5, 8), Fraction(7, 8)]


def test_solve_T_ternary_coefficients():
    T = solve_T(3, 5)
    assert T.coeff(3) == Fraction(1, 6)
    assert T.coeff(5) == Fraction(1, 12)
    assert T.coeff(2) == 0 and T.coeff(4) == 0


def test_solve_T_linear_term_is_one():
    for k in (2, 3, 4, 7):
        assert solve_T(k, 3).coeff(1) == 1


def test_solve_T_lattice_support():
    for k in (2, 3, 4):
        T = solve_T(k, 30)
        for n in range(2, 31):
            if is_admissible(k, n):
                assert T.coeff(n) > 0
            else:
                assert T.coeff(n) == 0


def test_verify_inverse():
    assert verify_inverse(2, 50)
    assert verify_inverse(5, 30)
    assert verify_inverse(2, 1)


@pytest.fixture
def cleared_memos():
    """The memos of solve_T and of the vertex factor, empty before and after the
    test: no V solved from another T can hide a fault, and no patched T leaks out."""
    memos = (solve_T, seriesoracle._vertex_factor)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


@pytest.mark.parametrize("k, n", [(2, 6), (3, 7)])
def test_verify_inverse_fires_on_a_wrong_coefficient(monkeypatch, cleared_memos, k, n):
    # T(F(x)) = x is checked apart from solve_T's own fixed point, so a tree
    # series with one coefficient changed must fail it
    coeffs = list(solve_T(k, 20).coeffs)
    coeffs[n] += Fraction(1, 3)
    monkeypatch.setattr(seriesoracle, "solve_T", lambda k, order: TruncatedSeries(coeffs, order))
    assert not verify_inverse(k, 20)


@pytest.mark.parametrize("k, n", [(2, 1), (2, 6), (3, 7), (3, 4), (3, 20), (5, 9)])
def test_verify_inverse_fires_on_an_integral_change(monkeypatch, cleared_memos, k, n):
    # S_n = k!^(n-1) [x^n]T plus one is still an integer, so only the
    # composition S(phi(y)) = y can refuse it
    coeffs = list(solve_T(k, 20).coeffs)
    coeffs[n] += Fraction(1, factorial(k) ** (n - 1))
    monkeypatch.setattr(seriesoracle, "solve_T", lambda k, order: TruncatedSeries(coeffs, order))
    assert not verify_inverse(k, 20)


@pytest.mark.parametrize("k", [2, 3])
def test_verify_inverse_fires_on_a_constant_term(monkeypatch, cleared_memos, k):
    coeffs = [Fraction(1, factorial(k))] + list(solve_T(k, 20).coeffs[1:])
    monkeypatch.setattr(seriesoracle, "solve_T", lambda k, order: TruncatedSeries(coeffs, order))
    assert not verify_inverse(k, 20)


def test_one_verify_divides_once_and_the_inverse_forms_no_product(
        monkeypatch, capsys, cleared_memos):
    calls = Counter()

    def spy(name):
        real = getattr(TruncatedSeries, name)

        def counted(self, other):
            calls[name] += 1
            return real(self, other)
        return counted

    for name in ("__truediv__", "__mul__", "__rmul__"):
        monkeypatch.setattr(TruncatedSeries, name, spy(name))
    assert cli.main(["verify", "--k", "3", "--n-max", "1", "--order", "64"]) == 0
    assert capsys.readouterr().out.endswith("\nPASS\n")
    assert calls["__truediv__"] == 1 and calls["__mul__"]
    calls.clear()
    assert verify_inverse(3, 64)  # on the T the run above memoized
    assert not calls


def test_rank_functions_are_bounded_by_the_order(cleared_memos):
    # c_40 = (3^40 - 1)/2, so 6^(c_40) alone would not fit in memory; every
    # series here is zero through order 8 or a geometric sum of 5 terms
    start = time.process_time()
    zero = TruncatedSeries.zero(8)
    assert oracle_R(3, 40, 8) == zero and oracle_M(3, 40, 8) == zero
    assert verify_theorem_decomposition(3, 40, 8)
    assert time.process_time() - start < 0.1


@pytest.mark.parametrize("k,i,order", [(2, 1, 40), (3, 2, 30), (2, 3, 40)])
def test_theorem_decomposition(k, i, order):
    assert verify_theorem_decomposition(k, i, order)


def test_oracle_M_small_counts(table_k2):
    M1 = oracle_M(2, 1, 12)
    assert [int(M1.labeled(n)) for n in (1, 2, 3, 4)] == [0, 1, 6, 45]
    for n in range(1, 13):
        assert M1.labeled(n) == table_k2.rank_ge_count(1, n)


def test_oracle_M_total_vertices(table_k2):
    M0 = oracle_M(2, 0, 10)
    assert [int(M0.labeled(n)) for n in (1, 2, 3)] == [1, 3, 15]
    for n in range(1, 11):
        assert M0.labeled(n) == table_k2.total_vertex_count(n)


def test_oracle_M_ternary(table_k3):
    M1 = oracle_M(3, 1, 9)
    assert M1.labeled(5) == 20
    for n in range(1, 10):
        assert M1.labeled(n) == table_k3.rank_ge_count(1, n)


def test_oracle_R_identity(table_k2, table_k3):
    for table in (table_k2, table_k3):
        k = table.k
        for i in range(3):
            R = oracle_R(k, i, 24)
            for n in range(1, 25):
                assert R.labeled(n) == table.root_rank_count(i, n)


def test_labeled_counts_are_integers():
    T = solve_T(3, 20)
    for n in range(1, 21):
        value = T.labeled(n)
        assert value.denominator == 1


# ------------------------------------------------------------ ring algebra


def _random_series(rng, order, unit=False):
    coeffs = [Fraction(rng.randrange(-6, 7), rng.randrange(1, 5)) for _ in range(order + 1)]
    if unit:
        coeffs[0] = Fraction(rng.choice([1, 2, 3, -1]), 1)
    return TruncatedSeries(coeffs, order)


def test_ring_axioms_spot_checks():
    rng = random.Random(20240)
    order = 20
    for _ in range(25):
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        c = _random_series(rng, order)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + (b + c) == (a + b) + c
        assert a - a == TruncatedSeries.zero(order)


def test_power_of_a_series_without_low_terms():
    # a series of valuation v to the power e is zero exactly when v e > order
    rng = random.Random(8)
    x = TruncatedSeries.x(15)
    for v in (1, 2, 3, 5):
        a = _random_series(rng, 15) * x**v
        product = TruncatedSeries.one(15)
        for e in range(18):
            assert a**e == product, (v, e)
            product = product * a
        assert a ** (15 // v + 1) == TruncatedSeries.zero(15)


def test_power_matches_repeated_multiplication():
    rng = random.Random(7)
    a = _random_series(rng, 15)
    product = TruncatedSeries.one(15)
    for e in range(21):
        assert a**e == product, e
        product = product * a


def test_unit_division_roundtrip():
    rng = random.Random(99)
    for _ in range(10):
        a = _random_series(rng, 18)
        b = _random_series(rng, 18, unit=True)
        assert (a / b) * b == a


def test_division_by_nonunit_rejected():
    a = TruncatedSeries.one(8)
    x = TruncatedSeries.x(8)
    with pytest.raises(DomainError):
        a / x


def test_scalar_arithmetic():
    x = TruncatedSeries.x(6)
    s = 2 * x + 1
    assert s.coeff(0) == 1 and s.coeff(1) == 2
    assert (s - 1).coeff(0) == 0
    assert (s / 2).coeff(1) == 1


def test_constructor_pads_and_truncates():
    s = TruncatedSeries([1, 2, 3, 4, 5], 2)
    assert s.coeffs == (1, 2, 3)
    s = TruncatedSeries([1], 3)
    assert s.coeffs == (1, 0, 0, 0)
    with pytest.raises(DomainError):
        s.coeff(9)


def test_order_mismatch_rejected():
    with pytest.raises(DomainError):
        TruncatedSeries.one(5) + TruncatedSeries.one(6)


def test_solve_T_matches_closed_form_counts():
    for k in (2, 3):
        T = solve_T(k, 40)
        table = CountTable(k, 40)
        for n in range(1, 41):
            assert T.labeled(n) == table.tree_count(n)


def test_domain_errors():
    with pytest.raises(DomainError):
        solve_T(1, 10)
    with pytest.raises(DomainError):
        solve_T(2, 0)
    with pytest.raises(DomainError):
        oracle_R(2, -1, 5)
    with pytest.raises(DomainError, match="rank index"):  # refused before T is solved
        oracle_M(2, 1.5, 8)
    with pytest.raises(DomainError):
        TruncatedSeries.one(4) ** -2


@pytest.mark.parametrize(
    "make",
    [
        lambda: solve_T(2, True),
        lambda: solve_T(2, 2.5),
        lambda: solve_T(2, 4.0),
        lambda: solve_T(2.0, 4),
        lambda: solve_T(True, 4),
        lambda: solve_T("2", 4),
        lambda: TruncatedSeries([1, 2], 1.5),
        lambda: TruncatedSeries([1, 2], True),
        lambda: oracle_R(2, 1.5, 8),
        lambda: oracle_M(2, 1.5, 8),
        lambda: oracle_M(2, True, 8),
        lambda: verify_theorem_decomposition(2, 1.5, 8),
    ],
    ids=["order-bool", "order-float", "order-integral-float", "k-float", "k-bool", "k-str",
         "series-order-float", "series-order-bool", "oracle_R-rank-float",
         "oracle_M-rank-float", "oracle_M-rank-bool", "decomposition-rank-float"],
)
def test_non_integer_k_and_order_rejected(make):
    # prime the memo with the int keys these compare equal to: a typed memo
    # must not hand back solve_T(2, 1) for solve_T(2, True)
    solve_T(2, 1), solve_T(2, 4)
    with pytest.raises(DomainError, match="must be an integer"):
        make()


def test_factorial_scaling_consistency():
    # labeled(n) should be coeff(n) * n!
    T = solve_T(2, 8)
    for n in range(9):
        assert T.labeled(n) == T.coeff(n) * factorial(n)


# ------------------------------------------- schoolbook Fraction references


def _ref_mul(a, b):
    """The schoolbook product, one Fraction multiply-add per pair of terms."""
    N = a.order
    out = [Fraction(0)] * (N + 1)
    for i in range(N + 1):
        if a.coeffs[i]:
            for j in range(N + 1 - i):
                if b.coeffs[j]:
                    out[i + j] += a.coeffs[i] * b.coeffs[j]
    return TruncatedSeries(out, N)


def _ref_div(a, d):
    """The schoolbook quotient: out_n = (a_n - sum_{j>=1} d_j out_{n-j}) / d_0."""
    N = a.order
    out = [Fraction(0)] * (N + 1)
    for n in range(N + 1):
        acc = a.coeffs[n]
        for j in range(1, n + 1):
            if d.coeffs[j]:
                acc -= d.coeffs[j] * out[n - j]
        out[n] = acc / d.coeffs[0]
    return TruncatedSeries(out, N)


def _ref_solve_T(k, order):
    """Fixed-point iteration from T = x; each pass fixes at least k-1 more terms."""
    x = TruncatedSeries.x(order)
    T = x
    for _ in range(order + 1):
        power = T
        for _ in range(k - 1):
            power = _ref_mul(power, T)
        nxt = x + power * Fraction(1, factorial(k))
        if nxt == T:
            return T
        T = nxt
    raise AssertionError("the reference iteration did not stabilize")


@pytest.mark.parametrize("order", [0, 1, 20])
def test_products_and_quotients_match_schoolbook(order):
    rng = random.Random(1000 + order)
    negatives = 0
    for d0 in (Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)):
        for _ in range(8):
            a = _random_series(rng, order)
            b = _random_series(rng, order)
            negatives += sum(c < 0 for c in a.coeffs + b.coeffs)
            assert a * b == _ref_mul(a, b)
            assert a * a == _ref_mul(a, a)
            d = TruncatedSeries((d0,) + b.coeffs[1:], order)
            assert a / d == _ref_div(a, d)
            assert a / d0 == _ref_div(a, TruncatedSeries([d0], order))
    assert negatives


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("order", [1, 20])
def test_vertex_factor_matches_schoolbook(k, order):
    one = TruncatedSeries.one(order)
    T = _ref_solve_T(k, order)
    power = one
    for _ in range(k - 1):
        power = _ref_mul(power, T)
    f = power * Fraction(1, factorial(k - 1))
    assert seriesoracle._vertex_factor(k, order) == _ref_div(one, one - f)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_vertex_factor_refuses_order_zero_like_solve_T(k):
    with pytest.raises(DomainError, match="truncation order"):
        seriesoracle._vertex_factor(k, 0)


@pytest.mark.parametrize("k,order", [(2, 64), (3, 64), (4, 64), (5, 30)])
def test_solve_T_matches_fixed_point_iteration(k, order):
    assert solve_T(k, order) == _ref_solve_T(k, order)


def test_solve_T_fixed_point_check_fires(monkeypatch):
    real = seriesoracle._tree_numerators

    def corrupted(k, order):
        S = real(k, order)
        S[order] += 1
        return S

    monkeypatch.setattr(seriesoracle, "_tree_numerators", corrupted)
    solve_T.cache_clear()
    try:
        with pytest.raises(ConsistencyError, match="fixed point"):
            solve_T(3, 20)
    finally:
        solve_T.cache_clear()
        seriesoracle._vertex_factor.cache_clear()


def test_division_by_zero_scalar_and_bool_power_rejected():
    s = TruncatedSeries([1, 2, 3], 2)
    with pytest.raises(DomainError):
        s / 0
    with pytest.raises(DomainError):
        s / Fraction(0)
    with pytest.raises(DomainError, match="must be an integer"):
        s**True
    with pytest.raises(DomainError, match="must be an integer"):
        s**2.0
