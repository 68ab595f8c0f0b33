import random
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial

import pytest

from phylorank import cli, seriesoracle
from phylorank.errors import ConsistencyError, DomainError
from phylorank.exactcount import CountTable, c_index, is_admissible
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
    assert [T.coeff(n) for n in range(6)] == [
        0, 1, Fraction(1, 2), Fraction(1, 2), Fraction(5, 8), Fraction(7, 8)]


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
    # series with one coefficient changed must fail it: k!^n [x^n]T plus one
    # is no multiple of k!
    coeffs = list(solve_T(k, 20).coeffs)
    coeffs[n] += 1
    monkeypatch.setattr(seriesoracle, "solve_T", lambda k, order: TruncatedSeries(k, coeffs))
    assert not verify_inverse(k, 20)


@pytest.mark.parametrize("k, n", [(2, 1), (2, 6), (3, 7), (3, 4), (3, 20), (5, 9)])
def test_verify_inverse_fires_on_an_integral_change(monkeypatch, cleared_memos, k, n):
    # S_n = k!^(n-1) [x^n]T plus one is still an integer, so only the
    # composition S(phi(y)) = y can refuse it
    coeffs = list(solve_T(k, 20).coeffs)
    coeffs[n] += factorial(k)
    monkeypatch.setattr(seriesoracle, "solve_T", lambda k, order: TruncatedSeries(k, coeffs))
    assert not verify_inverse(k, 20)


@pytest.mark.parametrize("k", [2, 3])
def test_verify_inverse_fires_on_a_constant_term(monkeypatch, cleared_memos, k):
    # a multiple of k!, so only the constant-term check can refuse it
    coeffs = [factorial(k)] + list(solve_T(k, 20).coeffs[1:])
    monkeypatch.setattr(seriesoracle, "solve_T", lambda k, order: TruncatedSeries(k, coeffs))
    assert not verify_inverse(k, 20)


def test_one_verify_divides_once_and_the_inverse_forms_no_product(
        monkeypatch, capsys, cleared_memos):
    calls = Counter()

    def spy(name):
        real = getattr(seriesoracle, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    for name in ("_unit_inverse", "_product"):
        monkeypatch.setattr(seriesoracle, name, spy(name))
    assert cli.main(["verify", "--k", "3", "--n-max", "1", "--order", "64"]) == 0
    assert capsys.readouterr().out.endswith("\nPASS\n")
    assert calls["_unit_inverse"] == 1 and calls["_product"]
    calls.clear()
    assert verify_inverse(3, 64)  # on the T the run above memoized
    assert not calls


def test_rank_functions_are_bounded_by_the_order(cleared_memos):
    # c_40 = (3^40 - 1)/2, so 6^(c_40) alone would not fit in memory; every
    # series here is zero through order 8 or a geometric sum of 5 terms
    start = time.process_time()
    zero = TruncatedSeries(3, [0] * 9)
    assert oracle_R(3, 40, 8) == zero and oracle_M(3, 40, 8) == zero
    assert verify_theorem_decomposition(3, 40, 8)
    assert time.process_time() - start < 0.1


def test_a_huge_rank_index_forms_no_power(cleared_memos, monkeypatch):
    # at i = 10^12, k^i and c_i could never be formed; the rank functions must
    # decide from 2^i > order that their series are zero, with no power of k
    # and no c_index, which would fail here
    class K(int):
        def __pow__(self, e, mod=None):
            if e > 64:
                raise AssertionError(f"k**{e} formed")
            return int.__pow__(self, e, mod)

    def refuse(k, i):
        raise AssertionError(f"c_index({k}, {i}) formed")

    monkeypatch.setattr(seriesoracle, "c_index", refuse)
    zero = TruncatedSeries(3, [0] * 9)
    assert oracle_R(K(3), 10**12, 8) == zero and oracle_M(K(3), 10**12, 8) == zero
    assert verify_theorem_decomposition(K(3), 10**12, 8)


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
        assert type(value) is int


def test_an_inexact_lift_is_a_consistency_error():
    # [y^5]T one too high: 5! (6^5/12 + 1) leaves 5! modulo 6^5
    coeffs = list(solve_T(3, 9).coeffs)
    coeffs[5] += 1
    broken = TruncatedSeries(3, coeffs)
    assert broken.labeled(4) == solve_T(3, 9).labeled(4)
    with pytest.raises(ConsistencyError, match=r"k=3 series at n=5: n! \[x\^n\] is no integer"):
        broken.labeled(5)


# ------------------------------------------------------------ integer series


def _random_ints(rng, order, unit=False):
    coeffs = [rng.randrange(-6, 7) for _ in range(order + 1)]
    if unit:
        coeffs[0] = 1
    return coeffs


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def test_ring_axioms_spot_checks():
    rng = random.Random(20240)
    order = 20
    for _ in range(25):
        a, b, c = (_random_ints(rng, order) for _ in range(3))
        assert seriesoracle._product(_add(a, b), c) == _add(
            seriesoracle._product(a, c), seriesoracle._product(b, c))
        assert seriesoracle._product(seriesoracle._product(a, b), c) == seriesoracle._product(
            a, seriesoracle._product(b, c))
        assert seriesoracle._product(a, b) == seriesoracle._product(b, a)


def test_power_of_a_series_without_low_terms():
    # a series of valuation v to the power e is zero exactly when v e > order
    rng = random.Random(8)
    for v in (1, 2, 3, 5):
        a = [0] * v + _random_ints(rng, 15 - v, unit=True)
        product = a
        for e in range(1, 18):
            assert seriesoracle._power(a, e) == product, (v, e)
            assert any(product) == (v * e <= 15), (v, e)
            product = seriesoracle._product(product, a)


def test_power_matches_repeated_multiplication():
    rng = random.Random(7)
    a = _random_ints(rng, 15)
    product = a
    for e in range(1, 21):
        assert seriesoracle._power(a, e) == product, e
        product = seriesoracle._product(product, a)


def test_unit_division_roundtrip():
    rng = random.Random(99)
    for _ in range(10):
        a = _random_ints(rng, 18)
        b = _random_ints(rng, 18, unit=True)
        quotient = seriesoracle._product(a, seriesoracle._unit_inverse(b))
        assert seriesoracle._product(quotient, b) == a


def test_division_by_nonunit_rejected():
    for bad in ([0, 1, 2], [2, 1, 0], [-1, 0]):
        with pytest.raises(DomainError, match="constant term 1"):
            seriesoracle._unit_inverse(bad)


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
    for n in (-1, 4):
        with pytest.raises(DomainError, match="coefficient index"):
            TruncatedSeries(2, [0, 1, 1, 3]).coeff(n)
        with pytest.raises(DomainError, match="coefficient index"):
            TruncatedSeries(2, [0, 1, 1, 3]).labeled(n)


@pytest.mark.parametrize(
    "make",
    [
        lambda: solve_T(2, True),
        lambda: solve_T(2, 2.5),
        lambda: solve_T(2, 4.0),
        lambda: solve_T(2.0, 4),
        lambda: solve_T(True, 4),
        lambda: solve_T("2", 4),
        lambda: TruncatedSeries(1.5, [1, 2]),
        lambda: TruncatedSeries(True, [1, 2]),
        lambda: oracle_R(2, 1.5, 8),
        lambda: oracle_M(2, 1.5, 8),
        lambda: oracle_M(2, True, 8),
        lambda: verify_theorem_decomposition(2, 1.5, 8),
    ],
    ids=["order-bool", "order-float", "order-integral-float", "k-float", "k-bool", "k-str",
         "series-k-float", "series-k-bool", "oracle_R-rank-float",
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
    N = len(a) - 1
    out = [Fraction(0)] * (N + 1)
    for i in range(N + 1):
        if a[i]:
            for j in range(N + 1 - i):
                if b[j]:
                    out[i + j] += a[i] * b[j]
    return out


def _ref_div(a, d):
    """The schoolbook quotient: out_n = (a_n - sum_{j>=1} d_j out_{n-j}) / d_0."""
    out = []
    for n in range(len(a)):
        acc = Fraction(a[n])
        for j in range(1, n + 1):
            if d[j]:
                acc -= d[j] * out[n - j]
        out.append(acc / d[0])
    return out


@cache
def _ref_solve_T(k, order):
    """Fixed-point iteration from T = x; each pass fixes at least k-1 more terms."""
    x = [Fraction(0), Fraction(1)] + [Fraction(0)] * (order - 1)
    T = x
    for _ in range(order + 1):
        power = T
        for _ in range(k - 1):
            power = _ref_mul(power, T)
        nxt = [a + b / factorial(k) for a, b in zip(x, power)]
        if nxt == T:
            return T
        T = nxt
    raise AssertionError("the reference iteration did not stabilize")


def _coeffs(series):
    return [series.coeff(n) for n in range(series.order + 1)]


@pytest.mark.parametrize("order", [0, 1, 20])
def test_products_and_quotients_match_schoolbook(order):
    rng = random.Random(1000 + order)
    negatives = 0
    for _ in range(32):
        a = _random_ints(rng, order)
        b = _random_ints(rng, order)
        d = _random_ints(rng, order, unit=True)
        negatives += sum(c < 0 for c in a + b + d)
        assert seriesoracle._product(a, b) == _ref_mul(a, b)
        assert seriesoracle._product(a, a) == _ref_mul(a, a)
        one = [1] + [0] * order
        assert seriesoracle._unit_inverse(d) == _ref_div(one, d)
        assert seriesoracle._product(a, seriesoracle._unit_inverse(d)) == _ref_div(a, d)
    assert negatives


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("order", [1, 20, 64])
def test_vertex_factor_matches_schoolbook(k, order):
    # the vertex factor V = 1/(1 - T^(k-1)/(k-1)!) and every series the oracle
    # builds with it, T, R_i = T^(k^i)/k!^(c_i) and M_i = R_i V, each against
    # the schoolbook Fraction series, coefficient by coefficient
    one = [Fraction(1)] + [Fraction(0)] * order
    T = _ref_solve_T(k, order)
    power = one
    for _ in range(k - 1):
        power = _ref_mul(power, T)
    V = _ref_div(one, [a - b / factorial(k - 1) for a, b in zip(one, power)])
    assert _coeffs(seriesoracle._vertex_factor(k, order)) == V
    assert _coeffs(solve_T(k, order)) == T
    R = T
    for i in range(4):
        scaled = [r / factorial(k) ** c_index(k, i) for r in R]
        assert _coeffs(oracle_R(k, i, order)) == scaled, i
        assert _coeffs(oracle_M(k, i, order)) == _ref_mul(scaled, V), i
        power = R
        for _ in range(k - 1):
            power = _ref_mul(power, R)
        R = power  # T^(k^(i+1))


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_vertex_factor_refuses_order_zero_like_solve_T(k):
    with pytest.raises(DomainError, match="truncation order"):
        seriesoracle._vertex_factor(k, 0)


@pytest.mark.parametrize("k,order", [(2, 64), (3, 64), (4, 64), (5, 30)])
def test_solve_T_matches_fixed_point_iteration(k, order):
    assert _coeffs(solve_T(k, order)) == _ref_solve_T(k, order)


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
