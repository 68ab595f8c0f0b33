"""Independent verification path: truncated power series on integers.

The tree series T(x) solves T = x + T^k/k! and inverts F(x) = x - x^k/k!.  Every
series is held in y = x/k!, as the integers k!^n [x^n]A, and formed with one truncated
product and one inverse of a series with constant term 1.  Each generating-function
identity used elsewhere is checked coefficientwise, so any disagreement with the
counting module shows bit-exactly.  No floating point appears here; that is the point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from .errors import ConsistencyError, DomainError, require_int
from .exactcount import c_index

__all__ = [
    "TruncatedSeries",
    "solve_T",
    "verify_inverse",
    "oracle_R",
    "oracle_M",
    "verify_theorem_decomposition",
]


class TruncatedSeries:
    """A power series A(x) through x^order, held as the integers
    ``coeffs[n]`` = k!^n [x^n]A, its coefficients in y = x/k!.  Immutable."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs):
        require_int(k, "branching factor", 2)
        self.k = k
        self.coeffs = tuple(coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _scaled(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise DomainError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def coeff(self, n: int) -> Fraction:
        """[x^n] of the series, exactly."""
        return Fraction(self._scaled(n), factorial(self.k) ** n)

    def labeled(self, n: int) -> int:
        """n! [x^n], the labeled count; :class:`ConsistencyError` unless an integer."""
        count, rest = divmod(self._scaled(n) * factorial(n), factorial(self.k) ** n)
        if rest:
            raise ConsistencyError(f"lifting a k={self.k} series at n={n}: n! [x^n] is no integer "
                                   f"({rest} left modulo k!^n = {factorial(self.k) ** n})")
        return count

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.k == other.k and self.coeffs == other.coeffs


def _product(a, b) -> list[int]:
    """The product of two integer series of one length, truncated to it."""
    return [sum(map(mul, a[: n + 1], b[n::-1])) for n in range(len(a))]


def _unit_inverse(a) -> list[int]:
    """1/a for an integer series with constant term 1, truncated to its length:
    q_0 = 1 and q_n = -sum_{j=1..n} a_j q_(n-j), all integers."""
    if a[0] != 1:
        raise DomainError("series inverse requires constant term 1")
    q = [1]
    for n in range(1, len(a)):
        q.append(-sum(map(mul, a[1 : n + 1], reversed(q))))
    return q


def _power(a, e: int) -> list[int]:
    """a^e for e >= 1, by squaring."""
    if e == 1:
        return list(a)
    half = _power(_product(a, a), e // 2)
    return _product(half, a) if e & 1 else half


def _tree_numerators(k: int, order: int) -> list[int]:
    """S_n = k!^(n-1) [x^n]T for n = 0..order, in one pass: S(y) = T(k! y)/k!
    solves S = y + k!^(k-2) S^k, and [y^n]S^j reads S only below n."""
    scale = factorial(k) ** (k - 2)
    S = [0, 1] + [0] * (order - 1)
    powers = [S] + [[0] * (order + 1) for _ in range(k - 1)]  # S^1 .. S^k
    for n in range(2, order + 1):
        for lower, upper in zip(powers, powers[1:]):
            upper[n] = sum(map(mul, S[1:n], lower[n - 1 : 0 : -1]))
        S[n] = scale * powers[-1][n]
    return S


@lru_cache(maxsize=8, typed=True)
def solve_T(k: int, order: int) -> TruncatedSeries:
    """The tree series through ``order``, the solution of T = x + T^k/k! with zero
    constant term, as k! S (:func:`_tree_numerators`); :class:`ConsistencyError`
    unless S = y + k!^(k-2) S^k.  Memoized on (k, order), so the identities share
    one solve; the memo is typed, so ``True`` or ``2.0`` never hits an entry made
    for 1 or 2 and is refused below."""
    require_int(k, "branching factor", 2)
    require_int(order, "truncation order", 1)
    S, scale = _tree_numerators(k, order), factorial(k) ** (k - 2)
    fixed = [scale * s for s in _power(S, k)]
    fixed[1] += 1
    if fixed != S:
        raise ConsistencyError("the tree series is not a fixed point of T = x + T^k/k!")
    return TruncatedSeries(k, [factorial(k) * s for s in S])


def _tree(k: int, order: int) -> list[int]:
    """S = T/k! in y, read from :func:`solve_T`."""
    return [t // factorial(k) for t in solve_T(k, order).coeffs]


def _branch_factor(k: int, S: list[int]) -> list[int]:
    """f = T^(k-1)/(k-1)! in y: k k!^(k-2) S^(k-1)."""
    scale = k * factorial(k) ** (k - 2)
    return [scale * s for s in _power(S, k - 1)]


@lru_cache(maxsize=8, typed=True)
def _vertex_factor(k: int, order: int) -> TruncatedSeries:
    """V = 1/(1 - T^(k-1)/(k-1)!) through ``order``, the one series inverse of
    the oracle, memoized like :func:`solve_T`: M_i = R_i V for every i."""
    f = _branch_factor(k, _tree(k, order))
    return TruncatedSeries(k, _unit_inverse([1 - f[0]] + [-c for c in f[1:]]))


def verify_inverse(k: int, order: int) -> bool:
    """Check that T(F(x)) = x through ``order``, where F(x) = x - x^k/k!: the
    other side of the inverse from the fixed point :func:`solve_T` checks.  In y:
    T_0 = 0, every T_n is a multiple of k!, and S(phi(y)) = y for S = T/k! and
    phi(y) = y - k!^(k-2) y^k, by Horner's rule: one shift and one scaled subtraction."""
    T = solve_T(k, order).coeffs
    kfac = factorial(k)
    if T[0] or any(t % kfac for t in T):
        return False
    scale = kfac ** (k - 2)
    acc = [0] * (order + 1)  # [y^n] of S(phi(y)) so far
    for t in reversed(T[1:]):
        acc[0] += t // kfac
        shifted = [0] + acc[:-1]  # y * acc
        acc = [a - scale * b for a, b in zip(shifted, [0] * (k - 1) + shifted)]
    return acc == [0, 1] + [0] * (order - 1)


def oracle_R(k: int, i: int, order: int) -> TruncatedSeries:
    """Root-rank series: trees whose root has rank >= i, T^(k^i) / k!^(c_i), held in y
    as k!^(k^i - c_i) S^(k^i); zero, with no power formed, once 2^i or k^i > order."""
    require_int(i, "rank index", 0)
    S, e = _tree(k, order), k**i if i < order.bit_length() else order + 1
    if e > order:
        return TruncatedSeries(k, [0] * (order + 1))
    scale = factorial(k) ** (e - c_index(k, i))
    return TruncatedSeries(k, [scale * s for s in _power(S, e)])


def oracle_M(k: int, i: int, order: int) -> TruncatedSeries:
    """Rank->=i vertex series R_i / (1 - T^(k-1)/(k-1)!) = R_i V, with V memoized: n! [x^n]
    counts the vertices of rank at least i over all trees on {1..n}."""
    R, V = oracle_R(k, i, order), _vertex_factor(k, order)
    return TruncatedSeries(k, _product(R.coeffs, V.coeffs))


def verify_theorem_decomposition(k: int, i: int, order: int) -> bool:
    """Check, coefficientwise, the split of T^(k^i)/(1 - T^(k-1)/(k-1)!)
    into a polynomial part in T plus (k-1)!^(c_i) times the all-vertex series.

    With f = T^(k-1)/(k-1)! and V = 1/(1 - f), T^(k^i) V = (k-1)!^(c_i) T (V - sum_{j<c_i} f^j)
    from f^c - 1 = (f-1)(f^(c-1) + ... + 1).  The sum stops at the first power of f that
    vanishes through ``order``, no power is formed for a side that is zero, and past
    i = order.bit_length() neither k^i nor c_i is formed (order + 1 stands for both,
    as both exceed the order), so the work is bounded by the order, not by i."""
    require_int(i, "rank index", 0)
    S, V = _tree(k, order), _vertex_factor(k, order).coeffs
    e, c = (k**i, c_index(k, i)) if i <= order.bit_length() else (order + 1, order + 1)
    T, f = [factorial(k) * s for s in S], _branch_factor(k, S)
    left = _product(_power(T, e), V) if e <= order else [0] * (order + 1)
    rest, f_pow = list(V), [1] + [0] * order  # V - sum_{j<c} f^j, and f^j
    for _ in range(c):
        if not any(f_pow):
            break
        rest = [r - p for r, p in zip(rest, f_pow)]
        f_pow = _product(f_pow, f)
    right = _product(T, rest)
    if any(right):
        scale = factorial(k - 1) ** c
        right = [scale * r for r in right]
    return left == right
