"""Independent verification path: exact-rational truncated power series.

The tree series T(x) satisfies T = x + T^k/k! and is the compositional
inverse of F(x) = x - x^k/k!.  This module solves it in one pass on truncated
series with :class:`fractions.Fraction` coefficients (products, and the one
division per (k, order), V = 1/(1 - T^(k-1)/(k-1)!), run on integers over a
common denominator), checks T(F(x)) = x on integers, and evaluates every
generating-function identity used elsewhere coefficientwise, so any
disagreement with the counting module is detected bit-exactly.

No floating point appears anywhere here; that is the whole point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
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
    """A formal power series truncated at a fixed order, with exact coefficients.

    Arithmetic is closed under the truncation: all terms above ``order`` are
    dropped.  Division requires a unit (nonzero constant term) denominator.
    Instances are immutable.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs, order: int):
        require_int(order, "truncation order", 0)
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs[: order + 1]]
        cs.extend([Fraction(0)] * (order + 1 - len(cs)))
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls([1], order)

    @classmethod
    def x(cls, order: int) -> "TruncatedSeries":
        return cls([0, 1], order)

    def coeff(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise DomainError(f"coefficient index {n} outside 0..{self.order}")
        return self.coeffs[n]

    def labeled(self, n: int) -> Fraction:
        """n! times the coefficient of x^n (the labeled count when integral)."""
        return self.coeff(n) * factorial(n)

    def _match(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise DomainError("truncation orders differ")

    def __add__(self, other):
        if isinstance(other, TruncatedSeries):
            self._match(other)
            return TruncatedSeries(
                [a + b for a, b in zip(self.coeffs, other.coeffs)], self.order
            )
        cs = list(self.coeffs)
        cs[0] += other
        return TruncatedSeries(cs, self.order)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries([-a for a in self.coeffs], self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The truncated product.  A series operand becomes integers over one common
        denominator, so each coefficient is one integer dot product, then one Fraction."""
        if not isinstance(other, TruncatedSeries):
            q = Fraction(other)
            return TruncatedSeries([a * q for a in self.coeffs], self.order)
        self._match(other)
        (u, du), (v, dv) = _numerators(self.coeffs), _numerators(other.coeffs)
        return TruncatedSeries(
            [Fraction(sum(map(mul, u[: n + 1], v[n::-1])), du * dv) for n in range(len(u))],
            self.order,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int):
        require_int(e, "series power", 0)
        if e == 0:
            return TruncatedSeries.one(self.order)
        if not any(self.coeffs[: self.order // e + 1]):  # valuation * e > order
            return TruncatedSeries.zero(self.order)
        base = self
        while not e & 1:
            base = base * base
            e >>= 1
        result = base  # the lowest set bit; square only while higher bits remain
        e >>= 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    def __truediv__(self, other):
        """Division by a unit (nonzero constant term), exact.  Over common denominators,
        self = u/du and other = v/dv, [x^n] of the quotient is (dv/du) q_n/v_0^(n+1)
        with the integers q_n = u_n v_0^n - sum_{j=1..n} v_j v_0^(j-1) q_(n-j)."""
        if not isinstance(other, TruncatedSeries):
            other = TruncatedSeries([other], self.order)
        self._match(other)
        (u, du), (v, dv) = _numerators(self.coeffs), _numerators(other.coeffs)
        v0 = v[0]
        if v0 == 0:
            raise DomainError("series division requires a unit denominator")
        w = [vj * v0 ** (j - 1) for j, vj in enumerate(v) if j]  # w[j-1] = v_j v_0^(j-1)
        q: list[int] = []
        for un in u:
            q.append(un * v0 ** len(q) - sum(map(mul, w, reversed(q))))
        return TruncatedSeries(
            [Fraction(dv * qn, du * v0 ** (n + 1)) for n, qn in enumerate(q)], self.order
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[: min(8, self.order + 1)])
        tail = ", ..." if self.order > 7 else ""
        return f"TruncatedSeries([{head}{tail}], order={self.order})"


def _numerators(coeffs: tuple[Fraction, ...]) -> tuple[list[int], int]:
    """Integers u and d with coeffs[n] = u[n]/d, d the lcm of the denominators."""
    d = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (d // c.denominator) for c in coeffs], d


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
    """The tree series through ``order``: the unique solution of T = x + T^k/k!
    with zero constant term, in one pass, coefficient by coefficient
    (:func:`_tree_numerators`); :class:`ConsistencyError` unless it then is a
    fixed point.  Results are immutable and memoized on (k, order), so the
    identities that share one series solve it once; the memo is typed, so
    ``True`` or ``2.0`` never hits an entry made for 1 or 2 and is refused below.
    """
    require_int(k, "branching factor", 2)
    require_int(order, "truncation order", 1)
    kfac = factorial(k)
    S = _tree_numerators(k, order)
    T = TruncatedSeries([Fraction(s * kfac, kfac**n) for n, s in enumerate(S)], order)
    if TruncatedSeries.x(order) + (T**k) * Fraction(1, kfac) != T:
        raise ConsistencyError("the tree series is not a fixed point of T = x + T^k/k!")
    return T


@lru_cache(maxsize=8, typed=True)
def _vertex_factor(k: int, order: int) -> TruncatedSeries:
    """V = 1/(1 - T^(k-1)/(k-1)!) through ``order``, the one series division of
    the oracle, memoized like :func:`solve_T`: M_i = R_i V for every i."""
    T = solve_T(k, order)
    one = TruncatedSeries.one(order)
    return one / (one - (T ** (k - 1)) * Fraction(1, factorial(k - 1)))


def _times_power(s: TruncatedSeries, base, e: int) -> TruncatedSeries:
    """s * base^e, forming no power when s is zero (base^e may have billions of digits)."""
    return s * base**e if any(s.coeffs) else s


def verify_inverse(k: int, order: int) -> bool:
    """Check that T(F(x)) = x through ``order``, where F(x) = x - x^k/k!: the
    other side of the inverse from the fixed point :func:`solve_T` checks.  On integers,
    by x = k! y: T_0 = 0, every S_n = k!^(n-1) [x^n]T is an integer, and S(phi(y)) = y
    for phi(y) = y - k!^(k-2) y^k, by Horner's rule: one shift and one scaled subtraction."""
    T = solve_T(k, order)
    kfac = factorial(k)
    S = [t * kfac ** (n - 1) for n, t in enumerate(T.coeffs) if n]
    if T.coeffs[0] or any(s.denominator != 1 for s in S):
        return False
    scale = kfac ** (k - 2)
    acc = [0] * (order + 1)  # [y^n] of S(phi(y)) so far
    for s in reversed(S):
        acc[0] += s.numerator
        shifted = [0] + acc[:-1]  # y * acc
        acc = [a - scale * b for a, b in zip(shifted, [0] * (k - 1) + shifted)]
    return acc == [0, 1] + [0] * (order - 1)


def oracle_R(k: int, i: int, order: int) -> TruncatedSeries:
    """Root-rank series: trees whose root has rank >= i, as T^(k^i) / k!^(c_i).
    Zero, with no k!^(c_i) formed, once k^i > order."""
    require_int(i, "rank index", 0)
    T = solve_T(k, order)
    return _times_power(T ** (k**i), Fraction(1, factorial(k)), c_index(k, i))


def oracle_M(k: int, i: int, order: int) -> TruncatedSeries:
    """Rank->=i vertex series: R_i / (1 - T^(k-1)/(k-1)!) = R_i V, with V memoized.

    n! times its x^n coefficient counts vertices of rank at least i over all
    trees on {1..n}.
    """
    return oracle_R(k, i, order) * _vertex_factor(k, order)


def verify_theorem_decomposition(k: int, i: int, order: int) -> bool:
    """Check, coefficientwise, the split of T^(k^i)/(1 - T^(k-1)/(k-1)!)
    into a polynomial part in T plus (k-1)!^(c_i) times the all-vertex series.

    With f = T^(k-1)/(k-1)! and V = 1/(1 - f), T^(k^i) V = (k-1)!^(c_i) T (V - sum_{j<c_i} f^j)
    from f^c - 1 = (f-1)(f^(c-1) + ... + 1).  The sum stops at the first power of f that
    vanishes through ``order``, so the work is bounded by the order, not by c_i.
    """
    require_int(i, "rank index", 0)
    T, V = solve_T(k, order), _vertex_factor(k, order)
    c = c_index(k, i)
    f = (T ** (k - 1)) * Fraction(1, factorial(k - 1))
    geo, f_pow = TruncatedSeries.zero(order), TruncatedSeries.one(order)
    for _ in range(c):
        if not any(f_pow.coeffs):
            break
        geo = geo + f_pow
        f_pow = f_pow * f
    return (T ** (k**i)) * V == _times_power(T * (V - geo), factorial(k - 1), c)
