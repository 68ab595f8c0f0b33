"""Exact counting of k-phylogenetic trees and their vertex-rank statistics.

Everything here is integer or rational arithmetic, bit-exact at any size.
Each counting sequence is computed along two independent routes:

* closed forms, each one term of the family g_p(n) = n! [x^n] T^p, the
  ordered p-forest counts, whose coefficients Lagrange inversion gives
  (``coeff_T_pow``); a table builds each g_p along n by its exact term
  ratio, from g_p(p) = p! (``_forest_count_array``), and
* labelled (binomial) convolution identities over labeled structures
  (root removal: a tree is a root plus an unordered set of k subtrees).

A :class:`CountTable` stores the closed forms and checks each sequence
against its identity before storing it; the class docstring says which
identity checks which sequence, over which n, and how.  Any disagreement or
inexact division raises :class:`ConsistencyError`.

Notation used throughout: a tree on n leaves exists iff (n-1) is divisible by
(k-1); then s = (n-1)/(k-1) counts internal vertices and k*s+1 all vertices.
The rank-i exponent is c_i = (k^i - 1)/(k - 1), satisfying c_{i+1} = k*c_i + 1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, comb, factorial, gcd, log2, prod
from operator import mul
from typing import Sequence

from .errors import ConsistencyError, DomainError, TableCoverageError, require_int
from .treecore import RankCensus

__all__ = [
    "is_admissible",
    "internal_vertices",
    "c_index",
    "coeff_T_pow",
    "tree_count_closed",
    "MAX_POWER_BITS",
    "MAX_TABLE_BYTES",
    "rank_ge_limit",
    "rank_eq_limit",
    "LimitEntry",
    "LimitDistribution",
    "limit_distribution",
    "LogConcavityReport",
    "log_concavity_check",
    "log_concavity_over_ranks",
    "negligibility_ratio",
    "CountTable",
]


def _check_k(k: int) -> None:
    require_int(k, "branching factor", 2)


def _check_n(n: int) -> None:
    require_int(n, "leaf count", 1)


def _check_rank(i: int, name: str = "rank index") -> None:
    require_int(i, name, 0)


def _exact_div(num: int, den: int, what: str) -> int:
    if den == 1:
        return num  # divmod would copy num; f_1 = g_1 / 1! shares t's integers
    q, r = divmod(num, den)
    if r:
        raise ConsistencyError(f"inexact division while computing {what}: {num} / {den}")
    return q


def is_admissible(k: int, n: int) -> bool:
    """True iff k-phylogenetic trees on n leaves exist: (n-1) divisible by (k-1)."""
    _check_k(k)
    _check_n(n)
    return (n - 1) % (k - 1) == 0


def internal_vertices(k: int, n: int) -> int:
    """The internal-vertex count s = (n-1)/(k-1); raises for inadmissible n."""
    if not is_admissible(k, n):
        raise DomainError(f"n={n} is inadmissible for k={k}: no trees exist")
    return (n - 1) // (k - 1)


def c_index(k: int, i: int) -> int:
    """The exponent c_i = (k^i - 1)/(k - 1) = 1 + k + ... + k^(i-1)."""
    _check_k(k)
    _check_rank(i)
    return (k**i - 1) // (k - 1)


def coeff_T_pow(k: int, power: int, n: int) -> Fraction:
    """[x^n] of the power'th power of the tree series, as an exact rational.

    Nonzero only when n - power = s*(k-1) for an integer s >= 0, in which case
    the value is  power/(s*(k-1)+power) * C(k*s+power-1, s) / k!^s.
    """
    _check_k(k)
    _check_n(n)
    require_int(power, "series power", 1)
    if n < power or (n - power) % (k - 1) != 0:
        return Fraction(0)
    s = (n - power) // (k - 1)
    num = power * comb(k * s + power - 1, s)
    den = (s * (k - 1) + power) * factorial(k) ** s
    return Fraction(num, den)


def _labeled_pow_count(k: int, power: int, n: int, fact_n: int) -> int:
    """n! * [x^n] T^power: the number of ordered `power`-tuples of disjoint trees
    whose leaf sets partition {1..n}.  Always an integer; exactness asserted."""
    if n < power or (n - power) % (k - 1) != 0:
        return 0
    s = (n - power) // (k - 1)
    num = fact_n * power * comb(k * s + power - 1, s)
    den = (s * (k - 1) + power) * factorial(k) ** s
    return _exact_div(num, den, f"ordered {power}-forest count at n={n}")


def _forest_count_array(k: int, p: int, upto: int) -> list[int]:
    """g_p(n) = n! [x^n] T^p for n = 0..upto, by the exact term ratio.

    With n = (k-1) s + p and N = k s + p - 1 = n + s - 1, the closed form
    p (n-1)! C(N, s) / k!^s is p N! / (s! k!^s).  So g_p(p) = p! and each step
    s -> s+1 (n -> n+k-1) multiplies by (N+1)...(N+k) / ((s+1) k!): a product
    of k small integers, then an exact division by a small integer.
    """
    out = [0] * (upto + 1)
    kfac, g = factorial(k), factorial(p)
    for s, n in enumerate(range(p, upto + 1, k - 1)):
        if s:
            top = k * s + p - 1  # N at this s
            g, r = divmod(g * prod(range(top - k + 1, top + 1)), s * kfac)
            if r:
                raise ConsistencyError(
                    f"ordered {p}-forest count g_{p}({n}) is no integer: the term ratio "
                    f"from n={n - k + 1} leaves remainder {r} modulo {s * kfac}"
                )
        out[n] = g
    return out


def _cauchy_product(u: Sequence[int], v: Sequence[int], upto: int) -> list[int]:
    """w(n) = sum_a u(a) v(n-a) for n <= upto, with u(0) = v(0) = 0.

    A square (``u is v``) multiplies each pair of mirror terms once."""
    out = [0] * (upto + 1)
    for n in range(2, upto + 1):
        if u is v:
            half = n // 2
            acc = 2 * sum(map(mul, u[1:n - half], u[n - 1:half:-1]))
            out[n] = acc + u[half] * u[half] if n % 2 == 0 else acc
        else:
            out[n] = sum(map(mul, u[1:n], v[n - 1:0:-1]))
    return out


def tree_count_closed(k: int, n: int) -> int:
    """The number of k-phylogenetic trees on {1..n}, by the closed form alone."""
    _check_k(k)
    _check_n(n)
    return _labeled_pow_count(k, 1, n, factorial(n))


MAX_POWER_BITS = 1 << 25
"""Largest power k**c_i, in bits (about 33.5 million, 4 MiB), that the limit
functions build.  Criterion 8 of the acceptance suite needs k**c_6 at k=20,
about 14.6 million bits.  Ranks beyond the bound raise :class:`DomainError`."""


def _bounded_c(k: int, i: int) -> int:
    """c_i, refusing any i for which k**c_i would exceed MAX_POWER_BITS bits.

    c_i >= k^(i-1), so a large i is refused before any power of k is formed;
    otherwise k**i is at most 2^64 * k and c_i is computed exactly.
    """
    _check_k(k)
    _check_rank(i)
    if (i - 1) * log2(k) <= 64:
        c = c_index(k, i)
        if c * log2(k) <= MAX_POWER_BITS:
            return c
    raise DomainError(f"k**c_{i} at k={k} would exceed the bound of {MAX_POWER_BITS} bits")


def rank_ge_limit(k: int, i: int) -> Fraction:
    """Limiting fraction of vertices of rank at least i: exactly 1/k^(c_i)."""
    return Fraction(1, k ** _bounded_c(k, i))


def rank_eq_limit(k: int, i: int) -> Fraction:
    """Limiting fraction of vertices of rank exactly i:
    1/k^(c_i) - 1/k^(c_{i+1}) = 1/k^(c_i) - 1/k^(k*c_i + 1)."""
    _bounded_c(k, i + 1)  # refuse before building either power
    return rank_ge_limit(k, i) - rank_ge_limit(k, i + 1)


@dataclass(frozen=True)
class LimitEntry:
    rank: int
    c: int
    tail_prob: Fraction  # limiting P(rank >= i) = k^(-c_i)
    point_prob: Fraction  # limiting P(rank == i)


@dataclass(frozen=True)
class LimitDistribution:
    k: int
    entries: tuple[LimitEntry, ...]


def limit_distribution(k: int, max_rank: int) -> LimitDistribution:
    """The limiting rank distribution for ranks 0..max_rank."""
    _check_rank(max_rank, "max_rank")
    _bounded_c(k, max_rank + 1)
    entries = []
    for i in range(max_rank + 1):
        c = c_index(k, i)
        if i > 0:
            assert c == k * c_index(k, i - 1) + 1
        tail = rank_ge_limit(k, i)
        point = rank_eq_limit(k, i)
        if point <= 0:
            raise ConsistencyError(f"point probability at rank {i} is not positive")
        entries.append(LimitEntry(rank=i, c=c, tail_prob=tail, point_prob=point))
    return LimitDistribution(k=k, entries=tuple(entries))


def _point_prob_pair(k: int, i: int) -> tuple[int, int]:
    """P_{k,i} as an exact (numerator, denominator) integer pair.

    P = k^(-c_i) - k^(-c_{i+1}) = (k^m - 1) / k^(c_{i+1}) with
    m = c_{i+1} - c_i = (k-1)*c_i + 1.  The pair is already in lowest terms
    (the numerator is -1 mod k), but nothing below relies on that.
    """
    c_hi = _bounded_c(k, i + 1)
    m = c_hi - c_index(k, i)
    t = k**m
    return t - 1, t * k ** (c_hi - m)


def _compare_products(lhs_factors: Sequence[int], rhs_factors: Sequence[int]) -> int:
    """Sign of prod(lhs) - prod(rhs) for positive integers, multiplying out
    only when bit-length certificates cannot decide.

    A product of t factors whose bit lengths sum to S lies in [2^(S-t), 2^S),
    so disjoint ranges settle the comparison without any big multiplication;
    the exponents here are typically astronomically far apart.
    """
    s_l = sum(x.bit_length() for x in lhs_factors)
    s_r = sum(x.bit_length() for x in rhs_factors)
    if s_l - len(lhs_factors) >= s_r:
        return 1
    if s_r - len(rhs_factors) >= s_l:
        return -1
    lhs = 1
    for x in lhs_factors:
        lhs *= x
    rhs = 1
    for x in rhs_factors:
        rhs *= x
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class LogConcavityReport:
    """Result of checking middle^2 >= left*right along one axis of P_{k,i}.

    ``axis`` is "k" for the claimed direction (k varies, rank fixed) or
    "rank" for the exploratory one (rank varies, k fixed); ``checked`` lists
    the middle values tested.  Each violation carries the exact values of the
    two sides as integer (numerator, denominator) pairs, not necessarily in
    lowest terms: the numbers involved reach millions of digits, where
    rational normalization would dominate the runtime without adding rigor.
    """

    axis: str
    fixed_value: int
    checked: tuple[int, ...]
    violations: tuple[tuple[int, tuple[int, int], tuple[int, int]], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _concavity_scan(axis, fixed_value, middles, pair_of) -> LogConcavityReport:
    pairs = {}

    def get(j):
        if j not in pairs:
            pairs[j] = pair_of(j)
        return pairs[j]

    checked = []
    violations = []
    for mid in middles:
        a_lo, b_lo = get(mid - 1)
        a_mid, b_mid = get(mid)
        a_hi, b_hi = get(mid + 1)
        checked.append(mid)
        # P_mid^2 >= P_lo * P_hi  <=>  a_mid^2 b_lo b_hi >= a_lo a_hi b_mid^2
        sign = _compare_products([a_mid, a_mid, b_lo, b_hi], [a_lo, a_hi, b_mid, b_mid])
        if sign < 0:
            violations.append((mid, (a_mid * a_mid, b_mid * b_mid), (a_lo * a_hi, b_lo * b_hi)))
    return LogConcavityReport(
        axis=axis,
        fixed_value=fixed_value,
        checked=tuple(checked),
        violations=tuple(violations),
    )


def log_concavity_check(i: int, k_max: int) -> LogConcavityReport:
    """Check, in exact integer arithmetic, whether k -> P_{k,i} satisfies
    P_k^2 >= P_{k-1} * P_{k+1} for 3 <= k < k_max.

    A violation is reported with its exact values, not raised.
    """
    if i < 0:
        raise DomainError("rank must be >= 0")
    if k_max < 4:
        raise DomainError("k_max must be >= 4 to have anything to check")
    return _concavity_scan(
        "k", i, range(3, k_max), lambda k: _point_prob_pair(k, i)
    )


def log_concavity_over_ranks(k: int, i_max: int) -> LogConcavityReport:
    """Exploratory: the same inequality along the rank index at fixed k.

    This direction is not a claimed property; the report is informational.
    """
    _check_k(k)
    require_int(i_max, "i_max", 2)
    return _concavity_scan(
        "rank", k, range(1, i_max), lambda i: _point_prob_pair(k, i)
    )


def negligibility_ratio(k: int, power: int, n: int) -> Fraction:
    """Exact ratio of [x^n] T^power to the same coefficient of the all-vertex series.

    The denominator coefficient is (k*s+1) times the tree coefficient, hence
    nonzero exactly for admissible n.  Returns 0 when the numerator vanishes;
    the ratio tends to 0 as n grows with k and power fixed.
    """
    if not is_admissible(k, n):
        raise DomainError(
            f"all-vertex coefficient vanishes at inadmissible n={n} (k={k}): ratio undefined"
        )
    num = coeff_T_pow(k, power, n)
    if num == 0:
        return Fraction(0)
    s = internal_vertices(k, n)
    den = (k * s + 1) * coeff_T_pow(k, 1, n)
    return num / den


MAX_TABLE_BYTES = 1 << 28
"""Largest storage, in bytes (256 MiB), that a :class:`CountTable` may need
by :func:`_table_bytes`.  The tests' largest table, ``CountTable(2, 2001)``,
is estimated at about 8 MB; k = 2 is refused from n = 10,361 on.  A
larger table raises :class:`DomainError` before anything is allocated."""


def _table_bytes(k: int, n_max: int) -> int:
    """Estimated storage of ``CountTable(k, n_max)`` at construction: the
    factorials 0!..n_max! take about n^2 log2(n) / 2 bits, and each of the k
    forest sequences g_j about as many (g_j(n) / n! grows only exponentially)."""
    return ceil((k + 1) * n_max * n_max * log2(n_max) / 16)


class CountTable:
    """All counting sequences for one branching factor k, exact through n_max.

    Every stored sequence is one term of the family g_p(n) = n! [x^n] T^p:
    t = g_1, f_{k-1} = g_{k-1} / (k-1)!, r_i(n) = g_{k^i}(n) / k!^(c_i) and
    m_i(n) = g_{k^i+1}(n+1) / ((k^i+1) k!^(c_i)), the last because
    M_i = R_i T' = (T^(k^i+1))' / ((k^i+1) k!^(c_i)); so m_0(n) = g_2(n+1)/2.
    Each g_p is built along n from g_p(p) = p! by its exact term ratio, one
    product of k small integers and one exact division by a small integer
    per step; the g_p read by r_i or m_i reaches n_max + 1 and is dropped
    once that sequence is formed.  Each sequence is checked against an
    identity before it is stored (``*`` is the labelled convolution; one
    comparer, ``_check_identity``, checks all three convolution identities):

    * forest tower ``g_j = g_{floor(j/2)} * g_{ceil(j/2)}`` for n <= verify_to,
      with g_1 = t; g_j for j <= k is built at construction, larger j by
      ``forest_count``, which builds only the O(log j) halves below it;
    * composition totals ``g_k = k! t`` at every n <= n_max;
    * root ranks ``k! r_i = r_{i-1}^{*k}`` for n <= verify_to, with r_0 = t;
    * rank-at-least ``m_i = r_i + m_i * f_{k-1}`` at every n <= n_max.

    A check first reduces every sequence u in the identity to
    u(n) k!^n / n!.  That substitutes x -> k! x in the exponential
    generating functions, so the labelled convolution becomes the plain
    Cauchy product of the reduced sequences and the identity is compared
    there, at every n, with no loss.  Z = x + k!^(k-2) Z^k has integer
    coefficients, T(k! x) = k! Z(x) and T'(k! x) = Z'(x), so every true
    count here reduces to an integer; a sequence that does not is reported
    as a :class:`ConsistencyError` naming it and the n.

    ``verify_to`` (default n_max) only bounds the quadratic-time checks of g
    and r; every stored value is the closed form at every n.  r and m are
    filled on first use (guarded by a lock, so tables are safe to share
    across threads).
    """

    def __init__(self, k: int, n_max: int, verify_to: int | None = None):
        _check_k(k)
        _check_n(n_max)
        need = _table_bytes(k, n_max)
        if need > MAX_TABLE_BYTES:
            raise DomainError(
                f"a table for k={k} through n={n_max} would need about {need >> 20} MiB, "
                f"over the bound of {MAX_TABLE_BYTES >> 20} MiB"
            )
        if verify_to is None:
            verify_to = n_max
        elif not isinstance(verify_to, int) or isinstance(verify_to, bool) or verify_to < 1:
            raise DomainError(f"verify_to must be an integer >= 1, got {verify_to!r}")
        self.k = k
        self.n_max = n_max
        self.verify_to = min(verify_to, n_max)

        self._fact = [1] * (n_max + 1)
        for i in range(1, n_max + 1):
            self._fact[i] = self._fact[i - 1] * i
        self._kfac = factorial(k)

        # ordered j-forest counts g_j(n) = n! [x^n] T^j, j = 1..k now, larger
        # j on demand by forest_count
        self._g: dict[int, tuple[int, ...]] = {}
        for j in range(1, k + 1):
            self._g[j] = self._build_g(j)
        self._t = self._g[1]
        self._verify_composition_totals()
        # forests of k-1 trees (unordered), used by the rank-at-least identity
        self._fkm1 = [
            _exact_div(v, factorial(k - 1), f"(k-1)-forest count at n={b}")
            for b, v in enumerate(self._g[k - 1])
        ]

        # the tallest possible rank: a vertex of rank i has at least k^i
        # descendant leaves, so every rank above it shares one zero sequence
        self._top_rank = 0
        while k ** (self._top_rank + 1) <= n_max:
            self._top_rank += 1
        self._zeros = (0,) * (n_max + 1)
        self._r: dict[int, Sequence[int]] = {0: self._t}
        self._m: dict[int, Sequence[int]] = {}
        # closed g_p through n_max + 1 (m_i(n) reads g_p(n + 1)), built on the
        # first read and dropped once the r_i or m_i read from it is formed
        self._closed: dict[int, list[int]] = {}
        self._lock = threading.RLock()

    # ----- closed forms -------------------------------------------------

    def _closed_g(self, j: int, n: int) -> int:
        if j not in self._closed:
            self._closed[j] = _forest_count_array(self.k, j, self.n_max + 1)
        return self._closed[j][n]

    def _closed_g_array(self, j: int) -> list[int]:
        return _forest_count_array(self.k, j, self.n_max)

    def _closed_r(self, i: int, n: int) -> int:
        """r_i(n) = g_{k^i}(n) / k!^(c_i)."""
        return _exact_div(
            self._closed_g(self.k**i, n), self._kfac ** c_index(self.k, i),
            f"root-rank count r_{i}({n})",
        )

    def _closed_m(self, i: int, n: int) -> int:
        """m_i(n) = g_{k^i+1}(n+1) / ((k^i+1) k!^(c_i)); m_0(n) = g_2(n+1)/2."""
        power = self.k**i + 1
        return _exact_div(
            self._closed_g(power, n + 1), power * self._kfac ** c_index(self.k, i),
            f"rank-at-least count m_{i}({n})",
        )

    # ----- convolution identities ----------------------------------------

    def _reduced(self, what: str, name: str, seq: Sequence[int], upto: int) -> list[int]:
        """seq(n) k!^n / n! for n <= upto (0 at n = 0), dividing exactly.

        This maps labelled convolution to the plain Cauchy product.  Every
        true count reduces to an integer, so a remainder is an error."""
        out = [0] * (upto + 1)
        kfac_pow = 1
        for n in range(1, upto + 1):
            kfac_pow *= self._kfac
            q, r = divmod(seq[n] * kfac_pow, self._fact[n])
            if r:
                d = self._fact[n] // gcd(self._fact[n], kfac_pow)
                raise ConsistencyError(
                    f"{what} at n={n}: {name}({n}) = {seq[n]} is no count: "
                    f"it is not a multiple of n!/gcd(n!, k!^n) = {d}"
                )
            out[n] = q
        return out

    def _check_identity(
        self,
        what: str,
        name: str,
        closed: Sequence[int],
        factors: Sequence[tuple[str, Sequence[int]]],
        upto: int,
        scale: int = 1,
        plus: tuple[str, Sequence[int]] | None = None,
    ) -> None:
        """Raise unless scale closed(n) = plus(n) + (f_1 * ... * f_r)(n) for
        1 <= n <= upto, ``*`` being the labelled convolution.

        ``closed`` is the closed-form sequence ``name``; ``factors`` and
        ``plus`` (default 0) are (name, sequence) pairs.  Every sequence is
        reduced once per name, so both sides are compared as Cauchy products.
        """
        reduced: dict[str, list[int]] = {}

        def reduce(label: str, seq: Sequence[int]) -> list[int]:
            if label not in reduced:
                reduced[label] = self._reduced(what, label, seq, upto)
            return reduced[label]

        lhs = reduce(name, closed)
        rhs = reduce(*factors[0])
        for factor in factors[1:]:
            rhs = _cauchy_product(rhs, reduce(*factor), upto)
        extra = reduce(*plus) if plus is not None else None
        for n in range(1, upto + 1):
            left = scale * lhs[n]
            right = rhs[n] + extra[n] if extra is not None else rhs[n]
            if left != right:
                raise ConsistencyError(
                    f"{what} at n={n}: closed form {name}({n}) = {closed[n]} "
                    f"breaks its convolution identity (reduced: {left} != {right})"
                )

    def _verify_composition_totals(self) -> None:
        """g_k(n) = k! * t(n) at every 2 <= n <= n_max, whatever ``verify_to`` is:
        the k root subtrees of a tree, put in order, are one ordered k-forest."""
        g_k = self._g[self.k]
        for n in range(2, self.n_max + 1):
            if g_k[n] != self._kfac * self._t[n]:
                raise ConsistencyError(
                    f"ordered {self.k}-forest count at n={n} is {g_k[n]}, "
                    f"expected k!*t = {self._kfac * self._t[n]}"
                )

    def _build_g(self, j: int) -> tuple[int, ...]:
        """Closed g_j, checked against g_{floor(j/2)} * g_{ceil(j/2)} through
        verify_to; both halves must be built already."""
        closed = self._closed_g_array(j)
        if j > 1:
            a, b = j // 2, j - j // 2
            self._check_identity(
                f"ordered {j}-forest count", f"g_{j}", closed,
                ((f"g_{a}", self._g[a]), (f"g_{b}", self._g[b])), self.verify_to,
            )
        return tuple(closed)

    def _forest_tower(self, j: int) -> tuple[int, ...]:
        """g_j, building and checking the missing halves below it first."""
        if j not in self._g:
            self._forest_tower(j // 2)
            self._forest_tower(j - j // 2)
            self._g[j] = self._build_g(j)
        return self._g[j]

    def _build_r(self, i: int) -> list[int]:
        """Closed r_i, checked against k! r_i = r_{i-1}^{*k} through verify_to."""
        closed = [0] + [self._closed_r(i, n) for n in range(1, self.n_max + 1)]
        self._closed.pop(self.k**i, None)
        self._check_identity(
            "root-rank count", f"r_{i}", closed, ((f"r_{i - 1}", self._r[i - 1]),) * self.k,
            self.verify_to, scale=self._kfac,
        )
        return closed

    def _build_m(self, i: int) -> list[int]:
        """Closed m_i, checked against m_i = r_i + m_i * f_{k-1} at every n."""
        closed = [0] + [self._closed_m(i, n) for n in range(1, self.n_max + 1)]
        self._closed.pop(self.k**i + 1, None)
        self._check_identity(
            "rank-at-least count", f"m_{i}", closed,
            ((f"m_{i}", closed), (f"f_{self.k - 1}", self._fkm1)), self.n_max,
            plus=(f"r_{i}", self._get_r(i)),
        )
        return closed

    def _get_r(self, i: int) -> Sequence[int]:
        if i > self._top_rank:
            return self._zeros
        if i not in self._r:
            with self._lock:
                for j in range(1, i + 1):
                    if j not in self._r:
                        self._r[j] = self._build_r(j)
        return self._r[i]

    def _get_m(self, i: int) -> Sequence[int]:
        if i > self._top_rank:
            return self._zeros
        if i not in self._m:
            with self._lock:
                if i not in self._m:
                    self._m[i] = self._build_m(i)
        return self._m[i]

    def _check_cover(self, n: int) -> None:
        _check_n(n)
        if n > self.n_max:
            raise TableCoverageError(
                f"table for k={self.k} covers n <= {self.n_max}, asked for n={n}"
            )

    # ----- public operations --------------------------------------------

    def tree_count(self, n: int) -> int:
        """t_{k,n}: the number of trees on leaf set {1..n} (0 for inadmissible n)."""
        self._check_cover(n)
        return self._t[n]

    def ordered_forest_counts(self, j: int) -> tuple[int, ...]:
        """g_j(n) = n! [x^n] T^j for n = 0..n_max and 1 <= j <= k: ordered
        j-tuples of disjoint trees whose leaf sets partition {1..n}.
        g_1 is the tree counts."""
        require_int(j, "ordered forest size", 1)
        if j > self.k:
            raise DomainError(f"ordered forest size must be in 1..{self.k}, got {j!r}")
        return self._g[j]

    def forest_count(self, j: int, n: int) -> int:
        """Unordered forests of j disjoint trees whose leaf sets partition {1..n}."""
        require_int(j, "forest size", 1)
        self._check_cover(n)
        if j > n:
            return 0  # a j-forest has at least j leaves
        with self._lock:
            g_j = self._forest_tower(j)
        return _exact_div(g_j[n], factorial(j), f"unordered {j}-forest count at n={n}")

    def root_rank_count(self, i: int, n: int) -> int:
        """r_{i,k}(n): trees on {1..n} whose root has rank at least i."""
        _check_rank(i)
        self._check_cover(n)
        return self._get_r(i)[n]

    def rank_ge_count(self, i: int, n: int) -> int:
        """m_{i,k}(n): vertices of rank at least i summed over all trees on {1..n}."""
        _check_rank(i)
        self._check_cover(n)
        return self._get_m(i)[n]

    def total_vertex_count(self, n: int) -> int:
        """(k*s+1) * t_{k,n}: all vertices over all trees; 0 for inadmissible n."""
        self._check_cover(n)
        if (n - 1) % (self.k - 1) != 0:
            return 0
        s = (n - 1) // (self.k - 1)
        return (self.k * s + 1) * self._t[n]

    def rank_census(self, n: int, max_rank: int) -> RankCensus:
        """Exact counts of vertices of rank exactly 0..max_rank over all trees.

        For inadmissible n the census is empty (all zero).
        """
        _check_rank(max_rank, "max_rank")
        self._check_cover(n)
        if not is_admissible(self.k, n):
            return RankCensus(k=self.k, n=n, exact=(), ratios=(), tail=0, total=0)
        m_vals = [self.rank_ge_count(i, n) for i in range(max_rank + 2)]
        for lo, hi in zip(m_vals[1:], m_vals):
            if lo > hi:
                raise ConsistencyError("rank-at-least counts are not monotone")
        total = m_vals[0]
        if total != self.total_vertex_count(n):
            raise ConsistencyError(
                f"m_0({n}) = {total} != (k*s+1)*t = {self.total_vertex_count(n)}"
            )
        exact = tuple(m_vals[i] - m_vals[i + 1] for i in range(max_rank + 1))
        tail = m_vals[max_rank + 1]
        if sum(exact) + tail != total:
            raise ConsistencyError("rank census does not sum to the vertex total")
        ratios = tuple(Fraction(e, total) for e in exact)
        return RankCensus(
            k=self.k, n=n, exact=exact, ratios=ratios, tail=tail, total=total
        )
