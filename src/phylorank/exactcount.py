"""Exact counting of k-phylogenetic trees and their vertex-rank statistics.

Everything here is integer or rational arithmetic, bit-exact at any size.
Each counting sequence is computed along two independent routes:

* closed forms, each one term of the family g_p(n) = n! [x^n] T^p, the
  ordered p-forest counts, whose coefficients Lagrange inversion gives
  (``coeff_T_pow``); a table builds each g_p, reduced, along n by its exact
  term ratio (``_forest_count_array``), and
* labelled (binomial) convolution identities over labeled structures
  (root removal: a tree is a root plus an unordered set of k subtrees).

A :class:`CountTable` stores every sequence u reduced, as u(n) k!^n / n!,
where labelled convolution is the plain Cauchy product.  The reduced terms are
exact ``Decimal`` integers, and all arithmetic on them runs in one context,
``_EXACT``, which raises rather than round.  A table checks each sequence
against its identity at every n before storing it and lifts each query back
to an ``int`` count exactly; the class docstring says which identity checks
which sequence, and how (every product by two-point Kronecker substitution
into ``Decimal`` integers, in blocks sized from the product, which libmpdec
multiplies by number-theoretic transform; r_2's identity forms none, its
right side being a binomial sum of the forest counts that construction
checked).  Any disagreement, inexact division or term off its residue class
raises :class:`ConsistencyError`.

Notation used throughout: a tree on n leaves exists iff (n-1) is divisible by
(k-1); then s = (n-1)/(k-1) counts internal vertices and k*s+1 all vertices.
The rank-i exponent is c_i = (k^i - 1)/(k - 1), satisfying c_{i+1} = k*c_i + 1.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, localcontext
from decimal import DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import ceil, comb, factorial, gcd, lgamma, log, log2, perm, prod
from typing import NamedTuple, Sequence

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
    "require_table_size",
    "rank_ge_limit",
    "rank_eq_limit",
    "rank_ge_ratio",
    "negligibility_ratio",
    "LimitEntry",
    "LimitDistribution",
    "limit_distribution",
    "LogConcavityReport",
    "log_concavity_check",
    "log_concavity_over_ranks",
    "CountTable",
]


def _check_k(k: int) -> None:
    require_int(k, "branching factor", 2)


def _check_n(n: int) -> None:
    require_int(n, "leaf count", 1)


def _check_rank(i: int, name: str = "rank index") -> None:
    require_int(i, name, 0)


def _exact_div(num: int | Decimal, den: int | Decimal, what: str) -> int | Decimal:
    if den == 1:
        return num  # divmod would copy num; f_1 = g_1 / 1! shares t's terms
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


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN,
                 traps=[InvalidOperation, DivisionByZero, Overflow, Inexact, Rounded])
"""The one context of all arithmetic on reduced terms, whatever the caller's: integers of any
size are exact, and an operation that would round raises instead."""

_ZERO, _ONE = Decimal(0), Decimal(1)


def _forest_count_array(k: int, p: int, upto: int) -> list[Decimal]:
    """The reduced forest counts G_p(n) = g_p(n) k!^n / n! = k!^p [x^n] Z^p
    for n = 0..upto, by the exact term ratio; Z = x + k!^(k-2) Z^k, so that
    T(k! x) = k! Z(x).

    With n = (k-1) s + p and N = n + s - 1, g_p(n) = p N! / (s! k!^s), so
    G_p(n) = p k!^(p + (k-2) s) N! / (s! n!).  So G_p(p) = k!^p and each
    step s -> s+1 (n -> n+k-1) multiplies by k!^(k-2) (N+1)...(N+k) and
    divides exactly by (s+1) (n+1)...(n+k-1): products of k small integers.
    """
    out = [_ZERO] * (upto + 1)
    if p > upto:  # every term is 0: form no power of k!
        return out
    kfac = Decimal(factorial(k))
    g = _EXACT.power(kfac, p)
    scale = _EXACT.power(kfac, k - 2) if p + k - 1 <= upto else None  # only a step uses it
    with localcontext(_EXACT):
        for s, n in enumerate(range(p, upto + 1, k - 1)):
            if s:  # (N+1)...(N+k) and (n+1)...(n+k-1) of the step before
                den = s * prod(range(n - k + 2, n + 1))
                g, r = divmod(g * (scale * prod(range(n + s - k, n + s))), den)
                if r:
                    raise ConsistencyError(
                        f"reduced {p}-forest count G_{p}({n}) is no integer: the term ratio "
                        f"from n={n - k + 1} leaves remainder {r} modulo {den}"
                    )
            out[n] = g
    return out


def _lift(name: str, n: int, value: Decimal, fact: int, kfac_pow: int) -> int:
    """The count value * n! / k!^n whose reduced value at n is ``value``,
    given fact = n! and kfac_pow = k!^n; a remainder means it is no count."""
    q, r = divmod(int(value) * fact, kfac_pow)
    if r:
        d = kfac_pow // gcd(fact, kfac_pow)
        raise ConsistencyError(
            f"lifting the stored value at n={n}: {name}({n}) = {value} is no count: "
            f"it is not a multiple of k!^n/gcd(n!, k!^n) = {d}"
        )
    return q


PACK_DIGITS = 155_648
"""Fewest digits in an operand budget of ``_packed_product``: two such operands fill libmpdec's
transform of 2^14 words of 19 digits, whose scratch costs about 3.4 bytes per operand digit."""

PACK_SHARE = 4
"""A product's operand budget is the least PACK_DIGITS 2^j, j >= 0, that holds 1/PACK_SHARE of
its one-shot operand (upto + 1) h, so two operands still fill one power-of-two transform and each
factor splits into about PACK_SHARE blocks at most.  A product with (upto + 1) h up to
PACK_SHARE PACK_DIGITS keeps PACK_DIGITS: at k = 2, every product through n of about 1,435.
A half was faster but peaked at 210 MB on ``CountTable(2, 10001)``, against 141 MB; an eighth
made ``rank_census(5001, 2)`` 1.6 times slower."""


def _packed_product(u: Sequence[Decimal], v: Sequence[Decimal], upto: int) -> list[Decimal]:
    """The Cauchy product w(n) = sum_a u(a) v(n-a), n <= upto, of u, v of non-negative
    ``Decimal`` integers (exponent 0) with u(0) = v(0) = 0, by two-point Kronecker
    substitution (Harvey 2009) in blocks of ``size`` indices.  A block f is evaluated at
    x = 10^h and -10^h as E + O and E - O, where E packs its even-index terms and O its
    odd-index ones, shifted by h digits, into ``Decimal`` integers with 2h-digit
    slots.  For the pairs of blocks at a and b with a + b = s, P+ and P- sum the products at
    10^h and at -10^h (a square doubles each mirror pair), so that (P+ + P-)/2 holds the even
    slots and (P+ - P-)/2 the odd ones, slot j of either summing u(i) v(i') over i + i' = s + j
    in the 2h digits that end h j digits from its right.  w(n) sums slot n - s of the two s that
    reach n.  A slot read sums fewer than upto terms, so it cannot overflow D = digits(upto) +
    digits(u(i)) + digits(v(i')) for the largest of them, and h = ceil(D/2); carries run upward
    only.  E and O are packed by pairing neighbours level by level, lo + hi 10^w with w
    doubling.  Each parity drops its digits above the last slot read, then splits in halves,
    the high one by ``shift`` of the coefficient and the low one by one ``subtract``, down to
    single slots.  Every step is exact arithmetic in ``_EXACT``, linear in the digits."""
    nu = [x.adjusted() + 1 for x in u[:upto + 1]]  # digits of u(i); top[j] those of max v(0..j)
    top = list(accumulate(nu if v is u else (x.adjusted() + 1 for x in v[:upto + 1]), max))
    upto_digits = Decimal(upto).adjusted() + 1

    def half(a: int, b: int, size: int) -> int:  # h = ceil(D/2) of the blocks at a and b
        rows = range(a, min(a + size, upto + 1 - b))
        terms = (nu[i] + top[min(b + size - 1, upto - i)] for i in rows)
        return (max(terms, default=2) + upto_digits + 1) // 2

    def pack(terms: list[Decimal], width: int) -> Decimal:  # sum_j terms[j] 10^(width j)
        while len(terms) > 1:
            paired = [_EXACT.add(lo, _EXACT.scaleb(hi, width))
                      for lo, hi in zip(terms[::2], terms[1::2])]
            terms = paired + terms[2 * len(paired):]  # an odd one out moves up as it is
            width *= 2
        return terms[0] if terms else _ZERO

    def points(seq: Sequence[Decimal], lo: int, hi: int, h: int) -> tuple[Decimal, Decimal]:
        even = pack(seq[lo:hi:2], 2 * h)  # E and O of the block seq[lo:hi]
        odd = _EXACT.scaleb(pack(seq[lo + 1:hi:2], 2 * h), h)
        return _EXACT.add(even, odd), _EXACT.subtract(even, odd)

    def split(x: Decimal, digits: int) -> tuple[Decimal, Decimal]:  # x = high 10^digits + low
        high = _EXACT.shift(x, -digits)
        return high, _EXACT.subtract(x, _EXACT.scaleb(high, digits)) if high else x

    # a block's evaluations have at most h (size + 1) digits, within the budget; one pair keeps h
    h = half(1, 1, upto)
    budget = PACK_DIGITS << (((upto + 1) * h - 1) // (PACK_SHARE * PACK_DIGITS)).bit_length()
    size = max(1, budget // h - 1)
    out = [_ZERO] * (upto + 1)
    for s in range(2, upto + 1, size):
        pairs = [(a, s - a) for a in range(1, s, size) if v is not u or 2 * a <= s]
        h = max(half(a, b, size) for a, b in pairs) if size < upto - 1 else h
        plus = minus = _ZERO
        for a, b in pairs:
            x = points(u, a, min(a + size, upto + 1 - b), h)
            y = x if v is u and a == b else points(v, b, min(b + size, upto + 1 - a), h)
            if v is u and a != b:
                y = tuple(_EXACT.add(c, c) for c in y)
            plus = _EXACT.fma(x[0], y[0], plus)
            minus = _EXACT.fma(x[1], y[1], minus)
        del x, y  # only the sums are left when they are read
        even = _EXACT.divide_int(_EXACT.add(plus, minus), 2)  # (P+ + P-)/2
        del plus
        odd = _EXACT.shift(_EXACT.subtract(even, minus), -h)  # (P+ - P-)/2 less its h zeros
        del minus
        last = min(upto, s + 2 * size - 2)  # the last n that a slot of this s reaches
        count = (last - s) // 2 + 1, (last - s + 1) // 2  # the slots read of either parity
        # (x, n, c): slot j of x, its 2h digits from 2h j up, adds to w(n + 2j) for j < c
        stack = [(split(even, 2 * h * count[0])[1], s, count[0])]
        del even  # each value is freed as soon as it has been split
        stack.append((split(odd, 2 * h * count[1])[1], s + 1, count[1]))
        del odd
        while stack:
            x, n, c = stack.pop()
            if c > 1:
                m = c // 2
                high, low = split(x, 2 * h * m)
                stack += (high, n + 2 * m, c - m), (low, n, m)
            elif c:
                out[n] = _EXACT.add(out[n], x)
    return out


def tree_count_closed(k: int, n: int) -> int:
    """The number of k-phylogenetic trees on {1..n}, by the closed form alone,
    n! C(k s, s) / (n k!^s) with n = (k-1) s + 1; exactness asserted.
    0 for inadmissible n, before any factorial is formed."""
    if not is_admissible(k, n):  # checks k and n
        return 0
    s = (n - 1) // (k - 1)
    num = factorial(n) * comb(k * s, s)
    return _exact_div(num, n * factorial(k) ** s, f"tree count at n={n}")


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
    1/k^(c_i) - 1/k^(c_{i+1}) = (k^m - 1)/k^(c_{i+1}), ``_point_prob_pair``."""
    return Fraction(*_point_prob_pair(k, i))


def _product_ratio(a: int, b: int, d: int, scale_bits: float = 0.0) -> Fraction:
    """prod_{j=1..d} (a+j)/(b+j), exactly, for 0 <= a <= b.  A product whose factors, with
    ``scale_bits`` more bits each, could top MAX_POWER_BITS bits is refused before any
    multiplication."""
    if d and d * (log2(b + d) + scale_bits) > MAX_POWER_BITS:
        raise DomainError(
            f"a product of {d} factors would exceed the bound of {MAX_POWER_BITS} bits"
        )
    return Fraction(perm(a + d, d), perm(b + d, d))


def rank_ge_ratio(k: int, i: int, n: int) -> Fraction:
    """m_i(n)/m_0(n), the fraction of vertices of rank at least i over all trees on {1..n}.

    The quotient of the closed forms of m_i and m_0 (``CountTable``), in which the powers
    of k! cancel: prod_{j=1..c_i} (s'+j)/(n+s'+j) with s' = s - c_i = (n - k^i)/(k-1),
    and 0 when s' < 0, since a vertex of rank i has at least k^i leaves below it.  Each
    factor tends to 1/k, so the ratio tends to k^(-c_i), ``rank_ge_limit``.
    """
    s = internal_vertices(k, n)
    _check_rank(i)
    if i >= n.bit_length() or k**i > n:  # k^i >= 2^i > n before k^i is formed
        return Fraction(0)
    c = c_index(k, i)
    return _product_ratio(s - c, n + s - c, c)


def negligibility_ratio(k: int, power: int, n: int) -> Fraction:
    """Exact ratio of [x^n] T^power to the same coefficient of the all-vertex series.

    The denominator coefficient is (k*s+1) times the tree coefficient, hence nonzero
    exactly for admissible n.  The quotient of the closed forms (``coeff_T_pow``) is
    power k!^d/(ks+1) prod_{j=1..d} (s_p+j)/(n+s_p-1+j), with d = (power-1)/(k-1) and
    s_p = s - d, and 0 when n < power or d is no integer.  Each factor tends to 1/k, so
    the ratio tends to 0 as n grows with k and power fixed.
    """
    if not is_admissible(k, n):
        raise DomainError(
            f"all-vertex coefficient vanishes at inadmissible n={n} (k={k}): ratio undefined"
        )
    require_int(power, "series power", 1)
    d, off = divmod(power - 1, k - 1)
    if n < power or off:
        return Fraction(0)
    s = (n - 1) // (k - 1)
    kfac_bits = lgamma(min(k, MAX_POWER_BITS) + 1) / log(2)  # k! alone tops it from there on
    product = _product_ratio(s - d, n + s - d - 1, d, kfac_bits)
    return Fraction(power, k * s + 1) * factorial(k) ** d * product


class LimitEntry(NamedTuple):
    rank: int
    c: int
    tail_prob: Fraction  # limiting P(rank >= i) = k^(-c_i)
    point_prob: Fraction  # limiting P(rank == i)


class LimitDistribution(NamedTuple):
    k: int
    entries: tuple[LimitEntry, ...]


def limit_distribution(k: int, max_rank: int) -> LimitDistribution:
    """The limiting rank distribution for ranks 0..max_rank."""
    _check_rank(max_rank, "max_rank")
    _bounded_c(k, max_rank + 1)
    entries = []
    for i in range(max_rank + 1):
        c = c_index(k, i)
        tail = rank_ge_limit(k, i)
        point = rank_eq_limit(k, i)
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
    lhs, rhs = prod(lhs_factors), prod(rhs_factors)
    return (lhs > rhs) - (lhs < rhs)


class LogConcavityReport(NamedTuple):
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
    get = cache(pair_of)
    violations = []
    for mid in middles:
        (a_lo, b_lo), (a_mid, b_mid), (a_hi, b_hi) = map(get, (mid - 1, mid, mid + 1))
        # P_mid^2 >= P_lo * P_hi  <=>  a_mid^2 b_lo b_hi >= a_lo a_hi b_mid^2
        if _compare_products([a_mid, a_mid, b_lo, b_hi], [a_lo, a_hi, b_mid, b_mid]) < 0:
            violations.append((mid, (a_mid * a_mid, b_mid * b_mid), (a_lo * a_hi, b_lo * b_hi)))
    return LogConcavityReport(
        axis=axis,
        fixed_value=fixed_value,
        checked=tuple(middles),
        violations=tuple(violations),
    )


def log_concavity_check(i: int, k_max: int) -> LogConcavityReport:
    """Check, in exact integer arithmetic, whether k -> P_{k,i} satisfies
    P_k^2 >= P_{k-1} * P_{k+1} for 3 <= k < k_max.

    A violation is reported with its exact values, not raised.
    """
    _check_rank(i)
    require_int(k_max, "k_max", 4)  # below 4 there is nothing to check
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


MAX_TABLE_BYTES = 1 << 28
"""Largest storage, in bytes (256 MiB), that a :class:`CountTable` may need
by :func:`_table_bytes`.  The tests' largest table, ``CountTable(2, 2001)``,
is estimated at about 8 MB; k = 2 is refused from n = 10,361 on.  A
larger table raises :class:`DomainError` before anything is allocated.  The
checks' scratch is inside the bound: ``count --k 2 --n 10360``, the largest
k = 2 table admitted, peaks at 129 MB of resident memory, checks included."""


def _table_bytes(k: int, n_max: int) -> int:
    """Estimated storage of ``CountTable(k, n_max)`` at construction: k + 1
    sequences of about n^2 log2(n) / 2 bits each, the size of the unreduced
    g_j and of 0!..n_max!.  It over-counts on purpose: the table keeps only
    the k reduced sequences G_j, whose terms grow only exponentially in n,
    and no factorials."""
    return ceil((k + 1) * n_max * n_max * log2(n_max) / 16)


def require_table_size(k: int, n_max: int) -> None:
    """Raise :class:`DomainError` unless k and n_max are valid and
    ``CountTable(k, n_max)`` fits ``MAX_TABLE_BYTES``; allocates nothing."""
    _check_k(k)
    _check_n(n_max)
    need = _table_bytes(k, n_max)
    if need > MAX_TABLE_BYTES:
        raise DomainError(
            f"a table for k={k} through n={n_max} would need about {need >> 20} MiB, "
            f"over the bound of {MAX_TABLE_BYTES >> 20} MiB"
        )


class CountTable:
    """All counting sequences for one branching factor k, exact through n_max.

    Every sequence is one term of the family g_p(n) = n! [x^n] T^p:
    t = g_1, f_{k-1} = g_{k-1} / (k-1)!, r_i(n) = g_{k^i}(n) / k!^(c_i) and
    m_i(n) = g_{k^i+1}(n+1) / ((k^i+1) k!^(c_i)), the last because
    M_i = R_i T' = (T^(k^i+1))' / ((k^i+1) k!^(c_i)); so m_0(n) = g_2(n+1)/2.

    The table stores each sequence u reduced, as u(n) k!^n / n!: that
    substitutes x -> k! x in the exponential generating functions, and
    T(k! x) = k! Z(x) with Z = x + k!^(k-2) Z^k, which has integer
    coefficients.  So g_p reduces to G_p(n) = k!^p [x^n] Z^p, every reduced
    count is an integer, and the labelled convolution of counts is the plain
    Cauchy product of reduced sequences.  Each G_p is built along n from
    G_p(p) = k!^p by its exact term ratio, small integers only, as exact
    ``Decimal`` integers in ``_EXACT``, the one number type of every stored
    term and every check.  One builder, ``_closed``, forms each of g_j, r_i
    (i >= 2) and m_i from one G_p array (through n_max + 1 for m_i, whose
    reduced form is (n+1) G_p(n+1) / (k! p k!^(c_i))) and keeps no array.
    Each sequence is checked against an identity at every n <= n_max before
    it is stored, comparing reduced values with no loss (``*`` is the
    labelled convolution; one comparer, ``_check_identity``, checks every
    identity; it multiplies each factor's residue class of n modulo k - 1
    only, every n at k = 2, refusing a factor non-zero off it; it forms
    every ``*`` by ``_packed_product``, which evaluates blocks of each
    sequence at x = 10^h and -10^h in operands sized from the product):

    * forest tower ``g_j = g_{floor(j/2)} * g_{ceil(j/2)}``, with g_1 = t;
      g_j for j <= k is built at construction, larger j by
      ``forest_count``, which builds only the O(log j) halves below it;
    * root ranks ``k! r_1 = g_k``, no product, r_1 being t off n = 1 (T = x +
      T^k/k!) stored at construction; ``k! r_2 = r_1^{*k}``, no product either,
      (T - x)^k being a binomial sum of the g_0..g_k checked at construction
      (``_r_1_power``); and ``k! r_i = r_{i-1}^{*k}``, i >= 3, k - 1 products;
    * rank-at-least ``m_i = r_i + m_i * f_{k-1}``.

    Every query lifts its stored value back to an ``int`` count, times
    n! / k!^n, dividing exactly; a value that does not lift is reported as a
    :class:`ConsistencyError` naming the sequence and the n.  r and m are
    filled on first use, so a table is not for concurrent use.
    """

    def __init__(self, k: int, n_max: int):
        require_table_size(k, n_max)
        self.k = k
        self.n_max = n_max
        self._kfac = factorial(k)
        # k! for the checks, converted once: a conversion is quadratic in the digits
        self._kfac_exact = Decimal(self._kfac)

        # reduced ordered j-forest counts G_j, j = 1..k now, larger j on
        # demand by forest_count
        self._g: dict[int, list[Decimal]] = {}
        for j in range(1, k + 1):
            self._forest_tower(j)
        self._t = self._g[1]
        # a tree is one leaf or a root over k subtrees: r_1 is t off n = 1
        r_1 = [_ZERO, _ZERO, *self._t[2:]]
        self._check_identity("root-rank count", "r_1", r_1, [(f"g_{k}", self._g[k])],
                             scale=self._kfac_exact)
        # forests of k-1 trees (unordered), used by the rank-at-least identity
        with localcontext(_EXACT):
            kfac_m1 = self._kfac_exact // k  # (k-1)!
            self._fkm1 = [_exact_div(v, kfac_m1, f"f_{k - 1}({n})")
                          for n, v in enumerate(self._g[k - 1])]

        # the tallest possible rank: a vertex of rank i has at least k^i
        # descendant leaves, so every rank above it shares one zero sequence
        self._top_rank = 0
        while k ** (self._top_rank + 1) <= n_max:
            self._top_rank += 1
        self._zeros = (_ZERO,) * (n_max + 1)
        self._r: dict[int, Sequence[Decimal]] = {0: self._t, 1: r_1}
        self._m: dict[int, Sequence[Decimal]] = {}

    # ----- closed forms -------------------------------------------------

    def _closed(self, name: str, p: int, divisor: int = 1,
                derivative: bool = False) -> list[Decimal]:
        """The reduced closed sequence ``name``: [0] then G_p(n) / divisor for
        n = 1..n_max, or (n+1) G_p(n+1) / divisor with ``derivative``, from
        one G_p array, every division exact."""
        g = _forest_count_array(self.k, p, self.n_max + derivative)
        with localcontext(_EXACT):
            divisor = Decimal(divisor)
            return [_ZERO] + [
                _exact_div((n + 1) * g[n + 1] if derivative else g[n], divisor, f"{name}({n})")
                for n in range(1, self.n_max + 1)
            ]

    def _count(self, name: str, seq: Sequence[Decimal], n: int) -> int:
        """The count seq(n) n! / k!^n of the reduced sequence ``name``; a 0 forms no n! or k!^n."""
        return _lift(name, n, seq[n], factorial(n), self._kfac**n) if seq[n] else 0

    # ----- convolution identities ----------------------------------------

    def _check_identity(
        self,
        what: str,
        name: str,
        closed: Sequence[Decimal],
        factors: Sequence[tuple[str, Sequence[Decimal]]],
        scale: Decimal = _ONE,
        plus: Sequence[Decimal] | None = None,
    ) -> None:
        """Raise unless scale closed(n) = plus(n) + (f_1 * ... * f_r)(n) for
        1 <= n <= n_max.  ``closed`` is the closed form ``name``; it, the named
        factors and ``plus`` (default 0) are reduced sequences, so the Cauchy
        product ``*`` is the labelled convolution of the counts.  A factor
        repeated as the same list takes the squaring path.  Every product is
        ``_packed_product``'s, on the images [0] + f[lo::k-1] (y = x^(k-1)) of
        factors f first non-zero at lo; a factor non-zero off that class
        raises.  At k = 2 the class is every n."""
        step, upto = self.k - 1, self.n_max

        def image(fname: str, f: Sequence[Decimal]) -> tuple[int, list[Decimal]]:
            lo = next((n for n in range(1, upto + 1) if f[n]), upto + 1)
            off = next((n for n in range(lo, upto + 1) if f[n] and (n - lo) % step), 0)
            if off:
                raise ConsistencyError(
                    f"{what} at n={off}: {fname}({off}) = {f[off]} lies off the residue "
                    f"class of {fname}({lo}) modulo k-1 = {step}"
                )
            return lo, [_ZERO] + f[lo:upto + 1:step]

        rhs = factors[0][1]
        for fname, factor in factors[1:]:
            a, x = image(factors[0][0], rhs)
            b, y = (a, x) if factor is rhs else image(fname, factor)
            w = _packed_product(x, y, max(0, (upto - a - b) // step + 2))
            rhs = [_ZERO] * (upto + 1)
            rhs[a + b:upto + 1:step] = w[2:]  # w(j) is the term at n = a + b + step (j - 2)
        with localcontext(_EXACT):
            for n in range(1, upto + 1):
                left = scale * closed[n]
                right = rhs[n] + plus[n] if plus is not None else rhs[n]
                if left != right:
                    raise ConsistencyError(
                        f"{what} at n={n}: closed form {name}({n}) = {closed[n]} "
                        f"breaks its convolution identity ({left} != {right}, all reduced)"
                    )

    def _forest_tower(self, j: int) -> list[Decimal]:
        """g_j, built, checked against g_{floor(j/2)} * g_{ceil(j/2)} (g_1 = t
        has no halves) and stored on first use, the missing halves first."""
        if j not in self._g:
            factors = [(f"g_{h}", self._forest_tower(h)) for h in (j // 2, j - j // 2) if j > 1]
            closed = self._closed(f"g_{j}", j)
            if factors:
                self._check_identity(f"ordered {j}-forest count", f"g_{j}", closed, factors)
            self._g[j] = closed
        return self._g[j]

    def _get_r(self, i: int) -> Sequence[Decimal]:
        """r_i, built, checked against k! r_i = r_{i-1}^{*k} and stored on
        first use, r_{i-1} first; r_0 = t and r_1 are stored at construction."""
        if i > self._top_rank:
            return self._zeros
        if i not in self._r:
            below = ([("r_1^{*k}", self._r_1_power())] if i == 2
                     else [(f"r_{i - 1}", self._get_r(i - 1))] * self.k)
            closed = self._closed(f"r_{i}", self.k**i, self._kfac ** c_index(self.k, i))
            self._check_identity("root-rank count", f"r_{i}", closed, below,
                                 scale=self._kfac_exact)
            self._r[i] = closed
        return self._r[i]

    def _r_1_power(self) -> list[Decimal]:
        """r_1^{*k} with no product: R_1 = T - x, x being k! at n = 1 reduced, so by the
        binomial theorem it is the sum over j = 0..k of C(k, j) (-k!)^j G_{k-j}(n - j), G_0
        1 at n = 0 only; it is the product because construction checked G_1..G_k."""
        k, upto = self.k, self.n_max  # k^2 <= n_max, or r_2 would be the zeros
        out, coef = [_ZERO] * (upto + 1), 1  # coef = C(k, j) (-k!)^j, by a running product
        for j in range(k):
            c, g = Decimal(coef), self._g[k - j]
            for n in range(k, upto + 1, k - 1):  # G_{k-j}(n - j) is 0 off n = k + (k-1) s
                out[n] = _EXACT.fma(c, g[n - j], out[n])
            coef = coef * -self._kfac * (k - j) // (j + 1)
        out[k] = _EXACT.add(out[k], coef)  # j = k: (-k!)^k G_0(n - k), at n = k only
        return out

    def _get_m(self, i: int) -> Sequence[Decimal]:
        """m_i, built, checked against m_i = r_i + m_i * f_{k-1} and stored on
        first use, r_i first."""
        if i > self._top_rank:
            return self._zeros
        if i not in self._m:
            r_i = self._get_r(i)
            power = self.k**i + 1
            divisor = self._kfac * power * self._kfac ** c_index(self.k, i)
            closed = self._closed(f"m_{i}", power, divisor, derivative=True)
            self._check_identity(
                "rank-at-least count", f"m_{i}", closed,
                ((f"m_{i}", closed), (f"f_{self.k - 1}", self._fkm1)), plus=r_i,
            )
            self._m[i] = closed
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
        return self._count("t", self._t, n)

    def ordered_forest_counts(self, j: int) -> tuple[int, ...]:
        """g_j(n) = n! [x^n] T^j for n = 0..n_max and 1 <= j <= k: ordered
        j-tuples of disjoint trees whose leaf sets partition {1..n}.
        g_1 is the tree counts."""
        require_int(j, "ordered forest size", 1)
        if j > self.k:
            raise DomainError(f"ordered forest size must be in 1..{self.k}, got {j!r}")
        out, fact, kfac_pow = [0], 1, 1
        for n in range(1, self.n_max + 1):
            fact *= n
            kfac_pow *= self._kfac
            out.append(_lift(f"g_{j}", n, self._g[j][n], fact, kfac_pow))
        return tuple(out)

    def forest_count(self, j: int, n: int) -> int:
        """Unordered forests of j disjoint trees whose leaf sets partition {1..n}."""
        require_int(j, "forest size", 1)
        self._check_cover(n)
        if j > n:
            return 0  # a j-forest has at least j leaves
        g_j = self._count(f"g_{j}", self._forest_tower(j), n)
        return _exact_div(g_j, factorial(j), f"unordered {j}-forest count at n={n}")

    def root_rank_count(self, i: int, n: int) -> int:
        """r_{i,k}(n): trees on {1..n} whose root has rank at least i."""
        _check_rank(i)
        self._check_cover(n)
        return self._count(f"r_{i}", self._get_r(i), n)

    def rank_ge_count(self, i: int, n: int) -> int:
        """m_{i,k}(n): vertices of rank at least i summed over all trees on {1..n}."""
        _check_rank(i)
        self._check_cover(n)
        return self._count(f"m_{i}", self._get_m(i), n)

    def total_vertex_count(self, n: int) -> int:
        """(k*s+1) * t_{k,n}: all vertices over all trees; 0 for inadmissible n."""
        self._check_cover(n)
        if (n - 1) % (self.k - 1) != 0:
            return 0
        s = (n - 1) // (self.k - 1)
        return (self.k * s + 1) * self.tree_count(n)

    def rank_census(self, n: int, max_rank: int) -> RankCensus:
        """Exact counts of vertices of rank exactly 0..max_rank over all trees.

        For inadmissible n the census is empty (all zero).
        """
        _check_rank(max_rank, "max_rank")
        self._check_cover(n)
        if not is_admissible(self.k, n):
            return RankCensus.of_counts(self.k, n, {}, max_rank)
        m_vals = [self.rank_ge_count(i, n) for i in range(max_rank + 2)]
        for lo, hi in zip(m_vals[1:], m_vals):
            if lo > hi:
                raise ConsistencyError("rank-at-least counts are not monotone")
        total = m_vals[0]
        if total != self.total_vertex_count(n):
            raise ConsistencyError(
                f"m_0({n}) = {total} != (k*s+1)*t = {self.total_vertex_count(n)}"
            )
        # rank i holds m_i - m_(i+1); the last key holds the m_(max_rank+1) of higher rank
        by_rank = {i: hi - lo for i, (hi, lo) in enumerate(zip(m_vals, m_vals[1:]))}
        return RankCensus.of_counts(self.k, n, by_rank | {max_rank + 1: m_vals[-1]}, max_rank)
