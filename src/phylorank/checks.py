"""The named checks of ``phylorank verify``, the acceptance suite and the demos, on a built
:class:`CountTable`: enumeration, table and series oracle agree exactly; sampling is uniform."""

from . import bruteforce, seriesoracle, stats
from .exactcount import CountTable


def triple_agreement(table: CountTable, n: int) -> bool:
    """Whether one enumeration of the trees on {1..n}, its census summed from the
    trees' tallies, gives the table's census of ranks 0..3, which fixes m_0..m_4,
    and its r_0..r_3 (r_0 = t) from the same trees' roots."""
    census, roots = bruteforce.brute_census_with_roots(table.k, n, 3)
    return census == table.rank_census(n, 3) and all(
        roots.count_rank_ge(i) == table.root_rank_count(i, n) for i in range(4))


def series_identities(table: CountTable, order: int) -> list[tuple[str, bool]]:
    """(name, passed) for the series oracle through x^order: T inverts x - x^k/k!,
    the series of r_i and m_i (i = 0..2) match the table, the polynomial split holds."""
    k, ns = table.k, range(1, order + 1)
    out = [(f"compositional inverse through order {order}", seriesoracle.verify_inverse(k, order))]
    for i in range(3):
        R, M = seriesoracle.oracle_R(k, i, order), seriesoracle.oracle_M(k, i, order)
        out += [
            (f"root-rank series identity i={i}",
             all(R.labeled(n) == table.root_rank_count(i, n) for n in ns)),
            (f"rank-at-least series identity i={i}",
             all(M.labeled(n) == table.rank_ge_count(i, n) for n in ns)),
            (f"polynomial split identity i={i}",
             seriesoracle.verify_theorem_decomposition(k, i, order)),
        ]
    return out


def chi_square(table: CountTable, n_max: int, seed: int) -> list[tuple[str, bool]]:
    """(name, passed) for 3000 samples at the least n <= n_max with 3 to 200 trees, if any."""
    n = next((n for n in range(2, n_max + 1) if 3 <= table.tree_count(n) <= 200), None)
    if n is None:
        return []
    rep = stats.chi_square_uniformity(table.k, n, samples=3000, base_seed=seed)
    return [(f"chi-square uniformity at n={n} (stat {rep.statistic:.2f} < {rep.critical:.2f})",
             rep.passed)]
