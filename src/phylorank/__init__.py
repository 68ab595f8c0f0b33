"""phylorank: exact enumeration, uniform sampling and vertex-rank statistics
of k-phylogenetic trees (rooted non-plane trees, leaf-labeled by {1..n},
every internal vertex with exactly k children).

The rank of a vertex is its distance to the nearest descendant leaf.  As n
grows, the fraction of vertices of rank at least i tends to k^(-c_i) with
c_i = (k^i - 1)/(k - 1), and the fraction of rank exactly i tends to
k^(-c_i) - k^(-k*c_i - 1).  This package computes such quantities exactly
(closed forms, integer recurrences, truncated-series oracle), enumerates and
uniformly samples the trees, and verifies everything against brute force.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    InvalidTreeError,
    NewickParseError,
    PhyloRankError,
    TableCoverageError,
)
from .exactcount import (
    CountTable,
    LimitDistribution,
    LimitEntry,
    LogConcavityReport,
    c_index,
    coeff_T_pow,
    internal_vertices,
    is_admissible,
    limit_distribution,
    log_concavity_check,
    log_concavity_over_ranks,
    negligibility_ratio,
    rank_eq_limit,
    rank_ge_limit,
    rank_ge_ratio,
    tree_count_closed,
)
from .bruteforce import brute_census, enumerate_all
from .sampler import sample_batch
from .seriesoracle import (
    TruncatedSeries,
    oracle_M,
    oracle_R,
    solve_T,
    verify_inverse,
    verify_theorem_decomposition,
)
from .stats import (
    ConvergenceTable,
    EstimateReport,
    UniformityReport,
    chi_square_uniformity,
    convergence_table,
    estimate_rank_distribution,
)
from .treecore import (
    RankCensus,
    Tree,
    Vertex,
    census_of,
    from_newick,
    internal,
    is_valid,
    leaf,
    rank_of,
    to_newick,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "ConsistencyError",
    "ConvergenceTable",
    "DomainError",
    "EstimateReport",
    "InvalidTreeError",
    "LimitDistribution",
    "LimitEntry",
    "LogConcavityReport",
    "NewickParseError",
    "PhyloRankError",
    "RankCensus",
    "TableCoverageError",
    "Tree",
    "TruncatedSeries",
    "UniformityReport",
    "Vertex",
    "brute_census",
    "c_index",
    "census_of",
    "chi_square_uniformity",
    "coeff_T_pow",
    "convergence_table",
    "enumerate_all",
    "estimate_rank_distribution",
    "from_newick",
    "internal",
    "internal_vertices",
    "is_admissible",
    "is_valid",
    "leaf",
    "limit_distribution",
    "log_concavity_check",
    "log_concavity_over_ranks",
    "negligibility_ratio",
    "oracle_M",
    "oracle_R",
    "rank_eq_limit",
    "rank_ge_limit",
    "rank_ge_ratio",
    "rank_of",
    "sample_batch",
    "solve_T",
    "to_newick",
    "tree_count_closed",
    "validate",
    "verify_inverse",
    "verify_theorem_decomposition",
]
