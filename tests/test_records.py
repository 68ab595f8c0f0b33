"""The nine report and census records: their fields, immutability, value
equality, repr and methods."""

from fractions import Fraction

import pytest

from phylorank.errors import DomainError
from phylorank.exactcount import LimitDistribution, LimitEntry, LogConcavityReport
from phylorank.stats import (
    ConvergenceRow,
    ConvergenceTable,
    EstimateReport,
    RankEstimateRow,
    UniformityReport,
)
from phylorank.treecore import RankCensus

FIELDS = {
    RankCensus: ("k", "n", "exact", "ratios", "tail", "total"),
    LimitEntry: ("rank", "c", "tail_prob", "point_prob"),
    LimitDistribution: ("k", "entries"),
    LogConcavityReport: ("axis", "fixed_value", "checked", "violations"),
    RankEstimateRow: ("rank", "count", "frequency", "limit", "deviation"),
    EstimateReport: (
        "k", "n", "samples", "seed", "max_rank", "total_vertices", "rows", "tail_count",
    ),
    UniformityReport: (
        "k", "n", "samples", "seed", "significance", "support", "df",
        "statistic_exact", "statistic", "critical", "passed",
    ),
    ConvergenceRow: ("n", "ratio", "gap", "negligibility"),
    ConvergenceTable: ("k", "i", "limit", "rows"),
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_in_order(cls):
    assert cls._fields == FIELDS[cls]


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned(cls):
    record = cls(*range(len(FIELDS[cls])))
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)
    assert record == tuple(range(len(FIELDS[cls])))


def test_equal_fields_give_equal_records_and_hashes():
    a = RankCensus.of_counts(2, 4, {0: 4, 1: 2, 2: 1}, 2)
    b = RankCensus(k=2, n=4, exact=(4, 2, 1),
                   ratios=(Fraction(4, 7), Fraction(2, 7), Fraction(1, 7)), tail=0, total=7)
    assert a == b and hash(a) == hash(b)
    assert a != b._replace(tail=1)
    e = LimitEntry(rank=1, c=1, tail_prob=Fraction(1, 2), point_prob=Fraction(3, 8))
    f = LimitEntry(1, 1, Fraction(1, 2), Fraction(3, 8))
    assert e == f and hash(e) == hash(f)
    assert e != f._replace(c=2)


def test_repr_is_the_dataclass_repr():
    e = LimitEntry(rank=1, c=1, tail_prob=Fraction(1, 2), point_prob=Fraction(3, 8))
    assert repr(e) == (
        "LimitEntry(rank=1, c=1, tail_prob=Fraction(1, 2), point_prob=Fraction(3, 8))"
    )


def test_log_concavity_report_ok():
    assert LogConcavityReport("k", 2, (3,), ()).ok
    assert not LogConcavityReport("k", 2, (3,), ((3, (1, 4), (1, 2)),)).ok


def test_census_methods():
    c = RankCensus.of_counts(2, 4, {0: 4, 1: 2, 2: 1}, 1)
    assert (c.exact, c.tail, c.total, c.max_rank) == ((4, 2), 1, 7, 1)
    assert c.ratios == (Fraction(4, 7), Fraction(2, 7))
    assert [c.count_rank_ge(i) for i in range(3)] == [7, 3, 1]
    with pytest.raises(DomainError):
        c.count_rank_ge(3)
    empty = RankCensus.of_counts(2, 2, {}, 3)
    assert empty == RankCensus(k=2, n=2, exact=(), ratios=(), tail=0, total=0)
    assert (empty.max_rank, empty.count_rank_ge(5)) == (-1, 0)
    # a rank that does not exist is refused, not read off a slice
    for census in (c, empty):
        for bad in (-1, 2.5, True):
            with pytest.raises(DomainError, match="rank index"):
                census.count_rank_ge(bad)
    with pytest.raises(DomainError):
        RankCensus.of_counts(2, 4, {0: 4}, -1)
