"""Exception types shared across the package."""


class PhyloRankError(Exception):
    """Base class for all package errors."""


class DomainError(PhyloRankError, ValueError):
    """Raised when an argument is outside the mathematical domain of an operation."""


class ConsistencyError(PhyloRankError, RuntimeError):
    """Raised when two independent computations of the same quantity disagree.

    This always signals an implementation bug, never bad user input.
    """


class TableCoverageError(DomainError):
    """Raised when a CountTable is queried beyond the range it was built for."""


class NewickParseError(PhyloRankError, ValueError):
    """Raised on malformed Newick input; carries the 0-based offset of the problem."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidTreeError(PhyloRankError, ValueError):
    """Raised when a structurally parsed tree violates a tree invariant."""


def require_int(value, name: str, minimum: int) -> None:
    """Raise :class:`DomainError` unless ``value`` is an int, not a bool, >= ``minimum``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise DomainError(f"{name} must be an integer >= {minimum}, got {value!r}")
