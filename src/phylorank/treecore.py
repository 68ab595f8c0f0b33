"""Rooted non-plane leaf-labeled k-ary trees.

A tree is built from :class:`Vertex` nodes: a leaf carries a positive integer
label, an internal vertex carries exactly ``k`` children.  Only the leaves are
labeled.  Children are semantically an unordered set; the stored order is
canonical — larger subtrees first (by leaf count), ties broken by the minimum
leaf label — so structural equality coincides with semantic equality and
serialization is deterministic.  The three trees on {1,2,3} with k=2 thus
serialize as ``((1,2),3);``, ``((1,3),2);`` and ``((2,3),1);``.

The *rank* of a vertex is its distance to the nearest descendant leaf: leaves
have rank 0, parents of leaves have rank 1, and so on.  It depends only on the
subtree, so every vertex records it when built (``Vertex.rank``).

A :class:`Tree` computes its preorder vertex list once, on first use, and
caches it together with its Newick string: the census, ``rank_of``,
validation and serialization all read that one list.  All traversals are
iterative; trees with thousands of leaves (and hence potentially very deep
spines) are safe to process.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import attrgetter
from typing import Iterable

from .errors import DomainError, InvalidTreeError, NewickParseError, require_int


class Vertex:
    """A single tree vertex: either a labeled leaf or an internal vertex.

    Instances are immutable once constructed.  Use :func:`leaf` and
    :func:`internal` instead of calling the constructor directly.
    """

    __slots__ = ("label", "children", "min_label", "size", "rank")

    def __init__(self, label, children, min_label, size, rank):
        self.label = label
        self.children = children
        self.min_label = min_label
        self.size = size  # number of leaves in the subtree
        self.rank = rank  # distance to the nearest descendant leaf

    @property
    def is_leaf(self) -> bool:
        return self.label is not None

    def sort_key(self) -> tuple[int, int]:
        """Canonical sibling order: more leaves first, ties by min leaf label."""
        return (-self.size, self.min_label)

    def __repr__(self):
        if self.is_leaf:
            return f"Vertex(leaf {self.label})"
        return f"Vertex(internal, {len(self.children)} children, {self.size} leaves)"


def leaf(label: int) -> Vertex:
    """A leaf vertex carrying ``label`` (a positive integer)."""
    if not isinstance(label, int) or isinstance(label, bool) or label < 1:
        raise DomainError(f"leaf labels must be positive integers, got {label!r}")
    return Vertex(label, (), label, 1, 0)


_min_label = attrgetter("min_label")
_size = attrgetter("size")
_rank = attrgetter("rank")


def internal(children) -> Vertex:
    """An internal vertex over ``children``, stored in canonical order.

    Siblings have disjoint leaf-label sets in a valid tree, so the
    (size, min-label) key is a total order and the stored form is unique.
    """
    kids = sorted(children, key=_min_label)
    if not kids:
        raise DomainError("an internal vertex needs at least one child")
    least = kids[0].min_label
    # stable, reverse included: the order of Vertex.sort_key, by C-level keys
    kids.sort(key=_size, reverse=True)
    return Vertex(
        None,
        tuple(kids),
        least,
        sum(map(_size, kids)),
        1 + min(map(_rank, kids)),
    )


class Tree:
    """A k-phylogenetic tree: a canonical root vertex plus its branching factor."""

    __slots__ = ("root", "k", "_preorder", "_newick", "_members")

    def __init__(self, root: Vertex, k: int):
        require_int(k, "branching factor", 2)
        self.root = root
        self.k = k
        self._preorder = None
        self._newick = None
        self._members = None  # this tree's vertices, by identity, built on demand

    def vertices(self) -> tuple[Vertex, ...]:
        """All vertices in preorder, computed once (iteratively) and cached."""
        if self._preorder is None:
            order = []
            stack = [self.root]
            while stack:
                v = stack.pop()
                order.append(v)
                stack += v.children[::-1]
            self._preorder = tuple(order)
        return self._preorder

    def leaf_labels(self) -> list[int]:
        """Labels of all leaves, in no particular order (duplicates preserved)."""
        return [v.label for v in self.vertices() if v.is_leaf]

    @property
    def n_leaves(self) -> int:
        return self.root.size

    @property
    def n_vertices(self) -> int:
        return len(self.vertices())

    def __eq__(self, other):
        if not isinstance(other, Tree):
            return NotImplemented
        return self.k == other.k and to_newick(self) == to_newick(other)

    def __hash__(self):
        return hash((self.k, to_newick(self)))

    def __repr__(self):
        return f"Tree(k={self.k}, {to_newick(self)})"


@dataclass(frozen=True)
class RankCensus:
    """Vertex counts by rank at one (k, n): over every tree on {1..n}
    (``CountTable.rank_census``, ``brute_census``) or over one tree (``census_of``).

    ``exact[i]`` counts vertices of rank exactly i for i <= max_rank,
    ``ratios[i]`` divides it by ``total``, and ``tail`` counts the vertices of
    higher rank.  A census of no vertices (inadmissible n) is empty: ``exact``
    and ``ratios`` are ``()``.
    """

    k: int
    n: int
    exact: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    tail: int
    total: int

    @property
    def max_rank(self) -> int:
        return len(self.exact) - 1

    def count_rank_ge(self, i: int) -> int:
        """Vertices of rank >= i.  Defined for i <= max_rank + 1, and for
        every i when the census is empty."""
        if self.total and i > len(self.exact):
            raise DomainError(f"census only covers ranks up to {self.max_rank}")
        return self.total - sum(self.exact[:i])

    @classmethod
    def of_trees(cls, k: int, n: int, trees: Iterable[Tree], max_rank: int) -> "RankCensus":
        """Census of every vertex of ``trees``, all on leaf set {1..n}."""
        require_int(max_rank, "max_rank", 0)
        by_rank = Counter(map(_rank, chain.from_iterable(map(Tree.vertices, trees))))
        total = sum(by_rank.values())
        if not total:
            return cls(k=k, n=n, exact=(), ratios=(), tail=0, total=0)
        exact = tuple(by_rank[i] for i in range(max_rank + 1))
        ratios = tuple(Fraction(e, total) for e in exact)
        return cls(k=k, n=n, exact=exact, ratios=ratios, tail=total - sum(exact), total=total)


def validate(tree: Tree) -> str | None:
    """Check all tree invariants; return None if valid, else the first violation.

    Invariants: every vertex is a leaf or has exactly k children; leaf labels
    are exactly {1, ..., n} with each label appearing once; children of every
    internal vertex are in canonical order (more leaves first, then least label).
    """
    k = tree.k
    labels = []
    for v in tree.vertices():
        if v.is_leaf:
            if not isinstance(v.label, int) or v.label < 1:
                return f"leaf label {v.label!r} is not a positive integer"
            labels.append(v.label)
        else:
            if len(v.children) != k:
                return (
                    f"internal vertex has {len(v.children)} children, expected {k}"
                )
            keys = [c.sort_key() for c in v.children]
            if keys != sorted(keys):
                return "children are not in canonical order"
    n = len(labels)
    if sorted(labels) != list(range(1, n + 1)):
        return f"leaf labels {sorted(labels)} are not exactly 1..{n}"
    return None


def is_valid(tree: Tree) -> bool:
    return validate(tree) is None


def rank_of(tree: Tree, vertex: Vertex) -> int:
    """Rank of ``vertex``: distance to its nearest descendant leaf."""
    if tree._members is None:
        tree._members = frozenset(tree.vertices())
    if vertex not in tree._members:
        raise DomainError("vertex does not belong to this tree")
    return vertex.rank


def census_of(tree: Tree, max_rank: int) -> RankCensus:
    """Count vertices of each rank 0..max_rank; higher ranks go into the tail."""
    return RankCensus.of_trees(tree.k, tree.n_leaves, (tree,), max_rank)


def to_newick(tree: Tree) -> str:
    """Canonical Newick serialization, e.g. ``((1,2),3);`` — children in canonical order."""
    if tree._newick is None:
        # One preorder pass writes the tokens in order; ``left`` counts the
        # children still to come of each open vertex.  Joining every ~4k
        # tokens keeps the token list small next to the tree.
        chunks: list[str] = []
        tokens: list[str] = []
        left: list[int] = []
        for v in tree.vertices():
            if v.label is None:
                tokens.append("(")
                left.append(len(v.children))
                continue
            tokens.append(str(v.label))
            while left:
                left[-1] -= 1
                if left[-1]:
                    tokens.append(",")
                    break
                left.pop()
                tokens.append(")")
            if len(tokens) >= 4096:
                chunks.append("".join(tokens))
                tokens.clear()
        tokens.append(";")
        chunks.append("".join(tokens))
        tree._newick = "".join(chunks)
    return tree._newick


def from_newick(text: str, k: int) -> Tree:
    """Parse a Newick string and validate it as a k-phylogenetic tree.

    Whitespace is tolerated anywhere; output is canonicalized, so
    ``to_newick(from_newick(s, k))`` is the canonical form of ``s``.
    Raises :class:`NewickParseError` on syntax errors and
    :class:`InvalidTreeError` on arity or label violations.
    """
    stack: list[list[Vertex]] = []
    done: Vertex | None = None
    expect_item = True  # a subtree may start here ('(' or a label)
    terminated = False
    i, n = 0, len(text)

    def fail(msg, pos):
        raise NewickParseError(msg, pos)

    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            if not expect_item:
                fail("unexpected '('", i)
            stack.append([])
            i += 1
        elif "0" <= ch <= "9":  # ASCII digits only: str.isdigit also takes '²' and '٣'
            if not expect_item:
                fail("unexpected label", i)
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if not (label := int(text[i:j])):
                raise InvalidTreeError(f"leaf label 0 is not a positive integer (at position {i})")
            node = leaf(label)
            if stack:
                stack[-1].append(node)
            else:
                done = node
            expect_item = False
            i = j
        elif ch == ",":
            if not stack or expect_item:
                fail("unexpected ','", i)
            expect_item = True
            i += 1
        elif ch == ")":
            if not stack:
                fail("unbalanced ')'", i)
            if expect_item:
                fail("missing subtree before ')'", i)
            kids = stack.pop()
            node = internal(kids)
            if stack:
                stack[-1].append(node)
            else:
                done = node
            i += 1
        elif ch == ";":
            if stack:
                fail("';' inside an unbalanced subtree", i)
            if done is None:
                fail("';' with no tree", i)
            i += 1
            if text[i:].strip():
                fail("trailing content after ';'", i)
            terminated = True
            break
        else:
            fail(f"unexpected character {ch!r}", i)

    if not terminated:
        fail("unterminated tree (missing ';')", n)

    tree = Tree(done, k)
    problem = validate(tree)
    if problem is not None:
        raise InvalidTreeError(problem)
    return tree
