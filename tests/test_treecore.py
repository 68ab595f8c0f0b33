import itertools
import math

import pytest

from phylorank import bruteforce
from phylorank.errors import DomainError, InvalidTreeError, NewickParseError
from phylorank.sampler import sample_batch
from phylorank.treecore import (
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


def test_canonical_newick_of_cherry():
    t = Tree(internal([leaf(2), leaf(1)]), 2)
    assert to_newick(t) == "(1,2);"


def test_canonical_newick_prefers_larger_subtree():
    # the third tree on {1,2,3}: cherry {2,3} plus leaf 1
    t = Tree(internal([leaf(1), internal([leaf(3), leaf(2)])]), 2)
    assert to_newick(t) == "((2,3),1);"


def test_canonical_newick_ties_broken_by_min_label():
    t = from_newick("((2,3),(1,4));", 2)
    assert to_newick(t) == "((1,4),(2,3));"


def test_canonical_newick_ternary_star():
    assert to_newick(from_newick("(3,1,2);", 3)) == "(1,2,3);"


@pytest.mark.parametrize(
    "text,canonical",
    [
        ("(1,(2,3));", "((2,3),1);"),
        ("((2,1),3);", "((1,2),3);"),
        ("(4,((2,1),3));", "(((1,2),3),4);"),
        ("1;", "1;"),
        (" ( 1 , ( 2 , 3 ) ) ; ", "((2,3),1);"),
    ],
)
def test_from_newick_canonicalizes(text, canonical):
    assert to_newick(from_newick(text, 2)) == canonical


def test_roundtrip_is_idempotent():
    for tree in bruteforce.enumerate_all(2, 5):
        s = to_newick(tree)
        again = from_newick(s, 2)
        assert to_newick(again) == s
        assert again == tree


@pytest.mark.parametrize(
    "bad",
    ["((1,2);", "(1,2)", "(1,,2);", "(1,2));", "();", "(1,2);x", ";", "(1,2) (3,4);", "(a,b);"],
)
def test_parse_errors_carry_position(bad):
    with pytest.raises(NewickParseError) as err:
        from_newick(bad, 2)
    assert err.value.position >= 0


@pytest.mark.parametrize("text, position", [("²;", 0), ("(1,٣);", 3), ("(1,2²);", 4)])
def test_labels_are_ascii_digits_only(text, position):
    # str.isdigit accepts these, and int() reads '٣' as 3
    with pytest.raises(NewickParseError) as err:
        from_newick(text, 2)
    assert err.value.position == position


@pytest.mark.parametrize("text", ["(0,1);", "((1,2),00);", "0;"])
def test_label_zero_is_an_invalid_tree(text):
    with pytest.raises(InvalidTreeError, match="leaf label 0 is not a positive integer"):
        from_newick(text, 2)


def test_validate_accepts_cherry():
    assert validate(from_newick("(1,2);", 2)) is None


def test_validate_rejects_wrong_arity():
    with pytest.raises(InvalidTreeError, match="children"):
        from_newick("(1,2,3);", 2)
    # built directly, validate reports instead of raising
    t = Tree(internal([leaf(1), leaf(2), leaf(3)]), 2)
    assert "children" in validate(t)
    assert not is_valid(t)


def test_validate_rejects_bad_label_set():
    t = Tree(internal([leaf(1), leaf(3)]), 2)
    assert "labels" in validate(t)
    with pytest.raises(InvalidTreeError, match="labels"):
        from_newick("((1,2),4);", 2)


def test_validate_rejects_duplicate_labels():
    t = Tree(internal([leaf(1), leaf(1)]), 2)
    assert validate(t) is not None


def test_leaf_rejects_bad_labels():
    with pytest.raises(DomainError):
        leaf(0)
    with pytest.raises(DomainError):
        leaf(-3)


def test_rank_of_leaf_is_zero():
    t = from_newick("(1,2);", 2)
    for v in t.vertices():
        if v.is_leaf:
            assert rank_of(t, v) == 0


def test_rank_of_balanced_root():
    t = from_newick("((1,2),(3,4));", 2)
    assert rank_of(t, t.root) == 2


def test_rank_of_caterpillar_root():
    t = from_newick("(((1,2),3),4);", 2)
    assert rank_of(t, t.root) == 1


def test_rank_of_unknown_vertex():
    t = from_newick("(1,2);", 2)
    other = from_newick("(1,2);", 2)
    with pytest.raises(DomainError):
        rank_of(t, other.root)


def test_census_single_leaf():
    c = census_of(from_newick("1;", 2), 2)
    assert c.exact == (1, 0, 0)
    assert c.total == 1


def test_census_balanced():
    c = census_of(from_newick("((1,2),(3,4));", 2), 2)
    assert c.exact == (4, 2, 1)
    assert c.tail == 0


def test_census_caterpillar():
    c = census_of(from_newick("(((1,2),3),4);", 2), 1)
    assert c.exact == (4, 3)
    assert c.tail == 0
    assert c.count_rank_ge(1) == 3


def test_census_tail_bucket():
    c = census_of(from_newick("((1,2),(3,4));", 2), 0)
    assert c.exact == (4,)
    assert c.tail == 3


def test_census_totals_match_vertex_formula():
    # every k-ary tree has k*s+1 vertices, s internal
    for k, n in [(2, 5), (3, 7), (4, 7)]:
        for tree in bruteforce.enumerate_all(k, n):
            c = census_of(tree, 4)
            s = (n - 1) // (k - 1)
            assert c.total == k * s + 1


def test_rank_bounds():
    # a vertex of rank r has at least 2^r descendant leaves
    for tree in bruteforce.enumerate_all(2, 6):
        assert rank_of(tree, tree.root) <= math.log2(6)
        for v in tree.vertices():
            r = rank_of(tree, v)
            assert 0 <= r
            assert 2**r <= v.size


def test_equality_and_hash_follow_canonical_string():
    a = from_newick("(1,(2,3));", 2)
    b = from_newick("((3,2),1);", 2)
    c = from_newick("((1,2),3);", 2)
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_deep_tree_is_safe():
    # a 600-leaf caterpillar: far deeper than the default recursion limit ok
    s = "1"
    for lab in range(2, 601):
        s = f"({s},{lab})"
    t = from_newick(s + ";", 2)
    assert t.n_leaves == 600
    assert rank_of(t, t.root) == 1
    assert to_newick(t).count("(") == 599


def test_newick_round_trip_of_a_deep_caterpillar():
    # 100,001 leaves, each vertex one level deeper than the last
    n = 100_001
    text = "(" * (n - 1) + "1" + "".join(f",{x})" for x in range(2, n + 1)) + ";"
    t = from_newick(text, 2)
    assert t.n_leaves == n and t.root.rank == 1
    assert to_newick(t) == text
    v = leaf(1)
    for x in range(2, n + 1):
        v = internal([v, leaf(x)])
    assert to_newick(Tree(v, 2)) == text


# ----- the cached preorder, the one-pass Newick and the canonical sort -----


def _preorder_reference(v):
    out = [v]
    for c in v.children:
        out += _preorder_reference(c)
    return out


def _newick_reference(v):
    if v.is_leaf:
        return str(v.label)
    return "(" + ",".join(_newick_reference(c) for c in v.children) + ")"


def _reference_trees():
    for k, n_max in ((2, 7), (3, 9)):
        for n in range(1, n_max + 1):
            yield from bruteforce.enumerate_all(k, n)


def _sampled_trees():
    yield from sample_batch(2, 1001, 20, base_seed=17)
    yield from sample_batch(4, 301, 20, base_seed=17)


def test_vertices_is_the_recursive_preorder():
    for t in itertools.chain(_reference_trees(), _sampled_trees()):
        expected = _preorder_reference(t.root)
        assert list(t.vertices()) == expected
        assert list(t.vertices()) == expected
        assert t.n_vertices == len(expected)


def test_newick_is_the_recursive_serialization():
    checked = 0
    for t in itertools.chain(_reference_trees(), _sampled_trees()):
        assert to_newick(t) == _newick_reference(t.root) + ";"
        checked += 1
    assert checked == 11465 + 15692 + 40


def _sibling_sets(k):
    """Children for one internal vertex over disjoint labels: all leaves,
    all equal-size internal vertices, and mixed sizes with ties, where the
    smaller subtrees hold the smaller labels."""
    leaves = [leaf(j) for j in range(1, k + 1)]
    subtrees = [internal([leaf(100 + k * i + j) for j in range(k)]) for i in range(k)]
    return [
        leaves,
        subtrees,
        leaves[: k - 1] + subtrees[:1],
        leaves[: k - 2] + subtrees[:2],
    ]


@pytest.mark.parametrize("k", [2, 3, 4])
def test_internal_sorts_every_permutation_canonically(k):
    for children in _sibling_sets(k):
        expected = sorted(children, key=Vertex.sort_key)
        for perm in itertools.permutations(children):
            v = internal(perm)
            assert list(v.children) == expected
            assert v.min_label == min(c.min_label for c in children)
            assert v.size == sum(c.size for c in children)
            assert v.rank == 1 + min(c.rank for c in children)


def test_internal_needs_a_child():
    with pytest.raises(DomainError):
        internal([])
