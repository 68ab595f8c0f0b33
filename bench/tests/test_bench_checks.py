"""Fault injection: each output check of the benchmark must fire.

Faults are injected through the public surface only (a table or module whose
answers are corrupted), so the tests survive refactors of the program.
"""

import re
import types

import phylorank
import pytest

import checks
import speed
import tracing
import workloads


def program(**overrides):
    """phylorank as the workloads see it, with some names replaced."""
    names = {name: getattr(phylorank, name) for name in dir(phylorank) if not name.startswith("__")}
    names.update(overrides)
    return types.SimpleNamespace(**names)


def recorder():
    return workloads.Recorder(tracing.NoTracer(), speed.NoProbe())


# ---------------------------------------------------------------- exact-k2


def test_exact_workload_passes_at_smoke_size():
    w = workloads.SMOKE["exact-k2"]
    rec = recorder()
    w.run(phylorank, w.setup(phylorank), 0, rec)
    assert (rec.attempted, rec.failed) == (4, 0), rec.problems


@pytest.mark.parametrize("tag", ["r1", "m1", "r2", "m2"])
def test_corrupted_exact_value_fails_its_op(tag):
    w = workloads.SMOKE["exact-k2"]
    table = w.setup(phylorank)
    name = "root_rank_count" if tag[0] == "r" else "rank_ge_count"
    real = getattr(table, name)
    bad_i = int(tag[1])

    def corrupted(i, n):
        value = real(i, n)
        return value + 1 if (i, n) == (bad_i, w.n // 2) else value

    setattr(table, name, corrupted)
    rec = recorder()
    w.run(phylorank, table, 0, rec)
    assert (rec.attempted, rec.failed) == (4, 1)
    assert any(tag in p and "digest" in p for p in rec.problems)


def test_exact_upper_bound_fires_without_a_digest():
    assert checks.exact_sequence("m2", [1, 5, 3], None, [2, 4, 3]) == [
        "m2: no recorded digest for this size",
        "m2(2) = 5 is outside [0, 4]",
    ]


def test_vertex_total_mismatch_fires():
    # k=2: m_0(n) = (2s+1) t(n) with s = n-1, so m_0(2) = 3 * 1
    assert checks.vertex_totals(2, [1, 1, 3], [1, 3, 15]) == []
    assert checks.vertex_totals(2, [1, 1, 3], [1, 4, 15]) != []


# --------------------------------------------------------------- sample-k2


def _duplicate_first_label(newick: str) -> str:
    first, second = re.findall(r"\d+", newick)[:2]
    return re.sub(rf"(?<!\d){first}(?!\d)", second, newick, count=1)


def test_tree_with_duplicated_label_fails_its_op():
    w = workloads.SMOKE["sample-k2"]
    calls = []

    def to_newick(tree):
        calls.append(tree)
        text = phylorank.to_newick(tree)
        return _duplicate_first_label(text) if len(calls) == 3 else text

    rec = recorder()
    w.run(program(to_newick=to_newick), w.setup(phylorank), 0, rec)
    assert rec.attempted == w.trees + 1  # each tree, then the frequency check
    assert rec.failed == 1
    assert "does not re-parse" in rec.problems[0]


def test_wrong_vertex_ranks_fail_the_tree_check():
    tree = next(phylorank.sample_batch(2, 9, 1, 0))
    newick = phylorank.to_newick(tree)
    ranks = [phylorank.rank_of(tree, v) for v in tree.vertices()]
    assert checks.sampled_tree(phylorank, newick, ranks, 2, 9) == []
    leaf_as_cherry = list(ranks)
    leaf_as_cherry[ranks.index(0)] = 1
    assert checks.sampled_tree(phylorank, newick, leaf_as_cherry, 2, 9) != []
    assert checks.sampled_tree(phylorank, newick, ranks[:-1], 2, 9) != []


def test_biased_rank_frequencies_fail():
    limit = float(phylorank.rank_eq_limit(2, 1))
    near = {1: [limit - 0.01, limit + 0.01] * 50}
    assert checks.rank_frequencies(phylorank, 2, near) == []
    far = {1: [limit + 0.02, limit + 0.04] * 50}
    assert "standard errors from the limit" in checks.rank_frequencies(phylorank, 2, far)[0]


# --------------------------------------------------------------- verify-k3


def test_fail_line_fails_its_op():
    def main(argv):
        print("PASS triple agreement at n=1")
        print("FAIL chi-square uniformity at n=5 (stat 99.00 < 27.88)")
        print("FAIL")
        return 3

    w = workloads.SMOKE["verify-k3"]
    rec = recorder()
    w.run(program(cli=types.SimpleNamespace(main=main)), None, 0, rec)
    assert (rec.attempted, rec.failed) == (3, 2)
    assert len(rec.op_s) == 3


def test_nonzero_exit_without_fail_line_fails():
    assert checks.verify_output(0, ["PASS a", "PASS"]) == (2, 0, [])
    attempted, failed, problems = checks.verify_output(3, ["PASS a", "PASS"])
    assert (attempted, failed) == (3, 1)
    assert checks.verify_output(0, [])[1] == 1


def test_raising_verify_fails_its_op():
    def main(argv):
        raise RuntimeError("boom")

    rec = recorder()
    workloads.SMOKE["verify-k3"].run(program(cli=types.SimpleNamespace(main=main)), None, 0, rec)
    assert rec.failed == 1
    assert any("boom" in p for p in rec.problems)
