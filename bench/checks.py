"""Output checks for the benchmark workloads.

Each check takes what the program returned and gives back a list of problem
strings; an empty list means the output is correct.  The checks use only
public names of ``phylorank`` and never time themselves: the workloads call
them between ops, outside the timed spans.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# A sampled rank frequency may sit this many standard errors from its limit.
# At n=1001 the finite-n gap to the limit is below one standard error of a
# 100-tree batch (rank 2: gap 2.7e-4, standard error 3.4e-4), so a correct
# sampler fails this test with probability below 1e-6 per rank.
FREQUENCY_Z = 6.0


def sequence_digest(values) -> str:
    """sha256 of the decimal values, comma separated, in order."""
    text = ",".join(str(v) for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def load_digests() -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def exact_sequence(name: str, values, expected_digest: str | None, upper) -> list[str]:
    """One exact sequence for n = 1..N against its recorded digest and an
    upper bound that must hold at every n (t for r_i, m_{i-1} for m_i)."""
    problems = []
    if expected_digest is None:
        problems.append(f"{name}: no recorded digest for this size")
    elif sequence_digest(values) != expected_digest:
        problems.append(f"{name}: digest differs from the recorded one")
    for n, (v, hi) in enumerate(zip(values, upper), start=1):
        if not 0 <= v <= hi:
            problems.append(f"{name}({n}) = {v} is outside [0, {hi}]")
            break
    return problems


def vertex_totals(k: int, trees, totals) -> list[str]:
    """m_0(n) = (k*s+1) * t(n) at every admissible n, and 0 elsewhere."""
    for n, (t, m0) in enumerate(zip(trees, totals), start=1):
        if (n - 1) % (k - 1):
            want = 0
        else:
            want = (k * ((n - 1) // (k - 1)) + 1) * t
        if m0 != want:
            return [f"m_0({n}) = {m0}, expected (k*s+1)*t = {want}"]
    return []


def sampled_tree(pr, newick: str, ranks, k: int, n: int) -> list[str]:
    """A sampled tree re-parsed from its Newick form: valid arity and labels,
    k*s+1 vertices, and exactly n vertices of rank 0."""
    vertices = k * ((n - 1) // (k - 1)) + 1
    try:
        tree = pr.from_newick(newick, k)
    except pr.PhyloRankError as exc:
        return [f"sampled tree does not re-parse: {exc}"]
    problems = []
    if tree.n_vertices != vertices:
        problems.append(f"re-parsed tree has {tree.n_vertices} vertices, expected {vertices}")
    if len(ranks) != vertices:
        problems.append(f"{len(ranks)} ranks for a tree of {vertices} vertices")
    if ranks.count(0) != n:
        problems.append(f"{ranks.count(0)} vertices of rank 0, expected {n} leaves")
    return problems


def rank_frequencies(pr, k: int, per_tree: dict[int, list[float]]) -> list[str]:
    """Batch mean of each rank's per-tree frequency within FREQUENCY_Z
    standard errors of rank_eq_limit(k, i).  The standard error is taken
    across trees, the independent unit; vertices of one tree are not."""
    problems = []
    for i, freqs in sorted(per_tree.items()):
        if len(freqs) < 2:
            problems.append(f"rank {i}: {len(freqs)} trees, need at least 2")
            continue
        mean = statistics.fmean(freqs)
        se = statistics.stdev(freqs) / math.sqrt(len(freqs))
        limit = float(pr.rank_eq_limit(k, i))
        if not abs(mean - limit) <= FREQUENCY_Z * se:
            problems.append(
                f"rank {i}: frequency {mean:.6f} is {abs(mean - limit) / se if se else math.inf:.1f} "
                f"standard errors from the limit {limit:.6f} (allowed {FREQUENCY_Z})"
            )
    return problems


def verify_output(code, lines: list[str]) -> tuple[int, int, list[str]]:
    """(ops attempted, ops failed, problems) for one ``phylorank verify`` run.

    Every printed line is an op and must read PASS; a non-zero exit code with
    no FAIL line to show for it counts as one more failed op.
    """
    failing = [line for line in lines if line.split(" ", 1)[0] != "PASS"]
    problems = [f"verify line: {line}" for line in failing]
    attempted, failed = max(len(lines), 1), len(failing)
    if not lines:
        failed = 1
        problems.append("verify printed nothing")
    if code != 0:
        problems.append(f"verify exit code {code}")
        if not failing and lines:
            attempted += 1
            failed += 1
    return attempted, failed, problems
