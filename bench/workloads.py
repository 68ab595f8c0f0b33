"""The benchmark workloads: set-up, the ops timed back to back, their checks.

Each workload is a closed loop with one caller: an op starts when the
previous op and its output check have finished.  Only ``op`` spans are timed;
checks run between them.  Every workload calls public names of ``phylorank``
only, looked up on the package at call time so that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import time
import traceback

import checks

K2 = 2
K3 = 3


def derived_seed(workload_seed: int, purpose: str) -> int:
    """A 63-bit seed for one use, derived from the workload seed."""
    digest = hashlib.blake2b(f"bench:{workload_seed}:{purpose}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class Recorder:
    """Counts ops and failures, and keeps each op's latency."""

    def __init__(self, tracer, probe):
        self.tracer = tracer
        self.probe = probe
        self.clock = probe.clock
        self.op_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_op_at: float | None = None

    def op(self) -> "_Op":
        return _Op(self)

    def starting(self) -> None:
        """The first op starts: set-up ends.  ``first_op_at`` is on the
        parent's clock, less the time spent in the speed probe."""
        if self.first_op_at is None:
            self.first_op_at = time.monotonic() - self.probe.stolen
            self.probe.mark()

    def extra(self, problems: list[str]) -> None:
        """A check that is an op of its own (no latency)."""
        self.attempted += 1
        self.flag(problems)

    def flag(self, problems: list[str]) -> None:
        """Output problems of the op that just ended."""
        if problems:
            self.failed += 1
            self.problems.extend(problems[:3])

    @contextlib.contextmanager
    def unchecked(self):
        """Checks call the program too; keep those calls out of the trace."""
        was = self.tracer.active
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = was


class _Op:
    """Times one op; an exception inside it makes the op fail, not the run."""

    __slots__ = ("rec", "ok", "start")

    def __init__(self, rec):
        self.rec = rec
        self.ok = False

    def __enter__(self):
        self.rec.starting()
        self.start = self.rec.clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        rec = self.rec
        elapsed = rec.clock() - self.start
        rec.attempted += 1
        rec.op_s.append(elapsed)
        if exc_type is None:
            self.ok = True
            return False
        if not issubclass(exc_type, Exception):
            return False
        rec.failed += 1
        rec.problems.append("".join(traceback.format_exception_only(exc_type, exc)).strip())
        return True


class ExactK2:
    """CountTable(2, n), then r_i and m_i for i = 1, 2: exactcount's closed
    forms and their quadratic cross-checks.  No sampling, so every sampler
    change should leave it alone."""

    name = "exact-k2"
    modules = ("phylorank",)

    def __init__(self, n: int):
        self.n = n

    def setup(self, pr):
        return pr.CountTable(K2, self.n)

    def run(self, pr, table, seed: int, rec: Recorder) -> None:
        n = self.n
        digests = checks.load_digests().get(self.name, {}).get(str(n), {})
        trees = upper_m = None
        for i in (1, 2):
            for tag, query in ((f"r{i}", table.root_rank_count), (f"m{i}", table.rank_ge_count)):
                with rec.op() as op:
                    query(i, n)
                if not op.ok:
                    continue
                problems = []
                with rec.unchecked():
                    if trees is None:
                        trees = [table.tree_count(j) for j in range(1, n + 1)]
                        upper_m = [table.total_vertex_count(j) for j in range(1, n + 1)]
                        problems += checks.vertex_totals(K2, trees, upper_m)
                    values = [query(i, j) for j in range(1, n + 1)]
                upper = trees if tag[0] == "r" else upper_m
                problems += checks.exact_sequence(tag, values, digests.get(tag), upper)
                rec.flag(problems)
                if tag[0] == "m":
                    upper_m = values


class SampleK2:
    """A batch of uniform trees at k=2 from one shared CountTable; per tree,
    its vertex ranks and canonical Newick form, as ``estimate`` and
    ``sample`` compute them.  One op is one tree."""

    name = "sample-k2"
    modules = ("phylorank",)
    ranks_checked = (1, 2, 3)

    def __init__(self, n: int, trees: int):
        self.n = n
        self.trees = trees

    def setup(self, pr):
        return pr.CountTable(K2, self.n)

    def run(self, pr, table, seed: int, rec: Recorder) -> None:
        n, span = self.n, rec.tracer.span
        batch = pr.sample_batch(K2, n, self.trees, derived_seed(seed, self.name), table=table)
        per_tree = {i: [] for i in self.ranks_checked}
        for _ in range(self.trees):
            with rec.op() as op:
                tree = next(batch)
                with span("treecore", "ranks"):
                    ranks = [pr.rank_of(tree, v) for v in tree.vertices()]
                newick = pr.to_newick(tree)
            if not op.ok:
                break
            with rec.unchecked():
                rec.flag(checks.sampled_tree(pr, newick, ranks, K2, n))
            for i, freqs in per_tree.items():
                freqs.append(ranks.count(i) / len(ranks))
        with rec.unchecked():
            rec.extra(checks.rank_frequencies(pr, K2, per_tree))


class VerifyK3:
    """``phylorank verify`` at k=3 in process: brute-force enumeration,
    the series oracle and a chi-square test of the sampler on tiny trees.
    One op is one PASS/FAIL line."""

    name = "verify-k3"
    modules = ("phylorank", "phylorank.cli")

    def __init__(self, n_max: int, order: int):
        self.n_max = n_max
        self.order = order

    def setup(self, pr):
        return None

    def run(self, pr, _table, seed: int, rec: Recorder) -> None:
        argv = ["verify", "--k", str(K3), "--n-max", str(self.n_max),
                "--order", str(self.order), "--seed", str(derived_seed(seed, self.name))]
        out = io.StringIO()
        rec.starting()
        start = rec.clock()
        try:
            with contextlib.redirect_stdout(out):
                code = pr.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the op fails; the run goes on and reports it
            code = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        elapsed = rec.clock() - start
        attempted, failed, problems = checks.verify_output(code, out.getvalue().splitlines())
        # verify prints every line when it ends, so its lines share the
        # invocation's time equally.
        rec.op_s.extend([elapsed / attempted] * attempted)
        rec.attempted += attempted
        rec.failed += failed
        rec.problems.extend(problems[:3])


FULL = {
    w.name: w
    for w in (ExactK2(n=701), SampleK2(n=1001, trees=100), VerifyK3(n_max=9, order=64))
}

# Tiny sizes for the smoke tests: same code paths, well under a second each.
SMOKE = {
    w.name: w
    for w in (ExactK2(n=41), SampleK2(n=129, trees=40), VerifyK3(n_max=5, order=12))
}
