"""Spans around calls into each phylorank module, recorded from the benchmark.

Tracing wraps the public entry points of the modules at every import site
(the package, the defining module, and each module that imported the name),
so calls that one layer makes into another are caught too.  Nothing inside
the program is changed or instrumented; an untraced run installs nothing.

A span is (layer, name, parent, start, end, key).  A layer's self time is the
sum over its spans of the span's duration minus its direct children's.
Spans stay in memory and are summarised when the workload ends.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from contextlib import nullcontext

# (layer, defining module, name, kind).  "call" spans one call; "gen" spans
# each next() of the returned generator, so a span never stays open across a
# yield.  Names missing from the program are skipped.
ENTRY_POINTS = [
    ("exactcount", "phylorank.exactcount", "CountTable.__init__", "call"),
    ("exactcount", "phylorank.exactcount", "CountTable.tree_count", "call"),
    ("exactcount", "phylorank.exactcount", "CountTable.forest_count", "call"),
    ("exactcount", "phylorank.exactcount", "CountTable.root_rank_count", "call"),
    ("exactcount", "phylorank.exactcount", "CountTable.rank_ge_count", "call"),
    ("exactcount", "phylorank.exactcount", "CountTable.total_vertex_count", "call"),
    ("exactcount", "phylorank.exactcount", "CountTable.rank_census", "call"),
    ("sampler", "phylorank.sampler", "sample_batch", "gen"),
    ("treecore", "phylorank.treecore", "to_newick", "call"),
    ("bruteforce", "phylorank.bruteforce", "enumerate_all", "gen"),
    ("bruteforce", "phylorank.bruteforce", "brute_census", "call"),
    ("seriesoracle", "phylorank.seriesoracle", "solve_T", "call"),
    ("seriesoracle", "phylorank.seriesoracle", "verify_inverse", "call"),
    ("seriesoracle", "phylorank.seriesoracle", "oracle_R", "call"),
    ("seriesoracle", "phylorank.seriesoracle", "oracle_M", "call"),
    ("seriesoracle", "phylorank.seriesoracle", "verify_theorem_decomposition", "call"),
    ("stats", "phylorank.stats", "chi_square_uniformity", "call"),
    ("stats", "phylorank.stats", "estimate_rank_distribution", "call"),
    ("stats", "phylorank.stats", "convergence_table", "call"),
    ("cli", "phylorank.cli", "main", "call"),
]

# Spans whose arguments identify a unit of work: the first call per
# (table, rank) builds a sequence, later ones look it up; solve_T is keyed by
# (k, order) to count recomputation.
_KEYS = {
    "CountTable.root_rank_count": lambda a: (id(a[0]), a[1]),
    "CountTable.rank_ge_count": lambda a: (id(a[0]), a[1]),
    "solve_T": lambda a: (a[0], a[1]),
}

# Methods whose int result counts toward exactcount.max_digits.
_INT_RESULTS = {
    "CountTable.tree_count",
    "CountTable.forest_count",
    "CountTable.root_rank_count",
    "CountTable.rank_ge_count",
    "CountTable.total_vertex_count",
}

LAYERS = ("exactcount", "sampler", "treecore", "bruteforce", "seriesoracle", "stats", "cli")


class NoTracer:
    """The untraced run: spans the benchmark opens itself cost one call."""

    active = False
    _null = nullcontext()

    def span(self, layer, name):
        return self._null


class Tracer:
    """The traced run: spans in memory, summarised by layer_metrics()."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, name, parent, start, end, key, produced]
        self._stack: list[int] = []
        self.active = True
        self.max_int = 0

    def begin(self, layer: str, name: str, key=None) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, name, parent, time.perf_counter(), None, key, False])
        self._stack.append(sid)
        return sid

    def end(self, sid: int, produced: bool = False) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[6] = produced
        self._stack.pop()

    def span(self, layer, name):
        return _Span(self, layer, name)

    # ------------------------------------------------------------ wrapping

    def _wrap_call(self, layer, name, fn):
        keyf = _KEYS.get(name)
        ints = name in _INT_RESULTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.begin(layer, name, keyf(args) if keyf else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(sid)
            if ints and isinstance(result, int) and abs(result) > self.max_int:
                self.max_int = abs(result)
            return result

        return wrapper

    def _wrap_gen(self, layer, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if not self.active:
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    yield item
                    continue
                sid = self.begin(layer, name)
                try:
                    item = next(inner)
                except StopIteration:
                    self.end(sid)
                    return
                except BaseException:
                    self.end(sid)
                    raise
                self.end(sid, produced=True)
                yield item

        return wrapper

    def install(self) -> None:
        """Replace every entry point, wherever phylorank has bound it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "phylorank" or name.startswith("phylorank."))]
        for layer, module_name, name, kind in ENTRY_POINTS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            if "." in name:  # a method: patching the class covers every caller
                cls_name, attr = name.split(".")
                cls = getattr(owner, cls_name, None)
                fn = getattr(cls, attr, None) if cls is not None else None
                if fn is not None:
                    setattr(cls, attr, self._wrap_call(layer, name, fn))
                continue
            fn = getattr(owner, name, None)
            if fn is None:
                continue
            wrapped = (self._wrap_gen if kind == "gen" else self._wrap_call)(layer, name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)

    # ------------------------------------------------------------ summary

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """The per-layer metrics, and the names of those whose layer never ran."""
        spans = self.spans
        dur = [s[4] - s[3] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[2] is not None:
                child[s[2]] += dur[i]
        self_time = {layer: 0.0 for layer in LAYERS}
        ran = set()
        for i, s in enumerate(spans):
            self_time[s[0]] += dur[i] - child[i]
            ran.add(s[0])

        def total(name, first_only=False):
            seen, acc = set(), 0.0
            for i, s in enumerate(spans):
                if s[1] != name:
                    continue
                if first_only:
                    if s[5] in seen:
                        continue
                    seen.add(s[5])
                acc += dur[i]
            return acc

        def self_of(name):
            return sum(dur[i] - child[i] for i, s in enumerate(spans) if s[1] == name)

        tree_ms = [dur[i] * 1e3 for i, s in enumerate(spans) if s[1] == "sample_batch" and s[6]]
        solve_keys = [s[5] for s in spans if s[1] == "solve_T"]
        metrics = {
            "exactcount.busy_s": self_time["exactcount"],
            "exactcount.build_s": total("CountTable.__init__"),
            "exactcount.root_rank_s": total("CountTable.root_rank_count", first_only=True),
            "exactcount.rank_ge_s": total("CountTable.rank_ge_count", first_only=True),
            "exactcount.max_digits": len(str(self.max_int)) if self.max_int else 0,
            "sampler.busy_s": self_time["sampler"],
            "sampler.tree_p50_ms": statistics.median(tree_ms) if tree_ms else 0.0,
            "sampler.trees": len(tree_ms),
            "treecore.ranks_s": total("ranks"),
            "treecore.newick_s": total("to_newick"),
            "bruteforce.busy_s": self_time["bruteforce"],
            "bruteforce.trees": sum(1 for s in spans if s[1] == "enumerate_all" and s[6]),
            "seriesoracle.busy_s": self_time["seriesoracle"],
            "seriesoracle.solve_T_s": total("solve_T"),
            "seriesoracle.solve_T_calls_per_key":
                len(solve_keys) / len(set(solve_keys)) if solve_keys else 0.0,
            "stats.chi_square_self_s": self_of("chi_square_uniformity"),
            "cli.verify_self_s": self_of("main"),
        }
        idle = sorted(m for m in metrics if m.split(".")[0] not in ran)
        return metrics, idle


class _Span:
    __slots__ = ("tracer", "layer", "name", "sid")

    def __init__(self, tracer, layer, name):
        self.tracer, self.layer, self.name = tracer, layer, name

    def __enter__(self):
        self.sid = self.tracer.begin(self.layer, self.name)

    def __exit__(self, *exc):
        self.tracer.end(self.sid)
        return False
