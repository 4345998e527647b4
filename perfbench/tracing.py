"""Span tracing of the pipeline's layers, installed from outside the package.

Each listed entry point is replaced, in every ``bibliorank`` namespace that
bound it by name, by a wrapper that records a span: entry name, start, end
and the index of the enclosing span. A layer's time is the self time of its
spans: their duration minus the time covered by wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter

#: Layer metric -> the entry points ("module.function" or
#: "module.Class.method") whose self time it sums. Per-record and per-pair
#: helpers (normalize_author, match_key, spearman) are left out: they run
#: once per record, so a wrapper would cost more than it measures, and their
#: callers' spans already cover them.
LAYERS: dict[str, tuple[str, ...]] = {
    "corpus.parse_s": ("corpus.parse_corpus",),
    "corpus.serialize_s": ("corpus.serialize_corpus",),
    "corpus.split_s": ("corpus.split_phases", "corpus.filter_with_references"),
    "corpus.generate_s": ("corpus.generate_synthetic",),
    "network.build_s": ("network.build_graph", "network.graph_stats"),
    "network.dump_s": ("network.dump_edges", "network.dump_nodes"),
    "pagerank.solve_s": ("pagerank.make_teleport", "pagerank.weighted_pagerank"),
    "pagerank.dump_s": ("pagerank.dump_scores",),
    "indicators.classical_s": (
        "indicators.load_impact_factors",
        "indicators.popularity_scores",
        "indicators.internal_citation_counts",
        "indicators.highly_cited_papers",
        "indicators.prestige_scores",
        "indicators.h_index_scores",
        "indicators.if_scores",
        "indicators.extend_scores",
    ),
    "indicators.rank_s": ("indicators.to_ranks", "indicators.top_k"),
    "indicators.dump_s": ("indicators.dump_indicator",),
    "stats.table_s": ("stats.IndicatorTable.from_scores",),
    "stats.correlation_s": ("stats.correlation_matrix",),
    "stats.pca_s": ("stats.pca_varimax",),
    "evaluation.coverage_s": ("evaluation.load_winners", "evaluation.coverage"),
    "pipeline.write_s": (
        "pipeline.write_table",
        "pipeline.write_correlation",
        "pipeline.write_pca",
        "pipeline.write_coverage",
        "pipeline.dump_impact_factors",
    ),
    # The root: run_pipeline time that no wrapped call covers.
    "pipeline.self_s": ("pipeline.run_pipeline",),
}
ROOT = "pipeline.run_pipeline"
SOLVE = "pagerank.weighted_pagerank"

_LAYER_OF = {entry: layer for layer, entries in LAYERS.items() for entry in entries}


class Tracer:
    """Installs the span wrappers on entry and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [entry, start, end, parent index or -1]
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, entry: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([entry, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    def _patch(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, inspect.getattr_static(obj, attr)))
        setattr(obj, attr, value)

    def __enter__(self) -> "Tracer":
        importlib.import_module("bibliorank.cli")  # binds every entry point by name
        namespaces = [m for name, m in list(sys.modules.items())
                      if name == "bibliorank" or name.startswith("bibliorank.")]
        for entry in _LAYER_OF:
            module_name, _, path = entry.partition(".")
            owner = sys.modules.get(f"bibliorank.{module_name}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            raw = inspect.getattr_static(owner, attr, None)
            if raw is None:
                continue  # renamed or removed: reported as never called
            if classes:
                if isinstance(raw, (classmethod, staticmethod)):
                    self._patch(owner, attr, type(raw)(self._wrap(entry, raw.__func__)))
                else:
                    self._patch(owner, attr, self._wrap(entry, raw))
                continue
            wrapped = self._wrap(entry, raw)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is raw:
                        self._patch(ns, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo.clear()


def summarize(spans: list[list]) -> dict:
    """Self seconds per layer, call counts and the root's duration.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations. The layer times then
    add up to the root span's duration.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    layers = dict.fromkeys(LAYERS, 0.0)
    run_s = 0.0
    for (entry, start, end, _), child in zip(spans, covered):
        layers[_LAYER_OF[entry]] += (end - start) - child
        if entry == ROOT:
            run_s += end - start
    calls = Counter(entry for entry, *_ in spans)
    return {
        "layers": layers,
        "run_s": run_s,
        "solves": calls[SOLVE],
        "never_called": sorted(e for e in _LAYER_OF if not calls[e]),
    }
