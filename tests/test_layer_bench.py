"""Microbenchmarks of the per-row writers over one synthetic phase-sized graph.

Tier-1 runs each body once as a plain test (``--benchmark-disable`` is in
the pytest addopts); ``--benchmark-enable`` times them:

    PYTHONPATH=src python -m pytest -q tests/test_layer_bench.py --benchmark-enable
"""

import io

import pytest

from bibliorank.corpus import filter_with_references, generate_synthetic
from bibliorank.indicators import ScoreVector, dump_indicator
from bibliorank.network import build_graph, dump_edges, dump_nodes
from bibliorank.pagerank import pagerank


@pytest.fixture(scope="module")
def graph():
    # about 29k nodes, 85% of them dangling, like a wide-sparse phase
    corpus, _ = filter_with_references(
        generate_synthetic(seed=11, n_papers=7000, n_authors=70000, skew=8))
    return build_graph(corpus)


def _written(dump, obj):
    buf = io.StringIO()
    dump(obj, buf)
    return buf.getvalue()


def test_dump_indicator(benchmark, graph):
    sv = ScoreVector("pagerank", graph.authors, pagerank(graph).scores)
    text = benchmark(_written, dump_indicator, sv)
    assert text.count("\n") == graph.n_nodes + 1


def test_dump_edges(benchmark, graph):
    text = benchmark(_written, dump_edges, graph)
    assert text.count("\n") == graph.adjacency.nnz


def test_dump_nodes(benchmark, graph):
    text = benchmark(_written, dump_nodes, graph)
    assert text.count("\n") == graph.n_nodes
