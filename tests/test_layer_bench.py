"""Microbenchmarks of single layers: the corpus producers and serializer on
one corpus shaped like the dense-core benchmark workload, and the per-row
writers over one synthetic phase-sized graph.

Tier-1 runs each body once as a plain test (``--benchmark-disable`` is in
the pytest addopts); ``--benchmark-enable`` times them:

    PYTHONPATH=src python -m pytest -q tests/test_layer_bench.py --benchmark-enable
"""

import io

import pytest

from bibliorank.corpus import (
    filter_with_references,
    generate_synthetic,
    parse_corpus,
    serialize_corpus,
)
from bibliorank.indicators import ScoreVector, dump_indicator
from bibliorank.network import build_graph, dump_edges, dump_nodes
from bibliorank.pagerank import pagerank
from tests.oracles import corpus_columns, generate_synthetic_loop


# 5k papers by 1.5k authors, skew 1: 30% of references repeat an earlier key
DENSE = dict(seed=13, n_papers=5000, n_authors=1500, skew=1.0)


def _written(dump, obj):
    buf = io.StringIO()
    dump(obj, buf)
    return buf.getvalue()


@pytest.fixture(scope="module")
def dense_corpus():
    return generate_synthetic(**DENSE)


@pytest.fixture(scope="module")
def dense_lines(dense_corpus):
    return _written(serialize_corpus, dense_corpus).splitlines(keepends=True)


def test_parse_corpus(benchmark, dense_lines):
    corpus = benchmark(parse_corpus, dense_lines)
    assert len(corpus) == DENSE["n_papers"]


def test_serialize_corpus(benchmark, dense_corpus):
    text = benchmark(_written, serialize_corpus, dense_corpus)
    assert text.count("\n") == DENSE["n_papers"]


def test_generate_synthetic(benchmark):
    corpus = benchmark(generate_synthetic, **DENSE)
    assert corpus_columns(corpus) == generate_synthetic_loop(**DENSE)


@pytest.fixture(scope="module")
def graph():
    # about 29k nodes, 85% of them dangling, like a wide-sparse phase
    corpus, _ = filter_with_references(
        generate_synthetic(seed=11, n_papers=7000, n_authors=70000, skew=8))
    return build_graph(corpus)


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
