import json

import numpy as np
import pytest
from scipy import sparse

from bibliorank.corpus import Corpus, parse_corpus
from bibliorank.network import AuthorCitationGraph
from bibliorank.pagerank import PageRankConfig


def graph_from_matrix(weights, publications=None, authors=None) -> AuthorCitationGraph:
    """Build a graph directly from an N x N weight matrix (w[j, i] = j->i),
    over ``authors`` (sorted; N000, N001, ... by default)."""
    w = np.asarray(weights, dtype=np.int64)
    n = w.shape[0]
    authors = [f"N{i:03d}" for i in range(n)] if authors is None else authors
    adjacency = sparse.csr_matrix(w)
    pubs = np.zeros(n, dtype=np.int64) if publications is None else np.asarray(publications)
    return AuthorCitationGraph(
        authors=authors,
        adjacency=adjacency,
        citations_received=np.asarray(adjacency.sum(axis=0)).ravel().astype(np.int64),
        publications=pubs.astype(np.int64),
    )


def paper(pid, author, year=2000, source="J TEST", refs=(), volume=None, page=None):
    """One record of ``corpus_of``."""
    return (pid, author, year, source, volume, page, tuple(refs))


def ref(author, year=1999, source="J TEST", volume=None, page=None):
    return (author, year, source, volume, page)


def _key(author, year, source, volume, page) -> dict:
    obj = {"author": author, "year": year, "source": source, "volume": volume, "page": page}
    return {name: value for name, value in obj.items() if value is not None}


def corpus_of(papers) -> Corpus:
    """``parse_corpus`` over the JSON lines of ``paper()`` records, each
    reference a ``ref()`` tuple."""
    return parse_corpus([json.dumps({"id": pid, **_key(*key), "refs": [_key(*r) for r in refs]})
                         for pid, *key, refs in papers])


@pytest.fixture
def one_step_cap(monkeypatch):
    """Caps every solve at one step, so a solve that needs more stalls:
    it records ``converged: false`` and fails its run."""
    monkeypatch.setattr(PageRankConfig, "max_iterations", property(lambda self: 1))


@pytest.fixture
def two_node_corpus():
    # single paper by A citing one work by B: edge A->B weight 1, B dangling
    return corpus_of([paper("p1", "A", refs=[ref("B")])])


@pytest.fixture
def cycle_corpus():
    papers = [
        paper("p1", "A", refs=[ref("B")]),
        paper("p2", "B", refs=[ref("C")]),
        paper("p3", "C", refs=[ref("A")]),
    ]
    return corpus_of(papers)


@pytest.fixture
def two_paper_corpus():
    # paper by X citing Y twice and Z once; second paper by X citing Y once
    return corpus_of([
        paper("p1", "X", refs=[ref("Y"), ref("Y"), ref("Z")]),
        paper("p2", "X", refs=[ref("Y")]),
    ])
