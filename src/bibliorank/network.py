"""Directed weighted author citation graph construction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from bibliorank.corpus import Corpus
from bibliorank.errors import GraphError, ParseError


@dataclass(frozen=True)
class ReferenceTable:
    """One phase corpus's references as node-id arrays, built with its graph.

    ``paper_author[k]`` is the node id of the first author of
    ``corpus.papers[k]``.  Reference r, in corpus order, goes from paper
    ``citing[r]`` to the work of node ``cited[r]``; self-citations are kept.
    """

    paper_author: np.ndarray
    citing: np.ndarray
    cited: np.ndarray


@dataclass
class AuthorCitationGraph:
    """Author citation network.

    Nodes are author keys (lexicographic order = node id); the sparse
    adjacency holds entry (citer j, cited i) with the positive integer
    number of times j's papers cite works first-authored by i.
    ``references`` is set when the graph was built from a corpus.
    """

    authors: list[str]
    adjacency: sparse.csr_matrix  # shape (N, N), row = citer, col = cited
    citations_received: np.ndarray  # in-edge weight sums, int64
    publications: np.ndarray  # first-authored corpus papers, int64
    references: ReferenceTable | None = None

    def __post_init__(self):
        self.index = {a: i for i, a in enumerate(self.authors)}

    @property
    def n_nodes(self) -> int:
        return len(self.authors)

    def node_id(self, author: str) -> int:
        try:
            return self.index[author]
        except KeyError:
            raise GraphError(f"unknown author key {author!r}") from None

    def out_weights(self) -> np.ndarray:
        """Per-node sum of out-edge weights (0 for dangling nodes)."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def out_weight(self, node) -> int:
        """Sum of out-edge weights of one node (author key or node id)."""
        if isinstance(node, str):
            node = self.node_id(node)
        if not (0 <= node < self.n_nodes):
            raise GraphError(f"node id {node} out of range")
        return int(self.adjacency[node].sum())


@dataclass(frozen=True)
class GraphStats:
    n_nodes: int
    n_edges: int
    total_weight: int
    n_dangling: int


def _graph(authors, citer, cited, weights, publications, references=None):
    """Graph over sorted ``authors``; duplicate (citer, cited) pairs add up."""
    n = len(authors)
    adjacency = sparse.coo_matrix((weights, (citer, cited)), shape=(n, n)).tocsr()
    return AuthorCitationGraph(
        authors=authors,
        adjacency=adjacency,
        citations_received=np.asarray(adjacency.sum(axis=0)).ravel().astype(np.int64),
        publications=publications,
        references=references,
    )


def build_graph(corpus: Corpus, allow_self_citation: bool = True) -> AuthorCitationGraph:
    """Build the author citation graph and reference table of one phase corpus.

    One node per distinct author appearing as a paper's first author or as
    a reference's first author.  Each reference from a paper by A to a work
    by B adds 1 to edge A->B; self-citations (A == B) are skipped when
    ``allow_self_citation`` is false.
    """
    papers = corpus.papers
    if not papers:
        raise GraphError("empty graph: corpus has no papers")

    first_authors = [p.first_author for p in papers]
    cited_authors = [r.first_author for p in papers for r in p.references]
    authors = sorted(set(first_authors).union(cited_authors))
    index = {a: i for i, a in enumerate(authors)}
    table = ReferenceTable(
        paper_author=np.array([index[a] for a in first_authors], dtype=np.int64),
        citing=np.repeat(np.arange(len(papers)), [len(p.references) for p in papers]),
        cited=np.array([index[a] for a in cited_authors], dtype=np.int64),
    )

    citer, cited = table.paper_author[table.citing], table.cited
    if not allow_self_citation:
        keep = citer != cited
        citer, cited = citer[keep], cited[keep]
    return _graph(authors, citer, cited, np.ones(len(cited), dtype=np.int64),
                  np.bincount(table.paper_author, minlength=len(authors)), table)


def graph_stats(g: AuthorCitationGraph) -> GraphStats:
    """Summary counts: nodes, distinct edges, total weight, dangling nodes."""
    out = g.out_weights()
    return GraphStats(
        n_nodes=g.n_nodes,
        n_edges=int(g.adjacency.nnz),
        total_weight=int(g.adjacency.sum()),
        n_dangling=int(np.count_nonzero(out == 0)),
    )


def dump_edges(g: AuthorCitationGraph, stream) -> None:
    """Write the edge list as `citer<TAB>cited<TAB>weight`, sorted.

    Walks the adjacency in CSR order, which is (citer, cited) order
    because ``_graph`` leaves it in canonical format (sorted indices, no
    duplicates).
    """
    adj, authors = g.adjacency, g.authors
    citers = np.repeat(np.array(authors, dtype=object), np.diff(adj.indptr)).tolist()
    stream.write("".join(f"{a}\t{authors[j]}\t{w}\n" for a, j, w in
                         zip(citers, adj.indices.tolist(), adj.data.tolist())))


def dump_nodes(g: AuthorCitationGraph, stream) -> None:
    """Write node attributes as `author<TAB>citations<TAB>publications`."""
    stream.write("".join(f"{a}\t{c}\t{p}\n" for a, c, p in zip(
        g.authors, g.citations_received.tolist(), g.publications.tolist())))


def load_edges(stream, publications: dict[str, int] | None = None) -> AuthorCitationGraph:
    """Rebuild a graph from an edge-list dump (and optional node pubs).

    citations_received is recomputed from the edges; publications default
    to zero unless a mapping (e.g. from a node dump) is supplied.
    """
    citers, citeds, weights = [], [], []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected citer<TAB>cited<TAB>weight", line=lineno)
        citer, cited, w = parts
        try:
            weight = int(w)
        except ValueError:
            raise ParseError(f"invalid weight {w!r}", line=lineno, field="weight") from None
        if weight < 1:
            raise ParseError(f"edge weight {weight} < 1", line=lineno, field="weight")
        citers.append(citer)
        citeds.append(cited)
        weights.append(weight)
    publications = publications or {}
    authors = sorted(set(citers).union(citeds, publications))
    if not authors:
        raise GraphError("empty graph: edge list has no entries")
    index = {a: i for i, a in enumerate(authors)}
    pubs = np.zeros(len(authors), dtype=np.int64)
    for a, c in publications.items():
        pubs[index[a]] = c
    return _graph(authors,
                  np.array([index[a] for a in citers], dtype=np.int64),
                  np.array([index[a] for a in citeds], dtype=np.int64),
                  np.array(weights, dtype=np.int64), pubs)


def load_nodes(stream) -> dict[str, tuple[int, int]]:
    """Read a node dump; returns author -> (citations, publications)."""
    out = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected author<TAB>citations<TAB>publications", line=lineno)
        try:
            out[parts[0]] = (int(parts[1]), int(parts[2]))
        except ValueError:
            raise ParseError("invalid integer attribute", line=lineno) from None
    return out
