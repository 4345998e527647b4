"""Directed weighted author citation graph construction."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from bibliorank.corpus import AUTHOR, Corpus, read_lines, reads_input
from bibliorank.errors import GraphError, ParseError


@dataclass(frozen=True)
class ReferenceTable:
    """One phase corpus's references as node-id arrays, built with its graph.

    ``paper_author[k]`` is the node id of the first author of paper k of
    the corpus.  Reference r, in corpus order, goes from paper
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

    @property
    def n_nodes(self) -> int:
        return len(self.authors)

    def out_weights(self) -> np.ndarray:
        """Per-node sum of out-edge weights (0 for dangling nodes)."""
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    @cached_property
    def transition(self) -> tuple[sparse.csr_matrix, np.ndarray]:
        """The row-normalized transition matrix, transposed so that a
        PageRank step is one CSR matvec, and the mask of dangling nodes.

        Built on first use and shared by every solve on the graph, so the
        adjacency must not change after that.
        """
        out = self.out_weights().astype(np.float64)
        dangling = out == 0.0
        inv_out = np.zeros(self.n_nodes)
        inv_out[~dangling] = 1.0 / out[~dangling]
        return self.adjacency.multiply(inv_out[:, None]).T.tocsr(), dangling


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
    n = len(corpus)
    if not n:
        raise GraphError("empty graph: corpus has no papers")

    used, node = np.unique(np.concatenate((corpus.keys[:, AUTHOR], corpus.refs[:, AUTHOR])),
                           return_inverse=True)
    # Node ids follow the keys' Python string order, not their table order.
    names = [corpus.strings[i] for i in used.tolist()]
    order = sorted(range(len(names)), key=names.__getitem__)
    node_of = np.empty(len(order), dtype=np.int64)
    node_of[order] = np.arange(len(order))
    node = node_of[node]
    authors = [names[i] for i in order]
    table = ReferenceTable(
        paper_author=node[:n],
        citing=np.repeat(np.arange(n), np.diff(corpus.offsets)),
        cited=node[n:],
    )

    citer, cited = table.paper_author[table.citing], table.cited
    if not allow_self_citation:
        keep = citer != cited
        citer, cited = citer[keep], cited[keep]
    return _graph(authors, citer, cited, np.ones(len(cited), dtype=np.int64),
                  np.bincount(table.paper_author, minlength=len(authors)), table)


def graph_stats(g: AuthorCitationGraph) -> dict[str, int]:
    """Summary counts: nodes, distinct edges, total weight, dangling nodes."""
    return {
        "n_nodes": g.n_nodes,
        "n_edges": int(g.adjacency.nnz),
        "total_weight": int(g.adjacency.sum()),
        "n_dangling": int(np.count_nonzero(g.out_weights() == 0)),
    }


#: Edges formatted at a time by dump_edges, which bounds the text it holds.
_WRITE_BATCH = 8192


def dump_edges(g: AuthorCitationGraph, stream) -> None:
    """Write the edge list as `citer<TAB>cited<TAB>weight`, sorted.

    Walks the adjacency in CSR order, which is (citer, cited) order
    because ``_graph`` leaves it in canonical format (sorted indices, no
    duplicates).
    """
    adj, authors = g.adjacency, g.authors
    citers = np.repeat(np.array(authors, dtype=object), np.diff(adj.indptr))
    for lo in range(0, adj.nnz, _WRITE_BATCH):
        edges = slice(lo, lo + _WRITE_BATCH)
        stream.write("".join(f"{a}\t{authors[j]}\t{w}\n" for a, j, w in zip(
            citers[edges].tolist(), adj.indices[edges].tolist(), adj.data[edges].tolist())))


def dump_nodes(g: AuthorCitationGraph, stream) -> None:
    """Write node attributes as `author<TAB>citations<TAB>publications`."""
    stream.write("".join(f"{a}\t{c}\t{p}\n" for a, c, p in zip(
        g.authors, g.citations_received.tolist(), g.publications.tolist())))


@reads_input
def load_edges(source, publications: dict[str, int] | None = None) -> AuthorCitationGraph:
    """Rebuild a graph from an edge-list dump (a path or text lines) and
    optional node pubs.

    citations_received is recomputed from the edges; publications default
    to zero unless a mapping (e.g. from a node dump) is supplied.
    """
    citers, citeds, weights = [], [], []
    for lineno, line in read_lines(source):
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


@reads_input
def load_nodes(source) -> dict[str, tuple[int, int]]:
    """Read a node dump (a path or text lines); returns author ->
    (citations, publications)."""
    out = {}
    for lineno, line in read_lines(source):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected author<TAB>citations<TAB>publications", line=lineno)
        if parts[0] in out:
            raise ParseError(f"duplicate author {parts[0]!r}", line=lineno)
        try:
            out[parts[0]] = (int(parts[1]), int(parts[2]))
        except ValueError:
            raise ParseError("invalid integer attribute", line=lineno) from None
    return out
