"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's sparse/optimized code paths: the
PageRank oracle iterates a dense transition matrix, the Spearman oracle
uses the no-ties closed form or full permutation enumeration, the tiny
eigen checks go through numpy, the graph and classical-indicator
oracles walk papers x references one record at a time, and the writer
oracles format and write one output row at a time.
"""

import itertools
import math

import numpy as np


def dense_pagerank(weights, teleport, damping, dangling_policy="teleport",
                   tol=1e-14, max_iter=5000):
    """Dense power iteration on an explicit N x N weight matrix.

    ``weights[j, i]`` is the edge weight j -> i.  Returns the score vector.
    """
    w = np.asarray(weights, dtype=np.float64)
    n = w.shape[0]
    t = np.asarray(teleport, dtype=np.float64)
    out = w.sum(axis=1)
    p = np.zeros((n, n))
    for j in range(n):
        if out[j] > 0:
            p[j] = w[j] / out[j]
    dangling = out == 0
    r = t if dangling_policy == "teleport" else np.full(n, 1.0 / n)
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = (1 - damping) * t + damping * (p.T @ pi + pi[dangling].sum() * r)
        if np.abs(nxt - pi).sum() < tol:
            return nxt
        pi = nxt
    return pi


def spearman_closed_form(x_ranks, y_ranks):
    """1 - 6*sum(d^2)/(n(n^2-1)); valid only without ties."""
    x = np.asarray(x_ranks, dtype=np.float64)
    y = np.asarray(y_ranks, dtype=np.float64)
    n = len(x)
    d2 = float(np.sum((x - y) ** 2))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def pearson(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dx = x - x.mean()
    dy = y - y.mean()
    return float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))


def rank_average(values_desc):
    """Average-rank transform, rank 1 = largest value."""
    vals = list(values_desc)
    order = sorted(range(len(vals)), key=lambda i: -vals[i])
    ranks = [0.0] * len(vals)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
            j += 1
        avg = (i + 1 + j + 1) / 2.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


def exact_spearman_pvalue(x, y):
    """Two-tailed permutation mid-p of Spearman r; feasible for n <= 8.

    Mid-p: ties at the observed |r| count half, halfway between the >=
    and > counting conventions.  Ranking commutes with permuting, so each
    permutation of y is scored as the same permutation of y's ranks; all
    n! of them are scored at once as the rows of one array.
    """
    rx = np.asarray(rank_average(x), dtype=np.float64)
    ry = rank_average(y)
    r_obs = abs(pearson(rx, ry))
    perms = np.array(list(itertools.permutations(ry)), dtype=np.float64)
    dx = rx - rx.mean()
    dy = perms - perms.mean(axis=1, keepdims=True)
    r = np.abs(dy @ dx) / np.sqrt(float(dx @ dx) * np.einsum("ij,ij->i", dy, dy))
    greater = np.count_nonzero(r > r_obs + 1e-12)
    equal = np.count_nonzero((r <= r_obs + 1e-12) & (r >= r_obs - 1e-12))
    return (greater + 0.5 * equal) / len(perms)


def h_index(citation_counts):
    """Definition oracle: sort descending, scan."""
    counts = sorted(citation_counts, reverse=True)
    h = 0
    for i, c in enumerate(counts, start=1):
        if c >= i:
            h = i
    return h


def build_graph_loop(papers, allow_self_citation=True):
    """(sorted authors, {(citer id, cited id): weight}, publications per id)."""
    names = set()
    for p in papers:
        names.add(p.first_author)
        for r in p.references:
            names.add(r.first_author)
    authors = sorted(names)
    index = {a: i for i, a in enumerate(authors)}
    weights = {}
    publications = [0] * len(authors)
    for p in papers:
        citer = index[p.first_author]
        publications[citer] += 1
        for r in p.references:
            cited = index[r.first_author]
            if not allow_self_citation and citer == cited:
                continue
            weights[(citer, cited)] = weights.get((citer, cited), 0) + 1
    return authors, weights, publications


def internal_citation_counts_loop(papers):
    """paper_id -> references matching its exact key; shared keys credit each paper."""
    by_key = {}
    for p in papers:
        by_key.setdefault(p.match_key(), []).append(p.paper_id)
    counts = {p.paper_id: 0 for p in papers}
    for p in papers:
        for r in p.references:
            for pid in by_key.get(r.match_key(), ()):
                counts[pid] += 1
    return counts


def prestige_loop(papers, highly_cited_ids):
    """cited author -> references made by the highly cited papers."""
    scores = {}
    for p in papers:
        if p.paper_id in highly_cited_ids:
            for r in p.references:
                scores[r.first_author] = scores.get(r.first_author, 0) + 1
    return scores


def h_index_loop(papers, counts):
    """first author -> h-index of the counts (by paper_id) of their papers."""
    per_author = {}
    for p in papers:
        per_author.setdefault(p.first_author, []).append(counts[p.paper_id])
    return {a: h_index(cites) for a, cites in per_author.items()}


def if_loop(papers, factors):
    """(cited author -> running sum of citing-paper IFs, references with no IF).

    ``factors`` maps (venue, year) to an impact factor.
    """
    scores = {}
    misses = 0
    for p in papers:
        impact = factors.get((p.source, p.year))
        if impact is None:
            misses += len(p.references)
            impact = 0.0
        for r in p.references:
            scores[r.first_author] = scores.get(r.first_author, 0.0) + impact
    return scores, misses


def dump_indicator_loop(s, stream):
    """Row-at-a-time indicator writer: `author<TAB>score<TAB>rank`, best first.

    ``s`` has ``authors`` and aligned ``values``; ranks are the average ranks
    of ``rank_average``.
    """
    order = np.argsort(-s.values, kind="stable")
    authors = s.authors
    ranks = np.asarray(rank_average(s.values))
    rows = zip(order.tolist(), s.values[order].tolist(), ranks[order].tolist())
    stream.write("author\tscore\trank\n" + "".join(
        f"{authors[i]}\t{score:.17g}\t{rank:.17g}\n" for i, score, rank in rows))


def dump_edges_loop(g, stream):
    """Row-at-a-time edge writer: `citer<TAB>cited<TAB>weight`, sorted."""
    coo = g.adjacency.tocoo()
    order = np.lexsort((coo.col, coo.row))
    for k in order:
        stream.write(f"{g.authors[coo.row[k]]}\t{g.authors[coo.col[k]]}\t{coo.data[k]}\n")


def dump_nodes_loop(g, stream):
    """Row-at-a-time node writer: `author<TAB>citations<TAB>publications`."""
    for i, a in enumerate(g.authors):
        stream.write(f"{a}\t{g.citations_received[i]}\t{g.publications[i]}\n")


def random_graph_corpus(seed, n_nodes_max=50):
    """Seeded random weighted digraph as (weights matrix, publications).

    Used to compare the sparse implementation against dense_pagerank.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, n_nodes_max + 1))
    density = float(rng.uniform(0.05, 0.4))
    w = np.where(rng.random((n, n)) < density, rng.integers(1, 6, (n, n)), 0)
    pubs = rng.integers(0, 4, n)
    # guarantee non-degenerate teleports
    if w.sum() == 0:
        w[0, min(1, n - 1)] = 1
    if pubs.sum() == 0:
        pubs[0] = 1
    return w.astype(np.int64), pubs.astype(np.int64)
