"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's sparse/optimized code paths: the
PageRank oracle iterates a dense transition matrix, the Spearman oracle
uses the no-ties closed form or full permutation enumeration, and the tiny
eigen checks go through numpy.
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
