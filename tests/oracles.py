"""Independent brute-force oracles used to freeze expected test values.

These deliberately avoid the package's sparse/optimized code paths: the
corpus oracle parses one record at a time into plain tuples, the
PageRank oracle iterates a dense transition matrix (and the loop oracle
allocates each step, as the solver once did), the Spearman oracle
uses the no-ties closed form or full permutation enumeration, the tiny
eigen checks go through numpy, the graph and classical-indicator
oracles walk papers x references one record at a time, the writer
oracles format and write one output row at a time, and the comparison
oracles (top-k lists, rank table, coverage) look each author up by name.
"""

import bisect
import itertools
import json
import math
import string

import numpy as np

from bibliorank import pagerank


class OracleParseError(Exception):
    """A corpus line the loop parser rejects: its 1-based line and field."""

    def __init__(self, line, field=None):
        super().__init__(f"line {line}: field {field}")
        self.line = line
        self.field = field


def normalized_loop(raw, line, field):
    if not isinstance(raw, str):
        raise OracleParseError(line, field)
    key = " ".join(raw.upper().replace(".", "").replace(",", " ").split())
    key = key.rstrip(string.punctuation + " \t")
    if not key:
        raise OracleParseError(line, field)
    return key


def _year_loop(value, line, field):
    if not isinstance(value, int) or isinstance(value, bool) or not 1000 <= value <= 3000:
        raise OracleParseError(line, field)
    return value


def _opt_str_loop(obj, key, line, prefix=""):
    value = obj.get(key)
    if value is None:
        return None
    if not isinstance(value, str) or not value.strip():
        raise OracleParseError(line, prefix + key)
    return value.strip()


def parse_corpus_loop(lines):
    """Record-at-a-time corpus parser.

    Returns one ``(id, author, year, source, volume, page, refs)`` tuple per
    record, ``refs`` a tuple of ``(author, year, source, volume, page)``
    tuples, or raises OracleParseError at the first bad line.  A line with a
    lone surrogate is bad, with no field.  Checks run
    in file order: id, author, source, year, each reference, then the
    record's volume and page.  A bad author, source, volume or page names
    that field, prefixed ``refs.`` in a reference.
    """
    records = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            text.encode("utf-8")  # a lone surrogate stands for a byte that is not UTF-8
            obj = json.loads(text)
        except (UnicodeEncodeError, json.JSONDecodeError):
            raise OracleParseError(lineno) from None
        if not isinstance(obj, dict):
            raise OracleParseError(lineno)
        for req in ("id", "author", "year", "source"):
            if req not in obj:
                raise OracleParseError(lineno, req)
        pid = obj["id"]
        if not isinstance(pid, str) or not pid or pid in seen:
            raise OracleParseError(lineno, "id")
        seen.add(pid)
        author = normalized_loop(obj["author"], lineno, "author")
        source = normalized_loop(obj["source"], lineno, "source")
        year = _year_loop(obj["year"], lineno, "year")
        refs_raw = obj.get("refs", [])
        if not isinstance(refs_raw, list):
            raise OracleParseError(lineno, "refs")
        refs = []
        for r in refs_raw:
            if not isinstance(r, dict):
                raise OracleParseError(lineno, "refs")
            for req in ("author", "year", "source"):
                if req not in r:
                    raise OracleParseError(lineno, f"refs.{req}")
            ref_author = normalized_loop(r["author"], lineno, "refs.author")
            ref_source = normalized_loop(r["source"], lineno, "refs.source")
            ref_year = _year_loop(r["year"], lineno, "refs.year")
            refs.append((ref_author, ref_year, ref_source,
                         _opt_str_loop(r, "volume", lineno, "refs."),
                         _opt_str_loop(r, "page", lineno, "refs.")))
        records.append((pid, author, year, source, _opt_str_loop(obj, "volume", lineno),
                        _opt_str_loop(obj, "page", lineno), tuple(refs)))
    return records


def dense_pagerank(weights, teleport, damping, tol=1e-14, max_iter=5000):
    """Dense power iteration on an explicit N x N weight matrix, which
    gives the dangling mass to the teleport.

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
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        nxt = (1 - damping) * t + damping * (p.T @ pi + pi[dangling].sum() * t)
        if np.abs(nxt - pi).sum() < tol:
            return nxt
        pi = nxt
    return pi


def unresolved_pairs_loop(scores, error_bound):
    """The neighbours in descending score order whose scores differ by at
    most 2 * ``error_bound``, but differ."""
    ordered = sorted(scores, reverse=True)
    return sum(1 for hi, lo in zip(ordered, ordered[1:])
               if hi != lo and hi - lo <= 2 * error_bound)


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


def top_k_names_loop(s, k):
    """The first k author names of a score vector by descending score, ties
    in author order: Python's sort is stable, and 0.0 and -0.0 tie."""
    order = sorted(range(len(s.authors)), key=lambda i: -s.values[i])
    return [s.authors[i] for i in order[:k]]


def table_by_names_loop(score_vectors, subset):
    """The (authors, ranks) of the rank table over the author names
    ``subset``: each name is looked up in each vector's own sorted author
    list, one at a time, and each column re-ranked within the subset."""
    columns = []
    for sv in score_vectors:
        values = []
        for author in subset:
            i = bisect.bisect_left(sv.authors, author)
            if i == len(sv.authors) or sv.authors[i] != author:
                raise KeyError(author)
            values.append(float(sv.values[i]))
        columns.append(rank_average(values))
    return list(subset), np.array(columns, dtype=np.float64).T


def coverage_by_names_loop(score_vectors, winners, ks):
    """The (counts, missing winners) of the top-k coverage: the winners in
    each vector's ``top_k_names_loop`` list, over the first vector's
    authors, and the winners sorted that it lacks."""
    universe = set(score_vectors[0].authors)
    counts = {}
    for sv in score_vectors:
        chosen = top_k_names_loop(sv, ks[-1])
        for k in ks:
            counts[(sv.name, k)] = sum(1 for a in chosen[:k] if a in universe and a in winners)
    return counts, sorted(set(winners) - universe)


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


def corpus_records(corpus):
    """The ``(id, author, year, source, volume, page, refs)`` records of a
    Corpus, as parse_corpus_loop returns them, read one paper at a time."""
    s = corpus.strings

    def key(row):
        author, year, source, volume, page = row
        return (s[author], year, s[source], None if volume < 0 else s[volume],
                None if page < 0 else s[page])

    offsets = corpus.offsets.tolist()
    refs = corpus.refs.tolist()
    return [(s[pid], *key(row), tuple(key(r) for r in refs[lo:hi]))
            for pid, row, lo, hi in zip(corpus.ids.tolist(), corpus.keys.tolist(),
                                        offsets, offsets[1:])]


# The oracles below take records as corpus_records returns them.


def build_graph_loop(records, allow_self_citation=True):
    """(sorted authors, {(citer id, cited id): weight}, publications per id)."""
    names = set()
    for _, author, *_, refs in records:
        names.add(author)
        for r in refs:
            names.add(r[0])
    authors = sorted(names)
    index = {a: i for i, a in enumerate(authors)}
    weights = {}
    publications = [0] * len(authors)
    for _, author, *_, refs in records:
        citer = index[author]
        publications[citer] += 1
        for r in refs:
            cited = index[r[0]]
            if not allow_self_citation and citer == cited:
                continue
            weights[(citer, cited)] = weights.get((citer, cited), 0) + 1
    return authors, weights, publications


def internal_citation_counts_loop(records):
    """paper id -> references matching its exact key; shared keys credit each paper."""
    by_key = {}
    for pid, *key, _ in records:
        by_key.setdefault(tuple(key), []).append(pid)
    counts = {rec[0]: 0 for rec in records}
    for *_, refs in records:
        for r in refs:
            for pid in by_key.get(r, ()):
                counts[pid] += 1
    return counts


def unmatched_references_loop(records):
    """References whose key is no paper's key."""
    paper_keys = {tuple(key) for _, *key, _ in records}
    return sum(r not in paper_keys for *_, refs in records for r in refs)


def prestige_loop(records, highly_cited_ids):
    """cited author -> references made by the highly cited papers."""
    scores = {}
    for pid, *_, refs in records:
        if pid in highly_cited_ids:
            for r in refs:
                scores[r[0]] = scores.get(r[0], 0) + 1
    return scores


def h_index_loop(records, counts):
    """first author -> h-index of the counts (by paper id) of their papers."""
    per_author = {}
    for pid, author, *_ in records:
        per_author.setdefault(author, []).append(counts[pid])
    return {a: h_index(cites) for a, cites in per_author.items()}


def if_loop(records, factors):
    """(cited author -> running sum of citing-paper IFs, references with no IF).

    ``factors`` maps (venue, year) to an impact factor.
    """
    scores = {}
    misses = 0
    for _, _, year, source, _, _, refs in records:
        impact = factors.get((source, year))
        if impact is None:
            misses += len(refs)
            impact = 0.0
        for r in refs:
            scores[r[0]] = scores.get(r[0], 0.0) + impact
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


def generate_synthetic_loop(seed, n_papers, n_authors, skew=1.0):
    """The synthetic corpus drawn with one scalar ``Generator`` call per value,
    over the years 1956-2008, with 0.4 the chance of an internal reference.

    Returns the columns ``(strings, ids, keys, offsets, refs)`` as lists,
    ``keys`` and ``refs`` as 5-tuples, in the layout of ``Corpus``; compare
    with ``corpus_columns``.
    """
    venues = 40
    rng = np.random.default_rng(seed)
    venue0 = n_authors
    id0 = venue0 + venues
    number0 = id0 + n_papers  # strings[number0 + k] == str(1 + k)
    strings = ([f"AUTH {i:06d}" for i in range(n_authors)]
               + [f"SYN JOURNAL {i:03d}" for i in range(venues)]
               + [f"SYN{pid:07d}" for pid in range(n_papers)]
               + [str(k) for k in range(1, 901)])
    pool = []  # one entry per citation received: preferential attachment
    papers_by_author = [[] for _ in range(n_authors)]
    keys, refs, offsets = [], [], [0]
    for pid in range(n_papers):
        author_idx = int(rng.integers(n_authors))
        year = 1956 + int(rng.integers(53))
        venue = venue0 + int(rng.integers(venues))
        n_refs = min(2 + int(rng.pareto(1.8) * 6.0), 120)
        uniform_mass = 0.05 * n_authors * skew
        for _ in range(n_refs):
            if rng.random() < uniform_mass / (uniform_mass + len(pool)):
                target = int(rng.integers(n_authors))
            else:
                target = pool[int(rng.integers(len(pool)))]
            pool.append(target)
            prior = papers_by_author[target]
            if prior and rng.random() < 0.4:
                refs.append(prior[int(rng.integers(len(prior)))])
            else:
                refs.append((target, 1956 + int(rng.integers(53)),
                             venue0 + int(rng.integers(venues)), -1, -1))
        key = (author_idx, year, venue, number0 + pid % 50, number0 + pid % 900)
        keys.append(key)
        papers_by_author[author_idx].append(key)
        offsets.append(offsets[-1] + n_refs)
    return strings, list(range(id0, id0 + n_papers)), keys, offsets, refs


def corpus_columns(corpus):
    """A Corpus's columns in the form ``generate_synthetic_loop`` returns."""
    return (corpus.strings, corpus.ids.tolist(), list(map(tuple, corpus.keys.tolist())),
            corpus.offsets.tolist(), list(map(tuple, corpus.refs.tolist())))


def power_iteration_loop(g, teleport, cfg):
    """The sparse power iteration with a fresh array per step, as
    ``pagerank.weighted_pagerank`` computed it before it iterated in place.
    It stops below ``pagerank.TOLERANCE``, read at each call.

    Returns (scores, iterations, final residual).
    """
    n = g.n_nodes
    t = teleport
    d = cfg.damping
    trans, dangling = g.transition
    pi = np.full(n, 1.0 / n)
    residual = np.inf
    iterations = 0
    for iterations in range(1, cfg.max_iterations + 1):
        dangling_mass = pi[dangling].sum()
        nxt = (1.0 - d) * t + d * (trans @ pi + dangling_mass * t)
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < pagerank.TOLERANCE:
            break
    return pi, iterations, residual
