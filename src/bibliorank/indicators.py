"""Classical bibliometric indicators and score-to-rank conversion.

Popularity (total citations received), prestige (citations from highly
cited papers), h-index over internal citation counts, and impact-factor
weighted citation sums, plus the average-rank transform and top-k lists.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from bibliorank.corpus import Corpus
from bibliorank.errors import ConfigError, DataError, ParseError
from bibliorank.network import AuthorCitationGraph

log = logging.getLogger(__name__)


@dataclass
class ScoreVector:
    """A named score per author; higher is always better here.

    ``values[i]`` is the score of ``authors[i]``, and ``authors`` is sorted
    and unique: in the pipeline it is the phase graph's author list, so the
    array index is the node id.
    """

    name: str
    authors: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.authors),):
            raise DataError(f"{self.name!r}: {self.values.shape} scores "
                            f"for {len(self.authors)} authors")
        if not np.isfinite(self.values).all():
            i = int(np.flatnonzero(~np.isfinite(self.values))[0])
            raise DataError(f"non-finite score {float(self.values[i])!r} for author "
                            f"{self.authors[i]!r} in {self.name!r}")


@dataclass
class ImpactFactorTable:
    """(venue, year) -> journal impact factor."""

    factors: dict[tuple[str, int], float] = field(default_factory=dict)

    def get(self, venue: str, year: int) -> float | None:
        return self.factors.get((venue, year))


def load_impact_factors(stream) -> ImpactFactorTable:
    """Read a `venue<TAB>year<TAB>impact_factor` table; duplicates error."""
    factors: dict[tuple[str, int], float] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected venue<TAB>year<TAB>impact_factor", line=lineno)
        venue = parts[0]
        try:
            year = int(parts[1])
            impact = float(parts[2])
        except ValueError:
            raise ParseError("invalid year or impact factor", line=lineno) from None
        if impact < 0:
            raise ParseError(f"negative impact factor {impact}", line=lineno)
        key = (venue, year)
        if key in factors:
            raise ParseError(f"duplicate impact-factor key {key!r}", line=lineno)
        factors[key] = impact
    return ImpactFactorTable(factors)


def popularity_scores(g: AuthorCitationGraph) -> ScoreVector:
    """Total citations received per author (in-edge weight sums)."""
    return ScoreVector("popularity", g.authors, g.citations_received)


def internal_citation_counts(corpus: Corpus) -> dict[str, int]:
    """Citations each corpus paper receives from other corpus papers.

    A reference matches a paper on exact (author, year, source, volume,
    page); a missing volume/page only matches a missing one.
    """
    by_key: dict[tuple, list[str]] = {}
    for p in corpus.papers:
        by_key.setdefault(p.match_key(), []).append(p.paper_id)
    counts = {p.paper_id: 0 for p in corpus.papers}
    for p in corpus.papers:
        for ref in p.references:
            for pid in by_key.get(ref.match_key(), ()):
                counts[pid] += 1
    return counts


def highly_cited_papers(
    corpus: Corpus,
    top_fraction: float | None = None,
    min_citations: int | None = None,
    counts: dict[str, int] | None = None,
) -> set[str]:
    """Paper ids clearing the highly-cited threshold.

    Exactly one of ``top_fraction`` (cut at the (1 - f) quantile of
    internal citation counts, ties included, uncited papers never
    qualify) or ``min_citations`` must be given.
    """
    if (top_fraction is None) == (min_citations is None):
        raise ConfigError("give exactly one of top_fraction or min_citations")
    if counts is None:
        counts = internal_citation_counts(corpus)
    if min_citations is not None:
        if min_citations < 1:
            raise ConfigError("min_citations must be >= 1")
        return {pid for pid, c in counts.items() if c >= min_citations}
    if not (0.0 < top_fraction <= 1.0):
        raise ConfigError(f"top_fraction {top_fraction} outside (0, 1]")
    if not counts:
        return set()
    ordered = sorted(counts.values(), reverse=True)
    k = max(1, math.ceil(top_fraction * len(ordered)))
    threshold = max(ordered[k - 1], 1)
    return {pid for pid, c in counts.items() if c >= threshold}


def prestige_scores(
    g: AuthorCitationGraph, corpus: Corpus, highly_cited: set[str]
) -> ScoreVector:
    """Citations each author receives from the highly cited papers.

    ``corpus`` is the one ``g`` was built from, so every cited author is a
    node.
    """
    cited = [g.index[ref.first_author] for p in corpus.papers
             if p.paper_id in highly_cited for ref in p.references]
    return ScoreVector("prestige", g.authors,
                       np.bincount(np.array(cited, dtype=np.int64), minlength=g.n_nodes))


def h_index_scores(
    g: AuthorCitationGraph, corpus: Corpus, counts: dict[str, int] | None = None
) -> ScoreVector:
    """h-index per author over internal citation counts (0 if unpublished).

    ``corpus`` is the one ``g`` was built from, so every first author is a
    node.
    """
    if counts is None:
        counts = internal_citation_counts(corpus)
    per_author: dict[str, list[int]] = {}
    for p in corpus.papers:
        per_author.setdefault(p.first_author, []).append(counts[p.paper_id])
    scores = np.zeros(g.n_nodes)
    for author, cites in per_author.items():
        cites.sort(reverse=True)
        h = 0
        for i, c in enumerate(cites, start=1):
            if c >= i:
                h = i
            else:
                break
        scores[g.index[author]] = h
    return ScoreVector("h_index", g.authors, scores)


def if_scores(
    g: AuthorCitationGraph, corpus: Corpus, table: ImpactFactorTable
) -> tuple[ScoreVector, int]:
    """Sum of citing-paper impact factors per cited author.

    Each reference contributes IF(citing venue, citing year) to its target
    author; missing table entries contribute 0 and are counted.  ``corpus``
    is the one ``g`` was built from.  Returns (scores, miss count).
    """
    cited: list[int] = []
    weights: list[float] = []
    misses = 0
    for p in corpus.papers:
        impact = table.get(p.source, p.year)
        if impact is None:
            misses += len(p.references)
            impact = 0.0
        for ref in p.references:
            cited.append(g.index[ref.first_author])
            weights.append(impact)
    # bincount adds the weights in reference order, as a running sum would.
    scores = np.bincount(np.array(cited, dtype=np.int64), weights=weights, minlength=g.n_nodes)
    return ScoreVector("impact_factor", g.authors, scores), misses


def to_ranks(s: ScoreVector) -> np.ndarray:
    """Average-rank transform of descending scores (rank 1 = best)."""
    return rankdata(-s.values, method="average")


def top_k(s: ScoreVector, k: int) -> tuple[list[str], bool]:
    """First k authors by descending score; boundary ties broken lexicographically.

    Returns (authors, flag) where the flag reports a lexicographic tie-break
    at the k boundary.  k > n returns all authors with a warning.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    n = len(s.authors)
    if k > n:
        log.warning("top_k: k=%d exceeds author count %d; returning all", k, n)
        k = n
    order = np.argsort(-s.values, kind="stable")  # ties stay in author order
    boundary_tie = k < n and s.values[order[k - 1]] == s.values[order[k]]
    if boundary_tie:
        log.info("top_k: tie at rank %d broken lexicographically", k)
    return [s.authors[i] for i in order[:k]], bool(boundary_tie)


def dump_indicator(s: ScoreVector, stream) -> None:
    """Write `author<TAB>score<TAB>rank`, best rank first, ties by author."""
    order = np.argsort(-s.values, kind="stable")
    authors = s.authors
    rows = zip(order.tolist(), s.values[order].tolist(), to_ranks(s)[order].tolist())
    stream.write("author\tscore\trank\n" + "".join(
        f"{authors[i]}\t{score:.17g}\t{rank:.17g}\n" for i, score, rank in rows))
