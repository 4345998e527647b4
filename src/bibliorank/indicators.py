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
        if not math.isfinite(impact):
            raise ParseError(f"non-finite impact factor {parts[2]!r}", line=lineno)
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


def internal_citation_counts(corpus: Corpus) -> np.ndarray:
    """Citations each corpus paper receives from other corpus papers.

    Returns an int64 array aligned to ``corpus.papers``.  A reference
    matches a paper on exact (author, year, source, volume, page); a
    missing volume/page only matches a missing one.  A reference whose key
    several papers share counts for each of them.
    """
    by_key: dict[tuple, list[int]] = {}
    for k, p in enumerate(corpus.papers):
        by_key.setdefault(p.match_key(), []).append(k)
    matched = [k for p in corpus.papers for ref in p.references
               for k in by_key.get(ref.match_key(), ())]
    return np.bincount(np.array(matched, dtype=np.int64), minlength=len(corpus.papers))


def highly_cited_papers(
    counts: np.ndarray,
    top_fraction: float | None = None,
    min_citations: int | None = None,
) -> np.ndarray:
    """Boolean mask of the papers clearing the highly-cited threshold.

    ``counts`` are internal citation counts aligned to the corpus papers.
    Exactly one of ``top_fraction`` (cut at the (1 - f) quantile of the
    counts, ties included, uncited papers never qualify) or
    ``min_citations`` must be given.
    """
    if (top_fraction is None) == (min_citations is None):
        raise ConfigError("give exactly one of top_fraction or min_citations")
    counts = np.asarray(counts)
    if min_citations is not None:
        if min_citations < 1:
            raise ConfigError("min_citations must be >= 1")
        return counts >= min_citations
    if not (0.0 < top_fraction <= 1.0):
        raise ConfigError(f"top_fraction {top_fraction} outside (0, 1]")
    if not len(counts):
        return np.zeros(0, dtype=bool)
    k = max(1, math.ceil(top_fraction * len(counts)))
    threshold = max(np.sort(counts)[-k], 1)  # the k-th largest count
    return counts >= threshold


def prestige_scores(g: AuthorCitationGraph, highly_cited: np.ndarray) -> ScoreVector:
    """Citations each author receives from the highly cited papers.

    ``highly_cited`` is a mask over the papers of the corpus ``g`` was
    built from.
    """
    refs = g.references
    cited = refs.cited[np.asarray(highly_cited, dtype=bool)[refs.citing]]
    return ScoreVector("prestige", g.authors, np.bincount(cited, minlength=g.n_nodes))


def h_index_scores(g: AuthorCitationGraph, counts: np.ndarray) -> ScoreVector:
    """h-index per author over internal citation counts (0 if unpublished).

    ``counts`` are aligned to the papers of the corpus ``g`` was built from.
    """
    counts = np.asarray(counts)
    order = np.lexsort((-counts, g.references.paper_author))
    author = g.references.paper_author[order]
    # 1-based position of each paper in its author's descending count list
    position = np.arange(1, len(order) + 1) - np.searchsorted(author, author)
    h = np.bincount(author[counts[order] >= position], minlength=g.n_nodes)
    return ScoreVector("h_index", g.authors, h)


def if_scores(
    g: AuthorCitationGraph, corpus: Corpus, table: ImpactFactorTable
) -> tuple[ScoreVector, int]:
    """Sum of citing-paper impact factors per cited author.

    Each reference contributes IF(citing venue, citing year) to its target
    author; missing table entries contribute 0 and are counted.  ``corpus``
    is the one ``g`` was built from.  Returns (scores, miss count).
    """
    refs = g.references
    # load_impact_factors rejects NaN factors, so NaN marks a table miss.
    impact = np.array([table.factors.get((p.source, p.year), np.nan) for p in corpus.papers])
    missed = np.isnan(impact)
    impact[missed] = 0.0
    # bincount adds the weights in reference order, as a running sum would.
    scores = np.bincount(refs.cited, weights=impact[refs.citing], minlength=g.n_nodes)
    return (ScoreVector("impact_factor", g.authors, scores),
            int(np.count_nonzero(missed[refs.citing])))


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
    """Write `author<TAB>score<TAB>rank`, best rank first, ties by author.

    Each run of equal scores shares one rank, so its score and rank text
    is formatted once.  Runs split on the float bits, so 0.0 and -0.0 keep
    their own text.
    """
    order = np.argsort(-s.values, kind="stable")
    values = s.values[order]
    bits = values.view(np.int64)
    new_run = np.ones(len(values), dtype=bool)
    new_run[1:] = bits[1:] != bits[:-1]
    starts = np.flatnonzero(new_run)
    tails = [f"\t{score:.17g}\t{rank:.17g}\n" for score, rank in
             zip(values[starts].tolist(), to_ranks(s)[order][starts].tolist())]
    rows = (np.array(s.authors, dtype=object)[order]
            + np.repeat(np.array(tails, dtype=object), np.diff(starts, append=len(values))))
    stream.write("author\tscore\trank\n" + "".join(rows.tolist()))
