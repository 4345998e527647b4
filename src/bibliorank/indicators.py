"""Classical bibliometric indicators and score-to-rank conversion.

Popularity (total citations received), prestige (citations from highly
cited papers), h-index over internal citation counts, and impact-factor
weighted citation sums, plus the average-rank transform and top-k lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from bibliorank.corpus import Corpus, normalize_key, read_lines, read_uncommented, reads_input
from bibliorank.errors import ConfigError, DataError, ParseError
from bibliorank.network import AuthorCitationGraph


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

    factors: dict[tuple[str, int], float]


@reads_input
def load_impact_factors(source) -> ImpactFactorTable:
    """Read a `venue<TAB>year<TAB>impact_factor` table (a path or text
    lines); a `#` first on a line or after whitespace begins a comment
    (``corpus.read_uncommented``).  Venues are normalised as the corpus's
    are, and two lines of one key error."""
    factors: dict[tuple[str, int], float] = {}
    for lineno, line in read_uncommented(source):
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected venue<TAB>year<TAB>impact_factor", line=lineno)
        venue = normalize_key(parts[0], "venue", lineno)
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

    Returns an int64 array aligned to the corpus papers.  A reference
    matches a paper on exact (author, year, source, volume, page); a
    missing volume/page only matches a missing one.  A reference whose key
    several papers share counts for each of them.
    """
    paper_key, ref_key = corpus.key_ids
    return np.bincount(ref_key, minlength=len(paper_key) + len(ref_key))[paper_key]


def unmatched_references(corpus: Corpus) -> int:
    """The number of references whose key matches no corpus paper."""
    paper_key, ref_key = corpus.key_ids
    return int(np.count_nonzero(~np.isin(ref_key, paper_key)))


_PRESTIGE_ERROR = ("prestige must be top_fraction:F with 0 < F <= 1 "
                   "or min_citations:M with an integer M >= 1")


def check_prestige(top_fraction: float | None = None, min_citations: int | None = None) -> None:
    """Refuse a highly-cited threshold other than exactly one of
    0 < ``top_fraction`` <= 1 and ``min_citations`` >= 1."""
    if (top_fraction is None) == (min_citations is None) or not (
            0.0 < top_fraction <= 1.0 if min_citations is None else min_citations >= 1):
        raise ConfigError(_PRESTIGE_ERROR)


def parse_prestige(spec: str) -> dict:
    """The prestige setting `top_fraction:F` or `min_citations:M` -> the
    checked keyword argument of ``highly_cited_papers`` that it names."""
    mode, _, value = spec.partition(":")
    mode = mode.strip()
    try:
        threshold = {mode: {"top_fraction": float, "min_citations": int}[mode](value)}
    except (KeyError, ValueError):
        raise ConfigError(_PRESTIGE_ERROR) from None
    check_prestige(**threshold)
    return threshold


def highly_cited_papers(
    counts: np.ndarray,
    top_fraction: float | None = None,
    min_citations: int | None = None,
) -> np.ndarray:
    """Boolean mask of the papers clearing the highly-cited threshold.

    ``counts`` are internal citation counts aligned to the corpus papers.
    Exactly one of ``top_fraction`` (cut at the (1 - f) quantile of the
    counts, ties included, uncited papers never qualify) or
    ``min_citations`` must be given; ``check_prestige`` checks them.
    """
    check_prestige(top_fraction, min_citations)
    counts = np.asarray(counts)
    if min_citations is not None:
        return counts >= min_citations
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
    pairs, pair_of_paper = corpus.source_years()
    # load_impact_factors rejects NaN factors, so NaN marks a table miss.
    impact = np.array([table.factors.get(pair, np.nan) for pair in pairs])[pair_of_paper]
    missed = np.isnan(impact)
    impact[missed] = 0.0
    # bincount adds the weights in reference order, as a running sum would.
    scores = np.bincount(refs.cited, weights=impact[refs.citing], minlength=g.n_nodes)
    return (ScoreVector("impact_factor", g.authors, scores),
            int(np.count_nonzero(missed[refs.citing])))


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start positions of the runs of equal keys in a sorted vector."""
    new_run = np.ones(len(sorted_keys), dtype=bool)
    new_run[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return np.flatnonzero(new_run)


def _sorted_average_ranks(sorted_values: np.ndarray) -> np.ndarray:
    """Rank of each position of a sorted vector; each run of equal values
    at positions start..end-1 shares the rank (start + end + 1) / 2."""
    starts = _run_starts(sorted_values)
    ends = np.append(starts[1:], len(sorted_values))
    return np.repeat((starts + ends + 1) / 2, ends - starts)


def average_ranks(values) -> np.ndarray:
    """Average ranks of ascending values (rank 1 = smallest).

    Tied values, compared with ``==`` (so 0.0 and -0.0 tie), share the
    mean of their 1-based positions in ascending order.  ``values`` must
    hold no NaN.
    """
    values = np.asarray(values, dtype=np.float64)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    ranks[order] = _sorted_average_ranks(values[order])
    return ranks


def top_k(s: ScoreVector, k: int) -> np.ndarray:
    """Node ids of the first k authors by descending score, ties in author
    order; all of them when k exceeds their count."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    return np.argsort(-s.values, kind="stable")[:k]


def shared_authors(score_vectors: list[ScoreVector]) -> list[str]:
    """The one author list that all ``score_vectors`` hold, so that a node id
    names one author in each; vectors over two lists are a DataError."""
    first = score_vectors[0]
    for sv in score_vectors[1:]:
        if sv.authors is not first.authors and sv.authors != first.authors:
            raise DataError(f"score vectors {first.name!r} and {sv.name!r} list different authors")
    return first.authors


def dump_indicator(s: ScoreVector, stream) -> None:
    """Write `author<TAB>score<TAB>rank`, best rank first, ties by author.

    Each run of equal scores shares one rank, so its score and rank text
    is formatted once.  Text runs split on the float bits, so 0.0 and -0.0
    keep their own text; ranks split on value equality, so they share a rank.
    """
    order = np.argsort(-s.values, kind="stable")
    values = s.values[order]
    ranks = _sorted_average_ranks(values)
    starts = _run_starts(values.view(np.int64))
    tails = [f"\t{score:.17g}\t{rank:.17g}\n" for score, rank in
             zip(values[starts].tolist(), ranks[starts].tolist())]
    rows = (np.array(s.authors, dtype=object)[order]
            + np.repeat(np.array(tails, dtype=object), np.diff(starts, append=len(values))))
    stream.write("author\tscore\trank\n" + "".join(rows.tolist()))


@reads_input
def load_indicator(source, name: str) -> ScoreVector:
    """Read a score file (a path or text lines) as the vector ``name``: a
    header row naming its `author` and `score` columns, then one row per
    author, as ``dump_indicator`` writes `author<TAB>score<TAB>rank`."""
    values: dict[str, float] = {}
    lines = read_lines(source)
    header_line, header = next(lines, (1, ""))
    header = header.split("\t")
    if "author" not in header or "score" not in header:
        raise ParseError("expected an 'author'/'score' header row", line=header_line)
    a_col = header.index("author")
    s_col = header.index("score")
    for lineno, line in lines:
        parts = line.split("\t")
        try:
            if parts[a_col] in values:
                raise ParseError(f"duplicate author {parts[a_col]!r}", line=lineno)
            score = float(parts[s_col])
        except (IndexError, ValueError):
            raise ParseError("malformed score row", line=lineno) from None
        if not math.isfinite(score):
            raise ParseError(f"non-finite score {score!r} for author {parts[a_col]!r}",
                             line=lineno)
        values[parts[a_col]] = score
    if not values:
        raise ParseError("no score rows")
    authors = sorted(values)
    return ScoreVector(name, authors, [values[a] for a in authors])
