"""Top-k coverage of designated award winners per indicator."""

from __future__ import annotations

from dataclasses import dataclass

from bibliorank.corpus import normalize_key, read_lines, reads_input
from bibliorank.errors import ConfigError
from bibliorank.indicators import ScoreVector, shared_authors, top_k


@reads_input
def load_winners(source) -> list[str]:
    """Read one raw author name per line (a path or text lines); `#` starts
    a comment.  Returns each name's key once, in first-seen order; a name
    that normalises to nothing is a ParseError naming its line."""
    keys = []
    for lineno, line in read_lines(source):
        name = line.split("#", 1)[0].strip()
        if name:
            keys.append(normalize_key(name, "author", lineno))
    return list(dict.fromkeys(keys))


@dataclass
class CoverageResult:
    indicators: list[str]
    ks: list[int]
    counts: dict[tuple[str, int], int]
    missing_winners: list[str]


def check_ks(ks) -> None:
    """Refuse top-k list sizes that are not strictly ascending integers >= 1."""
    ks = list(ks)
    if not ks or ks != sorted(set(ks)) or ks[0] < 1:
        raise ConfigError("coverage_ks must be ascending integers >= 1, got "
                          + ",".join(map(str, ks)))


def coverage(score_vectors: list[ScoreVector], winners: list[str], ks) -> CoverageResult:
    """Count winners inside each indicator's top-k list.

    The vectors share one author list (``shared_authors``).  Winners absent
    from it are excluded from the counts and reported in ``missing_winners``.
    """
    check_ks(ks)
    ks = list(ks)
    authors = shared_authors(score_vectors)
    winners = set(winners)
    is_winner = [a in winners for a in authors]
    counts = {}
    for sv in score_vectors:
        chosen = [is_winner[i] for i in top_k(sv, ks[-1])]
        for k in ks:
            counts[(sv.name, k)] = sum(chosen[:k])
    return CoverageResult(
        indicators=[sv.name for sv in score_vectors],
        ks=ks,
        counts=counts,
        missing_winners=sorted(winners.difference(authors)),
    )
