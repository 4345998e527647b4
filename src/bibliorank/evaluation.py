"""Top-k coverage of designated award winners per indicator."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from bibliorank.corpus import normalize_author
from bibliorank.errors import ConfigError
from bibliorank.indicators import ScoreVector, top_k

log = logging.getLogger(__name__)


@dataclass
class WinnerList:
    """Normalized, deduplicated award-winner author keys."""

    authors: list[str]

    @classmethod
    def from_names(cls, names) -> "WinnerList":
        """Each name's key once, in first-seen order."""
        return cls(authors=list(dict.fromkeys(normalize_author(raw) for raw in names)))


def load_winners(stream) -> WinnerList:
    """Read one raw author name per line; `#` starts a comment."""
    names = []
    for raw in stream:
        line = raw.split("#", 1)[0].strip()
        if line:
            names.append(line)
    return WinnerList.from_names(names)


@dataclass
class CoverageResult:
    indicators: list[str]
    ks: list[int]
    counts: dict[tuple[str, int], int]
    missing_winners: list[str] = field(default_factory=list)


def coverage(
    score_vectors: list[ScoreVector], winners: WinnerList, ks=(5, 10, 20, 50)
) -> CoverageResult:
    """Count winners inside each indicator's top-k list.

    Winners absent from an indicator's author universe are excluded from
    that count and reported once in ``missing_winners`` (universe taken
    from the first indicator; all indicators share one universe in the
    pipeline).
    """
    ks = list(ks)
    if ks != sorted(ks):
        raise ConfigError("ks must be sorted ascending")
    if not ks or ks[0] < 1:
        raise ConfigError("ks must be integers >= 1")
    if not score_vectors:
        raise ConfigError("no score vectors given")
    universe = set(score_vectors[0].authors)
    missing = sorted(set(winners.authors) - universe)
    if missing:
        log.warning("coverage: %d winner(s) not in the author universe: %s",
                    len(missing), ", ".join(missing[:5]))
    present = set(winners.authors) & universe
    counts = {}
    for sv in score_vectors:
        chosen, _ = top_k(sv, ks[-1])
        for k in ks:
            counts[(sv.name, k)] = len(present.intersection(chosen[:k]))
    return CoverageResult(
        indicators=[sv.name for sv in score_vectors],
        ks=ks,
        counts=counts,
        missing_winners=missing,
    )
