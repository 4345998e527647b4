"""Bibliographic corpus handling.

Parsing and serialization of line-delimited record files, author/venue key
normalization, phase partitioning, reference filtering, and a seeded
synthetic corpus generator used in place of proprietary datasets.
"""

from __future__ import annotations

import json
import string
from dataclasses import dataclass, field

import numpy as np

from bibliorank.errors import ConfigError, DataError, ParseError

_TRAILING_PUNCT = string.punctuation + " \t"

YEAR_MIN = 1000
YEAR_MAX = 3000


def _normalize_key(raw: str, what: str) -> str:
    if raw is None:
        raise DataError(f"{what} string is missing")
    key = raw.upper().replace(".", "").replace(",", " ")
    key = " ".join(key.split())
    key = key.rstrip(_TRAILING_PUNCT)
    if not key:
        raise DataError(f"{what} string {raw!r} is empty after normalization")
    return key


def normalize_author(raw: str) -> str:
    """Normalize a raw author string into a canonical author key.

    Uppercases, drops periods, turns commas into spaces, collapses
    whitespace, and strips leading/trailing whitespace and trailing
    punctuation.  Idempotent.  Raises DataError if nothing survives.

    >>> normalize_author("Salton, G.")
    'SALTON G'
    """
    return _normalize_key(raw, "author")


@dataclass(frozen=True, slots=True)
class RefKey:
    """One cited work: first author, year, source, optional volume/page."""

    first_author: str
    year: int
    source: str
    volume: str | None = None
    page: str | None = None

    def match_key(self) -> tuple:
        """Exact-match tuple; missing volume/page only match missing ones."""
        return (self.first_author, self.year, self.source, self.volume, self.page)


@dataclass(frozen=True, slots=True)
class PaperRecord:
    """One corpus publication and its outgoing references.

    Duplicate identical references are preserved: multiplicity carries
    citation weight.
    """

    paper_id: str
    first_author: str
    year: int
    source: str
    volume: str | None = None
    page: str | None = None
    references: tuple[RefKey, ...] = ()

    def match_key(self) -> tuple:
        return (self.first_author, self.year, self.source, self.volume, self.page)


@dataclass(frozen=True)
class Phase:
    """A labeled inclusive year range."""

    label: str
    year_lo: int
    year_hi: int

    def __post_init__(self):
        if self.year_lo > self.year_hi:
            raise ConfigError(
                f"phase {self.label!r}: year_lo {self.year_lo} > year_hi {self.year_hi}"
            )

    def contains(self, year: int) -> bool:
        return self.year_lo <= year <= self.year_hi


#: Replication default: the four phases used throughout the analysis.
DEFAULT_PHASES = (
    Phase("1956-1980", 1956, 1980),
    Phase("1981-1990", 1981, 1990),
    Phase("1991-2000", 1991, 2000),
    Phase("2001-2008", 2001, 2008),
)


@dataclass
class Corpus:
    """An immutable-by-convention list of normalized paper records."""

    papers: list[PaperRecord] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for p in self.papers:
            if p.paper_id in seen:
                raise DataError(f"duplicate paper_id {p.paper_id!r}")
            seen.add(p.paper_id)

    def __len__(self):
        return len(self.papers)

    def __iter__(self):
        return iter(self.papers)


def _require_year(value, line, what="year"):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}", line=line, field=what)
    if not (YEAR_MIN <= value <= YEAR_MAX):
        raise ParseError(
            f"{what} {value} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line, field=what
        )
    return value


def _opt_str(value, line, field):
    if value is None:
        return None
    if not isinstance(value, str) or not value.strip():
        raise ParseError(f"{field} must be a non-empty string", line=line, field=field)
    return value.strip()


def _normalized(norm, raw, what, line, field) -> str:
    """The normalised key of ``raw``, computed once per distinct string.

    ``norm`` maps raw strings to keys for one parse.  Keys normalise to
    themselves, so each key is also its own entry, and raw strings with
    equal keys share one key object.  A non-string value, a null, or a
    string that normalises to nothing is a ParseError naming ``field``.
    """
    if isinstance(raw, str):
        key = norm.get(raw)
        if key is not None:
            return key
    elif raw is not None:
        raise ParseError(
            f"{what} must be a string, got {type(raw).__name__}", line=line, field=field
        )
    try:
        key = _normalize_key(raw, what)
    except DataError as exc:
        raise ParseError(str(exc), line=line, field=field) from exc
    key = norm.setdefault(key, key)
    norm[raw] = key
    return key


def _parse_ref(obj, line, norm, interned) -> RefKey:
    if not isinstance(obj, dict):
        raise ParseError(f"reference entry must be an object, got {obj!r}", line=line, field="refs")
    for req in ("author", "year", "source"):
        if req not in obj:
            raise ParseError("reference entry missing field", line=line, field=f"refs.{req}")
    author = _normalized(norm, obj["author"], "author", line, "refs.author")
    source = _normalized(norm, obj["source"], "venue", line, "refs.source")
    year = _require_year(obj["year"], line, what="refs.year")
    ref = RefKey(
        first_author=author,
        year=year,
        source=source,
        volume=_opt_str(obj.get("volume"), line, "refs.volume"),
        page=_opt_str(obj.get("page"), line, "refs.page"),
    )
    return interned.setdefault(ref, ref)


def parse_corpus(stream) -> Corpus:
    """Parse a UTF-8 line-delimited corpus file into a Corpus.

    ``stream`` is an iterable of lines (an open file works).  Each
    non-blank line holds one JSON object with fields ``id``, ``author``,
    ``year``, ``source``, optional ``volume``/``page``, and ``refs``.
    Errors carry 1-based line numbers.

    Each distinct author or venue string is normalised once, and equal
    references share one RefKey object.
    """
    papers = []
    seen_ids = set()
    norm: dict[str, str] = {}
    interned: dict[RefKey, RefKey] = {}
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line=lineno) from exc
        if not isinstance(obj, dict):
            raise ParseError("record must be a JSON object", line=lineno)
        for req in ("id", "author", "year", "source"):
            if req not in obj:
                raise ParseError("record missing field", line=lineno, field=req)
        paper_id = obj["id"]
        if not isinstance(paper_id, str) or not paper_id:
            raise ParseError("id must be a non-empty string", line=lineno, field="id")
        if paper_id in seen_ids:
            raise ParseError(f"duplicate paper_id {paper_id!r}", line=lineno, field="id")
        seen_ids.add(paper_id)
        author = _normalized(norm, obj["author"], "author", lineno, "author")
        source = _normalized(norm, obj["source"], "venue", lineno, "source")
        year = _require_year(obj["year"], lineno)
        refs_raw = obj.get("refs", [])
        if not isinstance(refs_raw, list):
            raise ParseError("refs must be an array", line=lineno, field="refs")
        refs = tuple(_parse_ref(r, lineno, norm, interned) for r in refs_raw)
        papers.append(
            PaperRecord(
                paper_id=paper_id,
                first_author=author,
                year=year,
                source=source,
                volume=_opt_str(obj.get("volume"), lineno, "volume"),
                page=_opt_str(obj.get("page"), lineno, "page"),
                references=refs,
            )
        )
    return Corpus(papers=papers)


def _key_obj(rec: PaperRecord | RefKey) -> dict:
    """The author, year, source and any volume/page of a paper or reference."""
    obj = {"author": rec.first_author, "year": rec.year, "source": rec.source}
    if rec.volume is not None:
        obj["volume"] = rec.volume
    if rec.page is not None:
        obj["page"] = rec.page
    return obj


def serialize_corpus(corpus: Corpus, stream) -> None:
    """Write a Corpus in the line-delimited format parse_corpus reads."""
    for p in corpus.papers:
        obj = {"id": p.paper_id, **_key_obj(p), "refs": [_key_obj(r) for r in p.references]}
        stream.write(json.dumps(obj, separators=(",", ":"), sort_keys=False))
        stream.write("\n")


def split_phases(corpus: Corpus, phases=DEFAULT_PHASES) -> tuple[list[Corpus], int]:
    """Partition a corpus by publication year.

    Returns one Corpus per phase (same order) plus the count of papers
    falling outside every phase.  Overlapping phases are rejected.
    """
    phases = list(phases)
    for i, a in enumerate(phases):
        for b in phases[i + 1:]:
            if a.year_lo <= b.year_hi and b.year_lo <= a.year_hi:
                raise ConfigError(f"phases {a.label!r} and {b.label!r} overlap")
    buckets: list[list[PaperRecord]] = [[] for _ in phases]
    dropped = 0
    for p in corpus.papers:
        for i, ph in enumerate(phases):
            if ph.contains(p.year):
                buckets[i].append(p)
                break
        else:
            dropped += 1
    return [Corpus(papers=bucket) for bucket in buckets], dropped


def filter_with_references(corpus: Corpus) -> tuple[Corpus, int]:
    """Drop papers with no references; returns (kept corpus, removed count)."""
    kept = [p for p in corpus.papers if p.references]
    removed = len(corpus.papers) - len(kept)
    return Corpus(papers=kept), removed


_VENUE_POOL_SIZE = 40


def generate_synthetic(
    seed: int,
    n_papers: int,
    n_authors: int,
    skew: float = 1.0,
    year_lo: int = 1956,
    year_hi: int = 2008,
    internal_ref_prob: float = 0.4,
) -> Corpus:
    """Generate a deterministic synthetic corpus with heavy-tailed citations.

    First authors are drawn uniformly from ``n_authors`` synthetic names.
    Each paper draws a power-law number of references; reference targets
    follow preferential attachment (probability proportional to citations
    already received plus ``skew``), so smaller skew means a heavier tail.
    A fraction of references point at earlier corpus papers (exact keys),
    which feeds the internal citation counts used by prestige and h-index.
    """
    if n_papers < 1 or n_authors < 1:
        raise ConfigError("n_papers and n_authors must be >= 1")
    if skew <= 0:
        raise ConfigError("skew must be positive")
    if year_lo > year_hi:
        raise ConfigError("year_lo must be <= year_hi")

    rng = np.random.default_rng(seed)
    authors = [f"AUTH {i:06d}" for i in range(n_authors)]
    venues = [f"SYN JOURNAL {i:03d}" for i in range(_VENUE_POOL_SIZE)]

    # Preferential attachment via the repeated-targets pool: drawing from
    # the pool is proportional to citations received so far, drawing
    # uniformly adds the +skew smoothing term.
    pool: list[int] = []
    # each author's earlier papers, as the one RefKey every citation shares
    papers_by_author: list[list[RefKey]] = [[] for _ in range(n_authors)]
    papers: list[PaperRecord] = []

    for pid in range(n_papers):
        author_idx = int(rng.integers(n_authors))
        year = year_lo + int(rng.integers(year_hi - year_lo + 1))
        venue = venues[int(rng.integers(_VENUE_POOL_SIZE))]
        n_refs = 2 + int(rng.pareto(1.8) * 6.0)
        n_refs = min(n_refs, 120)
        refs = []
        uniform_mass = 0.05 * n_authors * skew
        for _ in range(n_refs):
            if rng.random() < uniform_mass / (uniform_mass + len(pool)):
                target = int(rng.integers(n_authors))
            else:
                target = pool[int(rng.integers(len(pool)))]
            pool.append(target)
            prior = papers_by_author[target]
            if prior and rng.random() < internal_ref_prob:
                refs.append(prior[int(rng.integers(len(prior)))])
            else:
                refs.append(
                    RefKey(
                        first_author=authors[target],
                        year=year_lo + int(rng.integers(year_hi - year_lo + 1)),
                        source=venues[int(rng.integers(_VENUE_POOL_SIZE))],
                    )
                )
        record = PaperRecord(
            paper_id=f"SYN{pid:07d}",
            first_author=authors[author_idx],
            year=year,
            source=venue,
            volume=str(1 + pid % 50),
            page=str(1 + pid % 900),
            references=tuple(refs),
        )
        papers.append(record)
        papers_by_author[author_idx].append(RefKey(*record.match_key()))

    return Corpus(papers=papers)
