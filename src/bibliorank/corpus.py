"""Bibliographic corpus handling.

Parsing and serialization of line-delimited record files, author/venue key
normalization, phase partitioning, reference filtering, and a seeded
synthetic corpus generator used in place of proprietary datasets.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import string
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from bibliorank.errors import ConfigError, ParseError

_TRAILING_PUNCT = string.punctuation + " \t"

YEAR_MIN = 1000
YEAR_MAX = 3000

#: Columns of a match key row, for papers and references alike.
AUTHOR, YEAR, SOURCE, VOLUME, PAGE = range(5)
#: The volume or page column of a key without one.
MISSING = -1


def normalize_key(raw: str, what: str, line=None, field=None) -> str:
    """Normalize a raw ``what`` string, an author or a venue, into its key.

    Uppercases, drops periods, turns commas into spaces, collapses
    whitespace, and strips leading/trailing whitespace and trailing
    punctuation.  Idempotent.  A null, or a string of which nothing
    survives, is a ParseError naming ``line`` and ``field``.

    >>> normalize_key("Salton, G.", "author")
    'SALTON G'
    """
    if raw is None:
        raise ParseError(f"{what} string is missing", line=line, field=field)
    key = raw.upper().replace(".", "").replace(",", " ")
    key = " ".join(key.split())
    key = key.rstrip(_TRAILING_PUNCT)
    if not key:
        raise ParseError(f"{what} string {raw!r} is empty after normalization",
                         line=line, field=field)
    return key


def normalize_author(raw: str) -> str:
    """The author key of ``raw`` (see ``normalize_key``)."""
    return normalize_key(raw, "author")


@dataclass(frozen=True)
class Phase:
    """A labeled inclusive year range."""

    label: str
    year_lo: int
    year_hi: int

    def __post_init__(self):
        if not self.label.strip():  # the label names the phase's files
            raise ConfigError(f"phase {self.year_lo}-{self.year_hi}: the label is empty")
        if self.year_lo > self.year_hi:
            raise ConfigError(
                f"phase {self.label!r}: year_lo {self.year_lo} > year_hi {self.year_hi}"
            )


#: Replication default: the four phases used throughout the analysis.
DEFAULT_PHASES = (
    Phase("1956-1980", 1956, 1980),
    Phase("1981-1990", 1981, 1990),
    Phase("1991-2000", 1991, 2000),
    Phase("2001-2008", 2001, 2008),
)


def _key_rows(rows) -> np.ndarray:
    """Key rows, or their flattened values, as an (n, 5) int32 array."""
    return np.asarray(rows, dtype=np.int32).reshape(-1, 5)


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's group id, equal ids for equal rows, and one row index per group."""
    order = np.lexsort(rows.T)
    first = np.zeros(len(rows), dtype=bool)
    first[:1] = True
    for column in rows.T:
        ordered = column[order]
        first[1:] |= ordered[1:] != ordered[:-1]
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(first) - 1
    return ids, order[first]


@dataclass(frozen=True, eq=False)
class Corpus:
    """Papers and their references as int32 columns over one string table.

    Row k of ``keys`` is paper k's match key (author, year, source, volume,
    page): the year is the year itself, the other columns index
    ``strings``, and a missing volume or page is MISSING.  ``ids[k]``
    indexes paper k's id.  Paper k's references are the rows
    ``refs[offsets[k]:offsets[k + 1]]``, in the same layout; duplicate
    references are kept, since multiplicity carries citation weight.  Each
    string appears once in ``strings``, so equal keys are equal rows.
    Subsets share their parent's string table.
    """

    strings: list[str]
    ids: np.ndarray
    keys: np.ndarray
    offsets: np.ndarray
    refs: np.ndarray

    def __len__(self):
        return len(self.ids)

    def select(self, mask: np.ndarray) -> "Corpus":
        """The papers where the boolean ``mask`` is true, with their references."""
        starts = self.offsets[:-1][mask]
        counts = self.offsets[1:][mask] - starts
        offsets = np.concatenate(([0], np.cumsum(counts)))
        # reference j of kept paper p sits at starts[p] + (j - offsets[p])
        positions = np.repeat(starts - offsets[:-1], counts) + np.arange(offsets[-1])
        return Corpus(self.strings, self.ids[mask], self.keys[mask], offsets,
                      self.refs[positions])

    @cached_property
    def key_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """Ids of the match keys of the papers and of the references.

        Equal ids mean equal keys, across papers and references alike; a
        missing volume or page equals only a missing one.
        """
        ids, _ = _group_rows(np.concatenate((self.keys, self.refs)))
        return ids[:len(self)], ids[len(self):]

    def source_years(self) -> tuple[list[tuple[str, int]], np.ndarray]:
        """The distinct (source, year) pairs of the papers, and the index
        of each paper's pair among them."""
        pair_rows = self.keys[:, [SOURCE, YEAR]]
        ids, first = _group_rows(pair_rows)
        pairs = [(self.strings[source], year) for source, year in pair_rows[first].tolist()]
        return pairs, ids


def _require_year(value, line, what="year"):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError(f"{what} must be an integer, got {value!r}", line=line, field=what)
    if not (YEAR_MIN <= value <= YEAR_MAX):
        raise ParseError(
            f"{what} {value} outside [{YEAR_MIN}, {YEAR_MAX}]", line=line, field=what
        )
    return value


class _StringTable:
    """The string table of one parse, with each raw author, venue, volume
    or page string mapped to its entry once."""

    def __init__(self):
        self.index: dict[str, int] = {}  # string -> its index in the table
        self.keys: dict[str, int] = {}  # raw author or venue -> its key's index
        self.stripped: dict[str, int] = {}  # raw volume or page -> its stripped index

    def add(self, text: str, line, field) -> int:
        """The index of ``text``.  A new string that UTF-8 cannot encode, a
        lone surrogate from a JSON escape such as ``"\\ud800"``, is a
        ParseError naming ``line`` and ``field``."""
        index = self.index.get(text)
        if index is None:
            if not text.isascii() and not encodes(text):
                raise ParseError("string holds a lone surrogate, which is not valid UTF-8",
                                 line=line, field=field)
            index = self.index[text] = len(self.index)
        return index

    def key(self, raw, what, line, field) -> int:
        """The index of the normalised key of ``raw``.  A non-string value,
        a null, or a string that normalises to nothing is a ParseError
        naming ``field``."""
        if isinstance(raw, str):
            index = self.keys.get(raw)
            if index is not None:
                return index
        elif raw is not None:
            raise ParseError(
                f"{what} must be a string, got {type(raw).__name__}", line=line, field=field
            )
        index = self.keys[raw] = self.add(normalize_key(raw, what, line, field), line, field)
        return index

    def optional(self, raw, line, field) -> int:
        """The index of an optional string, stripped; MISSING for null."""
        if raw is None:
            return MISSING
        if isinstance(raw, str):
            index = self.stripped.get(raw)
            if index is not None:
                return index
        if not isinstance(raw, str) or not raw.strip():
            raise ParseError(f"{field} must be a non-empty string", line=line, field=field)
        index = self.stripped[raw] = self.add(raw.strip(), line, field)
        return index


def _parse_ref(obj, line, strings: _StringTable) -> tuple:
    if not isinstance(obj, dict):
        raise ParseError(f"reference entry must be an object, got {obj!r}", line=line, field="refs")
    for req in ("author", "year", "source"):
        if req not in obj:
            raise ParseError("reference entry missing field", line=line, field=f"refs.{req}")
    author = strings.key(obj["author"], "author", line, "refs.author")
    source = strings.key(obj["source"], "venue", line, "refs.source")
    year = _require_year(obj["year"], line, what="refs.year")
    return (author, year, source, strings.optional(obj.get("volume"), line, "refs.volume"),
            strings.optional(obj.get("page"), line, "refs.page"))


def encodes(text: str) -> bool:
    """Whether UTF-8 can encode ``text``, that is, it holds no lone surrogate."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def read_lines(source) -> Iterator[tuple[int, str]]:
    """Yield ``(line number, line)`` for each non-blank line of a text
    input, without its newline: a path, opened as UTF-8, or an iterable of
    text lines such as an ``io.StringIO``.

    A path is opened as ``utf-8-sig``, which drops a byte-order mark at
    its start, and with ``errors="surrogateescape"``, so a byte that is
    not UTF-8 reaches its line as a lone surrogate instead of failing the
    read; such a line is a ParseError ``line N: not valid UTF-8``.
    """
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8-sig", errors="surrogateescape") as fh:
            yield from read_lines(fh)
        return
    for lineno, raw in enumerate(source, start=1):
        if not raw.isascii() and not encodes(raw):
            raise ParseError("not valid UTF-8", line=lineno)
        line = raw.rstrip("\n")
        if line.strip():
            yield lineno, line


def read_uncommented(source) -> Iterator[tuple[int, str]]:
    """``read_lines`` without comments: a `#` first on a line or after
    whitespace begins a comment that runs to the end of the line, so
    ``O#Brien`` keeps its `#`.  Yields ``(line number, text)`` for each
    line that holds more than a comment, with trailing whitespace removed."""
    for lineno, line in read_lines(source):
        text = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].rstrip()
        if text:
            yield lineno, text


def reads_input(load):
    """Decorate a loader whose first argument is its input, a path or text
    lines read with ``read_lines``: a ParseError it raises for a path names
    that path, ``line N: <message>[ (field: F)] in <path>``."""

    @functools.wraps(load)
    def named(source, *args, **kwargs):
        try:
            return load(source, *args, **kwargs)
        except ParseError as exc:
            if isinstance(source, (str, os.PathLike)):
                exc.path = os.fspath(source)
            raise

    return named


@reads_input
def parse_corpus(source) -> Corpus:
    """Parse a line-delimited corpus into a Corpus.

    ``source`` is a path or an iterable of text lines, read with
    ``read_lines``.  Each non-blank line holds one JSON object with fields
    ``id``, ``author``, ``year``, ``source``, optional ``volume``/``page``,
    and ``refs``.  Errors carry 1-based line numbers.

    Each distinct author, venue, volume or page string is checked and
    normalised once, and refused where it first enters the string table
    if UTF-8 cannot encode it (see ``_StringTable.add``).
    """
    strings = _StringTable()
    keys, stripped = strings.keys, strings.stripped
    ids, paper_keys, refs = array("i"), array("i"), array("i")  # refs: 5 values per reference
    offsets = array("q", [0])
    seen_ids = set()
    for lineno, line in read_lines(source):
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
        author = strings.key(obj["author"], "author", lineno, "author")
        source = strings.key(obj["source"], "venue", lineno, "source")
        year = _require_year(obj["year"], lineno)
        refs_raw = obj.get("refs", [])
        if not isinstance(refs_raw, list):
            raise ParseError("refs must be an array", line=lineno, field="refs")
        for r in refs_raw:
            # A reference whose strings were all seen, valid, before and whose
            # year is an int in range is valid.  The lookups fail on anything
            # else: r not a dict, a field missing, or a value that is new or
            # not a string (strings equal no other type); that takes the
            # checks in order.
            try:
                ref_year, volume, page = r["year"], r.get("volume"), r.get("page")
                row = (keys[r["author"]], ref_year, keys[r["source"]],
                       MISSING if volume is None else stripped[volume],
                       MISSING if page is None else stripped[page])
            except (TypeError, KeyError):
                row = None
            if row is None or type(ref_year) is not int or not YEAR_MIN <= ref_year <= YEAR_MAX:
                row = _parse_ref(r, lineno, strings)
            refs.extend(row)
        ids.append(strings.add(paper_id, lineno, "id"))
        paper_keys.extend((author, year, source,
                           strings.optional(obj.get("volume"), lineno, "volume"),
                           strings.optional(obj.get("page"), lineno, "page")))
        offsets.append(len(refs) // 5)
    return Corpus(list(strings.index), np.asarray(ids, dtype=np.int32),
                  _key_rows(paper_keys), np.asarray(offsets, dtype=np.int64),
                  _key_rows(refs))


def _key_text(rows: np.ndarray, encoded: np.ndarray) -> np.ndarray:
    """The JSON members of each key row, as an object array of strings:
    author, year, source, then volume and page where present."""
    years, year_of_row = np.unique(rows[:, YEAR], return_inverse=True)
    year_text = np.array([str(y) for y in years.tolist()], dtype=object)
    text = ('"author":' + encoded[rows[:, AUTHOR]] + ',"year":' + year_text[year_of_row]
            + ',"source":' + encoded[rows[:, SOURCE]])
    for column, name in ((VOLUME, "volume"), (PAGE, "page")):
        present = rows[:, column] != MISSING
        text[present] += f',"{name}":' + encoded[rows[present, column]]
    return text


#: Papers formatted at a time by serialize_corpus, which bounds the text it holds.
_WRITE_BATCH = 512


def serialize_corpus(corpus: Corpus, stream) -> None:
    """Write a Corpus in the line-delimited format parse_corpus reads.

    The lines are those of ``json.dumps`` with compact separators, members
    in the order id, author, year, source, volume, page, refs, and no
    volume or page member where it is missing.  Each string the corpus
    uses is JSON-encoded once.
    """
    used = np.zeros(len(corpus.strings) + 1, dtype=bool)  # the last slot takes MISSING
    used[corpus.ids] = True
    for rows in (corpus.keys, corpus.refs):
        for column in (AUTHOR, SOURCE, VOLUME, PAGE):
            used[rows[:, column]] = True
    used = np.flatnonzero(used[:-1])
    encoded = np.empty(len(corpus.strings), dtype=object)
    encoded[used] = [json.dumps(corpus.strings[i]) for i in used.tolist()]
    for lo in range(0, len(corpus), _WRITE_BATCH):
        papers = slice(lo, lo + _WRITE_BATCH)
        offsets = corpus.offsets[lo:lo + _WRITE_BATCH + 1]
        heads = ('{"id":' + encoded[corpus.ids[papers]] + ","
                 + _key_text(corpus.keys[papers], encoded) + ',"refs":[').tolist()
        refs = ("{" + _key_text(corpus.refs[offsets[0]:offsets[-1]], encoded) + "}").tolist()
        bounds = (offsets - offsets[0]).tolist()
        stream.write("".join(head + ",".join(refs[a:b]) + "]}\n"
                             for head, a, b in zip(heads, bounds, bounds[1:])))


def check_phase_overlap(phases) -> None:
    """Refuse phases whose year ranges overlap."""
    phases = list(phases)
    for i, a in enumerate(phases):
        for b in phases[i + 1:]:
            if a.year_lo <= b.year_hi and b.year_lo <= a.year_hi:
                raise ConfigError(f"phases {a.label!r} and {b.label!r} overlap")


def split_phases(corpus: Corpus, phases=DEFAULT_PHASES) -> tuple[list[Corpus], int]:
    """Partition a corpus by publication year.

    Returns one Corpus per phase (same order) plus the count of papers
    falling outside every phase.  Overlapping phases are rejected.
    """
    check_phase_overlap(phases)
    years = corpus.keys[:, YEAR]
    masks = [(years >= ph.year_lo) & (years <= ph.year_hi) for ph in phases]
    dropped = len(corpus) - sum(int(np.count_nonzero(mask)) for mask in masks)
    return [corpus.select(mask) for mask in masks], dropped


def filter_with_references(corpus: Corpus) -> tuple[Corpus, int]:
    """Drop papers with no references; returns (kept corpus, removed count)."""
    kept = np.diff(corpus.offsets) > 0
    return corpus.select(kept), len(corpus) - int(np.count_nonzero(kept))


_VENUE_POOL_SIZE = 40
#: The most references a paper draws, so also the most entries it adds to
#: the preferential-attachment pool.
_MAX_REFS = 120
#: The weight of a uniform draw against the attachment pool, per author and
#: unit of skew.
_UNIFORM_SHARE = 0.05
#: The chance that a reference to an author with earlier corpus papers
#: cites one of them.
_INTERNAL_REF_PROB = 0.4


def check_synthetic(seed: int, n_papers: int, n_authors: int, skew: float) -> None:
    """Refuse synthetic-corpus parameters that ``generate_synthetic`` cannot
    draw from, with a ConfigError naming the parameter."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_papers < 1 or n_authors < 1:
        raise ConfigError("n_papers and n_authors must be >= 1")
    if not (math.isfinite(skew) and skew > 0):
        raise ConfigError(f"skew must be finite and positive, got {skew}")
    mass = _UNIFORM_SHARE * n_authors * skew
    if not (math.isfinite(mass) and mass > 0):
        raise ConfigError(f"skew must keep the uniform attachment mass {_UNIFORM_SHARE} * "
                          f"n_authors * skew finite and positive, got {mass} at skew {skew}")
    n_strings = n_authors + _VENUE_POOL_SIZE + n_papers + 900
    if n_strings > 2**31:
        raise ConfigError(f"n_papers + n_authors too large: {n_strings} strings "
                          "overflow the int32 string table")
    if _MAX_REFS * n_papers >= 2**32:
        raise ConfigError(f"n_papers must be <= {(2**32 - 1) // _MAX_REFS}, got {n_papers}")


#: Raw PCG64 words fetched at a time by generate_synthetic.
_RAW_BLOCK = 64
_LOW32 = 0xFFFFFFFF


def generate_synthetic(seed: int, n_papers: int, n_authors: int, skew: float = 1.0) -> Corpus:
    """Generate a deterministic synthetic corpus with heavy-tailed citations.

    First authors are drawn uniformly from ``n_authors`` synthetic names.
    Each paper draws a power-law number of references; reference targets
    follow preferential attachment (probability proportional to citations
    already received plus ``skew``), so smaller skew means a heavier tail.
    A fraction of references point at earlier corpus papers (exact keys),
    which feeds the internal citation counts used by prestige and h-index.
    Years are drawn from the paper's window, the span of ``DEFAULT_PHASES``.

    The corpus is a function of the seed: its values are numpy's scalar
    ``Generator`` stream for ``np.random.default_rng(seed)`` (calls to
    ``integers(n)``, ``random()`` and ``pareto(1.8)`` in a fixed order),
    pinned by ``test_stream_pinned``.  They are computed here from blocks
    of raw PCG64 words the way numpy computes them: ``integers(n)`` is
    Lemire's bounded method on one 32-bit draw, 32-bit draws are the two
    halves of a 64-bit word, low half first, ``integers(1)`` draws
    nothing, and ``random()`` is ``(word >> 11) * 2**-53``.  The
    parameters are checked by ``check_synthetic`` first; a ConfigError
    names the one at fault.
    """
    check_synthetic(seed, n_papers, n_authors, skew)
    rng = np.random.default_rng(seed)
    bitgen = rng.bit_generator
    words: list[int] = []  # a block of _RAW_BLOCK raw words, used from ``used`` on
    used = _RAW_BLOCK
    half = -1  # the high half of the last word split by integers(); -1: none

    def integers(n: int) -> int:
        """``rng.integers(n)``, for 1 <= n < 2**32."""
        nonlocal words, used, half
        if n == 1:
            return 0
        while True:
            if half >= 0:
                u, half = half, -1
            else:
                if used == _RAW_BLOCK:
                    words, used = bitgen.random_raw(_RAW_BLOCK).tolist(), 0
                word = words[used]
                used += 1
                u, half = word & _LOW32, word >> 32
            m = u * n
            low = m & _LOW32
            if low >= n or low >= (1 << 32) % n:  # redraw only below 2**32 % n, < n
                return m >> 32

    def random() -> float:
        """``rng.random()``."""
        nonlocal words, used
        if used == _RAW_BLOCK:
            words, used = bitgen.random_raw(_RAW_BLOCK).tolist(), 0
        used += 1
        return (words[used - 1] >> 11) * 2.0**-53

    def n_refs() -> int:
        """The reference count, from ``rng.pareto(1.8)``: numpy draws it
        from whole words, after the unused ones of the block are given back."""
        nonlocal used
        if used < _RAW_BLOCK:
            bitgen.advance((1 << 128) - (_RAW_BLOCK - used))  # a rewind, mod 2**128
            used = _RAW_BLOCK
        return min(2 + int(rng.pareto(1.8) * 6.0), _MAX_REFS)

    # String table: authors, venues, paper ids, then "1".."900" for the
    # volumes (1 + pid % 50) and pages (1 + pid % 900).
    venue0 = n_authors
    id0 = venue0 + _VENUE_POOL_SIZE
    number0 = id0 + n_papers  # strings[number0 + k] == str(1 + k)
    strings = ([f"AUTH {i:06d}" for i in range(n_authors)]
               + [f"SYN JOURNAL {i:03d}" for i in range(_VENUE_POOL_SIZE)]
               + [f"SYN{pid:07d}" for pid in range(n_papers)]
               + [str(k) for k in range(1, 901)])

    # Preferential attachment via the repeated-targets pool: drawing from
    # the pool is proportional to citations received so far, drawing
    # uniformly adds the +skew smoothing term.
    pool: list[int] = []
    # each author's earlier papers, as their key rows
    papers_by_author: list[list[tuple]] = [[] for _ in range(n_authors)]
    keys: list[tuple] = []
    refs = array("i")  # the reference key rows, flattened
    offsets = [0]
    year_lo = DEFAULT_PHASES[0].year_lo
    n_years = DEFAULT_PHASES[-1].year_hi - year_lo + 1
    uniform_mass = _UNIFORM_SHARE * n_authors * skew

    for pid in range(n_papers):
        author_idx = integers(n_authors)
        year = year_lo + integers(n_years)
        venue = venue0 + integers(_VENUE_POOL_SIZE)
        count = n_refs()
        for _ in range(count):
            if random() < uniform_mass / (uniform_mass + len(pool)):
                target = integers(n_authors)
            else:
                target = pool[integers(len(pool))]
            pool.append(target)
            prior = papers_by_author[target]
            if prior and random() < _INTERNAL_REF_PROB:
                refs.extend(prior[integers(len(prior))])
            else:
                refs.extend((target, year_lo + integers(n_years),
                             venue0 + integers(_VENUE_POOL_SIZE), MISSING, MISSING))
        key = (author_idx, year, venue, number0 + pid % 50, number0 + pid % 900)
        keys.append(key)
        papers_by_author[author_idx].append(key)
        offsets.append(offsets[-1] + count)

    return Corpus(strings, np.arange(id0, id0 + n_papers, dtype=np.int32), _key_rows(keys),
                  np.array(offsets, dtype=np.int64), _key_rows(refs))
