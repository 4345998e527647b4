import copy
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bibliorank.corpus import (
    AUTHOR,
    DEFAULT_PHASES,
    SOURCE,
    Phase,
    filter_with_references,
    generate_synthetic,
    normalize_author,
    parse_corpus,
    serialize_corpus,
    split_phases,
)
from bibliorank.errors import ConfigError, DataError, ParseError
from tests.conftest import corpus_of, paper, ref
from tests.oracles import (
    OracleParseError,
    corpus_columns,
    corpus_records,
    generate_synthetic_loop,
    parse_corpus_loop,
)


def _record(**fields):
    obj = {"id": "p1", "author": "A", "year": 2000, "source": "J",
           "refs": [{"author": "B", "year": 1999, "source": "K"}]}
    obj.update(fields)
    return json.dumps(obj)


def _text(corpus):
    buf = io.StringIO()
    serialize_corpus(corpus, buf)
    return buf.getvalue()


class TestNormalizeAuthor:
    def test_comma_and_period(self):
        assert normalize_author("Salton, G.") == "SALTON G"

    def test_idempotent(self):
        assert normalize_author("SALTON G") == "SALTON G"

    def test_messy_whitespace_and_initials(self):
        # hand-applied rule chain: uppercase, drop periods, comma -> space,
        # collapse whitespace, strip
        assert normalize_author("  van  Rijsbergen,C.J. ") == "VAN RIJSBERGEN CJ"

    def test_idempotent_on_random_strings(self):
        import random

        rng = random.Random(7)
        chars = "abcXYZ ,.;-'"
        for _ in range(200):
            raw = "".join(rng.choice(chars) for _ in range(rng.randint(1, 20)))
            try:
                once = normalize_author(raw)
            except DataError:
                continue
            assert normalize_author(once) == once

    def test_empty_after_normalization(self):
        with pytest.raises(DataError):
            normalize_author(" ,. ")


class TestParseCorpus:
    def test_empty_file(self):
        assert len(parse_corpus(io.StringIO(""))) == 0

    def test_one_line_two_refs(self):
        line = json.dumps(
            {
                "id": "p1",
                "author": "Salton, G.",
                "year": 1975,
                "source": "JASIS",
                "refs": [
                    {"author": "Luhn, H.P.", "year": 1958, "source": "IBM J"},
                    {"author": "Cleverdon, C.", "year": 1967, "source": "ASLIB", "volume": "19"},
                ],
            }
        )
        c = parse_corpus(io.StringIO(line + "\n"))
        assert len(c) == 1
        [(_, author, *_, refs)] = corpus_records(c)
        assert author == "SALTON G"
        assert len(refs) == 2
        assert refs[1] == ("CLEVERDON C", 1967, "ASLIB", "19", None)

    def test_missing_year_names_field_and_line(self):
        lines = (
            json.dumps({"id": "p1", "author": "A", "year": 2000, "source": "J", "refs": []})
            + "\n"
            + json.dumps({"id": "p2", "author": "B", "source": "J", "refs": []})
            + "\n"
        )
        with pytest.raises(ParseError) as exc:
            parse_corpus(io.StringIO(lines))
        assert exc.value.line == 2
        assert exc.value.field == "year"

    def test_duplicate_id(self):
        line = json.dumps({"id": "p1", "author": "A", "year": 2000, "source": "J", "refs": []})
        with pytest.raises(ParseError, match="duplicate"):
            parse_corpus(io.StringIO(line + "\n" + line + "\n"))

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError) as exc:
            parse_corpus(io.StringIO('{"id": "p1"\n'))
        assert exc.value.line == 1

    def test_year_range(self):
        line = json.dumps({"id": "p1", "author": "A", "year": 999, "source": "J", "refs": []})
        with pytest.raises(ParseError):
            parse_corpus(io.StringIO(line))

    def test_duplicate_refs_preserved(self):
        line = json.dumps(
            {
                "id": "p1",
                "author": "A",
                "year": 2000,
                "source": "J",
                "refs": [
                    {"author": "B", "year": 1999, "source": "K"},
                    {"author": "B", "year": 1999, "source": "K"},
                ],
            }
        )
        c = parse_corpus(io.StringIO(line))
        assert c.offsets.tolist() == [0, 2]

    @pytest.mark.parametrize("value", [5, 1.5, True, ["x"], {"a": "b"}],
                             ids=["int", "float", "bool", "list", "dict"])
    @pytest.mark.parametrize("where,field", [
        ("record", "author"), ("record", "source"),
        ("ref", "refs.author"), ("ref", "refs.source"),
    ])
    def test_non_string_key_field(self, value, where, field):
        key = field.rsplit(".", 1)[-1]
        if where == "record":
            line = _record(**{key: value})
        else:
            line = _record(refs=[{"author": "B", "year": 1999, "source": "K", key: value}])
        text = _record(id="p0") + "\n" + line + "\n"
        with pytest.raises(ParseError, match="must be a string") as exc:
            parse_corpus(io.StringIO(text))
        assert (exc.value.line, exc.value.field) == (2, field)

    @pytest.mark.parametrize("where,key,value,field", [
        ("record", "volume", 5, "volume"),
        ("record", "page", " ", "page"),
        ("ref", "volume", 5, "refs.volume"),
        ("ref", "page", " ", "refs.page"),
        ("ref", "author", None, "refs.author"),
        ("ref", "author", " ., ", "refs.author"),
        ("ref", "source", None, "refs.source"),
        ("ref", "source", " ., ", "refs.source"),
    ], ids=["volume", "page", "ref-volume", "ref-page", "ref-author-null",
            "ref-author-empty", "ref-source-null", "ref-source-empty"])
    def test_bad_value_names_its_field(self, where, key, value, field):
        if where == "record":
            line = _record(**{key: value})
        else:
            line = _record(refs=[{"author": "B", "year": 1999, "source": "K", key: value}])
        with pytest.raises(ParseError) as exc:
            parse_corpus(io.StringIO(line))
        assert (exc.value.line, exc.value.field) == (1, field)
        with pytest.raises(OracleParseError) as oracle:
            parse_corpus_loop(io.StringIO(line))
        assert (oracle.value.line, oracle.value.field) == (1, field)

    def test_empty_record_venue_names_source(self):
        with pytest.raises(ParseError, match="venue") as exc:
            parse_corpus(io.StringIO(_record(source=" ,. ")))
        assert (exc.value.line, exc.value.field) == (1, "source")

    @pytest.mark.parametrize("field", ["id", "author", "source", "volume", "page",
                                       "refs.author", "refs.source", "refs.volume",
                                       "refs.page"])
    def test_lone_surrogate_names_first_line_and_field(self, field):
        """A JSON escape of a lone surrogate parses to a string that UTF-8
        cannot encode.  The error names the line and field where the string
        first enters the string table, past a blank line, and not a later
        line that holds it too."""
        key = field.rsplit(".", 1)[-1]
        value = "x\udc80" if key in ("id", "volume", "page") else "X\udc80"
        if field.startswith("refs."):
            bad = _record(id="p1", refs=[{"author": "B", "year": 1999, "source": "K",
                                          key: value}])
        else:
            bad = _record(**{"id": "p1", key: value})
        later = _record(id="p2", author="X\udc80", source="X\udc80")
        text = f"{_record(id='p0')}\n\n{bad}\n{later}\n"
        assert text.isascii()
        with pytest.raises(ParseError, match="lone surrogate") as exc:
            parse_corpus(io.StringIO(text))
        assert (exc.value.line, exc.value.field) == (3, field)

    def test_lone_surrogate_is_refused_before_a_later_bad_line(self):
        """The error names the first bad line in file order: a lone
        surrogate on line 2 comes before invalid JSON on line 4."""
        text = "\n".join([_record(id="p0"), _record(id="p1", author="\ud800"),
                          _record(id="p2"), "{"]) + "\n"
        assert text.isascii()
        with pytest.raises(ParseError, match="lone surrogate") as exc:
            parse_corpus(io.StringIO(text))
        assert (exc.value.line, exc.value.field) == (2, "author")


class TestInterning:
    TEXT = "".join(
        _record(id=f"p{i}", author=a, refs=[
            {"author": "Luhn, H.P.", "year": 1958, "source": "IBM J.", "volume": "2"},
            {"author": "luhn, hp", "year": 1958, "source": "IBM J", "volume": " 2 "},
            {"author": a, "year": 1990, "source": "J"},
        ]) + "\n"
        for i, a in enumerate(["Salton, G.", "SALTON G", "Cleverdon, C."])
    )

    def test_equal_references_are_one_key(self):
        c = parse_corpus(io.StringIO(self.TEXT))
        refs = [r for *_, paper_refs in corpus_records(c) for r in paper_refs]
        rows = [tuple(row) for row in c.refs.tolist()]
        ids = c.key_ids[1].tolist()
        assert len(refs) == 9 and len(set(refs)) == 3
        # equal references have equal key rows and key ids, and only they do
        assert len(set(zip(refs, rows))) == len(set(rows)) == 3
        assert len(set(zip(refs, ids))) == len(set(ids)) == 3

    def test_equal_author_keys_are_one_string_id(self):
        c = parse_corpus(io.StringIO(self.TEXT))
        ids = np.concatenate((c.keys, c.refs))[:, [AUTHOR, SOURCE]].ravel().tolist()
        keys = [c.strings[i] for i in ids]
        assert len(set(zip(keys, ids))) == len(set(ids)) == len(set(keys)) == 5
        assert len(set(c.strings)) == len(c.strings)

    def test_synthetic_internal_references_share_the_key(self):
        c = generate_synthetic(seed=5, n_papers=400, n_authors=60)
        records = corpus_records(c)
        paper_keys = {tuple(key) for _, *key, _ in records}
        refs = [r for *_, paper_refs in records for r in paper_refs]
        internal = [(r, i) for r, i in zip(refs, c.key_ids[1].tolist()) if r in paper_keys]
        assert len(internal) > len({r for r, _ in internal}) > 0
        assert len(set(internal)) == len({r for r, _ in internal})
        assert np.isin(c.key_ids[1], c.key_ids[0]).sum() == len(internal)


# Every form a field value takes in the generated corpora below: valid
# strings that normalise to shared keys, and values parse_corpus rejects.
_NAMES = ["Salton, G.", "SALTON G", "salton, g", "Luhn, H.P.", "van Rijsbergen,C.J."]
_VENUES = ["J. Doc.", "J DOC", "JASIS", "Commun. ACM", "Inf. Process. Manage."]
_MALFORMED = [5, 1.5, True, None, [], ["x"], {"a": 1}, "", "  ", " ,.;", "--", "p0"]
# Lines as a file opened with errors="surrogateescape" reads them: \udcff
# stands for the byte 0xff, which is not UTF-8.
_JUNK_LINES = ["", "   ", "[1]", "{", '"x"', "true", '{"id": "p\udcff"}', "\udcff"]
_MALFORMED_YEARS = [1990.0, True, 999, 3001, "1990", None]


@st.composite
def _reference(draw):
    obj = {"author": draw(st.sampled_from(_NAMES)), "year": draw(st.integers(1950, 2010)),
           "source": draw(st.sampled_from(_VENUES))}
    for key in ("volume", "page"):
        value = draw(st.sampled_from([None, "7", " 12 ", "A1"]))
        if value is not None:
            obj[key] = value
    return obj


@st.composite
def _corpus_text(draw, malformed):
    """JSONL text; references repeat, and with ``malformed`` some values are bad."""
    pool = draw(st.lists(_reference(), min_size=1, max_size=5))
    records = []
    for i in range(draw(st.integers(1 if malformed else 0, 6))):
        rec = {"id": f"p{i}", "author": draw(st.sampled_from(_NAMES)),
               "year": draw(st.integers(1950, 2010)), "source": draw(st.sampled_from(_VENUES))}
        if draw(st.booleans()):
            rec["volume"], rec["page"] = str(i), str(10 * i)
        rec["refs"] = [copy.copy(r) for r in draw(st.lists(st.sampled_from(pool), max_size=8))]
        records.append(rec)
    lines = [json.dumps(r) for r in records]
    if malformed and records:
        for _ in range(draw(st.integers(1, 2))):
            i = draw(st.integers(0, len(records) - 1))
            rec = records[i]
            target, keys = rec, ["id", "author", "year", "source", "volume", "page", "refs"]
            refs = rec.get("refs")
            refs = [r for r in refs if isinstance(r, dict)] if isinstance(refs, list) else []
            if refs and draw(st.booleans()):
                target = draw(st.sampled_from(refs))
                keys = ["author", "year", "source", "volume", "page"]
            key = draw(st.sampled_from(keys))
            if draw(st.integers(0, 4)) == 0:
                target.pop(key, None)
            else:
                bad = _MALFORMED_YEARS if key == "year" else _MALFORMED
                target[key] = draw(st.sampled_from(bad))
            lines[i] = json.dumps(rec)
        if draw(st.integers(0, 5)) == 0:
            lines.insert(draw(st.integers(0, len(lines))),
                         draw(st.sampled_from(_JUNK_LINES)))
    return "".join(line + "\n" for line in lines)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_corpus_text(malformed=True))
def test_parse_matches_loop_oracle(text):
    try:
        expected = parse_corpus_loop(io.StringIO(text))
    except OracleParseError as want:
        with pytest.raises(ParseError) as got:
            parse_corpus(io.StringIO(text))
        assert (got.value.line, got.value.field) == (want.line, want.field)
    else:
        assert corpus_records(parse_corpus(io.StringIO(text))) == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_corpus_text(malformed=False))
def test_parse_interns_and_round_trips(text):
    c = parse_corpus(io.StringIO(text))
    records = corpus_records(c)
    assert records == parse_corpus_loop(io.StringIO(text))
    # each string once in the table, and equal keys, only they, share a key id
    assert len(set(c.strings)) == len(c.strings)
    keys = [tuple(key) for _, *key, _ in records] + [r for *_, refs in records for r in refs]
    ids = np.concatenate(c.key_ids).tolist()
    assert len(set(zip(keys, ids))) == len(set(keys)) == len(set(ids))
    assert corpus_records(parse_corpus(io.StringIO(_text(c)))) == records


def test_roundtrip_serialize_parse():
    c = corpus_of([
        paper("p1", "A", 1975, refs=[ref("B"), ref("C", volume="7", page="11")]),
        paper("p2", "B", 1990, volume="3", page="100"),
    ])
    buf = io.StringIO()
    serialize_corpus(c, buf)
    buf.seek(0)
    again = parse_corpus(buf)
    assert corpus_records(again) == corpus_records(c)


class TestSplitPhases:
    def test_paper_boundary_years(self):
        c = corpus_of([
            paper("p1", "A", 1956),
            paper("p2", "B", 1980),
            paper("p3", "C", 1981),
            paper("p4", "D", 1955),
        ])
        phases, dropped = split_phases(c, DEFAULT_PHASES)
        assert [p[0] for p in corpus_records(phases[0])] == ["p1", "p2"]
        assert [p[0] for p in corpus_records(phases[1])] == ["p3"]
        assert dropped == 1

    def test_partition_identity(self):
        c = corpus_of([paper(f"p{y}", "A", y) for y in range(1950, 2020)])
        phases, dropped = split_phases(c, DEFAULT_PHASES)
        assert sum(len(p) for p in phases) + dropped == len(c)

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError, match="overlap"):
            split_phases(corpus_of([]), [Phase("a", 1990, 2000), Phase("b", 2000, 2010)])

    def test_inverted_phase_rejected(self):
        with pytest.raises(ConfigError):
            Phase("bad", 2000, 1990)

    def test_empty_label_rejected(self):
        with pytest.raises(ConfigError, match="phase 1956-2008: the label is empty"):
            Phase(" ", 1956, 2008)


class TestFilterWithReferences:
    def test_identity_when_all_have_refs(self):
        c = corpus_of([paper("p1", "A", refs=[ref("B")])])
        kept, removed = filter_with_references(c)
        assert removed == 0
        assert corpus_records(kept) == corpus_records(c)

    def test_counts(self):
        c = corpus_of(
            [paper(f"r{i}", "A", refs=[ref("B")]) for i in range(2)]
            + [paper(f"n{i}", "A") for i in range(3)]
        )
        kept, removed = filter_with_references(c)
        assert len(kept) == 2
        assert removed == 3
        assert [p[0] for p in corpus_records(kept)] == ["r0", "r1"]
        assert all(p[6] for p in corpus_records(kept))

    def test_empty(self):
        kept, removed = filter_with_references(corpus_of([]))
        assert len(kept) == 0 and removed == 0


class TestGenerateSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(seed=1, n_papers=200, n_authors=100)
        b = generate_synthetic(seed=1, n_papers=200, n_authors=100)
        bufs = []
        for c in (a, b):
            buf = io.StringIO()
            serialize_corpus(c, buf)
            bufs.append(buf.getvalue())
        assert bufs[0] == bufs[1]

    def test_seed_changes_output(self):
        a = generate_synthetic(seed=1, n_papers=50, n_authors=30)
        b = generate_synthetic(seed=2, n_papers=50, n_authors=30)
        assert corpus_records(a) != corpus_records(b)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigError):
            generate_synthetic(seed=1, n_papers=0, n_authors=10)
        with pytest.raises(ConfigError):
            generate_synthetic(seed=1, n_papers=10, n_authors=0)
        with pytest.raises(ConfigError):
            generate_synthetic(seed=1, n_papers=10, n_authors=10, skew=0.0)

    def test_every_paper_has_references(self):
        c = generate_synthetic(seed=3, n_papers=100, n_authors=50)
        assert all(p[6] for p in corpus_records(c))

    def test_stream_pinned(self):
        # Pinned before the generator emitted columns: the RNG call order,
        # and so every seeded corpus, must not change.
        text = _text(generate_synthetic(17, 2000, 5000, 8.0))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8f77c1bfd97fa4bee1a13993c64c8f09f6afbcc56f7f2139106505870ad32473")

    def test_years_within_range(self):
        c = generate_synthetic(seed=3, n_papers=100, n_authors=50, year_lo=1990, year_hi=1995)
        assert all(1990 <= p[2] <= 1995 for p in corpus_records(c))

    @pytest.mark.parametrize("kwargs,message", [
        (dict(seed=-1), "seed must be >= 0, got -1"),
        (dict(skew=float("nan")), "skew must be finite and positive, got nan"),
        (dict(skew=float("inf")), "skew must be finite and positive, got inf"),
        (dict(n_authors=2**31), "n_papers + n_authors too large: 2147484598 strings "
                                "overflow the int32 string table"),
        (dict(n_papers=35_791_395), "n_papers must be <= 35791394, got 35791395"),
        (dict(year_lo=500, year_hi=600), "years 500-600 outside [1000, 3000]"),
    ], ids=["negative-seed", "nan-skew", "inf-skew", "string-table", "pool", "years"])
    def test_parameters_checked_before_any_work(self, kwargs, message):
        with pytest.raises(ConfigError) as exc:
            generate_synthetic(**{"seed": 1, "n_papers": 10, "n_authors": 10, **kwargs})
        assert str(exc.value) == message


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), n_papers=st.integers(1, 200),
       n_authors=st.integers(1, 300), skew=st.floats(0.05, 50.0),
       year_lo=st.integers(1956, 2008), span=st.integers(0, 60),
       internal_ref_prob=st.sampled_from([0.0, 0.4, 1.0]))
@example(seed=0, n_papers=200, n_authors=1, skew=1.0, year_lo=1990, span=0,
         internal_ref_prob=0.4)
@example(seed=5, n_papers=150, n_authors=40, skew=0.05, year_lo=1956, span=52,
         internal_ref_prob=1.0)
@example(seed=6, n_papers=150, n_authors=40, skew=50.0, year_lo=2000, span=0,
         internal_ref_prob=0.0)
def test_generator_equals_scalar_draw_oracle(seed, n_papers, n_authors, skew, year_lo, span,
                                             internal_ref_prob):
    kwargs = dict(seed=seed, n_papers=n_papers, n_authors=n_authors, skew=skew,
                  year_lo=year_lo, year_hi=year_lo + span, internal_ref_prob=internal_ref_prob)
    assert corpus_columns(generate_synthetic(**kwargs)) == generate_synthetic_loop(**kwargs)
