import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from bibliorank.corpus import filter_with_references, generate_synthetic
from bibliorank.errors import ConfigError, DataError, ParseError
from bibliorank.indicators import (
    ImpactFactorTable,
    ScoreVector,
    average_ranks,
    dump_indicator,
    h_index_scores,
    highly_cited_papers,
    if_scores,
    internal_citation_counts,
    load_impact_factors,
    popularity_scores,
    prestige_scores,
    top_k,
    unmatched_references,
)
from bibliorank.network import build_graph
from bibliorank.pagerank import TELEPORTS, PageRankConfig
from bibliorank.pipeline import classical_indicators, generate_impact_factors, write_phase_ranks
from tests import oracles
from tests.conftest import corpus_of, paper, ref
from tests.oracles import h_index


def _corpus_with_internal_citations():
    """p1..p3 by distinct authors; p4 and p5 cite p1 (p5 twice), p5 cites p2."""
    p1 = paper("p1", "A", 1990, "J A", volume="1", page="10", refs=[ref("Z")])
    p2 = paper("p2", "B", 1991, "J B", refs=[ref("Z")])
    p3 = paper("p3", "C", 1992, "J C", refs=[ref("Z")])
    cite_p1 = ("A", 1990, "J A", "1", "10")
    cite_p2 = ("B", 1991, "J B", None, None)
    p4 = paper("p4", "D", 2000, "J D", refs=[cite_p1])
    p5 = paper("p5", "E", 2001, "J E", refs=[cite_p1, cite_p1, cite_p2])
    return corpus_of([p1, p2, p3, p4, p5])


def _shared_key_corpus():
    """p1 and p2 share one match key; p3 and p4 cite it, p3 also cites itself."""
    twin = dict(year=1990, source="J A", volume="1", page="10")
    twin_ref = ("A", 1990, "J A", "1", "10")
    return corpus_of([
        paper("p1", "A", refs=[ref("Z")], **twin),
        paper("p2", "A", refs=[ref("B")], **twin),
        paper("p3", "B", 2000, "J B", refs=[twin_ref, ref("B")]),
        paper("p4", "C", 2001, "J C", refs=[twin_ref, ref("A")]),
    ])


class TestInternalCitationCounts:
    def test_exact_matching(self):
        counts = internal_citation_counts(_corpus_with_internal_citations())
        assert counts.tolist() == [3, 1, 0, 0, 0]

    def test_volume_mismatch_blocks_match(self):
        p1 = paper("p1", "A", 1990, "J A", volume="1")
        p2 = paper("p2", "B", 2000, "J B", refs=[("A", 1990, "J A", None, None)])
        counts = internal_citation_counts(corpus_of([p1, p2]))
        assert counts[0] == 0  # ref omits volume, paper has one

    def test_shared_key_credits_each_paper(self):
        assert internal_citation_counts(_shared_key_corpus()).tolist() == [2, 2, 0, 0]


class TestPopularity:
    def test_counts(self, two_paper_corpus):
        g = build_graph(two_paper_corpus)
        s = popularity_scores(g)
        assert s.authors == ["X", "Y", "Z"]
        assert s.values.tolist() == [0.0, 3.0, 1.0]

    def test_never_cited_publishing_author(self, two_paper_corpus):
        g = build_graph(two_paper_corpus)
        assert popularity_scores(g).values[g.authors.index("X")] == 0.0


class TestHighlyCited:
    def test_all_uncited_empty(self):
        c = corpus_of([paper("p1", "A", refs=[ref("Z")])])
        assert not highly_cited_papers(internal_citation_counts(c), top_fraction=0.5).any()

    def test_min_citations_one_is_cited_set(self):
        c = _corpus_with_internal_citations()
        hc = highly_cited_papers(internal_citation_counts(c), min_citations=1)
        assert hc.tolist() == [True, True, False, False, False]

    def test_top_fraction_includes_ties_at_cut(self):
        # counts {9,5,5,2,1,0,0,0,0,0}; f=0.2 cuts at the 2nd largest (5)
        # and keeps both papers tied at 5 (hand enumeration)
        counts = np.array([9, 5, 5, 2, 1, 0, 0, 0, 0, 0])
        hc = highly_cited_papers(counts, top_fraction=0.2)
        assert np.flatnonzero(hc).tolist() == [0, 1, 2]

    def test_threshold_monotonicity(self):
        c = _corpus_with_internal_citations()
        counts = internal_citation_counts(c)
        prev = None
        for m in (1, 2, 3, 4):
            hc = highly_cited_papers(counts, min_citations=m)
            if prev is not None:
                assert np.all(hc <= prev)
            prev = hc

    def test_invalid_fraction(self):
        counts = internal_citation_counts(_corpus_with_internal_citations())
        for f in (0.0, 1.1, -0.5):
            with pytest.raises(ConfigError):
                highly_cited_papers(counts, top_fraction=f)
        with pytest.raises(ConfigError):
            highly_cited_papers(counts, top_fraction=0.5, min_citations=1)


class TestPrestige:
    def test_empty_hc_all_zero(self):
        c = _corpus_with_internal_citations()
        g = build_graph(c)
        s = prestige_scores(g, np.zeros(len(c), dtype=bool))
        assert np.all(s.values == 0.0)

    def test_hc_all_papers_equals_popularity(self):
        c = _corpus_with_internal_citations()
        g = build_graph(c)
        prestige = prestige_scores(g, np.ones(len(c), dtype=bool))
        assert np.array_equal(prestige.values, popularity_scores(g).values)

    def test_single_highly_cited_paper(self):
        c = corpus_of([
            paper("P", "X", refs=[ref("A"), ref("A"), ref("B")]),
            paper("q", "Y", refs=[ref("A")]),
            paper("r", "Z", refs=[ref("B")]),
        ])
        g = build_graph(c)
        s = prestige_scores(g, np.array([True, False, False]))
        assert s.values[g.authors.index("A")] == 2.0
        assert s.values[g.authors.index("B")] == 1.0
        assert s.values[g.authors.index("X")] == 0.0

    def test_prestige_le_popularity_pointwise(self):
        c, _ = filter_with_references(generate_synthetic(seed=4, n_papers=400, n_authors=120))
        g = build_graph(c)
        hc = highly_cited_papers(internal_citation_counts(c), top_fraction=0.1)
        prest = prestige_scores(g, hc)
        pop = popularity_scores(g)
        assert np.all(prest.values <= pop.values)


class TestHIndex:
    def test_oracle_fixture(self):
        # counts {10,8,5,4,3} -> sort-and-scan oracle says 4
        assert h_index([10, 8, 5, 4, 3]) == 4
        counts = np.array([10, 8, 5, 4, 3])
        c = corpus_of([paper(f"p{i}", "A", refs=[ref("Z")]) for i in range(5)])
        g = build_graph(c)
        s = h_index_scores(g, counts)
        assert s.values[g.authors.index("A")] == 4.0

    def test_zero_and_ones(self):
        assert h_index([0]) == 0
        assert h_index([1, 1, 1]) == 1
        c = corpus_of([paper("p1", "A", refs=[ref("Z")])])
        g = build_graph(c)
        assert h_index_scores(g, np.array([0])).values[g.authors.index("A")] == 0.0

    def test_matches_oracle_on_synthetic(self):
        c, _ = filter_with_references(generate_synthetic(seed=8, n_papers=300, n_authors=60))
        counts = internal_citation_counts(c)
        g = build_graph(c)
        s = h_index_scores(g, counts)
        per_author = {}
        for p, count in zip(oracles.corpus_records(c), counts.tolist()):
            per_author.setdefault(p[1], []).append(count)
        for author, cites in per_author.items():
            assert s.values[g.authors.index(author)] == h_index(cites)


class TestIfScores:
    def test_single_citation(self):
        c = corpus_of([paper("p1", "A", 2005, "J", refs=[ref("B")])])
        table = ImpactFactorTable({("J", 2005): 2.5})
        g = build_graph(c)
        s, misses = if_scores(g, c, table)
        assert s.values[g.authors.index("B")] == 2.5
        assert misses == 0

    def test_missing_venue_counts_miss(self):
        c = corpus_of([paper("p1", "A", 2005, "J", refs=[ref("B")])])
        g = build_graph(c)
        s, misses = if_scores(g, c, ImpactFactorTable({}))
        assert s.values[g.authors.index("B")] == 0.0
        assert misses == 1

    def test_additivity(self):
        c = corpus_of([
            paper("p1", "A", 2005, "J", refs=[ref("B")]),
            paper("p2", "C", 2006, "K", refs=[ref("B")]),
        ])
        table = ImpactFactorTable({("J", 2005): 2.5, ("K", 2006): 1.0})
        g = build_graph(c)
        s, _ = if_scores(g, c, table)
        assert s.values[g.authors.index("B")] == 3.5

    def test_unit_ifs_equal_popularity(self):
        c, _ = filter_with_references(generate_synthetic(seed=2, n_papers=200, n_authors=80))
        table = ImpactFactorTable({(p[3], p[2]): 1.0 for p in oracles.corpus_records(c)})
        g = build_graph(c)
        s, misses = if_scores(g, c, table)
        assert misses == 0
        assert np.array_equal(s.values, popularity_scores(g).values)

    def test_load_table_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            load_impact_factors(io.StringIO("J\t2005\t2.5\nJ\t2005\t3.0\n"))

    def test_load_table_normalises_venues_as_the_corpus(self):
        """A venue spelled as in the corpus hits that corpus's papers."""
        c = corpus_of([paper("p1", "A", 1990, "J. Test", refs=[ref("B")])])
        table = load_impact_factors(io.StringIO("j. test\t1990\t2.5\n"))
        assert table.factors == {("J TEST", 1990): 2.5}
        g = build_graph(c)
        s, misses = if_scores(g, c, table)
        assert s.values[g.authors.index("B")] == 2.5
        assert misses == 0

    def test_load_table_two_spellings_of_one_venue_are_a_duplicate(self):
        with pytest.raises(ParseError, match=r"^line 2: duplicate impact-factor key "
                                             r"\('J TEST', 1990\)$"):
            load_impact_factors(io.StringIO("J. Test\t1990\t2.5\nJ TEST\t1990\t3.0\n"))

    @pytest.mark.parametrize("venue", ["", " ", ".", ", ."])
    def test_load_table_venue_empty_after_normalization_names_line(self, venue):
        with pytest.raises(ParseError, match=r"^line 2: venue string .* is empty after "
                                             r"normalization$"):
            load_impact_factors(io.StringIO(f"J\t2005\t2.5\n{venue}\t2005\t1.0\n"))

    def test_load_table_comment_first_or_after_whitespace(self):
        """A `#` first on a line, after indentation or after a field's
        whitespace begins a comment; inside a venue it is text."""
        text = ("# venue\tyear\tfactor\n  # an indented note\nJ\t2005\t2.5  # a trailing note\n"
                "K\t2005\t1.5\t# after a tab\nC#J\t2005\t3.0\n")
        assert load_impact_factors(io.StringIO(text)).factors == {
            ("J", 2005): 2.5, ("K", 2005): 1.5, ("C#J", 2005): 3.0}

    @pytest.mark.parametrize("impact", ["inf", "nan", "-inf"])
    def test_load_table_non_finite_factor_names_line(self, impact):
        with pytest.raises(ParseError, match=r"^line 2: non-finite impact factor"):
            load_impact_factors(io.StringIO(f"J\t2005\t2.5\nK\t2005\t{impact}\n"))


class TestToRanks:
    """Ranks of descending scores, ``average_ranks(-values)``, as the
    indicator table takes them (rank 1 = best)."""

    def test_distinct(self):
        r = average_ranks(-np.array([5, 3, 1]))
        assert r.tolist() == [1, 2, 3]

    def test_tie_average(self):
        r = average_ranks(-np.array([5, 5, 1]))
        assert r.tolist() == [1.5, 1.5, 3]

    def test_all_equal(self):
        r = average_ranks(-np.array([7] * 4))
        assert np.all(r == 2.5)

    def test_rank_sum_identity_random(self):
        import random

        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(1, 40)
            r = average_ranks(-np.array([rng.randint(0, 5) for _ in range(n)]))
            assert sum(r) == pytest.approx(n * (n + 1) / 2)

    def test_strict_monotonicity(self):
        a, b, c, d = average_ranks(-np.array([9, 4, 4, 1]))
        assert a < b == c < d


# few distinct values, so most vectors hold ties, signed zeros and infinities
_TIE_HEAVY = st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1 + 0.2, 0.3, 1e-300, np.inf, -np.inf]),
    st.floats(allow_nan=False)), max_size=80)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TIE_HEAVY)
def test_average_ranks_equal_rankdata(values):
    assert np.array_equal(average_ranks(values), rankdata(values, method="average"))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_TIE_HEAVY)
def test_average_ranks_sum_identity(values):
    n = len(values)
    assert average_ranks(values).sum() == n * (n + 1) / 2


def _tie_heavy(seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 6, int(rng.integers(2, 300))).astype(float)


class TestDumpIndicator:
    @pytest.mark.parametrize("values", [
        *(_tie_heavy(seed) for seed in range(1, 11)),
        [4.0] * 7,
        [2.5],
        [0.1 + 0.2, 1 / 3, 1e-300, 2.0**60 + 2**8, 0.3, 1 / 3, 2.0**60],
        [0.0, -0.0, 1.0, -0.0, 0.0, -1.0],
    ], ids=[*(f"ties{seed}" for seed in range(1, 11)),
            "all_equal", "one_author", "17_digits", "signed_zeros"])
    def test_equals_loop_oracle(self, values):
        sv = ScoreVector("s", [f"a{i:03d}" for i in range(len(values))], values)
        got, want = io.StringIO(), io.StringIO()
        dump_indicator(sv, got)
        oracles.dump_indicator_loop(sv, want)
        assert got.getvalue() == want.getvalue()

    def test_rows_best_first_ties_by_author(self):
        buf = io.StringIO()
        dump_indicator(ScoreVector("s", ["A", "B", "C", "D"], [1.0, 3.0, 1.0, 0.1 + 0.2]), buf)
        assert buf.getvalue() == ("author\tscore\trank\n"
                                  "B\t3\t1\n"
                                  "A\t1\t2.5\n"
                                  "C\t1\t2.5\n"
                                  "D\t0.30000000000000004\t4\n")


class TestTopK:
    def test_argmax(self):
        s = ScoreVector("s", ["A", "B", "C"], [1, 5, 3])
        assert top_k(s, 1).tolist() == [1]

    def test_full_ordering(self):
        s = ScoreVector("s", ["A", "B", "C"], [1, 5, 3])
        assert top_k(s, 3).tolist() == [1, 2, 0]

    def test_boundary_tie_broken_by_author(self):
        s = ScoreVector("s", list("ABCD"), [5, 3, 1, 3])
        assert top_k(s, 2).tolist() == [0, 1]

    def test_k_exceeds_n(self):
        s = ScoreVector("s", ["A", "B"], [1, 2])
        assert top_k(s, 10).tolist() == [1, 0]

    def test_k_zero_rejected(self):
        with pytest.raises(ConfigError):
            top_k(ScoreVector("s", ["A"], [1]), 0)


class TestScoreVector:
    def test_non_finite_score_names_first_bad_author(self):
        with pytest.raises(DataError, match="'B'"):
            ScoreVector("s", ["A", "B", "C"], [1.0, float("nan"), float("inf")])


def _aligned(g, by_author):
    values = np.zeros(g.n_nodes)
    for author, v in by_author.items():
        values[g.authors.index(author)] = v
    return values


@pytest.mark.parametrize("allow_self_citation", [True, False])
@pytest.mark.parametrize("name", ["seed1", "seed5", "seed9", "shared_key"])
def test_reference_table_reductions_equal_loop_oracles(name, allow_self_citation):
    # seeds 1, 5 and 9 are the test_08 corpora
    if name == "shared_key":
        c = _shared_key_corpus()
    else:
        c = generate_synthetic(seed=int(name.removeprefix("seed")), n_papers=600, n_authors=200)
    _assert_reductions_equal_loop_oracles(c, allow_self_citation)


_AUTHORS = ["A", "B", "C", "D"]
_SOURCES = ["J A", "J B"]


@st.composite
def _key(draw):
    """A match key over few values, so papers share keys and references match them."""
    return (draw(st.sampled_from(_AUTHORS)), draw(st.integers(1990, 1992)),
            draw(st.sampled_from(_SOURCES)), draw(st.sampled_from([None, "1", "2"])),
            draw(st.sampled_from([None, "10"])))


@st.composite
def _records(draw):
    keys = draw(st.lists(_key(), min_size=1, max_size=8))
    cited = st.one_of(st.sampled_from(keys), _key())
    return [(f"p{i}", *key, tuple(draw(st.lists(cited, max_size=6))))
            for i, key in enumerate(keys)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_records(), st.booleans())
def test_reductions_equal_loop_oracles_on_generated_corpora(records, allow_self_citation):
    _assert_reductions_equal_loop_oracles(corpus_of(records), allow_self_citation)


def _assert_reductions_equal_loop_oracles(c, allow_self_citation):
    records = oracles.corpus_records(c)
    g = build_graph(c, allow_self_citation=allow_self_citation)

    authors, weights, publications = oracles.build_graph_loop(records, allow_self_citation)
    keys = sorted(weights)
    coo = g.adjacency.tocoo()
    assert g.authors == authors
    assert g.adjacency.has_canonical_format and coo.data.dtype == np.int64
    assert list(zip(coo.row.tolist(), coo.col.tolist())) == keys
    assert coo.data.tolist() == [weights[k] for k in keys]
    assert g.publications.tolist() == publications

    counts = internal_citation_counts(c)
    loop_counts = oracles.internal_citation_counts_loop(records)
    assert counts.dtype == np.int64
    assert counts.tolist() == [loop_counts[p[0]] for p in records]
    assert unmatched_references(c) == oracles.unmatched_references_loop(records)

    hc = highly_cited_papers(counts, top_fraction=0.1)
    hc_ids = {p[0] for p, flag in zip(records, hc.tolist()) if flag}
    assert np.array_equal(prestige_scores(g, hc).values,
                          _aligned(g, oracles.prestige_loop(records, hc_ids)))
    assert np.array_equal(h_index_scores(g, counts).values,
                          _aligned(g, oracles.h_index_loop(records, loop_counts)))

    # every fourth (venue, year) left out of the table, so misses occur
    full = sorted(generate_impact_factors(c, seed=3).factors.items())
    factors = {k: v for i, (k, v) in enumerate(full) if i % 4}
    ifs, misses = if_scores(g, c, ImpactFactorTable(factors))
    loop_ifs, loop_misses = oracles.if_loop(records, factors)
    assert misses == loop_misses
    assert np.array_equal(ifs.values, _aligned(g, loop_ifs))


def test_dropped_self_citations_leave_the_graph_but_not_the_reference_counts():
    """``allow_self_citation=false`` (``indicators --drop-self-citations``)
    removes self-citations from the graph's edges, so from popularity and
    every PageRank variant.  Prestige, impact-factor scores and the internal
    citation counts behind the h-index and the highly-cited threshold read
    the phase's references, and still count them."""
    cite_p0, cite_p1 = ("A", 1985, "J A", "1", "5"), ("A", 1990, "J A", "1", "10")
    c = corpus_of([
        paper("p0", "A", 1985, "J A", volume="1", page="5", refs=[ref("A", 1980)]),
        paper("p1", "A", 1990, "J A", volume="1", page="10", refs=[ref("A", 1980)]),
        paper("p2", "A", 2000, "J B", refs=[cite_p0, cite_p1]),
        paper("p3", "B", 2001, "J C", refs=[cite_p0, cite_p1, ref("C")]),
    ])
    # p0 and p1 reach min_citations:2 only with A's own citation from p2
    assert internal_citation_counts(c).tolist() == [2, 2, 0, 0]
    table = ImpactFactorTable({("J A", 1985): 1.0, ("J A", 1990): 1.0, ("J B", 2000): 2.0,
                               ("J C", 2001): 4.0})
    configs = [PageRankConfig(d) for d in (0.15, 0.5, 0.85)]
    runs = []
    for allow in (True, False):
        g = build_graph(c, allow_self_citation=allow)
        assert g.authors == ["A", "B", "C"]
        classical, diagnostics = classical_indicators(c, g, "min_citations:2", table)
        variants, _ = write_phase_ranks(g, None, list(TELEPORTS), configs, False,
                                        lambda name: contextlib.nullcontext(io.StringIO()))
        assert diagnostics["highly_cited_papers"] == 2
        runs.append({sv.name: sv.values.tolist() for sv in classical + variants})
    kept, dropped = runs
    assert (kept["popularity"], dropped["popularity"]) == ([6, 0, 1], [2, 0, 1])
    for name in ("prestige", "h_index", "impact_factor"):
        assert kept[name] == dropped[name]
    assert kept["prestige"] == [2, 0, 0] and kept["h_index"] == [2, 0, 0]
    assert kept["impact_factor"] == [1 + 1 + 2 + 2 + 4 + 4, 0, 4]
    pageranks = [name for name in kept if name.startswith("pagerank")]
    assert len(pageranks) == 9
    assert all(kept[name] != dropped[name] for name in pageranks)
