import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank.errors import ConfigError, DataError
from bibliorank.evaluation import coverage, load_winners
from bibliorank.indicators import ScoreVector, dump_indicator, top_k
from bibliorank.stats import IndicatorTable
from tests.oracles import coverage_by_names_loop, table_by_names_loop, top_k_names_loop


def _ranking(n):
    """Score vector a001 (best) .. a{n} (worst)."""
    return ScoreVector("ind", [f"A{i:03d}" for i in range(1, n + 1)],
                       [float(n - i) for i in range(1, n + 1)])


class TestWinnerList:
    def test_load_normalizes_and_dedups(self):
        # a `#` first on a line or after whitespace begins a comment; one
        # inside a name is part of it
        text = ("Salton, G.\n# a comment\nSALTON G  # same person\nvan Rijsbergen,C.J.\n"
                "  # an indented comment\nO#Brien, K.\nSmith, J.\t# note\n")
        assert load_winners(io.StringIO(text)) == [
            "SALTON G", "VAN RIJSBERGEN CJ", "O#BRIEN K", "SMITH J"]

    def test_from_names_keeps_order(self):
        assert load_winners(["B. One", "A. Two", "B. One"]) == ["B ONE", "A TWO"]


class TestCoverage:
    def test_disjoint_winners_all_zero(self):
        rv = _ranking(20)
        winners = ["NOBODY X", "NOBODY Y"]
        res = coverage([rv], winners, ks=[5, 10])
        assert all(v == 0 for v in res.counts.values())
        assert res.missing_winners == ["NOBODY X", "NOBODY Y"]

    def test_winners_equal_top5(self):
        rv = _ranking(20)
        winners = [f"A{i:03d}" for i in range(1, 6)]
        res = coverage([rv], winners, ks=[5])
        assert res.counts[("ind", 5)] == 5

    def test_seeded_ranks_2_8_30(self):
        # direct enumeration: winners at ranks {2, 8, 30} give
        # counts (1, 2, 2, 3) at k = (5, 10, 20, 50)
        rv = _ranking(60)
        winners = ["A002", "A008", "A030"]
        res = coverage([rv], winners, ks=[5, 10, 20, 50])
        assert [res.counts[("ind", k)] for k in (5, 10, 20, 50)] == [1, 2, 2, 3]

    def test_monotone_in_k(self):
        import random

        rng = random.Random(13)
        rv = _ranking(100)
        universe = rv.authors
        for _ in range(50):
            winners = rng.sample(universe, rng.randint(1, 15))
            res = coverage([rv], winners, ks=[3, 7, 20, 60, 100])
            counts = [res.counts[("ind", k)] for k in (3, 7, 20, 60, 100)]
            assert counts == sorted(counts)
            assert counts[-1] == len(winners)

    def test_full_k_counts_all_present_winners(self):
        rv = _ranking(30)
        winners = ["A001", "A015", "A030", "GHOST Z"]
        res = coverage([rv], winners, ks=[30])
        assert res.counts[("ind", 30)] == 3

    def test_unsorted_ks_rejected(self):
        with pytest.raises(ConfigError):
            coverage([_ranking(5)], ["A001"], ks=[10, 5])

    def test_vectors_over_different_authors_rejected(self):
        a = ScoreVector("a", ["A", "B", "C"], [3.0, 2.0, 1.0])
        b = ScoreVector("b", ["A", "B", "C", "D"], [3.0, 2.0, 1.0, 9.0])
        message = "^score vectors 'a' and 'b' list different authors$"
        with pytest.raises(DataError, match=message) as info:
            coverage([a, b], ["D"], ks=[1])
        assert type(info.value) is DataError


@st.composite
def _phase_scores(draw):
    """Score vectors over one author list, tie-heavy with signed zeros, some
    holding the list itself and some an equal copy, with a subset of node
    ids, a winner list with absent and repeated names, and top-k sizes up
    to past the number of authors."""
    authors = sorted(draw(st.lists(st.text("ABC", min_size=1, max_size=3),
                                   min_size=1, max_size=12, unique=True)))
    n = len(authors)
    values = st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]), min_size=n, max_size=n)
    vectors = [ScoreVector(f"s{j}", authors if draw(st.booleans()) else list(authors),
                           draw(values))
               for j in range(draw(st.integers(1, 4)))]
    rows = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    winners = draw(st.lists(st.sampled_from(authors + ["ZZ", "Q"]), max_size=n + 2))
    ks = sorted(draw(st.sets(st.integers(1, n + 3), min_size=1)))
    return vectors, rows, winners, ks


@settings(max_examples=300)
@given(_phase_scores())
def test_node_id_comparison_matches_the_name_oracles(case):
    """top_k, the rank table and coverage by node id agree with the loop
    oracles that look each author up by name, and the score file lists its
    rows in the order of every top-k cut."""
    vectors, rows, winners, ks = case
    authors = vectors[0].authors
    for sv in vectors:
        written = io.StringIO()
        dump_indicator(sv, written)
        assert ([row.split("\t")[0] for row in written.getvalue().splitlines()[1:]]
                == top_k_names_loop(sv, len(authors)))
        for k in ks:
            assert [authors[i] for i in top_k(sv, k)] == top_k_names_loop(sv, k)
    table = IndicatorTable.from_scores(vectors, rows)
    want_authors, want_ranks = table_by_names_loop(vectors, [authors[i] for i in rows])
    assert table.authors == want_authors
    assert table.ranks.shape == want_ranks.shape
    assert table.ranks.tobytes() == want_ranks.tobytes()
    res = coverage(vectors, winners, ks)
    assert (res.counts, res.missing_winners) == coverage_by_names_loop(vectors, winners, ks)
