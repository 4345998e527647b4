import io

import pytest

from bibliorank.errors import ConfigError
from bibliorank.evaluation import coverage, load_winners
from bibliorank.indicators import ScoreVector


def _ranking(n):
    """Score vector a001 (best) .. a{n} (worst)."""
    return ScoreVector("ind", [f"A{i:03d}" for i in range(1, n + 1)],
                       [float(n - i) for i in range(1, n + 1)])


class TestWinnerList:
    def test_load_normalizes_and_dedups(self):
        text = "Salton, G.\n# a comment\nSALTON G  # same person\nvan Rijsbergen,C.J.\n"
        assert load_winners(io.StringIO(text)) == ["SALTON G", "VAN RIJSBERGEN CJ"]

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
