import numpy as np
import pytest

from bibliorank.errors import ConfigError, DegenerateTeleportError
from bibliorank.network import build_graph
from bibliorank.pagerank import (
    CITATION_WEIGHTED,
    PUBLICATION_WEIGHTED,
    UNIFORM,
    PageRankConfig,
    TeleportVector,
    make_teleport,
    pagerank,
    weighted_pagerank,
)
from tests.conftest import graph_from_matrix
from tests.oracles import dense_pagerank, random_graph_corpus

DAMPINGS = (0.15, 0.5, 0.85)


class TestAnalyticFixtures:
    def test_three_cycle_uniform(self, cycle_corpus):
        g = build_graph(cycle_corpus)
        for d in DAMPINGS:
            r = pagerank(g, PageRankConfig(damping=d))
            assert np.allclose(r.scores, 1 / 3, atol=1e-12)

    def test_two_node_chain(self, two_node_corpus):
        # dense fixed point solved by hand: pi_A = 0.4, pi_B = 0.6
        g = build_graph(two_node_corpus)
        r = pagerank(g, PageRankConfig(damping=0.5))
        expected = {"A": 0.4, "B": 0.6}
        for author, want in expected.items():
            assert r.scores[g.node_id(author)] == pytest.approx(want, abs=1e-10)

    def test_damping_zero_gives_teleport(self):
        w, pubs = random_graph_corpus(seed=11)
        g = graph_from_matrix(w, pubs)
        r = pagerank(g, PageRankConfig(damping=0.0))
        assert np.allclose(r.scores, 1 / g.n_nodes, atol=1e-15)
        t = make_teleport(g, CITATION_WEIGHTED)
        rw = weighted_pagerank(g, t, PageRankConfig(damping=0.0))
        assert np.allclose(rw.scores, t.values, atol=1e-15)


class TestMakeTeleport:
    def test_citation_normalization(self):
        g = graph_from_matrix([[0, 2, 1], [0, 0, 1], [0, 0, 0]])
        # second graph has citation counts (2, 1, 1) for a clean normalization check
        g2 = graph_from_matrix([[0, 1, 0], [1, 0, 1], [1, 0, 0]])
        t = make_teleport(g2, CITATION_WEIGHTED)
        assert np.allclose(t.values, np.array([2, 1, 1]) / 4)
        assert t.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert g.n_nodes == 3

    def test_uniform(self):
        g = graph_from_matrix(np.eye(5, k=1, dtype=int))
        t = make_teleport(g, UNIFORM)
        assert np.all(t.values == 0.2)

    def test_all_zero_publications_error(self):
        g = graph_from_matrix([[0, 1], [0, 0]], publications=[0, 0])
        with pytest.raises(DegenerateTeleportError, match="degenerate teleport"):
            make_teleport(g, PUBLICATION_WEIGHTED)

    def test_invalid_vector_rejected(self):
        with pytest.raises(ConfigError):
            TeleportVector(UNIFORM, np.array([0.5, 0.6]))
        with pytest.raises(ConfigError):
            TeleportVector(UNIFORM, np.array([1.5, -0.5]))


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_matches_dense_iteration(self, seed):
        w, pubs = random_graph_corpus(seed)
        g = graph_from_matrix(w, pubs)
        for d in DAMPINGS:
            for kind in (UNIFORM, CITATION_WEIGHTED, PUBLICATION_WEIGHTED):
                t = make_teleport(g, kind)
                got = weighted_pagerank(g, t, PageRankConfig(damping=d)).scores
                want = dense_pagerank(w, t.values, d)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_uniform_dangling_policy(self):
        w, pubs = random_graph_corpus(seed=42)
        g = graph_from_matrix(w, pubs)
        t = make_teleport(g, CITATION_WEIGHTED)
        cfg = PageRankConfig(damping=0.5, dangling_policy="uniform")
        got = weighted_pagerank(g, t, cfg).scores
        want = dense_pagerank(w, t.values, 0.5, dangling_policy="uniform")
        assert np.max(np.abs(got - want)) < 1e-10

    @pytest.mark.parametrize("policy", ["teleport", "uniform"])
    def test_error_bound_covers_distance_to_fixed_point(self, policy):
        for seed in range(1, 11):
            w, pubs = random_graph_corpus(seed)
            g = graph_from_matrix(w, pubs)
            t = make_teleport(g, PUBLICATION_WEIGHTED)
            for d in DAMPINGS:
                # a loose tolerance stops the iteration well short of the fixed point
                r = weighted_pagerank(g, t, PageRankConfig(damping=d, tolerance=1e-3,
                                                           dangling_policy=policy))
                want = dense_pagerank(w, t.values, d, dangling_policy=policy)
                assert np.abs(r.scores - want).sum() <= r.error_bound + 1e-12


class TestProperties:
    @pytest.mark.parametrize("seed", range(20, 26))
    def test_mass_conservation_and_positivity(self, seed):
        w, pubs = random_graph_corpus(seed)
        g = graph_from_matrix(w, pubs)
        for d in DAMPINGS:
            r = pagerank(g, PageRankConfig(damping=d))
            assert abs(r.scores.sum() - 1.0) < 1e-9
            assert np.all(r.scores > 0)  # uniform teleport is strictly positive

    def test_reduction_uniform_teleport_equals_pagerank(self):
        for seed in range(30, 36):
            w, pubs = random_graph_corpus(seed)
            g = graph_from_matrix(w, pubs)
            for d in DAMPINGS:
                cfg = PageRankConfig(damping=d)
                a = pagerank(g, cfg).scores
                t = make_teleport(g, UNIFORM)
                b = weighted_pagerank(g, t, cfg).scores
                assert np.max(np.abs(a - b)) < 1e-12

    def test_converged_result_meets_tolerance(self):
        w, pubs = random_graph_corpus(seed=5)
        g = graph_from_matrix(w, pubs)
        r = pagerank(g, PageRankConfig(damping=0.85))
        assert r.converged
        assert r.final_residual < 1e-12

    def test_non_convergence_flagged_not_raised(self):
        w, pubs = random_graph_corpus(seed=5)
        g = graph_from_matrix(w, pubs)
        r = pagerank(g, PageRankConfig(damping=0.85, max_iterations=2))
        assert not r.converged

    def test_determinism(self):
        w, pubs = random_graph_corpus(seed=9)
        g = graph_from_matrix(w, pubs)
        a = pagerank(g, PageRankConfig(damping=0.85)).scores
        b = pagerank(g, PageRankConfig(damping=0.85)).scores
        assert np.array_equal(a, b)

    def test_teleport_length_mismatch(self):
        g = graph_from_matrix([[0, 1], [0, 0]])
        with pytest.raises(ConfigError):
            weighted_pagerank(g, TeleportVector(UNIFORM, np.full(3, 1 / 3)))
