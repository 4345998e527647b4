import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank.errors import ConfigError, DegenerateTeleportError
from bibliorank.network import build_graph
from bibliorank.pagerank import (
    CITATION_WEIGHTED,
    DANGLING_POLICIES,
    PUBLICATION_WEIGHTED,
    TELEPORTS,
    UNIFORM,
    PageRankConfig,
    make_teleport,
    pagerank,
    weighted_pagerank,
)
from tests.conftest import graph_from_matrix
from tests.oracles import dense_pagerank, power_iteration_loop, random_graph_corpus

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
            assert r.scores[g.authors.index(author)] == pytest.approx(want, abs=1e-10)

    def test_damping_zero_gives_teleport(self):
        w, pubs = random_graph_corpus(seed=11)
        g = graph_from_matrix(w, pubs)
        r = pagerank(g, PageRankConfig(damping=0.0))
        assert np.allclose(r.scores, 1 / g.n_nodes, atol=1e-15)
        t = make_teleport(g, CITATION_WEIGHTED)
        rw = weighted_pagerank(g, t, PageRankConfig(damping=0.0))
        assert np.allclose(rw.scores, t, atol=1e-15)


class TestMakeTeleport:
    def test_citation_normalization(self):
        g = graph_from_matrix([[0, 2, 1], [0, 0, 1], [0, 0, 0]])
        # second graph has citation counts (2, 1, 1) for a clean normalization check
        g2 = graph_from_matrix([[0, 1, 0], [1, 0, 1], [1, 0, 0]])
        t = make_teleport(g2, CITATION_WEIGHTED)
        assert np.allclose(t, np.array([2, 1, 1]) / 4)
        assert t.sum() == pytest.approx(1.0, abs=1e-12)
        assert g.n_nodes == 3

    def test_uniform(self):
        g = graph_from_matrix(np.eye(5, k=1, dtype=int))
        t = make_teleport(g, UNIFORM)
        assert np.all(t == 0.2)

    def test_all_zero_publications_error(self):
        g = graph_from_matrix([[0, 1], [0, 0]], publications=[0, 0])
        with pytest.raises(DegenerateTeleportError, match="degenerate teleport"):
            make_teleport(g, PUBLICATION_WEIGHTED)

    def test_invalid_vector_rejected(self):
        g = graph_from_matrix([[0, 1], [0, 0]])
        for teleport, match in (([0.5, 0.6], "sums to"), ([1.5, -0.5], "negative"),
                                ([np.nan, 0.5], "sums to")):
            with pytest.raises(ConfigError, match=match):
                weighted_pagerank(g, np.array(teleport))


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("seed", range(1, 11))
    def test_matches_dense_iteration(self, seed):
        w, pubs = random_graph_corpus(seed)
        g = graph_from_matrix(w, pubs)
        for d in DAMPINGS:
            for kind in (UNIFORM, CITATION_WEIGHTED, PUBLICATION_WEIGHTED):
                t = make_teleport(g, kind)
                got = weighted_pagerank(g, t, PageRankConfig(damping=d)).scores
                want = dense_pagerank(w, t, d)
                assert np.max(np.abs(got - want)) < 1e-10

    def test_uniform_dangling_policy(self):
        w, pubs = random_graph_corpus(seed=42)
        g = graph_from_matrix(w, pubs)
        t = make_teleport(g, CITATION_WEIGHTED)
        cfg = PageRankConfig(damping=0.5, dangling_policy="uniform")
        got = weighted_pagerank(g, t, cfg).scores
        want = dense_pagerank(w, t, 0.5, dangling_policy="uniform")
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
                want = dense_pagerank(w, t, d, dangling_policy=policy)
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

    def test_transition_built_once_per_graph(self, monkeypatch):
        w, pubs = random_graph_corpus(seed=9)
        g = graph_from_matrix(w, pubs)
        calls = []
        out_weights = type(g).out_weights
        monkeypatch.setattr(type(g), "out_weights", lambda self: calls.append(1) or out_weights(self))
        for kind in (UNIFORM, CITATION_WEIGHTED, PUBLICATION_WEIGHTED):
            for d in DAMPINGS:
                r = weighted_pagerank(g, make_teleport(g, kind), PageRankConfig(damping=d))
                assert np.allclose(r.scores, dense_pagerank(w, make_teleport(g, kind), d),
                                   atol=1e-10)
        assert len(calls) == 1

    def test_teleport_length_mismatch(self):
        g = graph_from_matrix([[0, 1], [0, 0]])
        for teleport in (np.full(3, 1 / 3), np.full((1, 2), 0.5)):
            with pytest.raises(ConfigError, match="node count"):
                weighted_pagerank(g, teleport)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       damping=st.sampled_from([0.0, 0.15, 0.5, 0.85, 0.99]) | st.floats(0.0, 0.999),
       kind=st.sampled_from(list(TELEPORTS)),
       policy=st.sampled_from(DANGLING_POLICIES),
       max_iterations=st.sampled_from([1, 7, 1000]))
def test_solver_equals_loop_oracle_bitwise(seed, damping, kind, policy, max_iterations):
    w, pubs = random_graph_corpus(seed)
    g = graph_from_matrix(w, pubs)
    teleport = make_teleport(g, kind)
    cfg = PageRankConfig(damping, max_iterations=max_iterations, dangling_policy=policy)
    got = weighted_pagerank(g, teleport, cfg)
    scores, iterations, residual = power_iteration_loop(g, teleport, cfg)
    assert got.scores.tobytes() == scores.tobytes()
    assert (got.iterations, got.final_residual) == (iterations, residual)
