import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bibliorank import pagerank as pr_mod
from bibliorank.errors import ConfigError, DegenerateTeleportError
from bibliorank.indicators import ScoreVector
from bibliorank.network import build_graph
from bibliorank.pagerank import (
    CAP_LIMIT,
    CITATION_WEIGHTED,
    PUBLICATION_WEIGHTED,
    TELEPORTS,
    UNIFORM,
    PageRankConfig,
    make_teleport,
    pagerank,
    weighted_pagerank,
)
from tests.conftest import graph_from_matrix
from tests.oracles import (
    dense_pagerank,
    power_iteration_loop,
    random_graph_corpus,
    unresolved_pairs_loop,
)

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

    def test_error_bound_covers_distance_to_fixed_point(self):
        for seed in range(1, 11):
            w, pubs = random_graph_corpus(seed)
            g = graph_from_matrix(w, pubs)
            t = make_teleport(g, PUBLICATION_WEIGHTED)
            for d in DAMPINGS:
                # a loose tolerance stops the iteration well short of the fixed point
                with mock.patch.object(pr_mod, "TOLERANCE", 1e-3):
                    r = weighted_pagerank(g, t, PageRankConfig(damping=d))
                want = dense_pagerank(w, t, d)
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

    def test_non_convergence_flagged_not_raised(self, one_step_cap):
        w, pubs = random_graph_corpus(seed=5)
        g = graph_from_matrix(w, pubs)
        r = pagerank(g, PageRankConfig(damping=0.85))
        assert (r.iterations, r.converged) == (1, False)

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
       tolerance=st.sampled_from([2, 1e-3, 1e-12, 1e-300]))
def test_solver_equals_loop_oracle_bitwise(seed, damping, kind, tolerance):
    """Both loops stop at ``pagerank.TOLERANCE``, patched here to loose and
    tight values."""
    assume(tolerance > 1e-300 or damping <= 0.99)  # else the cap is above CAP_LIMIT
    w, pubs = random_graph_corpus(seed)
    g = graph_from_matrix(w, pubs)
    teleport = make_teleport(g, kind)
    with mock.patch.object(pr_mod, "TOLERANCE", tolerance):
        cfg = PageRankConfig(damping)
        got = weighted_pagerank(g, teleport, cfg)
        scores, iterations, residual = power_iteration_loop(g, teleport, cfg)
        assert got.iterations <= cfg.max_iterations
    assert got.scores.tobytes() == scores.tobytes()
    assert (got.iterations, got.final_residual) == (iterations, residual)


@pytest.mark.parametrize("damping", [0.0, 5e-324, 0.15, 0.5, 0.85, 0.99])
@pytest.mark.parametrize("tolerance", [1e-300, 1e-12, 1, 2])
def test_cap_covers_the_contraction_bound(damping, tolerance):
    """The residual after step k is at most 2 * d**(k - 1), so a cap with
    2 * d**(cap - 2) <= tol leaves a step of slack; in logs, since d**k
    underflows at these values.  At d = 0 the second step is exact.  The
    cap reads ``pagerank.TOLERANCE``, patched here to each value of (0, 2]
    for which the bound can be checked."""
    with mock.patch.object(pr_mod, "TOLERANCE", tolerance):
        cap = PageRankConfig(damping).max_iterations
    assert cap >= 1
    if damping == 0:
        assert cap >= 2
    else:
        assert math.log(2) + (cap - 2) * math.log(damping) <= math.log(tolerance)


def test_cap_above_the_limit_is_refused():
    assert PageRankConfig(0.999).max_iterations <= CAP_LIMIT
    for damping in (0.99999, np.nextafter(1, 0)):
        with pytest.raises(ConfigError, match=f"dampings: {damping} needs up to [0-9]+ "
                                              f"iterations, more than the {CAP_LIMIT} a solve "
                                              f"may take"):
            PageRankConfig(damping)


def test_cap_limit_admits_what_the_float_floor_lets_converge():
    """CAP_LIMIT and the float floor agree at TOLERANCE: at d = 0.9997, with
    a cap of 94,402, the three-node graph A->B, B->A, C->A converges in
    about 90,700 steps, and d = 0.9998, whose cap would be 141,609, is
    refused."""
    cfg = PageRankConfig(0.9997)
    assert cfg.max_iterations == 94_402
    r = pagerank(graph_from_matrix([[0, 1, 0], [1, 0, 0], [1, 0, 0]]), cfg)
    assert r.converged and 90_000 < r.iterations <= cfg.max_iterations, r.iterations
    with pytest.raises(ConfigError, match="dampings: 0.9998 needs up to 141609 iterations"):
        PageRankConfig(0.9998)


def unresolved_pairs(g, r):
    """The unresolved pairs of the solve ``r`` over the graph ``g``."""
    return ScoreVector("s", g.authors, r.scores).unresolved_pairs(r.error_bound)


class TestUnresolvedPairs:
    def test_near_tie_is_unresolved_and_exact_ties_never(self):
        """Node 0 cites node 1 1000 times and node 2 1001 times, so their
        exact scores differ by about 1e-4; nodes 4-7, which cite node 3
        alone, tie exactly."""
        w = np.zeros((8, 8), dtype=np.int64)
        w[0, 1], w[0, 2], w[3, 0] = 1000, 1001, 1
        w[4:, 3] = 1
        g = graph_from_matrix(w)
        for tolerance, want in ((1e-4, 1), (1e-6, 0), (1e-300, 0)):
            with mock.patch.object(pr_mod, "TOLERANCE", tolerance):
                r = pagerank(g, PageRankConfig(0.85))
            assert len(set(r.scores[4:].tolist())) == 1
            assert 0 < r.scores[2] - r.scores[1] < 2e-4
            assert unresolved_pairs(g, r) == want
        # one step (every first residual is below 2) leaves the bound above
        # every gap: each pair of distinct neighbours counts, and no tie does
        with mock.patch.object(pr_mod, "TOLERANCE", 2):
            r = pagerank(g, PageRankConfig(0.85))
        assert r.iterations == 1
        assert unresolved_pairs(g, r) == len(np.unique(r.scores)) - 1 == 4

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([0.0, 0.1, 0.1 + 1e-17, 0.1 + 3e-17, 0.2, 0.25, 1.0])
                    | st.floats(0, 1), min_size=1, max_size=12),
           st.sampled_from([0.0, 1e-17, 0.025, 0.05]) | st.floats(0, 1))
    def test_equals_sorted_gap_oracle(self, scores, error_bound):
        sv = ScoreVector("s", [f"A{i:02d}" for i in range(len(scores))], scores)
        assert sv.unresolved_pairs(error_bound) == unresolved_pairs_loop(scores, error_bound)

    @mock.patch.object(pr_mod, "TOLERANCE", 1e-3)
    def test_equals_sorted_gap_oracle_on_solves(self):
        for seed in range(1, 11):
            g = graph_from_matrix(*random_graph_corpus(seed))
            for kind in TELEPORTS:
                r = weighted_pagerank(g, make_teleport(g, kind), PageRankConfig(0.85))
                assert unresolved_pairs(g, r) == unresolved_pairs_loop(r.scores.tolist(),
                                                                        r.error_bound)
