"""Acceptance gate: one check per release criterion, each printing a
PASS/FAIL line so the suite doubles as a human-readable report.

Run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np

from bibliorank.corpus import generate_synthetic
from bibliorank.evaluation import coverage, load_winners
from bibliorank.indicators import (
    ScoreVector,
    average_ranks,
    h_index_scores,
    highly_cited_papers,
    internal_citation_counts,
    popularity_scores,
    prestige_scores,
)
from bibliorank.network import build_graph
from bibliorank.pagerank import (
    CITATION_WEIGHTED,
    PUBLICATION_WEIGHTED,
    UNIFORM,
    PageRankConfig,
    make_teleport,
    pagerank,
    weighted_pagerank,
)
from bibliorank.pipeline import RunConfig, run_pipeline
from bibliorank.stats import IndicatorTable, eigh_descending, pca_varimax, spearman

from tests.conftest import corpus_of, graph_from_matrix, paper
from tests.oracles import (
    dense_pagerank,
    exact_spearman_pvalue,
    random_graph_corpus,
    spearman_closed_form,
)
from tests.test_stats import ZERO_CORR_PERM

DAMPINGS = (0.15, 0.5, 0.85)
KINDS = (UNIFORM, CITATION_WEIGHTED, PUBLICATION_WEIGHTED)


def report(name, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"{name}{tail}"


def test_01_pagerank_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(1, 51):
        w, pubs = random_graph_corpus(seed)
        g = graph_from_matrix(w, pubs)
        for d, kind in itertools.product(DAMPINGS, KINDS):
            t = make_teleport(g, kind)
            res = weighted_pagerank(g, t, PageRankConfig(damping=d))
            oracle = dense_pagerank(w, t, d)
            worst = max(worst, float(np.max(np.abs(res.scores - oracle))))
    elapsed = time.perf_counter() - start
    report("pagerank matches dense oracle on 50 random graphs",
           worst < 1e-10 and elapsed < 10.0,
           f"max deviation {worst:.2e}, {elapsed:.1f}s")


def test_02_analytic_fixtures(cycle_corpus, two_node_corpus):
    gc = build_graph(cycle_corpus)
    ok = True
    details = []
    worst_cycle = 0.0
    for d in DAMPINGS:
        r = pagerank(gc, PageRankConfig(damping=d))
        worst_cycle = max(worst_cycle, float(np.max(np.abs(r.scores - 1 / 3))))
    ok &= worst_cycle <= 1e-12
    details.append(f"cycle {worst_cycle:.1e}")

    g2 = build_graph(two_node_corpus)
    r2 = pagerank(g2, PageRankConfig(damping=0.5))
    s = dict(zip(g2.authors, r2.scores))
    dev2 = max(abs(s["A"] - 0.4), abs(s["B"] - 0.6))
    ok &= dev2 <= 1e-10
    details.append(f"two-node {dev2:.1e}")

    t = make_teleport(gc, CITATION_WEIGHTED)
    r0 = weighted_pagerank(gc, t, PageRankConfig(damping=0.0))
    dev0 = float(np.max(np.abs(r0.scores - t)))
    ok &= dev0 == 0.0
    details.append(f"d=0 {dev0:.1e}")
    report("analytic fixtures (cycle, two-node, d=0)", ok, "; ".join(details))


def test_03_uniform_teleport_reduction():
    worst = 0.0
    for seed in range(1, 51):
        g = graph_from_matrix(*random_graph_corpus(seed))
        for d in DAMPINGS:
            cfg = PageRankConfig(damping=d)
            orig = pagerank(g, cfg)
            red = weighted_pagerank(g, make_teleport(g, UNIFORM), cfg)
            worst = max(worst, float(np.max(np.abs(orig.scores - red.scores))))
    report("uniform-teleport weighted PageRank equals original",
           worst < 1e-12, f"max deviation {worst:.2e}")


def _distinct_citation_graphs():
    # graphs whose in-weight sums are all distinct, so the popularity
    # ranking has no ties and the vanishing-damping limit is unambiguous
    for n in (8, 12, 20):
        upper = np.triu(np.ones((n, n), dtype=np.int64), k=1)  # col sums 0..n-1
        yield graph_from_matrix(upper)
        scaled = np.triu(np.arange(1, n + 1)[None, :] * np.ones((n, n), np.int64), 1)
        yield graph_from_matrix(scaled)


def test_04_citation_teleport_limit_law():
    exact_ok = True
    for g in _distinct_citation_graphs():
        res = weighted_pagerank(g, make_teleport(g, CITATION_WEIGHTED),
                                PageRankConfig(damping=1e-6))
        pop = popularity_scores(g)
        r, _ = spearman(pop.values, res.scores)
        same_ties = np.array_equal(average_ranks(-res.scores), average_ranks(-pop.values))
        exact_ok &= (r == 1.0) and same_ties

    wins = 0
    margins = []
    for seed in range(1, 21):
        corpus = generate_synthetic(seed=seed, n_papers=5000, n_authors=1500)
        g = build_graph(corpus)
        pop = popularity_scores(g).values
        cfg = PageRankConfig(damping=0.15)
        cit = weighted_pagerank(g, make_teleport(g, CITATION_WEIGHTED), cfg).scores
        uni = pagerank(g, cfg).scores
        r_cit, _ = spearman(pop, cit)
        r_uni, _ = spearman(pop, uni)
        wins += int(r_cit > r_uni)
        margins.append(r_cit - r_uni)
    report("citation-teleport limit law and popularity affinity",
           exact_ok and wins >= 18,
           f"exact r=1 at d=1e-6: {exact_ok}; d=0.15 wins {wins}/20, "
           f"median margin {np.median(margins):+.4f}")


def test_05_mass_conservation():
    worst = 0.0
    for seed in range(1, 51):
        g = graph_from_matrix(*random_graph_corpus(seed))
        for d, kind in itertools.product(DAMPINGS, KINDS):
            res = weighted_pagerank(g, make_teleport(g, kind), PageRankConfig(damping=d))
            worst = max(worst, abs(float(res.scores.sum()) - 1.0))
    report("score mass sums to one across the test matrix",
           worst < 1e-9, f"max |sum-1| {worst:.2e}")


def test_06_spearman_correctness():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 40))
        xp = rng.permutation(n) + 1.0
        yp = rng.permutation(n) + 1.0
        r, _ = spearman(xp, yp)
        worst = max(worst, abs(r - spearman_closed_form(xp, yp)))

    worst_p = 0.0
    checked = 0
    for n in (7, 8):
        for seed in range(40):
            rng_p = np.random.default_rng(seed)
            xp = rng_p.permutation(n) + 1.0
            yp = rng_p.permutation(n) + 1.0
            r, p = spearman(xp, yp)
            if abs(r) == 1.0:
                continue
            worst_p = max(worst_p, abs(p - exact_spearman_pvalue(xp, yp)))
            checked += 1
    report("spearman closed form and exact p-value",
           worst < 1e-12 and worst_p < 0.02 and checked >= 50,
           f"closed-form dev {worst:.1e}; p dev {worst_p:.4f} over {checked} cases")


def test_07_pca_correctness():
    rng = np.random.default_rng(3)
    c = np.corrcoef(rng.normal(size=(60, 6)), rowvar=False)
    vals, vecs = eigh_descending(c)
    resid = max(float(np.max(np.abs(c @ vecs[:, i] - vals[i] * vecs[:, i])))
                for i in range(6))
    trace_dev = abs(float(vals.sum()) - 6.0)

    # two-block fixture: two perfectly correlated pairs of rank columns
    # with exactly zero correlation across the pairs
    a = np.arange(1, 101, dtype=float)
    b = np.array(ZERO_CORR_PERM, dtype=float)
    authors = [f"A{i:03d}" for i in range(100)]
    svs = [ScoreVector(name, authors, col)
           for name, col in (("m1", -a), ("m2", -a), ("m3", -b), ("m4", -b))]
    res = pca_varimax(IndicatorTable.from_scores(svs, range(100)))
    frac = float(np.sum(res.explained_variance_fractions[: res.n_retained]))
    comm_dev = float(np.max(np.abs(
        res.communalities - (res.loadings ** 2).sum(axis=1))))
    crit_nondec = all(later >= earlier - 1e-12 for earlier, later in
                      zip(res.criterion_history, res.criterion_history[1:]))
    ok = (resid < 1e-10 and trace_dev < 1e-8 and res.n_retained == 2
          and abs(frac - 1.0) < 1e-8 and comm_dev < 1e-8 and crit_nondec)
    report("pca eigensolver, varimax invariants, two-block recovery", ok,
           f"resid {resid:.1e}, trace dev {trace_dev:.1e}, k={res.n_retained}, "
           f"explained {frac:.10f}, communality dev {comm_dev:.1e}")


def test_08_indicator_laws():
    ok = True
    for seed in (1, 5, 9):
        corpus = generate_synthetic(seed=seed, n_papers=600, n_authors=200)
        g = build_graph(corpus)
        pop = popularity_scores(g)
        counts = internal_citation_counts(corpus)
        hc = highly_cited_papers(counts, top_fraction=0.1)
        pres = prestige_scores(g, hc)
        ok &= bool(np.all(pres.values <= pop.values))
        all_ids = np.ones(len(corpus), dtype=bool)
        pres_all = prestige_scores(g, all_ids)
        ok &= np.array_equal(pres_all.values, pop.values)
        for sv in (pop, pres):
            ranks = average_ranks(-sv.values)
            n = len(ranks)
            ok &= abs(sum(ranks) - n * (n + 1) / 2) < 1e-9

    h_corpus = corpus_of([paper(f"p{i}", "H TEST", year=1990 + i) for i in range(5)])
    counts = np.array([10, 8, 5, 4, 3])
    h_graph = build_graph(h_corpus)
    h = h_index_scores(h_graph, counts)
    ok &= h.values[h_graph.authors.index("H TEST")] == 4
    report("indicator laws", ok,
           "prestige<=popularity; equality under all-highly-cited; "
           "rank sums; h {10,8,5,4,3} -> 4")


def test_09_coverage():
    authors = [f"A{i:03d}" for i in range(1, 101)]
    scores = ScoreVector("ind", authors, [1000.0 - i for i in range(len(authors))])
    ks = (5, 10, 20, 50)
    res = coverage([scores], load_winners(["A002", "A008", "A030"]), ks=ks)
    fixture = tuple(res.counts[("ind", k)] for k in ks)

    rng = np.random.default_rng(11)
    monotone_ok = True
    for _ in range(100):
        picks = rng.choice(authors, size=int(rng.integers(1, 15)), replace=False)
        cr = coverage([scores], load_winners(list(picks)), ks=ks)
        counts = [cr.counts[("ind", k)] for k in ks]
        monotone_ok &= all(c2 >= c1 for c1, c2 in zip(counts, counts[1:]))
    report("prize-winner coverage fixture and monotonicity",
           fixture == (1, 2, 2, 3) and monotone_ok,
           f"counts {fixture}; 100 random winner sets monotone")


def test_10_end_to_end_scale(tmp_path):
    cfg = RunConfig(seed=17, n_papers=10_000, n_authors=100_000, skew=8.0,
                    outdir=str(tmp_path / "run1"))
    start = time.perf_counter()
    manifest1 = run_pipeline(cfg)
    elapsed = time.perf_counter() - start

    n_nodes = sum(info["graph"]["n_nodes"] for info in manifest1["phases"].values()
                  if "graph" in info)
    tables = sorted(Path(cfg.outdir).glob("table_*.tsv"))
    cols = len(tables[0].read_text().splitlines()[0].split("\t")) - 1

    cfg2 = RunConfig(seed=17, n_papers=10_000, n_authors=100_000, skew=8.0,
                     outdir=str(tmp_path / "run2"))
    run_pipeline(cfg2)
    f1 = {p.name: p.read_bytes() for p in sorted(Path(cfg.outdir).iterdir())
          if p.name != "manifest.json"}
    f2 = {p.name: p.read_bytes() for p in sorted(Path(cfg2.outdir).iterdir())
          if p.name != "manifest.json"}
    m1 = json.loads((Path(cfg.outdir) / "manifest.json").read_text())
    m2 = json.loads((Path(cfg2.outdir) / "manifest.json").read_text())
    identical = f1 == f2 and m1["files"] == m2["files"]

    report("end-to-end scale, 13 columns, byte-identical rerun",
           elapsed < 60.0 and cols == 13 and identical and n_nodes > 20_000,
           f"{elapsed:.1f}s, {cols} indicator columns, {n_nodes} authors "
           f"across phases")
