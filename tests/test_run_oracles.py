"""A whole pipeline run recomputed from its input corpus by the loop oracles.

Each case runs ``run_pipeline`` on a small corpus file, splits that file
into phases itself with ``parse_corpus_loop``, and checks every phase of
the run directory against ``tests/oracles.py``: the manifest counts, the
classical indicator files exactly, each PageRank file within its
manifest ``error_bound`` of ``dense_pagerank``, the rank table, the
Spearman matrix as printed, the winner coverage, and the PCA numbers that
do not depend on the rotation.  The layer tests check each function alone;
this checks how the pipeline composes them: which phase feeds which
graph, the table's column order and author subset, and where the
self-citation setting reaches.
"""

import io
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sp_stats

from bibliorank import corpus as corpus_mod
from bibliorank.evaluation import coverage
from bibliorank.pipeline import RunConfig, default_of, parse_phases, phase_tag, run_pipeline
from tests import oracles

# a gap (1976-1979) drops papers, and no paper falls in the last phase
PHASES = "early:1956-1975;mid:1980-1995;late:1996-2008;none:2009-2020"
DAMPINGS = (0.15, 0.5, 0.85)
SLACK = 1e-13  # the error of the dense solve and of float sums
# Raw spellings of authors of both corpora, and one name of neither
WINNERS = ([f"Auth, {i:06d}." for i in range(0, 50, 3)] + [f"n.{i:03d}," for i in range(0, 40, 3)]
           + ["Nobody, X."])
KS = default_of(coverage, "ks")  # the top-k sizes of the run's coverage file


def _synthetic_lines(seed):
    buf = io.StringIO()
    corpus_mod.serialize_corpus(corpus_mod.generate_synthetic(seed, 160, 50, skew=2.0), buf)
    return buf.getvalue().splitlines()


def _graph_lines(seed):
    """A corpus of the graph ``random_graph_corpus(seed)``, whose diagonal
    gives self-citations: author j writes max(1, publications) papers in
    random years, and an edge j -> i of weight k is k references of j's
    papers in turn to author i, half of them to the key of one of i's
    papers."""
    w, pubs = oracles.random_graph_corpus(seed, n_nodes_max=40)
    rng = np.random.default_rng(seed)
    papers = [[{"id": f"p{j}.{k}", "author": f"N{j:03d}", "year": int(rng.integers(1956, 2009)),
                "source": f"J {rng.integers(3)}", "volume": str(k + 1), "refs": []}
               for k in range(max(1, pubs[j]))] for j in range(len(pubs))]
    for j, i in zip(*np.nonzero(w)):
        for k in range(w[j, i]):
            cited = papers[i][k % len(papers[i])]
            key = ({name: cited[name] for name in ("author", "year", "source", "volume")}
                   if rng.random() < 0.5 else {"author": cited["author"], "year": 1950,
                                                "source": "J X"})
            papers[j][k % len(papers[j])]["refs"].append(key)
    return [json.dumps(paper) for own in papers for paper in own]


def _impact_factors(records):
    """Factors of three in four of the citing (source, year) pairs, so that
    references of the others miss."""
    pairs = sorted({(source, year) for _, _, year, source, *_ in records})
    return {pair: round(0.5 + 0.37 * i, 3) for i, pair in enumerate(pairs) if i % 4}


def _dump(authors, values) -> str:
    buf = io.StringIO()
    oracles.dump_indicator_loop(SimpleNamespace(authors=authors, values=np.asarray(values)), buf)
    return buf.getvalue()


def _tsv(rows) -> str:
    return "".join("\t".join(row) + "\n" for row in rows)


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _scores(path, authors) -> np.ndarray:
    """The scores of an indicator file, aligned to ``authors``."""
    rows = [line.split("\t") for line in _read(path).splitlines()[1:]]
    by_author = {author: float(score) for author, score, _ in rows}
    assert sorted(by_author) == authors
    return np.array([by_author[a] for a in authors])


def _check_phase(out, tag, info, records, cfg, factors, winners) -> bool:
    """Check one phase of the run in ``out`` against the oracles over its
    ``records``, the papers with references, and the author keys
    ``winners``; returns whether the phase has a correlation matrix."""
    authors, weights, publications = oracles.build_graph_loop(records, cfg.allow_self_citation)
    n = len(authors)
    w = np.zeros((n, n), dtype=np.int64)
    for (j, i), k in weights.items():
        w[j, i] = k
    received = w.sum(axis=0)

    counts = oracles.internal_citation_counts_loop(records)
    k = max(1, math.ceil(0.1 * len(records)))  # prestige = top_fraction:0.10
    threshold = max(sorted(counts.values())[-k], 1)
    highly_cited = {pid for pid, count in counts.items() if count >= threshold}
    diagnostics = info["diagnostics"]
    assert diagnostics["highly_cited_papers"] == len(highly_cited)
    assert diagnostics["unmatched_references"] == oracles.unmatched_references_loop(records)

    def aligned(by_author):
        return [by_author.get(a, 0) for a in authors]

    values = {"popularity": received.tolist(),
              "prestige": aligned(oracles.prestige_loop(records, highly_cited)),
              "h_index": aligned(oracles.h_index_loop(records, counts))}
    if factors is not None:
        if_scores, misses = oracles.if_loop(records, factors)
        values["impact_factor"] = aligned(if_scores)
        assert diagnostics["impact_factor_misses"] == misses
    for name, column in values.items():
        assert _read(out / f"indicator_{tag}_{name}.tsv") == _dump(authors, column), name

    teleports = {"pagerank": np.full(n, 1.0 / n), "pagerank_cit": received / received.sum(),
                 "pagerank_pub": np.array(publications) / sum(publications)}
    pageranks = []
    for prefix, teleport in teleports.items():
        for d in DAMPINGS:
            label = f"{prefix}_d{d:g}"
            path = out / f"indicator_{tag}_{label}.tsv"
            got = _scores(path, authors)
            error = np.abs(got - oracles.dense_pagerank(w, teleport, d)).sum()
            assert error <= diagnostics[label]["error_bound"] + SLACK, label
            assert _read(path) == _dump(authors, got), label
            values[label] = got
            pageranks.append(label)

    # the paper's column order; the subset is the top authors by popularity
    names = ["popularity", "prestige", *pageranks, "h_index"]
    names += ["impact_factor"] if factors else []
    vectors = [SimpleNamespace(name=name, authors=authors, values=np.asarray(values[name], float))
               for name in names]
    subset = oracles.top_k_names_loop(vectors[0], cfg.subset_size)
    _, ranks = oracles.table_by_names_loop(vectors, subset)
    assert _read(out / f"table_{tag}.tsv") == _tsv(
        [["author", *names], *([a, *map("{:.17g}".format, row)]
                               for a, row in zip(subset, ranks.tolist()))])

    counts, missing = oracles.coverage_by_names_loop(vectors, winners, KS)
    assert info["winners_missing"] == missing
    rows = [["indicator", *(f"top@{k}" for k in KS)],
            *([name, *(str(counts[(name, k)]) for k in KS)] for name in names)]
    assert _read(out / f"coverage_{tag}.csv") == "".join(",".join(row) + "\n" for row in rows)

    correlation = out / f"correlation_{tag}.tsv"
    if any(len(set(column)) == 1 for column in ranks.T.tolist()):
        assert "stats_skipped" in info and not correlation.exists()
        return False
    m = len(subset)
    spearman = np.array([[oracles.pearson(x, y) for y in ranks.T] for x in ranks.T])
    rows = []
    for row in spearman.tolist():
        cells = []
        for r in row:
            t = abs(r) * math.sqrt((m - 2) / (1 - r * r)) if abs(r) < 1 else math.inf
            p = 2 * sp_stats.t.sf(t, m - 2)
            cells.append(f"{r:.3f}" + ("*" if p >= 0.05 else "**" if p >= 0.01 else ""))
        rows.append(cells)
    assert _read(correlation) == _tsv(
        [["indicator", *names], *([name, *cells] for name, cells in zip(names, rows))])

    # PCA needs more authors than indicators; kaiser retention is the default
    loadings, components = out / f"pca_{tag}.tsv", out / f"pca_components_{tag}.tsv"
    if m <= len(names):
        assert "stats_skipped" in info and not loadings.exists()
        return True
    eigenvalues, eigenvectors = np.linalg.eigh(spearman)
    eigenvalues, eigenvectors = np.maximum(eigenvalues[::-1], 0.0), eigenvectors[:, ::-1]
    k = max(1, int(np.count_nonzero(eigenvalues > 1.0)))
    rows = [line.split("\t") for line in _read(components).splitlines()[1:]]
    assert [row[3] for row in rows] == ["yes"] * k + ["no"] * (len(names) - k)
    printed = np.array([[float(row[1]), float(row[2])] for row in rows])
    assert np.abs(printed - np.column_stack([eigenvalues, eigenvalues / len(names)])).max() <= 1e-6
    rows = [line.split("\t") for line in _read(loadings).splitlines()[1:]]
    assert [row[0] for row in rows] == names
    printed = np.array([float(row[1 + k]) for row in rows])  # the communality column
    assert np.abs(printed - (eigenvectors[:, :k] ** 2 * eigenvalues[:k]).sum(axis=1)).max() <= 1e-6
    return True


@pytest.mark.parametrize("allow_self_citation", [True, False])
@pytest.mark.parametrize("with_if_table", [True, False])
@pytest.mark.parametrize("lines", [_synthetic_lines, _graph_lines])
def test_run_directory_equals_loop_oracles(lines, with_if_table, allow_self_citation, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines(3)) + "\n", encoding="utf-8")
    with open(corpus, encoding="utf-8") as fh:
        records = oracles.parse_corpus_loop(fh)
    factors = _impact_factors(records) if with_if_table else None
    # a loose tolerance puts each error_bound far above the dense solve's error
    cfg = RunConfig(corpus=str(corpus), outdir=str(tmp_path / "out"),
                    phases=parse_phases(PHASES), subset_size=20, tolerance=1e-8,
                    allow_self_citation=allow_self_citation, winners=str(tmp_path / "w.txt"))
    Path(cfg.winners).write_text("".join(name + "\n" for name in WINNERS), encoding="utf-8")
    if factors is not None:
        cfg.if_table = str(tmp_path / "if.tsv")
        Path(cfg.if_table).write_text("".join(f"{source}\t{year}\t{factor!r}\n"
                                              for (source, year), factor in factors.items()))
    run_pipeline(cfg)
    manifest = json.loads(_read(tmp_path / "out" / "manifest.json"))

    winners = {oracles.normalized_loop(name, i, "author") for i, name in enumerate(WINNERS)}
    phases = cfg.phases
    in_phase = [[r for r in records if p.year_lo <= r[2] <= p.year_hi] for p in phases]
    assert manifest["input_papers"] == len(records)
    assert manifest["dropped_outside_phases"] == len(records) - sum(map(len, in_phase)) > 0
    assert manifest["phases"].keys() == {p.label for p in phases}
    correlated = 0
    for phase, phase_records in zip(phases, in_phase):
        info = manifest["phases"][phase.label]
        used = [r for r in phase_records if r[-1]]
        assert (info["papers"], info["papers_without_references"], info["papers_used"]) == (
            len(phase_records), len(phase_records) - len(used), len(used))
        if not used:
            assert info["skipped"] == "no papers with references"
            continue
        assert info["references"] == sum(len(r[-1]) for r in used)
        correlated += _check_phase(tmp_path / "out", phase_tag(phase.label), info, used, cfg,
                                   factors, winners)
    assert correlated >= 2
    assert manifest["phases"]["none"]["papers"] == 0
