"""End-to-end pipeline: configuration, stage functions, and output files.

All artifacts are plain text tables with header rows so every stage can be
inspected or rerun independently; reruns with identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np
import scipy

from bibliorank import __version__
from bibliorank import corpus as corpus_mod
from bibliorank import indicators as ind_mod
from bibliorank import network as net_mod
from bibliorank import pagerank as pr_mod
from bibliorank import stats as stats_mod
from bibliorank.errors import ConfigError, NonConvergenceError
from bibliorank.evaluation import CoverageResult, WinnerList, coverage, load_winners

DEFAULT_DAMPINGS = (0.15, 0.5, 0.85)
DEFAULT_TELEPORTS = (pr_mod.UNIFORM, pr_mod.CITATION_WEIGHTED, pr_mod.PUBLICATION_WEIGHTED)

_TELEPORT_TAGS = {
    pr_mod.UNIFORM: "pagerank",
    pr_mod.CITATION_WEIGHTED: "pagerank_cit",
    pr_mod.PUBLICATION_WEIGHTED: "pagerank_pub",
}


def pagerank_label(kind: str, damping: float) -> str:
    return f"{_TELEPORT_TAGS[kind]}_d{damping:g}"


@dataclass
class RunConfig:
    """Declarative pipeline configuration; unknown keys are rejected."""

    corpus: str | None = None
    outdir: str = "out"
    phases: tuple[corpus_mod.Phase, ...] = corpus_mod.DEFAULT_PHASES
    dampings: tuple[float, ...] = DEFAULT_DAMPINGS
    teleports: tuple[str, ...] = DEFAULT_TELEPORTS
    prestige_mode: str = "top_fraction"  # or "min_citations"
    prestige_value: float = 0.10
    subset_size: int = 100
    pca_retention: str = "kaiser"  # or "fixed"
    pca_fixed_k: int | None = None
    loading_cutoff: float = 0.4
    if_table: str | None = None
    winners: str | None = None
    coverage_ks: tuple[int, ...] = (5, 10, 20, 50)
    allow_self_citation: bool = True
    tolerance: float = 1e-12
    max_iterations: int = 1000
    dangling_policy: str = "teleport"
    strict: bool = False
    # synthetic mode (used when corpus is not set)
    seed: int | None = None
    n_papers: int = 1000
    n_authors: int = 2000
    skew: float = 1.0

    def validate(self) -> None:
        if self.corpus is None and self.seed is None:
            raise ConfigError("either a corpus path or a synthetic seed is required")
        if self.corpus is None:
            if self.n_papers < 1 or self.n_authors < 1:
                raise ConfigError("n_papers and n_authors must be >= 1")
            if self.skew <= 0:
                raise ConfigError("skew must be positive")
        # Disjointness (and lo <= hi) checked by split_phases/Phase.
        corpus_mod.split_phases(corpus_mod.Corpus(), self.phases)
        for d in self.dampings:
            self.pagerank_config(d)  # checks damping, tolerance, iterations, policy
        for kind in self.teleports:
            if kind not in _TELEPORT_TAGS:
                raise ConfigError(f"unknown teleport kind {kind!r}")
        if self.prestige_mode not in ("top_fraction", "min_citations"):
            raise ConfigError(f"unknown prestige mode {self.prestige_mode!r}")
        if self.prestige_mode == "top_fraction" and not (0.0 < self.prestige_value <= 1.0):
            raise ConfigError("prestige top_fraction must be in (0, 1]")
        if self.prestige_mode == "min_citations" and self.prestige_value < 1:
            raise ConfigError("prestige min_citations must be >= 1")
        if self.subset_size < 3:
            raise ConfigError("subset_size must be >= 3")
        if self.pca_retention not in ("kaiser", "fixed"):
            raise ConfigError(f"unknown pca retention {self.pca_retention!r}")
        if self.pca_retention == "fixed" and (self.pca_fixed_k is None or self.pca_fixed_k < 1):
            raise ConfigError("fixed pca retention needs pca_fixed_k >= 1")
        if list(self.coverage_ks) != sorted(self.coverage_ks):
            raise ConfigError("coverage_ks must be ascending")
        if not self.coverage_ks or self.coverage_ks[0] < 1:
            raise ConfigError("coverage_ks must be integers >= 1")

    def pagerank_config(self, damping: float) -> pr_mod.PageRankConfig:
        return pr_mod.PageRankConfig(
            damping=damping,
            tolerance=self.tolerance,
            max_iterations=self.max_iterations,
            dangling_policy=self.dangling_policy,
        )

    def canonical(self) -> dict:
        d = asdict(self)
        d["phases"] = [[p.label, p.year_lo, p.year_hi] for p in self.phases]
        return d

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CONFIG_KEYS = {
    "corpus", "outdir", "phases", "dampings", "teleports", "prestige",
    "subset_size", "pca_retention", "loading_cutoff", "if_table", "winners",
    "coverage_ks", "allow_self_citation", "tolerance", "max_iterations",
    "dangling_policy", "strict", "seed", "n_papers", "n_authors", "skew",
}


def parse_phases(text: str) -> tuple[corpus_mod.Phase, ...]:
    """`label:lo-hi;...` (a bare `lo-hi` is its own label) -> phases."""
    phases = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        label, span = piece.split(":", 1) if ":" in piece else (piece, piece)
        try:
            lo, hi = span.split("-")
            phases.append(corpus_mod.Phase(label.strip(), int(lo), int(hi)))
        except ValueError:
            raise ConfigError(f"invalid phases entry {piece!r}: expected [label:]lo-hi") from None
    if not phases:
        raise ConfigError(f"no phases in {text!r}")
    return tuple(phases)


def parse_prestige(text: str) -> tuple[str, float]:
    """`top_fraction:F` or `min_citations:M` -> (mode, value)."""
    mode, _, raw = text.partition(":")
    mode = mode.strip()
    try:
        if mode == "top_fraction":
            return mode, float(raw)
        if mode == "min_citations":
            return mode, int(raw)
    except ValueError:
        pass
    raise ConfigError(f"invalid prestige spec {text!r}")


def parse_retention(text: str) -> tuple[str, int | None]:
    """`kaiser` or `fixed:K` -> (retention, fixed_k)."""
    mode, _, raw = text.partition(":")
    mode = mode.strip()
    try:
        if mode == "kaiser":
            return mode, None
        if mode == "fixed":
            return mode, int(raw)
    except ValueError:
        pass
    raise ConfigError(f"invalid pca_retention {text!r}: expected kaiser or fixed:K")


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"invalid boolean {text!r}")


def apply_config_entry(cfg: RunConfig, key: str, value: str) -> None:
    """Set one `key = value` config entry (file line or CLI override)."""
    key = key.strip()
    value = value.strip()
    if key not in _CONFIG_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        if key == "phases":
            cfg.phases = parse_phases(value)
        elif key == "dampings":
            cfg.dampings = tuple(float(x) for x in value.split(","))
        elif key == "teleports":
            cfg.teleports = tuple(x.strip() for x in value.split(","))
        elif key == "prestige":
            cfg.prestige_mode, cfg.prestige_value = parse_prestige(value)
        elif key == "pca_retention":
            cfg.pca_retention, cfg.pca_fixed_k = parse_retention(value)
        elif key == "coverage_ks":
            cfg.coverage_ks = tuple(int(x) for x in value.split(","))
        elif key in ("subset_size", "max_iterations", "n_papers", "n_authors"):
            setattr(cfg, key, int(value))
        elif key == "seed":
            cfg.seed = int(value)
        elif key in ("loading_cutoff", "tolerance", "skew"):
            setattr(cfg, key, float(value))
        elif key in ("allow_self_citation", "strict"):
            setattr(cfg, key, _parse_bool(value))
        else:  # corpus, outdir, if_table, winners, dangling_policy
            setattr(cfg, key, value)
    except ValueError as exc:
        raise ConfigError(f"invalid value {value!r} for config key {key!r}: {exc}") from None


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a key = value config file, if given, then apply CLI overrides."""
    cfg = RunConfig()
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, value = line.split("=", 1)
                apply_config_entry(cfg, key, value)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, value = item.split("=", 1)
        apply_config_entry(cfg, key, value)
    cfg.validate()
    return cfg


def generate_impact_factors(c: corpus_mod.Corpus, seed: int) -> ind_mod.ImpactFactorTable:
    """Deterministic synthetic impact factors covering all citing (venue, year)."""
    pairs = sorted({(p.source, p.year) for p in c.papers})
    rng = np.random.default_rng([seed, 7919])
    factors = {
        pair: round(0.2 + 6.0 * float(rng.random()), 3) for pair in pairs
    }
    return ind_mod.ImpactFactorTable(factors)


def dump_impact_factors(table: ind_mod.ImpactFactorTable, stream) -> None:
    for (venue, year), impact in sorted(table.factors.items()):
        stream.write(f"{venue}\t{year}\t{impact:g}\n")


class OutputTracker:
    """Records files created by a run so failures can clean them up."""

    def __init__(self, outdir: Path):
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.created: list[Path] = []

    def open(self, name: str):
        path = self.outdir / name
        self.created.append(path)
        return open(path, "w", encoding="utf-8", newline="\n")

    def cleanup(self) -> None:
        for path in self.created:
            try:
                path.unlink()
            except FileNotFoundError:
                pass


def write_correlation(cm: stats_mod.CorrelationMatrix, stream) -> None:
    stream.write("indicator\t" + "\t".join(cm.labels) + "\n")
    for i, label in enumerate(cm.labels):
        cells = []
        for j in range(len(cm.labels)):
            if j == i:
                cells.append("1.000")
            else:
                cells.append(f"{cm.r[i, j]:.3f}{cm.flags[i][j]}")
        stream.write(label + "\t" + "\t".join(cells) + "\n")


def write_pca(res: stats_mod.PcaResult, stream_loadings, stream_components) -> None:
    k = res.n_retained
    header = ["variable"] + [f"component_{j + 1}" for j in range(k)] + ["communality", "salient"]
    stream_loadings.write("\t".join(header) + "\n")
    for i, label in enumerate(res.labels):
        row = [label]
        salient = []
        for j in range(k):
            val = res.rotated_loadings[i, j]
            row.append(f"{val:.6f}")
            if abs(val) > res.loading_cutoff:
                salient.append(str(j + 1))
        row.append(f"{res.communalities[i]:.6f}")
        row.append(",".join(salient) if salient else "-")
        stream_loadings.write("\t".join(row) + "\n")

    stream_components.write("component\teigenvalue\texplained_fraction\tretained\n")
    for j, lam in enumerate(res.eigenvalues):
        retained = "yes" if j < k else "no"
        stream_components.write(
            f"{j + 1}\t{lam:.6f}\t{res.explained_variance_fractions[j]:.6f}\t{retained}\n"
        )


def write_table(table: stats_mod.IndicatorTable, stream) -> None:
    stream.write("author\t" + "\t".join(table.indicators) + "\n")
    for i, author in enumerate(table.authors):
        cells = "\t".join(f"{v:.17g}" for v in table.ranks[i])
        stream.write(f"{author}\t{cells}\n")


def write_coverage(res: CoverageResult, stream) -> None:
    stream.write("indicator," + ",".join(f"top@{k}" for k in res.ks) + "\n")
    for name in res.indicators:
        cells = ",".join(str(res.counts[(name, k)]) for k in res.ks)
        stream.write(f"{name},{cells}\n")


def phase_tag(label: str) -> str:
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def classical_indicators(
    corpus, graph, prestige: tuple[str, float], if_table=None
) -> tuple[list[ind_mod.ScoreVector], dict]:
    """Popularity, prestige, h-index and, given a table, impact-factor scores.

    ``graph`` is ``build_graph(corpus)``; the indicators are reductions over
    its reference table.  ``prestige`` is a (mode, value) pair from
    ``parse_prestige``.  Returns the score vectors in that order, over the
    graph's authors, and diagnostics.
    """
    counts = ind_mod.internal_citation_counts(corpus)
    mode, value = prestige
    if mode == "top_fraction":
        hc = ind_mod.highly_cited_papers(counts, top_fraction=value)
    else:
        hc = ind_mod.highly_cited_papers(counts, min_citations=int(value))
    diagnostics = {"highly_cited_papers": int(np.count_nonzero(hc))}
    scores = [
        ind_mod.popularity_scores(graph),
        ind_mod.prestige_scores(graph, hc),
        ind_mod.h_index_scores(graph, counts),
    ]
    if if_table is not None:
        ifs, misses = ind_mod.if_scores(graph, corpus, if_table)
        diagnostics["impact_factor_misses"] = misses
        scores.append(ifs)
    return scores, diagnostics


def compute_phase_indicators(cfg: RunConfig, phase_corpus, graph, if_table=None):
    """All 13 score vectors (paper-order labels) for one phase graph.

    Returns (ordered score vectors over the graph's author set, PageRank
    results by label, diagnostics).
    """
    classical, diagnostics = classical_indicators(
        phase_corpus, graph, (cfg.prestige_mode, cfg.prestige_value), if_table
    )
    pagerank_scores = []
    pr_results = {}
    for kind in cfg.teleports:
        teleport = pr_mod.make_teleport(graph, kind)
        for d in cfg.dampings:
            result = pr_mod.weighted_pagerank(graph, teleport, cfg.pagerank_config(d))
            label = pagerank_label(kind, d)
            pr_results[label] = result
            diagnostics[label] = {
                "iterations": result.iterations,
                "final_residual": result.final_residual,
                "error_bound": result.error_bound,
                "converged": result.converged,
            }
            pagerank_scores.append(ind_mod.ScoreVector(label, graph.authors, result.scores))

    scores = classical[:2] + pagerank_scores + classical[2:]
    return scores, pr_results, diagnostics


def run_pipeline(cfg: RunConfig) -> dict:
    """Run the full pipeline; returns the manifest dict.

    Raises on any stage failure after removing partial outputs.
    """
    cfg.validate()
    tracker = OutputTracker(Path(cfg.outdir))
    try:
        manifest = _run_pipeline_inner(cfg, tracker)
    except Exception:
        tracker.cleanup()
        raise
    return manifest


def _run_pipeline_inner(cfg: RunConfig, tracker: OutputTracker) -> dict:
    if cfg.corpus is not None:
        with open(cfg.corpus, encoding="utf-8") as fh:
            full = corpus_mod.parse_corpus(fh, provenance=cfg.corpus)
    else:
        full = corpus_mod.generate_synthetic(
            seed=cfg.seed, n_papers=cfg.n_papers, n_authors=cfg.n_authors, skew=cfg.skew
        )

    winners = None
    if cfg.winners is not None:
        with open(cfg.winners, encoding="utf-8") as fh:
            winners = load_winners(fh, provenance=cfg.winners)

    if cfg.if_table is not None:
        with open(cfg.if_table, encoding="utf-8") as fh:
            if_table = ind_mod.load_impact_factors(fh)
    elif cfg.corpus is None:
        # synthetic mode: fabricate a deterministic table so all indicator
        # columns are present
        if_table = generate_impact_factors(full, cfg.seed)
        with tracker.open("impact_factors.tsv") as fh:
            dump_impact_factors(if_table, fh)
    else:
        if_table = None

    phase_corpora, dropped = corpus_mod.split_phases(full, cfg.phases)

    manifest: dict = {
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(),
        "versions": {
            "bibliorank": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "input_papers": len(full),
        "dropped_outside_phases": dropped,
        "phases": {},
    }

    for phase, phase_corpus in zip(cfg.phases, phase_corpora):
        tag = phase_tag(phase.label)
        info: dict = {"papers": len(phase_corpus)}
        filtered, removed = corpus_mod.filter_with_references(phase_corpus)
        info["papers_without_references"] = removed
        info["papers_used"] = len(filtered)
        if not filtered.papers:
            info["skipped"] = "no papers with references"
            manifest["phases"][phase.label] = info
            continue

        with tracker.open(f"corpus_{tag}.jsonl") as fh:
            corpus_mod.serialize_corpus(filtered, fh)

        graph = net_mod.build_graph(filtered, allow_self_citation=cfg.allow_self_citation)
        gstats = net_mod.graph_stats(graph)
        info["graph"] = asdict(gstats)
        with tracker.open(f"edges_{tag}.tsv") as fh:
            net_mod.dump_edges(graph, fh)
        with tracker.open(f"nodes_{tag}.tsv") as fh:
            net_mod.dump_nodes(graph, fh)

        scores, pr_results, diagnostics = compute_phase_indicators(
            cfg, filtered, graph, if_table=if_table
        )
        info["diagnostics"] = diagnostics
        if cfg.strict:
            stalled = [name for name, r in pr_results.items() if not r.converged]
            if stalled:
                raise NonConvergenceError(
                    f"power iteration did not converge: {', '.join(stalled)}"
                )

        for sv in scores:
            with tracker.open(f"indicator_{tag}_{sv.name}.tsv") as fh:
                ind_mod.dump_indicator(sv, fh)

        pop = scores[0]
        subset_size = min(cfg.subset_size, graph.n_nodes)
        subset, _ = ind_mod.top_k(pop, subset_size)
        table = stats_mod.IndicatorTable.from_scores(scores, subset)
        with tracker.open(f"table_{tag}.tsv") as fh:
            write_table(table, fh)

        try:
            cm = stats_mod.correlation_matrix(table)
            with tracker.open(f"correlation_{tag}.tsv") as fh:
                write_correlation(cm, fh)
            pca = stats_mod.pca_varimax(
                table,
                retention=cfg.pca_retention,
                fixed_k=cfg.pca_fixed_k,
                loading_cutoff=cfg.loading_cutoff,
            )
            with tracker.open(f"pca_{tag}.tsv") as fl, \
                    tracker.open(f"pca_components_{tag}.tsv") as fc:
                write_pca(pca, fl, fc)
            info["pca_retained"] = pca.n_retained
            info["pca_explained"] = float(
                np.sum(pca.explained_variance_fractions[: pca.n_retained])
            )
        except stats_mod.StatsError as exc:
            # Degenerate subset (constant column, too few authors): record
            # and move on rather than abort the whole run.
            info["stats_skipped"] = str(exc)

        if winners is not None:
            cov = coverage(scores, winners, ks=cfg.coverage_ks)
            with tracker.open(f"coverage_{tag}.csv") as fh:
                write_coverage(cov, fh)
            info["winners_missing"] = cov.missing_winners

        manifest["phases"][phase.label] = info

    file_hashes = {}
    for path in sorted(tracker.created):
        file_hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    manifest["files"] = file_hashes

    manifest_path = Path(cfg.outdir) / "manifest.json"
    tracker.created.append(manifest_path)
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest
