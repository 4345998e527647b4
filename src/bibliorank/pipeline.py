"""End-to-end pipeline: configuration, stage functions, and output files.

Every artifact is UTF-8 text, so each stage can be inspected or rerun
independently: JSON lines (`corpus_`), JSON (`manifest.json`), CSV
(`coverage_`) or TSV with a header row, but for the headerless `edges_`,
`nodes_` and `impact_factors.tsv`.  Reruns with identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import itertools
import json
import os
import platform
import shutil
from dataclasses import dataclass, asdict
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
import scipy

from bibliorank import __version__
from bibliorank import corpus as corpus_mod
from bibliorank import indicators as ind_mod
from bibliorank import network as net_mod
from bibliorank import pagerank as pr_mod
from bibliorank import stats as stats_mod
from bibliorank.errors import BiblioRankError, ConfigError, NonConvergenceError
from bibliorank.evaluation import CoverageResult, coverage, load_winners

INPUT_FILES = ("corpus", "if_table", "winners")  # RunConfig keys naming input files


def file_sha256(path) -> str:
    """sha256 of a file's content, read in blocks."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def default_of(fn, name: str):
    """The default value of parameter ``name`` of ``fn``."""
    return inspect.signature(fn).parameters[name].default


@dataclass
class RunConfig:
    """Declarative pipeline configuration; unknown keys are rejected.

    A setting that the code using it gives a default takes that default,
    and ``validate`` checks each setting with that code's own check.
    """

    corpus: str | None = None
    outdir: str = "out"
    phases: tuple[corpus_mod.Phase, ...] = corpus_mod.DEFAULT_PHASES
    dampings: tuple[float, ...] = (0.15, 0.5, 0.85)
    subset_size: int = 100
    if_table: str | None = None
    winners: str | None = None
    allow_self_citation: bool = True
    # synthetic mode (used when corpus is not set)
    seed: int | None = None
    n_papers: int = 1000
    n_authors: int = 2000
    skew: float = default_of(corpus_mod.generate_synthetic, "skew")

    def validate(self) -> None:
        if self.corpus is None and self.seed is None:
            raise ConfigError("either a corpus path or a synthetic seed is required")
        # The manifest records the synthetic settings in corpus mode too.
        corpus_mod.check_synthetic(self.seed or 0, self.n_papers, self.n_authors, self.skew)
        check_phases(self.phases)
        self.pagerank_configs()
        stats_mod.check_subset_size(self.subset_size, self.indicator_count())

    def indicator_count(self) -> int:
        """The indicator columns of each phase's rank table: one per PageRank
        variant, popularity, prestige, h-index, and impact factor when an IF
        table is given or the corpus is synthetic."""
        has_impact_factor = self.if_table is not None or self.corpus is None
        return len(pr_mod.TELEPORTS) * len(self.dampings) + 3 + has_impact_factor

    def pagerank_configs(self) -> list[pr_mod.PageRankConfig]:
        """The solve settings at each damping, checked with the variant
        labels, which name score files and must differ: two dampings can
        print alike (0.5 and 0.5000001 are both `d0.5`, 0 and -0 both `d0`)."""
        configs = [pr_mod.PageRankConfig(d) for d in self.dampings]
        labels = [pr_mod.variant_label(pr_mod.UNIFORM, c.damping) for c in configs]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"dampings give two PageRank variants the label {label!r}")
        return configs

    def canonical(self) -> dict:
        d = asdict(self)
        d["phases"] = [[p.label, p.year_lo, p.year_hi] for p in self.phases]
        return d

    def input_digests(self) -> dict[str, str]:
        """sha256 of the content of each input file that is set, by key."""
        paths = {key: getattr(self, key) for key in INPUT_FILES}
        return {key: file_sha256(path) for key, path in paths.items() if path is not None}

    def config_hash(self, inputs: dict[str, str] | None = None) -> str:
        """sha256 of the settings, with the ``inputs`` digests in place of
        the input paths, and without ``outdir``."""
        settings = self.canonical()
        for key in ("outdir", *INPUT_FILES):
            del settings[key]
        settings["inputs"] = self.input_digests() if inputs is None else inputs
        blob = json.dumps(settings, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def parse_phases(text: str) -> tuple[corpus_mod.Phase, ...]:
    """`label:lo-hi;...` (a bare `lo-hi` is its own label) -> phases."""
    phases = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        label, span = piece.split(":", 1) if ":" in piece else (piece, piece)
        if not corpus_mod.encodes(label):  # a label is written into the manifest
            raise ConfigError(f"invalid phases entry {piece!r}: the label is not valid UTF-8")
        try:
            lo, hi = span.split("-")
            phases.append(corpus_mod.Phase(label.strip(), int(lo), int(hi)))
        except ValueError:
            raise ConfigError(f"invalid phases entry {piece!r}: expected [label:]lo-hi") from None
        except ConfigError as exc:  # year_lo > year_hi
            raise ConfigError(f"invalid phases entry {piece!r}: {exc}") from None
    if not phases:
        raise ConfigError(f"no phases in {text!r}")
    return tuple(phases)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError("expected true or false")


def _value_parser(hint):
    """The parser of a config value for a ``RunConfig`` field of type ``hint``."""
    if get_origin(hint) is tuple:  # tuple[T, ...]: comma-separated items
        parse_item = _value_parser(get_args(hint)[0])
        return lambda text: tuple(parse_item(item.strip()) for item in text.split(","))
    if hint is bool:
        return _parse_bool
    if type(None) in get_args(hint):  # T | None
        return get_args(hint)[0]
    return hint  # int, float or str


# Config keys: each sets the RunConfig field of the same name.
_FIELD_PARSERS = {
    name: parse_phases if name == "phases" else _value_parser(hint)
    for name, hint in get_type_hints(RunConfig).items()
}


def parse_setting(parse, value: str, name: str):
    """``parse`` the stripped ``value`` of the setting ``name``, a config
    key or a flag; a malformed value is a ConfigError naming it."""
    value = value.strip()
    try:
        return parse(value)
    except ValueError as exc:
        raise ConfigError(f"invalid value {value!r} for {name}: {exc}") from None


def apply_config_entry(cfg: RunConfig, key: str, value: str) -> None:
    """Set one `key = value` config entry (file line or CLI override)."""
    key = key.strip()
    if key not in _FIELD_PARSERS:
        raise ConfigError(f"unknown config key {key!r}")
    setattr(cfg, key, parse_setting(_FIELD_PARSERS[key], value, f"config key {key!r}"))


@corpus_mod.reads_input
def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Read a key = value config file, if given, then apply CLI overrides.
    A `#` first on a file line or after whitespace begins a comment
    (``corpus.read_uncommented``)."""
    entries = []  # (entry, error if it is not key=value)
    if path is not None:
        for lineno, line in corpus_mod.read_uncommented(path):
            entries.append((line, f"line {lineno}: expected key = value in {path}"))
    entries += [(item, f"override {item!r} is not key=value") for item in overrides or []]
    cfg = RunConfig()
    for entry, error in entries:
        if "=" not in entry:
            raise ConfigError(error)
        apply_config_entry(cfg, *entry.split("=", 1))
    cfg.validate()
    return cfg


def generate_impact_factors(c: corpus_mod.Corpus, seed: int) -> ind_mod.ImpactFactorTable:
    """Deterministic synthetic impact factors covering all citing (venue, year)."""
    pairs = sorted(c.source_years()[0])
    rng = np.random.default_rng([seed, 7919])
    factors = {
        pair: round(0.2 + 6.0 * float(rng.random()), 3) for pair in pairs
    }
    return ind_mod.ImpactFactorTable(factors)


def dump_impact_factors(table: ind_mod.ImpactFactorTable, stream) -> None:
    for (venue, year), impact in sorted(table.factors.items()):
        stream.write(f"{venue}\t{year}\t{impact:g}\n")


def write_correlation(labels: list[str], r: np.ndarray, p: np.ndarray, stream) -> None:
    """Write the Spearman ``r`` matrix over ``labels``, each cell flagged
    by its two-tailed ``p`` (see ``stats.significance_flag``)."""
    stream.write("indicator\t" + "\t".join(labels) + "\n")
    for i, label in enumerate(labels):
        # The diagonal is exactly 1 with p = 0, so it prints unflagged as 1.000.
        cells = [f"{rij:.3f}{stats_mod.significance_flag(pij)}" for rij, pij in zip(r[i], p[i])]
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
            if abs(val) > stats_mod.SALIENT_LOADING:
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


def tagged(stem: str, phase_label: str | None, suffix: str) -> str:
    """The file name `<stem>_<tag><suffix>` of the phase labelled
    ``phase_label``, or `<stem><suffix>` when ``phase_label`` is None."""
    return stem + ("" if phase_label is None else f"_{phase_tag(phase_label)}") + suffix


def check_phases(phases) -> None:
    """Refuse phases that overlap or that would write a file of the same
    name: their labels give the same file tag, or the `pca_components_<tag>`
    of one is the `pca_<tag>` of the other."""
    corpus_mod.check_phase_overlap(phases)
    writers: dict[str, corpus_mod.Phase] = {}
    for phase, stem in itertools.product(phases, ("pca", "pca_components")):
        name = tagged(stem, phase.label, ".tsv")
        other = writers.setdefault(name, phase)
        if other is not phase:
            raise ConfigError(f"phases {other.label!r} and {phase.label!r} would both "
                              f"write {name}")


def papers_used(corpus) -> tuple[corpus_mod.Corpus, dict]:
    """Drop the papers of ``corpus`` without references; returns the papers
    used and the manifest counts `papers`, `papers_without_references`,
    `papers_used` and, when some are used, their `references`."""
    used, removed = corpus_mod.filter_with_references(corpus)
    counts = {"papers": len(corpus), "papers_without_references": removed,
              "papers_used": len(used)}
    if len(used):
        counts["references"] = int(used.offsets[-1])
    return used, counts


def write_phase_corpora(full, phases, create) -> tuple[list, dict]:
    """Split ``full`` into ``phases``, keep each phase's ``papers_used`` and
    write ``corpus_<tag>.jsonl`` for each phase with papers left; returns
    those (phase, corpus) pairs and the manifest counts."""
    phase_corpora, dropped = corpus_mod.split_phases(full, phases)
    counts = {"input_papers": len(full), "dropped_outside_phases": dropped, "phases": {}}
    kept = []
    for phase, phase_corpus in zip(phases, phase_corpora):
        filtered, info = papers_used(phase_corpus)
        counts["phases"][phase.label] = info
        if len(filtered):
            with create(tagged("corpus", phase.label, ".jsonl")) as fh:
                corpus_mod.serialize_corpus(filtered, fh)
            kept.append((phase, filtered))
        else:
            info["skipped"] = "no papers with references"
    return kept, counts


def classical_indicators(corpus, graph, if_table=None) -> tuple[list[ind_mod.ScoreVector], dict]:
    """Popularity, prestige, h-index and, given a table, impact-factor scores.

    ``graph`` is ``build_graph(corpus)``; the indicators are reductions over
    its reference table.  Prestige counts the citations from the papers
    that ``indicators.highly_cited_papers`` selects: the top 10% of
    ``corpus`` by internal citation count.  Returns the score vectors in
    that order, over the graph's authors, and diagnostics.
    """
    counts = ind_mod.internal_citation_counts(corpus)
    hc = ind_mod.highly_cited_papers(counts)
    diagnostics = {"highly_cited_papers": int(np.count_nonzero(hc)),
                   "unmatched_references": ind_mod.unmatched_references(corpus)}
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


def pagerank_indicators(graph, configs: list[pr_mod.PageRankConfig],
                        ) -> tuple[list[ind_mod.ScoreVector], dict]:
    """Each of the ``pagerank.TELEPORTS`` kinds solved on ``graph`` at each
    config; returns the labelled score vectors and each label's diagnostics
    entry.  Solves that did not converge raise one NonConvergenceError once
    all have run, with the largest residual."""
    scores, solves = [], {}
    for kind in pr_mod.TELEPORTS:
        teleport = pr_mod.make_teleport(graph, kind)
        for config in configs:
            result = pr_mod.weighted_pagerank(graph, teleport, config)
            label = pr_mod.variant_label(kind, config.damping)
            scores.append(ind_mod.ScoreVector(label, graph.authors, result.scores))
            solves[label] = {
                "iterations": result.iterations,
                "final_residual": result.final_residual,
                "error_bound": result.error_bound,
                "unresolved_pairs": scores[-1].unresolved_pairs(result.error_bound),
                "converged": result.converged,
            }
    stalled = [label for label, entry in solves.items() if not entry["converged"]]
    if stalled:
        residual = max(solves[label]["final_residual"] for label in stalled)
        raise NonConvergenceError(
            f"power iteration did not converge: {', '.join(stalled)} "
            f"(residual up to {residual:.3g} at tolerance {pr_mod.TOLERANCE:g})")
    return scores, solves


def write_phase_scores(corpus, phase_label: str | None, allow_self_citation: bool, if_table,
                       configs: list[pr_mod.PageRankConfig], create,
                       ) -> tuple[list[ind_mod.ScoreVector], dict]:
    """The graph and scoring step of one phase, which the pipeline and the
    ``indicators`` stage share: build the author citation graph of
    ``corpus``, write it with ``create`` as `edges_<tag>.tsv` and
    `nodes_<tag>.tsv` (see ``tagged``), score it with
    ``classical_indicators`` and ``pagerank_indicators``, and write each
    score vector as `indicator_<tag>_<name>.tsv`.  A scoring error names
    the phase labelled ``phase_label``.  Returns the score vectors in the
    paper's column order (popularity, prestige, PageRank, h-index, impact
    factor) and the phase's manifest entries `graph` and `diagnostics`."""
    graph = net_mod.build_graph(corpus, allow_self_citation=allow_self_citation)
    with create(tagged("edges", phase_label, ".tsv")) as fh:
        net_mod.dump_edges(graph, fh)
    with create(tagged("nodes", phase_label, ".tsv")) as fh:
        net_mod.dump_nodes(graph, fh)
    try:
        classical, diagnostics = classical_indicators(corpus, graph, if_table)
        pagerank, solves = pagerank_indicators(graph, configs)
    except BiblioRankError as exc:
        if phase_label is not None:
            exc.args = (f"phase {phase_label!r}: {exc}",)
        raise
    scores = classical[:2] + pagerank + classical[2:]
    for sv in scores:
        with create(tagged("indicator", phase_label, f"_{sv.name}.tsv")) as fh:
            ind_mod.dump_indicator(sv, fh)
    return scores, {"graph": net_mod.graph_stats(graph),
                    "diagnostics": {**diagnostics, **solves}}


def write_phase_stats(scores: list[ind_mod.ScoreVector], phase_label: str | None,
                      subset_size: int, winners: list[str] | None, create) -> dict:
    """The comparison step of one phase, which the pipeline and the ``compare``
    stage share: write the rank table of ``scores`` over the top
    ``subset_size`` authors by the first score vector as `table_<tag>.tsv`
    (see ``tagged``), its Spearman matrix as `correlation_<tag>.tsv`, its
    PCA as `pca_<tag>.tsv` and `pca_components_<tag>.tsv` and, given
    ``winners``, the top-k ``coverage`` of ``scores`` as `coverage_<tag>.csv`.
    Returns the phase's manifest entries: `pca_retained` and `pca_explained`,
    or `stats_skipped` when the subset is degenerate, and `winners_missing`."""
    stats_mod.check_subset_size(subset_size, len(scores))
    table = stats_mod.IndicatorTable.from_scores(scores, ind_mod.top_k(scores[0], subset_size))
    entries: dict = {}
    with create(tagged("table", phase_label, ".tsv")) as fh:
        write_table(table, fh)
    try:
        r, p = table.correlations
        with create(tagged("correlation", phase_label, ".tsv")) as fh:
            write_correlation(table.indicators, r, p, fh)
        pca = stats_mod.pca_varimax(table)
        with create(tagged("pca", phase_label, ".tsv")) as fl, \
                create(tagged("pca_components", phase_label, ".tsv")) as fc:
            write_pca(pca, fl, fc)
        entries["pca_retained"] = pca.n_retained
        entries["pca_explained"] = float(np.sum(pca.explained_variance_fractions[: pca.n_retained]))
    except stats_mod.StatsError as exc:
        # Degenerate subset (constant column, too few authors): record
        # and move on rather than abort the whole run.
        entries["stats_skipped"] = str(exc)
    if winners is not None:
        cov = coverage(scores, winners)
        with create(tagged("coverage", phase_label, ".csv")) as fh:
            write_coverage(cov, fh)
        entries["winners_missing"] = cov.missing_winners
    return entries


def check_outdir(outdir: Path, command: str) -> None:
    """Refuse an ``outdir`` that is not absent, empty or a complete run of
    ``command``: a ``manifest.json`` whose ``command`` is ``command``, and
    the files its ``files`` map names."""
    if not outdir.exists():
        return
    if not outdir.is_dir():
        raise ConfigError(f"outdir {outdir} is not a directory")
    try:
        manifest = json.loads((outdir / "manifest.json").read_bytes())
        known = {"manifest.json", *manifest["files"].keys()}
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        known = set()  # no readable manifest: every entry is foreign
    else:
        owner = manifest.get("command")
        if owner != command:
            run = f"of {owner}, not of {command}" if owner else "written without a command key"
            raise ConfigError(f"outdir {outdir} holds a run {run}; choose another outdir")
    for entry in sorted(outdir.iterdir()):
        if entry.name not in known or entry.is_dir():
            raise ConfigError(f"outdir {outdir} holds {entry.name!r}, which is not part of "
                              "an earlier run; remove it or choose another outdir")


def _open_text(path):
    """Open a text file for writing: UTF-8, with `\\n` newlines."""
    return open(path, "w", encoding="utf-8", newline="\n")


def write_run(outdir: str, command: str, write) -> dict:
    """Write ``command``'s run directory through ``write(create)``; returns
    its manifest.

    ``write`` opens its inputs, writes each file with ``create(name)`` and
    returns the manifest without ``command`` and ``files``.  The files go
    into a stage beside ``outdir`` that is renamed to ``outdir`` only once
    complete, so a failed run leaves ``outdir`` as it was; it also removes
    the missing parent directories it made for the stage."""
    outdir = Path(os.path.realpath(outdir))  # a symlinked outdir is followed
    check_outdir(outdir, command)
    stage = outdir.with_name(f".{outdir.name}.{os.getpid()}.tmp")
    shutil.rmtree(stage, ignore_errors=True)  # left by a killed run with this pid
    made = list(itertools.takewhile(lambda parent: not parent.exists(), stage.parents))

    def create(name: str):
        return _open_text(stage / name)

    try:
        stage.mkdir(parents=True)
        manifest = write(create)
        manifest["command"] = command
        manifest["files"] = {path.name: file_sha256(path) for path in sorted(stage.iterdir())}
        with create("manifest.json") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        old = outdir.with_name(f".{outdir.name}.{os.getpid()}.old")
        if outdir.exists():
            outdir.rename(old)  # from here until the next rename, no outdir
        stage.rename(outdir)
        shutil.rmtree(old, ignore_errors=True)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for parent in made:  # innermost first
            with contextlib.suppress(OSError):
                parent.rmdir()
        raise
    return manifest


def run_pipeline(cfg: RunConfig) -> dict:
    """Run the full pipeline into ``cfg.outdir``; returns the manifest."""
    cfg.validate()
    return write_run(cfg.outdir, "pipeline", lambda create: _write_run(cfg, create))


def _write_run(cfg: RunConfig, create) -> dict:
    inputs = cfg.input_digests()
    if cfg.corpus is not None:
        full = corpus_mod.parse_corpus(cfg.corpus)
    else:
        full = corpus_mod.generate_synthetic(
            seed=cfg.seed, n_papers=cfg.n_papers, n_authors=cfg.n_authors, skew=cfg.skew
        )

    winners = None if cfg.winners is None else load_winners(cfg.winners)
    if cfg.if_table is not None:
        if_table = ind_mod.load_impact_factors(cfg.if_table)
    elif cfg.corpus is None:
        # synthetic mode: fabricate a deterministic table so all indicator
        # columns are present
        if_table = generate_impact_factors(full, cfg.seed)
        with create("impact_factors.tsv") as fh:
            dump_impact_factors(if_table, fh)
    else:
        if_table = None

    phase_corpora, counts = write_phase_corpora(full, cfg.phases, create)
    manifest: dict = {
        "config": cfg.canonical(),
        "config_hash": cfg.config_hash(inputs),
        "inputs": inputs,
        "versions": {
            "bibliorank": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        **counts,
    }

    configs = cfg.pagerank_configs()  # checked by validate, built once for every phase
    for phase, filtered in phase_corpora:
        info = manifest["phases"][phase.label]
        scores, entries = write_phase_scores(filtered, phase.label, cfg.allow_self_citation,
                                             if_table, configs, create)
        info.update(entries)
        info.update(write_phase_stats(scores, phase.label, cfg.subset_size, winners, create))
    return manifest
