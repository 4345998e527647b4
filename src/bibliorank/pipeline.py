"""End-to-end pipeline: configuration, stage functions, and output files.

All artifacts are plain text tables with header rows so every stage can be
inspected or rerun independently; reruns with identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import inspect
import json
import os
import platform
import shutil
import stat
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
from bibliorank.errors import ConfigError, NonConvergenceError
from bibliorank.evaluation import CoverageResult, check_ks, coverage, load_winners

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
    teleports: tuple[str, ...] = tuple(pr_mod.TELEPORTS)
    prestige: str = "top_fraction:0.10"  # or min_citations:M
    subset_size: int = 100
    pca_retention: str = default_of(stats_mod.pca_varimax, "retention")  # or fixed:K
    loading_cutoff: float = default_of(stats_mod.pca_varimax, "loading_cutoff")
    if_table: str | None = None
    winners: str | None = None
    coverage_ks: tuple[int, ...] = (5, 10, 20, 50)
    allow_self_citation: bool = True
    tolerance: float = pr_mod.PageRankConfig.tolerance
    max_iterations: int = pr_mod.PageRankConfig.max_iterations
    dangling_policy: str = pr_mod.PageRankConfig.dangling_policy
    strict: bool = False
    # synthetic mode (used when corpus is not set)
    seed: int | None = None
    n_papers: int = 1000
    n_authors: int = 2000
    skew: float = default_of(corpus_mod.generate_synthetic, "skew")

    def validate(self) -> None:
        if self.corpus is None and self.seed is None:
            raise ConfigError("either a corpus path or a synthetic seed is required")
        if self.corpus is None:
            corpus_mod.check_synthetic(self.seed, self.n_papers, self.n_authors, self.skew)
        check_phases(self.phases)
        for kind in self.teleports:
            pr_mod.check_teleport(kind)
        self.pagerank_configs()
        labels = [pr_mod.variant_label(kind, d) for kind in self.teleports for d in self.dampings]
        for label in labels:
            if labels.count(label) > 1:
                raise ConfigError(f"teleports and dampings give two PageRank variants "
                                  f"the label {label!r}")
        ind_mod.parse_prestige(self.prestige)
        stats_mod.check_subset_size(self.subset_size)
        stats_mod.parse_retention(self.pca_retention, self.indicator_count())
        stats_mod.check_cutoff(self.loading_cutoff)
        check_ks(self.coverage_ks)

    def indicator_count(self) -> int:
        """The indicator columns of each phase's rank table: one per PageRank
        variant, popularity, prestige, h-index, and impact factor when an IF
        table is given or the corpus is synthetic."""
        has_impact_factor = self.if_table is not None or self.corpus is None
        return len(self.teleports) * len(self.dampings) + 3 + has_impact_factor

    def pagerank_configs(self) -> list[pr_mod.PageRankConfig]:
        """The solve settings at each damping, checked."""
        return [pr_mod.PageRankConfig(d, self.tolerance, self.max_iterations, self.dangling_policy)
                for d in self.dampings]

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
    """Read a key = value config file, if given, then apply CLI overrides."""
    entries = []  # (entry, error if it is not key=value)
    if path is not None:
        for lineno, line in corpus_mod.read_lines(path):
            line = line.split("#", 1)[0].strip()
            if line:
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


def write_correlation(cm: stats_mod.CorrelationMatrix, stream) -> None:
    stream.write("indicator\t" + "\t".join(cm.labels) + "\n")
    for i, label in enumerate(cm.labels):
        # The diagonal is exactly 1 with p = 0, so it prints unflagged as 1.000.
        cells = [f"{r:.3f}{stats_mod.significance_flag(p)}"
                 for r, p in zip(cm.r[i], cm.p_two_tailed[i])]
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


def tagged(stem: str, phase_label: str | None, suffix: str) -> str:
    """The file name `<stem>_<tag><suffix>` of the phase labelled
    ``phase_label``, or `<stem><suffix>` when ``phase_label`` is None."""
    return stem + ("" if phase_label is None else f"_{phase_tag(phase_label)}") + suffix


def write_indicators(scores: list[ind_mod.ScoreVector], phase_label: str | None, create) -> None:
    """Write each score vector with ``create`` as `indicator_<tag>_<name>.tsv`
    of the phase labelled ``phase_label`` (see ``tagged``)."""
    for sv in scores:
        with create(tagged("indicator", phase_label, f"_{sv.name}.tsv")) as fh:
            ind_mod.dump_indicator(sv, fh)


def check_phases(phases) -> None:
    """Refuse phases that overlap or whose labels give the same file tag."""
    corpus_mod.check_phase_overlap(phases)
    by_tag: dict[str, corpus_mod.Phase] = {}
    for phase in phases:
        other = by_tag.setdefault(phase_tag(phase.label), phase)
        if other is not phase:
            raise ConfigError(f"phases {other.label!r} and {phase.label!r} would write "
                              f"the same files, tagged {phase_tag(phase.label)!r}")


def write_phase_corpora(full, phases, create) -> tuple[list, dict]:
    """Split ``full`` into ``phases``, drop papers without references and
    write ``corpus_<tag>.jsonl`` for each phase with papers left; returns
    those (phase, corpus) pairs and the manifest counts."""
    phase_corpora, dropped = corpus_mod.split_phases(full, phases)
    counts = {"input_papers": len(full), "dropped_outside_phases": dropped, "phases": {}}
    kept = []
    for phase, phase_corpus in zip(phases, phase_corpora):
        filtered, removed = corpus_mod.filter_with_references(phase_corpus)
        info = counts["phases"][phase.label] = {"papers": len(phase_corpus),
                                                "papers_without_references": removed,
                                                "papers_used": len(filtered)}
        if len(filtered):
            with create(f"corpus_{phase_tag(phase.label)}.jsonl") as fh:
                corpus_mod.serialize_corpus(filtered, fh)
            kept.append((phase, filtered))
        else:
            info["skipped"] = "no papers with references"
    return kept, counts


def classical_indicators(
    corpus, graph, prestige: str, if_table=None
) -> tuple[list[ind_mod.ScoreVector], dict]:
    """Popularity, prestige, h-index and, given a table, impact-factor scores.

    ``graph`` is ``build_graph(corpus)``; the indicators are reductions over
    its reference table.  ``prestige`` is the setting that
    ``indicators.parse_prestige`` reads.  Returns the score vectors in that
    order, over the graph's authors, and diagnostics.
    """
    counts = ind_mod.internal_citation_counts(corpus)
    hc = ind_mod.highly_cited_papers(counts, **ind_mod.parse_prestige(prestige))
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


def write_phase_graph(corpus, phase_label: str | None, allow_self_citation: bool,
                      prestige: str, if_table, create,
                      ) -> tuple[net_mod.AuthorCitationGraph, list[ind_mod.ScoreVector], dict]:
    """The graph step of one phase, which the pipeline and the ``indicators``
    stage share: build the author citation graph of ``corpus``, write it
    with ``create`` as `edges_<tag>.tsv` and `nodes_<tag>.tsv` (see
    ``tagged``), and score it with ``classical_indicators``, written by
    ``write_indicators``.  Returns the graph, the classical score vectors
    and the phase's manifest entries `graph` and `diagnostics`."""
    graph = net_mod.build_graph(corpus, allow_self_citation=allow_self_citation)
    with create(tagged("edges", phase_label, ".tsv")) as fh:
        net_mod.dump_edges(graph, fh)
    with create(tagged("nodes", phase_label, ".tsv")) as fh:
        net_mod.dump_nodes(graph, fh)
    scores, diagnostics = classical_indicators(corpus, graph, prestige, if_table)
    write_indicators(scores, phase_label, create)
    return graph, scores, {"graph": asdict(net_mod.graph_stats(graph)),
                           "diagnostics": diagnostics}


def pagerank_variants(graph, teleports, configs: list[pr_mod.PageRankConfig],
                      strict: bool) -> tuple[list[ind_mod.ScoreVector], dict]:
    """Solve each teleport kind at each config; returns the labelled score
    vectors and each label's diagnostics entry.  Under ``strict``, solves
    that did not converge raise one NonConvergenceError once all have run."""
    scores, solves = [], {}
    for kind in teleports:
        teleport = pr_mod.make_teleport(graph, kind)
        for config in configs:
            result = pr_mod.weighted_pagerank(graph, teleport, config)
            label = pr_mod.variant_label(kind, config.damping)
            solves[label] = {
                "iterations": result.iterations,
                "final_residual": result.final_residual,
                "error_bound": result.error_bound,
                "converged": result.converged,
            }
            scores.append(ind_mod.ScoreVector(label, graph.authors, result.scores))
    stalled = [label for label, entry in solves.items() if not entry["converged"]]
    if strict and stalled:
        raise NonConvergenceError(f"power iteration did not converge: {', '.join(stalled)}")
    return scores, solves


def rank_table(scores: list[ind_mod.ScoreVector], subset_size: int) -> stats_mod.IndicatorTable:
    """The rank table of the top ``subset_size`` authors by the first score vector."""
    stats_mod.check_subset_size(subset_size)
    subset = ind_mod.top_k(scores[0], subset_size)
    return stats_mod.IndicatorTable.from_scores(scores, subset)


_COUNT_KEYS = frozenset({"input_papers", "dropped_outside_phases", "phases"})
# The top-level manifest keys, besides "files", of each command's run.
# check_outdir tells runs apart by them, so no command replaces another's run.
MANIFEST_KEYS = {
    "pipeline": _COUNT_KEYS | {"config", "config_hash", "inputs", "versions"},
    "ingest": _COUNT_KEYS,
    "indicators": frozenset({"graph", "diagnostics"}),
}


def check_outdir(outdir: Path, command: str) -> None:
    """Refuse an ``outdir`` that is not absent, empty or a complete run of
    ``command``: ``manifest.json`` and the files its ``files`` map names."""
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
        keys = manifest.keys() - {"files"}
        if keys != MANIFEST_KEYS[command]:
            other = next((c for c, k in MANIFEST_KEYS.items() if k == keys), "another command")
            raise ConfigError(f"outdir {outdir} holds a run of {other}, not of {command}; "
                              "choose another outdir")
    for entry in sorted(outdir.iterdir()):
        if entry.name not in known or entry.is_dir():
            raise ConfigError(f"outdir {outdir} holds {entry.name!r}, which is not part of "
                              "an earlier run; remove it or choose another outdir")


def _open_text(path):
    """Open a text file for writing: UTF-8, with `\\n` newlines."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _replaceable(path: Path) -> bool:
    """Whether a new file renamed over ``path`` leaves nothing else changed:
    ``path`` is absent, or a regular file of this user with no other hard
    link that this user may write, in a directory this user may write."""
    try:
        st = path.stat()
    except FileNotFoundError:
        return os.access(path.parent, os.W_OK)
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()
            and os.access(path, os.W_OK) and os.access(path.parent, os.W_OK))


@contextlib.contextmanager
def open_output(path):
    """Open the output text file ``path`` for writing.  A file that can be
    replaced (``_replaceable``) is replaced whole or not at all: the text
    goes to a hidden `.<name>.<pid>.tmp` beside it, with its mode, renamed
    over it when the block exits cleanly and removed otherwise.  Any other
    target, such as /dev/null, a FIFO or a file with another hard link, is
    written in place.  A symlink is followed in either case."""
    path = Path(path).resolve()
    if not _replaceable(path):
        with _open_text(path) as fh:
            yield fh
        return
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with _open_text(tmp) as fh:
            if path.exists():
                shutil.copymode(path, tmp)
            yield fh
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def check_output_files(outputs: dict[str, str]) -> None:
    """Refuse, before any work, an output file that cannot be created (its
    directory does not exist, or it is itself a directory) or that two
    outputs name.  ``outputs`` maps each output flag of a command to its path."""
    flags: dict[Path, str] = {}
    for flag, path in outputs.items():
        if Path(path).is_dir():
            raise ConfigError(f"output file {path} is a directory")
        if not Path(path).parent.is_dir():
            raise ConfigError(f"output file {path}: no such directory")
        other = flags.setdefault(Path(path).resolve(), flag)
        if other != flag:
            raise ConfigError(f"output file {path} is named by both {other} and {flag}")


def write_run(outdir: str, command: str, write) -> dict:
    """Write ``command``'s run directory through ``write(create)``; returns
    its manifest.

    ``write`` opens its inputs, writes each file with ``create(name)`` and
    returns the manifest without ``files``.  The files go into a stage
    beside ``outdir`` that is renamed to ``outdir`` only once complete, so a
    failed run leaves ``outdir`` as it was."""
    outdir = Path(os.path.abspath(outdir))
    check_outdir(outdir, command)
    stage = outdir.with_name(f".{outdir.name}.{os.getpid()}.tmp")
    shutil.rmtree(stage, ignore_errors=True)  # left by a killed run with this pid
    stage.mkdir(parents=True)

    def create(name: str):
        return _open_text(stage / name)

    try:
        manifest = write(create)
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

    for phase, filtered in phase_corpora:
        info = manifest["phases"][phase.label]
        tag = phase_tag(phase.label)
        graph, classical, entries = write_phase_graph(
            filtered, phase.label, cfg.allow_self_citation, cfg.prestige, if_table, create)
        info.update(entries)
        pagerank_scores, solves = pagerank_variants(
            graph, cfg.teleports, cfg.pagerank_configs(), cfg.strict)
        info["diagnostics"].update(solves)
        write_indicators(pagerank_scores, phase.label, create)
        # The paper's column order: popularity, prestige, PageRank, h-index, impact factor.
        scores = classical[:2] + pagerank_scores + classical[2:]

        table = rank_table(scores, cfg.subset_size)
        with create(f"table_{tag}.tsv") as fh:
            write_table(table, fh)

        try:
            cm = stats_mod.correlation_matrix(table)
            with create(f"correlation_{tag}.tsv") as fh:
                write_correlation(cm, fh)
            pca = stats_mod.pca_varimax(table, cfg.pca_retention, cfg.loading_cutoff)
            with create(f"pca_{tag}.tsv") as fl, \
                    create(f"pca_components_{tag}.tsv") as fc:
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
            with create(f"coverage_{tag}.csv") as fh:
                write_coverage(cov, fh)
            info["winners_missing"] = cov.missing_winners
    return manifest
