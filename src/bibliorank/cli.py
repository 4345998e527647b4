"""Command-line entry points.

Subcommands: generate, ingest, rank, indicators, correlate, pca, evaluate,
pipeline.  Exit codes: 0 success, 1 usage or validation error, 2 data/input
error, 3 non-convergence under --strict; each error class carries its own.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from functools import partial
from pathlib import Path
from typing import get_args, get_type_hints

from bibliorank import corpus as corpus_mod
from bibliorank import indicators as ind_mod
from bibliorank import network as net_mod
from bibliorank import pagerank as pr_mod
from bibliorank import pipeline as pipe_mod
from bibliorank import stats as stats_mod
from bibliorank.errors import BiblioRankError, ConfigError
from bibliorank.evaluation import check_ks, coverage, load_winners


def _score_vectors(paths: list[str], labels: str | None) -> list[ind_mod.ScoreVector]:
    """Read each score file as a column labelled by its entry of the
    comma-separated ``labels``, or else by its file stem.  The labels are
    checked before any file is read: one per file, none empty or repeated,
    and each text UTF-8 can encode, since it is written into the output."""
    names = [s.strip() for s in labels.split(",")] if labels else [Path(p).stem for p in paths]
    if len(names) != len(paths):
        raise ConfigError(f"{len(names)} labels for {len(paths)} score files")
    for name in names:
        if not name:
            raise ConfigError("a score file has an empty label")
        if names.count(name) > 1:
            raise ConfigError(f"two score files have the label {name!r}")
        if not corpus_mod.encodes(name):
            raise ConfigError(f"the score file label {name!r} is not valid UTF-8")
    return list(map(ind_mod.load_indicator, paths, names))


def cmd_generate(args) -> int:
    c = corpus_mod.generate_synthetic(
        seed=args.seed,
        n_papers=args.papers,
        n_authors=args.authors,
        skew=args.skew,
        year_lo=args.year_lo,
        year_hi=args.year_hi,
    )
    table = pipe_mod.generate_impact_factors(c, args.seed) if args.if_table_out else None
    # Both outputs are renamed into place only once both are written.
    with contextlib.ExitStack() as outputs:
        corpus_mod.serialize_corpus(c, outputs.enter_context(pipe_mod.open_output(args.out)))
        if table:
            pipe_mod.dump_impact_factors(
                table, outputs.enter_context(pipe_mod.open_output(args.if_table_out)))
    print(f"wrote {len(c)} synthetic papers to {args.out}")
    if table:
        print(f"wrote {len(table.factors)} impact factors to {args.if_table_out}")
    return 0


def cmd_ingest(args) -> int:
    pipe_mod.check_phases(args.phases)

    def write(create) -> dict:
        full = corpus_mod.parse_corpus(args.corpus)
        return pipe_mod.write_phase_corpora(full, args.phases, create)[1]

    manifest = pipe_mod.write_run(args.outdir, "ingest", write)
    del manifest["files"]
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_rank(args) -> int:
    pr_mod.check_teleport(args.teleport)
    cfg = pr_mod.PageRankConfig(args.damping, args.tolerance, args.max_iterations,
                                args.dangling_policy)
    publications = None
    if args.nodes:
        publications = {a: pubs for a, (_, pubs) in net_mod.load_nodes(args.nodes).items()}
    graph = net_mod.load_edges(args.edges, publications=publications)
    [scores], solves = pipe_mod.pagerank_variants(graph, [args.teleport], [cfg], args.strict)
    solve = solves[scores.name]
    with pipe_mod.open_output(args.out) as fh:
        ind_mod.dump_indicator(scores, fh)
    print(f"{'converged' if solve['converged'] else 'NOT converged'} "
          f"after {solve['iterations']} iterations (residual {solve['final_residual']:.3e})")
    return 0


def cmd_indicators(args) -> int:
    ind_mod.parse_prestige(args.prestige)

    def write(create) -> dict:
        c = corpus_mod.parse_corpus(args.corpus)
        filtered, _ = corpus_mod.filter_with_references(c)
        table = ind_mod.load_impact_factors(args.if_table) if args.if_table else None
        _, _, entries = pipe_mod.write_phase_graph(
            filtered, args.tag, not args.drop_self_citations, args.prestige, table, create)
        return entries

    manifest = pipe_mod.write_run(args.outdir, "indicators", write)
    print(f"wrote {len(manifest['files'])} files and a manifest to {args.outdir}")
    return 0


def cmd_correlate(args) -> int:
    stats_mod.check_subset_size(args.subset_size)
    vectors = _score_vectors(args.scores, args.labels)
    table = pipe_mod.rank_table(vectors, args.subset_size)
    r, p = table.correlations
    with pipe_mod.open_output(args.out) as fh:
        pipe_mod.write_correlation(table.indicators, r, p, fh)
    print(f"wrote {args.out}")
    return 0


def cmd_pca(args) -> int:
    stats_mod.check_subset_size(args.subset_size)
    stats_mod.parse_retention(args.retention, len(args.scores))
    stats_mod.check_cutoff(args.cutoff)
    vectors = _score_vectors(args.scores, args.labels)
    table = pipe_mod.rank_table(vectors, args.subset_size)
    res = stats_mod.pca_varimax(table, args.retention, args.cutoff)
    with pipe_mod.open_output(args.out_loadings) as fl, \
            pipe_mod.open_output(args.out_components) as fc:
        pipe_mod.write_pca(res, fl, fc)
    print(f"retained {res.n_retained} components "
          f"({100 * res.explained_variance_fractions[: res.n_retained].sum():.2f}% of variance)")
    return 0


def cmd_evaluate(args) -> int:
    check_ks(args.ks)
    vectors = _score_vectors(args.scores, args.labels)
    winners = load_winners(args.winners)
    res = coverage(vectors, winners, ks=args.ks)
    with pipe_mod.open_output(args.out) as fh:
        pipe_mod.write_coverage(res, fh)
    if res.missing_winners:
        print(f"winners not in author universe: {', '.join(res.missing_winners)}")
    print(f"wrote {args.out}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = pipe_mod.load_config(args.config, overrides=args.set)
    manifest = pipe_mod.run_pipeline(cfg)
    print(f"pipeline complete: {len(manifest['files'])} files in {cfg.outdir} "
          f"(config hash {manifest['config_hash'][:12]})")
    return 0


class OutputFile(str):
    """The type of an argument that names an output file: ``main`` checks
    every one a command is given before the command runs."""


def _tag(value: str) -> str:
    """The type of ``--tag``, which names output files: text that is not
    empty and that UTF-8 can encode."""
    if not value.strip():
        raise argparse.ArgumentTypeError("the tag is empty")
    if corpus_mod.encodes(value):
        return value
    raise argparse.ArgumentTypeError(f"{value!r} is not valid UTF-8")


def _setting(parser, flag: str, key: str, one: bool = False, **kwargs) -> None:
    """Declare ``flag``, which sets config ``key`` (one entry of it if ``one``),
    with the key's parser, ``--set``'s message and ``RunConfig``'s default."""
    parse, default = pipe_mod._FIELD_PARSERS[key], getattr(pipe_mod.RunConfig, key)
    if one:
        item = get_args(get_type_hints(pipe_mod.RunConfig)[key])[0]
        parse, default = pipe_mod._value_parser(item), default[0]
    parser.add_argument(flag, type=partial(pipe_mod.parse_setting, parse, name=flag),
                        default=None if kwargs.get("required") else default, **kwargs)


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError, the way every other error
    reaches ``main``."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """The flags of every subcommand.  A flag that sets a config key is
    parsed, defaulted and checked as the key is, so ``pipeline`` and the
    stage subcommands refuse a setting with the same message."""
    generate = corpus_mod.generate_synthetic
    parser = _ArgumentParser(
        prog="bibliorank",
        description="Author citation networks, weighted PageRank, and rank comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags that several commands share, each declared once.
    score_files = argparse.ArgumentParser(add_help=False)
    score_files.add_argument("--scores", nargs="+", action="extend", required=True,
                             help="score files, one per indicator (repeatable)")
    score_files.add_argument("--labels", help="comma-separated column labels")
    subset = argparse.ArgumentParser(add_help=False)
    _setting(subset, "--subset-size", "subset_size")

    p = sub.add_parser("generate", help="generate a seeded synthetic corpus")
    _setting(p, "--seed", "seed", required=True)
    _setting(p, "--papers", "n_papers", required=True)
    _setting(p, "--authors", "n_authors", required=True)
    _setting(p, "--skew", "skew")
    p.add_argument("--year-lo", type=partial(pipe_mod.parse_setting, int, name="--year-lo"),
                   default=pipe_mod.default_of(generate, "year_lo"))
    p.add_argument("--year-hi", type=partial(pipe_mod.parse_setting, int, name="--year-hi"),
                   default=pipe_mod.default_of(generate, "year_hi"))
    p.add_argument("--out", type=OutputFile, required=True)
    p.add_argument("--if-table-out", type=OutputFile,
                   help="also write a synthetic impact-factor table")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="parse, phase-split, and filter a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--outdir", required=True)
    _setting(p, "--phases", "phases", help='e.g. "1956-1980;1981-1990;1991-2000;2001-2008"')
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("rank", help="PageRank over an edge-list dump")
    p.add_argument("--edges", required=True)
    p.add_argument("--nodes", help="node dump supplying publication counts")
    _setting(p, "--damping", "dampings", one=True, required=True)
    _setting(p, "--teleport", "teleports", one=True, help=", ".join(pr_mod.TELEPORTS))
    _setting(p, "--tolerance", "tolerance")
    _setting(p, "--max-iterations", "max_iterations")
    _setting(p, "--dangling-policy", "dangling_policy", help=", ".join(pr_mod.DANGLING_POLICIES))
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", type=OutputFile, required=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("indicators", help="phase graph and non-PageRank indicators of a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--tag", type=_tag, help="phase tag used in output file names")
    _setting(p, "--prestige", "prestige", help="top_fraction:F or min_citations:M")
    p.add_argument("--if-table")
    p.add_argument("--drop-self-citations", action="store_true")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("correlate", parents=[score_files, subset],
                       help="Spearman matrix over score files")
    p.add_argument("--out", type=OutputFile, required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("pca", parents=[score_files, subset],
                       help="PCA with varimax rotation over score files")
    _setting(p, "--retention", "pca_retention", help="kaiser or fixed:K")
    _setting(p, "--cutoff", "loading_cutoff")
    p.add_argument("--out-loadings", type=OutputFile, required=True)
    p.add_argument("--out-components", type=OutputFile, required=True)
    p.set_defaults(func=cmd_pca)

    p = sub.add_parser("evaluate", parents=[score_files],
                       help="award-winner coverage of top-k lists")
    p.add_argument("--winners", required=True)
    _setting(p, "--ks", "coverage_ks")
    p.add_argument("--out", type=OutputFile, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override (repeatable)")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        pipe_mod.check_output_files({f"--{dest.replace('_', '-')}": path for dest, path
                                     in vars(args).items() if isinstance(path, OutputFile)})
        return args.func(args)
    except BiblioRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except FileNotFoundError as exc:
        print(f"error: missing input file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
