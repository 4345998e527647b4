"""Command-line entry points.

Subcommands: generate, ingest, indicators, compare, pipeline.  Each writes
a run directory through ``pipeline.write_run``: its files and a
``manifest.json``, written whole or not at all.  Exit codes: 0 success, 1
usage or validation error, 2 data/input error, 3 non-convergence; each
error class has its own.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from bibliorank import corpus as corpus_mod
from bibliorank import indicators as ind_mod
from bibliorank import pipeline as pipe_mod
from bibliorank import stats as stats_mod
from bibliorank.errors import BiblioRankError, ConfigError, GraphError
from bibliorank.evaluation import load_winners


def _score_vectors(paths: list[str], labels: str | None) -> list[ind_mod.ScoreVector]:
    """Read each score file as a column labelled by its entry of the
    comma-separated ``labels``, or else by its file stem.  The labels are
    checked before any file is read: one per file, none empty or repeated,
    and each text UTF-8 can encode with no tab, line break or comma, since
    it is written into a TSV or CSV output."""
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
        if any(ch in name for ch in "\t\n\r,"):
            raise ConfigError(f"the score file label {name!r} holds a tab, line break or comma")
    return list(map(ind_mod.load_indicator, paths, names))


def _write_stage(args, write) -> int:
    """Write the run of the subcommand ``args.command`` into ``--outdir``
    through ``write`` (see ``pipeline.write_run``) and report it."""
    manifest = pipe_mod.write_run(args.outdir, args.command, write)
    print(f"wrote {len(manifest['files'])} files and a manifest to {args.outdir}")
    return 0


def cmd_generate(args) -> int:
    synthetic = {"seed": args.seed, "n_papers": args.papers, "n_authors": args.authors,
                 "skew": args.skew}
    corpus_mod.check_synthetic(**synthetic)

    def write(create) -> dict:
        c = corpus_mod.generate_synthetic(**synthetic)
        with create("corpus.jsonl") as fh:
            corpus_mod.serialize_corpus(c, fh)
        with create("impact_factors.tsv") as fh:
            pipe_mod.dump_impact_factors(pipe_mod.generate_impact_factors(c, args.seed), fh)
        return {"synthetic": synthetic}

    return _write_stage(args, write)


def cmd_ingest(args) -> int:
    pipe_mod.check_phases(args.phases)

    def write(create) -> dict:
        full = corpus_mod.parse_corpus(args.corpus)
        return pipe_mod.write_phase_corpora(full, args.phases, create)[1]

    manifest = pipe_mod.write_run(args.outdir, args.command, write)
    del manifest["command"], manifest["files"]
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_indicators(args) -> int:
    configs = pipe_mod.RunConfig(dampings=args.dampings).pagerank_configs()

    def write(create) -> dict:
        used, counts = pipe_mod.papers_used(corpus_mod.parse_corpus(args.corpus))
        if not len(used):
            raise GraphError("empty graph: the corpus has no papers with references")
        table = None if args.if_table is None else ind_mod.load_impact_factors(args.if_table)
        _, entries = pipe_mod.write_phase_scores(used, args.tag, not args.drop_self_citations,
                                                 table, configs, create)
        return {**counts, **entries}

    return _write_stage(args, write)


def cmd_compare(args) -> int:
    stats_mod.check_subset_size(args.subset_size, len(args.scores))

    def write(create) -> dict:
        vectors = _score_vectors(args.scores, args.labels)
        winners = None if args.winners is None else load_winners(args.winners)
        return {"stats": pipe_mod.write_phase_stats(vectors, args.tag, args.subset_size,
                                                    winners, create)}

    return _write_stage(args, write)


def cmd_pipeline(args) -> int:
    cfg = pipe_mod.load_config(args.config, overrides=args.set)
    manifest = pipe_mod.run_pipeline(cfg)
    print(f"pipeline complete: {len(manifest['files'])} files in {cfg.outdir} "
          f"(config hash {manifest['config_hash'][:12]})")
    return 0


def _tag(value: str) -> str:
    """The type of ``--tag``, which names output files: text that is not
    empty and that UTF-8 can encode."""
    if not value.strip():
        raise argparse.ArgumentTypeError("the tag is empty")
    if corpus_mod.encodes(value):
        return value
    raise argparse.ArgumentTypeError(f"{value!r} is not valid UTF-8")


def _setting(parser, flag: str, key: str, **kwargs) -> None:
    """Declare ``flag``, which sets config ``key``, with the key's parser,
    ``--set``'s message and ``RunConfig``'s default."""
    parse, default = pipe_mod._FIELD_PARSERS[key], getattr(pipe_mod.RunConfig, key)
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
    parser = _ArgumentParser(
        prog="bibliorank",
        description="Author citation networks, weighted PageRank, and rank comparison.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a seeded corpus and impact-factor table")
    _setting(p, "--seed", "seed", required=True)
    _setting(p, "--papers", "n_papers", required=True)
    _setting(p, "--authors", "n_authors", required=True)
    _setting(p, "--skew", "skew")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("ingest", help="parse, phase-split, and filter a corpus file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--outdir", required=True)
    _setting(p, "--phases", "phases", help='e.g. "1956-1980;1981-1990;1991-2000;2001-2008"')
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("indicators", help="phase graph, PageRank variants and classical "
                                          "indicators of a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--outdir", required=True)
    p.add_argument("--tag", type=_tag, help="phase tag used in output file names")
    p.add_argument("--if-table")
    p.add_argument("--drop-self-citations", action="store_true")
    _setting(p, "--dampings", "dampings")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("compare", help="rank table, Spearman matrix, PCA and winner coverage "
                                       "of one phase's score files")
    p.add_argument("--scores", nargs="+", action="extend", required=True,
                   help="score files, one per indicator (repeatable)")
    p.add_argument("--labels", help="comma-separated column labels")
    p.add_argument("--tag", type=_tag, help="phase tag used in output file names")
    _setting(p, "--subset-size", "subset_size")
    p.add_argument("--winners", help="award-winner list, one raw author name per line")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pipeline", help="run the full pipeline from a config")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="config override (repeatable)")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
