import argparse
import codecs
import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bibliorank
from bibliorank import corpus as corpus_mod
from bibliorank import indicators as ind_mod
from bibliorank import pagerank as pr_mod
from bibliorank import pipeline as pipe_mod
from bibliorank import stats as stats_mod
from bibliorank.cli import build_parser, main
from bibliorank.corpus import generate_synthetic
from bibliorank.errors import ConfigError, NonConvergenceError
from bibliorank.evaluation import load_winners
from bibliorank.pagerank import variant_label
from bibliorank.pipeline import (
    _FIELD_PARSERS,
    RunConfig,
    apply_config_entry,
    load_config,
    parse_phases,
    parse_setting,
    run_pipeline,
)
from tests.oracles import corpus_records, parse_corpus_loop, unmatched_references_loop


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _dir_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())}


def _tree_bytes(root):
    """Every path under ``root``, mapped to its bytes if it is a file."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in sorted(Path(root).rglob("*"))}


# A small generate run, without its --outdir.
_GENERATE = ["generate", "--seed", "1", "--papers", "30", "--authors", "10"]

# A corpus whose phase graph is A->B, B->A, C->A: A cites B, B cites A and
# C cites A, all in 1960, so each author has one paper.
_THREE_PAPERS = "".join(
    json.dumps({"id": f"p{i}", "author": author, "year": 1960, "source": "J",
                "refs": [{"author": cited, "year": 1950, "source": "J"}]}) + "\n"
    for i, (author, cited) in enumerate((("A", "B"), ("B", "A"), ("C", "A")), 1))
# The PageRank variants of the default dampings, in the order a stall names them.
_DEFAULT_VARIANTS = ", ".join(variant_label(kind, d) for kind in pr_mod.TELEPORTS
                              for d in RunConfig.dampings)


def _generate(outdir, seed, papers, authors):
    """Run ``generate`` into ``outdir``; returns the corpus it wrote."""
    assert main(["generate", "--seed", str(seed), "--papers", str(papers),
                 "--authors", str(authors), "--outdir", str(outdir)]) == 0
    return Path(outdir) / "corpus.jsonl"


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small synthetic pipeline run shared by the composition tests."""
    root = tmp_path_factory.mktemp("run")
    corpus = _generate(root / "generate", 1, 400, 150)
    if_table = root / "generate" / "impact_factors.tsv"
    outdir = root / "out"
    assert main([
        "pipeline",
        "--set", f"corpus={corpus}",
        "--set", f"outdir={outdir}",
        "--set", f"if_table={if_table}",
        "--set", "subset_size=30",
    ]) == 0
    return root, corpus, if_table, outdir


class TestGenerate:
    def test_deterministic_files(self, tmp_path, capsys):
        for name in ("a", "b"):
            _generate(tmp_path / name, 7, 50, 20)
        assert _dir_bytes(tmp_path / "a") == _dir_bytes(tmp_path / "b")
        assert capsys.readouterr().out == "".join(
            f"wrote 2 files and a manifest to {tmp_path / name}\n" for name in ("a", "b"))
        manifest = json.loads(_read(tmp_path / "a" / "manifest.json"))
        assert sorted(manifest["files"]) == ["corpus.jsonl", "impact_factors.tsv"]
        assert manifest["synthetic"] == {"seed": 7, "n_papers": 50, "n_authors": 20, "skew": 1.0}

    def test_invalid_sizes_exit_1(self, tmp_path, capsys, monkeypatch):
        """Sizes out of range are refused before ``write_run``
        makes ``--outdir``, its missing parent or its stage."""
        monkeypatch.setattr(pipe_mod, "write_run", None)  # calling it is a TypeError
        mass = ("skew must keep the uniform attachment mass 0.05 * n_authors * skew "
                "finite and positive")
        for settings, message in [(["--papers", "0"], "n_papers and n_authors must be >= 1"),
                                  (["--authors", "2000", "--skew", "1e308"],
                                   f"{mass}, got inf at skew 1e+308"),
                                  (["--authors", "1", "--skew", "5e-324"],
                                   f"{mass}, got 0.0 at skew 5e-324")]:
            assert main(["generate", "--seed", "1", "--papers", "5", "--authors", "5", *settings,
                         "--outdir", str(tmp_path / "q" / "run")]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")
            assert not any(tmp_path.iterdir())


class TestExitCodes:
    def test_missing_input_exit_2(self, tmp_path, capsys):
        rc = main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pipeline", "--set", "corpus={corpus}", "--set", "if_table=", "--set", "outdir={o}"],
        ["pipeline", "--set", "corpus={corpus}", "--set", "winners=", "--set", "outdir={o}"],
        ["indicators", "--corpus", "{corpus}", "--if-table", "", "--outdir", "{o}"],
        ["indicators", "--corpus", "", "--outdir", "{o}"],
        ["compare", "--scores", "{scores}", "--winners", "", "--outdir", "{o}"],
    ], ids=["pipeline-if_table", "pipeline-winners", "indicators-if-table", "indicators-corpus",
            "compare-winners"])
    def test_empty_input_path_exit_2_as_a_missing_file(self, argv, small_run, tmp_path, capsys):
        """An optional input given as '' is a file that does not exist, not
        an input left out."""
        _, corpus, _, pipeline_out = small_run
        paths = {"corpus": corpus, "o": tmp_path / "out",
                 "scores": sorted(pipeline_out.glob("indicator_*.tsv"))[0]}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr() == ("", "error: missing input file: \n")
        assert not any(tmp_path.iterdir())

    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["ingest", "--corpus", str(bad), "--outdir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("record,field", [
        ({"author": 5}, "author"),
        ({"refs": [{"author": "B", "year": 1999, "source": ["K"]}]}, "refs.source"),
    ], ids=["record-author", "ref-source"])
    def test_non_string_key_exit_2_without_traceback(self, record, field, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"id": "p1", "author": "A", "year": 2000, "source": "J",
                                   **record}) + "\n")
        env = {**os.environ, "PYTHONPATH": str(Path(bibliorank.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bibliorank.cli", "ingest", "--corpus", str(bad),
             "--outdir", str(tmp_path / "o")],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: line 1: ")
        assert f"(field: {field})" in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        # not a command: indicators runs the PageRank step
        ["rank", "--edges", "{tmp}/e", "--dampings", "abc", "--outdir", "{tmp}/o"],
        ["indicators", "--corpus", "{tmp}/c", "--dampings", "abc", "--outdir", "{tmp}/o"],
        ["generate", "--seed", "1", "--papers", "x", "--authors", "5", "--outdir", "{tmp}/o"],
        ["compare", "--scores", "{tmp}/s"],
        [],
    ], ids=["rank-damping", "indicators-damping", "generate-papers", "compare-no-outdir",
            "no-command"])
    def test_usage_error_exit_1_one_error_line(self, argv, tmp_path, capsys):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_empty_winner_name_exit_2_names_line_and_file(self, small_run, tmp_path, capsys):
        _, _, _, outdir = small_run
        scores = sorted(Path(outdir).glob("indicator_*.tsv"))[0]
        winners = tmp_path / "winners.txt"
        winners.write_text("AUTH 000001\n\n.\n")
        assert main(["compare", "--scores", str(scores), "--winners", str(winners),
                     "--outdir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: author string '.' is empty after normalization in {winners}\n")

    def test_winner_run_writes_nothing_to_stderr(self, tmp_path):
        winners = tmp_path / "winners.txt"
        winners.write_text("Auth, 000001.\nNobody, X.\n")
        outdir = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(bibliorank.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bibliorank.cli", "pipeline", "--set", "seed=2",
             "--set", "n_papers=120", "--set", "n_authors=40", "--set", "subset_size=14",
             "--set", f"winners={winners}", "--set", f"outdir={outdir}"],
            capture_output=True, text=True, env=env, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        phases = json.loads((outdir / "manifest.json").read_text())["phases"].values()
        assert all("NOBODY X" in info["winners_missing"] for info in phases)

    @pytest.mark.parametrize("command", ["pipeline", "ingest", "indicators"])
    def test_non_utf8_corpus_exit_2_names_line(self, command, tmp_path, capsys):
        good = json.dumps({"id": "p1", "author": "A", "year": 2000, "source": "J",
                           "refs": [{"author": "B", "year": 1999, "source": "K"}]})
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(good.encode() + b"\n" + good.replace('"A"', '"A\xff"')
                           .replace('"p1"', '"p2"').encode("latin-1") + b"\n")
        outdir = tmp_path / "out"
        argv = {"pipeline": ["pipeline", "--set", f"corpus={corpus}", "--set", f"outdir={outdir}"],
                "ingest": ["ingest", "--corpus", str(corpus), "--outdir", str(outdir)],
                "indicators": ["indicators", "--corpus", str(corpus), "--outdir", str(outdir)]}
        assert main(argv[command]) == 2
        assert capsys.readouterr().err == f"error: line 2: not valid UTF-8 in {corpus}\n"
        assert not outdir.exists()

    @pytest.mark.parametrize("bad", ["if_table", "winners", "scores", "config"])
    def test_non_utf8_text_input_exit_2(self, bad, small_run, tmp_path, capsys):
        _, corpus, if_table, outdir = small_run
        inputs = {"if_table": if_table, "winners": tmp_path / "winners.txt",
                  "scores": sorted(Path(outdir).glob("indicator_*.tsv"))[0],
                  "config": tmp_path / "run.cfg"}
        inputs["winners"].write_text("AUTH 000001\n")
        inputs["config"].write_text("subset_size = 30\n")
        inputs[bad] = tmp_path / "bad"
        inputs[bad].write_bytes(b"AUTH \xff\t1\t1\n")
        i = {key: str(path) for key, path in inputs.items()}
        argv = {
            "if_table": ["pipeline", "--set", f"corpus={corpus}", "--set", f"if_table={i['if_table']}",
                         "--set", f"outdir={tmp_path / 'out'}"],
            "config": ["pipeline", "--config", i["config"], "--set", f"corpus={corpus}",
                       "--set", f"outdir={tmp_path / 'out'}"],
            "winners": ["compare", "--scores", i["scores"], "--winners", i["winners"],
                        "--outdir", str(tmp_path / "out")],
            "scores": ["compare", "--scores", i["scores"], "--winners", i["winners"],
                       "--outdir", str(tmp_path / "out")],
        }[bad]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: line 1: not valid UTF-8 in {inputs[bad]}\n"
        assert not (tmp_path / "out").exists()

    def test_overlapping_phases_exit_1_before_work(self, tmp_path):
        corpus = _generate(tmp_path / "c", 1, 20, 10)
        outdir = tmp_path / "out"
        rc = main(["pipeline", "--set", f"corpus={corpus}",
                   "--set", f"outdir={outdir}",
                   "--set", "phases=1956-1990;1980-2008"])
        assert rc == 1
        assert not outdir.exists() or not any(outdir.iterdir())

    @pytest.mark.parametrize("entry", ["subset_size=abc", "dampings=0.5,x", "phases=1990",
                                       "phases=:1956-2008"])
    def test_malformed_set_value_exit_1(self, entry, capsys):
        assert main(["pipeline", "--set", "seed=1", "--set", entry]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and entry.split("=")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["ingest", "--corpus", "{tmp}/nope", "--outdir", "{tmp}/o", "--phases", "1990"],
         "invalid phases entry '1990': expected [label:]lo-hi"),
        (["compare", "--scores", "{tmp}/nope", "--retention", "fixed:x", "--outdir", "{tmp}/o"],
         "unrecognized arguments: --retention fixed:x"),
        (["compare", "--scores", "{tmp}/nope", "--ks", "5",
          "--winners", "{tmp}/w", "--outdir", "{tmp}/o"],
         "unrecognized arguments: --ks 5"),
        (["compare", "--scores", "{tmp}/nope", "--cutoff", "0.4", "--outdir", "{tmp}/o"],
         "unrecognized arguments: --cutoff 0.4"),
        (["pipeline", "--set", "seed=1", "--set", "pca_retention=kaiser",
          "--set", "outdir={tmp}/o"],
         "unknown config key 'pca_retention'"),
        (["pipeline", "--set", "seed=1", "--set", "max_iterations=1000",
          "--set", "outdir={tmp}/o"],
         "unknown config key 'max_iterations'"),
        (["indicators", "--corpus", "{tmp}/nope", "--max-iterations", "5", "--outdir", "{tmp}/o"],
         "unrecognized arguments: --max-iterations 5"),
        (["pipeline", "--set", "seed=1", "--set", "strict=true", "--set", "outdir={tmp}/o"],
         "unknown config key 'strict'"),
        (["indicators", "--corpus", "{tmp}/nope", "--strict", "--outdir", "{tmp}/o"],
         "unrecognized arguments: --strict"),
        (["pipeline", "--set", "seed=1", "--set", "tolerance=1e-10", "--set", "outdir={tmp}/o"],
         "unknown config key 'tolerance'"),
        (["indicators", "--corpus", "{tmp}/nope", "--tolerance", "1e-10", "--outdir", "{tmp}/o"],
         "unrecognized arguments: --tolerance 1e-10"),
        (["pipeline", "--set", "seed=1", "--set", "teleports=uniform", "--set", "outdir={tmp}/o"],
         "unknown config key 'teleports'"),
        (["pipeline", "--set", "seed=1", "--set", "prestige=min_citations:2",
          "--set", "outdir={tmp}/o"],
         "unknown config key 'prestige'"),
        (["indicators", "--corpus", "{tmp}/nope", "--teleports", "uniform", "--outdir", "{tmp}/o"],
         "unrecognized arguments: --teleports uniform"),
        (["indicators", "--corpus", "{tmp}/nope", "--prestige", "top_fraction:0.1",
          "--outdir", "{tmp}/o"],
         "unrecognized arguments: --prestige top_fraction:0.1"),
        (["ingest", "--corpus", "{tmp}/nope", "--outdir", "{tmp}/o",
          "--phases", " :1956-2008"],
         "invalid phases entry ':1956-2008': phase 1956-2008: the label is empty"),
        (["indicators", "--corpus", "{tmp}/nope", "--outdir", "{tmp}/o", "--tag", ""],
         "argument --tag: the tag is empty"),
        (["indicators", "--corpus", "{tmp}/nope", "--outdir", "{tmp}/o", "--tag", " "],
         "argument --tag: the tag is empty"),
        (["generate", "--seed", "1", "--papers", "10", "--authors", "10", "--year-lo", "1990",
          "--outdir", "{tmp}/o"],
         "unrecognized arguments: --year-lo 1990"),
        (["pipeline", "--set", "seed=1", "--set", "subset_size=13", "--set", "outdir={tmp}/o"],
         "subset_size must be larger than the 13 indicators for PCA, got 13"),
        (["compare", "--scores", "{tmp}/a", "{tmp}/b", "{tmp}/c", "--subset-size", "3",
          "--outdir", "{tmp}/o"],
         "subset_size must be larger than the 3 indicators for PCA, got 3"),
    ], ids=["ingest-phases", "compare-retention", "compare-ks", "compare-cutoff",
            "pipeline-retention", "pipeline-max-iterations", "indicators-max-iterations",
            "pipeline-strict", "indicators-strict", "pipeline-tolerance", "indicators-tolerance",
            "pipeline-teleports", "pipeline-prestige", "indicators-teleports",
            "indicators-prestige", "ingest-empty-label",
            "indicators-empty-tag", "indicators-blank-tag", "generate-year-lo",
            "pipeline-subset", "compare-subset"])
    def test_malformed_argument_exit_1_before_inputs_are_opened(self, argv, message, tmp_path,
                                                               capsys):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("row", ["A01\tx", "A01"], ids=["non-numeric", "short"])
    def test_malformed_score_row_exit_2(self, row, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        scores.write_text(f"author\tscore\nA00\t1\n{row}\n")
        assert main(["compare", "--scores", str(scores), str(scores), "--labels", "a,b",
                     "--outdir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and str(scores) in err

    @pytest.mark.parametrize("entry", [
        "n_papers=0", "n_authors=0", "skew=0", "phases=1956-1990;1980-2008", "phases=2000-1990",
        "dampings=0.5,1", "subset_size=2", "skew=1e308",
        "n_authors=1 skew=5e-324",
        # keys of settings that were deleted are refused by name as well
        "tolerance=0", "pca_retention=fixed:0", "pca_retention=fixed:14", "coverage_ks=10,5",
        "coverage_ks=5,5", "teleports=uniform,bogus", "prestige=top_fraction:2",
    ])
    def test_out_of_range_set_value_exit_1_names_key(self, entry, tmp_path, capsys):
        """``entry`` is one or more space-separated settings; the error names
        the key of the last."""
        argv = ["pipeline", "--set", "seed=1", "--set", f"outdir={tmp_path / 'out'}"]
        assert main(argv + [a for item in entry.split() for a in ("--set", item)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and entry.split()[-1].split("=")[0] in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["pipeline", "pipeline-with-corpus", "generate"])
    @pytest.mark.parametrize("setting,message", [
        (("seed", "-1"), "seed must be >= 0, got -1"),
        (("skew", "nan"), "skew must be finite and positive, got nan"),
        (("skew", "inf"), "skew must be finite and positive, got inf"),
        (("n_authors", "2147483648"), "n_papers + n_authors too large: 2147484638 strings "
                                      "overflow the int32 string table"),
        (("n_papers", "35791395"), "n_papers must be <= 35791394, got 35791395"),
    ], ids=["negative-seed", "nan-skew", "inf-skew", "string-table", "pool"])
    def test_bad_synthetic_parameter_exit_1_before_work(self, command, setting, message,
                                                        tmp_path, capsys):
        settings = {"seed": "1", "n_papers": "50", "n_authors": "20", "skew": "1"}
        settings.update([setting])
        if command.startswith("pipeline"):
            argv = ["pipeline", "--set", f"outdir={tmp_path / 'out'}"]
            argv += [a for key, value in settings.items() for a in ("--set", f"{key}={value}")]
            if command == "pipeline-with-corpus":  # the manifest records them in this mode too
                argv += ["--set", f"corpus={tmp_path / 'nope.jsonl'}"]
        else:
            options = {"seed": "--seed", "n_papers": "--papers", "n_authors": "--authors",
                       "skew": "--skew"}
            argv = ["generate", "--outdir", str(tmp_path / "c")]
            argv += [a for key, value in settings.items() for a in (options[key], value)]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("bad,text,message", [
        ("corpus", "not json\n", "line 1: invalid JSON: Expecting value"),
        ("if_table", "J\t2005\tx\n", "line 1: invalid year or impact factor"),
        ("winners", "AUTH 000001\n.\n",
         "line 2: author string '.' is empty after normalization"),
        ("config", "subset_size = 30\nsubset_size\n", "line 2: expected key = value"),
        ("scores", "author\tscore\nA\tx\n", "line 2: malformed score row"),
        ("scores", "x\ty\n", "line 1: expected an 'author'/'score' header row"),
        ("scores", "author\tscore\n", "no score rows"),
        ("scores", "author\tscore\nA\t1\nB\tnan\n", "line 3: non-finite score nan for author 'B'"),
        ("scores", "author\tscore\nA\tinf\n", "line 2: non-finite score inf for author 'A'"),
        ("scores", "author\tscore\nA\t-inf\n", "line 2: non-finite score -inf for author 'A'"),
    ])
    def test_input_error_names_line_and_file(self, bad, text, message, small_run, tmp_path,
                                             capsys):
        _, corpus, if_table, outdir = small_run
        inputs = {"corpus": corpus, "if_table": if_table,
                  "winners": tmp_path / "winners.txt",
                  "config": tmp_path / "run.cfg",
                  "scores": sorted(Path(outdir).glob("indicator_*.tsv"))[0]}
        inputs["winners"].write_text("AUTH 000001\n")
        inputs["config"].write_text("subset_size = 30\n")
        inputs[bad] = tmp_path / "bad"
        inputs[bad].write_text(text)
        i = {key: str(path) for key, path in inputs.items()}
        out = str(tmp_path / "out")
        argv = {
            "corpus": ["pipeline", "--set", f"corpus={i['corpus']}", "--set", f"outdir={out}"],
            "if_table": ["pipeline", "--set", f"corpus={i['corpus']}",
                         "--set", f"if_table={i['if_table']}", "--set", f"outdir={out}"],
            "winners": ["pipeline", "--set", f"corpus={i['corpus']}",
                        "--set", f"winners={i['winners']}", "--set", f"outdir={out}"],
            "config": ["pipeline", "--config", i["config"], "--set", f"corpus={i['corpus']}",
                       "--set", f"outdir={out}"],
            "scores": ["compare", "--scores", i["scores"], i["scores"], "--labels", "a,b",
                       "--outdir", out],
        }[bad]
        assert main(argv) == (1 if bad == "config" else 2)
        assert capsys.readouterr().err == f"error: {message} in {inputs[bad]}\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_score_row_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        scores.write_text("author\tscore\nA\t1\nB\t2\nA\t9\n")
        out = tmp_path / "out"
        assert main(["compare", "--scores", str(scores), str(scores), "--labels", "a,b",
                     "--outdir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: ") and str(scores) in err and "'A'" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["indicators", "--corpus", "{self}", "--drop-self-citations", "--outdir", "{out}"],
         "degenerate teleport: all citation_weighted weights are zero"),
        (["indicators", "--corpus", "{self}", "--drop-self-citations", "--tag", "1956-1980",
          "--outdir", "{out}"],
         "phase '1956-1980': degenerate teleport: all citation_weighted weights are zero"),
        (["pipeline", "--set", "corpus={corpus}", "--set", "allow_self_citation=false",
          "--set", "outdir={out}"],
         "phase '1956-1980': degenerate teleport: all citation_weighted weights are zero"),
    ], ids=["stage", "stage-tag", "pipeline"])
    def test_degenerate_teleport_exit_2_names_the_phase_writes_no_out(self, argv, message,
                                                                       tmp_path, capsys):
        """The one paper of ``self``, and of 1956-1980 in ``corpus``, cites
        only its own author, so without self citations no author is cited
        and the citation-weighted teleport has no mass."""
        self_citing = ('{"id":"p1","author":"A","year":1960,"source":"J",'
                       '"refs":[{"author":"A","year":1950,"source":"J"}]}\n')
        inputs = {"self": self_citing,
                  "corpus": self_citing + '{"id":"p2","author":"B","year":1985,"source":"J",'
                                          '"refs":[{"author":"C","year":1950,"source":"J"}]}\n'}
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        paths = {name: tmp_path / name for name in (*inputs, "out")}
        assert main([a.format(**paths) for a in argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)

    @pytest.mark.parametrize("refs", [', "refs": []', ""], ids=["empty-refs", "no-refs"])
    def test_corpus_without_references_exit_2_as_a_skipped_phase(self, refs, tmp_path, capsys):
        """``indicators`` on a corpus whose papers all lack references fails
        as the pipeline skips such a phase: no paper has references."""
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("".join(f'{{"id": "p{i}", "author": "A", "year": 1960, '
                                  f'"source": "J"{refs}}}\n' for i in (1, 2)))
        assert main(["indicators", "--corpus", str(corpus), "--outdir", str(tmp_path / "o")]) == 2
        assert capsys.readouterr() == (
            "", "error: empty graph: the corpus has no papers with references\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    @pytest.mark.parametrize("argv,prefix,variants", [
        (["indicators", "--corpus", "{three}", "--dampings", "0.85", "--outdir", "{out}"],
         "", "pagerank_d0.85, pagerank_cit_d0.85, pagerank_pub_d0.85"),
        (["indicators", "--corpus", "{three}", "--outdir", "{out}"],
         "", _DEFAULT_VARIANTS),
        (["indicators", "--corpus", "{three}", "--dampings", "0.85",
          "--tag", "1956-1980", "--outdir", "{out}"],
         "phase '1956-1980': ", "pagerank_d0.85, pagerank_cit_d0.85, pagerank_pub_d0.85"),
        (["pipeline", "--set", "corpus={corpus}", "--set", "subset_size=20",
          "--set", "outdir={out}"],
         "phase '1956-1980': ", _DEFAULT_VARIANTS),
    ], ids=["indicators", "indicators-tolerance", "indicators-tag", "pipeline"])
    def test_stall_exit_3_names_the_phase_writes_no_out(self, argv, prefix, variants, tmp_path,
                                                        capsys, one_step_cap):
        """A solve stalls under a one-step cap.  The run fails with one line
        naming the variants (at the default dampings, all nine), the largest
        residual, the one tolerance and the phase.  No outdir is left, and
        no stage directory beside it."""
        (tmp_path / "three.jsonl").write_text(_THREE_PAPERS)
        _generate(tmp_path / "gen", 1, 300, 150)
        inputs = sorted(p.name for p in tmp_path.iterdir())
        paths = {"three": tmp_path / "three.jsonl", "corpus": tmp_path / "gen" / "corpus.jsonl",
                 "out": tmp_path / "out"}
        capsys.readouterr()
        assert main([a.format(**paths) for a in argv]) == 3
        out, err = capsys.readouterr()
        head = f"error: {prefix}power iteration did not converge: {variants} (residual up to "
        tail = " at tolerance 1e-12)\n"
        assert out == "" and err.startswith(head) and err.endswith(tail), err
        assert float(err[len(head):-len(tail)]) > 1e-12
        assert sorted(p.name for p in tmp_path.iterdir()) == inputs

    def test_damping_099_converges_within_its_cap(self, tmp_path):
        """At d = 0.99 the three-paper graph needs about 2,710 steps: every
        variant converges, within the cap its damping derives."""
        corpus, out = tmp_path / "three.jsonl", tmp_path / "out"
        corpus.write_text(_THREE_PAPERS)
        assert main(["indicators", "--corpus", str(corpus), "--dampings", "0.99",
                     "--outdir", str(out)]) == 0
        diagnostics = json.loads(_read(out / "manifest.json"))["diagnostics"]
        solves = {label: v for label, v in diagnostics.items() if label.startswith("pagerank")}
        cap = pr_mod.PageRankConfig(0.99).max_iterations
        assert sorted(solves) == ["pagerank_cit_d0.99", "pagerank_d0.99", "pagerank_pub_d0.99"]
        for entry in solves.values():
            assert entry["converged"] and 1000 < entry["iterations"] <= cap, entry

    def test_ingest_colliding_phase_tags_exit_1_before_corpus_is_opened(self, tmp_path, capsys):
        rc = main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--outdir", str(tmp_path / "out"), "--phases", "a-b:1956-1990;a_b:1991-2008"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'a-b'" in err and "'a_b'" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,first,second,keys", [
        ("ingest", [], ["--phases", "1956-1990"],
         {"input_papers", "dropped_outside_phases", "phases"}),
        ("indicators", ["--if-table", "{if_table}"], [],
         {"papers", "papers_without_references", "papers_used", "references", "graph",
          "diagnostics"}),
        ("indicators", [], ["--dampings", "0.5"],
         {"papers", "papers_without_references", "papers_used", "references", "graph",
          "diagnostics"}),
        ("compare", ["--scores", "{scores}", "--tag", "x"], ["--scores", "{scores}"], {"stats"}),
        ("generate", ["--seed", "1"], ["--seed", "2"], {"synthetic"}),
    ])
    def test_stage_rerun_replaces_previous_run_whole(self, command, first, second, keys,
                                                     small_run, tmp_path, monkeypatch):
        _, corpus, if_table, pipeline_out = small_run
        scores, good_scores = sorted(pipeline_out.glob("indicator_*.tsv"))[:2]
        # compare reads two score files of the pipeline run, the others the corpus
        flag, good = {"compare": ("--scores", good_scores)}.get(command, ("--corpus", corpus))
        outdir = tmp_path / "out"

        def run(input_path, extra):
            source = _GENERATE[1:] if command == "generate" else [flag, str(input_path)]
            return main([command, *source, "--outdir", str(outdir),
                         *(a.format(if_table=if_table, scores=scores) for a in extra)])

        assert run(good, first) == 0
        before = _dir_bytes(outdir)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with _failing(command, monkeypatch):
            assert run(bad, first) == 2
        assert _dir_bytes(outdir) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "out"]

        assert run(good, second) == 0
        manifest = json.loads(_read(outdir / "manifest.json"))
        assert set(manifest) == {"command", "files", *keys}
        assert manifest["command"] == command
        files = manifest["files"]
        after = _dir_bytes(outdir)
        # files of the first run that the rerun must remove or rewrite
        assert [name for name in before
                if name != "manifest.json" and after.get(name) != before[name]]
        assert sorted(after) == sorted([*files, "manifest.json"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "out"]

    @pytest.mark.parametrize("command,owner", [
        ("indicators", "ingest"), ("ingest", "pipeline"), ("pipeline", "indicators"),
        ("ingest", "indicators"), ("indicators", "generate"), ("compare", "indicators"),
        ("indicators", "compare"), ("generate", "pipeline"), ("ingest", "generate"),
    ])
    def test_other_commands_run_exit_1_and_is_kept(self, command, owner, small_run, tmp_path,
                                                   capsys):
        _, corpus, _, pipeline_out = small_run

        def argv(cmd, corpus_path, outdir):
            if cmd == "pipeline":
                return [cmd, "--set", f"corpus={corpus_path}", "--set", f"outdir={outdir}"]
            if cmd == "compare":
                scores = sorted(pipeline_out.glob("indicator_*.tsv"))[:2]
                return [cmd, "--scores", *map(str, scores), "--outdir", str(outdir)]
            if cmd == "generate":
                return [*_GENERATE, "--outdir", str(outdir)]
            return [cmd, "--corpus", str(corpus_path), "--outdir", str(outdir)]

        outdir = tmp_path / "out"
        if owner == "pipeline":
            shutil.copytree(pipeline_out, outdir)
        else:
            assert main(argv(owner, corpus, outdir)) == 0
        # read a corpus of the run itself where it has one
        corpus_path = ([*sorted(outdir.glob("corpus*.jsonl")), corpus])[0]
        before = _dir_bytes(outdir)
        capsys.readouterr()
        assert main(argv(command, corpus_path, outdir)) == 1
        assert f"holds a run of {owner}, not of {command}" in capsys.readouterr().err
        assert _dir_bytes(outdir) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("command", ["pipeline", "indicators"])
    def test_run_without_command_key_exit_1_and_is_kept(self, command, small_run, tmp_path,
                                                        capsys):
        """A manifest written before runs named their command is refused by
        every command, even the one that wrote it."""
        _, corpus, _, pipeline_out = small_run
        outdir = tmp_path / "out"
        shutil.copytree(pipeline_out, outdir)
        manifest = json.loads(_read(outdir / "manifest.json"))
        assert manifest.pop("command") == "pipeline"
        (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
        before = _dir_bytes(outdir)
        capsys.readouterr()
        argv = {"pipeline": ["pipeline", "--set", f"corpus={corpus}", "--set", f"outdir={outdir}"],
                "indicators": ["indicators", "--corpus",
                               str(sorted(outdir.glob("corpus_*.jsonl"))[0]),
                               "--outdir", str(outdir)]}[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (f"error: outdir {outdir} holds a run written without "
                                           "a command key; choose another outdir\n")
        assert _dir_bytes(outdir) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_invalid_field_exit_1_before_corpus_is_opened(self, tmp_path):
        rc = main(["pipeline", "--set", f"corpus={tmp_path / 'nope.jsonl'}",
                   "--set", f"outdir={tmp_path / 'out'}",
                   "--set", "dampings=1"])
        assert rc == 1

    def test_strict_nonconvergence_exit_3(self, tmp_path, one_step_cap):
        corpus = _generate(tmp_path / "c", 1, 200, 80)
        outdir = tmp_path / "out"
        rc = main(["pipeline", "--set", f"corpus={corpus}",
                   "--set", f"outdir={outdir}",
                   "--set", "subset_size=20"])
        assert rc == 3
        # no outdir, and no stage directory left beside it
        assert not outdir.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["c"]

    def test_failed_rerun_keeps_previous_run(self, tmp_path, request):
        outdir = tmp_path / "out"
        cfg = RunConfig(seed=3, n_papers=200, n_authors=80, outdir=str(outdir),
                        subset_size=20)
        run_pipeline(cfg)
        before = _dir_bytes(outdir)
        request.getfixturevalue("one_step_cap")
        with pytest.raises(NonConvergenceError):
            run_pipeline(cfg)
        assert _dir_bytes(outdir) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("command", ["pipeline", "ingest", "indicators", "compare",
                                         "generate"])
    def test_failed_run_removes_the_parent_directories_it_made(self, command, small_run,
                                                               tmp_path, monkeypatch):
        _, corpus, _, pipeline_out = small_run
        good = {"compare": sorted(pipeline_out.glob("indicator_*.tsv"))[0]}.get(command, corpus)
        bad = tmp_path / "bad"
        bad.write_text("not json\n")
        outdir = tmp_path / "q" / "r" / "run"

        def run(path):
            return main({
                "pipeline": ["pipeline", "--set", f"corpus={path}", "--set", f"outdir={outdir}"],
                "ingest": ["ingest", "--corpus", str(path), "--outdir", str(outdir)],
                "indicators": ["indicators", "--corpus", str(path), "--outdir", str(outdir)],
                "compare": ["compare", "--scores", str(path), "--outdir", str(outdir)],
                "generate": [*_GENERATE, "--outdir", str(outdir)],
            }[command])

        with _failing(command, monkeypatch):
            assert run(bad) == 2
        assert [p.name for p in tmp_path.iterdir()] == ["bad"]
        assert run(good) == 0
        assert [p.name for p in outdir.parent.iterdir()] == ["run"]
        assert (outdir / "manifest.json").is_file()

    def test_rerun_leaves_only_its_own_files(self, tmp_path):
        outdir = tmp_path / "out"
        first = run_pipeline(RunConfig(seed=3, n_papers=200, n_authors=80, outdir=str(outdir)))
        corpus = _generate(tmp_path / "c", 3, 200, 80)
        second = run_pipeline(RunConfig(corpus=str(corpus), outdir=str(outdir)))
        assert "impact_factors.tsv" in first["files"]
        assert "impact_factors.tsv" not in second["files"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(
            [*second["files"], "manifest.json"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c", "out"]

    def test_rerun_into_a_symlinked_outdir_follows_the_link(self, tmp_path):
        real, link = tmp_path / "real", tmp_path / "o_link"
        run_pipeline(RunConfig(seed=3, n_papers=200, n_authors=80, outdir=str(real)))
        link.symlink_to(real)
        second = run_pipeline(RunConfig(seed=4, n_papers=200, n_authors=80, outdir=str(link)))
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert json.loads(_read(real / "manifest.json"))["config_hash"] == second["config_hash"]
        assert sorted(p.name for p in real.iterdir()) == sorted([*second["files"],
                                                                  "manifest.json"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["o_link", "real"]

    @pytest.mark.parametrize("command,earlier_run,name,content", [
        ("pipeline", False, "notes.txt", "mine\n"),
        ("pipeline", True, "notes.txt", "mine\n"),
        ("pipeline", False, "manifest.json", "{"),
        ("compare", False, "notes.txt", "mine\n"),
        ("compare", True, "notes.txt", "mine\n"),
        ("generate", False, "notes.txt", "mine\n"),
        ("generate", True, "notes.txt", "mine\n"),
    ], ids=["alone", "beside-a-run", "unreadable-manifest", "compare-alone",
            "compare-beside-a-run", "generate-alone", "generate-beside-a-run"])
    def test_foreign_entry_in_outdir_exit_1_before_inputs_are_opened(
            self, command, earlier_run, name, content, small_run, tmp_path, capsys):
        outdir = tmp_path / "out"
        scores = sorted(small_run[3].glob("indicator_*.tsv"))[:2]
        # a run, and the input that does not exist which the second run adds
        # (generate reads none, so its second run is the first one again)
        run, missing = {
            "pipeline": (["pipeline", "--set", "seed=3", "--set", "n_papers=200",
                          "--set", "n_authors=80", "--set", f"outdir={outdir}"],
                         ["--set", f"corpus={tmp_path / 'nope.jsonl'}"]),
            "compare": (["compare", "--outdir", str(outdir), "--scores", *map(str, scores)],
                        [str(tmp_path / "nope.tsv")]),
            "generate": ([*_GENERATE, "--outdir", str(outdir)], []),
        }[command]
        if earlier_run:
            assert main(run) == 0
        else:
            outdir.mkdir()
        (outdir / name).write_text(content)
        before = _dir_bytes(outdir)
        assert main([*run, *missing]) == 1
        assert f"holds {name!r}" in capsys.readouterr().err
        assert _dir_bytes(outdir) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("first,second", [("a-b", "a_b"), ("components 1990", "1990")],
                             ids=["same-tag", "pca-components"])
    def test_colliding_phase_tags_exit_1_before_work(self, first, second, tmp_path, capsys):
        rc = main(["pipeline", "--set", f"corpus={tmp_path / 'nope.jsonl'}",
                   "--set", f"outdir={tmp_path / 'out'}",
                   "--set", f"phases={first}:1956-1990;{second}:1991-2008"])
        assert rc == 1
        err = capsys.readouterr().err
        assert f"'{first}'" in err and f"'{second}'" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("settings,label", [
        (["dampings=0.5,0.5000001"], "pagerank_d0.5"),
        (["dampings=0.5,0.5"], "pagerank_d0.5"),
    ], ids=["same-tag", "repeated-damping"])
    def test_colliding_pagerank_labels_exit_1_before_work(self, settings, label, tmp_path,
                                                          capsys):
        argv = ["pipeline", "--set", f"corpus={tmp_path / 'nope.jsonl'}",
                "--set", f"outdir={tmp_path / 'out'}"]
        assert main(argv + [a for entry in settings for a in ("--set", entry)]) == 1
        assert capsys.readouterr().err == (
            f"error: dampings give two PageRank variants the label {label!r}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("scores,labels,message", [
        (["a/x.tsv", "b/x.tsv"], [], "two score files have the label 'x'"),
        (["a.tsv", "b.tsv"], ["--labels", "p, p"], "two score files have the label 'p'"),
        (["a.tsv", "b.tsv"], ["--labels", "p"], "1 labels for 2 score files"),
        (["a.tsv", "b.tsv"], ["--labels", "x,"], "a score file has an empty label"),
        (["a.tsv", "b.tsv"], ["--labels", "a\tx,b"],
         "the score file label 'a\\tx' holds a tab, line break or comma"),
        (["we\tird.tsv", "b.tsv"], [],
         "the score file label 'we\\tird' holds a tab, line break or comma"),
        (["a,b.tsv", "c.tsv"], [], "the score file label 'a,b' holds a tab, line break or comma"),
        (["a\nb.tsv", "c.tsv"], [],
         "the score file label 'a\\nb' holds a tab, line break or comma"),
        (["a.tsv", "b.tsv"], ["--labels", "a\rx,b"],
         "the score file label 'a\\rx' holds a tab, line break or comma"),
    ], ids=["same-stem", "same-label", "label-count", "empty-label", "label-tab", "stem-tab",
            "stem-comma", "stem-newline", "label-carriage-return"])
    def test_score_labels_checked_before_files_are_read(self, scores, labels, message, tmp_path,
                                                        capsys):
        argv = ["compare", "--scores", *(f"{{t}}/{s}" for s in scores), *labels,
                "--winners", "{t}/w", "--outdir", "{t}/o"]
        assert main([a.format(t=tmp_path) for a in argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not any(tmp_path.iterdir())

    def test_import_does_not_load_scipy_stats(self):
        env = {**os.environ, "PYTHONPATH": str(Path(bibliorank.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, bibliorank.cli; print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


def _assert_distributions(score_files) -> None:
    """Each score file is finite, non-negative and sums to 1."""
    for path in score_files:
        scores = np.array([float(line.split("\t")[1]) for line in _read(path).splitlines()[1:]])
        assert np.all(np.isfinite(scores)) and np.all(scores >= 0), path.name
        assert abs(scores.sum() - 1.0) <= 1e-9, path.name


def _exit_0_or_one_error_line(argv, outdir) -> bool:
    """Run ``main(argv)``: True if it exits 0 and writes nothing to stderr,
    False if it exits 2 with one `error:` line and leaves no ``outdir``."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        rc = main(argv)
    if rc == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert not outdir.exists()
        return False
    assert rc == 0 and err.getvalue() == ""
    return True


def _assert_finite_correlations(outdir) -> None:
    """Every cell of each correlation file in ``outdir`` is finite."""
    for path in outdir.glob("correlation*.tsv"):
        for row in _read(path).splitlines()[1:]:
            cells = [float(cell.rstrip("*")) for cell in row.split("\t")[1:]]
            assert np.all(np.isfinite(cells)), path.name


_FLOAT_MAX = sys.float_info.max
_FLOAT_LIMITS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, _FLOAT_MAX, -_FLOAT_MAX])


@settings(derandomize=True, max_examples=40, deadline=None)
@given(columns=st.lists(st.lists(_FLOAT_LIMITS | st.floats(allow_nan=False, allow_infinity=False),
                                 min_size=5, max_size=5), min_size=2, max_size=3),
       subset_size=st.integers(4, 5))
def test_float_limit_scores_give_finite_correlations_or_one_error_line(columns, subset_size):
    """``compare`` on score files at the float limits either exits 2 with one
    `error:` line, or writes a Spearman matrix whose cells are finite."""
    with tempfile.TemporaryDirectory() as tmp:
        paths, outdir = [Path(tmp) / f"s{j}.tsv" for j in range(len(columns))], Path(tmp) / "out"
        for path, column in zip(paths, columns):
            path.write_text("author\tscore\n" + "".join(f"A{i}\t{x!r}\n"
                                                         for i, x in enumerate(column)))
        (Path(tmp) / "w.txt").write_text("A0\nA3\n")
        if _exit_0_or_one_error_line(["compare", "--scores", *map(str, paths),
                                      "--subset-size", str(subset_size),
                                      "--winners", str(Path(tmp) / "w.txt"),
                                      "--outdir", str(outdir)], outdir):
            _assert_finite_correlations(outdir)


@functools.cache
def _small_corpus() -> tuple[str, list]:
    """The text of a 60-paper synthetic corpus and its (venue, year) pairs."""
    c = generate_synthetic(seed=3, n_papers=60, n_authors=20)
    text = io.StringIO()
    corpus_mod.serialize_corpus(c, text)
    return text.getvalue(), sorted(pipe_mod.generate_impact_factors(c, 3).factors)


@settings(derandomize=True, max_examples=10, deadline=None)
@given(factors=st.lists(st.sampled_from([_FLOAT_MAX, _FLOAT_MAX / 2, _FLOAT_MAX / 64,
                                         _FLOAT_MAX / 1024, 5e-324, 0.0]),
                        min_size=1, max_size=4))
@example(factors=[_FLOAT_MAX / 1024])
@example(factors=[_FLOAT_MAX])
def test_impact_factors_near_float_max_give_sound_outputs_or_one_error_line(factors):
    """``pipeline`` with impact factors near the float maximum either exits 2
    with one `error:` line, or writes finite correlations and PageRank files
    that are distributions."""
    text, pairs = _small_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        corpus, if_table, outdir = Path(tmp) / "c.jsonl", Path(tmp) / "if.tsv", Path(tmp) / "out"
        corpus.write_text(text)
        if_table.write_text("".join(f"{venue}\t{year}\t{factors[k % len(factors)]!r}\n"
                                    for k, (venue, year) in enumerate(pairs)))
        if _exit_0_or_one_error_line(["pipeline", "--set", f"corpus={corpus}",
                                      "--set", f"if_table={if_table}",
                                      "--set", "phases=1956-2008", "--set", "subset_size=14",
                                      "--set", f"outdir={outdir}"], outdir):
            _assert_finite_correlations(outdir)
            files = sorted(outdir.glob("indicator_*_pagerank*.tsv"))
            assert len(files) == 9
            _assert_distributions(files)


class TestCompareCommand:
    def test_identical_rank_files_r_one(self, tmp_path):
        f1 = tmp_path / "s1.tsv"
        f2 = tmp_path / "s2.tsv"
        body = "author\tscore\n" + "".join(f"A{i:02d}\t{i}\n" for i in range(12))
        f1.write_text(body)
        f2.write_text(body)
        out = tmp_path / "out"
        assert main(["compare", "--scores", str(f1), str(f2),
                     "--subset-size", "12", "--outdir", str(out)]) == 0
        rows = _read(out / "correlation.tsv").splitlines()
        assert rows[1].split("\t")[2] == "1.000"

    def test_fixture_counts(self, tmp_path):
        scores = tmp_path / "ind.tsv"
        scores.write_text(
            "author\tscore\n" + "".join(f"A{i:03d}\t{1000 - i}\n" for i in range(1, 61))
        )
        winners = tmp_path / "winners.txt"
        winners.write_text("A002\nA008\nA030\n# comment line\n")
        out = tmp_path / "out"
        assert main(["compare", "--scores", str(scores), "--winners", str(winners),
                     "--outdir", str(out)]) == 0
        rows = _read(out / "coverage.csv").splitlines()
        assert rows[0] == "indicator,top@5,top@10,top@20,top@50"
        assert rows[1].split(",")[1:] == ["1", "2", "2", "3"]

    def test_missing_winners_recorded_in_the_manifest(self, tmp_path, capsys):
        scores = tmp_path / "ind.tsv"
        scores.write_text("author\tscore\nA001\t2\nA002\t1\n")
        winners = tmp_path / "winners.txt"
        winners.write_text("A002\nNOBODY\n")
        out = tmp_path / "out"
        assert main(["compare", "--scores", str(scores), "--winners", str(winners),
                     "--outdir", str(out)]) == 0
        manifest = json.loads(_read(out / "manifest.json"))
        assert capsys.readouterr() == (
            f"wrote {len(manifest['files'])} files and a manifest to {out}\n", "")
        assert manifest["stats"]["winners_missing"] == ["NOBODY"]
        assert "coverage.csv" in manifest["files"]

    def test_without_winners_no_coverage_is_written(self, tmp_path):
        scores = tmp_path / "ind.tsv"
        scores.write_text("author\tscore\nA001\t2\nA002\t1\nA003\t0\n")
        out = tmp_path / "out"
        assert main(["compare", "--scores", str(scores), str(scores), "--labels", "a,b",
                     "--outdir", str(out)]) == 0
        manifest = json.loads(_read(out / "manifest.json"))
        assert sorted(manifest["files"]) == [
            "correlation.tsv", "pca.tsv", "pca_components.tsv", "table.tsv"]
        assert sorted(manifest["stats"]) == ["pca_explained", "pca_retained"]

    def test_score_files_of_different_authors_exit_2(self, tmp_path, capsys):
        """Score files over different authors are refused before any file is
        written, and an earlier run in the outdir stays as it was."""
        s1, s2, winners = tmp_path / "s1.tsv", tmp_path / "s2.tsv", tmp_path / "w.txt"
        s1.write_text("author\tscore\nA\t3\nB\t2\nC\t1\nE\t0\n")
        s2.write_text("author\tscore\nD\t9\nA\t3\nB\t2\nC\t1\n")
        winners.write_text("D\n")
        out = tmp_path / "out"

        def compare(first, second):
            return main(["compare", "--scores", str(first), str(second), "--labels", "a,b",
                         "--subset-size", "3", "--winners", str(winners),
                         "--outdir", str(out)])

        error = ("", "error: score vectors 'a' and 'b' list different authors\n")
        assert compare(s1, s2) == 2
        assert capsys.readouterr() == error
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s1.tsv", "s2.tsv", "w.txt"]
        assert compare(s1, s1) == 0
        capsys.readouterr()
        earlier = _tree_bytes(tmp_path)
        assert compare(s1, s2) == 2
        assert capsys.readouterr() == error
        assert _tree_bytes(tmp_path) == earlier

    def test_skipped_stats_write_the_table_and_exit_0(self, tmp_path):
        """Where the pipeline records `stats_skipped` for a phase whose rank
        table has no correlation, compare writes only the table and records
        the same entry."""
        corpus = _generate(tmp_path / "c", 1, 60, 20)
        pipe = tmp_path / "pipe"
        pipeline = run_pipeline(RunConfig(corpus=str(corpus), outdir=str(pipe)))
        skipped = [label for label, info in pipeline["phases"].items()
                   if "stats_skipped" in info
                   and f"correlation_{pipe_mod.phase_tag(label)}.tsv" not in pipeline["files"]]
        assert skipped
        for label in skipped:
            tag = pipe_mod.phase_tag(label)
            names = _read(pipe / f"table_{tag}.tsv").split("\n")[0].split("\t")[1:]
            out = tmp_path / f"compare_{tag}"
            assert main(["compare", "--scores", *(str(pipe / f"indicator_{tag}_{name}.tsv")
                                                 for name in names),
                         "--labels", ",".join(names), "--tag", label, "--outdir", str(out)]) == 0
            manifest = json.loads(_read(out / "manifest.json"))
            assert manifest["stats"] == {
                "stats_skipped": pipeline["phases"][label]["stats_skipped"]}
            assert manifest["files"] == {f"table_{tag}.tsv": pipeline["files"][f"table_{tag}.tsv"]}


class TestRunConfig:
    def test_unknown_key_rejected(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError, match="unknown config key"):
            apply_config_entry(cfg, "bogus", "1")

    def test_config_file_with_overrides(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text(
            "seed = 3\n"
            "outdir = out  # comment\n"
            "dampings = 0.15,0.85\n"
            "skew = 1.5\n"
        )
        cfg = load_config(str(f), overrides=["subset_size=40"])
        assert cfg.seed == 3
        assert cfg.dampings == (0.15, 0.85)
        assert cfg.skew == 1.5
        assert cfg.subset_size == 40

    def test_hash_begins_a_comment_only_first_or_after_whitespace(self, small_run, tmp_path,
                                                                   monkeypatch, capsys):
        """`outdir = run#2` names `run#2`, as `--set outdir=run#2` does; it
        once cut the value to `run` and the run went there."""
        _, corpus, _, _ = small_run
        monkeypatch.chdir(tmp_path)
        Path("c.cfg").write_text(f"# a run\ncorpus = {corpus}\noutdir = run#2\t# its outdir\n"
                                 "  # subset_size = 3\nsubset_size = 20 #20\n")
        flag = load_config(None, ["seed=1", "outdir=run#2"])
        assert load_config("c.cfg").outdir == flag.outdir == "run#2"
        assert main(["pipeline", "--config", "c.cfg", "--set", "phases=1956-1990"]) == 0
        assert capsys.readouterr().out.startswith("pipeline complete: 19 files in run#2 ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "run#2"]
        assert json.loads(_read("run#2/manifest.json"))["config"]["subset_size"] == 20

    def test_indicator_count_is_the_table_columns(self, small_run):
        _, corpus, if_table, outdir = small_run
        cfg = RunConfig(corpus=str(corpus), if_table=str(if_table))
        header = _read(sorted(Path(outdir).glob("table_*.tsv"))[0]).split("\n", 1)[0]
        assert cfg.indicator_count() == len(header.split("\t")) - 1

    def test_requires_corpus_or_seed(self):
        with pytest.raises(ConfigError):
            RunConfig().validate()

    def test_config_hash_stable(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != RunConfig(seed=2).config_hash()

    def test_config_hash_follows_input_content_not_paths(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        _generate(a, 1, 80, 30)
        (a / "winners.txt").write_text("Auth, 000001.\n")
        shutil.copytree(a, b)

        def config(inputs, out):
            return RunConfig(corpus=str(inputs / "corpus.jsonl"),
                             if_table=str(inputs / "impact_factors.tsv"),
                             winners=str(inputs / "winners.txt"), outdir=str(tmp_path / out),
                             subset_size=20)

        ma, mb = run_pipeline(config(a, "out_a")), run_pipeline(config(b, "out_b"))
        assert ma["config"]["corpus"] == str(a / "corpus.jsonl")
        assert ma["config_hash"] == mb["config_hash"]
        assert ma["inputs"] == mb["inputs"]
        assert ma["inputs"] == {
            key: hashlib.sha256((a / name).read_bytes()).hexdigest()
            for key, name in (("corpus", "corpus.jsonl"), ("if_table", "impact_factors.tsv"),
                              ("winners", "winners.txt"))
        }
        with open(b / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")  # one byte more, the same corpus
        assert config(b, "out_b").config_hash() != ma["config_hash"]

    @pytest.mark.parametrize("key,value,want", [
        ("seed", "7", 7),
        ("skew", "2.5", 2.5),
        ("allow_self_citation", "off", False),
        ("dampings", "0.5,0.85", (0.5, 0.85)),
        ("winners", " w.txt ", "w.txt"),
    ])
    def test_value_parsed_by_field_type(self, key, value, want):
        cfg = RunConfig()
        apply_config_entry(cfg, key, value)
        assert repr(getattr(cfg, key)) == repr(want)  # equal values of equal types


# A valid value of each config key whose value is not free text; a junk
# character anywhere in it makes it malformed.
_SET_SAMPLES = {
    "phases": "1956-1990", "dampings": "0.5,0.85", "subset_size": "30",
    "allow_self_citation": "true",
    "seed": "1", "n_papers": "100", "n_authors": "50", "skew": "1.5",
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(key=st.sampled_from(sorted(_SET_SAMPLES)),
       junk=st.text(alphabet="@#!?%&*", min_size=1, max_size=3),
       at=st.integers(min_value=0, max_value=20))
def test_malformed_set_value_exit_1_names_key(key, junk, at):
    sample = _SET_SAMPLES[key]
    at = min(at, len(sample))
    value = sample[:at] + junk + sample[at:]
    with pytest.raises(ConfigError, match=key):
        load_config(None, overrides=["seed=1", f"{key}={value}"])
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["pipeline", "--set", "seed=1", "--set", f"{key}={value}"]) == 1
    assert err.getvalue().startswith("error: ") and key in err.getvalue()
    assert "Traceback" not in err.getvalue()


# A bad value of each setting that a stage subcommand shares with the
# pipeline: (config key, value, the stage's argv, the one error message).
# {m} is an input path that does not exist and {o} an output path.
_INDICATORS = ["indicators", "--corpus", "{m}"]
_SHARED_SETTINGS = [
    ("dampings", "1.5", [*_INDICATORS, "--dampings", "1.5", "--outdir", "{o}"],
     "dampings must be in [0, 1), got 1.5"),
    ("dampings", "0.5,0.50", [*_INDICATORS, "--dampings", "0.5,0.50", "--outdir", "{o}"],
     "dampings give two PageRank variants the label 'pagerank_d0.5'"),
    ("dampings", "0.99999", [*_INDICATORS, "--dampings", "0.99999", "--outdir", "{o}"],
     "dampings: 0.99999 needs up to 2832405 iterations, more than the 100000 a solve may take"),
    ("subset_size", "2", ["compare", "--scores", "{m}", "{m}", "--subset-size", "2",
                          "--outdir", "{o}"],
     "subset_size must be >= 3, got 2"),
    ("subset_size", "12", ["compare", "--scores", *["{m}"] * 12, "--subset-size", "12",
                           "--outdir", "{o}"],
     "subset_size must be larger than the 12 indicators for PCA, got 12"),
]


# Ids name the setting, and its stage where that is not indicators.
@pytest.mark.parametrize("key,value,stage,message", _SHARED_SETTINGS,
                         ids=[f"{s[0]}={s[1]}" if s[2][0] == "indicators" else
                              f"{s[2][0]}-{s[0]}={s[1]}" for s in _SHARED_SETTINGS])
def test_bad_setting_same_error_in_pipeline_and_stage_before_reading(
        key, value, stage, message, tmp_path, capsys):
    missing, out = tmp_path / "missing", tmp_path / "out"
    pipeline = ["pipeline", "--set", f"corpus={missing}", "--set", f"outdir={out}",
                "--set", f"{key}={value}"]
    for argv in (pipeline, [a.format(m=missing, o=out) for a in stage]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
        assert not any(tmp_path.iterdir())


# Every flag that sets a config key: (command, flag, key).
_KEY_FLAGS = [
    ("generate", "--seed", "seed"), ("generate", "--papers", "n_papers"),
    ("generate", "--authors", "n_authors"), ("generate", "--skew", "skew"),
    ("ingest", "--phases", "phases"),
    ("indicators", "--dampings", "dampings"),
    ("compare", "--subset-size", "subset_size"),
]


def _subcommands() -> dict:
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_every_key_flag_is_declared_from_its_key():
    declared = []
    for command, parser in _subcommands().items():
        for action in parser._actions:
            assert action.type not in (int, float), (command, action.dest)
            if isinstance(action.type, functools.partial):
                assert action.type.func is parse_setting
                assert action.type.keywords == {"name": action.option_strings[0]}
                declared.append((command, action.option_strings[0], action))
    assert [(command, flag) for command, flag, _ in declared] == [
        (command, flag) for command, flag, _ in _KEY_FLAGS]
    for (command, flag, action), (_, _, key) in zip(declared, _KEY_FLAGS):
        parse, default = _FIELD_PARSERS[key], getattr(RunConfig, key)
        assert action.type.args == (parse,), (command, flag)
        assert action.default == (None if action.required else default), (command, flag)
    required = {(c, a.option_strings[0]) for c, _, a in declared if a.required}
    assert required == {("generate", "--seed"), ("generate", "--papers"),
                        ("generate", "--authors")}


# Each command's required flags, with an input {m} that does not exist and
# an output {o}; compare takes the pipeline's 12 indicators without an IF table.
_REQUIRED_FLAGS = {
    "generate": ["--seed", "1", "--papers", "50", "--authors", "20", "--outdir", "{o}"],
    "ingest": ["--corpus", "{m}", "--outdir", "{o}"],
    "indicators": ["--corpus", "{m}", "--outdir", "{o}"],
    "compare": ["--scores", *["{m}"] * 12, "--outdir", "{o}"],
}
# A malformed value for each flag of _KEY_FLAGS, in the same order.
_MALFORMED_FLAG_VALUES = ["x", "1.5", "", "abc", "1990", "0.5x", "3.5"]


@pytest.mark.parametrize("command,flag,key,value", [
    (*flag, value) for flag, value in zip(_KEY_FLAGS, _MALFORMED_FLAG_VALUES, strict=True)],
    ids=[f"{c} {f}" for c, f, _ in _KEY_FLAGS])
def test_flag_and_set_refuse_a_malformed_value_alike(command, flag, key, value, tmp_path,
                                                     capsys):
    missing, out = tmp_path / "missing", tmp_path / "out"
    assert main(["pipeline", "--set", f"corpus={missing}", "--set", f"outdir={out}",
                 "--set", f"{key}={value}"]) == 1
    stdout, by_key = capsys.readouterr()
    assert stdout == "" and by_key.startswith("error: ") and by_key.count("\n") == 1
    argv = [command, *(a.format(m=missing, o=out) for a in _REQUIRED_FLAGS[command]),
            flag, value]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", by_key.replace(f"config key {key!r}", flag))
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv,message", [
    (["compare", "--scores", "{t}/a", "{t}/b", "--labels", "\udcff,b", "--outdir", "{t}/out"],
     "the score file label '\\udcff' is not valid UTF-8"),
    (["compare", "--scores", "{t}/\udcff.tsv", "{t}/b.tsv", "--outdir", "{t}/out"],
     "the score file label '\\udcff' is not valid UTF-8"),
    (["indicators", "--corpus", "{t}/c", "--outdir", "{t}/good", "--tag", "\udcff"],
     "argument --tag: '\\udcff' is not valid UTF-8"),
    (["ingest", "--corpus", "{t}/c", "--outdir", "{t}/good", "--phases", "\udcff:1956-2008"],
     "invalid phases entry '\\udcff:1956-2008': the label is not valid UTF-8"),
    (["pipeline", "--set", "seed=1", "--set", "outdir={t}/good",
      "--set", "phases=1956-1990;x\udcff:1991-2008"],
     "invalid phases entry 'x\\udcff:1991-2008': the label is not valid UTF-8"),
], ids=["compare-labels", "compare-file-stem", "indicators-tag", "ingest-phases",
        "pipeline-phases"])
def test_argument_written_into_an_output_must_be_utf8(argv, message, tmp_path, capsys):
    """A non-UTF-8 byte of argv reaches Python as a lone surrogate, \\udcff
    for 0xff; an argument that is written into an output is refused before
    any work, and an existing output is kept."""
    good = tmp_path / "good"
    good.write_text("kept\n")
    assert main([a.format(t=tmp_path) for a in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["good"]
    assert good.read_text() == "kept\n"


_BOM_CORPUS = json.dumps({"id": "p1", "author": "A", "year": 2000, "source": "J",
                          "refs": [{"author": "B", "year": 1999, "source": "K"}]}) + "\n"


@pytest.mark.parametrize("read,text", [
    (load_winners, "Auth, 000001.\nAUTH 000002\n"),
    (load_config, "seed = 3\nsubset_size = 30\n"),
    (lambda path: corpus_records(corpus_mod.parse_corpus(path)), _BOM_CORPUS),
    (lambda path: ind_mod.load_impact_factors(path).factors, "J. Test\t1990\t2.5\n"),
    (lambda path: vars(ind_mod.load_indicator(path, "s")), "author\tscore\nA\t1\nB\t2\n"),
], ids=["winners", "config", "corpus", "if_table", "scores"])
def test_byte_order_mark_of_a_text_input_is_dropped(read, text, tmp_path):
    """A file that starts with the UTF-8 byte-order mark, as some editors
    write it, reads as the same file without it."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == codecs.BOM_UTF8 + plain.read_bytes()
    assert repr(read(marked)) == repr(read(plain))
    if read is load_winners:
        assert read(marked) == ["AUTH 000001", "AUTH 000002"]


@contextlib.contextmanager
def _failing(command, monkeypatch):
    """Where ``command`` fails on a bad input file; ``generate``, which
    reads none, fails at its corpus writer instead."""
    with monkeypatch.context() as patch:
        if command == "generate":
            patch.setattr(corpus_mod, "serialize_corpus", _fail_part_way)
        yield


def _fail_part_way(*args):
    """A writer that writes part of its output to its stream, the last
    argument, and then finds the disk full."""
    args[-1].write("partial\n")
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("module,writer,argv,earlier_run", [
    # generate failing at its corpus, then at its impact-factor table, over an earlier run
    (corpus_mod, "serialize_corpus", [*_GENERATE, "--outdir", "{t}/run"], True),
    (pipe_mod, "dump_impact_factors", [*_GENERATE, "--outdir", "{t}/run"], True),
    (ind_mod, "dump_indicator",  # a run directory: none is left, nor its stage
     ["indicators", "--corpus", "{corpus}", "--outdir", "{t}/run"], False),
    # compare failing in each step of the comparison: correlate, pca, evaluate
    *[(pipe_mod, writer,
       ["compare", "--scores", "{a}", "{b}", "--subset-size", "20", "--winners", "{t}/w.txt",
        "--outdir", "{t}/run"], False)
      for writer in ("write_correlation", "write_pca", "write_coverage")],
], ids=["generate-out", "generate-impact-factors", "indicators", "correlate", "pca",
        "evaluate"])
def test_failed_write_keeps_the_existing_output(module, writer, argv, earlier_run, small_run,
                                                tmp_path, monkeypatch, capsys):
    _, _, _, outdir = small_run
    a, b = sorted(Path(outdir).glob("indicator_1991_2000_*.tsv"))[:2]
    corpus = sorted(Path(outdir).glob("corpus_*.jsonl"))[0]
    (tmp_path / "w.txt").write_text("AUTH 000001\n")
    argv = [x.format(t=tmp_path, a=a, b=b, corpus=corpus) for x in argv]
    if earlier_run:
        assert main(argv) == 0
    before = _tree_bytes(tmp_path)
    monkeypatch.setattr(module, writer, _fail_part_way)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert _tree_bytes(tmp_path) == before  # an earlier run is unchanged, and no stage is left


def test_lone_surrogate_corpus_exit_2_names_line_field_and_file(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    record = {"id": "p1", "author": "A", "year": 2000, "source": "J",
              "refs": [{"author": "B", "year": 1999, "source": "K"}]}
    bad = {**record, "id": "p2", "refs": [{"author": "\ud800", "year": 1999, "source": "K"}]}
    corpus.write_text(f"{json.dumps(record)}\n\n{json.dumps(bad)}\n")
    assert '"\\ud800"' in corpus.read_text()  # the escape, in an ASCII file
    outdir = tmp_path / "out"
    for argv in (["pipeline", "--set", f"corpus={corpus}", "--set", f"outdir={outdir}"],
                 ["ingest", "--corpus", str(corpus), "--outdir", str(outdir)],
                 ["indicators", "--corpus", str(corpus), "--outdir", str(outdir)]):
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: line 3: string holds a lone surrogate, which is not valid UTF-8 "
            f"(field: refs.author) in {corpus}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]


# The JSON strings of the corpus below: plain text amid control characters
# and NUL, non-BMP characters, and characters that JSON writes as escapes.
# A lone surrogate is put into one string of some corpora.
_ODD_TEXT = st.lists(st.one_of(
    st.sampled_from(['"', "\\", "/", " ", ",", ".", "\x7f", "\ufeff", "\ufffd"]),
    st.integers(0, 0x1F).map(chr),
    st.integers(0x10000, 0x10FFFF).map(chr),
), max_size=2).map("".join)
_JSON_STRINGS = st.tuples(_ODD_TEXT, st.text(alphabet="abcXYZ", min_size=1, max_size=3),
                          _ODD_TEXT).map("".join)


@st.composite
def _odd_string_corpus(draw) -> list[dict]:
    """Two or three records whose string fields are arbitrary JSON strings."""
    records = []
    for i in range(draw(st.integers(2, 3))):
        refs = [{"author": draw(_JSON_STRINGS), "year": 1990, "source": draw(_JSON_STRINGS),
                 "volume": draw(_JSON_STRINGS), "page": draw(_JSON_STRINGS)}
                for _ in range(draw(st.integers(1, 2)))]
        records.append({"id": f"p{i}" + draw(_JSON_STRINGS), "author": draw(_JSON_STRINGS),
                        "year": 2000, "source": draw(_JSON_STRINGS),
                        "volume": draw(_JSON_STRINGS), "page": draw(_JSON_STRINGS),
                        "refs": refs})
    if draw(st.booleans()):
        record = draw(st.sampled_from(records))
        where = draw(st.sampled_from([record, *record["refs"]]))
        key = draw(st.sampled_from(sorted(k for k in where if isinstance(where[k], str))))
        at = draw(st.integers(0, len(where[key])))
        where[key] = where[key][:at] + chr(draw(st.integers(0xD800, 0xDFFF))) + where[key][at:]
    return records


@settings(derandomize=True, max_examples=40, deadline=None)
@given(records=_odd_string_corpus(), ascii_only=st.booleans())
def test_any_json_string_in_a_corpus_gives_a_run_or_one_error_line(records, ascii_only):
    """A run on a corpus exits 0 when UTF-8 can encode each of its strings,
    and otherwise 2 with one `error:` line; no exception leaves ``main``.
    With ``ascii_only`` every character that is not ASCII is a JSON escape;
    otherwise it is written as UTF-8, and a lone surrogate as the bytes
    that are not UTF-8 (surrogatepass)."""
    text = "".join(json.dumps(r, ensure_ascii=ascii_only) + "\n" for r in records)
    with tempfile.TemporaryDirectory() as tmp:
        corpus, outdir = Path(tmp) / "c.jsonl", Path(tmp) / "out"
        corpus.write_bytes(text.encode("utf-8", "surrogatepass"))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["pipeline", "--set", f"corpus={corpus}", "--set", f"outdir={outdir}",
                       "--set", "subset_size=13", "--set", "phases=1956-2008"])
        assert (rc == 0) == corpus_mod.encodes(json.dumps(records, ensure_ascii=False))
        if rc == 0:
            assert err.getvalue() == ""
            assert (outdir / "manifest.json").is_file()
        else:
            assert rc == 2
            assert err.getvalue().startswith("error: line ") and err.getvalue().count("\n") == 1
            assert err.getvalue().endswith(f" in {corpus}\n")
            assert not outdir.exists()


class TestPipeline:
    def test_rerun_byte_identical(self, small_run, tmp_path):
        root, corpus, if_table, outdir = small_run
        outdir2 = tmp_path / "again"
        assert main([
            "pipeline",
            "--set", f"corpus={corpus}",
            "--set", f"outdir={outdir2}",
            "--set", f"if_table={if_table}",
            "--set", "subset_size=30",
        ]) == 0
        a = _dir_bytes(outdir)
        b = _dir_bytes(outdir2)
        # manifest embeds the outdir path inside config; compare files only
        a_manifest = json.loads(a.pop("manifest.json"))
        b_manifest = json.loads(b.pop("manifest.json"))
        assert a == b
        assert a_manifest["files"] == b_manifest["files"]

    def test_thirteen_indicator_columns(self, small_run):
        _, _, _, outdir = small_run
        tables = sorted(Path(outdir).glob("table_*.tsv"))
        assert tables
        header = _read(tables[0]).splitlines()[0].split("\t")
        assert len(header) == 1 + 13  # author + 13 indicators

    def test_manifest_diagnostics(self, small_run):
        _, _, _, outdir = small_run
        manifest = json.loads(_read(Path(outdir) / "manifest.json"))
        assert manifest["config_hash"]
        phase = next(iter(manifest["phases"].values()))
        diag = phase["diagnostics"]
        assert diag["pagerank_d0.15"]["converged"]
        solves = {label: v for label, v in diag.items() if label.startswith("pagerank")}
        assert len(solves) == 9
        for label, v in solves.items():
            d = float(label.rsplit("_d", 1)[1])
            assert v["error_bound"] == d / (1 - d) * v["final_residual"]

    def test_manifest_counts_unmatched_references(self, small_run):
        _, _, _, outdir = small_run
        manifest = json.loads(_read(Path(outdir) / "manifest.json"))
        for label, info in manifest["phases"].items():
            tag = "".join(ch if ch.isalnum() else "_" for ch in label)
            with open(Path(outdir) / f"corpus_{tag}.jsonl", encoding="utf-8") as fh:
                records = parse_corpus_loop(fh)
            assert info["diagnostics"]["unmatched_references"] == \
                unmatched_references_loop(records) > 0

    @pytest.mark.parametrize("command", ["pipeline", "ingest"])
    def test_manifest_counts_the_references_of_each_phase_corpus(self, command, small_run,
                                                                 tmp_path):
        """A used phase's `references` is the count its corpus copy holds;
        a skipped phase, which writes no copy, has none."""
        _, corpus, _, outdir = small_run
        if command == "ingest":  # the first phase has no papers
            outdir = tmp_path / "ingest"
            assert main(["ingest", "--corpus", str(corpus), "--outdir", str(outdir),
                         "--phases", "1900-1950;1956-1990;1991-2008"]) == 0
        phases = json.loads(_read(Path(outdir) / "manifest.json"))["phases"]
        assert all(("references" in info) != ("skipped" in info) for info in phases.values())
        used = {label: info for label, info in phases.items() if "skipped" not in info}
        assert len(used) >= 2
        for label, info in used.items():
            path = Path(outdir) / f"corpus_{pipe_mod.phase_tag(label)}.jsonl"
            with open(path, encoding="utf-8") as fh:
                assert info["references"] == sum(len(json.loads(line)["refs"]) for line in fh) > 0

    def test_manifest_versions(self, small_run):
        _, _, _, outdir = small_run
        manifest = json.loads(_read(Path(outdir) / "manifest.json"))
        assert manifest["versions"] == {
            "bibliorank": bibliorank.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }

    def test_one_spearman_matrix_per_phase(self, tmp_path, monkeypatch):
        """The correlation table and the PCA of a phase share one
        ``rank_correlations`` call, also in the phases whose stats are skipped."""
        corpus = _generate(tmp_path / "c", 1, 60, 20)
        calls, real = [], stats_mod.rank_correlations

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(stats_mod, "rank_correlations", counted)
        outdir = tmp_path / "out"
        manifest = run_pipeline(RunConfig(corpus=str(corpus), outdir=str(outdir)))
        tables = sorted(outdir.glob("table_*.tsv"))
        skipped = [info["stats_skipped"] for info in manifest["phases"].values()
                   if "stats_skipped" in info]
        assert len(calls) == len(tables) == 4
        assert len(skipped) == 3  # one phase too small for the PCA, two degenerate

    def test_synthetic_mode_without_corpus_file(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = RunConfig(seed=5, n_papers=150, n_authors=60, outdir=str(outdir),
                        subset_size=20)
        manifest = run_pipeline(cfg)
        assert manifest["input_papers"] == 150


def _run_stage_chain(root, allow_self_citation):
    """generate, ingest and per phase indicators and compare, 10 commands
    for the 4 phases, each command writing into its own directory.  Returns
    the sha256 of each written file but manifest.json, per command, the
    pipeline's manifest and the `indicators` manifest of each phase label."""
    cfg = RunConfig(seed=1, n_papers=300, n_authors=150, subset_size=20,
                    allow_self_citation=allow_self_citation,
                    winners=str(root / "winners.txt"), outdir=str(root / "pipe"))
    # Raw spellings; the last id is past every generated author.
    Path(cfg.winners).write_text("".join(f"Auth, {i:06d}.\n" for i in range(0, 151, 10)))
    pipeline = run_pipeline(cfg)
    chain = root / "chain"

    def run(*argv):
        """(exit code, stderr) of one command."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main([str(a) for a in argv]), err.getvalue()

    assert run("generate", "--seed", cfg.seed, "--papers", cfg.n_papers,
               "--authors", cfg.n_authors, "--outdir", chain / "generate") == (0, "")
    synthetic = json.loads(_read(chain / "generate" / "manifest.json"))["synthetic"]
    assert synthetic.items() >= {key: pipeline["config"][key] for key in
                                 ("seed", "n_papers", "n_authors", "skew")}.items()
    assert run("ingest", "--corpus", chain / "generate" / "corpus.jsonl",
               "--outdir", chain / "ingest") == (0, "")
    skipped = [label for label, info in pipeline["phases"].items() if "stats_skipped" in info]
    assert 0 < len(skipped) < len(pipeline["phases"])
    indicators = {}
    for label, info in pipeline["phases"].items():
        tag = pipe_mod.phase_tag(label)
        stage = chain / f"indicators_{tag}"
        assert run("indicators", "--corpus", chain / "ingest" / f"corpus_{tag}.jsonl",
                   "--outdir", stage, "--tag", label,
                   "--if-table", chain / "generate" / "impact_factors.tsv",
                   *([] if allow_self_citation else ["--drop-self-citations"])) == (0, "")
        indicators[label] = json.loads(_read(stage / "manifest.json"))
        for key in ("papers", "papers_without_references", "papers_used", "references",
                    "graph", "diagnostics"):
            assert indicators[label][key] == info[key], key
        names = _read(root / "pipe" / f"table_{tag}.tsv").split("\n")[0].split("\t")[1:]
        assert run("compare", "--scores",
                   *(stage / f"indicator_{tag}_{name}.tsv" for name in names),
                   "--labels", ",".join(names), "--tag", label, "--subset-size", cfg.subset_size,
                   "--winners", cfg.winners, "--outdir", chain / f"compare_{tag}") == (0, "")
        stats = json.loads(_read(chain / f"compare_{tag}" / "manifest.json"))["stats"]
        assert stats == {key: info[key] for key in ("pca_retained", "pca_explained",
                                                    "stats_skipped", "winners_missing")
                         if key in info}

    written = {}
    for p in chain.glob("*/*"):
        if p.name != "manifest.json":
            command = p.parent.name.split("_")[0]
            written.setdefault(command, {})[p.name] = pipe_mod.file_sha256(p)
    return written, pipeline, indicators


@pytest.fixture(scope="class")
def stage_chain(tmp_path_factory):
    """stage_chain(allow_self_citation) runs the stage chain of
    `_run_stage_chain` once per class and setting and returns its result."""
    return functools.cache(
        lambda allow: _run_stage_chain(tmp_path_factory.mktemp("chain"), allow))


def _assert_stage_matches_pipeline(stage_chain, command, part=""):
    """Every file `command` wrote in the self-citing chain whose name holds
    `part` has the pipeline's bytes; names each that does not.  Each
    `indicators` manifest's `diagnostics` holds the 3·len(dampings) solve
    entries of the pipeline's phase."""
    written, pipeline, indicators = stage_chain(True)
    files = {name: digest for name, digest in written[command].items()
             if part in name}
    assert files
    assert sorted(name for name, digest in files.items()
                  if pipeline["files"].get(name) != digest) == []
    if command == "indicators":
        solves = [variant_label(kind, d) for kind in pr_mod.TELEPORTS
                  for d in pipeline["config"]["dampings"]]
        assert len(indicators) == len(pipeline["phases"]) and len(solves) == 9
        for label, manifest in indicators.items():
            diagnostics = pipeline["phases"][label]["diagnostics"]
            assert {name: manifest["diagnostics"].get(name) for name in solves} == {
                name: diagnostics[name] for name in solves}


class TestStageComposition:
    def test_ingest_stage_matches_pipeline(self, tmp_path, capsys):
        corpus = _generate(tmp_path / "c", 3, 300, 120)
        phases = "1900-1950;1956-2008"  # the first phase has no papers
        pipeline = run_pipeline(RunConfig(corpus=str(corpus), outdir=str(tmp_path / "pipe"),
                                          phases=parse_phases(phases), subset_size=20))
        capsys.readouterr()
        assert main(["ingest", "--corpus", str(corpus), "--outdir", str(tmp_path / "ingest"),
                     "--phases", phases]) == 0
        printed = json.loads(capsys.readouterr().out)
        manifest = json.loads(_read(tmp_path / "ingest" / "manifest.json"))
        assert printed == {key: v for key, v in manifest.items()
                           if key not in ("command", "files")}

        assert manifest["files"] == {
            name: digest for name, digest in pipeline["files"].items()
            if name.startswith("corpus_")}

        assert set(printed) == {"input_papers", "dropped_outside_phases", "phases"}
        for key in ("input_papers", "dropped_outside_phases"):
            assert printed[key] == pipeline[key]
        assert list(printed["phases"]) == list(pipeline["phases"])
        for label, info in printed["phases"].items():
            assert info == {key: pipeline["phases"][label][key] for key in info}
        assert printed["phases"]["1900-1950"]["skipped"]

    def test_indicators_counts_the_papers_as_a_pipeline_phase(self, tmp_path):
        """``indicators`` records the papers it reads, drops for having no
        references and uses, and their references, as a phase entry does."""
        corpus = tmp_path / "c.jsonl"
        cites = {"A": ["B", "C"], "B": ["A"], "C": []}  # C's paper has no references
        corpus.write_text("".join(json.dumps({
            "id": f"p{author}", "author": author, "year": 2000, "source": "J",
            "refs": [{"author": ref, "year": 1999, "source": "K"} for ref in refs]}) + "\n"
            for author, refs in cites.items()))
        pipeline = run_pipeline(RunConfig(corpus=str(corpus), outdir=str(tmp_path / "pipe"),
                                          phases=parse_phases("1956-2008"), subset_size=20))
        out = tmp_path / "indicators"
        assert main(["indicators", "--corpus", str(corpus), "--outdir", str(out)]) == 0
        manifest = json.loads(_read(out / "manifest.json"))
        counts = {"papers": 3, "papers_without_references": 1, "papers_used": 2, "references": 3}
        assert {key: manifest[key] for key in counts} == counts
        assert {key: pipeline["phases"]["1956-2008"][key] for key in counts} == counts

    @pytest.mark.parametrize("tag,file_tag", [("a/b", "a_b"), ("1981-1990", "1981_1990"),
                                              (None, None)])
    def test_indicators_tag_is_a_phase_tag(self, tag, file_tag, small_run, tmp_path):
        """``indicators --tag`` names its files, the classical and the
        PageRank ones, as the pipeline names a phase's."""
        _, _, _, outdir = small_run
        corpus = sorted(Path(outdir).glob("corpus_*.jsonl"))[0]
        stage_dir = tmp_path / "stage"
        tagged = ["--tag", tag] if tag else []
        assert main(["indicators", "--corpus", str(corpus), "--dampings", "0.5",
                     "--outdir", str(stage_dir), *tagged]) == 0
        t = f"_{file_tag}" if file_tag else ""
        names = ["popularity", "prestige", "h_index",
                 *(variant_label(kind, 0.5) for kind in pr_mod.TELEPORTS)]
        assert sorted(p.name for p in stage_dir.iterdir()) == sorted(
            [*(f"indicator{t}_{name}.tsv" for name in names),
             f"edges{t}.tsv", f"nodes{t}.tsv", "manifest.json"])

    def test_repeated_scores_flag_adds_files(self, small_run, tmp_path):
        _, _, _, outdir = small_run
        a, b = sorted(Path(outdir).glob("indicator_*.tsv"))[:2]
        once, twice = tmp_path / "once", tmp_path / "twice"
        assert main(["compare", "--scores", str(a), str(b), "--subset-size", "3",
                     "--outdir", str(once)]) == 0
        assert main(["compare", "--scores", str(a), "--scores", str(b), "--subset-size", "3",
                     "--outdir", str(twice)]) == 0
        assert _dir_bytes(twice) == _dir_bytes(once)
        assert _read(once / "table.tsv").splitlines()[0] == f"author\t{a.stem}\t{b.stem}"

    def test_rank_stage_matches_pipeline(self, stage_chain):
        """indicators writes the PageRank variants, with the pipeline's bytes."""
        _assert_stage_matches_pipeline(stage_chain, "indicators", "_pagerank")

    def test_indicators_stage_matches_pipeline(self, stage_chain):
        _assert_stage_matches_pipeline(stage_chain, "indicators")

    def test_compare_stage_matches_pipeline(self, stage_chain):
        _assert_stage_matches_pipeline(stage_chain, "compare")

    def test_correlate_stage_matches_pipeline(self, stage_chain):
        """compare writes correlation files, with the pipeline's bytes."""
        _assert_stage_matches_pipeline(stage_chain, "compare", "correlation_")

    def test_pca_stage_matches_pipeline(self, stage_chain):
        """compare writes PCA files, with the pipeline's bytes."""
        _assert_stage_matches_pipeline(stage_chain, "compare", "pca_")

    @pytest.mark.parametrize("allow_self_citation", [True, False])
    def test_stage_chain_reproduces_a_pipeline_run(self, allow_self_citation, stage_chain):
        written, pipeline, _ = stage_chain(allow_self_citation)
        expected = pipeline["files"]
        # generate's corpus.jsonl is the chain's input, which a pipeline run does not write
        digests = {name: digest for command, files in written.items()
                   for name, digest in files.items()
                   if (command, name) != ("generate", "corpus.jsonl")}
        assert sorted(name for name in digests.keys() | expected.keys()
                      if digests.get(name) != expected.get(name)) == []
