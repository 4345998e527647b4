import argparse
import contextlib
import errno
import functools
import hashlib
import io
import json
import os
import platform
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st

import bibliorank
from bibliorank import corpus as corpus_mod
from bibliorank import indicators as ind_mod
from bibliorank import pipeline as pipe_mod
from bibliorank.cli import OutputFile, build_parser, main
from bibliorank.corpus import check_synthetic, generate_synthetic
from bibliorank.errors import ConfigError, NonConvergenceError
from bibliorank.pagerank import variant_label
from bibliorank.pipeline import (
    _FIELD_PARSERS,
    RunConfig,
    _value_parser,
    apply_config_entry,
    default_of,
    load_config,
    open_output,
    parse_phases,
    parse_setting,
    run_pipeline,
)
from tests.oracles import parse_corpus_loop, unmatched_references_loop


def _read(path):
    return Path(path).read_text(encoding="utf-8")


def _dir_bytes(outdir):
    return {p.name: p.read_bytes() for p in sorted(Path(outdir).iterdir())}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One small synthetic pipeline run shared by the composition tests."""
    root = tmp_path_factory.mktemp("run")
    corpus = root / "corpus.jsonl"
    if_table = root / "if.tsv"
    assert main([
        "generate", "--seed", "1", "--papers", "400", "--authors", "150",
        "--skew", "1.0", "--out", str(corpus), "--if-table-out", str(if_table),
    ]) == 0
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
    def test_deterministic_files(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["generate", "--seed", "7", "--papers", "50",
                         "--authors", "20", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_sizes_exit_1(self, tmp_path):
        out = tmp_path / "x.jsonl"
        assert main(["generate", "--seed", "1", "--papers", "0",
                     "--authors", "5", "--out", str(out)]) == 1


class TestExitCodes:
    def test_missing_input_exit_2(self, tmp_path, capsys):
        rc = main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--outdir", str(tmp_path / "o")])
        assert rc == 2
        assert "nope.jsonl" in capsys.readouterr().err

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
        ["rank", "--edges", "{tmp}/e", "--damping", "abc", "--out", "{tmp}/o"],
        ["generate", "--seed", "1", "--papers", "x", "--authors", "5", "--out", "{tmp}/o"],
        ["correlate", "--scores", "{tmp}/s"],
        [],
    ], ids=["rank-damping", "generate-papers", "correlate-no-out", "no-command"])
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
        assert main(["evaluate", "--scores", str(scores), "--winners", str(winners),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: line 3: author string '.' is empty after normalization in {winners}\n")

    def test_winner_run_writes_nothing_to_stderr(self, tmp_path):
        winners = tmp_path / "winners.txt"
        winners.write_text("Auth, 000001.\nNobody, X.\n")
        outdir = tmp_path / "out"
        env = {**os.environ, "PYTHONPATH": str(Path(bibliorank.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bibliorank.cli", "pipeline", "--set", "seed=2",
             "--set", "n_papers=120", "--set", "n_authors=40", "--set", "subset_size=10",
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

    @pytest.mark.parametrize("bad", ["if_table", "winners", "scores", "nodes", "edges", "config"])
    def test_non_utf8_text_input_exit_2(self, bad, small_run, tmp_path, capsys):
        _, corpus, if_table, outdir = small_run
        inputs = {"if_table": if_table, "winners": tmp_path / "winners.txt",
                  "scores": sorted(Path(outdir).glob("indicator_*.tsv"))[0],
                  "nodes": sorted(Path(outdir).glob("nodes_*.tsv"))[0],
                  "edges": sorted(Path(outdir).glob("edges_*.tsv"))[0],
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
            "winners": ["evaluate", "--scores", i["scores"], "--winners", i["winners"],
                        "--out", str(tmp_path / "out")],
            "scores": ["evaluate", "--scores", i["scores"], "--winners", i["winners"],
                       "--out", str(tmp_path / "out")],
            "nodes": ["rank", "--edges", i["edges"], "--nodes", i["nodes"], "--damping", "0.5",
                      "--out", str(tmp_path / "out")],
            "edges": ["rank", "--edges", i["edges"], "--nodes", i["nodes"], "--damping", "0.5",
                      "--out", str(tmp_path / "out")],
        }[bad]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: line 1: not valid UTF-8 in {inputs[bad]}\n"
        assert not (tmp_path / "out").exists()

    def test_overlapping_phases_exit_1_before_work(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        main(["generate", "--seed", "1", "--papers", "20", "--authors", "10",
              "--out", str(corpus)])
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
        (["pca", "--scores", "{tmp}/nope", "--retention", "fixed:x",
          "--out-loadings", "{tmp}/l", "--out-components", "{tmp}/c"],
         "pca_retention must be kaiser or fixed:K with 1 <= K <= 1, the number of indicators, "
         "got 'fixed:x'"),
        (["evaluate", "--scores", "{tmp}/nope", "--ks", "5,x",
          "--winners", "{tmp}/w", "--out", "{tmp}/o"],
         "invalid value '5,x' for --ks: invalid literal for int() with base 10: 'x'"),
        (["ingest", "--corpus", "{tmp}/nope", "--outdir", "{tmp}/o",
          "--phases", " :1956-2008"],
         "invalid phases entry ':1956-2008': phase 1956-2008: the label is empty"),
        (["indicators", "--corpus", "{tmp}/nope", "--outdir", "{tmp}/o", "--tag", ""],
         "argument --tag: the tag is empty"),
        (["generate", "--seed", "1", "--papers", "5", "--authors", "5", "--year-lo", "x",
          "--out", "{tmp}/o"],
         "invalid value 'x' for --year-lo: invalid literal for int() with base 10: 'x'"),
        (["generate", "--seed", "1", "--papers", "5", "--authors", "5", "--year-hi", "1.5",
          "--out", "{tmp}/o"],
         "invalid value '1.5' for --year-hi: invalid literal for int() with base 10: '1.5'"),
    ], ids=["ingest-phases", "pca-retention", "evaluate-ks", "ingest-empty-label",
            "indicators-empty-tag", "generate-year-lo", "generate-year-hi"])
    def test_malformed_argument_exit_1_before_inputs_are_opened(self, argv, message, tmp_path,
                                                               capsys):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("row", ["A01\tx", "A01"], ids=["non-numeric", "short"])
    def test_malformed_score_row_exit_2(self, row, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        scores.write_text(f"author\tscore\nA00\t1\n{row}\n")
        assert main(["correlate", "--scores", str(scores), str(scores), "--labels", "a,b",
                     "--out", str(tmp_path / "corr.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and str(scores) in err

    @pytest.mark.parametrize("entry", [
        "n_papers=0", "n_authors=0", "skew=0", "phases=1956-1990;1980-2008", "phases=2000-1990",
        "dampings=0.5,1", "teleports=uniform,bogus", "prestige=top_fraction:2",
        "subset_size=2", "pca_retention=fixed:0", "pca_retention=fixed:14",
        "coverage_ks=10,5", "coverage_ks=5,5", "tolerance=0",
        "max_iterations=0", "dangling_policy=x",
    ])
    def test_out_of_range_set_value_exit_1_names_key(self, entry, tmp_path, capsys):
        assert main(["pipeline", "--set", "seed=1", "--set", f"outdir={tmp_path / 'out'}",
                     "--set", entry]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and entry.split("=")[0] in err
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["pipeline", "generate"])
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
        if command == "pipeline":
            argv = ["pipeline", "--set", f"outdir={tmp_path / 'out'}"]
            argv += [a for key, value in settings.items() for a in ("--set", f"{key}={value}")]
        else:
            options = {"seed": "--seed", "n_papers": "--papers", "n_authors": "--authors",
                       "skew": "--skew"}
            argv = ["generate", "--out", str(tmp_path / "c.jsonl")]
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
        ("nodes", "A\t1\n", "line 1: expected author<TAB>citations<TAB>publications"),
        ("edges", "A\tB\tx\n", "line 1: invalid weight 'x' (field: weight)"),
    ])
    def test_input_error_names_line_and_file(self, bad, text, message, small_run, tmp_path,
                                             capsys):
        _, corpus, if_table, outdir = small_run
        inputs = {"corpus": corpus, "if_table": if_table,
                  "winners": tmp_path / "winners.txt",
                  "config": tmp_path / "run.cfg",
                  "scores": sorted(Path(outdir).glob("indicator_*.tsv"))[0],
                  "nodes": sorted(Path(outdir).glob("nodes_*.tsv"))[0],
                  "edges": sorted(Path(outdir).glob("edges_*.tsv"))[0]}
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
            "scores": ["correlate", "--scores", i["scores"], i["scores"], "--labels", "a,b",
                       "--out", out],
            "nodes": ["rank", "--edges", i["edges"], "--nodes", i["nodes"], "--damping", "0.5",
                      "--out", out],
            "edges": ["rank", "--edges", i["edges"], "--nodes", i["nodes"], "--damping", "0.5",
                      "--out", out],
        }[bad]
        assert main(argv) == (1 if bad == "config" else 2)
        assert capsys.readouterr().err == f"error: {message} in {inputs[bad]}\n"
        assert not (tmp_path / "out").exists()

    def test_duplicate_score_row_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        scores.write_text("author\tscore\nA\t1\nB\t2\nA\t9\n")
        out = tmp_path / "corr.tsv"
        assert main(["correlate", "--scores", str(scores), str(scores), "--labels", "a,b",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 4: ") and str(scores) in err and "'A'" in err
        assert not out.exists()

    def test_duplicate_node_row_exit_2(self, tmp_path, capsys):
        edges, nodes = tmp_path / "edges.tsv", tmp_path / "nodes.tsv"
        edges.write_text("A\tB\t1\nB\tA\t1\n")
        nodes.write_text("A\t1\t1\nB\t1\t2\nA\t1\t5\n")
        out = tmp_path / "scores.tsv"
        assert main(["rank", "--edges", str(edges), "--nodes", str(nodes), "--damping", "0.5",
                     "--teleport", "publication_weighted", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and str(nodes) in err and "'A'" in err
        assert not out.exists()

    def test_rank_strict_nonconvergence_exit_3_writes_no_out(self, small_run, tmp_path, capsys):
        _, _, _, outdir = small_run
        edges = sorted(Path(outdir).glob("edges_*.tsv"))[0]
        out = tmp_path / "scores.tsv"
        assert main(["rank", "--edges", str(edges), "--damping", "0.85", "--strict",
                     "--max-iterations", "1", "--out", str(out)]) == 3
        assert "pagerank_d0.85" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_ingest_colliding_phase_tags_exit_1_before_corpus_is_opened(self, tmp_path, capsys):
        rc = main(["ingest", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--outdir", str(tmp_path / "out"), "--phases", "a-b:1956-1990;a_b:1991-2008"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'a-b'" in err and "'a_b'" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,first,second,keys", [
        ("ingest", [], ["--phases", "1956-1990"],
         {"input_papers", "dropped_outside_phases", "phases", "files"}),
        ("indicators", ["--if-table", "{if_table}"], [], {"graph", "diagnostics", "files"}),
    ])
    def test_stage_rerun_replaces_previous_run_whole(self, command, first, second, keys,
                                                     small_run, tmp_path):
        _, corpus, if_table, _ = small_run
        outdir = tmp_path / "out"

        def run(corpus_path, extra):
            return main([command, "--corpus", str(corpus_path), "--outdir", str(outdir),
                         *(a.format(if_table=if_table) for a in extra)])

        assert run(corpus, first) == 0
        before = _dir_bytes(outdir)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run(bad, first) == 2
        assert _dir_bytes(outdir) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "out"]

        assert run(corpus, second) == 0
        manifest = json.loads(_read(outdir / "manifest.json"))
        assert set(manifest) == keys
        files = manifest["files"]
        assert set(before) - set(files) - {"manifest.json"}  # files the rerun must remove
        assert sorted(p.name for p in outdir.iterdir()) == sorted([*files, "manifest.json"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.jsonl", "out"]

    @pytest.mark.parametrize("command,owner", [
        ("indicators", "ingest"), ("ingest", "pipeline"), ("pipeline", "indicators"),
    ])
    def test_other_commands_run_exit_1_and_is_kept(self, command, owner, small_run, tmp_path,
                                                   capsys):
        _, corpus, _, pipeline_out = small_run

        def argv(cmd, corpus_path, outdir):
            if cmd == "pipeline":
                return [cmd, "--set", f"corpus={corpus_path}", "--set", f"outdir={outdir}"]
            return [cmd, "--corpus", str(corpus_path), "--outdir", str(outdir)]

        outdir = tmp_path / "out"
        if owner == "pipeline":
            shutil.copytree(pipeline_out, outdir)
        else:
            assert main(argv(owner, corpus, outdir)) == 0
        # read a phase corpus of the run itself where it has one
        corpus_path = ([*sorted(outdir.glob("corpus_*.jsonl")), corpus])[0]
        before = _dir_bytes(outdir)
        capsys.readouterr()
        assert main(argv(command, corpus_path, outdir)) == 1
        assert f"holds a run of {owner}, not of {command}" in capsys.readouterr().err
        assert _dir_bytes(outdir) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_invalid_field_exit_1_before_corpus_is_opened(self, tmp_path):
        rc = main(["pipeline", "--set", f"corpus={tmp_path / 'nope.jsonl'}",
                   "--set", f"outdir={tmp_path / 'out'}",
                   "--set", "dangling_policy=bogus"])
        assert rc == 1

    def test_strict_nonconvergence_exit_3(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        main(["generate", "--seed", "1", "--papers", "200", "--authors", "80",
              "--out", str(corpus)])
        outdir = tmp_path / "out"
        rc = main(["pipeline", "--set", f"corpus={corpus}",
                   "--set", f"outdir={outdir}",
                   "--set", "max_iterations=1",
                   "--set", "strict=true",
                   "--set", "subset_size=20"])
        assert rc == 3
        # no outdir, and no stage directory left beside it
        assert not outdir.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["c.jsonl"]

    def test_failed_rerun_keeps_previous_run(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = RunConfig(seed=3, n_papers=200, n_authors=80, outdir=str(outdir),
                        subset_size=20)
        run_pipeline(cfg)
        before = _dir_bytes(outdir)
        cfg.max_iterations = 1
        cfg.strict = True
        with pytest.raises(NonConvergenceError):
            run_pipeline(cfg)
        assert _dir_bytes(outdir) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_rerun_leaves_only_its_own_files(self, tmp_path):
        outdir = tmp_path / "out"
        first = run_pipeline(RunConfig(seed=3, n_papers=200, n_authors=80, outdir=str(outdir)))
        corpus = tmp_path / "c.jsonl"
        assert main(["generate", "--seed", "3", "--papers", "200", "--authors", "80",
                     "--out", str(corpus)]) == 0
        second = run_pipeline(RunConfig(corpus=str(corpus), outdir=str(outdir)))
        assert "impact_factors.tsv" in first["files"]
        assert "impact_factors.tsv" not in second["files"]
        assert sorted(p.name for p in outdir.iterdir()) == sorted(
            [*second["files"], "manifest.json"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "out"]

    @pytest.mark.parametrize("earlier_run,name,content", [
        (False, "notes.txt", "mine\n"),
        (True, "notes.txt", "mine\n"),
        (False, "manifest.json", "{"),
    ], ids=["alone", "beside-a-run", "unreadable-manifest"])
    def test_foreign_entry_in_outdir_exit_1_before_inputs_are_opened(
            self, earlier_run, name, content, tmp_path, capsys):
        outdir = tmp_path / "out"
        run = ["pipeline", "--set", "seed=3", "--set", "n_papers=200", "--set", "n_authors=80",
               "--set", f"outdir={outdir}"]
        if earlier_run:
            assert main(run) == 0
        else:
            outdir.mkdir()
        (outdir / name).write_text(content)
        before = _dir_bytes(outdir)
        assert main([*run, "--set", f"corpus={tmp_path / 'nope.jsonl'}"]) == 1
        assert f"holds {name!r}" in capsys.readouterr().err
        assert _dir_bytes(outdir) == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_colliding_phase_tags_exit_1_before_work(self, tmp_path, capsys):
        rc = main(["pipeline", "--set", f"corpus={tmp_path / 'nope.jsonl'}",
                   "--set", f"outdir={tmp_path / 'out'}",
                   "--set", "phases=a-b:1956-1990;a_b:1991-2008"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'a-b'" in err and "'a_b'" in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("settings,label", [
        (["dampings=0.5,0.5000001"], "pagerank_d0.5"),
        (["dampings=0.5,0.5"], "pagerank_d0.5"),
        (["teleports=uniform,uniform", "dampings=0.85"], "pagerank_d0.85"),
    ], ids=["same-tag", "repeated-damping", "repeated-teleport"])
    def test_colliding_pagerank_labels_exit_1_before_work(self, settings, label, tmp_path,
                                                          capsys):
        argv = ["pipeline", "--set", f"corpus={tmp_path / 'nope.jsonl'}",
                "--set", f"outdir={tmp_path / 'out'}"]
        assert main(argv + [a for entry in settings for a in ("--set", entry)]) == 1
        assert capsys.readouterr().err == (
            f"error: teleports and dampings give two PageRank variants the label {label!r}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,message", [
        (["generate", "--seed", "1", "--papers", "50", "--authors", "20",
          "--out", "{t}/keep.tsv", "--if-table-out", "{t}/nodir/if.tsv"],
         "{t}/nodir/if.tsv: no such directory"),
        (["rank", "--edges", "{t}/nope", "--damping", "0.5", "--out", "{t}/nodir/o.tsv"],
         "{t}/nodir/o.tsv: no such directory"),
        (["correlate", "--scores", "{t}/nope", "--out", "{t}/nodir/c.tsv"],
         "{t}/nodir/c.tsv: no such directory"),
        (["pca", "--scores", "{t}/nope", "--out-loadings", "{t}/keep.tsv",
          "--out-components", "{t}/nodir/c.tsv"],
         "{t}/nodir/c.tsv: no such directory"),
        (["evaluate", "--scores", "{t}/nope", "--winners", "{t}/nope",
          "--out", "{t}/nodir/cov.csv"],
         "{t}/nodir/cov.csv: no such directory"),
        (["evaluate", "--scores", "{t}/nope", "--winners", "{t}/nope", "--out", "{t}"],
         "{t} is a directory"),
        (["generate", "--seed", "1", "--papers", "50", "--authors", "20",
          "--out", "{t}/k.jsonl", "--if-table-out", "{t}/k.jsonl"],
         "{t}/k.jsonl is named by both --out and --if-table-out"),
        (["pca", "--scores", "{t}/nope", "{t}/nope2", "--out-loadings", "{t}/o.tsv",
          "--out-components", "{t}/o.tsv"],
         "{t}/o.tsv is named by both --out-loadings and --out-components"),
    ], ids=["generate", "rank", "correlate", "pca", "evaluate", "evaluate-dir",
            "generate-same-file", "pca-same-file"])
    def test_unwritable_output_exit_1_before_work(self, argv, message, tmp_path, capsys):
        keep = tmp_path / "keep.tsv"
        keep.write_text("kept\n")
        assert main([a.format(t=tmp_path) for a in argv]) == 1
        assert capsys.readouterr() == ("", f"error: output file {message.format(t=tmp_path)}\n")
        assert keep.read_text() == "kept\n"
        assert [p.name for p in tmp_path.iterdir()] == ["keep.tsv"]

    def test_outputs_compared_as_resolved_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["generate", "--seed", "1", "--papers", "50", "--authors", "20",
                     "--out", "k.jsonl", "--if-table-out", "./k.jsonl"]) == 1
        assert capsys.readouterr() == (
            "", "error: output file ./k.jsonl is named by both --out and --if-table-out\n")
        assert not any(tmp_path.iterdir())

    def test_every_output_option_is_checked(self):
        [commands] = [a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
        outputs = []
        for command, parser in commands.choices.items():
            for action in parser._actions:
                dest = action.dest
                if dest != "outdir" and (dest == "out" or dest.endswith("_out")
                                         or dest.startswith("out_")):
                    assert action.type is OutputFile, (command, dest)
                    outputs.append(f"{command} {action.option_strings[0]}")
        assert sorted(outputs) == [
            "correlate --out", "evaluate --out", "generate --if-table-out", "generate --out",
            "pca --out-components", "pca --out-loadings", "rank --out"]

    @pytest.mark.parametrize("command", ["correlate", "pca", "evaluate"])
    @pytest.mark.parametrize("scores,labels,message", [
        (["a/x.tsv", "b/x.tsv"], [], "two score files have the label 'x'"),
        (["a.tsv", "b.tsv"], ["--labels", "p, p"], "two score files have the label 'p'"),
        (["a.tsv", "b.tsv"], ["--labels", "p"], "1 labels for 2 score files"),
        (["a.tsv", "b.tsv"], ["--labels", "x,"], "a score file has an empty label"),
    ], ids=["same-stem", "same-label", "label-count", "empty-label"])
    def test_score_labels_checked_before_files_are_read(self, command, scores, labels, message,
                                                        tmp_path, capsys):
        outputs = {"correlate": ["--out", "{t}/o"],
                   "pca": ["--out-loadings", "{t}/l", "--out-components", "{t}/c"],
                   "evaluate": ["--winners", "{t}/w", "--out", "{t}/o"]}[command]
        argv = [command, "--scores", *(f"{{t}}/{s}" for s in scores), *labels, *outputs]
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


class TestRankCommand:
    def test_cycle_edge_list_uniform(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("A\tB\t1\nB\tC\t1\nC\tA\t1\n")
        out = tmp_path / "scores.tsv"
        assert main(["rank", "--edges", str(edges), "--damping", "0.85",
                     "--out", str(out)]) == 0
        lines = _read(out).splitlines()
        assert lines[0] == "author\tscore\trank"
        scores = {ln.split("\t")[0]: float(ln.split("\t")[1]) for ln in lines[1:]}
        assert all(abs(v - 1 / 3) < 1e-12 for v in scores.values())


class TestCorrelateCommand:
    def test_identical_rank_files_r_one(self, tmp_path):
        f1 = tmp_path / "s1.tsv"
        f2 = tmp_path / "s2.tsv"
        body = "author\tscore\n" + "".join(f"A{i:02d}\t{i}\n" for i in range(12))
        f1.write_text(body)
        f2.write_text(body)
        out = tmp_path / "corr.tsv"
        assert main(["correlate", "--scores", str(f1), str(f2),
                     "--subset-size", "12", "--out", str(out)]) == 0
        rows = _read(out).splitlines()
        assert rows[1].split("\t")[2] == "1.000"


class TestEvaluateCommand:
    def test_fixture_counts(self, tmp_path):
        scores = tmp_path / "ind.tsv"
        scores.write_text(
            "author\tscore\n" + "".join(f"A{i:03d}\t{1000 - i}\n" for i in range(1, 61))
        )
        winners = tmp_path / "winners.txt"
        winners.write_text("A002\nA008\nA030\n# comment line\n")
        out = tmp_path / "cov.csv"
        assert main(["evaluate", "--scores", str(scores), "--winners", str(winners),
                     "--ks", "5,10,20,50", "--out", str(out)]) == 0
        rows = _read(out).splitlines()
        assert rows[0] == "indicator,top@5,top@10,top@20,top@50"
        assert rows[1].split(",")[1:] == ["1", "2", "2", "3"]


    def test_missing_winners_reported_on_stdout(self, tmp_path, capsys):
        scores = tmp_path / "ind.tsv"
        scores.write_text("author\tscore\nA001\t2\nA002\t1\n")
        winners = tmp_path / "winners.txt"
        winners.write_text("A002\nNOBODY\n")
        out = tmp_path / "cov.csv"
        assert main(["evaluate", "--scores", str(scores), "--winners", str(winners),
                     "--ks", "1", "--out", str(out)]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        assert stdout == f"winners not in author universe: NOBODY\nwrote {out}\n"


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
            "prestige = min_citations:2\n"
            "pca_retention = fixed:4\n"
        )
        cfg = load_config(str(f), overrides=["subset_size=40"])
        assert cfg.seed == 3
        assert cfg.dampings == (0.15, 0.85)
        assert cfg.prestige == "min_citations:2"
        assert cfg.pca_retention == "fixed:4"
        assert cfg.subset_size == 40

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
        a.mkdir()
        assert main(["generate", "--seed", "1", "--papers", "80", "--authors", "30",
                     "--out", str(a / "corpus.jsonl"), "--if-table-out", str(a / "if.tsv")]) == 0
        (a / "winners.txt").write_text("Auth, 000001.\n")
        shutil.copytree(a, b)

        def config(inputs, out):
            return RunConfig(corpus=str(inputs / "corpus.jsonl"), if_table=str(inputs / "if.tsv"),
                             winners=str(inputs / "winners.txt"), outdir=str(tmp_path / out),
                             subset_size=20)

        ma, mb = run_pipeline(config(a, "out_a")), run_pipeline(config(b, "out_b"))
        assert ma["config"]["corpus"] == str(a / "corpus.jsonl")
        assert ma["config_hash"] == mb["config_hash"]
        assert ma["inputs"] == mb["inputs"]
        assert ma["inputs"] == {
            key: hashlib.sha256((a / name).read_bytes()).hexdigest()
            for key, name in (("corpus", "corpus.jsonl"), ("if_table", "if.tsv"),
                              ("winners", "winners.txt"))
        }
        with open(b / "corpus.jsonl", "a", encoding="utf-8") as fh:
            fh.write("\n")  # one byte more, the same corpus
        assert config(b, "out_b").config_hash() != ma["config_hash"]

    @pytest.mark.parametrize("key,value,want", [
        ("seed", "7", 7),
        ("skew", "2.5", 2.5),
        ("strict", "yes", True),
        ("allow_self_citation", "off", False),
        ("dampings", "0.5,0.85", (0.5, 0.85)),
        ("coverage_ks", "5, 10", (5, 10)),
        ("teleports", "uniform, citation_weighted", ("uniform", "citation_weighted")),
        ("winners", " w.txt ", "w.txt"),
    ])
    def test_value_parsed_by_field_type(self, key, value, want):
        cfg = RunConfig()
        apply_config_entry(cfg, key, value)
        assert repr(getattr(cfg, key)) == repr(want)  # equal values of equal types


# A valid value of each config key whose value is not free text; a junk
# character anywhere in it makes it malformed.
_SET_SAMPLES = {
    "phases": "1956-1990", "dampings": "0.5,0.85", "prestige": "top_fraction:0.1",
    "subset_size": "30", "pca_retention": "fixed:3", "loading_cutoff": "0.4",
    "coverage_ks": "5,10", "allow_self_citation": "true", "tolerance": "1e-12",
    "max_iterations": "100", "strict": "false", "seed": "1", "n_papers": "100",
    "n_authors": "50", "skew": "1.5",
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
_RETENTION_SCORES = ["{m}"] * 12  # the pipeline's 12 indicators without an IF table
_SHARED_SETTINGS = [
    ("dampings", "1.5", ["rank", "--edges", "{m}", "--damping", "1.5", "--out", "{o}"],
     "dampings must be in [0, 1), got 1.5"),
    ("tolerance", "0", ["rank", "--edges", "{m}", "--damping", "0.5", "--tolerance", "0",
                        "--out", "{o}"],
     "tolerance must be finite and positive, got 0.0"),
    ("tolerance", "nan", ["rank", "--edges", "{m}", "--damping", "0.5", "--tolerance", "nan",
                          "--out", "{o}"],
     "tolerance must be finite and positive, got nan"),
    ("max_iterations", "0", ["rank", "--edges", "{m}", "--damping", "0.5",
                             "--max-iterations", "0", "--out", "{o}"],
     "max_iterations must be >= 1, got 0"),
    ("teleports", "custom", ["rank", "--edges", "{m}", "--damping", "0.5",
                             "--teleport", "custom", "--out", "{o}"],
     "teleports must be one of uniform, citation_weighted, publication_weighted, got 'custom'"),
    ("prestige", "top_fraction:2", ["indicators", "--corpus", "{m}", "--outdir", "{o}",
                                    "--prestige", "top_fraction:2"],
     "prestige must be top_fraction:F with 0 < F <= 1 or min_citations:M with an integer M >= 1"),
    ("prestige", "min_citations:0.5", ["indicators", "--corpus", "{m}", "--outdir", "{o}",
                                       "--prestige", "min_citations:0.5"],
     "prestige must be top_fraction:F with 0 < F <= 1 or min_citations:M with an integer M >= 1"),
    ("pca_retention", "fixed:13", ["pca", "--scores", *_RETENTION_SCORES,
                                   "--retention", "fixed:13",
                                   "--out-loadings", "{o}", "--out-components", "{o}c"],
     "pca_retention must be kaiser or fixed:K with 1 <= K <= 12, the number of indicators, "
     "got 'fixed:13'"),
    *[("loading_cutoff", cutoff, ["pca", "--scores", "{m}", "{m}", "--cutoff", cutoff,
                                  "--out-loadings", "{o}", "--out-components", "{o}c"],
       f"loading_cutoff must be in [0, 1], got {float(cutoff)}")
      for cutoff in ("nan", "-0.1", "1.5")],
    ("subset_size", "2", ["correlate", "--scores", "{m}", "{m}", "--subset-size", "2",
                          "--out", "{o}"],
     "subset_size must be >= 3, got 2"),
    ("subset_size", "2", ["pca", "--scores", "{m}", "{m}", "--subset-size", "2",
                          "--out-loadings", "{o}", "--out-components", "{o}c"],
     "subset_size must be >= 3, got 2"),
    ("coverage_ks", "0,5", ["evaluate", "--scores", "{m}", "--winners", "{m}", "--ks", "0,5",
                            "--out", "{o}"],
     "coverage_ks must be ascending integers >= 1, got 0,5"),
    ("coverage_ks", "10,5", ["evaluate", "--scores", "{m}", "--winners", "{m}", "--ks", "10,5",
                             "--out", "{o}"],
     "coverage_ks must be ascending integers >= 1, got 10,5"),
    ("coverage_ks", "5,5", ["evaluate", "--scores", "{m}", "--winners", "{m}", "--ks", "5,5",
                            "--out", "{o}"],
     "coverage_ks must be ascending integers >= 1, got 5,5"),
]


@pytest.mark.parametrize("key,value,stage,message", _SHARED_SETTINGS,
                         ids=[f"{s[2][0]}-{s[0]}={s[1]}" for s in _SHARED_SETTINGS])
def test_bad_setting_same_error_in_pipeline_and_stage_before_reading(
        key, value, stage, message, tmp_path, capsys):
    missing, out = tmp_path / "missing", tmp_path / "out"
    pipeline = ["pipeline", "--set", f"corpus={missing}", "--set", f"outdir={out}",
                "--set", f"{key}={value}"]
    for argv in (pipeline, [a.format(m=missing, o=out) for a in stage]):
        assert main(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv
        assert not any(tmp_path.iterdir())


# Every flag that sets a config key: (command, flag, key).  rank's
# --damping and --teleport set one entry of their tuple key.
_KEY_FLAGS = [
    ("generate", "--seed", "seed"), ("generate", "--papers", "n_papers"),
    ("generate", "--authors", "n_authors"), ("generate", "--skew", "skew"),
    ("ingest", "--phases", "phases"),
    ("rank", "--damping", "dampings"), ("rank", "--teleport", "teleports"),
    ("rank", "--tolerance", "tolerance"), ("rank", "--max-iterations", "max_iterations"),
    ("rank", "--dangling-policy", "dangling_policy"),
    ("indicators", "--prestige", "prestige"),
    ("correlate", "--subset-size", "subset_size"), ("pca", "--subset-size", "subset_size"),
    ("pca", "--retention", "pca_retention"), ("pca", "--cutoff", "loading_cutoff"),
    ("evaluate", "--ks", "coverage_ks"),
]
_ONE_ENTRY_KEYS = {"dampings", "teleports"}


def _subcommands() -> dict:
    [commands] = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def test_every_key_flag_is_declared_from_its_key():
    hints = get_type_hints(RunConfig)
    declared = []
    for command, parser in _subcommands().items():
        for action in parser._actions:
            assert action.type not in (int, float), (command, action.dest)
            if isinstance(action.type, functools.partial):
                assert action.type.func is parse_setting
                assert action.type.keywords == {"name": action.option_strings[0]}
                if action.dest in ("year_lo", "year_hi"):  # the generator's, of no config key
                    assert (command, action.type.args) == ("generate", (int,))
                else:
                    declared.append((command, action.option_strings[0], action))
    assert [(command, flag) for command, flag, _ in declared] == [
        (command, flag) for command, flag, _ in _KEY_FLAGS]
    for (command, flag, action), (_, _, key) in zip(declared, _KEY_FLAGS):
        parse, default = _FIELD_PARSERS[key], getattr(RunConfig, key)
        if key in _ONE_ENTRY_KEYS:
            parse, default = _value_parser(get_args(hints[key])[0]), default[0]
        assert action.type.args == (parse,), (command, flag)
        assert action.default == (None if action.required else default), (command, flag)
    required = {(c, a.option_strings[0]) for c, _, a in declared if a.required}
    assert required == {("generate", "--seed"), ("generate", "--papers"),
                        ("generate", "--authors"), ("rank", "--damping")}


def test_generator_years_have_one_default():
    defaults = {a.dest: a.default for a in _subcommands()["generate"]._actions}
    for name in ("year_lo", "year_hi"):
        assert defaults[name] == default_of(generate_synthetic, name) == \
            default_of(check_synthetic, name)
    assert (defaults["year_lo"], defaults["year_hi"]) == (1956, 2008)


# Each command's required flags, with an input {m} that does not exist and
# an output {o}; pca takes the pipeline's 12 indicators without an IF table.
_REQUIRED_FLAGS = {
    "generate": ["--seed", "1", "--papers", "50", "--authors", "20", "--out", "{o}"],
    "ingest": ["--corpus", "{m}", "--outdir", "{o}"],
    "rank": ["--edges", "{m}", "--damping", "0.5", "--out", "{o}"],
    "indicators": ["--corpus", "{m}", "--outdir", "{o}"],
    "correlate": ["--scores", "{m}", "{m}", "--out", "{o}"],
    "pca": ["--scores", *["{m}"] * 12, "--out-loadings", "{o}", "--out-components", "{o}c"],
    "evaluate": ["--scores", "{m}", "--winners", "{m}", "--out", "{o}"],
}
# A malformed value for each flag of _KEY_FLAGS, in the same order.
_MALFORMED_FLAG_VALUES = ["x", "1.5", "", "abc", "1990", "0.5x", "custom", "1e", "10.0", "x",
                          "top_fraction:x", "3.5", "x", "fixed:x", "abc", "5,x"]


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
    (["correlate", "--scores", "{t}/a", "{t}/b", "--labels", "\udcff,b", "--out", "{t}/good"],
     "the score file label '\\udcff' is not valid UTF-8"),
    (["correlate", "--scores", "{t}/\udcff.tsv", "{t}/b.tsv", "--out", "{t}/good"],
     "the score file label '\\udcff' is not valid UTF-8"),
    (["evaluate", "--scores", "{t}/a", "--labels", "a\udcff", "--winners", "{t}/w",
      "--out", "{t}/good"],
     "the score file label 'a\\udcff' is not valid UTF-8"),
    (["indicators", "--corpus", "{t}/c", "--outdir", "{t}/good", "--tag", "\udcff"],
     "argument --tag: '\\udcff' is not valid UTF-8"),
    (["ingest", "--corpus", "{t}/c", "--outdir", "{t}/good", "--phases", "\udcff:1956-2008"],
     "invalid phases entry '\\udcff:1956-2008': the label is not valid UTF-8"),
    (["pipeline", "--set", "seed=1", "--set", "outdir={t}/good",
      "--set", "phases=1956-1990;x\udcff:1991-2008"],
     "invalid phases entry 'x\\udcff:1991-2008': the label is not valid UTF-8"),
], ids=["correlate-labels", "correlate-file-stem", "evaluate-labels", "indicators-tag",
        "ingest-phases",
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


def _fail_part_way(*args):
    """A writer that writes part of its output to its stream, the last
    argument, and then finds the disk full."""
    args[-1].write("partial\n")
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("module,writer,argv,outputs", [
    (corpus_mod, "serialize_corpus",
     ["generate", "--seed", "1", "--papers", "30", "--authors", "10", "--out", "{t}/c.jsonl"],
     ["c.jsonl"]),
    (pipe_mod, "dump_impact_factors",
     ["generate", "--seed", "1", "--papers", "30", "--authors", "10", "--out", "{t}/c.jsonl",
      "--if-table-out", "{t}/if.tsv"],
     ["c.jsonl", "if.tsv"]),
    (ind_mod, "dump_indicator",
     ["rank", "--edges", "{edges}", "--damping", "0.5", "--out", "{t}/s.tsv"], ["s.tsv"]),
    (pipe_mod, "write_correlation",
     ["correlate", "--scores", "{a}", "{b}", "--subset-size", "20", "--out", "{t}/c.tsv"],
     ["c.tsv"]),
    (pipe_mod, "write_pca",
     ["pca", "--scores", "{a}", "{b}", "--subset-size", "20",
      "--out-loadings", "{t}/l.tsv", "--out-components", "{t}/p.tsv"], ["l.tsv", "p.tsv"]),
    (pipe_mod, "write_coverage",
     ["evaluate", "--scores", "{a}", "{b}", "--winners", "{t}/w.txt", "--out", "{t}/v.csv"],
     ["v.csv"]),
], ids=["generate-out", "generate-if-table-out", "rank", "correlate", "pca", "evaluate"])
def test_failed_write_keeps_the_existing_output(module, writer, argv, outputs, small_run,
                                                tmp_path, monkeypatch, capsys):
    _, _, _, outdir = small_run
    a, b = sorted(Path(outdir).glob("indicator_1991_2000_*.tsv"))[:2]
    edges = sorted(Path(outdir).glob("edges_*.tsv"))[0]
    (tmp_path / "w.txt").write_text("AUTH 000001\n")
    for name in outputs:
        (tmp_path / name).write_bytes(b"an earlier run\n")
    before = _dir_bytes(tmp_path)
    monkeypatch.setattr(module, writer, _fail_part_way)
    assert main([x.format(t=tmp_path, a=a, b=b, edges=edges) for x in argv]) == 2
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert _dir_bytes(tmp_path) == before  # the outputs are unchanged, and no .tmp file is left


def test_open_output_replaces_whole_or_not_at_all(tmp_path):
    target = tmp_path / "t.tsv"
    target.write_text("old\n")
    with pytest.raises(KeyboardInterrupt):
        with open_output(target) as fh:
            fh.write("half")
            raise KeyboardInterrupt
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]
    assert target.read_text() == "old\n"
    with open_output(target) as fh:
        fh.write("new\n")
        assert target.read_text() == "old\n"  # replaced only when the block exits
        assert [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")] == [
            f".t.tsv.{os.getpid()}.tmp"]
    assert [p.name for p in tmp_path.iterdir()] == ["t.tsv"]
    assert target.read_text() == "new\n"


def test_open_output_writes_a_fifo_or_linked_file_in_place(tmp_path):
    """Renaming over a target that is not a plain file of its own would
    change more than its text, so such a target is written in place."""
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with open_output(fifo) as fh:
            fh.write("through the fifo\n")
        assert os.read(reader, 100) == b"through the fifo\n"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    linked, other = tmp_path / "linked.tsv", tmp_path / "other.tsv"
    linked.write_text("old\n")
    os.link(linked, other)
    with open_output(linked) as fh:
        fh.write("new\n")
    assert other.read_text() == "new\n" and os.path.samefile(linked, other)
    plain, alias = tmp_path / "plain.tsv", tmp_path / "alias.tsv"
    plain.write_text("old\n")
    alias.symlink_to(plain)
    with open_output(alias) as fh:  # a symlink is followed, not replaced
        fh.write("new\n")
    assert alias.is_symlink() and plain.read_text() == "new\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "alias.tsv", "fifo", "linked.tsv", "other.tsv", "plain.tsv"]


def test_open_output_keeps_the_mode_of_a_replaced_file(tmp_path):
    target = tmp_path / "t.tsv"
    target.write_text("old\n")
    target.chmod(0o640)
    with open_output(target) as fh:
        fh.write("new\n")
    assert target.read_text() == "new\n" and stat.S_IMODE(target.stat().st_mode) == 0o640


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
                       "--set", "subset_size=3", "--set", "phases=1956-2008"])
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

    def test_manifest_versions(self, small_run):
        _, _, _, outdir = small_run
        manifest = json.loads(_read(Path(outdir) / "manifest.json"))
        assert manifest["versions"] == {
            "bibliorank": bibliorank.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }

    def test_synthetic_mode_without_corpus_file(self, tmp_path):
        outdir = tmp_path / "out"
        cfg = RunConfig(seed=5, n_papers=150, n_authors=60, outdir=str(outdir),
                        subset_size=20)
        manifest = run_pipeline(cfg)
        assert manifest["input_papers"] == 150


def _run_stage_chain(root, allow_self_citation):
    """From one generated corpus file, generate, ingest and per phase
    indicators, rank (each variant), correlate, pca and evaluate, each
    command writing into its own directory. Where the pipeline skipped a
    phase's stats, correlate and pca must fail with one error line. Returns
    the sha256 of each written file but manifest.json, per command, and the
    pipeline's files map but table_<tag>.tsv."""
    cfg = RunConfig(seed=1, n_papers=300, n_authors=150, subset_size=20,
                    allow_self_citation=allow_self_citation,
                    winners=str(root / "winners.txt"), outdir=str(root / "pipe"))
    # Raw spellings; the last id is past every generated author.
    Path(cfg.winners).write_text("".join(f"Auth, {i:06d}.\n" for i in range(0, 151, 10)))
    pipeline = run_pipeline(cfg)
    chain, corpus = root / "chain", root / "corpus.jsonl"
    for command in ("generate", "rank", "correlate", "pca", "evaluate"):
        (chain / command).mkdir(parents=True)

    def run(*argv):
        """(exit code, stderr) of one command."""
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            return main([str(a) for a in argv]), err.getvalue()

    assert run("generate", "--seed", cfg.seed, "--papers", cfg.n_papers,
               "--authors", cfg.n_authors, "--out", corpus,
               "--if-table-out", chain / "generate" / "impact_factors.tsv") == (0, "")
    assert run("ingest", "--corpus", corpus, "--outdir", chain / "ingest") == (0, "")
    skipped = [label for label, info in pipeline["phases"].items() if "stats_skipped" in info]
    assert 0 < len(skipped) < len(pipeline["phases"])
    for label, info in pipeline["phases"].items():
        tag = pipe_mod.phase_tag(label)
        stage = chain / f"indicators_{tag}"
        assert run("indicators", "--corpus", chain / "ingest" / f"corpus_{tag}.jsonl",
                   "--outdir", stage, "--tag", label,
                   "--if-table", chain / "generate" / "impact_factors.tsv",
                   *([] if allow_self_citation else ["--drop-self-citations"])) == (0, "")
        manifest = json.loads(_read(stage / "manifest.json"))
        assert manifest["graph"] == info["graph"]
        assert manifest["diagnostics"].items() <= info["diagnostics"].items()
        for kind in cfg.teleports:
            for damping in cfg.dampings:
                name = variant_label(kind, damping)
                assert run("rank", "--edges", stage / f"edges_{tag}.tsv",
                           "--nodes", stage / f"nodes_{tag}.tsv", "--damping", damping,
                           "--teleport", kind,
                           "--out", chain / "rank" / f"indicator_{tag}_{name}.tsv") == (0, "")
        names = _read(root / "pipe" / f"table_{tag}.tsv").split("\n")[0].split("\t")[1:]
        scores = ["--scores", *(next(chain.glob(f"*/indicator_{tag}_{name}.tsv"))
                                for name in names), "--labels", ",".join(names)]
        for argv in (["correlate", "--out", chain / "correlate" / f"correlation_{tag}.tsv"],
                     ["pca", "--out-loadings", chain / "pca" / f"pca_{tag}.tsv",
                      "--out-components", chain / "pca" / f"pca_components_{tag}.tsv"]):
            rc, err = run(*argv, *scores, "--subset-size", cfg.subset_size)
            if label in skipped:
                assert rc != 0 and err.startswith("error: ") and err.count("\n") == 1
            else:
                assert (rc, err) == (0, "")
        assert run("evaluate", *scores, "--winners", cfg.winners,
                   "--out", chain / "evaluate" / f"coverage_{tag}.csv") == (0, "")

    written = {}
    for p in chain.glob("*/*"):
        if p.name != "manifest.json":
            command = p.parent.name.split("_")[0]
            written.setdefault(command, {})[p.name] = pipe_mod.file_sha256(p)
    expected = {name: digest for name, digest in pipeline["files"].items()
                if not name.startswith("table_")}
    return written, expected


@pytest.fixture(scope="class")
def stage_chain(tmp_path_factory):
    """stage_chain(allow_self_citation) runs the stage chain of
    `_run_stage_chain` once per class and setting and returns its result."""
    return functools.cache(
        lambda allow: _run_stage_chain(tmp_path_factory.mktemp("chain"), allow))


def _assert_stage_matches_pipeline(stage_chain, command):
    """Every file `command` wrote in the self-citing chain has the pipeline's
    bytes; names each that does not."""
    written, expected = stage_chain(True)
    assert written[command]
    assert sorted(name for name, digest in written[command].items()
                  if expected.get(name) != digest) == []


class TestStageComposition:
    def test_ingest_stage_matches_pipeline(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        assert main(["generate", "--seed", "3", "--papers", "300", "--authors", "120",
                     "--out", str(corpus)]) == 0
        phases = "1900-1950;1956-2008"  # the first phase has no papers
        pipeline = run_pipeline(RunConfig(corpus=str(corpus), outdir=str(tmp_path / "pipe"),
                                          phases=parse_phases(phases), subset_size=20))
        capsys.readouterr()
        assert main(["ingest", "--corpus", str(corpus), "--outdir", str(tmp_path / "ingest"),
                     "--phases", phases]) == 0
        printed = json.loads(capsys.readouterr().out)
        manifest = json.loads(_read(tmp_path / "ingest" / "manifest.json"))
        assert printed == {key: v for key, v in manifest.items() if key != "files"}

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

    @pytest.mark.parametrize("tag,file_tag", [("a/b", "a_b"), ("1981-1990", "1981_1990"),
                                              (None, None)])
    def test_indicators_tag_is_a_phase_tag(self, tag, file_tag, small_run, tmp_path):
        _, _, _, outdir = small_run
        corpus = sorted(Path(outdir).glob("corpus_*.jsonl"))[0]
        stage_dir = tmp_path / "stage"
        assert main(["indicators", "--corpus", str(corpus), "--outdir", str(stage_dir),
                     *(["--tag", tag] if tag else [])]) == 0
        t = f"_{file_tag}" if file_tag else ""
        assert sorted(p.name for p in stage_dir.iterdir()) == sorted(
            [*(f"indicator{t}_{name}.tsv" for name in ("popularity", "prestige", "h_index")),
             f"edges{t}.tsv", f"nodes{t}.tsv", "manifest.json"])

    def test_repeated_scores_flag_adds_files(self, small_run, tmp_path):
        _, _, _, outdir = small_run
        a, b = sorted(Path(outdir).glob("indicator_*.tsv"))[:2]
        once, twice = tmp_path / "once.tsv", tmp_path / "twice.tsv"
        assert main(["correlate", "--scores", str(a), str(b), "--subset-size", "3",
                     "--out", str(once)]) == 0
        assert main(["correlate", "--scores", str(a), "--scores", str(b), "--subset-size", "3",
                     "--out", str(twice)]) == 0
        assert twice.read_bytes() == once.read_bytes()
        assert _read(once).splitlines()[0] == f"indicator\t{a.stem}\t{b.stem}"

    def test_rank_stage_matches_pipeline(self, stage_chain):
        _assert_stage_matches_pipeline(stage_chain, "rank")

    def test_indicators_stage_matches_pipeline(self, stage_chain):
        _assert_stage_matches_pipeline(stage_chain, "indicators")

    def test_correlate_stage_matches_pipeline(self, stage_chain):
        _assert_stage_matches_pipeline(stage_chain, "correlate")

    def test_pca_stage_matches_pipeline(self, stage_chain):
        _assert_stage_matches_pipeline(stage_chain, "pca")

    @pytest.mark.parametrize("allow_self_citation", [True, False])
    def test_stage_chain_reproduces_a_pipeline_run(self, allow_self_citation, stage_chain):
        written, expected = stage_chain(allow_self_citation)
        digests = {name: digest for files in written.values() for name, digest in files.items()}
        assert sorted(name for name in digests.keys() | expected.keys()
                      if digests.get(name) != expected.get(name)) == []
