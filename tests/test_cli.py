import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

import bibliorank
from bibliorank.cli import main
from bibliorank.errors import ConfigError
from bibliorank.pipeline import RunConfig, apply_config_entry, load_config, run_pipeline


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

    @pytest.mark.parametrize("entry", ["subset_size=abc", "dampings=0.5,x", "phases=1990"])
    def test_malformed_set_value_exit_1(self, entry, capsys):
        assert main(["pipeline", "--set", "seed=1", "--set", entry]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and entry.split("=")[0] in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["ingest", "--corpus", "{tmp}/nope", "--outdir", "{tmp}/o", "--phases", "1990"],
        ["pca", "--scores", "{tmp}/nope", "--retention", "fixed:x",
         "--out-loadings", "{tmp}/l", "--out-components", "{tmp}/c"],
        ["evaluate", "--scores", "{tmp}/nope", "--ks", "5,x",
         "--winners", "{tmp}/w", "--out", "{tmp}/o"],
    ], ids=["ingest-phases", "pca-retention", "evaluate-ks"])
    def test_malformed_argument_exit_1_before_inputs_are_opened(self, argv, tmp_path, capsys):
        assert main([a.format(tmp=tmp_path) for a in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("row", ["A01\tx", "A01"], ids=["non-numeric", "short"])
    def test_malformed_score_row_exit_2(self, row, tmp_path, capsys):
        scores = tmp_path / "s.tsv"
        scores.write_text(f"author\tscore\nA00\t1\n{row}\n")
        assert main(["correlate", "--scores", str(scores), str(scores),
                     "--out", str(tmp_path / "corr.tsv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 3: ") and str(scores) in err

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
        # partial outputs removed
        assert not any(Path(outdir).iterdir())


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
        assert cfg.prestige_mode == "min_citations" and cfg.prestige_value == 2
        assert cfg.pca_retention == "fixed" and cfg.pca_fixed_k == 4
        assert cfg.subset_size == 40

    def test_requires_corpus_or_seed(self):
        with pytest.raises(ConfigError):
            RunConfig().validate()

    def test_config_hash_stable(self):
        a = RunConfig(seed=1)
        b = RunConfig(seed=1)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != RunConfig(seed=2).config_hash()


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


class TestStageComposition:
    def test_rank_stage_matches_pipeline(self, small_run, tmp_path):
        _, _, _, outdir = small_run
        edges = sorted(Path(outdir).glob("edges_*.tsv"))[0]
        tag = edges.stem.removeprefix("edges_")
        nodes = Path(outdir) / f"nodes_{tag}.tsv"
        for teleport, name in (("uniform", "pagerank"),
                               ("citation_weighted", "pagerank_cit"),
                               ("publication_weighted", "pagerank_pub")):
            out = tmp_path / f"stage_{name}.tsv"
            assert main(["rank", "--edges", str(edges), "--nodes", str(nodes),
                         "--damping", "0.5", "--teleport", teleport,
                         "--out", str(out)]) == 0
            pipeline_file = Path(outdir) / f"indicator_{tag}_{name}_d0.5.tsv"
            assert out.read_bytes() == pipeline_file.read_bytes()

    def test_indicators_stage_matches_pipeline(self, small_run, tmp_path):
        _, _, if_table, outdir = small_run
        edges = sorted(Path(outdir).glob("edges_*.tsv"))[0]
        tag = edges.stem.removeprefix("edges_")
        stage_dir = tmp_path / "stage"
        assert main(["indicators", "--corpus", str(Path(outdir) / f"corpus_{tag}.jsonl"),
                     "--outdir", str(stage_dir), "--tag", tag,
                     "--if-table", str(if_table)]) == 0
        names = ("popularity", "prestige", "h_index", "impact_factor")
        assert sorted(p.name for p in stage_dir.iterdir()) == sorted(
            f"indicator_{tag}_{name}.tsv" for name in names)
        for name in names:
            stage_file = stage_dir / f"indicator_{tag}_{name}.tsv"
            assert stage_file.read_bytes() == (
                Path(outdir) / f"indicator_{tag}_{name}.tsv").read_bytes()

    def test_correlate_stage_matches_pipeline(self, small_run, tmp_path):
        _, _, _, outdir = small_run
        manifest = json.loads(_read(Path(outdir) / "manifest.json"))
        tag = None
        for label, info in manifest["phases"].items():
            if "stats_skipped" not in info and "graph" in info:
                tag = label.replace("-", "_")
                break
        assert tag, "no phase produced correlation output"
        header = _read(Path(outdir) / f"correlation_{tag}.tsv").splitlines()[0]
        labels = header.split("\t")[1:]
        files = [str(Path(outdir) / f"indicator_{tag}_{name}.tsv") for name in labels]
        out = tmp_path / "corr.tsv"
        assert main(["correlate", "--scores", *files, "--labels", ",".join(labels),
                     "--subset-size", "30", "--out", str(out)]) == 0
        assert out.read_bytes() == (Path(outdir) / f"correlation_{tag}.tsv").read_bytes()

    def test_pca_stage_matches_pipeline(self, small_run, tmp_path):
        _, _, _, outdir = small_run
        pca_files = sorted(Path(outdir).glob("pca_components_*.tsv"))
        assert pca_files
        tag = pca_files[0].stem.removeprefix("pca_components_")
        header = _read(Path(outdir) / f"correlation_{tag}.tsv").splitlines()[0]
        labels = header.split("\t")[1:]
        files = [str(Path(outdir) / f"indicator_{tag}_{name}.tsv") for name in labels]
        out_l = tmp_path / "pca.tsv"
        out_c = tmp_path / "pca_components.tsv"
        assert main(["pca", "--scores", *files, "--labels", ",".join(labels),
                     "--subset-size", "30", "--retention", "kaiser",
                     "--out-loadings", str(out_l), "--out-components", str(out_c)]) == 0
        assert out_l.read_bytes() == (Path(outdir) / f"pca_{tag}.tsv").read_bytes()
        assert out_c.read_bytes() == pca_files[0].read_bytes()
