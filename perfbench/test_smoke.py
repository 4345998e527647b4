"""Smoke test of the benchmark itself, at tiny sizes (about 20 s)."""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench import run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def tiny(name: str):
    w = WORKLOADS[name]
    return dataclasses.replace(w, n_papers=300, n_authors=min(w.n_authors, 200))


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setattr(run, "MIN_RUNS", 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_checks_and_reports_every_metric(name, quick, capsys):
    res = run.run_workload(tiny(name), seed=3, seconds=0, trace=True)
    assert res["correct"], res["problems"]
    assert (res["attempted"], res["failed"]) == (2, 0)
    assert set(res["end_to_end"]) == set(run.END_TO_END)
    assert all(v > 0 for v in res["end_to_end"].values())
    layers = res["per_layer"]
    assert set(layers) == set(run.PER_LAYER)
    assert sum(layers[k] for k in tracing.LAYERS) == pytest.approx(layers["trace.run_s"], abs=1e-9)
    assert layers["pagerank.solves"] == 4 * 3 * len(WORKLOADS[name].dampings)
    assert layers["pagerank.nonconverged"] == 0
    file_input = WORKLOADS[name].corpus_file
    assert (layers["corpus.parse_s"] > 0) == file_input
    assert (layers["corpus.generate_s"] > 0) != file_input
    assert (layers["setup.generate_s"] > 0) == file_input
    assert (layers["evaluation.coverage_s"] > 0) == (WORKLOADS[name].winners > 0)
    run.print_table(name, res)
    assert f"{name:14s} failed_frac" in capsys.readouterr().out


def test_failed_check_counts_toward_failed_frac(quick, monkeypatch, capsys):
    """Corrupt one rank in the first run directory: that run, and only it, fails."""
    real_child = run._child
    corrupted = []

    def corrupting_child(args, deadline):
        result = real_child(args, deadline)
        if args[0] == "pipeline" and not corrupted:
            outdir = Path(args[-1].removeprefix("outdir="))
            path = sorted(outdir.glob("indicator_*.tsv"))[0]
            lines = path.read_text(encoding="utf-8").splitlines()
            lines[-1] = lines[-1].rsplit("\t", 1)[0] + "\t0"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            corrupted.append(path.name)
        return result

    monkeypatch.setattr(run, "_child", corrupting_child)
    monkeypatch.setattr(run, "MIN_RUNS", 2)
    res = run.run_workload(tiny("wide-sparse"), seed=3, seconds=0, trace=False)
    assert not res["correct"]
    assert (res["attempted"], res["failed"]) == (2, 1)
    assert any(corrupted[0] in p and "n(n+1)/2" in p for p in res["problems"])
    run.print_table("wide-sparse", res)
    assert "failed_frac" in capsys.readouterr().out


def test_tracer_wraps_every_binding_and_restores_them():
    import bibliorank.corpus as corpus_mod
    import bibliorank.evaluation as eval_mod
    import bibliorank.indicators as ind_mod
    import bibliorank.pipeline as pipe_mod
    import bibliorank.stats as stats_mod

    before = (pipe_mod.coverage, eval_mod.top_k, ind_mod.top_k,
              stats_mod.IndicatorTable.from_scores, corpus_mod.normalize_author)
    with tracing.Tracer():
        assert pipe_mod.coverage is eval_mod.coverage is not before[0]
        assert eval_mod.top_k is ind_mod.top_k is not before[1]
        assert stats_mod.IndicatorTable.from_scores.__func__ is not before[3].__func__
        assert corpus_mod.normalize_author is before[4]
    after = (pipe_mod.coverage, eval_mod.top_k, ind_mod.top_k,
             stats_mod.IndicatorTable.from_scores, corpus_mod.normalize_author)
    assert after == before


def test_summarize_self_times_and_never_called():
    spans = [
        [tracing.ROOT, 0.0, 10.0, -1],
        ["evaluation.coverage", 1.0, 4.0, 0],
        ["indicators.top_k", 2.0, 3.0, 1],
        [tracing.SOLVE, 5.0, 6.0, 0],
    ]
    summary = tracing.summarize(spans)
    assert summary["layers"]["evaluation.coverage_s"] == 2.0
    assert summary["layers"]["indicators.rank_s"] == 1.0
    assert summary["layers"]["pipeline.self_s"] == 6.0
    assert sum(summary["layers"].values()) == summary["run_s"] == 10.0
    assert summary["solves"] == 1
    assert "corpus.parse_corpus" in summary["never_called"]
    assert tracing.ROOT not in summary["never_called"]


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-core", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
