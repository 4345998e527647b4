"""Output checks, read from a finished run directory.

They use only the file formats of the run directory (manifest, edge, node,
indicator and table files), never package code, so they hold across
refactors that keep those formats.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

SCORE_SUM_TOL = 1e-9
SOLVER_L1_TOL = 1e-9


def phase_tag(label: str) -> str:
    """File-name tag of a phase label, as the run directory spells it."""
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def read_manifest(outdir: Path) -> dict:
    return json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))


def _phases(manifest: dict) -> dict[str, dict]:
    return {label: info for label, info in manifest["phases"].items() if "skipped" not in info}


def _solves(info: dict) -> dict[str, dict]:
    """The PageRank variants of one phase: diagnostics entries with a convergence flag."""
    return {k: v for k, v in info["diagnostics"].items()
            if isinstance(v, dict) and "converged" in v}


def _columns(path: Path, *names: str) -> np.ndarray:
    """The named columns of a tab-separated file with a header row."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        cols = [header.index(n) for n in names]
        return np.loadtxt(fh, delimiter="\t", usecols=cols, comments=None, ndmin=2)


def check_outputs(outdir: Path, indicator_columns: int, n_dampings: int) -> list[str]:
    """Problems found in a run directory; an empty list means it passed.

    Every indicator rank column sums to n(n+1)/2, every PageRank score
    column sums to 1, every solve converged, and every table has the
    expected indicator columns.
    """
    problems = []
    phases = _phases(read_manifest(outdir))
    if not phases:
        problems.append("no phase produced output")
    for label, info in phases.items():
        tag = phase_tag(label)
        solves = _solves(info)
        if len(solves) != 3 * n_dampings:
            problems.append(f"{label}: {len(solves)} solves in diagnostics, "
                            f"expected {3 * n_dampings}")
        stalled = sorted(k for k, v in solves.items() if v["converged"] is not True)
        if stalled:
            problems.append(f"{label}: not converged: {', '.join(stalled)}")

        with open(outdir / f"table_{tag}.tsv", encoding="utf-8") as fh:
            columns = len(fh.readline().rstrip("\n").split("\t")) - 1
        if columns != indicator_columns:
            problems.append(f"{label}: table has {columns} indicator columns, "
                            f"expected {indicator_columns}")

        files = sorted(outdir.glob(f"indicator_{tag}_*.tsv"))
        if len(files) != indicator_columns:
            problems.append(f"{label}: {len(files)} indicator files, expected {indicator_columns}")
        for path in files:
            scores, ranks = _columns(path, "score", "rank").T
            n = len(ranks)
            if not math.isclose(math.fsum(ranks), n * (n + 1) / 2, rel_tol=1e-12):
                problems.append(f"{path.name}: ranks sum to {math.fsum(ranks)!r}, "
                                f"not n(n+1)/2 with n={n}")
            name = path.stem.removeprefix(f"indicator_{tag}_")
            if name in solves and abs(math.fsum(scores) - 1.0) > SCORE_SUM_TOL:
                problems.append(f"{path.name}: scores sum to {math.fsum(scores)!r}, not 1")
    return problems


def _rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh]


def solver_check(outdir: Path, damping: float) -> tuple[list[str], float]:
    """Recompute the publication-teleport PageRank at ``damping`` per phase.

    Solves (I - d P^T) x = (1 - d) t directly from the phase's edge and node
    files, with P the row-normalised citation matrix and t the publication
    teleport. Dangling mass goes to the teleport, which only rescales x, so
    the PageRank vector is x / sum(x). Returns the problems found and the
    largest L1 distance to the written scores.
    """
    problems = []
    worst = 0.0
    label = f"pagerank_pub_d{damping:g}"
    for phase in _phases(read_manifest(outdir)):
        tag = phase_tag(phase)
        nodes = _rows(outdir / f"nodes_{tag}.tsv")
        index = {row[0]: i for i, row in enumerate(nodes)}
        n = len(nodes)
        edges = _rows(outdir / f"edges_{tag}.tsv")
        citer = np.array([index[row[0]] for row in edges], dtype=np.int64)
        cited = np.array([index[row[1]] for row in edges], dtype=np.int64)
        weight = np.array([float(row[2]) for row in edges])
        out = np.bincount(citer, weights=weight, minlength=n)
        p_t = sparse.csr_matrix((weight / out[citer], (cited, citer)), shape=(n, n))
        pubs = np.array([float(row[2]) for row in nodes])
        x = spsolve((sparse.identity(n, format="csr") - damping * p_t).tocsc(),
                    (1.0 - damping) * pubs / pubs.sum())
        expected = x / x.sum()

        written = np.full(n, np.nan)
        for author, score, *_ in _rows(outdir / f"indicator_{tag}_{label}.tsv")[1:]:
            written[index[author]] = float(score)
        l1 = float(np.abs(expected - written).sum())
        worst = max(worst, l1 if math.isfinite(l1) else math.inf)
        if not l1 <= SOLVER_L1_TOL:
            problems.append(f"{phase}: {label} is {l1:.3g} (L1) from a direct solve")
    return problems, worst


def run_counts(outdir: Path) -> dict[str, float]:
    """Work counts of a run, from its manifest and phase corpus files.

    ``corpus.refs`` counts the references of papers inside the phases.
    """
    manifest = read_manifest(outdir)
    phases = _phases(manifest)
    graphs = [info["graph"] for info in phases.values()]
    solves = [s for info in phases.values() for s in _solves(info).values()]
    nodes = sum(g["n_nodes"] for g in graphs)
    refs = 0
    for label in phases:
        with open(outdir / f"corpus_{phase_tag(label)}.jsonl", encoding="utf-8") as fh:
            refs += sum(len(json.loads(line)["refs"]) for line in fh)
    return {
        "corpus.papers": manifest["input_papers"],
        "corpus.refs": refs,
        "network.nodes": nodes,
        "network.edges": sum(g["n_edges"] for g in graphs),
        "network.dangling_frac": sum(g["n_dangling"] for g in graphs) / max(nodes, 1),
        "pagerank.iterations": sum(s["iterations"] for s in solves),
        "pagerank.iterations_max": max((s["iterations"] for s in solves), default=0),
        "pagerank.nonconverged": sum(s["converged"] is not True for s in solves),
        "indicators.if_misses": sum(
            info["diagnostics"].get("impact_factor_misses", 0) for info in phases.values()),
        "evaluation.missing_winners": sum(
            len(info.get("winners_missing", ())) for info in phases.values()),
        "pipeline.files": sum(1 for p in outdir.iterdir() if p.is_file()),
    }


def dir_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())
