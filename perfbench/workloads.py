"""The benchmark's workloads and the inputs each one generates from a seed.

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Share of (venue, year) pairs left out of a file workload's impact-factor
#: table, so the impact-factor miss path runs as it does on real tables.
IF_GAP = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    n_papers: int
    n_authors: int
    skew: float
    dampings: tuple[float, ...] = (0.15, 0.5, 0.85)
    corpus_file: bool = True  # False: the pipeline generates the corpus itself
    winners: int = 0  # size of the raw-form winner list; 0 writes none

    def indicator_columns(self) -> int:
        """Table columns: popularity, prestige, 3 teleports x dampings, h-index, IF."""
        return 2 + 3 * len(self.dampings) + 2


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-sparse",
            n_papers=5_000,
            n_authors=50_000,
            skew=8.0,
        ),
        Workload(
            name="dense-core",
            n_papers=20_000,
            n_authors=1_500,
            skew=1.0,
            winners=40,
        ),
        Workload(
            name="damping-sweep",
            n_papers=10_000,
            n_authors=10_000,
            skew=4.0,
            dampings=(0.5, 0.85, 0.9, 0.95),
            corpus_file=False,
        ),
    )
}


def make_inputs(w: Workload, seed: int, dest: Path) -> tuple[list[str], dict[str, float]]:
    """Write the workload's input files under ``dest``.

    Returns the ``--set`` entries of the run (all but ``outdir``) and the
    seconds spent generating and writing the inputs.
    """
    from bibliorank import corpus as corpus_mod
    from bibliorank import indicators as ind_mod
    from bibliorank import pipeline as pipe_mod

    entries = ["dampings=" + ",".join(f"{d:g}" for d in w.dampings)]
    if not w.corpus_file:
        entries += [f"seed={seed}", f"n_papers={w.n_papers}",
                    f"n_authors={w.n_authors}", f"skew={w.skew:g}"]
        return entries, {"generate_s": 0.0, "write_s": 0.0}

    t0 = time.perf_counter()
    corpus = corpus_mod.generate_synthetic(
        seed=seed, n_papers=w.n_papers, n_authors=w.n_authors, skew=w.skew
    )
    t1 = time.perf_counter()

    dest.mkdir(parents=True, exist_ok=True)
    corpus_path, if_path = dest / "corpus.jsonl", dest / "if.tsv"
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        corpus_mod.serialize_corpus(corpus, fh)
    rng = np.random.default_rng([seed, 1])
    full = pipe_mod.generate_impact_factors(corpus, seed).factors
    kept = {k: v for k, v in sorted(full.items()) if rng.random() >= IF_GAP}
    with open(if_path, "w", encoding="utf-8", newline="\n") as fh:
        pipe_mod.dump_impact_factors(ind_mod.ImpactFactorTable(kept), fh)
    entries += [f"corpus={corpus_path}", f"if_table={if_path}"]

    if w.winners:
        # Raw spellings ("Auth, 000123.") exercise name normalisation; the
        # last id is past every generated author, so it is always missing.
        ids = rng.choice(w.n_authors, size=w.winners - 1, replace=False)
        names = [f"Auth, {i:06d}." for i in sorted(ids)] + [f"Auth, {w.n_authors:06d}."]
        winners_path = dest / "winners.txt"
        winners_path.write_text("".join(n + "\n" for n in names), encoding="utf-8")
        entries.append(f"winners={winners_path}")
    return entries, {"generate_s": t1 - t0, "write_s": time.perf_counter() - t1}
