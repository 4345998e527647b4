"""The byte contract: the manifest ``files`` map of five reference runs.

A run directory is the pipeline's behaviour, so a change that keeps the
bytes keeps the behaviour.  Each config below is run whole and its
manifest's ``files`` map (file name -> sha256) is compared with the map
recorded in ``byte_contract.json``, together with the numpy, scipy and
Python versions the maps were recorded under.  The configs are the
acceptance test's 10k-paper run, the seed-1 inputs of the three benchmark
workload shapes, and the dense-core inputs without self-citations.

A change that means to alter output bytes rewrites the recorded maps with

    PYTHONPATH=src python -m tests.test_byte_contract

and explains each changed file.
"""

import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from bibliorank.corpus import generate_synthetic, serialize_corpus
from bibliorank.indicators import ImpactFactorTable
from bibliorank.pipeline import (
    dump_impact_factors,
    generate_impact_factors,
    load_config,
    run_pipeline,
)

EXPECTED = Path(__file__).with_name("byte_contract.json")

#: Corpus shapes (seed, papers, authors, skew) and the size of the raw-form
#: winner list, for the runs that read their inputs from files.
FILE_INPUTS = {
    "wide-sparse": (1, 5_000, 50_000, 8.0, 0),
    "dense-core": (1, 20_000, 1_500, 1.0, 40),
}
IF_GAP = 0.05  # share of (venue, year) pairs left out of the impact-factor table

#: Config name -> (file inputs or None, the run's --set entries but outdir).
CONFIGS = {
    "test_10": (None, ["seed=17", "n_papers=10000", "n_authors=100000", "skew=8"]),
    "wide-sparse": ("wide-sparse", []),
    "dense-core": ("dense-core", []),
    "damping-sweep": (None, ["seed=1", "n_papers=10000", "n_authors=10000", "skew=4",
                             "dampings=0.5,0.85,0.9,0.95"]),
    "dense-core-no-self-citation": ("dense-core", ["allow_self_citation=false"]),
}


def versions() -> dict[str, str]:
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version()}


def write_inputs(name: str, dest: Path) -> list[str]:
    """Write the corpus, impact-factor table and winner list of a file
    input under ``dest``; returns the --set entries that name them."""
    seed, n_papers, n_authors, skew, n_winners = FILE_INPUTS[name]
    corpus = generate_synthetic(seed=seed, n_papers=n_papers, n_authors=n_authors, skew=skew)
    dest.mkdir(parents=True)
    corpus_path, if_path = dest / "corpus.jsonl", dest / "if.tsv"
    with open(corpus_path, "w", encoding="utf-8", newline="\n") as fh:
        serialize_corpus(corpus, fh)
    rng = np.random.default_rng([seed, 1])
    full = generate_impact_factors(corpus, seed).factors
    kept = {k: v for k, v in sorted(full.items()) if rng.random() >= IF_GAP}
    with open(if_path, "w", encoding="utf-8", newline="\n") as fh:
        dump_impact_factors(ImpactFactorTable(kept), fh)
    entries = [f"corpus={corpus_path}", f"if_table={if_path}"]
    if n_winners:
        # raw spellings; the last id is past every author, so it is missing
        ids = rng.choice(n_authors, size=n_winners - 1, replace=False)
        names = [f"Auth, {i:06d}." for i in sorted(ids)] + [f"Auth, {n_authors:06d}."]
        winners_path = dest / "winners.txt"
        winners_path.write_text("".join(n + "\n" for n in names), encoding="utf-8")
        entries.append(f"winners={winners_path}")
    return entries


def files_map(name: str, work: Path, inputs: dict[str, list[str]]) -> dict[str, str]:
    """Run config ``name`` under ``work``; returns its manifest ``files``
    map.  ``inputs`` caches each file input's --set entries."""
    source, entries = CONFIGS[name]
    if source is not None and source not in inputs:
        inputs[source] = write_inputs(source, work / "inputs" / source)
    cfg = load_config(None, overrides=[*inputs.get(source, []), *entries,
                                       f"outdir={work / 'runs' / name}"])
    return run_pipeline(cfg)["files"]


def _mismatch(expected: dict[str, str], got: dict[str, str]) -> str:
    changed = sorted(n for n in expected.keys() & got.keys() if expected[n] != got[n])
    parts = [f"{label}: {', '.join(names)}" for label, names in (
        ("changed", changed),
        ("missing", sorted(expected.keys() - got.keys())),
        ("unexpected", sorted(got.keys() - expected.keys()))) if names]
    return "; ".join(parts)


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("byte_contract"), {}


@pytest.mark.parametrize("name", CONFIGS)
def test_files_map_matches_the_recorded_one(name, work):
    recorded = json.loads(EXPECTED.read_text(encoding="utf-8"))
    got = files_map(name, *work)
    if got != recorded["configs"][name]:
        message = f"{name}: {_mismatch(recorded['configs'][name], got)}"
        if recorded["versions"] != versions():
            message += (f" (the maps were recorded under {recorded['versions']}, "
                        f"this run has {versions()})")
        pytest.fail(message)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        cache: dict[str, list[str]] = {}
        configs = {name: files_map(name, Path(tmp), cache) for name in CONFIGS}
    EXPECTED.write_text(json.dumps({"versions": versions(), "configs": configs},
                                   indent=2, sort_keys=True) + "\n", encoding="utf-8")
