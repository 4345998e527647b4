"""Benchmark of the bibliorank pipeline on one workload.

    python3 perfbench/run.py --workload dense-core --seed 1 --seconds 20 --trace 0

Sets up the workload's inputs from the seed several times, each in a fresh
process, then calls ``run_pipeline`` in fresh processes for ``--seconds``
(at least MIN_RUNS calls) and checks every run directory. ``--trace 1``
adds one traced call that gives the per-layer numbers.

Prints a table of metrics, then, as its last line, one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
MIN_RUNS = 3
DEADLINE_S = 170.0  # every child must end by then, inside the 180 s limit
MAX_SECONDS = 100.0  # leaves room for the set-ups and the last calls

END_TO_END = {"run_s": "s", "peak_rss_mb": "MB", "output_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{layer: "s" for layer in tracing.LAYERS},
    "corpus.papers": "count",
    "corpus.refs": "count",
    "network.nodes": "count",
    "network.edges": "count",
    "network.dangling_frac": "ratio",
    "pagerank.solves": "count",
    "pagerank.iterations": "count",
    "pagerank.iterations_max": "count",
    "pagerank.nonconverged": "count",
    "indicators.if_misses": "count",
    "evaluation.missing_winners": "count",
    "pipeline.files": "count",
    "setup.import_s": "s",
    "setup.generate_s": "s",
    "setup.write_s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.never_called": "count",
    "run_s.samples": "count",
    "failed_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark could not produce its metrics."""


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def _child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one worker process; returns its JSON result and its wall seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.worker", *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), wall


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")) if directory.exists() else ():
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def pipeline_run(w: Workload, entries: list[str], outdir: Path, trace: bool,
                 deadline: float) -> dict:
    """One ``run_pipeline`` call and the checks of its run directory."""
    try:
        run, _ = _child(["pipeline", str(int(trace)), *entries, f"outdir={outdir}"], deadline)
    except BenchError as exc:
        return {"problems": [str(exc)]}
    if run["error"]:
        run["problems"] = [run["error"]]
        return run
    try:
        run["problems"] = checks.check_outputs(outdir, w.indicator_columns(), len(w.dampings))
        run["files"] = checks.read_manifest(outdir)["files"]
        run["output_mb"] = checks.dir_bytes(outdir) / 1e6
    except (OSError, KeyError, ValueError) as exc:
        run["problems"] = [f"unreadable run directory: {type(exc).__name__}: {exc}"]
    return run


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; the working directory is removed afterwards."""
    work = ROOT / WORK_DIR / f"{w.name}-{seed}-{os.getpid()}"
    try:
        return _measure(w, seed, seconds, trace, work, time.monotonic() + DEADLINE_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def _measure(w: Workload, seed: int, seconds: float, trace: bool, work: Path,
             deadline: float) -> dict:
    inputs = work / "input"
    setups, digests = [], set()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        result, wall = _child(["setup", json.dumps(asdict(w)), str(seed), str(inputs)], deadline)
        setups.append({**result, "wall": wall})
        digests.add(_digest(inputs))
    if len(digests) != 1:
        raise BenchError("set-ups from one seed wrote different inputs")
    entries = setups[0]["entries"]

    runs: list[dict] = []
    reference = None  # manifest file hashes of the first clean run
    info = []
    t_end = time.monotonic() + seconds
    while len(runs) < MIN_RUNS or time.monotonic() < t_end:
        outdir = work / f"run{len(runs)}"
        run = pipeline_run(w, entries, outdir, False, deadline)
        if not run["problems"]:
            if reference is None:
                reference = run["files"]
                try:
                    found, l1 = checks.solver_check(outdir, max(w.dampings))
                    info.append(f"solver check: largest L1 to a direct solve {l1:.3g}")
                except (OSError, KeyError, ValueError) as exc:
                    found = [f"solver check: unreadable run directory: {exc!r}"]
                run["problems"] += found
            elif run["files"] != reference:
                run["problems"].append("run directory differs from the first run of this seed")
        runs.append(run)
        shutil.rmtree(outdir, ignore_errors=True)

    timed = [r for r in runs if "output_mb" in r]
    if not timed:
        raise BenchError("no pipeline call finished: " + "; ".join(runs[0]["problems"]))
    run_s = statistics.median(r["run_s"] for r in timed)
    end_to_end = {
        "run_s": run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "output_mb": statistics.median(r["output_mb"] for r in timed),
        "setup_s": statistics.median(s["wall"] for s in setups),
    }

    per_layer = None
    if trace:
        outdir = work / "traced"
        traced = pipeline_run(w, entries, outdir, True, deadline)
        if "output_mb" not in traced:
            raise BenchError("traced run failed: " + "; ".join(traced["problems"]))
        if not traced["problems"] and traced["files"] != reference:
            traced["problems"].append("traced run wrote other files than the untraced runs")
        runs.append(traced)
        summary = traced["trace"]
        per_layer = {
            **summary["layers"],
            **checks.run_counts(outdir),
            "pagerank.solves": summary["solves"],
            **{f"setup.{k}": statistics.median(s[k] for s in setups)
               for k in ("import_s", "generate_s", "write_s")},
            "trace.run_s": summary["run_s"],
            "trace.overhead_frac": summary["run_s"] / run_s - 1.0,
            "trace.never_called": len(summary["never_called"]),
        }
        info.append("never called: " + (", ".join(summary["never_called"]) or "-"))
        info.append(f"layer self times sum to {sum(summary['layers'].values()):.6f} s "
                    f"of the traced run_s {summary['run_s']:.6f} s")

    failed = sum(1 for r in runs if r["problems"])
    if per_layer is not None:
        per_layer["run_s.samples"] = len(timed)
        per_layer["failed_frac"] = failed / len(runs)
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "problems": [p for r in runs for p in r["problems"]],
        "run_s_samples": [r["run_s"] for r in timed],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "info": info,
    }


def print_table(workload: str, res: dict) -> None:
    rows = [(k, v, END_TO_END[k]) for k, v in res["end_to_end"].items()]
    rows.append(("failed_frac", res["failed"] / res["attempted"], "ratio"))
    if res["per_layer"]:
        rows += [(k, v, PER_LAYER[k]) for k, v in res["per_layer"].items() if k != "failed_frac"]
    for name, value, unit in rows:
        print(f"{workload:14s} {name:28s} {value:16.6f} {unit}")
    print(f"{workload:14s} run_s is the median of {len(res['run_s_samples'])} runs: "
          + ", ".join(f"{t:.3f}" for t in res["run_s_samples"]))
    for line in res["info"]:
        print(f"{workload:14s} {line}")
    for problem in res["problems"]:
        print(f"{workload}: FAILED CHECK: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be in [0, {MAX_SECONDS:g}] so the run ends in time")
    if not (ROOT / "src" / "bibliorank" / "pipeline.py").is_file():
        print(f"perfbench: no bibliorank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        res = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print_table(args.workload, res)
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
