"""Child process of the benchmark: one input set-up or one pipeline call.

    python3 -m perfbench.worker setup <workload json> <seed> <input dir>
    python3 -m perfbench.worker pipeline <trace 0|1> <key=value>...

Each prints one JSON object as its last line of standard output. A fresh
process per pipeline call gives every call the same start state and its own
peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]


def _import_package() -> float:
    """Import the package from this checkout's sources; returns the seconds taken."""
    t0 = perf_counter()
    import bibliorank.cli  # noqa: F401  (imports every module of the package)

    if not Path(bibliorank.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"bibliorank imported from {bibliorank.cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    return perf_counter() - t0


def setup(workload_json: str, seed: str, dest: str) -> dict:
    import_s = _import_package()
    from perfbench.workloads import Workload, make_inputs

    fields = json.loads(workload_json)
    w = Workload(**{**fields, "dampings": tuple(fields["dampings"])})
    entries, times = make_inputs(w, int(seed), Path(dest))
    return {"entries": entries, "import_s": import_s, **times}


def pipeline(trace: str, *entries: str) -> dict:
    _import_package()
    from bibliorank import pipeline as pipe_mod
    from perfbench.tracing import Tracer, summarize

    # The `bibliorank pipeline --set key=value` path.
    cfg = pipe_mod.RunConfig()
    for entry in entries:
        pipe_mod.apply_config_entry(cfg, *entry.split("=", 1))
    cfg.validate()

    tracer = Tracer() if trace == "1" else None
    result: dict = {"error": None}
    try:
        if tracer:
            with tracer:
                pipe_mod.run_pipeline(cfg)
        else:
            t0 = perf_counter()
            pipe_mod.run_pipeline(cfg)
            result["run_s"] = perf_counter() - t0
    except Exception as exc:  # reported as a failed run, with its traceback
        traceback.print_exc()
        result["error"] = f"{type(exc).__name__}: {exc}"
    if tracer:
        result["trace"] = summarize(tracer.spans)
        result["run_s"] = result["trace"]["run_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    return result


if __name__ == "__main__":
    mode, *args = sys.argv[1:]
    print(json.dumps({"setup": setup, "pipeline": pipeline}[mode](*args)))
