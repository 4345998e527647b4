"""Print every end-to-end and per-layer metric of every workload.

    python3 perfbench/report.py --seed 1 --seconds 20

Runs each workload as ``run.py --trace 1`` does and prints its table.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import run  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args(argv)
    ok = True
    for name, w in WORKLOADS.items():
        res = run.run_workload(w, args.seed, args.seconds, trace=True)
        run.print_table(name, res)
        ok = ok and res["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
