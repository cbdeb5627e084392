#!/usr/bin/env python3
"""Record the golden outputs that every benchmark run is compared against.

    python3 perfbench/record_golden.py

Runs every workload once per recorded seed (development and held-out) and
rewrites ``perfbench/golden.json`` as a whole.  Record only at a commit whose
outputs are trusted, and commit the file with the change that needed it: a
new workload size or a deliberate change of results.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import golden  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    env = bench.pin_environment()
    book: dict = {"workloads": {}}
    for name, cls in WORKLOADS.items():
        workload = cls()
        seeds = {}
        for seed in golden.recorded_seeds():
            seeds[str(seed)] = bench.record(workload, seed, bench.WORKDIR)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
        book["workloads"][name] = {"params": workload.params(), "seeds": seeds}
    book["recorded_with"] = {
        key: env[key] for key in ("gf_backend", "nproc", "python", "numpy")
    }
    problems = golden.cross_check(book)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    golden.GOLDEN_PATH.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
