#!/usr/bin/env python3
"""Layered reliability-pipeline benchmark.

    python3 perfbench/run.py --workload f2-sweep --seed 0 --seconds 25 --trace 0

Workloads: ``f2-sweep``, ``iid-mc``, ``tail-fit`` and ``rare-campaign``
(see ``workloads.py``).  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer split, writing a traced-run report to standard
error and to ``.perfbench/reports/``.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

Run it from the root of a checkout: the program is imported from that
checkout's ``src/`` and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    import golden

    if args.workload not in bench.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"have {sorted(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        bench.setup_probe(args.workload, args.seed)
        return 0
    try:
        result = bench.run(args.workload, args.seed, args.seconds, args.trace)
    except (golden.GoldenError, RuntimeError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
