"""CI perf gate for the RS decode micro-benchmarks.

Compares a freshly-recorded pytest-benchmark JSON against the committed
baseline ``BENCH_rs_decode.json`` and fails (exit 1) when:

* any **tracked** kernel benchmark's mean regresses by more than
  ``--threshold`` (default 25%) relative to the baseline mean, or
* a tracked benchmark disappeared from the candidate run.

Tracked benchmarks are the kernel micro-benchmarks (scalar decodes, batch
throughput, the dense syndrome screen).  The F2 sweep wall-clock is
reported but not gated: it spans the whole pipeline and moves with every
subsystem, which would make the gate noisy for unrelated PRs.  The dense
beyond-bound batch decode is reported but not gated either, until a
baseline recorded on the CI runner class includes it.

Absolute-time comparisons across different hosts are meaningless, so CI
runs both the candidate and its verdict on the same runner class that
recorded the baseline.  **Baseline refresh procedure** (after a deliberate
perf change, or when CI runner hardware shifts)::

    python -m pytest benchmarks/bench_rs_decode.py --benchmark-only \
        --benchmark-json=BENCH_rs_decode.json
    python benchmarks/check_regression.py BENCH_rs_decode.json  # self-check
    git add BENCH_rs_decode.json   # commit with the PR that changed perf

(the self-check against itself validates the schema; the regression legs
trivially pass at ratio 1.0).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: benchmarks whose means are gated against the baseline.
TRACKED = (
    "test_decode_clean_word",
    "test_decode_dirty_word",
    "test_decode_batch_throughput",
    "test_syndrome_screen_dense",
)

#: informational only - printed, never gated.
INFORMATIONAL = ("test_f2_sweep_wall_clock", "test_decode_beyond_bound_batch")


def load_means(path: Path) -> dict[str, float]:
    """``{benchmark name: mean seconds}`` from a pytest-benchmark JSON."""
    with open(path) as fh:
        payload = json.load(fh)
    return {bench["name"]: bench["stats"]["mean"] for bench in payload["benchmarks"]}


def check(
    candidate: dict[str, float],
    baseline: dict[str, float],
    threshold: float,
) -> list[str]:
    """All gate violations (empty list = pass)."""
    problems: list[str] = []
    for name in TRACKED:
        base = baseline.get(name)
        cand = candidate.get(name)
        if base is None:
            problems.append(
                f"{name}: missing from the baseline - refresh BENCH_rs_decode.json "
                "(see the baseline refresh procedure in this script's docstring)"
            )
            continue
        if cand is None:
            problems.append(f"{name}: tracked benchmark missing from the candidate run")
            continue
        ratio = cand / base
        marker = "FAIL" if ratio > 1.0 + threshold else "ok"
        print(
            f"  [{marker:4s}] {name}: {base * 1e3:9.3f} ms -> {cand * 1e3:9.3f} ms "
            f"({ratio:5.2f}x of baseline)"
        )
        if ratio > 1.0 + threshold:
            problems.append(
                f"{name}: regressed {ratio:.2f}x vs baseline "
                f"(threshold {1.0 + threshold:.2f}x)"
            )
    for name in INFORMATIONAL:
        if name in candidate:
            note = f"  [info] {name}: {candidate[name]:.4g} s"
            if name in baseline:
                note += f" (baseline {baseline[name]:.4g} s; not gated)"
            print(note)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("candidate", type=Path,
                        help="benchmark JSON from this run")
    parser.add_argument("--baseline", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_rs_decode.json",
                        help="committed baseline JSON (default: repo root)")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed fractional regression (default 0.25)")
    args = parser.parse_args(argv)

    if not args.baseline.exists():
        print(f"baseline {args.baseline} not found", file=sys.stderr)
        return 2
    candidate = load_means(args.candidate)
    baseline = load_means(args.baseline)
    print(f"perf gate: {args.candidate} vs baseline {args.baseline}")
    problems = check(candidate, baseline, args.threshold)
    if problems:
        print("\nperf gate FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        print(
            "\nIf this slowdown is intended, refresh the baseline (see the "
            "procedure in benchmarks/check_regression.py).",
            file=sys.stderr,
        )
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
