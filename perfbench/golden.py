"""Golden outputs: the exact per-seed results every run is compared against.

``golden.json`` holds, per workload, the workload sizes it was recorded at
and the canonical outputs of every recorded seed.  Canonical means
JSON-safe and exact: floats are stored as ``float.hex`` strings, so
comparison is bit for bit.  ``record_golden.py`` writes the file.

The benchmark takes any integer ``--seed``.  Seeds listed in
:data:`HELD_OUT_SEEDS` run as given; every other seed is folded onto the
:data:`DEV_SEEDS` development seeds, so every run has golden outputs to
match.  The held-out seed exists so that a later performance claim can be
checked on inputs that were not used while the change was written.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: development seeds 0..DEV_SEEDS-1; other seeds fold onto them.
DEV_SEEDS = 16
#: recorded seeds kept out of development runs.
HELD_OUT_SEEDS = (1009,)


class GoldenError(RuntimeError):
    """No golden outputs match this workload, size and seed."""


def workload_seed(seed: int) -> int:
    """The recorded seed a ``--seed`` value runs."""
    return seed if seed in HELD_OUT_SEEDS else seed % DEV_SEEDS


def recorded_seeds() -> list[int]:
    return [*range(DEV_SEEDS), *HELD_OUT_SEEDS]


def canonical(value: Any) -> Any:
    """The exact JSON-safe form of an output: floats as hex, arrays as lists."""
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [canonical(item) for item in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    if value is None or isinstance(value, str):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def mismatched(expected: dict[str, Any], got: dict[str, Any]) -> list[str]:
    """Names of the output units that differ; a missing or extra unit differs."""
    return sorted(
        unit for unit in set(expected) | set(got) if expected.get(unit) != got.get(unit)
    )


def load(path: Path = GOLDEN_PATH) -> dict[str, Any]:
    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise GoldenError(f"cannot read golden outputs {path}: {exc}") from exc


def expected(book: dict[str, Any], name: str, params: dict[str, Any],
             seed: int) -> dict[str, Any]:
    """Golden units of one workload at one seed; refuses other sizes."""
    entry = book.get("workloads", {}).get(name)
    if entry is None:
        raise GoldenError(f"no golden outputs for workload {name!r}")
    if entry["params"] != params:
        raise GoldenError(
            f"golden outputs of {name!r} were recorded at sizes {entry['params']}, "
            f"the workload now runs {params}; re-record with record_golden.py"
        )
    units = entry["seeds"].get(str(seed))
    if units is None:
        raise GoldenError(f"no golden outputs for {name!r} at seed {seed}")
    return units


def cross_check(book: dict[str, Any]) -> list[str]:
    """Contracts between workloads' golden outputs.

    The rare-event campaign runs PAIR's importance sampler with the same
    trials, chunking, seed, tables and tilt as ``tail-fit``, so its merged
    tally, log-weight sums included, must equal ``tail-fit``'s PAIR unit.
    """
    workloads = book.get("workloads", {})
    if "rare-campaign" not in workloads or "tail-fit" not in workloads:
        return []
    campaign = workloads["rare-campaign"]["seeds"]
    tail = workloads["tail-fit"]["seeds"]
    return [
        f"rare-campaign differs from tail-fit's PAIR estimate at seed {seed}"
        for seed in sorted(set(campaign) & set(tail), key=int)
        if campaign[seed]["pair"] != tail[seed]["pair"]
    ]
