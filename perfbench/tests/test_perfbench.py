"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs at a tiny size in both trace modes and must print every
declared metric; the golden comparator must catch an altered tally; and the
self-time arithmetic must hold on a synthetic nested trace.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench  # noqa: E402
import golden  # noqa: E402
import layers  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3

#: sizes small enough for a test and large enough that no engine guard trips.
TINY = {
    "f2-sweep": {"samples": 12},
    "iid-mc": {"trials": 6},
    "tail-fit": {"chunk_trials": 512, "chunks": 2, "samples": 40, "effort": 1024},
    "rare-campaign": {"chunk_trials": 512, "chunks": 2, "samples": 40},
}


def tiny(name):
    return WORKLOADS[name](**TINY[name])


@pytest.fixture(scope="module")
def tiny_golden(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return {name: bench.record(tiny(name), SEED, workdir) for name in WORKLOADS}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_declared_metric(name, trace, tiny_golden, tmp_path):
    result = bench.run(name, SEED, 0.0, trace, workload=tiny(name),
                       expected=tiny_golden[name], setup_probes=1, workdir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    json.dumps(result)


def test_campaign_equals_tail_fit_pair(tiny_golden):
    assert tiny_golden["rare-campaign"]["pair"] == tiny_golden["tail-fit"]["pair"]


def test_golden_comparator_catches_an_altered_tally(tiny_golden, tmp_path):
    altered = json.loads(json.dumps(tiny_golden["iid-mc"]))
    altered["pair"][0] += 1  # one more clean read than the program returns
    assert golden.mismatched(tiny_golden["iid-mc"], altered) == ["pair"]
    result = bench.run("iid-mc", SEED, 0.0, 0, workload=tiny("iid-mc"),
                       expected=altered, setup_probes=1, workdir=tmp_path)
    assert not result["correct"]
    # the pair unit fails in every repetition, every other unit matches
    assert result["failed"] * len(altered) == result["attempted"]


def test_self_times_subtract_direct_children_within_one_process():
    spans = [
        ("a", 0.0, 10.0, 1, 0, 100, None),
        ("b", 1.0, 4.0, 2, 1, 100, None),
        ("c", 5.0, 9.0, 3, 1, 100, None),
        ("d", 6.0, 7.0, 4, 3, 100, None),
        # a forked worker's span under "a": it ran concurrently, so no subtraction
        ("w", 2.0, 8.0, 5, 1, 200, None),
    ]
    own = {span[0]: value for span, value in self_times(spans)}
    assert own == pytest.approx({"a": 3.0, "b": 3.0, "c": 3.0, "d": 1.0, "w": 6.0})


def test_layer_split_counts_and_unattributed_time():
    spans = [
        ("codes.decode", 0.0, 4.0, 1, 0, 100, (10, 4, 1)),
        ("codes.decode", 0.5, 1.0, 2, 1, 100, (1, 1, 1)),  # nested: counted once
        ("galois.chien", 1.0, 2.0, 3, 1, 100, None),
        ("reliability.line_law", 5.0, 6.0, 4, 0, 100, None),  # not a named layer
    ]
    metrics, _ = layers.summarize(spans, pid=100, wall=8.0, diag={})
    assert metrics["codes.decode_s"] == pytest.approx(3.0)
    assert metrics["galois.chien_s"] == pytest.approx(1.0)
    assert metrics["codes.words"] == 10
    assert metrics["codes.dirty_frac"] == pytest.approx(0.4)
    assert metrics["codes.detected_frac"] == pytest.approx(0.25)
    assert metrics["codes.words_per_s"] == pytest.approx(10 / 4.0)
    assert metrics["unattributed_s"] == pytest.approx(4.0)
    assert metrics["coverage_frac"] == pytest.approx(0.5)


def test_declared_units_match_the_code():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS
