"""Measurement loop, metrics and traced-run report of the pipeline benchmark.

A run prepares one workload from its seed and runs it once untimed, which
warms the interpreter.  It then repeats the workload for the requested
seconds.  Every repetition starts from empty conditional-table and
GF-kernel caches, as a fresh CLI process does, and every repetition's
outputs are compared bit for bit with the golden outputs.

Every time is stated at the host's reference speed (see ``speed.py``): a
probe of the host's speed runs right before and right after each timed
repetition and set-up, and scales the time measured between them.  Raw
times go to standard error.

* ``trace=0`` reports the end-to-end metrics, each the median over the
  run's repetitions.  Set-up time is the median over fresh processes
  started between the repetitions.  Observability stays off, and the run
  asserts that it is.
* ``trace=1`` spends half the time untraced and half with the layer
  wrappers installed.  It reports the per-layer metrics of the traced half
  and the tracing overhead between the two halves, and writes the
  traced-run report.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.galois import backends
from repro.galois import batch as gf_batch
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.reliability import conditional

import golden
import speed
from tracing import Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench"

#: the GF kernel tier every run selects: the registry default when this
#: benchmark was written, pinned so that neither ``REPRO_GF_BACKEND`` nor a
#: later change of default alters what is measured.
GF_BACKEND = "numpy"

#: fresh processes timed for ``setup_s``, spread evenly over the run; their
#: median is reported.
SETUP_PROBES = 9
#: timed repetitions per run, even when they overrun ``--seconds``.
MIN_REPS = 3

#: unit of every end-to-end metric.
E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def pin_environment() -> dict[str, Any]:
    """Select the measured program's knobs explicitly; describe the host."""
    backends.set_backend(GF_BACKEND)
    return {
        "gf_backend": GF_BACKEND,
        "backends": backends.backends_report(),
        "repro_env": {k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        "obs_enabled": obs_metrics.enabled(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def cold() -> None:
    """Empty the caches that a fresh CLI process starts without."""
    conditional.clear_cache()
    gf_batch.clear_cache()


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Rep:
    """One repetition of a workload."""

    wall: float
    cpu: float
    trials: int
    outputs: dict[str, Any]
    failed: list[str]  # units that failed in the program or differ from golden
    broken: list[str]  # violated contracts
    diag: dict[str, Any]
    spans: list | None = None
    #: multiplier that states the times at the reference speed (speed.py)
    factor: float = 1.0

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.factor


def one_rep(workload: Workload, expected: dict[str, Any] | None,
            tracer: Tracer | None = None) -> Rep:
    """Run the workload once from cold caches; check what it returns."""
    cold()
    cpu = _cpu_s()
    start = time.perf_counter()
    raw = workload.run()
    wall = time.perf_counter() - start
    cpu = _cpu_s() - cpu
    spans = tracer.drain() if tracer is not None else None
    try:
        outputs = workload.outputs(raw)
        failed, broken = workload.check(raw)
        if expected is not None:
            failed = sorted(set(failed) | set(golden.mismatched(expected, outputs)))
        return Rep(wall, cpu, workload.trials(raw), outputs, failed, broken,
                   workload.diagnostics(raw), spans)
    finally:
        workload.cleanup(raw)


def repeat(workload: Workload, expected: dict[str, Any] | None, seconds: float,
           min_reps: int, tracer: Tracer | None = None,
           between: Callable[[], None] | None = None) -> tuple[list[Rep], list[str]]:
    """Repetitions for ``seconds`` (at least ``min_reps``); stops at an error.

    The host's speed is probed before and after each repetition.
    ``between`` runs after each repetition, inside the ``seconds``.
    """
    reps: list[Rep] = []
    deadline = time.perf_counter() + seconds
    loop = speed.probe(workload.processes)
    while len(reps) < min_reps or time.perf_counter() < deadline:
        try:
            rep = one_rep(workload, expected, tracer)
        except Exception:
            return reps, [traceback.format_exc()]
        after = speed.probe(workload.processes, speed.passes_for(rep.wall))
        rep.factor = speed.factor(loop, after)
        reps.append(rep)
        loop = after
        if between is not None:
            between()
    return reps, []


def record(workload: Workload, seed: int, workdir: Path) -> dict[str, Any]:
    """Outputs of one run at ``seed``, for the golden file; checks enforced."""
    pin_environment()
    workload.prepare(seed, workdir)
    rep = one_rep(workload, None)
    if rep.failed or rep.broken:
        raise RuntimeError(f"{workload.name} seed {seed}: {rep.failed + rep.broken}")
    return rep.outputs


def setup_probe(name: str, seed: int) -> None:
    """Body of one set-up probe process: get ready to run, then say so."""
    pin_environment()
    WORKLOADS[name]().prepare(golden.workload_seed(seed), WORKDIR)
    print("ready", flush=True)


def setup_time(name: str, seed: int) -> tuple[float, float]:
    """Wall time from process start to ``ready`` in a fresh process.

    Returns the time as measured and at the reference speed.
    """
    command = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-probe"]
    loop = speed.probe()
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT) as probe:
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - start
        probe.stdout.read()
        code = probe.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe of {name} failed (exit code {code})")
    return elapsed, elapsed * speed.factor(loop, speed.probe())


def _require_obs_off() -> None:
    if obs_metrics.enabled():
        raise RuntimeError("observability is on; end-to-end runs measure with it off")


def run(name: str, seed: int, seconds: float, trace: int, *,
        workload: Workload | None = None, expected: dict[str, Any] | None = None,
        setup_probes: int = SETUP_PROBES, workdir: Path = WORKDIR) -> dict[str, Any]:
    """One benchmark run; returns the result object the command prints.

    ``workload`` and ``expected`` default to the full-size workload and its
    golden outputs; the benchmark's tests pass tiny ones.
    """
    env = pin_environment()
    print(f"perfbench environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    _require_obs_off()
    workload = workload or WORKLOADS[name]()
    print(f"perfbench {name}: one trial is one {workload.trial_unit}", file=sys.stderr)
    wseed = golden.workload_seed(seed)
    broken: list[str] = []
    if expected is None:
        book = golden.load()
        expected = golden.expected(book, name, workload.params(), wseed)
        broken += golden.cross_check(book)
    workload.prepare(wseed, workdir)

    reps, errors = repeat(workload, expected, 0.0, 1)  # warm-up, checked too
    if errors:
        metrics: dict[str, float] = {}
    elif trace:
        metrics, more, errors, found = _traced(workload, expected, seconds, seed,
                                               workdir)
        reps += more
        broken += found
    else:
        metrics, more, errors = _untraced(workload, expected, seconds, seed,
                                          setup_probes)
        reps += more
    units = len(expected)
    attempted = units * (len(reps) + len(errors))
    failed = sum(len(rep.failed) for rep in reps) + units * len(errors)
    broken += sorted({item for rep in reps for item in rep.broken})
    for problem in broken + errors:
        print(f"perfbench {name}: {problem}", file=sys.stderr)
    if not metrics:
        raise RuntimeError(f"{name} produced no measurement")
    units_of = E2E_UNITS
    if trace:
        import layers

        metrics["failed_frac"] = failed / attempted
        units_of = layers.UNITS
    return {
        "correct": failed == 0 and not broken and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in units_of.items()
        },
    }


def _untraced(workload: Workload, expected: dict[str, Any], seconds: float,
              seed: int, setup_probes: int) -> tuple[dict, list[Rep], list[str]]:
    # Set-up probes are children too, so the children's peak RSS is taken
    # before the first: the warm-up repetition has already run every child
    # the workload starts.
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setups: list[tuple[float, float]] = []
    start = time.perf_counter()

    def probe() -> None:
        # spread the set-up probes evenly over the run
        if len(setups) < setup_probes * (time.perf_counter() - start) / max(seconds, 1e-9):
            setups.append(setup_time(workload.name, seed))

    reps, errors = repeat(workload, expected, seconds, MIN_REPS, between=probe)
    if not reps:
        return {}, reps, errors
    _require_obs_off()
    while len(setups) < setup_probes:
        setups.append(setup_time(workload.name, seed))
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    median = statistics.median
    metrics = {
        "setup_s": median(scaled for _, scaled in setups),
        "wall_s": median(rep.scaled_wall for rep in reps),
        "trials_per_s": median(rep.trials / rep.scaled_wall for rep in reps),
        "cpu_s": median(rep.cpu * rep.factor for rep in reps),
        "peak_rss_mb": (own_kib + children_kib) / 1024.0,  # KiB on Linux
    }
    print(f"perfbench {workload.name}: {len(reps)} repetitions, {len(setups)} set-ups; "
          f"as measured, median wall_s {median(rep.wall for rep in reps):.4f}, "
          f"cpu_s {median(rep.cpu for rep in reps):.4f}, "
          f"setup_s {median(raw for raw, _ in setups):.4f}; "
          f"median speed factor {median(rep.factor for rep in reps):.4f}", file=sys.stderr)
    return metrics, reps, errors


def _traced(workload: Workload, expected: dict[str, Any], seconds: float, seed: int,
            workdir: Path) -> tuple[dict, list[Rep], list[str], list[str]]:
    import layers

    plain, errors = repeat(workload, expected, seconds / 2, MIN_REPS)
    if errors:
        return {}, plain, errors, []
    tracer = Tracer(Path(workdir) / "spool")
    layers.install(tracer)
    if workload.uses_obs_spans:
        obs_metrics.enable()
    try:
        traced, errors = repeat(workload, expected, seconds / 2, MIN_REPS, tracer)
    finally:
        tracer.uninstall()
        tracer.drain()
        if workload.uses_obs_spans:
            obs_metrics.disable()
            obs_metrics.reset()
            obs_trace.reset()
    found = [
        f"traced outputs differ from untraced ones in {units}"
        for rep in traced
        if (units := golden.mismatched(plain[0].outputs, rep.outputs))
    ]
    if not traced:
        return {}, plain, errors, found
    summaries = [
        layers.summarize(rep.spans, tracer.pid, rep.wall, rep.diag) for rep in traced
    ]
    metrics = {
        key: statistics.median(summary[0][key] for summary in summaries)
        for key in summaries[0][0]
    }
    overhead = (statistics.median(rep.scaled_wall for rep in traced)
                / statistics.median(rep.scaled_wall for rep in plain) - 1.0)
    metrics["trace_overhead_frac"] = overhead

    # the report details the traced repetition that ran at the median speed
    middle = sorted(range(len(traced)), key=lambda i: traced[i].scaled_wall)[len(traced) // 2]
    text = layers.report(workload.name, seed, traced[middle].wall, overhead,
                         *summaries[middle], traced[middle].diag)
    print(text, file=sys.stderr)
    reports = Path(workdir) / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    (reports / f"{workload.name}-seed{seed}.txt").write_text(text + "\n")
    return metrics, plain + traced, errors, found
