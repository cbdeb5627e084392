"""Supervised chunk execution: timeouts, retry with backoff, quarantine.

The supervisor forks up to ``workers`` long-lived worker *processes*; each
runs chunk attempts one at a time, receiving ``(chunk index, attempt)``
over a duplex pipe and looking the chunk up in the plan it was handed at
start-up.  Crash isolation stays per attempt: an OOM kill or segfault
loses the chunk in flight, not the campaign, and a failed attempt retires
its worker, so every retry runs in a fresh process.  Only a worker whose
result passed the guards is reused.  Each attempt in flight is watched
through three channels:

* a result pipe  - the worker reports a tally or a structured error;
* process health - a dead process with no result is a ``crash``;
* a deadline     - a worker past its per-chunk timeout is terminated
  (``timeout``), because a hung chunk must not starve the campaign.

The deadline and the ``campaign.chunk`` span start when the attempt is
dispatched to a worker, not when a process is forked.

Before the first launch the parent primes the set-up every chunk would
repeat (:func:`~repro.campaign.plan.prime_chunk`), so forked workers
inherit warm caches (under ``spawn`` each worker measures them once).
Between events the parent blocks in
:func:`multiprocessing.connection.wait` on every busy worker's pipe and
process sentinel, until the earliest deadline or, with a worker slot
free, the earliest backoff expiry - it never polls.  When ``run`` returns
or raises, no worker outlives it.

Failed attempts are retried up to ``retries`` extra times with exponential
backoff plus deterministic jitter (seeded generator - the REPRO101/102
rules apply here too; jitter affects only sleep lengths, never tallies).
Every retry runs the same engine: a chunk that *raised from the engine*
(or produced a numerically invalid tally) is a bug to surface, not to
route around, so once its budget is spent it is quarantined like any
other failure.  Quarantined chunks are reported through a callback and
surfaced, never silently dropped.

Scheduling order never affects results: chunks are deterministic and
tallies merge commutatively, so ``workers=4`` equals ``workers=1`` equals
an uninterrupted run, bit for bit.
"""

from __future__ import annotations

import heapq
import math
import multiprocessing
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from typing import Any

import numpy as np

from ..errors import NumericalGuard, guard_tally, guard_weighted
from ..faults.rates import FaultRates
from ..obs import metrics as _obs
from ..obs import trace as _obs_trace
from ..reliability.exact import ExactRunConfig
from ..reliability.outcomes import Tally
from ..schemes.base import EccScheme
from .chaos import ChaosSchedule
from .plan import ChunkSpec, execute_chunk, prime_chunk

#: failure kinds the supervisor distinguishes (counters, quarantine records).
FAIL_CRASH = "crash"
FAIL_TIMEOUT = "timeout"
FAIL_RAISE = "raise"
FAIL_NUMERICAL = "numerical"

# Observability (DESIGN.md 6e).  Supervision events are rare relative to the
# decode work they wrap, so these record unconditionally interesting facts:
# retries, per-kind failures, quarantines, worker processes forked, and how
# long the supervisor chose to wait before re-dispatching a failed chunk.
_C_CHUNKS_OK = _obs.counter("campaign.chunks_ok")
_C_RETRIES = _obs.counter("campaign.retries")
_C_QUARANTINES = _obs.counter("campaign.quarantines")
_C_FAILURES = {
    kind: _obs.counter(f"campaign.failures.{kind}")
    for kind in (FAIL_CRASH, FAIL_TIMEOUT, FAIL_RAISE, FAIL_NUMERICAL)
}
_C_KILL_ESCALATIONS = _obs.counter("campaign.kill_escalations")
_C_WORKERS_STARTED = _obs.counter("campaign.workers_started")
_H_BACKOFF = _obs.histogram("campaign.backoff_wait_s", _obs.DURATION_BUCKETS_S)


@dataclass(frozen=True)
class SupervisorPolicy:
    """Operational knobs; none of these can affect a campaign's tally.

    Values that would break a run (no worker slot, a deadline every chunk
    misses, a negative or non-finite wait) raise ``ValueError`` naming the
    field, before any campaign state is written.
    """

    workers: int = 1
    timeout: float = 300.0  # per-chunk wall budget, seconds
    retries: int = 2  # extra attempts after the first
    backoff: float = 0.5  # base backoff, seconds (doubles per attempt)
    backoff_cap: float = 30.0
    term_grace: float = 5.0  # SIGTERM -> SIGKILL escalation window, seconds
    manifest_save_every: int = 8  # manifest debounce (see Manifest.save_every)

    def __post_init__(self) -> None:
        def bad(name: str, want: str) -> ValueError:
            return ValueError(
                f"SupervisorPolicy.{name} must be {want}, got {getattr(self, name)!r}"
            )

        for name in ("workers", "manifest_save_every"):
            if not getattr(self, name) >= 1:
                raise bad(name, ">= 1")
        if not self.retries >= 0:
            raise bad("retries", ">= 0")
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise bad("timeout", "finite and > 0")
        for name in ("backoff", "backoff_cap", "term_grace"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise bad(name, "finite and >= 0")


@dataclass
class ChunkOutcome:
    """What happened to one chunk across all its attempts."""

    spec: ChunkSpec
    tally: Tally | None = None
    attempts: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def quarantined(self) -> bool:
        return self.tally is None


@dataclass
class _Worker:
    """One long-lived worker process and the parent's end of its pipe."""

    process: multiprocessing.process.BaseProcess
    conn: Any  # Connection (duplex: requests out, result frames in)


@dataclass
class _Job:
    """One in-flight attempt."""

    spec: ChunkSpec
    attempt: int
    worker: _Worker
    deadline: float
    started: float  # monotonic dispatch time (for the chunk span)


def _mp_context() -> multiprocessing.context.BaseContext:
    """Prefer fork (cheap on POSIX); fall back to spawn elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def terminate_worker(process: multiprocessing.process.BaseProcess,
                     grace: float = 5.0) -> bool:
    """Terminate ``process``, escalating SIGTERM -> SIGKILL after ``grace``.

    Returns ``True`` when the hard kill was needed (the worker ignored or
    never got to service SIGTERM).  Either way the process is joined - i.e.
    reaped - before returning, so no zombie is left behind; escalations are
    counted in the ``campaign.kill_escalations`` obs counter.
    """
    if not process.is_alive():
        process.join()  # reap an already-dead child
        return False
    process.terminate()
    process.join(timeout=grace)
    if not process.is_alive():
        return False
    process.kill()
    process.join()
    if _obs.enabled():
        _C_KILL_ESCALATIONS.add(1)
    return True


def _run_attempt(kind: str, scheme: EccScheme, rates: FaultRates,
                 config: ExactRunConfig, spec: ChunkSpec,
                 chaos: ChaosSchedule | None, attempt: int,
                 obs_enabled: bool) -> tuple:
    """One chunk attempt inside a worker: its result frame, never a raise.

    When the parent has observability on, the worker resets its registry
    (fork-inherited, or left over from its previous chunk), records the
    chunk's own metrics, and ships the snapshot back alongside the counts;
    the parent absorbs it, so worker metrics merge into one process-local
    view exactly like tallies merge.
    """
    try:
        if obs_enabled:
            _obs.reset()
            _obs_trace.reset()
            _obs.enable()
        if chaos is not None:
            chaos.fire_pre_execute(spec.index, attempt)
        tally = execute_chunk(kind, scheme, rates, config, spec)
        if chaos is not None:
            tally = chaos.corrupt_tally(spec.index, attempt, tally)
        snap = (
            _obs.snapshot(f"chunk-{spec.index}-attempt-{attempt}")
            if obs_enabled
            else None
        )
        # 4th element: engine-specific tally sidecar (the rare-event
        # engine's weighted accumulator); None for count-only chunks.
        return ("ok", (tally.ok, tally.ce, tally.due, tally.sdc), snap,
                tally.extra.get("weighted"))
    except BaseException as exc:  # report, don't propagate: parent classifies
        return ("error", type(exc).__name__, str(exc))


def _worker_entry(conn: Any, kind: str, scheme: EccScheme, rates: FaultRates,
                  config: ExactRunConfig, specs: tuple[ChunkSpec, ...],
                  chaos: ChaosSchedule | None, obs_enabled: bool = False) -> None:
    """Worker-process body: run ``(chunk index, attempt)`` requests in turn.

    ``specs`` arrives once, at start-up; each request names a chunk by
    index, so no payload (and no generator) crosses the pipe per chunk.
    ``None``, EOF or a closed pipe ends the loop.
    """
    by_index = {spec.index: spec for spec in specs}
    try:
        while (request := conn.recv()) is not None:
            index, attempt = request
            conn.send(_run_attempt(kind, scheme, rates, config, by_index[index],
                                   chaos, attempt, obs_enabled))
    except (EOFError, OSError):
        pass  # the parent is gone or closed the pipe: nothing left to report
    finally:
        conn.close()


class Supervisor:
    """Run a set of chunks under the policy; report through callbacks."""

    def __init__(
        self,
        kind: str,
        scheme: EccScheme,
        rates: FaultRates,
        config: ExactRunConfig,
        policy: SupervisorPolicy,
        chaos: ChaosSchedule | None = None,
        on_success: Callable[[ChunkSpec, Tally, int, dict | None], None] | None = None,
        on_quarantine: Callable[[ChunkSpec, str, str, int], None] | None = None,
    ):
        self.kind = kind
        self.scheme = scheme
        self.rates = rates
        self.config = config
        self.policy = policy
        self.chaos = chaos
        self.on_success = on_success
        self.on_quarantine = on_quarantine
        self._ctx = _mp_context()
        self._specs: tuple[ChunkSpec, ...] = ()  # what each worker starts with
        # deterministic jitter: affects sleep lengths only, never results
        self._jitter_rng = np.random.default_rng([config.seed, 0xBAC0FF])

    # -- lifecycle -------------------------------------------------------------

    def run(self, specs: list[ChunkSpec]) -> dict[int, ChunkOutcome]:
        """Execute ``specs``; returns per-chunk outcomes (also via callbacks)."""
        outcomes = {spec.index: ChunkOutcome(spec=spec) for spec in specs}
        if specs:
            prime_chunk(self.kind, self.scheme, self.rates, specs[0])
        self._specs = tuple(specs)
        # ready-time priority queue: (ready_at, chunk_index, spec, attempt)
        pending: list[tuple[float, int, ChunkSpec, int]] = [
            (0.0, spec.index, spec, 0) for spec in specs
        ]
        heapq.heapify(pending)
        active: list[_Job] = []
        idle: list[_Worker] = []
        try:
            while pending or active:
                now = time.monotonic()
                while (
                    pending
                    and len(active) < self.policy.workers
                    and pending[0][0] <= now
                ):
                    _, _, spec, attempt = heapq.heappop(pending)
                    active.append(self._launch(spec, attempt, idle))
                progressed = self._reap(active, idle, pending, outcomes)
                if not progressed and (pending or active):
                    self._wait(active, pending)
        finally:
            self._shutdown(idle, active)
        return outcomes

    def _launch(self, spec: ChunkSpec, attempt: int, idle: list[_Worker]) -> _Job:
        """Dispatch one attempt to an idle worker, or to a newly forked one."""
        while True:
            fresh = not idle
            worker = self._fork() if fresh else idle.pop()
            started = time.monotonic()
            try:
                worker.conn.send((spec.index, attempt))
            except OSError:  # BrokenPipeError: the worker is dead
                if not fresh:
                    self._retire(worker)  # it died while idle: replace it
                    continue
                # dead at birth: its sentinel reports the crash as a failure
            return _Job(spec=spec, attempt=attempt, worker=worker,
                        deadline=started + self.policy.timeout, started=started)

    def _fork(self) -> _Worker:
        conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_entry,
            args=(child_conn, self.kind, self.scheme, self.rates, self.config,
                  self._specs, self.chaos, _obs.enabled()),
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        if _obs.enabled():
            _C_WORKERS_STARTED.add(1)
        return _Worker(process=process, conn=conn)

    def _retire(self, worker: _Worker) -> None:
        """Stop a worker for good: SIGTERM, bounded grace, then SIGKILL and reap.

        A worker that ignores (or is too wedged to service) SIGTERM would
        otherwise survive ``join(timeout=...)`` as a zombie-to-be holding
        its pipe end open; the escalation guarantees the process is gone
        before the supervisor moves on, and counts how often the hard path
        was needed.
        """
        terminate_worker(worker.process, self.policy.term_grace)
        worker.conn.close()

    def _shutdown(self, idle: list[_Worker], active: list[_Job]) -> None:
        """Stop every worker: idle ones on request, busy ones by force."""
        for worker in idle:
            try:
                worker.conn.send(None)
            except OSError:
                pass  # already gone: _retire just reaps it
        for worker in idle:
            worker.process.join(timeout=self.policy.term_grace)
            self._retire(worker)  # escalates if it has not exited by now
        for job in active:
            self._retire(job.worker)

    # -- event handling --------------------------------------------------------

    def _wait(self, active: list[_Job], pending: list) -> None:
        """Block until a job can have progressed or a backoff has ended.

        Wakes on any busy worker's pipe or process sentinel, at the
        earliest deadline, and - when a worker slot is free - at the
        earliest ``ready_at`` of a retry backing off.  With nothing in
        flight it just sleeps until that retry is ready.
        """
        wake = [job.deadline for job in active]
        if pending and len(active) < self.policy.workers:
            wake.append(pending[0][0])
        timeout = max(0.0, min(wake) - time.monotonic())
        if not active:
            time.sleep(timeout)
            return
        wait_ready([job.worker.conn for job in active]
                   + [job.worker.process.sentinel for job in active], timeout)

    def _reap(self, active: list[_Job], idle: list[_Worker], pending: list,
              outcomes: dict[int, ChunkOutcome]) -> bool:
        """Collect finished/dead/overdue jobs; returns True if any progressed."""
        progressed = False
        for job in list(active):
            conn, process = job.worker.conn, job.worker.process
            message = None
            if conn.poll():
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    message = None  # died between poll and recv: treat as crash
            if message is not None:
                active.remove(job)
                self._handle_message(job, message, idle, pending, outcomes)
                progressed = True
            elif wait_ready([process.sentinel], 0):
                active.remove(job)
                self._retire(job.worker)  # already dead: this only reaps it
                self._handle_failure(
                    job, FAIL_CRASH,
                    f"worker process died (exit code {process.exitcode}) running "
                    f"chunk {job.spec.index} (seed={job.spec.seed})",
                    pending, outcomes,
                )
                progressed = True
            elif time.monotonic() > job.deadline:
                active.remove(job)
                self._retire(job.worker)
                self._handle_failure(
                    job, FAIL_TIMEOUT,
                    f"chunk {job.spec.index} (seed={job.spec.seed}) exceeded "
                    f"its {self.policy.timeout:.1f}s budget and was terminated",
                    pending, outcomes,
                )
                progressed = True
        return progressed

    def _handle_message(self, job: _Job, message: tuple, idle: list[_Worker],
                        pending: list, outcomes: dict[int, ChunkOutcome]) -> None:
        """Commit a guarded ``ok`` frame and reuse its worker; else retire it."""
        context = f"chunk {job.spec.index} (seed={job.spec.seed})"
        if message[0] != "ok":
            self._retire(job.worker)
            _, exc_type, exc_message = message
            self._handle_failure(
                job, FAIL_RAISE, f"{context} raised {exc_type}: {exc_message}",
                pending, outcomes,
            )
            return
        _, counts, snap, weighted = message
        try:
            guard_tally(counts, expected_total=job.spec.trials, context=context)
            if weighted is not None:
                guard_weighted(weighted, expected_total=job.spec.trials,
                               context=context)
        except NumericalGuard as exc:
            self._retire(job.worker)
            self._handle_failure(job, FAIL_NUMERICAL, str(exc), pending, outcomes)
            return
        idle.append(job.worker)
        tally = Tally(ok=counts[0], ce=counts[1], due=counts[2], sdc=counts[3],
                      extra={"weighted": weighted} if weighted else {})
        outcome = outcomes[job.spec.index]
        outcome.tally = tally
        outcome.attempts = job.attempt + 1
        span_dict = None
        if _obs.enabled():
            _C_CHUNKS_OK.add(1)
            if snap is not None:
                _obs.absorb(snap)
            rec = _obs_trace.record_span(
                "campaign.chunk",
                time.monotonic() - job.started,
                chunk=job.spec.index,
                attempt=job.attempt + 1,
                trials=job.spec.trials,
            )
            span_dict = rec.as_dict() if rec is not None else None
        if self.on_success is not None:
            self.on_success(job.spec, tally, job.attempt + 1, span_dict)

    def _handle_failure(self, job: _Job, kind: str, message: str, pending: list,
                        outcomes: dict[int, ChunkOutcome]) -> None:
        outcome = outcomes[job.spec.index]
        outcome.failures.append(f"attempt {job.attempt} {kind}: {message}")
        if _obs.enabled():
            _C_FAILURES[kind].add(1)
        attempts_done = job.attempt + 1
        if attempts_done > self.policy.retries:
            outcome.attempts = attempts_done
            if _obs.enabled():
                _C_QUARANTINES.add(1)
            if self.on_quarantine is not None:
                self.on_quarantine(job.spec, kind, message, attempts_done)
            return
        delay = min(self.policy.backoff_cap, self.policy.backoff * 2**job.attempt)
        jitter = 0.5 + float(self._jitter_rng.random())  # in [0.5, 1.5)
        if _obs.enabled():
            _C_RETRIES.add(1)
            _H_BACKOFF.observe(delay * jitter)
        ready_at = time.monotonic() + delay * jitter
        heapq.heappush(pending, (ready_at, job.spec.index, job.spec, attempts_done))
