"""Supervised chunk execution: timeouts, retry with backoff, quarantine.

The supervisor forks up to ``workers`` long-lived worker *processes*; each
runs chunk attempts one at a time, receiving ``(chunk index, attempt)``
over a duplex pipe and looking the chunk up in the plan it was handed at
start-up.  Crash isolation stays per attempt: an OOM kill or segfault
loses the chunk in flight, not the campaign; a failed attempt retires its
worker, so every retry runs in a fresh process, and only a worker whose
result passed the guards is reused.  Each attempt is watched through its
result pipe, its process sentinel (a dead process with no result is a
``crash``) and a deadline (an overdue worker is terminated as a
``timeout``, so a hung chunk cannot starve the campaign); the deadline
and the ``campaign.chunk`` span start at dispatch, not at fork.

A rare-event chunk carries its run's line law in its payload: the planner
builds it once, in the parent, before any worker forks, so a worker builds
no law and measures no table.  Between events the parent blocks in
:func:`multiprocessing.connection.wait` until a pipe or sentinel fires,
the earliest deadline, or - with a worker slot free - the earliest backoff
expiry; it never polls.  When ``run`` returns or raises, no worker
outlives it.

What happens to a chunk - the guards its result must pass, retry with
seeded-jitter backoff on the same engine, quarantine once its budget is
spent - is decided by the retry core (:mod:`repro.campaign.retry`) the
fleet scheduler shares.  Scheduling order never affects results: chunks
are deterministic and tallies merge commutatively, so ``workers=4``
equals ``workers=1`` equals an uninterrupted run, bit for bit.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from multiprocessing.connection import wait as wait_ready
from typing import Any

from ..errors import NumericalGuard
from ..faults.rates import FaultRates
from ..obs import metrics as _obs
from ..obs import trace as _obs_trace
from ..reliability.exact import ExactRunConfig
from ..reliability.outcomes import Tally
from ..schemes.base import EccScheme
from .chaos import ChaosSchedule
from .plan import ChunkSpec, execute_chunk
from .retry import (
    FAIL_CRASH,
    FAIL_NUMERICAL,
    FAIL_RAISE,
    FAIL_TIMEOUT,
    RetryQueue,
    accept_result,
    check_policy,
)

_C_CHUNKS_OK = _obs.counter("campaign.chunks_ok")
_C_KILL_ESCALATIONS = _obs.counter("campaign.kill_escalations")
_C_WORKERS_STARTED = _obs.counter("campaign.workers_started")


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
        check_policy(self, at_least_one=("workers", "manifest_save_every"),
                     counts=("retries",), positive=("timeout",),
                     non_negative=("backoff", "backoff_cap", "term_grace"))


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

    # -- lifecycle -------------------------------------------------------------

    def run(self, specs: list[ChunkSpec]) -> dict[int, ChunkOutcome]:
        """Execute ``specs``; returns per-chunk outcomes (also via callbacks)."""
        queue = RetryQueue([spec.index for spec in specs], self.policy, self.config.seed)
        outcomes = {  # each outcome shares its chunk's failure log with the queue
            spec.index: ChunkOutcome(spec, failures=queue.chunk(spec.index).failures)
            for spec in specs
        }
        self._specs = tuple(specs)
        active: list[_Job] = []
        idle: list[_Worker] = []
        try:
            while queue or active:
                now = time.monotonic()
                while (
                    len(active) < self.policy.workers
                    and (ready := queue.pop_ready(now)) is not None
                ):
                    index, attempt = ready
                    active.append(self._launch(outcomes[index].spec, attempt, idle))
                progressed = self._reap(active, idle, queue, outcomes)
                if not progressed and (queue or active):
                    self._wait(active, queue)
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
        """Stop a worker for good (see :func:`terminate_worker`); close its pipe."""
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

    def _wait(self, active: list[_Job], queue: RetryQueue) -> None:
        """Block until a job can have progressed or a backoff has ended.

        Wakes on any busy worker's pipe or process sentinel, at the
        earliest deadline, and - when a worker slot is free - when the
        earliest queued retry is ready.  With nothing in flight it just
        sleeps until that retry is ready.
        """
        wake = [job.deadline for job in active]
        ready_at = queue.next_ready()
        if ready_at is not None and len(active) < self.policy.workers:
            wake.append(ready_at)
        timeout = max(0.0, min(wake) - time.monotonic())
        if not active:
            time.sleep(timeout)
            return
        wait_ready([job.worker.conn for job in active]
                   + [job.worker.process.sentinel for job in active], timeout)

    def _reap(self, active: list[_Job], idle: list[_Worker], queue: RetryQueue,
              outcomes: dict[int, ChunkOutcome]) -> bool:
        """Settle finished, dead and overdue jobs; returns True if any did.

        A guarded ``ok`` frame commits and its worker goes back to the idle
        list; any other end retires the worker and is charged to the queue.
        """
        progressed = False
        for job in list(active):
            end = self._poll(job)
            if end is None:
                continue  # still running
            active.remove(job)
            progressed = True
            context = f"chunk {job.spec.index} (seed={job.spec.seed})"
            if end[0] == "ok":
                _, counts, snap, weighted = end
                try:
                    tally = accept_result(job.spec, counts, weighted, context)
                except NumericalGuard as exc:
                    end = (FAIL_NUMERICAL, str(exc))
                else:
                    idle.append(job.worker)
                    self._commit(job, tally, snap, outcomes[job.spec.index])
                    continue
            elif end[0] == "error":
                end = (FAIL_RAISE, f"{context} raised {end[1]}: {end[2]}")
            self._retire(job.worker)
            kind, message = end
            if not queue.fail(job.spec.index, job.attempt, kind, message):
                outcomes[job.spec.index].attempts = job.attempt + 1
                if self.on_quarantine is not None:
                    self.on_quarantine(job.spec, kind, message, job.attempt + 1)
        return progressed

    def _poll(self, job: _Job) -> tuple | None:
        """How ``job`` ended, or ``None`` while it is still running.

        The end is the worker's own ``ok``/``error`` frame, or a
        ``(kind, message)`` failure seen from outside: a dead process
        (``crash``) or a missed deadline (``timeout``).
        """
        conn, process = job.worker.conn, job.worker.process
        if conn.poll():
            try:
                return conn.recv()
            except (EOFError, OSError):
                pass  # died between poll and recv: the sentinel reports it
        if wait_ready([process.sentinel], 0):
            process.join()  # dead: reap it so its exit code is known
            return (FAIL_CRASH,
                    f"worker process died (exit code {process.exitcode}) running "
                    f"chunk {job.spec.index} (seed={job.spec.seed})")
        if time.monotonic() > job.deadline:
            return (FAIL_TIMEOUT,
                    f"chunk {job.spec.index} (seed={job.spec.seed}) exceeded its "
                    f"{self.policy.timeout:.1f}s budget and was terminated")
        return None

    def _commit(self, job: _Job, tally: Tally, snap: dict | None,
                outcome: ChunkOutcome) -> None:
        """Record a guarded result, its span and metrics; report it."""
        outcome.tally = tally
        outcome.attempts = job.attempt + 1
        span_dict = None
        if _obs.enabled():
            _C_CHUNKS_OK.add(1)
            if snap is not None:
                _obs.absorb(snap)
            rec = _obs_trace.record_span(
                "campaign.chunk", time.monotonic() - job.started,
                chunk=job.spec.index, attempt=job.attempt + 1, trials=job.spec.trials,
            )
            span_dict = rec.as_dict() if rec is not None else None
        if self.on_success is not None:
            self.on_success(job.spec, tally, job.attempt + 1, span_dict)
