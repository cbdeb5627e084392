"""Call spans recorded from outside the program, and their self times.

A :class:`Tracer` swaps a function for a thin wrapper that records one span
per call: ``(name, start, end, span_id, parent_id, pid, attrs)``.  Wrappers
go where the function is looked up at call time - on the class for
methods, on each module namespace that bound the name for functions - so
the measured package itself is never edited.

Spans of the process that installed the tracer stay in memory until
:meth:`Tracer.drain`.  A forked worker inherits the wrappers but has no way
to hand its memory back, so it appends each finished span to its own spool
file the moment the call returns.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

#: one recorded call: (name, start, end, span_id, parent_id, pid, attrs)
Span = tuple

#: ``note(args, kwargs, result, state) -> attrs`` turns a call into counts.
Note = Callable[[tuple, dict, Any, Any], Any]
#: ``before(args, kwargs) -> state`` runs just before the wrapped call.
Before = Callable[[tuple, dict], Any]


class Tracer:
    """Installs span-recording wrappers and collects what they record."""

    def __init__(self, spool_dir: Path):
        self.pid = os.getpid()
        self.spool_dir = Path(spool_dir)
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._seq = 0
        self._spool: Any = None  # (pid, open file) of a forked worker
        self._restore: list[tuple[Any, str, Any]] = []

    def _record(self, span: Span) -> None:
        if span[5] == self.pid:
            self.spans.append(span)
            return
        if self._spool is None or self._spool[0] != span[5]:
            path = self.spool_dir / f"spans-{span[5]}.jsonl"
            self._spool = (span[5], open(path, "a", encoding="utf-8"))
        handle = self._spool[1]
        handle.write(json.dumps(span) + "\n")
        handle.flush()  # a forked worker exits without running finalizers

    def _wrapper(self, fn: Callable, name: str, note: Note | None,
                 before: Before | None) -> Callable:
        stack = self._stack
        record = self._record
        clock = time.perf_counter
        getpid = os.getpid

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            self._seq += 1
            sid = self._seq
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                record((name, start, clock(), sid, parent, getpid(), None))
                raise
            end = clock()
            stack.pop()
            attrs = note(args, kwargs, result, state) if note is not None else None
            record((name, start, end, sid, parent, getpid(), attrs))
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap(self, owner: Any, attr: str, name: str, note: Note | None = None,
             before: Before | None = None) -> None:
        """Replace ``owner.attr`` (a class or a module) with a traced wrapper.

        On a class only a method defined by that class itself is wrapped, so
        an inherited method is wrapped once, on the class that defines it.
        """
        original = vars(owner).get(attr)
        if original is None:
            return
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self._wrapper(original, name, note, before))

    def uninstall(self) -> None:
        """Put every wrapped function back, last wrapped first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def drain(self) -> list[Span]:
        """All spans so far, this process's and every worker's; then reset."""
        spans = self.spans
        self.spans = []
        for path in sorted(self.spool_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as handle:
                spans.extend(tuple(json.loads(line)) for line in handle if line.strip())
            path.unlink()
        return spans


def self_times(spans: Iterable[Span]) -> list[tuple[Span, float]]:
    """Each span with its self time: its duration minus its direct children's.

    Children are matched within one process only.  A forked worker's span
    can name a span of the parent process as its parent (the call stack is
    inherited at fork), but the two ran concurrently, so nothing is
    subtracted across processes.  Within a process wrapped calls nest
    strictly, so the direct children's durations are exactly the part of
    the interval they cover.
    """
    spans = list(spans)
    covered: dict[tuple[int, int], float] = defaultdict(float)
    for _, start, end, _, parent, pid, _ in spans:
        if parent:
            covered[(pid, parent)] += end - start
    return [
        (span, (span[2] - span[1]) - covered.get((span[5], span[3]), 0.0))
        for span in spans
    ]
