"""Event sources: where a continuous stream of audit events comes from.

In the paper's deployment Sysdig keeps writing audit records while the hunting
system runs; this module provides the equivalents for the reproduction:

* :class:`LogTailSource` — reads a Sysdig-style log incrementally, reusing
  :class:`~repro.auditing.parser.AuditLogParser` line by line (optionally
  following the file as a collector appends to it, like ``tail -f``);
* :class:`ReplaySource` — replays a trace produced by the workload generator
  in event-time order, at an optionally throttled rate, so live-monitoring
  scenarios can be driven deterministically.

Every source yields :class:`StreamRecord` items: one event plus its subject
and object entities, which is exactly what incremental ingestion needs (the
ingest layer deduplicates entities across records and batches).

Sources are hardened for continuous operation:

* a **torn final line** (a collector caught mid-write) is buffered until its
  newline arrives, or counted in ``ParseStatistics.records_torn`` at end of a
  bounded read — never parsed as a complete record, never silently dropped;
* in follow mode :class:`LogTailSource` detects **rotation and truncation**
  (inode change / file shrink) and reopens the new file from the start;
* transient read ``OSError``\\ s can be wrapped in a deterministic
  :class:`~repro.streaming.retry.RetryPolicy` shared with the alert sinks;
* path-mode tailing tracks a byte **offset** that the hunting service
  checkpoints after every micro-batch, so a deployment with durable audit
  storage can resume the tail exactly where it stopped
  (``start_offset=``/``start_inode=``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, TextIO

from repro.auditing.entities import EntityFactory, SystemEntity
from repro.auditing.events import SystemEvent
from repro.auditing.parser import AuditLogParser, ParseStatistics
from repro.auditing.trace import AuditTrace
from repro.errors import ConfigurationError
from repro.streaming.retry import RetryPolicy, RetryStats


@dataclass(frozen=True)
class StreamRecord:
    """One streamed audit event with its endpoint entities.

    Attributes:
        event: The audited system event.
        subject: The acting process entity.
        obj: The object entity (file, process or network connection).
    """

    event: SystemEvent
    subject: SystemEntity
    obj: SystemEntity

    def entities(self) -> tuple[SystemEntity, SystemEntity]:
        return (self.subject, self.obj)


class EventSource:
    """Base class for streaming event sources."""

    def records(self) -> Iterator[StreamRecord]:
        """Yield the source's records in arrival order."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[StreamRecord]:
        return self.records()

    def checkpoint_state(self) -> dict[str, Any]:
        """Resume state the hunting service persists after each micro-batch.

        The base implementation records nothing; sources that can resume
        (log tailing by byte offset, replay by position) override it.
        """
        return {"kind": type(self).__name__}


class LogTailSource(EventSource):
    """Tails a Sysdig-style audit log, parsing records incrementally.

    Args:
        path: Log file to read.  Alternatively pass an open ``stream``.
        stream: An already-open text stream (takes precedence over ``path``).
        host: Hostname recorded on parsed entities/events.
        follow: Keep polling for new lines after reaching end of file
            (``tail -f``); reads once to the end when False.
        poll_interval: Seconds between polls in follow mode.
        max_events: Stop after yielding this many events (mainly for bounding
            follow-mode runs in tests and demos).
        strict: Abort on the first malformed record instead of skipping it.
        retry: Optional :class:`RetryPolicy` wrapping every read/open/stat, so
            transient ``OSError`` s back off deterministically instead of
            killing the stream; exhaustion raises
            :class:`~repro.errors.RetryExhaustedError`.
        start_offset: Byte offset (path mode) to resume tailing from, as
            previously recorded by :meth:`checkpoint_state`.  Ignored — the
            tail restarts from 0 — when the file has shrunk below it or
            ``start_inode`` no longer matches (the log rotated while the
            service was down).
        start_inode: Inode the recorded ``start_offset`` belongs to.
        sleep: Injection point for poll/backoff sleeping (tests).
    """

    def __init__(
        self,
        path: str | None = None,
        stream: TextIO | None = None,
        host: str = "localhost",
        follow: bool = False,
        poll_interval: float = 0.2,
        max_events: int | None = None,
        strict: bool = False,
        retry: RetryPolicy | None = None,
        start_offset: int = 0,
        start_inode: int | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if path is None and stream is None:
            raise ConfigurationError("LogTailSource needs a path or a stream")
        if start_offset < 0:
            raise ConfigurationError("start_offset must be non-negative")
        self._path = path
        self._stream = stream
        self._parser = AuditLogParser(host=host, strict=strict)
        self._factory = EntityFactory(host=host)
        self._follow = follow
        self._poll_interval = poll_interval
        self._max_events = max_events
        self._retry = retry
        self._start_offset = start_offset
        self._start_inode = start_inode
        self._sleep = sleep
        self.statistics = ParseStatistics()
        self.retry_stats = RetryStats()
        #: Committed byte offset: start of the first byte not yet yielded as a
        #: complete line (path mode).  A torn partial tail is *not* committed,
        #: so a resumed tail re-reads and completes it.
        self.offset = 0
        #: Inode of the file currently being tailed (path mode).
        self.inode: int | None = None
        #: Log rotations (inode changed) and truncations (file shrank)
        #: detected and survived in follow mode.
        self.rotations = 0
        self.truncations = 0

    # -- record iteration ----------------------------------------------------

    def records(self) -> Iterator[StreamRecord]:
        if self._stream is not None:
            yield from self._records_from(self._tail_stream(self._stream))
            return
        assert self._path is not None
        yield from self._records_from(self._tail_path())

    def checkpoint_state(self) -> dict[str, Any]:
        """Resume state: the committed byte offset and the inode it is valid
        for.  Feed these back as ``start_offset=``/``start_inode=`` to resume
        the tail (deployments with durable audit storage); in-memory
        deployments replay from offset 0 and rely on dedup instead."""
        return {
            "kind": "log-tail",
            "path": self._path,
            "offset": self.offset,
            "inode": self.inode,
        }

    def _records_from(self, lines: Iterator[str]) -> Iterator[StreamRecord]:
        yielded = 0
        for line in lines:
            for event, subject, obj in self._parser.iter_events(
                [line], factory=self._factory, stats=self.statistics
            ):
                yield StreamRecord(event=event, subject=subject, obj=obj)
                yielded += 1
                if self._max_events is not None and yielded >= self._max_events:
                    return

    # -- stream-mode tailing -------------------------------------------------

    def _tail_stream(self, handle: TextIO) -> Iterator[str]:
        # A collector may write a record non-atomically; readline() at EOF can
        # return a partial line with no terminator.  Buffer until the newline
        # arrives so a half-written record is never parsed as complete; a
        # bounded (non-follow) read that ends on a partial line counts it as
        # torn instead of parsing or dropping it.
        pending = ""
        while True:
            chunk = self._guarded(handle.readline)
            if chunk:
                pending += chunk
                if pending.endswith("\n"):
                    yield pending
                    pending = ""
                continue
            if not self._follow:
                if pending:
                    self.statistics.records_torn += 1
                return
            self._sleep(self._poll_interval)

    # -- path-mode tailing ---------------------------------------------------

    def _tail_path(self) -> Iterator[str]:
        handle, inode = self._open_log()
        position = 0
        if self._start_offset and (self._start_inode in (None, inode)):
            size = os.fstat(handle.fileno()).st_size
            if self._start_offset <= size:
                handle.seek(self._start_offset)
                position = self._start_offset
            # else: the file shrank below the recorded offset while the
            # service was down (rotation/truncation) — restart from 0.
        self.offset = position
        self.inode = inode
        pending = b""
        try:
            while True:
                chunk = self._guarded(handle.readline)
                if chunk:
                    pending += chunk
                    position += len(chunk)
                    if pending.endswith(b"\n"):
                        self.offset = position
                        yield pending.decode("utf-8", errors="replace")
                        pending = b""
                    continue
                if not self._follow:
                    if pending:
                        # Torn final line: a collector mid-write.  Count it
                        # (visible in statistics) and leave `offset` at its
                        # start so a resumed tail re-reads the whole record.
                        self.statistics.records_torn += 1
                    return
                reopened = self._check_rotation(inode, position)
                if reopened is not None:
                    handle.close()
                    handle, inode = reopened
                    position = 0
                    self.offset = 0
                    self.inode = inode
                    if pending:
                        self.statistics.records_torn += 1
                        pending = b""
                    continue
                self._sleep(self._poll_interval)
        finally:
            handle.close()

    def _open_log(self):
        def opener():
            handle = open(self._path, "rb")  # type: ignore[arg-type]
            return handle, os.fstat(handle.fileno()).st_ino
        return self._guarded(opener)

    def _check_rotation(self, inode: int, position: int):
        """Reopened (handle, inode) after a rotation/truncation, else None."""
        assert self._path is not None
        try:
            stat = self._guarded(lambda: os.stat(self._path))
        except FileNotFoundError:
            return None  # mid-rotation gap: keep polling until the new file lands
        if stat.st_ino != inode:
            self.rotations += 1
            return self._open_log()
        if stat.st_size < position:
            self.truncations += 1
            return self._open_log()
        return None

    def _guarded(self, fn):
        if self._retry is None:
            return fn()
        return self._retry.call(fn, sleep=self._sleep, stats=self.retry_stats)


class ReplaySource(EventSource):
    """Replays an in-memory trace as a stream, in event-time order.

    The source drives the existing workload generator output
    (:class:`~repro.auditing.workload.generator.SimulationResult` or a bare
    :class:`~repro.auditing.trace.AuditTrace`) through the streaming pipeline.
    Ground-truth labels stay on the trace, where evaluation harnesses score
    live hunts against them.

    Args:
        trace: The trace (or simulation result exposing ``.trace``) to replay.
        rate_events_per_second: Throttle the replay to roughly this many
            events per second by sleeping between yields; unthrottled when
            ``None`` (the default, used by tests and benchmarks).
        max_events: Replay only the first ``max_events`` events.
        start_position: Skip this many events of the time-ordered replay
            (resume counterpart of :meth:`checkpoint_state`).
    """

    def __init__(
        self,
        trace: AuditTrace | object,
        rate_events_per_second: float | None = None,
        max_events: int | None = None,
        start_position: int = 0,
    ) -> None:
        if not isinstance(trace, AuditTrace):
            trace = getattr(trace, "trace")
        if rate_events_per_second is not None and rate_events_per_second <= 0:
            raise ConfigurationError("rate_events_per_second must be positive")
        if start_position < 0:
            raise ConfigurationError("start_position must be non-negative")
        self._trace = trace
        self._rate = rate_events_per_second
        self._max_events = max_events
        self._start_position = start_position
        #: Events yielded so far plus the starting skip — the replay offset
        #: the hunting service checkpoints after each micro-batch.
        self.position = start_position

    def checkpoint_state(self) -> dict[str, Any]:
        return {"kind": "replay", "position": self.position}

    def records(self) -> Iterator[StreamRecord]:
        trace = self._trace
        delay = 1.0 / self._rate if self._rate is not None else 0.0
        ordered = sorted(trace.events, key=lambda e: (e.start_time, e.event_id))
        if self._start_position:
            ordered = ordered[self._start_position :]
        if self._max_events is not None:
            ordered = ordered[: self._max_events]
        self.position = self._start_position
        for event in ordered:
            if delay:
                time.sleep(delay)
            yield StreamRecord(
                event=event,
                subject=trace.entity(event.subject_id),
                obj=trace.entity(event.object_id),
            )
            self.position += 1


def iter_batches(
    records: Iterable[StreamRecord], batch_size: int
) -> Iterator[list[StreamRecord]]:
    """Group a record stream into micro-batches of at most ``batch_size``."""
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    batch: list[StreamRecord] = []
    for record in records:
        batch.append(record)
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


__all__ = ["EventSource", "LogTailSource", "ReplaySource", "StreamRecord", "iter_batches"]
