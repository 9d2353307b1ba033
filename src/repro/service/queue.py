"""Pluggable job queues: the file-backed backend, or none (inline).

The queue carries only job *ids* — the payload lives in the
:class:`~repro.service.jobs.JobStore` — so a backend needs exactly
four operations: submit, claim, ack, release. The file backend builds
mutual exclusion out of ``os.rename``: a ready ticket is one file
under ``<root>/queue/ready/``, claiming renames it into
``<root>/queue/claimed/``, and POSIX rename atomicity guarantees
exactly one winner however many workers race. A crashed worker leaves
its claimed ticket behind; :func:`repro.service.worker.recover_stale`
turns those back into ready tickets with backoff.

Ticket filenames are ``<not_before_ms>-<submit_ns>-<job_id>``:
lexicographic order is eligibility order, so claiming is one sorted
directory listing, and retry backoff is encoded in the name instead of
requiring a scheduler.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro import faults

#: Environment variable selecting the queue backend when a service is
#: constructed without an explicit ``queue=`` (values: ``file`` — the
#: default — or ``inline``/``none`` to force inline execution).
QUEUE_ENV = "REPRO_SERVICE_QUEUE"


@dataclass(frozen=True)
class ClaimTicket:
    """A successfully claimed queue entry: the job to run plus the
    backend token (the file queue: the claimed ticket's path) to ack or
    release it."""

    job_id: str
    token: str


class QueueBackend:
    """Interface of a job queue backend.

    All methods operate on job ids; payloads live in the job store.
    Backends must be safe for concurrent submitters and claimers in
    separate processes.
    """

    #: Short backend name for health checks and logs.
    name = "abstract"

    def submit(self, job_id: str, not_before: float = 0.0) -> None:
        """Enqueue a job id, eligible for claiming at ``not_before``
        (a wall-clock timestamp; 0 = immediately)."""
        raise NotImplementedError

    def claim(self, worker_id: str) -> ClaimTicket | None:
        """Atomically take the oldest eligible entry, or ``None`` when
        nothing is eligible right now."""
        raise NotImplementedError

    def ack(self, ticket: ClaimTicket) -> None:
        """Drop a claimed entry for good (job finished, terminally)."""
        raise NotImplementedError

    def release(self, ticket: ClaimTicket, not_before: float = 0.0) -> None:
        """Return a claimed entry to the queue (retry with backoff)."""
        raise NotImplementedError

    def depth(self) -> int:
        """Entries waiting to be claimed (eligible or backing off)."""
        raise NotImplementedError

    def claimed(self) -> list[tuple[str, str, float]]:
        """In-flight claims as ``(job_id, token, claimed_at)`` — the
        reaper's input for crash recovery."""
        raise NotImplementedError

    def describe(self) -> dict:
        """Backend summary for health checks."""
        return {
            "backend": self.name,
            "depth": self.depth(),
            "claimed": len(self.claimed()),
        }


class FileQueue(QueueBackend):
    """Directory-backed queue with atomic-rename claiming.

    Requires no services and no locks: submission is one atomic JSON-
    free file creation, claiming is one ``os.rename`` race that exactly
    one worker wins, and crash recovery is a directory scan. Suited to
    single-host worker fleets sharing a filesystem — the same scope as
    the shared :class:`~repro.engine.store.ColumnStore` cache dir.
    """

    name = "file"

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self._ready = self.root / "queue" / "ready"
        self._claimed = self.root / "queue" / "claimed"
        self._ready.mkdir(parents=True, exist_ok=True)
        self._claimed.mkdir(parents=True, exist_ok=True)

    def submit(self, job_id: str, not_before: float = 0.0) -> None:
        if "/" in job_id or job_id != job_id.strip() or not job_id:
            raise ValueError(f"unsupported job id for file queue: {job_id!r}")
        # Two fixed-width numeric fields then the job id: parsing
        # splits on the first two dashes, so ids may contain dashes.
        name = f"{int(max(0.0, not_before) * 1000):015d}-{time.time_ns():020d}-{job_id}"
        path = self._ready / name
        with open(path, "x", encoding="utf-8") as handle:
            handle.write(job_id)

    def claim(self, worker_id: str) -> ClaimTicket | None:
        faults.fire("queue.claim")
        now_ms = int(time.time() * 1000)
        for path in sorted(self._ready.iterdir()):
            not_before_ms, _, job_id = self._parse(path.name)
            if job_id is None:
                continue
            if not_before_ms > now_ms:
                # Names sort by eligibility time first: everything
                # after this entry is even further in the future.
                return None
            target = self._claimed / f"{path.name}--{worker_id}"
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # another worker won this ticket
            return ClaimTicket(job_id=job_id, token=str(target))
        return None

    def ack(self, ticket: ClaimTicket) -> None:
        faults.fire("queue.ack")
        try:
            os.unlink(ticket.token)
        except FileNotFoundError:
            pass

    def release(self, ticket: ClaimTicket, not_before: float = 0.0) -> None:
        self.submit(ticket.job_id, not_before=not_before)
        self.ack(ticket)

    def depth(self) -> int:
        return sum(1 for _ in self._ready.iterdir())

    def claimed(self) -> list[tuple[str, str, float]]:
        entries: list[tuple[str, str, float]] = []
        for path in sorted(self._claimed.iterdir()):
            base = path.name.rsplit("--", 1)[0]
            _, _, job_id = self._parse(base)
            if job_id is None:
                continue
            try:
                claimed_at = path.stat().st_mtime
            except FileNotFoundError:
                continue
            entries.append((job_id, str(path), claimed_at))
        return entries

    @staticmethod
    def _parse(name: str) -> tuple[int, int, str | None]:
        parts = name.split("-", 2)
        if len(parts) != 3:
            return 0, 0, None
        try:
            return int(parts[0]), int(parts[1]), parts[2]
        except ValueError:
            return 0, 0, None


def resolve_queue(
    root: str | os.PathLike,
    backend: str | None = None,
) -> QueueBackend | None:
    """Resolve a queue backend spec to a queue, or ``None`` for inline
    execution.

    ``backend=None`` consults :data:`QUEUE_ENV` (default ``file``).
    ``inline``/``none``/empty force inline execution; any other name
    raises ``ValueError``.
    """
    spec = backend if backend is not None else os.environ.get(QUEUE_ENV, "file")
    text = spec.strip().lower() or "file"
    if text in ("inline", "none"):
        return None
    if text == "file":
        return FileQueue(root)
    raise ValueError(
        f"unknown queue backend {spec!r}: expected file or inline"
    )
