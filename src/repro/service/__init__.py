"""Linkage-as-a-service: an async job layer over the matching engine.

The package turns the batch library into a long-lived service: clients
submit learning, link-generation or delta jobs
(:class:`~repro.service.service.LinkageService`), worker processes
pull them from a pluggable queue (:mod:`repro.service.queue`) and
execute them through a shared :class:`~repro.engine.store.ColumnStore`
cache dir (:mod:`repro.service.worker`), and every job's lifecycle —
atomic state transitions, retry with backoff, the per-run
:class:`~repro.matching.engine.MatchStats` — lives in a file-backed
job store (:mod:`repro.service.jobs`).

Service-path links are byte-identical to a direct
:meth:`repro.matching.engine.MatchingEngine.execute` over the same
inputs: workers run the very same engine, and the queue only decides
*where* it runs. With the ``inline`` backend the service executes in
the submitting process — same job records, same links, no workers
required.
"""

from repro.service.jobs import (
    JOB_KINDS,
    JOB_STATES,
    CorruptRecord,
    InvalidTransition,
    JobRecord,
    JobStore,
    StaleJob,
)
from repro.service.queue import (
    QUEUE_ENV,
    ClaimTicket,
    FileQueue,
    QueueBackend,
    resolve_queue,
)
from repro.service.service import DEADLINE_ENV, SERVICE_DIR_ENV, LinkageService
from repro.service.worker import JobRunner, recover_stale, run_worker

__all__ = [
    "DEADLINE_ENV",
    "JOB_KINDS",
    "JOB_STATES",
    "QUEUE_ENV",
    "SERVICE_DIR_ENV",
    "ClaimTicket",
    "CorruptRecord",
    "FileQueue",
    "InvalidTransition",
    "JobRecord",
    "JobRunner",
    "JobStore",
    "LinkageService",
    "QueueBackend",
    "StaleJob",
    "recover_stale",
    "resolve_queue",
    "run_worker",
]
