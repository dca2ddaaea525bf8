"""Store-backed campaigns: the queue-draining experiment engine.

:func:`run_matrix_store` is the store-era twin of
:func:`repro.sim.fault.run_matrix_supervised`: the same supervised
per-cell forks, timeouts, retries and failure classification — but the
campaign's state lives in the content-addressed store and its lease
queue instead of a private JSONL file, which buys three things:

* **Any cell ever computed is never recomputed** — cells already in the
  store (verified on read) are reused before any job is enqueued.
* **Multiple processes drain one campaign** — each ``python -m
  repro.experiments ... --store DIR`` process claims jobs under
  heartbeat leases; no cell is computed twice while its lease is live,
  and a SIGKILLed worker's cells are reclaimed after lease expiry and
  completed by whoever is left.
* **Crash-anywhere recovery** — results commit through the write-ahead
  journal *before* the job's done marker, so the worst a crash costs is
  one recompute (an idempotent store put), never a torn record.

The drain is one continuous supervised run (fork isolation, per-attempt
timeout, bounded retries with backoff): a job is claimed the moment a
worker slot is free, and each cell settles the moment it ends — its job
is completed after the result is committed, or marked failed — so a
fast cell never waits for a slow one. One keeper thread heartbeats every
lease held at the time, and each program is prepared once per drain.
"""

from __future__ import annotations

import threading

from repro.errors import LeaseError
from repro.obs import progress as _progress
from repro.sim import fault as _fault
from repro.store.cas import ResultStore
from repro.store.checkpoint import StoreCheckpoint
from repro.store.integrity import fault_point
from repro.store.queue import (
    DEFAULT_LEASE_TTL,
    CampaignQueue,
    Job,
    default_worker_id,
)
from repro.utils.signals import deferred_interrupts

__all__ = ["run_matrix_store", "campaign_name", "collect_results"]


def campaign_name(seed: int, scale: float) -> str:
    """Canonical queue namespace of one (seed, scale) matrix campaign."""
    return f"matrix-seed{seed}-scale{scale:g}"


class _LeaseKeeper(threading.Thread):
    """Renews every lease the drain holds while its cells simulate.

    Runs at a third of the lease TTL, so only a dead (or wedged-longer-
    than-TTL) worker ever expires. The held set changes as jobs are
    claimed and settled: :meth:`drop` takes a job out under the same lock
    a renewal holds, so a settled job's lease is never rewritten. A
    lease lost anyway (reclaimed after a stall) is remembered in
    ``lost`` and no longer renewed.
    """

    def __init__(self, queue: CampaignQueue, worker: str, ttl: float) -> None:
        super().__init__(daemon=True, name="store-lease-keeper")
        self._queue = queue
        self._worker = worker
        self._interval = max(0.05, ttl / 3.0)
        self._halt = threading.Event()
        self._lock = threading.Lock()
        self.held: dict[tuple, Job] = {}
        self.lost: set[str] = set()

    def hold(self, job: Job) -> None:
        """Start renewing *job*'s lease."""
        self.held[job.key] = job

    def drop(self, key: tuple) -> Job | None:
        """Stop renewing the lease of cell *key*; returns its job."""
        with self._lock:
            return self.held.pop(key, None)

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            for key in list(self.held):
                with self._lock:
                    job = self.held.get(key)
                    if job is None or job.digest in self.lost:
                        continue
                    try:
                        self._queue.heartbeat(job, worker=self._worker)
                    except LeaseError:
                        self.lost.add(job.digest)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


class _QueueSource(_fault.TaskSource):
    """The campaign queue as a supervised task source.

    Each claim runs under :func:`deferred_interrupts` together with
    handing the lease to the keeper, so a signal cannot land between the
    lease file and the guard that gives it back. A settled cell's job is
    completed (the supervisor commits the result to the store first) or
    marked failed.
    """

    def __init__(
        self, queue: CampaignQueue, keeper: _LeaseKeeper, worker: str, *,
        expected: int, retry_interval: float,
    ) -> None:
        self._queue = queue
        self._keeper = keeper
        self._worker = worker
        self.expected = expected
        self.retry_interval = retry_interval

    def claim(self):
        with deferred_interrupts():
            job = self._queue.claim(self._worker)
            if job is not None:
                self._keeper.hold(job)
        if job is None:
            return None
        fault_point("campaign.after_claim")
        return job.task

    def exhausted(self) -> bool:
        # Other workers may hold live leases: until their completions (or
        # their leases' expiry, which claim() then reclaims) the queue is
        # not drained and the supervisor asks again.
        return self._queue.drained()

    def settle(self, key, failure=None) -> None:
        job = self._keeper.drop(key)
        if failure is None:
            self._queue.complete(job, worker=self._worker)
        else:
            self._queue.fail(job, kind=failure.kind, message=failure.message)


def _matrix_tasks(workloads, configs, miss_scales, seed, scale) -> dict:
    """{canonical cell key: task tuple} for the whole matrix."""
    tasks = {}
    for workload in workloads:
        for config in configs:
            for miss_scale in miss_scales:
                task = (workload, config, miss_scale, seed, scale)
                tasks[_fault._matrix_task_key(task)] = task
    return tasks


def collect_results(
    store: ResultStore, keys, *, results: dict | None = None
) -> dict:
    """Fill *results* with verified store records for the missing *keys*."""
    results = results if results is not None else {}
    for key in keys:
        if key not in results:
            record = store.get(key)
            if record is not None:
                results[key] = record
    return results


def run_matrix_store(
    workloads,
    configs,
    *,
    store_dir,
    seed: int = 1,
    scale: float = 1.0,
    miss_scales=(1.0,),
    policy: _fault.FaultPolicy | None = None,
    max_workers: int | None = None,
    progress: bool = False,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    wait_poll: float = 0.5,
    prewarm_programs: bool = False,
) -> _fault.SupervisedOutcome:
    """Drain one matrix campaign through the store and its lease queue.

    Returns a :class:`~repro.sim.fault.SupervisedOutcome` whose
    ``results`` cover every cell *any* participating worker completed
    (collected from the store), ``reused`` counts cells served from the
    store without enqueueing, and ``failures`` covers permanent failures
    from this worker and from markers other workers left behind.
    """
    worker = worker_id or default_worker_id()
    store = ResultStore(store_dir)
    recovery = store.recover()
    if recovery.replayed and progress:
        _progress.report(
            f"store: replayed {recovery.replayed} journaled write(s) "
            f"from a previous crash",
            event="store_recovered",
            replayed=recovery.replayed,
        )
    tasks = _matrix_tasks(workloads, configs, miss_scales, seed, scale)
    queue = CampaignQueue(
        store.root / "queue", campaign_name(seed, scale), lease_ttl=lease_ttl
    )

    outcome = _fault.SupervisedOutcome(results={})
    for key, task in tasks.items():
        cached = store.get(key)  # verified; corrupt records quarantine here
        if cached is not None:
            outcome.results[key] = cached
            outcome.reused += 1
            queue.ensure_done(key, worker=worker)
        else:
            # A miss with a done marker left behind means the record was
            # quarantined since: withdraw the marker or the cell would
            # be skipped forever.
            queue.reopen(key)
            queue.enqueue(key, task)
    if outcome.reused and progress:
        _progress.report(
            f"store: {outcome.reused}/{len(tasks)} cells served from "
            f"{store.root} (verified)",
            event="store_resumed",
            reused=outcome.reused,
            total=len(tasks),
        )

    checkpoint = StoreCheckpoint(store, worker=worker)
    keeper = _LeaseKeeper(queue, worker, lease_ttl)
    source = _QueueSource(
        queue,
        keeper,
        worker,
        expected=len(tasks) - outcome.reused,
        retry_interval=wait_poll,
    )
    keeper.start()
    # One guard from the first claim to the last settle: whatever
    # interrupts this worker, every lease it still holds goes back.
    try:
        drain = _fault.run_supervised(
            [],
            _fault._matrix_cell_worker,
            key_of=_fault._matrix_task_key,
            policy=policy,
            max_workers=max(1, max_workers or 1),
            checkpoint=checkpoint,
            progress=progress,
            phase_name="store_campaign",
            prepare=_fault._matrix_cell_prepare if prewarm_programs else None,
            source=source,
        )
    except BaseException:
        keeper.stop()
        # Interrupt/fail-fast: keep what the store already has, give
        # the rest back so other workers (or a rerun) pick them up.
        for job in keeper.held.values():
            if store.contains(job.key):
                queue.complete(job, worker=worker)
            else:
                queue.release(job)
        raise
    keeper.stop()
    outcome.results.update(drain.results)
    outcome.attempts.update(drain.attempts)
    outcome.failures.extend(drain.failures)

    # Cells other workers completed (or failed) while we drained.
    collect_results(store, tasks.keys(), results=outcome.results)
    known_failed = {f.key for f in outcome.failures}
    for record in queue.failed_records():
        key = tuple(record.get("key", ()))
        if key and key in tasks and key not in known_failed:
            failure = _fault.CellFailure(
                key=key,
                kind=str(record.get("kind", "error")),
                message=str(record.get("message", "failed in another worker")),
                attempts=int(record.get("attempts", 1) or 1),
            )
            outcome.failures.append(failure)
            if not _fault.LEDGER.is_failed(key):
                _fault.LEDGER.record(failure)
    return outcome
