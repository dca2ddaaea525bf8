"""Queue-draining worker process behind the experiment service.

One worker is one OS process (``python -m repro.serve.worker``) owned by
the :mod:`repro.serve.supervisor` pool. It drains *every* campaign under
the store's queue root — jobs enqueued by ``run_matrix_store``, by the
HTTP API, or by another worker's quarantine-reopen all look the same —
with the lifecycle discipline the store contracts require:

* **Claim under lease, renew under heartbeat** — a keeper thread renews
  the lease and refreshes the worker's liveness file while the cell
  simulates; a lease lost anyway (reclaimed after a stall longer than
  the TTL) stops this worker from publishing the job.
* **Result before marker** — the cell's result commits to the store
  (journaled, checksummed) before the queue's done marker is written,
  so a crash between the two costs a recompute, never a torn record.
* **Per-cell timeout** — a SIGALRM budget per attempt; a timed-out or
  failed attempt is retried with the :class:`~repro.sim.fault.FaultPolicy`
  exponential backoff + deterministic jitter, by *expiring* (not
  releasing) its own lease so the claim count survives and the queue's
  ``max_claims`` circuit breaker keeps bounding crash loops.
* **Graceful drain** — SIGTERM/SIGINT (and the supervisor's death,
  watched via ``--parent-pid``) release the in-flight lease, write a
  final ``stopped`` heartbeat, flush the metrics spool, and exit 0.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.errors import LeaseError, ReproError
from repro.obs import span as _span
from repro.obs.metrics import REGISTRY
from repro.sim import fault as _fault
from repro.sim.runner import clear_caches
from repro.store.cas import ResultStore
from repro.store.integrity import fault_point
from repro.store.queue import DEFAULT_LEASE_TTL, CampaignQueue, Job, default_worker_id
from repro.utils.atomic import atomic_write_text
from repro.utils.signals import deferred_interrupts, interrupt_on_signal

__all__ = ["WorkerHeartbeat", "run_worker", "main"]

#: Where workers publish liveness, relative to the store root.
WORKERS_DIRNAME = Path("serve") / "workers"

#: Where workers flush their metrics spool on exit.
TELEMETRY_DIRNAME = Path("serve") / "telemetry"


class _AttemptTimeout(Exception):
    """Raised by the SIGALRM handler when a cell exceeds its budget."""


class WorkerHeartbeat:
    """The worker's liveness file: ``<store>/serve/workers/<id>.json``.

    The file's *mtime* is the liveness signal (same filesystem-clock
    discipline as queue leases); the JSON body carries state for the
    supervisor's per-cell timeout backstop and for ``GET /v1/workers``.
    """

    def __init__(self, store_root: Path, worker_id: str) -> None:
        self.worker = worker_id
        self.path = store_root / WORKERS_DIRNAME / f"{worker_id}.json"
        self.path.parent.mkdir(parents=True, exist_ok=True)

    def beat(self, state: str, *, counts: dict | None = None, **fields) -> None:
        """Rewrite the liveness file (fresh mtime + fresh state)."""
        payload = {
            "worker": self.worker,
            "pid": os.getpid(),
            "state": state,
            "time": time.time(),
        }
        if counts:
            payload["counts"] = dict(counts)
        payload.update({k: v for k, v in fields.items() if v is not None})
        try:
            atomic_write_text(self.path, json.dumps(payload, sort_keys=True))
        except OSError:
            pass  # liveness degrades to lease TTLs, never kills the cell

    def touch(self) -> None:
        """Refresh liveness without rewriting state (keeper thread)."""
        try:
            os.utime(self.path, None)
        except OSError:
            pass


class _CellKeeper(threading.Thread):
    """Renews one job's lease + the liveness file while a cell runs."""

    def __init__(
        self,
        queue: CampaignQueue,
        job: Job,
        worker: str,
        heartbeat: WorkerHeartbeat,
    ) -> None:
        super().__init__(daemon=True, name="serve-cell-keeper")
        self._queue = queue
        self._job = job
        self._worker = worker
        self._heartbeat = heartbeat
        self._interval = max(0.05, queue.lease_ttl / 3.0)
        self._halt = threading.Event()
        self.lost = False

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            self._heartbeat.touch()
            try:
                self._queue.heartbeat(self._job, worker=self._worker)
            except LeaseError:
                self.lost = True
                return

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=5.0)


def _campaign_queues(store: ResultStore, lease_ttl: float) -> list[CampaignQueue]:
    """Every campaign currently under the store's queue root."""
    root = store.root / "queue"
    if not root.is_dir():
        return []
    return [
        CampaignQueue(root, entry.name, lease_ttl=lease_ttl)
        for entry in sorted(root.iterdir())
        if entry.is_dir()
    ]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _classify(exc: BaseException) -> tuple[str, str]:
    if isinstance(exc, _AttemptTimeout):
        return _fault.KIND_TIMEOUT, str(exc)
    if isinstance(exc, ReproError):
        return _fault.KIND_ERROR, f"{type(exc).__name__}: {exc}"
    return _fault.KIND_UNEXPECTED, f"{type(exc).__name__}: {exc}"


def _alarm_guard(timeout: float | None):
    """Arm a per-attempt SIGALRM budget (main thread only); a context."""
    import contextlib

    @contextlib.contextmanager
    def _armed():
        usable = (
            timeout is not None
            and threading.current_thread() is threading.main_thread()
        )
        if not usable:
            yield
            return

        def _on_alarm(signum, frame):  # noqa: ARG001
            raise _AttemptTimeout(
                f"cell exceeded per-attempt timeout of {timeout:g}s"
            )

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return _armed()


def _run_job(
    store: ResultStore,
    queue: CampaignQueue,
    worker_id: str,
    policy: _fault.FaultPolicy,
    heartbeat: WorkerHeartbeat,
    counts: dict,
) -> bool:
    """Claim one job and run it end to end (complete / fail / retry-expire).

    Returns False when nothing is claimable. One guard covers the claim
    through the settle: an interrupt anywhere in between gives a lease
    this worker still owns back to the queue.
    """
    held: Job | None = None  # claimed and not yet settled
    keeper = None
    try:
        with deferred_interrupts():
            held = job = queue.claim(worker_id)
        if job is None:
            return False
        fault_point("worker.after_claim")
        with _span.span(
            "serve.lease",
            campaign=queue.campaign,
            digest=job.digest[:12],
            attempt=job.attempt,
        ):
            cached = store.get(job.key)  # verified; corrupt quarantines here
            if cached is not None:
                queue.complete(job, worker=worker_id)
                held = None
                counts["reused"] += 1
                REGISTRY.inc("serve.worker.cells", kind="reused")
                return True
            heartbeat.beat(
                "cell",
                counts=counts,
                cell=job.digest,
                campaign=queue.campaign,
                attempt=job.attempt,
                cell_started=time.time(),
            )
            keeper = _CellKeeper(queue, job, worker_id, heartbeat)
            keeper.start()
            started = time.monotonic()
            try:
                with _alarm_guard(policy.timeout):
                    result = _fault.matrix_cell_worker(job.task)
            except Exception as exc:  # noqa: BLE001 - classified below
                keeper.stop()
                kind, message = _classify(exc)
                REGISTRY.inc("serve.worker.attempt_failures", kind=kind)
                if keeper.lost:
                    counts["released"] += 1
                    return True  # someone else owns the job now
                if job.attempt <= policy.retries:
                    # Retry with backoff by expiring our own lease: the
                    # next claim (ours or anyone's) reclaims it with the
                    # attempt count intact, so max_claims still bounds
                    # crash loops.
                    time.sleep(policy.backoff_delay(job.key, job.attempt))
                    queue.expire(job.digest, worker=worker_id)
                    held = None
                    counts["retried"] += 1
                else:
                    queue.fail(job, kind=kind, message=message)
                    held = None
                    counts["failed"] += 1
                    REGISTRY.inc("serve.worker.cells", kind="failed")
                return True
            keeper.stop()
            fresh = store.put(job.key, result)
            if fresh:
                store.log_compute(job.key, worker_id)
            if keeper.lost:
                # The result is durably (and idempotently) in the store,
                # but the done marker belongs to whoever holds the lease
                # now.
                counts["released"] += 1
                return True
            queue.complete(job, worker=worker_id)
            held = None
            counts["completed"] += 1
            REGISTRY.inc("serve.worker.cells", kind="completed")
            REGISTRY.observe(
                "serve.worker.cell_seconds", time.monotonic() - started
            )
            return True
    except KeyboardInterrupt:
        # Graceful drain: give the claim back untouched (unless a lost
        # lease means it is someone else's to give).
        if keeper is not None:
            keeper.stop()
        if held is not None and not (keeper is not None and keeper.lost):
            queue.release(held)
            counts["released"] += 1
        raise


def _flush_telemetry(store: ResultStore, worker_id: str) -> None:
    """Spool this worker's metrics next to the store (best effort)."""
    path = store.root / TELEMETRY_DIRNAME / f"{worker_id}.metrics.json"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            path, json.dumps(REGISTRY.dump(), sort_keys=True, default=str)
        )
    except Exception:  # noqa: BLE001 - telemetry loss is never fatal
        pass


def run_worker(
    store_dir,
    *,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = 0.5,
    cell_timeout: float | None = None,
    retries: int = 1,
    parent_pid: int | None = None,
    exit_when_drained: bool = False,
    max_cells: int | None = None,
) -> int:
    """Drain campaigns until told to stop; the worker-process main loop.

    Exits 0 on graceful drain (SIGTERM/SIGINT, supervisor death, or —
    with *exit_when_drained* — when every campaign is settled). Non-cell
    errors (an unreadable store root, say) exit non-zero; cell failures
    never do, they become queue markers.
    """
    worker_id = worker_id or default_worker_id()
    store = ResultStore(store_dir)
    store.recover()
    heartbeat = WorkerHeartbeat(store.root, worker_id)
    policy = _fault.FaultPolicy(timeout=cell_timeout, retries=retries)
    counts = {
        "completed": 0,
        "reused": 0,
        "failed": 0,
        "released": 0,
        "retried": 0,
    }
    done_cells = 0
    try:
        with interrupt_on_signal((signal.SIGTERM, signal.SIGINT)):
            heartbeat.beat("starting", counts=counts)
            while True:
                if parent_pid is not None and not _pid_alive(parent_pid):
                    break  # orphaned: the supervisor is gone
                queues = _campaign_queues(store, lease_ttl)
                claimed = False
                for queue in queues:
                    ran = False
                    while _run_job(
                        store, queue, worker_id, policy, heartbeat, counts
                    ):
                        claimed = ran = True
                        done_cells += 1
                        if max_cells is not None and done_cells >= max_cells:
                            return 0
                        if parent_pid is not None and not _pid_alive(
                            parent_pid
                        ):
                            return 0
                    if ran:
                        # Nothing left to claim here: the campaign's
                        # programs and results (committed to the store)
                        # would only grow this long-lived process.
                        clear_caches()
                if not claimed:
                    heartbeat.beat("idle", counts=counts)
                    if (
                        exit_when_drained
                        and queues
                        and all(q.drained() for q in queues)
                    ):
                        break
                    time.sleep(poll)
    except KeyboardInterrupt:
        pass  # graceful: the in-flight lease was released in _run_job
    finally:
        heartbeat.beat("stopped", counts=counts)
        _flush_telemetry(store, worker_id)
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry: parse arguments and run one worker to completion."""
    parser = argparse.ArgumentParser(
        prog="repro-serve-worker",
        description="One queue-draining worker of the experiment service.",
    )
    parser.add_argument("--store", required=True, metavar="DIR")
    parser.add_argument("--worker-id", default=None)
    parser.add_argument("--lease-ttl", type=float, default=DEFAULT_LEASE_TTL)
    parser.add_argument("--poll", type=float, default=0.5)
    parser.add_argument("--cell-timeout", type=float, default=None)
    parser.add_argument("--retries", type=int, default=1)
    parser.add_argument("--parent-pid", type=int, default=None)
    parser.add_argument("--exit-when-drained", action="store_true")
    parser.add_argument("--max-cells", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        return run_worker(
            args.store,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            poll=args.poll,
            cell_timeout=args.cell_timeout,
            retries=args.retries,
            parent_pid=args.parent_pid,
            exit_when_drained=args.exit_when_drained,
            max_cells=args.max_cells,
        )
    except ReproError as exc:
        print(f"worker error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - process entry
    sys.exit(main())
